"""Outside-in spans for the traced run, and the per-layer metrics built
from them.

A traced child (``traced_cli.py``) rebinds public tokenlens functions on
the modules that call them, so every call becomes a span: name, start, end,
parent and the child's run id, plus a few counts taken from the call's
arguments and result. Spans stay in memory and are written once, at exit.

Nothing here wraps a function called more than about 1e5 times per run, nor
any private ``_`` helper: the wrappers cost a few microseconds per call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
from typing import Callable

# ---------------------------------------------------------------------------
# recording (runs inside the traced child)


class Tracer:
    """In-memory span recorder. Each thread keeps its own stack of open
    spans; work handed to a pool thread names its parent explicitly."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, counts)
        self.missing: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, counts=None, parent=None):
        """Run fn(*args, **kwargs) as one span; result and exceptions pass
        through unchanged. counts(args, kwargs, result) adds span counts."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, {"raised": 1}))
            raise
        t1 = time.perf_counter()
        stack.pop()
        extra = None
        if counts is not None:
            try:
                extra = counts(args, kwargs, result)
            except Exception as exc:  # a count must never change the run
                extra = {"count_error": 1}
                self.missing.setdefault(name + ".counts", repr(exc))
        self.spans.append((sid, parent, name, t0, t1, extra))
        return result

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name: str, fn: Callable, counts=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def dump(self, path: str) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "missing": self.missing}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _ulm_removed(args, kwargs, result) -> dict:
    return {"removed": len(args[0]) - len(result)}


# (module, public name, span name, counts). Each rebinding is on the module
# that *calls* the function, which is where a call looks the name up.
PLAIN_WRAPS: list[tuple[str, str, str, Callable | None]] = [
    ("tokenlens.vocab", "load_vocab", "vocab.load_vocab", lambda a, k, r: {"tokens": len(r)}),
    ("tokenlens.vocab", "load_merges", "vocab.load_merges", lambda a, k, r: {"rules": len(r)}),
    ("tokenlens.vocab", "save_vocab", "vocab.save", None),
    ("tokenlens.vocab", "save_merges", "vocab.save", None),
    ("tokenlens.cli", "load_corpus", "text.load", lambda a, k, r: {"bytes": _file_bytes(a[0])}),
    ("tokenlens.cli", "load_parallel_corpus", "text.load", lambda a, k, r: {"bytes": _file_bytes(a[0], a[1])}),
    ("tokenlens.premium", "bpe_encode", "training.bpe_encode",
     lambda a, k, r: {"chars_in": len(a[0]), "tokens_out": len(r)}),
    ("tokenlens.premium", "ulm_viterbi_segment", "training.ulm_viterbi", None),
    ("tokenlens.training", "ulm_viterbi_segment", "training.ulm_viterbi", None),
    ("tokenlens.training", "count_adjacent_pairs", "training.count_adjacent_pairs", None),
    ("tokenlens.training", "bpe_train", "training.bpe_train", lambda a, k, r: {"merges": len(r[1])}),
    ("tokenlens.training", "wordpiece_train", "training.wordpiece_train", lambda a, k, r: {"merges": len(r[1])}),
    ("tokenlens.training", "ulm_seed", "training.ulm_seed", None),
    ("tokenlens.training", "ulm_prune", "training.ulm_prune", _ulm_removed),
    ("tokenlens.training", "unigram_log_likelihood", "training.unigram_log_likelihood", None),
    ("tokenlens.cli", "premium_matrix", "premium.premium_matrix", None),
    ("tokenlens.premium", "premium", "premium.premium",
     lambda a, k, r: {"pairs": len(a[1].pairs), "skipped": r.n_skipped}),
    ("tokenlens.cli", "write_premium_csv", "premium.write", None),
    ("tokenlens.cli", "write_premium_json", "premium.write", None),
    ("tokenlens.analysis", "normalize_vocab", "analysis.normalize",
     lambda a, k, r: {"tokens": len(a[0]), "collapsed": r.n_collapsed}),
    ("tokenlens.analysis", "vocab_breakdown", "analysis.breakdown", None),
    ("tokenlens.analysis", "comparison_matrix", "analysis.matrix", None),
    ("tokenlens.embedding", "read_matrix", "embedding.read_matrix", None),
    ("tokenlens.embedding", "select_oov_chars", "embedding.select_oov_chars", lambda a, k, r: {"chars": len(r)}),
    ("tokenlens.embedding", "build_reference", "embedding.build_reference", lambda a, k, r: {"rows": len(r)}),
    ("tokenlens.embedding", "pooled_hidden", "embedding.pooled_hidden", None),
    ("tokenlens.embedding", "derive_knn", "embedding.derive", None),
    ("tokenlens.embedding", "derive_linreg", "embedding.derive", None),
    ("tokenlens.embedding", "derive_local_linreg", "embedding.derive", None),
    ("tokenlens.embedding", "fraction_new_tokens", "embedding.fraction_new_tokens", None),
    ("tokenlens.embedding", "encode_augmented", "embedding.encode_augmented", None),
    ("tokenlens.embedding", "eval_similarity", "embedding.eval_similarity",
     lambda a, k, r: {"unchanged": int(r == 1.0)}),
    ("tokenlens.embedding", "save_plan", "embedding.save_plan", None),
]

# Modules whose ``ordered_map`` is traced (pool wall time and item time).
ORDERED_MAP_USERS = ("tokenlens.premium", "tokenlens.analysis", "tokenlens.embedding")
# Factories whose TokenizerHandle.encode is traced (aliasing, handle cost).
HANDLE_FACTORIES = ("bpe_tokenizer", "ulm_tokenizer")


def _traced_ordered_map(tracer: Tracer, inner: Callable) -> Callable:
    def ordered_map(fn, items, threads=1):
        eff = threads if threads > 1 and len(items) > 1 else 1

        def body(fn, items, threads):
            parent = tracer.current()

            def item(x):
                return tracer.call("parallel.item", fn, (x,), {}, parent=parent)

            return inner(item, items, threads)

        return tracer.call(
            "parallel.ordered_map", body, (fn, items, threads), {},
            counts=lambda a, k, r: {"items": len(items), "threads": eff},
        )

    return ordered_map


def _traced_factory(tracer: Tracer, factory: Callable) -> Callable:
    def make(*args, **kwargs):
        handle = factory(*args, **kwargs)
        handle.encode = tracer.wrap("premium.encode", handle.encode)
        return handle

    return make


def install(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Rebind every traced name. A name that is gone is recorded as missing
    with the reason, and the run goes on without it. Returns (module, name,
    original) for each rebinding, so a caller can undo them."""
    undo = []

    def rebind(module_name: str, attr: str, make: Callable) -> None:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            tracer.missing[f"{module_name}.{attr}"] = repr(exc)
            return
        setattr(module, attr, make(original))
        undo.append((module, attr, original))

    for module_name, attr, name, counts in PLAIN_WRAPS:
        rebind(module_name, attr, lambda fn, name=name, counts=counts: tracer.wrap(name, fn, counts))
    for module_name in ORDERED_MAP_USERS:
        rebind(module_name, "ordered_map", lambda fn: _traced_ordered_map(tracer, fn))
    for attr in HANDLE_FACTORIES:
        rebind("tokenlens.cli", attr, lambda fn: _traced_factory(tracer, fn))
    return undo


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover. Children that overlap (pool threads) count once; a child
    reaching past its parent is clipped to the parent's interval."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, t0, t1, _c in spans:
        if parent in by_id:
            p = by_id[parent]
            children.setdefault(parent, []).append((max(t0, p[3]), min(t1, p[4])))
    out = {}
    for sid, _parent, _name, t0, t1, _c in spans:
        covered = _union_length([iv for iv in children.get(sid, []) if iv[1] > iv[0]])
        out[sid] = (t1 - t0) - covered
    return out


class SpanStats:
    """Per-name totals over the spans of one or more traced children."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.capacity_s = 0.0  # ordered_map wall x effective threads
        self.missing: dict[str, str] = {}

    def add(self, doc: dict) -> None:
        spans = doc["spans"]
        selfs = self_times(spans)
        self.missing.update(doc.get("missing", {}))
        for sid, _parent, name, t0, t1, counts in spans:
            d = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + d
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[sid]
            self.durations.setdefault(name, []).append(d)
            if counts:
                bucket = self.counts.setdefault(name, {})
                for key, value in counts.items():
                    bucket[key] = bucket.get(key, 0) + value
                if name == "parallel.ordered_map":
                    self.capacity_s += d * counts.get("threads", 1)

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _sources() -> dict[str, list[str]]:
    """Span name -> the traced public functions it comes from."""
    out: dict[str, list[str]] = {}
    for module_name, attr, name, _counts in PLAIN_WRAPS:
        out.setdefault(name, []).append(f"{module_name}.{attr}")
    out["parallel.ordered_map"] = [f"{m}.ordered_map" for m in ORDERED_MAP_USERS]
    out["premium.encode"] = [f"tokenlens.cli.{attr}" for attr in HANDLE_FACTORIES]
    return out


def layer_metrics(st: SpanStats) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values (times in s unless named _ms) and, for each
    metric that could not be measured, the reason."""
    m: dict[str, float] = {}
    missing: dict[str, str] = {}
    # Metric -> span it is computed from.
    derived_from: dict[str, str] = {}

    def put(metric: str, span: str, value: float) -> None:
        m[metric] = value
        derived_from[metric] = span

    put("vocab.load_vocab_s", "vocab.load_vocab", st.total.get("vocab.load_vocab", 0.0))
    put("vocab.load_merges_s", "vocab.load_merges", st.total.get("vocab.load_merges", 0.0))
    put("vocab.tokens_loaded", "vocab.load_vocab", st.count("vocab.load_vocab", "tokens"))
    put("vocab.rules_loaded", "vocab.load_merges", st.count("vocab.load_merges", "rules"))
    put("vocab.save_s", "vocab.save", st.total.get("vocab.save", 0.0))
    put("text.load_s", "text.load", st.total.get("text.load", 0.0))
    put("text.bytes_loaded", "text.load", st.count("text.load", "bytes"))

    enc = "training.bpe_encode"
    put("training.bpe_encode_s", enc, st.self_s.get(enc, 0.0))
    put("training.bpe_encode_calls", enc, st.calls.get(enc, 0))
    put("training.bpe_encode_chars_in", enc, st.count(enc, "chars_in"))
    put("training.bpe_encode_tokens_out", enc, st.count(enc, "tokens_out"))
    durs = st.durations.get(enc, [])
    if durs:
        put("training.bpe_encode_p50_ms", enc, 1000.0 * percentile(durs, 50.0))
    else:
        missing["training.bpe_encode_p50_ms"] = "no bpe_encode calls"
    # p90 is the highest percentile with at least ten calls above it on
    # both workloads (frozen-bytebpe makes a few hundred calls per run).
    if len(durs) >= 100:
        put("training.bpe_encode_p90_ms", enc, 1000.0 * percentile(durs, 90.0))
    else:
        missing["training.bpe_encode_p90_ms"] = f"{len(durs)} bpe_encode calls leave fewer than 10 above p90"
    put("training.ulm_viterbi_s", "training.ulm_viterbi", st.self_s.get("training.ulm_viterbi", 0.0))
    put("training.ulm_viterbi_calls", "training.ulm_viterbi", st.calls.get("training.ulm_viterbi", 0))
    cap = "training.count_adjacent_pairs"
    put("training.count_adjacent_pairs_s", cap, st.total.get(cap, 0.0))
    put("training.count_adjacent_pairs_calls", cap, st.calls.get(cap, 0))
    put("training.bpe_train_s", "training.bpe_train", st.self_s.get("training.bpe_train", 0.0))
    put("training.wordpiece_train_s", "training.wordpiece_train", st.self_s.get("training.wordpiece_train", 0.0))
    put("training.merges_learned", "training.bpe_train",
        st.count("training.bpe_train", "merges") + st.count("training.wordpiece_train", "merges"))
    put("training.ulm_seed_s", "training.ulm_seed", st.total.get("training.ulm_seed", 0.0))
    put("training.ulm_prune_s", "training.ulm_prune", st.self_s.get("training.ulm_prune", 0.0))
    removed = st.count("training.ulm_prune", "removed")
    if removed:
        put("training.ulm_candidates_per_removal", "training.unigram_log_likelihood",
            st.calls.get("training.unigram_log_likelihood", 0) / removed)
    else:
        missing["training.ulm_candidates_per_removal"] = "ulm_prune removed no tokens"

    put("premium.encode_s", "premium.encode", st.self_s.get("premium.encode", 0.0))
    put("premium.encode_calls", "premium.encode", st.calls.get("premium.encode", 0))
    put("premium.premium_s", "premium.premium",
        st.self_s.get("premium.premium", 0.0) + st.self_s.get("premium.premium_matrix", 0.0))
    pairs = st.count("premium.premium", "pairs")
    skipped = st.count("premium.premium", "skipped")
    put("premium.pairs", "premium.premium", pairs)
    put("premium.pairs_skipped", "premium.premium", skipped)
    if pairs:
        put("premium.useful_ratio", "premium.premium", (pairs - skipped) / pairs)
    else:
        missing["premium.useful_ratio"] = "premium saw no pairs"
    put("premium.write_s", "premium.write", st.total.get("premium.write", 0.0))

    om = "parallel.ordered_map"
    put("parallel.ordered_map_wall_s", om, st.total.get(om, 0.0))
    put("parallel.item_busy_s", om, st.total.get("parallel.item", 0.0))
    put("parallel.items", om, st.calls.get("parallel.item", 0))
    if st.capacity_s > 0:
        put("parallel.busy_ratio", om, st.total.get("parallel.item", 0.0) / st.capacity_s)
    else:
        missing["parallel.busy_ratio"] = "no ordered_map calls"

    put("analysis.normalize_s", "analysis.normalize", st.total.get("analysis.normalize", 0.0))
    put("analysis.breakdown_s", "analysis.breakdown", st.total.get("analysis.breakdown", 0.0))
    put("analysis.matrix_s", "analysis.matrix", st.total.get("analysis.matrix", 0.0))
    put("analysis.tokens_normalized", "analysis.normalize", st.count("analysis.normalize", "tokens"))
    put("analysis.tokens_collapsed", "analysis.normalize", st.count("analysis.normalize", "collapsed"))

    for short in ("read_matrix", "select_oov_chars", "build_reference", "pooled_hidden",
                  "derive", "fraction_new_tokens", "save_plan"):
        put(f"embedding.{short}_s", f"embedding.{short}", st.total.get(f"embedding.{short}", 0.0))
    put("embedding.chars_selected", "embedding.select_oov_chars", st.count("embedding.select_oov_chars", "chars"))
    put("embedding.reference_rows", "embedding.build_reference", st.count("embedding.build_reference", "rows"))
    put("embedding.derive_calls", "embedding.derive", st.calls.get("embedding.derive", 0))
    put("embedding.encode_augmented_s", "embedding.encode_augmented", st.self_s.get("embedding.encode_augmented", 0.0))
    put("embedding.eval_similarity_s", "embedding.eval_similarity", st.self_s.get("embedding.eval_similarity", 0.0))
    put("embedding.eval_sentences", "embedding.eval_similarity", st.calls.get("embedding.eval_similarity", 0))
    put("embedding.unchanged_sentences", "embedding.eval_similarity", st.count("embedding.eval_similarity", "unchanged"))

    put("cli.self_s", "cli.main", st.self_s.get("cli.main", 0.0))

    # A metric whose function could not be wrapped, or whose counts could
    # not be taken, is reported as missing with the reason.
    sources = _sources()
    for metric, span in derived_from.items():
        gone = [src for src in sources.get(span, []) + [f"{span}.counts"] if src in st.missing]
        if gone:
            del m[metric]
            missing[metric] = f"not traced: {gone[0]}: {st.missing[gone[0]]}"
    return m, missing


# Counts that must repeat exactly between two traced runs of the same code.
EXACT_COUNTS = (
    "vocab.tokens_loaded", "vocab.rules_loaded", "text.bytes_loaded",
    "training.bpe_encode_calls", "training.bpe_encode_chars_in", "training.bpe_encode_tokens_out",
    "training.ulm_viterbi_calls", "training.count_adjacent_pairs_calls", "training.merges_learned",
    "training.ulm_candidates_per_removal", "premium.encode_calls", "premium.pairs",
    "premium.pairs_skipped", "parallel.items", "analysis.tokens_normalized",
    "analysis.tokens_collapsed", "embedding.chars_selected", "embedding.reference_rows",
    "embedding.derive_calls", "embedding.eval_sentences", "embedding.unchanged_sentences",
)

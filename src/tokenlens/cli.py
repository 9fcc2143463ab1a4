"""Command-line front end: train, compare, premium, augment, eval.

Every run builds a manifest (command, result-affecting flags, input file
digests, Unicode version, normalization rules) and stamps its digest into
each report, because the numbers are meaningless without the settings that
produced them. Result-neutral flags (--threads, output paths) stay out of
the manifest, so reruns are byte-identical. --threads and TOKENLENS_THREADS
are accepted and validated for compatibility; nothing depends on them.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, embedding, training, vocab as vocab_mod
from .errors import ToolkitError
from .premium import (
    TokenizerHandle,
    bpe_tokenizer,
    premium_matrix,
    ulm_tokenizer,
    write_premium_csv,
    write_premium_json,
)
from .parallel import resolve_threads
from .text import UNICODE_VERSION, load_corpus, load_parallel_corpus

__all__ = ["main", "RunManifest"]


@dataclass
class RunManifest:
    command: str
    flags: dict
    input_digests: dict
    unicode_version: str = UNICODE_VERSION
    normalization_rules: dict | None = None

    def digest(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def report_dict(self) -> dict:
        out = asdict(self)
        out["digest"] = self.digest()
        return out


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(paths: list[str]) -> dict:
    return {p: _file_digest(p) for p in sorted(set(paths))}


# ---------------------------------------------------------------------------
# shared spec parsing


def _parse_named(value: str, what: str) -> tuple[str, str]:
    if "=" not in value:
        raise ToolkitError(f"{what} must look like NAME={what.upper()}-SPEC, got {value!r}")
    name, spec = value.split("=", 1)
    if not name:
        raise ToolkitError(f"{what} name is empty in {value!r}")
    return name, spec


def _load_tokenizer(name: str, spec: str) -> tuple[TokenizerHandle, list[str]]:
    """SPEC is one of bpe:VOCAB:MERGES, bpe-bytes:VOCAB:MERGES, ulm:PROBS."""
    parts = spec.split(":")
    kind = parts[0]
    if kind in ("bpe", "bpe-bytes"):
        if len(parts) != 3:
            raise ToolkitError(f"{kind} spec needs vocab and merges paths, got {spec!r}")
        v = vocab_mod.load_vocab(parts[1])
        rules = vocab_mod.load_merges(parts[2], v)
        tok = bpe_tokenizer(name, v, rules, byte_input=(kind == "bpe-bytes"))
        return tok, [parts[1], parts[2]]
    if kind == "ulm":
        if len(parts) != 2:
            raise ToolkitError(f"ulm spec needs a log-prob JSON path, got {spec!r}")
        with open(parts[1], "r", encoding="utf-8") as f:
            probs = json.load(f)
        uv = training.UnigramVocab({t: float(lp) for t, lp in probs.items()}, check=False)
        return ulm_tokenizer(name, uv), [parts[1]]
    raise ToolkitError(f"unknown tokenizer kind {kind!r}")


def _load_encoder(spec: str, v0: np.ndarray) -> tuple[embedding.LayerEncoder, dict, list[str]]:
    """toy:SEED:DEPTH:DIM[:linear], or matrices:LAYER=PATH[,LAYER=PATH...]."""
    parts = spec.split(":")
    if parts[0] == "toy":
        if len(parts) not in (4, 5):
            raise ToolkitError(f"toy encoder spec is toy:SEED:DEPTH:DIM[:linear], got {spec!r}")
        linear = False
        if len(parts) == 5:
            if parts[4] != "linear":
                raise ToolkitError(f"unknown toy encoder variant {parts[4]!r}")
            linear = True
        try:
            seed, depth, dim = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ToolkitError(f"toy encoder spec needs integers, got {spec!r}") from None
        if dim != v0.shape[1]:
            raise ToolkitError(f"encoder dim {dim} does not match embeddings dim {v0.shape[1]}")
        enc = embedding.toy_encoder(seed, depth, dim, linear=linear)
        return enc, {"encoder": spec}, []
    if parts[0] == "matrices":
        rest = spec[len("matrices:") :]
        if not rest:
            raise ToolkitError("matrices encoder spec needs LAYER=PATH entries")
        layer_paths: dict[int, str] = {}
        for item in rest.split(","):
            if "=" not in item:
                raise ToolkitError(f"matrices entry must be LAYER=PATH, got {item!r}")
            layer_s, path = item.split("=", 1)
            layer_paths[int(layer_s)] = path
        mats = {}
        for layer, path in layer_paths.items():
            m, _ = embedding.read_matrix(path)
            mats[layer] = m
        enc = embedding.LookupEncoder(v0, mats)
        return enc, {"encoder": "matrices", "layers": sorted(layer_paths)}, list(layer_paths.values())
    raise ToolkitError(f"unknown encoder kind {parts[0]!r}")


def _parse_strategy(text: str) -> embedding.DerivationStrategy:
    """knn:K@LAYER, linreg@LAYER, local:K@LAYER (local_linreg also accepted)."""
    if "@" not in text:
        raise ToolkitError(f"strategy must end with @LAYER, got {text!r}")
    head, layer_s = text.rsplit("@", 1)
    try:
        layer = int(layer_s)
    except ValueError:
        raise ToolkitError(f"strategy layer must be an integer, got {layer_s!r}") from None
    bits = head.split(":")
    kind = {"local": "local_linreg"}.get(bits[0], bits[0])
    k = None
    if len(bits) == 2:
        try:
            k = int(bits[1])
        except ValueError:
            raise ToolkitError(f"strategy k must be an integer, got {bits[1]!r}") from None
    elif len(bits) > 2:
        raise ToolkitError(f"malformed strategy {text!r}")
    return embedding.DerivationStrategy(kind=kind, layer=layer, k=k)


def _strategy_file_tag(strat: embedding.DerivationStrategy) -> str:
    k = "" if strat.k is None else str(strat.k)
    return f"{strat.kind.replace('_linreg', '')}{k}-l{strat.layer}"


def _normalization_dict(rules: analysis.NormalizationRules) -> dict:
    return {
        "space_markers": [
            [vocab_mod.token_to_str(m), vocab_mod.token_to_str(r)]
            for m, r in rules.prefix_markers
        ],
        "strip_continuation": [vocab_mod.token_to_str(m) for m in rules.strip_continuation],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    flags = {
        "algorithm": args.algorithm,
        "target_size": args.target_size,
        "min_pair_freq": args.min_pair_freq,
        "seed_max_token_len": args.seed_max_token_len,
        "seed_size": args.seed_size,
    }
    manifest = RunManifest("train", flags, _digests([args.corpus]))
    prefix = args.out_prefix
    if args.algorithm in ("bpe", "wordpiece"):
        if args.algorithm == "bpe":
            v, rules = training.bpe_train(
                corpus, target_vocab_size=args.target_size, min_pair_freq=args.min_pair_freq
            )
        else:
            if args.target_size is None:
                raise ToolkitError("wordpiece requires --target-size")
            v, rules = training.wordpiece_train(corpus, args.target_size)
        vocab_mod.save_vocab(v, f"{prefix}.vocab.json")
        vocab_mod.save_merges(rules, v, f"{prefix}.merges.json")
    else:
        if args.target_size is None:
            raise ToolkitError("ulm requires --target-size")
        seed = training.ulm_seed(
            corpus, max_token_len=args.seed_max_token_len, seed_size=args.seed_size
        )
        pruned = training.ulm_prune(seed, corpus, args.target_size)
        vocab_mod.save_vocab(
            vocab_mod.Vocabulary([vocab_mod.str_to_token(t) for t in pruned.tokens()]),
            f"{prefix}.vocab.json",
        )
        with open(f"{prefix}.probs.json", "w", encoding="utf-8") as f:
            json.dump({t: pruned.log_prob(t) for t in pruned.tokens()}, f, ensure_ascii=True, indent=0)
            f.write("\n")
    with open(f"{prefix}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest.report_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"trained {args.algorithm} -> {prefix}.* (manifest {manifest.digest()[:12]})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.vocab) < 2:
        raise ToolkitError("need at least two --vocab NAME=PATH arguments")
    named = [_parse_named(v, "vocab") for v in args.vocab]
    if args.no_normalize:
        rules = analysis.NormalizationRules()
    elif args.space_marker or args.strip_prefix:
        rules = analysis.NormalizationRules(
            prefix_markers=tuple((m.encode("utf-8"), b" ") for m in args.space_marker),
            strip_continuation=tuple(s.encode("utf-8") for s in args.strip_prefix),
        )
    else:
        rules = analysis.DEFAULT_RULES
    flags = {"metric": args.metric, "breakdown": bool(args.breakdown)}
    manifest = RunManifest(
        "compare",
        flags,
        _digests([path for _, path in named]),
        normalization_rules=_normalization_dict(rules),
    )
    normalized = []
    rows = []
    for name, path in named:
        raw = vocab_mod.load_vocab(path)
        result = analysis.normalize_vocab(raw, rules)
        normalized.append((name, result.vocab.token_set()))
        rows.append(analysis.vocab_breakdown(result.vocab, label=name))
    matrix = analysis.comparison_matrix(normalized, metric=args.metric)
    analysis.write_matrix_csv(matrix, args.out, manifest_digest=manifest.digest())
    if args.breakdown:
        analysis.write_breakdown_tsv(rows, args.breakdown, manifest_digest=manifest.digest())
    print(f"compared {len(named)} vocabularies -> {args.out} (manifest {manifest.digest()[:12]})")
    return 0


def cmd_premium(args: argparse.Namespace) -> int:
    toks = []
    tok_inputs: list[str] = []
    for t in args.tokenizer:
        name, spec = _parse_named(t, "tokenizer")
        tok, paths = _load_tokenizer(name, spec)
        toks.append(tok)
        tok_inputs.extend(paths)
    corpora = []
    pair_inputs: list[str] = []
    for p in args.pair:
        bits = p.split(":")
        if len(bits) != 4:
            raise ToolkitError(f"--pair must be LANG:SCRIPT:ENGPATH:TGTPATH, got {p!r}")
        lang, script, eng, tgt = bits
        corpora.append(load_parallel_corpus(eng, tgt, lang, script))
        pair_inputs.extend([eng, tgt])
    flags = {
        "tokenizers": sorted(args.tokenizer),
        "pairs": list(args.pair),
        "aggregate": args.aggregate,
    }
    manifest = RunManifest("premium", flags, _digests(tok_inputs + pair_inputs))
    matrix = premium_matrix(toks, corpora, aggregate=args.aggregate)
    write_premium_csv(matrix, args.out, manifest_digest=manifest.digest())
    if args.json:
        write_premium_json(
            matrix, args.json, manifest=manifest.report_dict(), verbose=args.verbose
        )
    print(f"premium matrix -> {args.out} (manifest {manifest.digest()[:12]})")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    name, spec = _parse_named(args.tokenizer, "tokenizer")
    tok, tok_paths = _load_tokenizer(name, spec)
    v0, _ = embedding.read_matrix(args.embeddings)
    enc, enc_flags, enc_paths = _load_encoder(args.encoder, v0)
    corpus = load_corpus(args.corpus)
    if args.chars:
        chars = set(args.chars)
    else:
        chars = embedding.select_oov_chars(corpus, tok)
    strategies = [_parse_strategy(s) for s in (args.grid.split(",") if args.grid else [args.strategy])]
    if not strategies:
        raise ToolkitError("no strategy given")
    flags = {
        "tokenizer": args.tokenizer,
        "strategies": [s.label() for s in strategies],
        "metric": args.metric,
        "chars": sorted(chars),
        **enc_flags,
    }
    manifest = RunManifest(
        "augment", flags, _digests([args.corpus, args.embeddings] + tok_paths + enc_paths)
    )
    outputs = []
    for strat in strategies:
        plan = embedding.augment(tok, v0, enc, chars, strat, metric=args.metric)
        plan.stats = {
            "fraction_new_tokens": {args.corpus: embedding.fraction_new_tokens(corpus, tok, plan)}
        }
        if len(strategies) == 1:
            out = args.out
        else:
            stem, dot, ext = args.out.rpartition(".")
            out = f"{stem}.{_strategy_file_tag(strat)}{dot}{ext}" if stem else f"{args.out}.{_strategy_file_tag(strat)}"
        embedding.save_plan(plan, out, manifest=manifest.report_dict())
        outputs.append(out)
    print(f"wrote {len(outputs)} plan(s): {', '.join(outputs)} (manifest {manifest.digest()[:12]})")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    name, spec = _parse_named(args.tokenizer, "tokenizer")
    tok, tok_paths = _load_tokenizer(name, spec)
    v0, _ = embedding.read_matrix(args.embeddings)
    enc, enc_flags, enc_paths = _load_encoder(args.encoder, v0)
    plans = []
    for p in args.plan:
        plan = embedding.load_plan(p, v0=v0)
        plans.append((p, plan))
    corpora = []
    for c in args.corpus:
        label, path = _parse_named(c, "corpus")
        corpora.append((label, path, load_corpus(path)))
    flags = {
        "tokenizer": args.tokenizer,
        "plans": list(args.plan),
        "last_layer": args.last_layer,
        "report_new_fraction": bool(args.report_new_fraction),
        **enc_flags,
    }
    manifest = RunManifest(
        "eval",
        flags,
        _digests(
            [args.embeddings] + tok_paths + enc_paths + list(args.plan) + [path for _, path, _ in corpora]
        ),
    )
    plan_labels = [pl.strategy.label() for _, pl in plans]
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write(f"# manifest: {manifest.digest()}\n")
        w = csv.writer(f, lineterminator="\n")
        header = ["corpus"] + plan_labels
        if args.report_new_fraction:
            header += [f"{lbl}_new_fraction" for lbl in plan_labels]
        w.writerow(header)
        for label, _, corpus in corpora:
            sims = [embedding.corpus_similarity(enc, corpus, tok, pl, args.last_layer) for _, pl in plans]
            row = [label] + [f"{s:.6f}" for s in sims]
            if args.report_new_fraction:
                fracs = [embedding.fraction_new_tokens(corpus, tok, pl) for _, pl in plans]
                row += [f"{fr:.6f}" for fr in fracs]
            w.writerow(row)
    print(f"similarity table -> {args.out} (manifest {manifest.digest()[:12]})")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


_THREADS_HELP = "accepted and validated for compatibility; neither outputs nor run time depend on it"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenlens",
        description="Train subword tokenizers, compare vocabularies, measure "
        "per-language token premiums, and derive embeddings for multi-token characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a bpe / wordpiece / ulm segmenter")
    p.add_argument("--algorithm", required=True, choices=["bpe", "wordpiece", "ulm"])
    p.add_argument("--corpus", required=True)
    p.add_argument("--target-size", type=int, default=None, help="stop at this vocabulary size")
    p.add_argument(
        "--min-pair-freq", type=int, default=None, help="bpe only: stop when no pair reaches this count"
    )
    p.add_argument("--seed-max-token-len", type=int, default=8, help="ulm seed substring cap")
    p.add_argument("--seed-size", type=int, default=None, help="ulm seed vocabulary cap")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="vocabulary overlap matrix and composition breakdown")
    p.add_argument("--vocab", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--metric", choices=["jaccard", "containment"], default="jaccard")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--space-marker", action="append", default=[], help="marker rewritten to a space")
    p.add_argument("--strip-prefix", action="append", default=[], help="continuation marker stripped from token fronts")
    p.add_argument("--breakdown", default=None, metavar="TSV_PATH")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("premium", help="per-language token-count premium matrix")
    p.add_argument("--tokenizer", action="append", default=[], metavar="NAME=SPEC")
    p.add_argument("--pair", action="append", default=[], metavar="LANG:SCRIPT:ENG:TGT")
    p.add_argument("--aggregate", choices=["ratios", "totals"], default="ratios")
    p.add_argument("--json", default=None, help="also write a full-precision JSON report")
    p.add_argument("--verbose", action="store_true", help="include per-sentence ratios in JSON")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_premium)

    p = sub.add_parser("augment", help="derive input embeddings for multi-token characters")
    p.add_argument("--tokenizer", required=True, metavar="NAME=SPEC")
    p.add_argument("--embeddings", required=True, help="V0 matrix file")
    p.add_argument("--encoder", required=True, metavar="toy:SEED:DEPTH:DIM[:linear] | matrices:L=PATH,...")
    p.add_argument("--strategy", default=None, metavar="knn:K@L | linreg@L | local:K@L")
    p.add_argument("--grid", default=None, help="comma-separated strategies; one plan file per cell")
    p.add_argument("--corpus", required=True, help="source of candidate characters")
    p.add_argument("--chars", default=None, help="explicit characters instead of corpus scan")
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.add_argument("--out", required=True, help="plan path (grid runs add a strategy tag)")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("eval", help="similarity of encodings before and after augmentation")
    p.add_argument("--plan", action="append", default=[], metavar="PLAN_PATH")
    p.add_argument("--tokenizer", required=True, metavar="NAME=SPEC")
    p.add_argument("--embeddings", required=True, help="V0 matrix file")
    p.add_argument("--encoder", required=True)
    p.add_argument("--last-layer", type=int, required=True)
    p.add_argument("--corpus", action="append", default=[], metavar="LABEL=PATH")
    p.add_argument("--report-new-fraction", action="store_true")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and (args.target_size is None) == (args.min_pair_freq is None):
        parser.error("exactly one of --target-size / --min-pair-freq is required")
    if args.command == "augment" and (args.strategy is None) == (args.grid is None):
        parser.error("exactly one of --strategy / --grid is required")
    if args.command == "premium" and (not args.tokenizer or not args.pair):
        parser.error("premium needs at least one --tokenizer and one --pair")
    if args.command == "eval" and (not args.plan or not args.corpus):
        parser.error("eval needs at least one --plan and one --corpus")
    try:
        if "threads" in vars(args):
            resolve_threads(args.threads)  # validated only; no result depends on it
        return args.fn(args)
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

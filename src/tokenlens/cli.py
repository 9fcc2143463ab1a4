"""Command-line front end: train, compare, premium, augment, eval.

Every run builds a manifest (command, result-affecting flags, input file
digests, Unicode version, normalization rules) and stamps its digest into
each report, because the numbers are meaningless without the settings that
produced them. Result-neutral flags (--threads, output paths) stay out of
the manifest, so reruns are byte-identical. --threads is accepted for
compatibility; nothing depends on it.

The option grammar (required options, either-or pairs, --threads,
--seed-max-token-len and --min-pair-freq >= 1) lives in the argparse parser
alone, so --help shows every rule and a breach exits 2. Every tokenizer,
encoder and --pair spec goes through one splitter (_split; _KINDS names each
kind's fields, and only the last field may hold ':'), and each command
checks all of its specs before it reads any file. Names that label an
output's rows or columns must be distinct (_distinct). Input files are
parsed inside errors.reading, so every error in one names it. Tables go
through text.write_table.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from . import analysis, training, vocab as vocab_mod
from .errors import ToolkitError, reading
from .premium import (
    TokenizerHandle,
    bpe_tokenizer,
    premium_matrix,
    ulm_tokenizer,
    write_premium_csv,
    write_premium_json,
)
from .text import UNICODE_VERSION, load_corpus, load_parallel_corpus, write_table

# embedding imports numpy, which only augment and eval need: they import it
# themselves, so that train, compare and premium start without it.
if TYPE_CHECKING:
    import numpy as np

    from . import embedding

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
    name, eq, spec = value.partition("=")
    if not name or not eq:
        raise ToolkitError(f"{what} must look like NAME={what.upper()}-SPEC, got {value!r}")
    return name, spec


def _distinct(names: list[str], what: str) -> None:
    """Names that label an output's rows or columns may not repeat."""
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ToolkitError(f"repeated {what}: {', '.join(repeated)}")


# Each spec kind -> the names of the fields after its "KIND:".
_KINDS = {
    "bpe": ("VOCAB", "MERGES"),
    "bpe-bytes": ("VOCAB", "MERGES"),
    "ulm": ("PROBS",),
    "toy": ("SEED", "DEPTH", "DIM[:linear]"),
    "matrices": ("LAYER=PATH,...",),
}
_TOKENIZER_KINDS = ("bpe", "bpe-bytes", "ulm")


def _split(spec: str, what: str, names: tuple[str, ...]) -> list[str]:
    """SPEC's fields, one per name and none empty; only the last may hold ':'."""
    fields = spec.split(":", len(names) - 1)
    if len(fields) < len(names) or "" in fields:
        raise ToolkitError(f"{what} must be {':'.join(names)}, got {spec!r}")
    return fields


def _parse_spec(spec: str, what: str, kinds: tuple[str, ...]) -> tuple[str, list[str]]:
    """KIND:FIELD..., with KIND one of KINDS: the kind and its fields."""
    kind = spec.partition(":")[0]
    if kind not in kinds:
        raise ToolkitError(f"unknown {what} kind {kind!r}; known kinds: {', '.join(kinds)}")
    return kind, _split(spec, f"{kind} spec", (kind, *_KINDS[kind]))[1:]


def _load_tokenizer(name: str, kind: str, paths: list[str]) -> TokenizerHandle:
    """The tokenizer of a parsed spec, read from its files (every field is a path)."""
    if kind == "ulm":
        return ulm_tokenizer(name, training.load_probs(paths[0]))
    v = vocab_mod.load_vocab(paths[0])
    return bpe_tokenizer(name, v, vocab_mod.load_merges(paths[1], v), byte_input=(kind == "bpe-bytes"))


def _parse_encoder(spec: str) -> tuple[dict, list[str], Callable[[np.ndarray], embedding.LayerEncoder]]:
    """Checks an encoder spec and reads nothing. Returns its manifest flags,
    the paths it will read, and a function building it from V0: a toy encoder
    needs no file, so it is built here, and its dim is checked against V0's."""
    from . import embedding

    kind, fields = _parse_spec(spec, "encoder", ("toy", "matrices"))
    if kind == "toy":
        dim_s, linear, variant = fields[2].partition(":")
        if linear and variant != "linear":
            raise ToolkitError(f"unknown toy encoder variant {variant!r}")
        try:
            seed, depth, dim = int(fields[0]), int(fields[1]), int(dim_s)
        except ValueError:
            raise ToolkitError(f"toy encoder spec needs integers, got {spec!r}") from None

        toy = embedding.toy_encoder(seed, depth, dim, linear=bool(linear))

        def build_toy(v0: np.ndarray) -> embedding.LayerEncoder:
            if dim != v0.shape[1]:
                raise ToolkitError(f"encoder dim {dim} does not match embeddings dim {v0.shape[1]}")
            return toy

        return {"encoder": spec}, [], build_toy
    layer_paths: dict[int, str] = {}
    for item in fields[0].split(","):
        layer_s, eq, path = item.partition("=")
        if not eq:
            raise ToolkitError(f"matrices entry must be LAYER=PATH, got {item!r}")
        try:
            layer = int(layer_s)
        except ValueError:
            raise ToolkitError(f"matrices entry {item!r}: layer must be an integer") from None
        if layer < 1:
            raise ToolkitError(f"matrices entry {item!r}: layer must be >= 1 (layer 0 is V0)")
        if layer in layer_paths:
            raise ToolkitError(f"matrices entry {item!r}: layer {layer} is given twice")
        layer_paths[layer] = path

    def build_lookup(v0: np.ndarray) -> embedding.LayerEncoder:
        mats = {layer: embedding.read_matrix(path) for layer, path in layer_paths.items()}
        return embedding.LookupEncoder(v0, mats)

    flags = {"encoder": "matrices", "layers": sorted(layer_paths)}
    return flags, list(layer_paths.values()), build_lookup


def _load_model(
    args: argparse.Namespace, float64_v0: bool = False
) -> tuple[TokenizerHandle, np.ndarray, embedding.LayerEncoder, dict, list[str]]:
    """Augment's and eval's tokenizer, V0 and encoder, with the encoder's
    manifest flags and the paths of every file they were read from. Both
    specs are checked before any file is read, and V0 must be finite.

    With float64_v0, V0 is widened before the encoder is built, so the
    encoder holds the float64 array too and the float32 one is freed: V0 is
    held once. Widening is exact on finite values, signed zeros included."""
    import numpy as np

    from . import embedding

    name, spec = _parse_named(args.tokenizer, "tokenizer")
    kind, tok_paths = _parse_spec(spec, "tokenizer", _TOKENIZER_KINDS)
    enc_flags, enc_paths, build_encoder = _parse_encoder(args.encoder)
    tok = _load_tokenizer(name, kind, tok_paths)
    v0 = embedding.read_matrix(args.embeddings)
    if not embedding.all_finite(v0):
        raise ToolkitError("v0 contains non-finite values")
    if float64_v0:
        v0 = v0.astype(np.float64)
    enc = build_encoder(v0)
    return tok, v0, enc, enc_flags, [args.embeddings] + tok_paths + enc_paths


def _parse_strategy(text: str) -> embedding.DerivationStrategy:
    """knn:K@LAYER, linreg@LAYER, local:K@LAYER (local_linreg also accepted)."""
    from . import embedding

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
    if args.algorithm != "bpe" and args.target_size is None:
        raise ToolkitError(f"{args.algorithm} requires --target-size")
    if args.algorithm != "ulm" and (args.seed_max_token_len, args.seed_size) != (None, None):
        raise ToolkitError(f"--seed-max-token-len and --seed-size are for ulm, not {args.algorithm}")
    corpus = load_corpus(args.corpus)
    seed_max_token_len = 8 if args.seed_max_token_len is None else args.seed_max_token_len
    flags = {
        "algorithm": args.algorithm,
        "target_size": args.target_size,
        "min_pair_freq": args.min_pair_freq,
        "seed_max_token_len": seed_max_token_len,
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
            v, rules = training.wordpiece_train(corpus, args.target_size)
        vocab_mod.save_vocab(v, f"{prefix}.vocab.json")
        vocab_mod.save_merges(rules, v, f"{prefix}.merges.json")
    else:
        seed = training.ulm_seed(
            corpus, max_token_len=seed_max_token_len, seed_size=args.seed_size
        )
        pruned = training.ulm_prune(seed, corpus, args.target_size)
        vocab_mod.save_vocab(
            vocab_mod.Vocabulary([vocab_mod.str_to_token(t) for t in pruned.tokens()]),
            f"{prefix}.vocab.json",
        )
        training.save_probs(pruned, f"{prefix}.probs.json")
    with open(f"{prefix}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest.report_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"trained {args.algorithm} -> {prefix}.* (manifest {manifest.digest()[:12]})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.vocab) < 2:
        raise ToolkitError("need at least two --vocab NAME=PATH arguments")
    named = [_parse_named(v, "vocab") for v in args.vocab]
    _distinct([name for name, _ in named], "vocab name")
    # Each marker option replaces its own default only.
    if args.no_normalize:
        rules = analysis.NormalizationRules()
    else:
        rules = analysis.NormalizationRules(
            prefix_markers=tuple((m.encode("utf-8"), b" ") for m in args.space_marker)
            or analysis.DEFAULT_RULES.prefix_markers,
            strip_continuation=tuple(s.encode("utf-8") for s in args.strip_prefix)
            or analysis.DEFAULT_RULES.strip_continuation,
        )
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
        # Only the normalized set is kept: each Vocabulary is freed as soon as
        # it is normalized, before its breakdown and the next file's load.
        tokens = analysis.normalize_vocab(vocab_mod.load_vocab(path), rules).tokens
        normalized.append((name, tokens))
        if args.breakdown:
            rows.append(analysis.vocab_breakdown(tokens, label=name))
    matrix = analysis.comparison_matrix(normalized, metric=args.metric)
    analysis.write_matrix_csv(matrix, args.out, manifest_digest=manifest.digest())
    if args.breakdown:
        analysis.write_breakdown_tsv(rows, args.breakdown, manifest_digest=manifest.digest())
    print(f"compared {len(named)} vocabularies -> {args.out} (manifest {manifest.digest()[:12]})")
    return 0


def cmd_premium(args: argparse.Namespace) -> int:
    named = [_parse_named(t, "tokenizer") for t in args.tokenizer]
    _distinct([name for name, _ in named], "tokenizer name")
    specs = [_parse_spec(spec, "tokenizer", _TOKENIZER_KINDS) for _, spec in named]
    pairs = [_split(p, "--pair", ("LANG", "SCRIPT", "ENGPATH", "TGTPATH")) for p in args.pair]
    _distinct([f"{lang}:{script}" for lang, script, _, _ in pairs], "pair language")
    toks = [_load_tokenizer(name, *spec) for (name, _), spec in zip(named, specs)]
    corpora = [load_parallel_corpus(eng, tgt, lang, script) for lang, script, eng, tgt in pairs]
    inputs = [p for _, paths in specs for p in paths] + [p for _, _, eng, tgt in pairs for p in (eng, tgt)]
    flags = {
        "tokenizers": sorted(args.tokenizer),
        "pairs": list(args.pair),
        "aggregate": args.aggregate,
    }
    manifest = RunManifest("premium", flags, _digests(inputs))
    matrix = premium_matrix(toks, corpora, aggregate=args.aggregate)
    for i, ((lang, script), row) in enumerate(zip(matrix.languages, matrix.cells)):
        for j, (name, rep) in enumerate(zip(matrix.tokenizers, row)):
            cell = f"premium: {lang}:{script}/{name}"
            if rep is None:
                print(f"{cell} is NA: {matrix.na[i, j]}", file=sys.stderr)
            elif rep.n_skipped:
                print(
                    f"{cell} skipped {rep.n_skipped} of {rep.n_pairs + rep.n_skipped} pairs "
                    f"({rep.n_unencodable} unencodable, "
                    f"{rep.n_skipped - rep.n_unencodable} empty)",
                    file=sys.stderr,
                )
    write_premium_csv(matrix, args.out, manifest_digest=manifest.digest())
    if args.json:
        write_premium_json(matrix, args.json, manifest=manifest.report_dict(), verbose=args.verbose)
    print(f"premium matrix -> {args.out} (manifest {manifest.digest()[:12]})")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    from . import embedding

    specs = [args.strategy] if args.grid is None else args.grid.split(",")
    strategies = [_parse_strategy(s) for s in specs]
    labels = [s.label() for s in strategies]
    _distinct(labels, "grid strategy")
    # linreg's fit reads V0 in float64: holding V0 in float64 from the start
    # spares the fit a float64 copy of it.
    tok, v0, enc, enc_flags, model_paths = _load_model(
        args, float64_v0=any(s.kind == "linreg" for s in strategies)
    )
    embedding.check_strategies(enc, strategies, len(v0))
    corpus = load_corpus(args.corpus)
    if args.chars is not None:
        chars = set(args.chars)
    else:
        chars = embedding.select_oov_chars(corpus, tok)
        if not chars:
            print(
                f"augment: no character of {args.corpus} encodes to two or more tokens "
                f"under {tok.name}; every plan is empty",
                file=sys.stderr,
            )
    flags = {
        "tokenizer": args.tokenizer,
        "strategies": labels,
        "metric": args.metric,
        "chars": sorted(chars),
        **enc_flags,
    }
    manifest = RunManifest("augment", flags, _digests([args.corpus] + model_paths))
    # embedding.augment's steps, with every use of the tokenizer first: the
    # plans share their tokens, so their new-token fraction is counted over
    # those before any plan exists, and the tokenizer (its vocabulary, merge
    # list and rank index) is freed before the first reference is built.
    tokens, char_ids = embedding.constituent_ids(tok, chars)
    fraction = embedding.fraction_new_tokens(embedding.encode_augmented(doc, tok, tokens) for doc in corpus)
    del tok
    # Every plan is derived before any is written, so a failing cell leaves
    # no file.
    plans = embedding.derive_plans(v0, enc, tokens, char_ids, strategies, metric=args.metric)
    outputs = []
    for plan in plans:
        plan.stats = {"fraction_new_tokens": {args.corpus: fraction}}
        if len(plans) == 1:
            out = args.out
        else:
            root, ext = os.path.splitext(args.out)
            out = f"{root}.{_strategy_file_tag(plan.strategy)}{ext}"
        embedding.save_plan(plan, out, manifest=manifest.report_dict())
        outputs.append(out)
    print(f"wrote {len(outputs)} plan(s): {', '.join(outputs)} (manifest {manifest.digest()[:12]})")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import embedding

    named = [_parse_named(c, "corpus") for c in args.corpus]
    _distinct([label for label, _ in named], "corpus label")
    tok, v0, enc, enc_flags, model_paths = _load_model(args)
    if not 0 <= args.last_layer <= enc.depth:
        raise ToolkitError(f"--last-layer {args.last_layer} outside 0..{enc.depth}")
    plans = [embedding.load_plan(p) for p in args.plan]
    for path, pl in zip(args.plan, plans):
        with reading(path):
            if pl.dim != v0.shape[1]:
                raise ToolkitError(f"plan dim {pl.dim} does not match embeddings dim {v0.shape[1]}")
    plan_labels = [pl.strategy.label() for pl in plans]
    _distinct(plan_labels, "plan label")
    corpora = [(label, load_corpus(path)) for label, path in named]
    flags = {
        "tokenizer": args.tokenizer,
        "plans": list(args.plan),
        "last_layer": args.last_layer,
        "report_new_fraction": bool(args.report_new_fraction),
        **enc_flags,
    }
    manifest = RunManifest(
        "eval", flags, _digests(model_paths + list(args.plan) + [path for _, path in named])
    )
    header = ["corpus"] + plan_labels
    if args.report_new_fraction:
        header += [f"{lbl}_new_fraction" for lbl in plan_labels]
    rows = [header]
    for label, corpus in corpora:
        columns = embedding.corpus_similarity(enc, v0, corpus, tok, plans, args.last_layer)
        row = [label] + [f"{sim:.6f}" for sim, _ in columns]
        if args.report_new_fraction:
            row += [f"{fr:.6f}" for _, fr in columns]
        rows.append(row)
    write_table(args.out, rows, manifest.digest())
    print(f"similarity table -> {args.out} (manifest {manifest.digest()[:12]})")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _at_least_one(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenlens",
        description="Train subword tokenizers, compare vocabularies, measure "
        "per-language token premiums, and derive embeddings for multi-token characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    threads = argparse.ArgumentParser(add_help=False)
    threads_help = "an integer >= 1, accepted for compatibility; neither outputs nor run time depend on it"
    threads.add_argument("--threads", type=_at_least_one, help=threads_help)

    p = sub.add_parser("train", help="train a bpe / wordpiece / ulm segmenter")
    p.add_argument("--algorithm", required=True, choices=["bpe", "wordpiece", "ulm"])
    p.add_argument("--corpus", required=True)
    stop = p.add_mutually_exclusive_group(required=True)
    stop.add_argument("--target-size", type=int, help="stop at this vocabulary size")
    stop.add_argument("--min-pair-freq", type=_at_least_one, help="bpe only: stop when no pair reaches this count, >= 1")
    p.add_argument("--seed-max-token-len", type=_at_least_one, help="ulm only: seed substring cap, >= 1 (default 8)")
    p.add_argument("--seed-size", type=int, help="ulm only: seed vocabulary cap")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", parents=[threads], help="vocabulary overlap matrix and composition breakdown")
    p.add_argument("--vocab", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--metric", choices=["jaccard", "containment"], default="jaccard")
    raw = p.add_mutually_exclusive_group()
    no_normalize = raw.add_argument(
        "--no-normalize", action="store_true", help="compare raw tokens; not allowed with --space-marker or --strip-prefix"
    )
    raw.add_argument("--space-marker", action="append", default=[], help="marker rewritten to a space")
    strip = p.add_mutually_exclusive_group()
    strip.add_argument("--strip-prefix", action="append", default=[], help="continuation marker stripped from token fronts")
    # argparse has no public way to put one option in two groups; the two
    # marker options stay usable together.
    strip._group_actions.append(no_normalize)
    p.add_argument("--breakdown", default=None, metavar="TSV_PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("premium", parents=[threads], help="per-language token-count premium matrix")
    p.add_argument("--tokenizer", action="append", required=True, metavar="NAME=SPEC")
    p.add_argument("--pair", action="append", required=True, metavar="LANG:SCRIPT:ENG:TGT")
    p.add_argument("--aggregate", choices=["ratios", "totals"], default="ratios")
    p.add_argument("--json", default=None, help="also write a full-precision JSON report")
    p.add_argument("--verbose", action="store_true", help="include per-sentence ratios in JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_premium)

    p = sub.add_parser("augment", parents=[threads], help="derive input embeddings for multi-token characters")
    p.add_argument("--tokenizer", required=True, metavar="NAME=SPEC")
    p.add_argument("--embeddings", required=True, help="V0 matrix file")
    p.add_argument("--encoder", required=True, metavar="toy:SEED:DEPTH:DIM[:linear] | matrices:L=PATH,...")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--strategy", metavar="knn:K@L | linreg@L | local:K@L")
    how.add_argument("--grid", help="comma-separated strategies; one plan file per cell")
    p.add_argument("--corpus", required=True, help="source of candidate characters")
    p.add_argument("--chars", type=_nonempty, default=None, help="explicit characters instead of corpus scan")
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    p.add_argument("--out", required=True, help="plan path (grid runs add a strategy tag)")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("eval", parents=[threads], help="similarity of encodings before and after augmentation")
    p.add_argument("--plan", action="append", required=True, metavar="PLAN_PATH")
    p.add_argument("--tokenizer", required=True, metavar="NAME=SPEC")
    p.add_argument("--embeddings", required=True, help="V0 matrix file")
    p.add_argument("--encoder", required=True)
    p.add_argument("--last-layer", type=int, required=True)
    p.add_argument("--corpus", action="append", required=True, metavar="LABEL=PATH")
    p.add_argument("--report-new-fraction", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

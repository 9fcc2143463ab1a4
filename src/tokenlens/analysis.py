"""Vocabulary normalization, overlap metrics, and composition breakdowns.

Overlap is measured on normalized byte strings under exact equality. The
default normalization maps the two common leading-space markers to a real
space and strips continuation markers, so vocabularies from different
tokenizer families become comparable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import ToolkitError
from .parallel import ordered_map
from .text import char_byte_len, recover_utf8_chars, unicode_block
from .vocab import Vocabulary

__all__ = [
    "NormalizationRules",
    "DEFAULT_RULES",
    "NormalizeResult",
    "normalize_vocab",
    "jaccard",
    "containment",
    "VocabBreakdownRow",
    "vocab_breakdown",
    "ComparisonMatrix",
    "comparison_matrix",
    "write_matrix_csv",
    "write_breakdown_tsv",
]


@dataclass(frozen=True)
class NormalizationRules:
    """Byte-level token rewrite rules.

    prefix_markers: (marker, replacement) pairs; every occurrence of the
    marker anywhere in the token is replaced (space markers stand for a space
    wherever they appear, not only at the front). strip_continuation markers
    are removed from the front of the token, repeated to a fixpoint. Both
    choices keep normalization idempotent.
    """

    prefix_markers: tuple[tuple[bytes, bytes], ...] = ()
    strip_continuation: tuple[bytes, ...] = ()

    def apply(self, token: bytes) -> bytes:
        for marker, repl in self.prefix_markers:
            if marker in token:
                token = token.replace(marker, repl)
        changed = True
        while changed:
            changed = False
            for marker in self.strip_continuation:
                if marker and token.startswith(marker):
                    token = token[len(marker) :]
                    changed = True
        return token


DEFAULT_RULES = NormalizationRules(
    prefix_markers=(
        ("Ġ".encode("utf-8"), b" "),  # Ġ
        ("▁".encode("utf-8"), b" "),  # ▁
    ),
    strip_continuation=(b"##",),
)


@dataclass
class NormalizeResult:
    vocab: Vocabulary
    n_collapsed: int
    n_dropped: int


def normalize_vocab(vocab: Vocabulary, rules: NormalizationRules = DEFAULT_RULES) -> NormalizeResult:
    """Apply rules to every token; tokens that collide afterwards collapse to
    one (set semantics), tokens that normalize to empty are dropped. Both
    events are counted. Applying the result to the same rules is a no-op."""
    out = Vocabulary()
    collapsed = 0
    dropped = 0
    for token in vocab:
        norm = rules.apply(token)
        if norm == b"":
            dropped += 1
        elif norm in out:
            collapsed += 1
        else:
            out.add(norm)
    return NormalizeResult(vocab=out, n_collapsed=collapsed, n_dropped=dropped)


def jaccard(a: frozenset[bytes], b: frozenset[bytes]) -> float:
    """|a & b| / |a | b| under exact byte-string equality."""
    if not a and not b:
        raise ToolkitError("jaccard of two empty vocabularies is undefined")
    return len(a & b) / len(a | b)


def containment(small: frozenset[bytes], large: frozenset[bytes]) -> float:
    """Fraction of the first vocabulary contained in the second."""
    if not small:
        raise ToolkitError("containment with an empty numerator vocabulary is undefined")
    return len(small & large) / len(small)


@dataclass
class VocabBreakdownRow:
    """Composition summary of one normalized vocabulary."""

    label: str
    clean_vocab_size: int
    distinct_blocks: int
    chars_by_byte_len: dict[int, int] = field(default_factory=dict)
    tokens_by_byte_len: dict[int, int] = field(default_factory=dict)
    tokens_gt7: int = 0


def vocab_breakdown(vocab: Vocabulary, label: str = "") -> VocabBreakdownRow:
    """Byte-length histograms and script coverage of a vocabulary.

    Tokens are bucketed by byte length (1..7, then one >7 bucket). The
    character set is collected from tokens directly when they decode as
    UTF-8, and through recover_utf8_chars otherwise; characters are bucketed
    by encoded length 1..4 and counted across distinct Unicode blocks.
    """
    chars: set[str] = set()
    tokens_by_len = {n: 0 for n in range(1, 8)}
    gt7 = 0
    for token in vocab:
        n = len(token)
        if n > 7:
            gt7 += 1
        else:
            tokens_by_len[n] += 1
        try:
            chars.update(token.decode("utf-8"))
        except UnicodeDecodeError:
            chars.update(recover_utf8_chars(token))
    chars_by_len = {n: 0 for n in range(1, 5)}
    for ch in chars:
        chars_by_len[char_byte_len(ch)] += 1
    blocks = {unicode_block(ch) for ch in chars}
    return VocabBreakdownRow(
        label=label,
        clean_vocab_size=len(vocab),
        distinct_blocks=len(blocks),
        chars_by_byte_len=chars_by_len,
        tokens_by_byte_len=tokens_by_len,
        tokens_gt7=gt7,
    )


@dataclass
class ComparisonMatrix:
    labels: list[str]
    metric: str
    values: list[list[float]]


def comparison_matrix(
    vocabs: list[tuple[str, frozenset[bytes]]], metric: str = "jaccard"
) -> ComparisonMatrix:
    """Pairwise overlap matrix over already-normalized vocabularies.

    The containment entry for a pair always uses the smaller vocabulary as
    the numerator base, so both metrics are symmetric; diagonals are 1.0.
    """
    if metric not in ("jaccard", "containment"):
        raise ToolkitError(f"unknown metric {metric!r}")
    if len(vocabs) < 2:
        raise ToolkitError("comparison needs at least two vocabularies")
    n = len(vocabs)

    def cell(pair: tuple[int, int]) -> float:
        a, b = vocabs[pair[0]][1], vocabs[pair[1]][1]
        if metric == "jaccard":
            return jaccard(a, b)
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        return containment(small, large)

    coords = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cells = ordered_map(cell, coords)
    values = [[1.0] * n for _ in range(n)]
    for (i, j), v in zip(coords, cells):
        values[i][j] = v
        values[j][i] = v
    return ComparisonMatrix(labels=[lbl for lbl, _ in vocabs], metric=metric, values=values)


def write_matrix_csv(matrix: ComparisonMatrix, path: str, manifest_digest: str = "") -> None:
    """CSV with a label header row and column; full-precision values.

    The manifest digest, when given, rides in a leading comment line.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        if manifest_digest:
            f.write(f"# manifest: {manifest_digest}\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow([""] + matrix.labels)
        for label, row in zip(matrix.labels, matrix.values):
            w.writerow([label] + [repr(v) for v in row])


_BREAKDOWN_COLUMNS = (
    ["tokenizer", "clean_vocab_size", "distinct_blocks"]
    + [f"chars_{n}B" for n in range(1, 5)]
    + [f"tokens_{n}B" for n in range(1, 8)]
    + ["tokens_gt7B"]
)


def write_breakdown_tsv(rows: list[VocabBreakdownRow], path: str, manifest_digest: str = "") -> None:
    """One row per vocabulary: size, block count, then the two histograms."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        if manifest_digest:
            f.write(f"# manifest: {manifest_digest}\n")
        w = csv.writer(f, delimiter="\t", lineterminator="\n")
        w.writerow(_BREAKDOWN_COLUMNS)
        for r in rows:
            w.writerow(
                [r.label, r.clean_vocab_size, r.distinct_blocks]
                + [r.chars_by_byte_len[n] for n in range(1, 5)]
                + [r.tokens_by_byte_len[n] for n in range(1, 8)]
                + [r.tokens_gt7]
            )

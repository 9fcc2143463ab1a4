"""Vocabulary normalization, overlap metrics, and composition breakdowns.

Overlap is measured on normalized byte strings under exact equality. The
default normalization maps the two common leading-space markers to a real
space and strips continuation markers, so vocabularies from different
tokenizer families become comparable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field

from ._blocks import _NAMES, _STARTS
from .errors import ToolkitError
from .parallel import ordered_map
from .text import recover_utf8_chars, write_table

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

    prefix_markers: (marker, replacement) pairs, applied in order; every
    occurrence of the marker anywhere in the token is replaced (space markers
    stand for a space wherever they appear, not only at the front).
    strip_continuation markers are removed from the front of the token,
    repeated to a fixpoint. No marker may be empty.
    """

    prefix_markers: tuple[tuple[bytes, bytes], ...] = ()
    strip_continuation: tuple[bytes, ...] = ()

    def __post_init__(self):
        if any(m == b"" for m, _ in self.prefix_markers) or b"" in self.strip_continuation:
            raise ToolkitError("normalization markers must not be empty")


DEFAULT_RULES = NormalizationRules(
    prefix_markers=(
        ("Ġ".encode("utf-8"), b" "),  # Ġ
        ("▁".encode("utf-8"), b" "),  # ▁
    ),
    strip_continuation=(b"##",),
)


@dataclass
class NormalizeResult:
    tokens: frozenset[bytes]
    n_collapsed: int
    n_dropped: int


def _strip_front(token: bytes, markers: tuple[bytes, ...]) -> bytes:
    """Remove markers from the front of token, each in turn, until none is
    left there."""
    while token.startswith(markers):
        for marker in markers:
            if token.startswith(marker):
                token = token[len(marker) :]
    return token


def normalize_vocab(tokens: Collection[bytes], rules: NormalizationRules = DEFAULT_RULES) -> NormalizeResult:
    """The set that tokens form under rules. Each marker is replaced
    everywhere in every token, then the continuation markers are stripped
    from the front; tokens that collide afterwards collapse to one, tokens
    that normalize to empty are dropped, and both events are counted.

    Each rule runs as one pass over all tokens, and the strip loop runs only
    for the tokens that start with a continuation marker.

    Normalizing the result again with DEFAULT_RULES is a no-op: a
    replacement puts a space between the bytes on either side of a marker,
    so no new marker forms, and stripping leaves no marker at the front.
    With custom rules it need not be: a replacement can join the bytes
    around a marker into a new one, so ((b"ab", b""),) turns b"aabb" into
    b"ab" and a second pass into b"", and a space marker " x" turns b" xx"
    into b" x" and a second pass into b" ".
    """
    normalized = list(tokens)
    for marker, repl in rules.prefix_markers:
        normalized = [token.replace(marker, repl) for token in normalized]
    strip = rules.strip_continuation
    if strip:
        normalized = [
            _strip_front(token, strip) if token.startswith(strip) else token for token in normalized
        ]
    unique = frozenset(normalized)
    dropped = normalized.count(b"")
    if dropped:
        unique -= {b""}
    return NormalizeResult(
        tokens=unique,
        n_collapsed=len(normalized) - dropped - len(unique),
        n_dropped=dropped,
    )


def jaccard(a: frozenset[bytes], b: frozenset[bytes]) -> float:
    """|a & b| / |a | b| under exact byte-string equality. |a | b| is
    counted as |a| + |b| - |a & b|, without building the union."""
    if not a and not b:
        raise ToolkitError("jaccard of two empty vocabularies is undefined")
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


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


# What surrogateescape decodes a byte 0x80..0xff that is not valid UTF-8 to.
_ESCAPES = frozenset(map(chr, range(0xDC80, 0xDD00)))


# The first code points whose UTF-8 takes 2, 3 and 4 bytes.
_UTF8_BOUNDS = (0x80, 0x800, 0x10000)


def _block_names(points: list[int]) -> set[str]:
    """Names of the Unicode blocks that hold the sorted code points; the
    No_Block gaps share one name."""
    names = set()
    i = 0
    while i < len(points):
        block = bisect_right(_STARTS, points[i]) - 1
        names.add(_NAMES[block])
        if block + 1 == len(_STARTS):
            break
        i = bisect_left(points, _STARTS[block + 1], i)
    return names


def vocab_breakdown(tokens: Collection[bytes], label: str = "") -> VocabBreakdownRow:
    """Byte-length histograms and script coverage of a set of tokens.

    Tokens are bucketed by byte length (1..7, then one >7 bucket). The
    character set is collected from tokens directly when they decode as
    UTF-8, and through recover_utf8_chars otherwise; characters are bucketed
    by encoded length 1..4 and counted across distinct Unicode blocks.

    The tokens are decoded in one call, joined by b"\n", with
    surrogateescape: the byte 0x0A ends any partial sequence, so the text is
    the tokens' own decodings joined by "\n", and "\n" is a character of
    the set only if the text holds more than len(tokens) - 1 of them. A
    token that is not valid UTF-8 decodes to at least one escape
    (U+DC80..U+DCFF), and valid UTF-8 never decodes to a surrogate; when
    escapes occur, each token is decoded on its own, and the escapes pick
    out exactly the tokens that need recover_utf8_chars.

    The characters are counted from their sorted code points: bisection at
    the UTF-8 length bounds gives the byte-length histogram, and the blocks
    are found by jumping from block to block, one bisection each.
    """
    by_len = Counter(map(len, tokens))
    tokens_by_len = {n: by_len[n] for n in range(1, 8)}
    joined = b"\n".join(tokens).decode("utf-8", "surrogateescape")
    chars = set(joined)
    if joined.count("\n") == len(tokens) - 1:
        chars.discard("\n")
    if not _ESCAPES.isdisjoint(chars):
        decoded = [token.decode("utf-8", "surrogateescape") for token in tokens]
        chars = set("".join(text for text in decoded if _ESCAPES.isdisjoint(text)))
        for token, text in zip(tokens, decoded):
            if not _ESCAPES.isdisjoint(text):
                chars.update(recover_utf8_chars(token))
    points = sorted(map(ord, chars))
    cuts = [0, *(bisect_left(points, bound) for bound in _UTF8_BOUNDS), len(points)]
    chars_by_len = {n: cuts[n] - cuts[n - 1] for n in range(1, 5)}
    return VocabBreakdownRow(
        label=label,
        clean_vocab_size=len(tokens),
        distinct_blocks=len(_block_names(points)),
        chars_by_byte_len=chars_by_len,
        tokens_by_byte_len=tokens_by_len,
        tokens_gt7=len(tokens) - sum(tokens_by_len.values()),
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
    rows = [[label] + [repr(v) for v in row] for label, row in zip(matrix.labels, matrix.values)]
    write_table(path, [[""] + matrix.labels] + rows, manifest_digest)


_BREAKDOWN_COLUMNS = (
    ["tokenizer", "clean_vocab_size", "distinct_blocks"]
    + [f"chars_{n}B" for n in range(1, 5)]
    + [f"tokens_{n}B" for n in range(1, 8)]
    + ["tokens_gt7B"]
)


def write_breakdown_tsv(rows: list[VocabBreakdownRow], path: str, manifest_digest: str = "") -> None:
    """One row per vocabulary: size, block count, then the two histograms."""
    table = [
        [r.label, r.clean_vocab_size, r.distinct_blocks]
        + [r.chars_by_byte_len[n] for n in range(1, 5)]
        + [r.tokens_by_byte_len[n] for n in range(1, 8)]
        + [r.tokens_gt7]
        for r in rows
    ]
    write_table(path, [_BREAKDOWN_COLUMNS] + table, manifest_digest, delimiter="\t")

"""Vocabulary normalization, overlap metrics, breakdowns, report files."""

import csv

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenlens.analysis import (
    DEFAULT_RULES,
    NormalizationRules,
    VocabBreakdownRow,
    comparison_matrix,
    containment,
    jaccard,
    normalize_vocab,
    vocab_breakdown,
    write_breakdown_tsv,
    write_matrix_csv,
)
from tokenlens._blocks import _NAMES, _STARTS
from tokenlens.errors import ToolkitError
from tokenlens.text import char_byte_len, recover_utf8_chars, unicode_block
from tokenlens.vocab import Vocabulary

GDOT = "Ġ".encode("utf-8")
LOWLINE = "▁".encode("utf-8")


def oracle_apply(rules: NormalizationRules, token: bytes) -> bytes:
    """The spec of normalizing one token: replace each marker everywhere,
    then strip continuation markers from the front to a fixpoint."""
    for marker, repl in rules.prefix_markers:
        if marker in token:
            token = token.replace(marker, repl)
    changed = True
    while changed:
        changed = False
        for marker in rules.strip_continuation:
            if token.startswith(marker):
                token = token[len(marker) :]
                changed = True
    return token


def normalized_once_and_twice(tokens, rules=DEFAULT_RULES):
    once = normalize_vocab(tokens, rules)
    return once, normalize_vocab(once.tokens, rules)


class TestNormalizationRules:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (GDOT + b"hello", b" hello"),
            (LOWLINE + b"foo", b" foo"),
            (b"##ing", b"ing"),
            (b"####x", b"x"),
            (GDOT, b" "),
            (b"plain", b"plain"),
            (b"a" + GDOT + b"b", b"a b"),  # markers replaced everywhere
            (b"a##b", b"a##b"),  # continuation strips only at the front
            (b"##", b""),
        ],
    )
    def test_default_rules(self, raw, expected):
        res = normalize_vocab([raw])
        assert res.tokens == {expected} - {b""}
        assert (res.n_collapsed, res.n_dropped) == (0, int(expected == b""))

    def test_apply_is_idempotent(self):
        for raw in [GDOT + b"x", b"##" + LOWLINE + b"y", b"ordinary", b"## ##"]:
            once, again = normalized_once_and_twice([raw])
            assert (again.tokens, again.n_collapsed, again.n_dropped) == (once.tokens, 0, 0)

    # Markers whole, and their bytes apart, so that a replacement may land
    # between the halves of another marker.
    @given(
        st.lists(
            st.sampled_from([b"a", b" ", b"#", b"##", GDOT, LOWLINE, b"\xc4", b"\xa0", b"\xe2", b"\x96\x81"]),
            max_size=8,
        ).map(b"".join)
    )
    def test_default_rules_are_idempotent(self, raw):
        once, again = normalized_once_and_twice([raw])
        assert (again.tokens, again.n_collapsed, again.n_dropped) == (once.tokens, 0, 0)

    @pytest.mark.parametrize(
        "rules,raw,once,twice",
        [
            (NormalizationRules(prefix_markers=((b"ab", b""),)), b"aabb", b"ab", b""),
            (NormalizationRules(prefix_markers=((b" x", b" "),)), b" xx", b" x", b" "),  # --space-marker " x"
        ],
    )
    def test_custom_rules_need_not_be_idempotent(self, rules, raw, once, twice):
        # A replacement joins the bytes around a marker into a new marker.
        first, second = normalized_once_and_twice([raw], rules)
        assert first.tokens == {once}
        assert second.tokens == {twice} - {b""}
        assert second.n_dropped == int(twice == b"")

    def test_empty_rules_are_identity(self):
        res = normalize_vocab([GDOT + b"##x"], NormalizationRules())
        assert (res.tokens, res.n_collapsed, res.n_dropped) == ({GDOT + b"##x"}, 0, 0)

    @pytest.mark.parametrize(
        "rules",
        [{"prefix_markers": ((GDOT, b" "), (b"", b" "))}, {"strip_continuation": (b"##", b"")}],
        ids=["prefix-marker", "strip-continuation"],
    )
    def test_empty_marker_rejected(self, rules):
        with pytest.raises(ToolkitError, match="normalization markers must not be empty"):
            NormalizationRules(**rules)


def oracle_normalize(
    tokens: list[bytes], rules: NormalizationRules
) -> tuple[frozenset[bytes], int, int]:
    """The spec of normalize_vocab, token by token: drop a token that
    normalizes to empty, collapse one already kept, keep the rest.
    Returns the kept tokens, n_collapsed and n_dropped."""
    kept: set[bytes] = set()
    collapsed = 0
    dropped = 0
    for token in tokens:
        norm = oracle_apply(rules, token)
        if norm == b"":
            dropped += 1
        elif norm in kept:
            collapsed += 1
        else:
            kept.add(norm)
    return frozenset(kept), collapsed, dropped


# Tokens are joined from pieces that include every marker, so collisions,
# markers in the middle, repeated "##" fronts and empty results all occur.
_PIECES = st.sampled_from([b"a", b"b", b" ", b"#", b"##", GDOT, LOWLINE, b"\xc4"])
_MARKED_TOKENS = st.lists(
    st.lists(_PIECES, min_size=1, max_size=4).map(b"".join), unique=True, max_size=25
)
_RULE_SETS = st.sampled_from(
    [
        DEFAULT_RULES,
        NormalizationRules(),
        NormalizationRules(prefix_markers=((b"#", b""),), strip_continuation=(b"a", b"b")),
        NormalizationRules(prefix_markers=((b"ab", b""), (b" a", b"#")), strip_continuation=(b"##", b"b")),
        NormalizationRules(prefix_markers=((b"a#", b"#"),), strip_continuation=(b"#",)),  # markers overlap
    ]
)


# Tried in a scratch copy, three normalize_vocab mutants fail this test:
# keeping b"" in tokens, counting the dropped tokens in n_collapsed, and a
# strip loop of one round.
class TestNormalizeVocabMatchesOracle:
    @given(_MARKED_TOKENS, _RULE_SETS)
    def test_marked_vocabularies(self, tokens, rules):
        res = normalize_vocab(Vocabulary(tokens), rules)
        assert (res.tokens, res.n_collapsed, res.n_dropped) == oracle_normalize(tokens, rules)


class TestNormalizeVocab:
    @given(_MARKED_TOKENS)
    def test_default_normalization_twice_is_noop(self, tokens):
        once, again = normalized_once_and_twice(tokens)
        assert (again.tokens, again.n_collapsed, again.n_dropped) == (once.tokens, 0, 0)

    def test_collision_collapses_and_counts(self):
        res = normalize_vocab(Vocabulary([b"ing", b"##ing"]))
        assert (res.tokens, res.n_collapsed, res.n_dropped) == ({b"ing"}, 1, 0)

    def test_marker_styles_collapse_together(self):
        res = normalize_vocab([GDOT + b"x", LOWLINE + b"x"])
        assert (res.tokens, res.n_collapsed, res.n_dropped) == ({b" x"}, 1, 0)

    def test_empty_normalization_drops_and_counts(self):
        res = normalize_vocab([b"##", b"a"])
        assert (res.tokens, res.n_collapsed, res.n_dropped) == ({b"a"}, 0, 1)

    def test_normalizing_twice_is_noop(self):
        once, again = normalized_once_and_twice([GDOT + b"the", b"##ing", b"the"])
        assert (again.tokens, again.n_collapsed, again.n_dropped) == (once.tokens, 0, 0)


class TestOverlapMetrics:
    @given(st.frozensets(st.binary(max_size=2), max_size=12), st.frozensets(st.binary(max_size=2), max_size=12))
    def test_jaccard_matches_union_oracle(self, a, b):
        if a or b:
            assert jaccard(a, b) == len(a & b) / len(a | b)

    def test_jaccard_known_value(self):
        a = frozenset({b"a", b"b"})
        b = frozenset({b"b", b"c"})
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_jaccard_identical_sets(self):
        a = frozenset({b"a", b"b"})
        assert jaccard(a, a) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard(frozenset({b"a"}), frozenset({b"b"})) == 0.0

    def test_jaccard_both_empty_is_error(self):
        with pytest.raises(ToolkitError):
            jaccard(frozenset(), frozenset())

    def test_jaccard_one_empty_is_zero(self):
        assert jaccard(frozenset(), frozenset({b"a"})) == 0.0

    def test_containment_known_value(self):
        small = frozenset({b"a", b"z"})
        large = frozenset({b"a", b"b", b"c"})
        assert containment(small, large) == 0.5

    def test_containment_empty_numerator_is_error(self):
        with pytest.raises(ToolkitError):
            containment(frozenset(), frozenset({b"a"}))


def oracle_breakdown(tokens: list[bytes]) -> tuple:
    """The spec of vocab_breakdown, token by token: bucket its byte length,
    then take its characters from a strict decode, or from
    recover_utf8_chars when that fails."""
    chars: set[str] = set()
    tokens_by_len = {n: 0 for n in range(1, 8)}
    gt7 = 0
    for token in tokens:
        if len(token) > 7:
            gt7 += 1
        else:
            tokens_by_len[len(token)] += 1
        try:
            chars.update(token.decode("utf-8"))
        except UnicodeDecodeError:
            chars.update(recover_utf8_chars(token))
    chars_by_len = {n: 0 for n in range(1, 5)}
    for ch in chars:
        chars_by_len[char_byte_len(ch)] += 1
    blocks = {unicode_block(ch) for ch in chars}
    return len(tokens), len(blocks), chars_by_len, tokens_by_len, gt7


# Valid characters of each UTF-8 length, "\n", lone bytes 0x80..0xff and
# cut-off sequences, so that tokens are valid, invalid but recoverable, or
# not recoverable at all, and some are longer than 7 bytes.
_BREAKDOWN_PIECES = st.sampled_from(
    [b"a", b"\n", b" ", "é".encode(), "क".encode(), "😀".encode(), b"\xe0\xa4", b"\xf0\x9f\x98"]
) | st.integers(0x80, 0xFF).map(lambda b: bytes([b]))


# Tried in a scratch copy, two breakdown mutants fail this test: taking an
# invalid token's characters from its surrogateescape decode, and dropping
# the escapes from the joined set instead of recovering those tokens.
class TestVocabBreakdownMatchesOracle:
    @given(st.lists(st.lists(_BREAKDOWN_PIECES, min_size=1, max_size=6).map(b"".join), unique=True, max_size=20))
    def test_any_tokens(self, tokens):
        row = vocab_breakdown(frozenset(tokens))
        got = (row.clean_vocab_size, row.distinct_blocks, row.chars_by_byte_len, row.tokens_by_byte_len, row.tokens_gt7)
        assert got == oracle_breakdown(tokens)


_ESCAPES = frozenset(map(chr, range(0xDC80, 0xDD00)))


def oracle_breakdown_per_token(tokens, label=""):
    """vocab_breakdown with each token decoded on its own and the
    decodings joined, as it was before the tokens were decoded in one call."""
    by_len = {n: sum(len(t) == n for t in tokens) for n in range(1, 8)}
    decoded = [token.decode("utf-8", "surrogateescape") for token in tokens]
    chars = set("".join(decoded))
    if not _ESCAPES.isdisjoint(chars):
        chars = set("".join(text for text in decoded if _ESCAPES.isdisjoint(text)))
        for token, text in zip(tokens, decoded):
            if not _ESCAPES.isdisjoint(text):
                chars.update(recover_utf8_chars(token))
    chars_by_len = {n: 0 for n in range(1, 5)}
    for ch in chars:
        chars_by_len[char_byte_len(ch)] += 1
    return VocabBreakdownRow(
        label=label,
        clean_vocab_size=len(tokens),
        distinct_blocks=len({unicode_block(ch) for ch in chars}),
        chars_by_byte_len=chars_by_len,
        tokens_by_byte_len=by_len,
        tokens_gt7=len(tokens) - sum(by_len.values()),
    )


# Lead bytes of every length, continuation bytes and newlines, so that a
# joined decode would differ if 0x0A did not end a partial sequence, and so
# that "\n" is sometimes a character of the set and sometimes only the
# separator.
_JOIN_PIECES = st.sampled_from(
    [b"\n", b"\n\n", b"a", "é".encode(), "क".encode(), "😀".encode(), b"\xc3", b"\xe0\xa4", b"\xf0\x9f\x98",
     b"\x80", b"\xa9", b"\xbf", b"\xff"]
)


def _edge_points() -> list[int]:
    """Code points on either side of each UTF-8 length bound and of each
    block start, and one inside every No_Block gap; no surrogates."""
    points = {0, 0x10FFFF}
    for bound in (0x80, 0x800, 0x10000):
        points |= {bound - 1, bound}
    for start, end, name in zip(_STARTS, [*_STARTS[1:], 0x110000], _NAMES):
        points |= {start, end - 1}
        if name == "No_Block":
            points.add((start + end) // 2)
    return sorted(p for p in points if not 0xD800 <= p < 0xE000)


_EDGE_CHARS = [chr(p).encode() for p in _edge_points()]


class TestVocabBreakdownMatchesPerTokenDecode:
    @given(
        st.lists(
            st.lists(_JOIN_PIECES | st.sampled_from(_EDGE_CHARS), min_size=1, max_size=5).map(b"".join),
            unique=True,
            max_size=25,
        )
    )
    def test_any_tokens(self, tokens):
        tokens = frozenset(tokens)
        assert vocab_breakdown(tokens, "x") == oracle_breakdown_per_token(tokens, "x")

    @pytest.mark.parametrize("step", [1, 2, 3, 7])
    def test_edge_code_points(self, step):
        # every step-th edge character, each its own token, with one token
        # that is not valid UTF-8
        tokens = frozenset(_EDGE_CHARS[::step] + [b"\xff" + _EDGE_CHARS[-1]])
        assert vocab_breakdown(tokens, "x") == oracle_breakdown_per_token(tokens, "x")

    @pytest.mark.parametrize(
        "tokens, newline",
        [([b"a", b"b"], False), ([b"a", b"\n"], True), ([b"\n"], True), ([b"a\nb"], True), ([], False),
         ([b"\xe0", b"\n\xa4"], False), ([b"\n", b"\xa4"], True), ([b"\xe0", b"\xa4"], False)],
    )
    def test_newline_is_a_character_only_when_a_token_holds_one(self, tokens, newline):
        row = vocab_breakdown(frozenset(tokens))
        assert row == oracle_breakdown_per_token(frozenset(tokens))
        assert row.chars_by_byte_len[1] >= newline


class TestVocabBreakdown:
    def test_small_mixed_vocab(self):
        row = vocab_breakdown(Vocabulary([b"a", "é".encode("utf-8"), b"ab"]), "demo")
        assert row.label == "demo"
        assert row.clean_vocab_size == 3
        assert row.chars_by_byte_len == {1: 2, 2: 1, 3: 0, 4: 0}
        assert row.tokens_by_byte_len == {1: 1, 2: 2, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0}
        assert row.tokens_gt7 == 0
        assert row.distinct_blocks == 2  # Basic Latin, Latin-1 Supplement

    def test_unrecoverable_token_contributes_no_chars(self):
        row = vocab_breakdown(Vocabulary([b"\xc3", b"ab"]))
        assert row.clean_vocab_size == 2
        assert row.chars_by_byte_len == {1: 2, 2: 0, 3: 0, 4: 0}
        assert row.tokens_by_byte_len[1] == 1

    def test_partially_valid_token_recovers_chars(self):
        row = vocab_breakdown(Vocabulary([b"\xff\xe0\xa4\x95"]))  # junk + Devanagari ka
        assert row.chars_by_byte_len == {1: 0, 2: 0, 3: 1, 4: 0}
        assert row.distinct_blocks == 1

    def test_long_token_bucket(self):
        row = vocab_breakdown(Vocabulary([b"abcdefgh", b"abcdefg"]))
        assert row.tokens_gt7 == 1
        assert row.tokens_by_byte_len[7] == 1


class TestComparisonMatrix:
    def test_jaccard_matrix_symmetric_with_unit_diagonal(self):
        vocabs = [
            ("x", frozenset({b"a", b"b"})),
            ("y", frozenset({b"b", b"c"})),
            ("z", frozenset({b"a", b"b", b"c"})),
        ]
        m = comparison_matrix(vocabs, metric="jaccard")
        assert m.labels == ["x", "y", "z"]
        for i in range(3):
            assert m.values[i][i] == 1.0
            for j in range(3):
                assert m.values[i][j] == m.values[j][i]
        assert m.values[0][1] == pytest.approx(1 / 3)
        assert m.values[0][2] == pytest.approx(2 / 3)

    def test_containment_uses_smaller_side_as_base(self):
        vocabs = [
            ("big", frozenset({b"a", b"b", b"c", b"d"})),
            ("small", frozenset({b"a", b"b"})),
        ]
        m = comparison_matrix(vocabs, metric="containment")
        assert m.values[0][1] == 1.0
        assert m.values[1][0] == 1.0

    def test_unknown_metric_is_error(self):
        vocabs = [("x", frozenset({b"a"})), ("y", frozenset({b"a"}))]
        with pytest.raises(ToolkitError):
            comparison_matrix(vocabs, metric="dice")

    def test_fewer_than_two_is_error(self):
        with pytest.raises(ToolkitError):
            comparison_matrix([("x", frozenset({b"a"}))])


class TestReportFiles:
    def test_matrix_csv_roundtrips_full_precision(self, tmp_path):
        vocabs = [
            ("x", frozenset({b"a", b"b", b"c"})),
            ("y", frozenset({b"b", b"c", b"d", b"e", b"f", b"g", b"h"})),
        ]
        m = comparison_matrix(vocabs)
        path = str(tmp_path / "matrix.csv")
        write_matrix_csv(m, path, manifest_digest="cafe" * 16)
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        assert lines[0] == "# manifest: " + "cafe" * 16
        rows = list(csv.reader(lines[1:4]))
        assert rows[0] == ["", "x", "y"]
        assert rows[1][0] == "x"
        assert float(rows[1][2]) == m.values[0][1]  # repr round-trips exactly

    def test_matrix_csv_without_digest_has_no_comment(self, tmp_path):
        vocabs = [("x", frozenset({b"a"})), ("y", frozenset({b"a"}))]
        path = str(tmp_path / "matrix.csv")
        write_matrix_csv(comparison_matrix(vocabs), path)
        with open(path, encoding="utf-8") as f:
            assert f.readline().startswith(",")

    def test_breakdown_tsv_shape(self, tmp_path):
        rows = [
            vocab_breakdown(Vocabulary([b"a", b"ab"]), "one"),
            vocab_breakdown(Vocabulary(["é".encode("utf-8")]), "two"),
        ]
        path = str(tmp_path / "breakdown.tsv")
        write_breakdown_tsv(rows, path)
        with open(path, encoding="utf-8") as f:
            got = list(csv.reader(f, delimiter="\t"))
        assert got[0][:3] == ["tokenizer", "clean_vocab_size", "distinct_blocks"]
        assert len(got) == 3
        assert got[1][0] == "one"
        assert got[1][1] == "2"
        assert all(len(r) == len(got[0]) for r in got[1:])

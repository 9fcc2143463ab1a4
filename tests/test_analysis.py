"""Vocabulary normalization, overlap metrics, breakdowns, report files."""

import csv

import pytest

from tokenlens.analysis import (
    DEFAULT_RULES,
    NormalizationRules,
    comparison_matrix,
    containment,
    jaccard,
    normalize_vocab,
    vocab_breakdown,
    write_breakdown_tsv,
    write_matrix_csv,
)
from tokenlens.errors import ToolkitError
from tokenlens.vocab import Vocabulary

GDOT = "Ġ".encode("utf-8")
LOWLINE = "▁".encode("utf-8")


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
        assert DEFAULT_RULES.apply(raw) == expected

    def test_apply_is_idempotent(self):
        for raw in [GDOT + b"x", b"##" + LOWLINE + b"y", b"ordinary", b"## ##"]:
            once = DEFAULT_RULES.apply(raw)
            assert DEFAULT_RULES.apply(once) == once

    def test_empty_rules_are_identity(self):
        rules = NormalizationRules()
        assert rules.apply(GDOT + b"##x") == GDOT + b"##x"


class TestNormalizeVocab:
    def test_collision_collapses_and_counts(self):
        v = Vocabulary([b"ing", b"##ing"])
        res = normalize_vocab(v)
        assert res.vocab.tokens() == [b"ing"]
        assert res.n_collapsed == 1
        assert res.n_dropped == 0

    def test_marker_styles_collapse_together(self):
        v = Vocabulary([GDOT + b"x", LOWLINE + b"x"])
        res = normalize_vocab(v)
        assert res.vocab.tokens() == [b" x"]
        assert res.n_collapsed == 1

    def test_empty_normalization_drops_and_counts(self):
        v = Vocabulary([b"##", b"a"])
        res = normalize_vocab(v)
        assert res.vocab.tokens() == [b"a"]
        assert res.n_dropped == 1
        assert res.n_collapsed == 0

    def test_insertion_order_preserved(self):
        v = Vocabulary([b"b", b"a"])
        assert normalize_vocab(v).vocab.tokens() == [b"b", b"a"]

    def test_normalizing_twice_is_noop(self):
        v = Vocabulary([GDOT + b"the", b"##ing", b"the"])
        once = normalize_vocab(v)
        again = normalize_vocab(once.vocab)
        assert again.vocab == once.vocab
        assert again.n_collapsed == 0
        assert again.n_dropped == 0


class TestOverlapMetrics:
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

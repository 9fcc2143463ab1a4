"""Vocabulary and merge-rule containers plus their file round-trips."""

import json
import random

import pytest

from tokenlens.errors import ToolkitError
from tokenlens.vocab import (
    MergeRule,
    MergeRuleList,
    Vocabulary,
    load_merges,
    load_vocab,
    save_merges,
    save_vocab,
    str_to_token,
    token_to_str,
)


class TestStrBridge:
    @pytest.mark.parametrize(
        "raw",
        [b"hello", b"\xff", b"\xc4\xa0", b"\xe2\x96\x81x", b"\x80\x80", b"a\xffb"],
    )
    def test_roundtrip(self, raw):
        assert str_to_token(token_to_str(raw)) == raw

    def test_roundtrip_random_bytes(self):
        rng = random.Random(0)
        for _ in range(200):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
            assert str_to_token(token_to_str(raw)) == raw

    def test_bridged_strings_survive_json(self):
        raw = b"\xfea\xff"
        dumped = json.dumps({token_to_str(raw): 0}, ensure_ascii=True)
        loaded = json.loads(dumped)
        assert str_to_token(next(iter(loaded))) == raw


class TestVocabulary:
    def test_insertion_order_ids(self):
        v = Vocabulary([b"a", b"b"])
        assert v.id_of(b"a") == 0
        assert v.id_of(b"b") == 1
        assert v.token(1) == b"b"
        assert list(v) == [b"a", b"b"]

    def test_duplicate_add_is_error(self):
        v = Vocabulary([b"a"])
        with pytest.raises(ToolkitError):
            v.add(b"a")

    def test_empty_token_is_error(self):
        with pytest.raises(ToolkitError):
            Vocabulary([b""])

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            Vocabulary(["a"])  # type: ignore[list-item]

    def test_get_or_add_reuses_id(self):
        v = Vocabulary([b"a"])
        assert v.get_or_add(b"a") == 0
        assert v.get_or_add(b"b") == 1
        assert len(v) == 2

    def test_id_of_missing_is_error(self):
        v = Vocabulary([b"a"])
        with pytest.raises(ToolkitError):
            v.id_of(b"z")
        assert v.get(b"z") is None

    def test_token_set(self):
        v = Vocabulary([b"a", b"b"])
        assert v.token_set() == frozenset({b"a", b"b"})

    def test_equality_is_by_ordered_tokens(self):
        assert Vocabulary([b"a", b"b"]) == Vocabulary([b"a", b"b"])
        assert Vocabulary([b"a", b"b"]) != Vocabulary([b"b", b"a"])


class TestVocabFiles:
    def test_json_roundtrip(self, tmp_path):
        v = Vocabulary([b"a", b"sh", b"\xff", b"\xc4\xa0x"])
        path = str(tmp_path / "vocab.json")
        save_vocab(v, path)
        assert load_vocab(path) == v

    def test_json_file_is_plain_ascii(self, tmp_path):
        v = Vocabulary([b"\xff"])
        path = str(tmp_path / "vocab.json")
        save_vocab(v, path)
        with open(path, "rb") as f:
            data = f.read()
        assert max(data) < 128
        assert json.loads(data)  # well-formed

    def test_json_sparse_ids_rejected(self, tmp_path):
        path = str(tmp_path / "vocab.json")
        with open(path, "w") as f:
            json.dump({"a": 0, "b": 2}, f)
        with pytest.raises(ToolkitError):
            load_vocab(path)

    def test_json_duplicate_ids_rejected(self, tmp_path):
        path = str(tmp_path / "vocab.json")
        with open(path, "w") as f:
            f.write('{"a": 0, "b": 0}')
        with pytest.raises(ToolkitError):
            load_vocab(path)

    def test_json_non_integer_id_rejected(self, tmp_path):
        path = str(tmp_path / "vocab.json")
        with open(path, "w") as f:
            f.write('{"a": "0"}')
        with pytest.raises(ToolkitError):
            load_vocab(path)

    def test_plaintext_one_token_per_line(self, tmp_path):
        path = str(tmp_path / "vocab.txt")
        with open(path, "w") as f:
            f.write("a\n\nsh\nes\n")
        v = load_vocab(path)
        assert v.tokens() == [b"a", b"sh", b"es"]


class TestMergeFiles:
    @pytest.fixture()
    def trained(self):
        vocab = Vocabulary([b"a", b"b", b"ab", b"abab"])
        rules = MergeRuleList([MergeRule(0, 1, 2), MergeRule(2, 2, 3)])
        return vocab, rules

    def test_json_roundtrip(self, tmp_path, trained):
        vocab, rules = trained
        path = str(tmp_path / "merges.json")
        save_merges(rules, vocab, path)
        assert load_merges(path, vocab) == rules

    def test_plaintext_with_comments(self, tmp_path, trained):
        vocab, rules = trained
        path = str(tmp_path / "merges.txt")
        with open(path, "w") as f:
            f.write("# version: whatever\na b\nab ab\n")
        assert load_merges(path, vocab) == rules

    def test_plaintext_hash_merges_kept(self, tmp_path):
        vocab = Vocabulary([b"#", b"##", b"a", b"b", b"ab", b"#a", b"#ab"])
        path = str(tmp_path / "merges.txt")
        with open(path, "w") as f:
            f.write("#version: 0.2\n# #\na b\n#a b\n# a\n")
        assert load_merges(path, vocab) == MergeRuleList(
            [MergeRule(0, 0, 1), MergeRule(2, 3, 4), MergeRule(5, 3, 6), MergeRule(0, 2, 5)]
        )

    def test_unknown_token_rejected(self, tmp_path):
        vocab = Vocabulary([b"a", b"b"])
        path = str(tmp_path / "merges.txt")
        with open(path, "w") as f:
            f.write("a b\n")  # merged token "ab" missing from vocab
        with pytest.raises(ToolkitError):
            load_merges(path, vocab)

    def test_malformed_line_rejected(self, tmp_path, trained):
        vocab, _ = trained
        path = str(tmp_path / "merges.txt")
        with open(path, "w") as f:
            f.write("a b c\n")
        with pytest.raises(ToolkitError):
            load_merges(path, vocab)

    def test_rule_list_indexing(self, trained):
        _, rules = trained
        assert rules[0] == MergeRule(0, 1, 2)
        assert len(rules) == 2
        assert list(rules)[1].new_id == 3

"""Vocabulary and merge-rule containers plus their file round-trips."""

import json
import os
import random
import re
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenlens.errors import ToolkitError, reading
from tokenlens.vocab import (
    MergeRule,
    MergeRuleList,
    Vocabulary,
    _MAY_OPEN_JSON,
    _reject_first_bad_id,
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


def oracle_vocabulary(tokens: list) -> tuple[list[bytes], dict[bytes, int]]:
    """The spec of Vocabulary(tokens): add each token in order, checking its
    type, then that it is nonempty, then that it is new."""
    out: list[bytes] = []
    ids: dict[bytes, int] = {}
    for token in tokens:
        if not isinstance(token, bytes):
            raise TypeError(f"token must be bytes, got {type(token).__name__}")
        if token == b"":
            raise ToolkitError("empty tokens are not allowed")
        if token in ids:
            raise ToolkitError(f"duplicate token {token_to_str(token)!r}")
        ids[token] = len(out)
        out.append(token)
    return out, ids


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (TypeError, ToolkitError) as exc:
        return type(exc), str(exc)


def built(tokens: list) -> tuple[list[bytes], dict[bytes, int]]:
    v = Vocabulary(tokens)
    return v.tokens(), {t: v.id_of(t) for t in v}


# few distinct byte strings (so duplicates are common), the empty token,
# a hashable and an unhashable non-bytes item
_VOCAB_ITEMS = st.sampled_from([b"a", b"b", b"ab", b"\xff", b"", "a", ["a"]])


class TestVocabularyMatchesOracle:
    @given(st.lists(_VOCAB_ITEMS, max_size=8))
    def test_any_token_list(self, tokens):
        assert outcome(built, tokens) == outcome(oracle_vocabulary, tokens)

    @given(st.lists(st.binary(min_size=1, max_size=3), unique=True, max_size=30))
    def test_valid_token_lists(self, tokens):
        assert built(tokens) == oracle_vocabulary(tokens)

    @pytest.mark.parametrize(
        "tokens,error",
        [
            ([b"a", b"", b"a"], "empty tokens are not allowed"),
            ([b"a", b"a", b""], "duplicate token 'a'"),
            ([b"\xff", b"b", b"\xff"], "duplicate token '\\udcff'"),
            ([b"", ["x"]], "empty tokens are not allowed"),
            ([b"a", ["x"], b""], "token must be bytes, got list"),
        ],
    )
    def test_first_bad_token_is_reported(self, tokens, error):
        assert outcome(built, tokens) == outcome(oracle_vocabulary, tokens)
        assert outcome(built, tokens)[1] == error


class TestVocabulary:
    def test_insertion_order_ids(self):
        v = Vocabulary([b"a", b"b"])
        assert v.id_of(b"a") == 0
        assert v.id_of(b"b") == 1
        assert v.token(1) == b"b"
        assert list(v) == [b"a", b"b"]

    def test_duplicate_add_is_error(self):
        with pytest.raises(ToolkitError, match="duplicate token 'a'"):
            Vocabulary([b"a", b"b", b"a"])

    def test_empty_token_is_error(self):
        with pytest.raises(ToolkitError):
            Vocabulary([b""])

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            Vocabulary(["a"])  # type: ignore[list-item]

    def test_id_of_missing_is_error(self):
        v = Vocabulary([b"a"])
        with pytest.raises(ToolkitError):
            v.id_of(b"z")
        assert v.get(b"z") is None

    def test_membership(self):
        v = Vocabulary([b"a"])
        assert b"a" in v
        assert b"z" not in v

    def test_equality_is_by_ordered_tokens(self):
        assert Vocabulary([b"a", b"b"]) == Vocabulary([b"a", b"b"])
        assert Vocabulary([b"a", b"b"]) != Vocabulary([b"b", b"a"])


class TestLazyIdIndex:
    @pytest.mark.parametrize("first", ["get", "id_of", "in", "load_merges"])
    def test_built_once_on_first_lookup(self, tmp_path, first):
        v = Vocabulary([b"a", b"b", b"ab"])
        path = str(tmp_path / "merges.txt")
        with open(path, "wb") as f:
            f.write(b"a b\n")
        lookups = {
            "get": lambda: v.get(b"a"),
            "id_of": lambda: v.id_of(b"b"),
            "in": lambda: b"ab" in v,
            "load_merges": lambda: load_merges(path, v),
        }
        assert (list(v), len(v), v.token(2), v.tokens()) == ([b"a", b"b", b"ab"], 3, b"ab", [b"a", b"b", b"ab"])
        assert v == Vocabulary([b"a", b"b", b"ab"])
        assert v._ids is None
        lookups[first]()
        index = v._ids
        assert index == {b"a": 0, b"b": 1, b"ab": 2}
        for lookup in lookups.values():
            lookup()
        assert v._ids is index


def oracle_load_vocab(path: str) -> Vocabulary:
    """The spec of load_vocab, line by line and entry by entry."""
    with reading(path):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            content = f.read()
        stripped = content.lstrip()
        obj = None
        if stripped.startswith("{"):
            obj = json.loads(content)
        elif stripped.startswith("["):
            try:
                obj = json.loads(content)
            except ValueError:
                pass
        if obj is None:
            return Vocabulary([str_to_token(ln) for ln in content.split("\n") if ln != ""])
        if not isinstance(obj, dict):
            raise ToolkitError("vocabulary JSON must be an object")
        by_id: dict[int, bytes] = {}
        for tok_s, tid in obj.items():
            if type(tid) is not int:
                raise ToolkitError(f"id for {tok_s!r} is not an integer")
            if tid in by_id:
                raise ToolkitError(f"duplicate id {tid}")
            by_id[tid] = str_to_token(tok_s)
        if sorted(by_id) != list(range(len(by_id))):
            raise ToolkitError("token ids are not dense 0..n-1")
        return Vocabulary([by_id[i] for i in range(len(by_id))])


def oracle_load_merges(path: str, vocab: Vocabulary) -> MergeRuleList:
    """The spec of load_merges, line by line and rule by rule."""
    with reading(path):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            content = f.read()
        pairs: list[tuple[str, str]] = []
        arr = None
        if content.lstrip().startswith("["):
            try:
                arr = json.loads(content)
            except ValueError:
                pass  # plaintext whose first token starts with "["
        if arr is not None:
            for entry in arr:
                if not isinstance(entry, list) or [type(s) for s in entry] != [str, str]:
                    raise ToolkitError("each merge must be a [left, right] pair of strings")
                pairs.append((entry[0], entry[1]))
        else:
            for lineno, ln in enumerate(content.split("\n"), 1):
                if ln == "" or ln.startswith("#version"):
                    continue
                parts = ln.split(" ")
                if ln.startswith("#") and len(parts) != 2:
                    continue
                if len(parts) != 2:
                    raise ToolkitError(f"line {lineno}: expected 'left right'")
                pairs.append((parts[0], parts[1]))
        rules = []
        for left_s, right_s in pairs:
            left = str_to_token(left_s)
            right = str_to_token(right_s)
            lid = vocab.get(left)
            rid = vocab.get(right)
            nid = vocab.get(left + right)
            if lid is None or rid is None or nid is None:
                missing = token_to_str(left if lid is None else right if rid is None else left + right)
                raise ToolkitError(f"merge references unknown token {missing!r}")
            rules.append(MergeRule(lid, rid, nid))
    return MergeRuleList(rules)


def file_outcomes(loader, oracle, data: bytes, *args):
    """outcome(loader, path, *args) and outcome(oracle, path, *args) for one
    file holding data."""
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        return outcome(loader, path, *args), outcome(oracle, path, *args)
    finally:
        os.remove(path)


# Token bytes that are valid UTF-8, invalid (lone 0x80..0xff bytes, a cut-off
# sequence), or a space, "#" or "\r"; lines end in "\n", "\r\n" or "\r",
# which reading translates to "\n", and may be empty.
_TOKEN_BYTES = st.lists(
    st.sampled_from([b"a", b"b", b"#", b" ", b"\r", b"[", "क".encode(), b"\xe0\xa4"])
    | st.integers(0x80, 0xFF).map(lambda b: bytes([b])),
    max_size=3,
).map(b"".join)
_LINE_END = st.sampled_from([b"\n", b"\r\n", b"\r"])


# What a file may open with: ASCII whitespace, which both str.lstrip() and
# bytes.lstrip() strip; characters that only str.lstrip() strips; a UTF-8
# BOM, which neither strips; and a lone or cut-off lead byte of such a
# character, which decodes to an escape.
_OPENING = st.lists(
    st.sampled_from(
        [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x1c", b"\x1d", b"\x1e", b"\x1f"]
        + [c.encode() for c in "\x85\xa0\u1680\u2000\u2028\u2029\u205f\u3000\ufeff"]
        + [b"\xc2", b"\xe2\x80", b"\xe3"]
    ),
    max_size=3,
).map(b"".join)


@st.composite
def vocab_files(draw):
    """A plaintext vocabulary, or a JSON object of token -> id whose ids are
    often dense but may repeat, skip, be negative, bool or a string, or a
    JSON array; each may open with _OPENING."""
    opening = draw(_OPENING)
    kind = draw(st.sampled_from(["plaintext", "object", "array"]))
    if kind == "plaintext":
        lines = draw(st.lists(st.tuples(_TOKEN_BYTES, _LINE_END), max_size=10))
        return opening + b"".join(t + end for t, end in lines)
    if kind == "array":
        return opening + json.dumps(draw(st.lists(_TOKEN_BYTES.map(token_to_str), max_size=3))).encode()
    tokens = draw(st.lists(_TOKEN_BYTES, max_size=8, unique=True))
    ids = list(range(len(tokens)))
    draw(st.randoms(use_true_random=False)).shuffle(ids)
    odd = st.integers(-1, len(tokens) + 1) | st.booleans() | st.just("0")
    ids = [draw(odd) if draw(st.integers(0, 2)) == 0 else i for i in ids]
    return opening + json.dumps(dict(zip(map(token_to_str, tokens), ids)), ensure_ascii=True).encode()


_MERGE_VOCAB = Vocabulary(
    [b"a", b"b", b"ab", b"#", b"##", b"#a", b"\xff", b"a\xff", "क".encode(), b"[", b"[a", b"[[", b"[[a"]
)


@st.composite
def merges_files(draw):
    """Plaintext merges: pairs of vocabulary tokens (or not), "#version"
    headers, "#" comments and "#" merges, lines of one or three tokens, empty
    lines and mixed line ends; a plaintext file may open with "[" (and may
    then still parse as JSON). Or a JSON array of pairs and malformed
    entries, whole or cut short. Either may open with _OPENING."""
    return draw(_OPENING) + draw(_merges_body())


@st.composite
def _merges_body(draw):
    word = st.sampled_from([b"a", b"b", b"ab", b"#", b"#a", b"\xff", b"\xa4", "क".encode(), b"[", b"[[", b""])
    if draw(st.integers(0, 3)) == 0:
        entry = st.lists(word.map(token_to_str), min_size=2, max_size=2) | st.sampled_from([["a"], [1, "a"], "ab"])
        data = json.dumps(draw(st.lists(entry, max_size=6)), ensure_ascii=True).encode()
        return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data
    # rules of _MERGE_VOCAB; "[ a" opens a plaintext file with "[", and
    # "[[ a" opens one with "[[" (neither is JSON)
    pair = st.sampled_from([b"a b", b"# #", b"# a", b"a \xff", b"[ a", b"[[ a", b"[ [a"])
    line = (
        pair
        | pair
        | st.sampled_from([b"#version: 0.2", b"#version a", b"# comment here", b"", b"[]", b"[ ]"])
        | st.lists(word, min_size=1, max_size=3).map(b" ".join)
    )
    lines = draw(st.lists(st.tuples(line, _LINE_END), max_size=8))
    return b"".join(ln + end for ln, end in lines)


# Tried in a scratch copy, these loader mutants fail a test here: reading
# without newline translation ("\r" and "\r\n" kept), a "#version" line of
# two tokens read as a merge, and a missing token reported for the last bad
# rule instead of the first.
# Also caught: telling JSON from plaintext by bytes.lstrip() alone, and
# keeping empty plaintext vocabulary lines.
class TestLoadersMatchOracles:
    @given(vocab_files())
    def test_load_vocab(self, data):
        got, expected = file_outcomes(load_vocab, oracle_load_vocab, data)
        assert got == expected

    @given(merges_files())
    def test_load_merges(self, data):
        got, expected = file_outcomes(load_merges, oracle_load_merges, data, _MERGE_VOCAB)
        assert got == expected
        if isinstance(got, MergeRuleList):
            # loaded as columns; rebuilt from MergeRule objects
            rebuilt = MergeRuleList(list(got))
            assert rebuilt == got
            assert list(rebuilt) == list(got) == [got[i] for i in range(len(got))]
            assert [rebuilt[i] for i in range(len(got))] == list(got)
            assert all(type(rule) is MergeRule for rule in got)
            assert got.rank_index() == oracle_rank_index(got)


class TestJsonOrPlaintext:
    """load_vocab and load_merges take a file for JSON exactly when
    str.lstrip() of its text opens with "{" or "[", as the oracles do, but
    decode only a file that may."""

    def test_every_lead_byte_str_lstrip_strips_is_listed(self):
        spaces = [c.encode() for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        assert {c[0] for c in spaces if not c.isspace()} | set(b"{[") == _MAY_OPEN_JSON

    @pytest.mark.parametrize(
        "opening",
        [b"", b" \t\r\n", b"\x1c", b"\x1f", b"\xc2", b"\xe2\x80"]
        + [c.encode() for c in "\x85\xa0\u1680\u2028\u3000\ufeff"],
    )
    def test_opening_characters(self, opening):
        for body in [b'{"a": 0, "b": 1}', b'["a", "b"]', b"[PAD]\na\n", b"a\nb", b"[ a\na b\n", b'[["a", "b"]]']:
            got, expected = file_outcomes(load_vocab, oracle_load_vocab, opening + body)
            assert got == expected
            got, expected = file_outcomes(load_merges, oracle_load_merges, opening + body, _MERGE_VOCAB)
            assert got == expected


def by_id_load_vocab(path: str) -> Vocabulary:
    """load_vocab's JSON path before its in-order shortcut: every id goes
    through an id -> token dict, checked for min and max, and is looked up
    again by rank."""
    with reading(path):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            obj = json.loads(f.read())
        if not {int}.issuperset(map(type, obj.values())):
            _reject_first_bad_id(obj)
        by_id = dict(zip(obj.values(), obj))
        if len(by_id) != len(obj):
            _reject_first_bad_id(obj)
        if min(by_id, default=0) != 0 or max(by_id, default=-1) != len(by_id) - 1:
            raise ToolkitError("token ids are not dense 0..n-1")
        return Vocabulary([str_to_token(by_id[i]) for i in range(len(by_id))])


@st.composite
def json_vocab_files(draw):
    """A JSON object of token -> id whose ids run 0..n-1 in file order or
    shuffled, and in half of the objects some entries are given a gap, a
    repeated id, true or false."""
    tokens = draw(st.lists(_TOKEN_BYTES.filter(len), max_size=8, unique=True))
    ids: list = list(range(len(tokens)))
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(ids)
    keep = ["keep"] * (99 if draw(st.booleans()) else 3)
    for i in range(len(ids)):
        change = draw(st.sampled_from(keep + ["gap", "repeat", "true", "false"]))
        if change == "gap":
            ids[i] = len(ids) + draw(st.integers(0, 2))
        elif change == "repeat" and i:
            ids[i] = ids[draw(st.integers(0, i - 1))]
        elif change in ("true", "false"):
            ids[i] = change == "true"
    return json.dumps(dict(zip(map(token_to_str, tokens), ids)), ensure_ascii=True).encode()


class TestLoadVocabInOrderShortcut:
    """load_vocab takes a JSON object whose ids run 0..n-1 in file order
    as it stands; every other object still goes through the id dict."""

    @given(json_vocab_files())
    def test_matches_the_by_id_loader(self, data):
        got, expected = file_outcomes(load_vocab, by_id_load_vocab, data)
        assert got == expected

    @pytest.mark.parametrize(
        "ids,error",
        [
            ([0, 1, 2], None),
            ([0, 2, 1], None),
            ([0, 1, 3], "token ids are not dense 0..n-1"),
            ([0, 1, 1], "duplicate id 1"),
            ([0, True, 2], "id for 'b' is not an integer"),
            ([False, 1, 2], "id for 'a' is not an integer"),
        ],
    )
    def test_hand_cases(self, tmp_path, ids, error):
        path = str(tmp_path / "v.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(zip("abc", ids)), f)
        if error is None:
            assert load_vocab(path).tokens() == [b"abc"[i : i + 1] for i in sorted(range(3), key=ids.__getitem__)]
        else:
            with pytest.raises(ToolkitError, match="^" + re.escape(f"{path}: {error}") + "$"):
                load_vocab(path)


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

    def test_json_negative_id_rejected(self, tmp_path):
        # two distinct ids whose largest is n - 1, one of them below 0
        path = str(tmp_path / "vocab.json")
        with open(path, "w") as f:
            json.dump({"a": -1, "b": 1}, f)
        with pytest.raises(ToolkitError, match="token ids are not dense"):
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

    def test_json_boolean_ids_rejected(self, tmp_path):
        path = str(tmp_path / "vocab.json")
        with open(path, "w") as f:
            f.write('{"a": true, "b": false}')
        with pytest.raises(ToolkitError, match="'a' is not an integer"):
            load_vocab(path)

    def test_json_array_rejected(self, tmp_path):
        path = str(tmp_path / "vocab.json")
        with open(path, "w") as f:
            f.write('["a", "b"]\n')
        with pytest.raises(ToolkitError, match="vocabulary JSON must be an object"):
            load_vocab(path)

    def test_plaintext_opening_with_bracket_token(self, tmp_path):
        path = str(tmp_path / "vocab.txt")
        with open(path, "w") as f:
            f.write("[PAD]\n[UNK]\na\n")
        assert load_vocab(path).tokens() == [b"[PAD]", b"[UNK]", b"a"]

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

    @pytest.mark.parametrize(
        "text",
        [
            "[[1, 2]]",
            '[["a", null]]',
            '[["a", "b", "c"]]',
            '["ab"]',
            '[["a"]]',
            '[[true, "a"]]',
            '[{"a": "b"}]',
            '[["a", "b"], "cd"]',
        ],
    )
    def test_json_entry_must_be_two_strings(self, tmp_path, trained, text):
        vocab, _ = trained
        path = str(tmp_path / "merges.json")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ToolkitError, match=r"\[left, right\] pair of strings"):
            load_merges(path, vocab)

    def test_json_empty_list_is_no_rules(self, tmp_path, trained):
        vocab, _ = trained
        path = str(tmp_path / "merges.json")
        with open(path, "w") as f:
            f.write("[]\n")
        assert load_merges(path, vocab) == MergeRuleList([])

    def test_plaintext_opening_with_bracket(self, tmp_path):
        vocab = Vocabulary([b"[", b"a", b"b", b"c", b"[a", b"bc"])
        path = str(tmp_path / "merges.txt")
        with open(path, "w") as f:
            f.write("[ a\nb c\n")
        assert load_merges(path, vocab) == MergeRuleList([MergeRule(0, 1, 4), MergeRule(2, 3, 5)])

    def test_malformed_line_rejected(self, tmp_path, trained):
        vocab, _ = trained
        path = str(tmp_path / "merges.txt")
        with open(path, "w") as f:
            f.write("a b\nab ab c\n")
        with pytest.raises(ToolkitError, match=r"merges\.txt: line 2: expected 'left right'"):
            load_merges(path, vocab)

    def test_rule_list_indexing(self, trained):
        _, rules = trained
        assert rules[0] == MergeRule(0, 1, 2)
        assert len(rules) == 2
        assert list(rules)[1].new_id == 3

    def test_rule_list_slicing(self, trained):
        _, rules = trained
        assert rules[1:] == [MergeRule(2, 2, 3)]
        assert rules[-1] == MergeRule(2, 2, 3)

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            MergeRuleList.from_columns([0, 1], [1, 0], [2])


def oracle_rank_index(rules: MergeRuleList) -> tuple[dict[int, int], dict[int, list[int]]]:
    """MergeRuleList.rank_index one rule at a time: the first rank of each
    pair, and the later ranks of repeated pairs in ascending order."""
    first: dict[int, int] = {}
    later: dict[int, list[int]] = {}
    for rank, rule in enumerate(rules):
        key = rule.left_id << 32 | rule.right_id
        if key in first:
            later.setdefault(key, []).append(rank)
        else:
            first[key] = rank
    return first, later


@st.composite
def rule_lists(draw):
    """Rules over a few ids, drawn from a pool of at most four pairs so most
    pairs repeat at several ranks, in no order, with a new_id that is often
    one of the operands; ids may be as large as the 32-bit key allows."""
    ids = st.integers(0, 3) | st.sampled_from([2**31, 2**32 - 1])
    pool = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=4))
    rules = []
    for _ in range(draw(st.integers(0, 24))):
        left, right = draw(st.sampled_from(pool))
        new_id = draw(st.sampled_from([left, right]) if draw(st.booleans()) else ids)
        rules.append(MergeRule(left, right, new_id))
    return rules


# Tried in a scratch copy, each of these rank_index mutants fails
# test_rank_index_matches_oracle: the first dict filled in rank order, so
# that each pair keeps its highest rank, and the later dict left empty
# whenever some pair repeats.
class TestMergeRuleListColumns:
    @given(rule_lists())
    def test_rank_index_matches_oracle(self, rules):
        assert MergeRuleList(rules).rank_index() == oracle_rank_index(MergeRuleList(rules))

    @given(rule_lists())
    def test_rules_round_trip(self, rules):
        built = MergeRuleList(rules)
        assert list(built) == rules
        assert [built[i] for i in range(len(rules))] == rules
        assert len(built) == len(rules)
        assert built.new_ids == tuple(r.new_id for r in rules)
        columns = [[r.left_id for r in rules], [r.right_id for r in rules], [r.new_id for r in rules]]
        assert MergeRuleList.from_columns(*columns) == built

    def test_equality_is_by_ordered_rules(self):
        a = MergeRuleList([MergeRule(0, 1, 2), MergeRule(1, 0, 2)])
        assert a == MergeRuleList([MergeRule(0, 1, 2), MergeRule(1, 0, 2)])
        assert a != MergeRuleList([MergeRule(1, 0, 2), MergeRule(0, 1, 2)])
        assert a != MergeRuleList([MergeRule(0, 1, 2), MergeRule(1, 0, 3)])
        assert a != [MergeRule(0, 1, 2), MergeRule(1, 0, 2)]

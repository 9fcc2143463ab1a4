"""Token vocabularies and ordered merge-rule lists, with file round-trips.

Tokens are byte strings internally so that vocabularies taken from byte-level
tokenizers (which routinely contain invalid UTF-8) are representable. JSON
serialization bridges bytes to str with UTF-8 + surrogateescape, which is
lossless in both directions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import attrgetter, eq
from typing import Iterable

from .errors import ToolkitError, reading

__all__ = [
    "Vocabulary",
    "MergeRule",
    "MergeRuleList",
    "token_to_str",
    "str_to_token",
    "load_vocab",
    "save_vocab",
    "load_merges",
    "save_merges",
]


def token_to_str(token: bytes) -> str:
    return token.decode("utf-8", errors="surrogateescape")


def str_to_token(s: str) -> bytes:
    return s.encode("utf-8", errors="surrogateescape")


class Vocabulary:
    """Dense token <-> id bijection, built once. Ids are 0..n-1 in list order.

    Tokens must be distinct, nonempty bytes; a bad list raises for its first
    bad token. The token -> id dict is built on the first lookup (id_of, get,
    in, or load_merges), so a vocabulary that is only iterated, as compare's
    are, never pays for it; the tokens never change, so it cannot go stale."""

    def __init__(self, tokens: Iterable[bytes] = ()):
        self._tokens: list[bytes] = list(tokens)
        # bytes first: an unhashable item must not reach the set
        if not all(map(isinstance, self._tokens, repeat(bytes))):
            _reject_first_bad(self._tokens)
        distinct = set(self._tokens)
        if b"" in distinct or len(distinct) != len(self._tokens):
            _reject_first_bad(self._tokens)
        self._ids: dict[bytes, int] | None = None

    def _index(self) -> dict[bytes, int]:
        if self._ids is None:
            self._ids = dict(zip(self._tokens, range(len(self._tokens))))
        return self._ids

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: bytes) -> bool:
        return token in self._index()

    def __iter__(self):
        return iter(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def id_of(self, token: bytes) -> int:
        try:
            return self._index()[token]
        except KeyError:
            raise ToolkitError(f"token {token_to_str(token)!r} not in vocabulary") from None

    def get(self, token: bytes) -> int | None:
        return self._index().get(token)

    def token(self, tid: int) -> bytes:
        return self._tokens[tid]

    def tokens(self) -> list[bytes]:
        return list(self._tokens)


def _reject_first_bad(tokens: list[bytes]) -> None:
    """Raise for the first token that is not bytes, empty or a repeat."""
    seen: set[bytes] = set()
    for token in tokens:
        if not isinstance(token, bytes):
            raise TypeError(f"token must be bytes, got {type(token).__name__}")
        if token == b"":
            raise ToolkitError("empty tokens are not allowed")
        if token in seen:
            raise ToolkitError(f"duplicate token {token_to_str(token)!r}")
        seen.add(token)


@dataclass(frozen=True)
class MergeRule:
    left_id: int
    right_id: int
    new_id: int


class MergeRuleList:
    """Ordered merge rules, built once; position in the list is the rule's rank.

    The rules are held as three id columns (left, right, new), so a 50k-rule
    list costs three tuples of ints, not one object per rule. Indexing and
    iteration build MergeRule objects on request.
    """

    def __init__(self, rules: Iterable[MergeRule] = ()):
        rules = list(rules)
        self._left = tuple(map(attrgetter("left_id"), rules))
        self._right = tuple(map(attrgetter("right_id"), rules))
        self._new = tuple(map(attrgetter("new_id"), rules))
        self._ranks: tuple[dict[int, int], dict[int, list[int]]] | None = None

    @classmethod
    def from_columns(cls, left_ids: Iterable[int], right_ids: Iterable[int], new_ids: Iterable[int]) -> "MergeRuleList":
        """The list whose rule at rank i is MergeRule(left_ids[i], right_ids[i], new_ids[i])."""
        rules = cls()
        rules._left, rules._right, rules._new = tuple(left_ids), tuple(right_ids), tuple(new_ids)
        if not len(rules._left) == len(rules._right) == len(rules._new):
            raise ValueError("merge rule columns differ in length")
        return rules

    @property
    def new_ids(self) -> tuple[int, ...]:
        """The new_id of every rule, by rank."""
        return self._new

    def __len__(self) -> int:
        return len(self._new)

    def __iter__(self):
        return map(MergeRule, self._left, self._right, self._new)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(MergeRule, self._left[i], self._right[i], self._new[i]))
        return MergeRule(self._left[i], self._right[i], self._new[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MergeRuleList)
            and self._left == other._left
            and self._right == other._right
            and self._new == other._new
        )

    def rank_index(self) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Ranks by pair, keyed by (left_id << 32) | right_id (ids < 2**32).

        The first dict maps each pair to its lowest rank. The second holds,
        in ascending order, the later ranks of pairs listed more than once;
        it is empty for a list without duplicate pairs. Built on first use,
        so building and loading a list pay nothing for it; the list never
        changes, so the index cannot go stale.
        """
        if self._ranks is None:
            n = len(self._new)
            keys = [left << 32 | right for left, right in zip(self._left, self._right)]
            # Filled from the last rank down, so each pair keeps its lowest.
            first = dict(zip(reversed(keys), reversed(range(n))))
            later: dict[int, list[int]] = {}
            if len(first) < n:
                for rank, key in enumerate(keys):
                    if first[key] != rank:
                        later.setdefault(key, []).append(rank)
            self._ranks = (first, later)
        return self._ranks

    def as_pairs(self, vocab: Vocabulary) -> list[tuple[bytes, bytes]]:
        return list(zip(map(vocab.token, self._left), map(vocab.token, self._right)))


def save_vocab(vocab: Vocabulary, path: str) -> None:
    """Write a JSON object mapping token string to id."""
    obj = {token_to_str(t): i for i, t in enumerate(vocab)}
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as f:
        json.dump(obj, f, ensure_ascii=True, indent=0)
        f.write("\n")


# Lead bytes of the characters that str.lstrip() strips and bytes.lstrip()
# does not: U+001C..U+001F, then U+0085 and U+00A0 (0xC2), U+1680 (0xE1),
# U+2000..U+205F (0xE2) and U+3000 (0xE3).
_MAY_OPEN_JSON = frozenset(b"{[\x1c\x1d\x1e\x1f\xc2\xe1\xe2\xe3")
_VERSION_LINES = re.compile(rb"\n#version[^\n]*")


def _read(path: str) -> tuple[bytes, str, str]:
    """The bytes of a tokenizer file, with "\r\n" and a lone "\r" read as
    "\n" as text mode reads them, then the first character that
    str.lstrip() leaves of its text and the text itself when that character
    is "{" or "[" (else "" and "").

    The text is decoded only when the first byte that bytes.lstrip() leaves
    is "{", "[" or the lead byte of a character that str.lstrip() also
    strips; no other file can open with "{" or "[" once str.lstrip() is done.
    """
    with open(path, "rb") as f:
        data = f.read()
    if b"\r" in data:  # one memchr; the search for "\r\n" is a slower pass
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head = data.lstrip()[:1]
    if head and head[0] in _MAY_OPEN_JSON:
        text = token_to_str(data)
        opener = text.lstrip()[:1]
        if opener in ("{", "["):
            return data, opener, text
    return data, "", ""


def load_vocab(path: str) -> Vocabulary:
    """Read a vocabulary from JSON (token -> id) or plaintext (one token per line).

    JSON ids must be dense 0..n-1; plaintext lines are assigned ids in file
    order and empty lines are skipped. A file opening with "[" is plaintext
    unless it parses as JSON (a BERT-style vocab.txt opens with "[PAD]").
    Plaintext is split as bytes; only a file that may be JSON is decoded.
    """
    with reading(path):
        data, opener, text = _read(path)
        obj = None
        if opener == "{":
            obj = json.loads(text)
        elif opener == "[":
            try:
                obj = json.loads(text)
            except ValueError:
                pass
        if obj is None:
            return Vocabulary(filter(None, data.split(b"\n")))
        if not isinstance(obj, dict):
            raise ToolkitError("vocabulary JSON must be an object")
        if not {int}.issuperset(map(type, obj.values())):  # JSON true and false are bools
            _reject_first_bad_id(obj)
        if all(map(eq, obj.values(), range(len(obj)))):
            strs = iter(obj)  # ids 0..n-1 in file order, as saved files list them
        else:
            by_id = dict(zip(obj.values(), obj))
            if len(by_id) != len(obj):
                _reject_first_bad_id(obj)
            if min(by_id, default=0) != 0 or max(by_id, default=-1) != len(by_id) - 1:
                raise ToolkitError("token ids are not dense 0..n-1")
            strs = map(by_id.__getitem__, range(len(by_id)))
        return Vocabulary(list(map(str.encode, strs, repeat("utf-8"), repeat("surrogateescape"))))


def _reject_first_bad_id(obj: dict) -> None:
    """Raise for the first entry whose id is not an integer or a repeat."""
    seen: set[int] = set()
    for tok_s, tid in obj.items():
        if type(tid) is not int:
            raise ToolkitError(f"id for {tok_s!r} is not an integer")
        if tid in seen:
            raise ToolkitError(f"duplicate id {tid}")
        seen.add(tid)


def save_merges(rules: MergeRuleList, vocab: Vocabulary, path: str) -> None:
    """Write merges as a JSON array of [left, right] token-string pairs."""
    pairs = [[token_to_str(l), token_to_str(r)] for l, r in rules.as_pairs(vocab)]
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as f:
        json.dump(pairs, f, ensure_ascii=True, indent=0)
        f.write("\n")


def _rule_lines(data: bytes) -> bytes:
    """The rule lines of a plaintext merges file, joined by "\n": the lines
    that hold exactly one space and do not start with "#version". Any other
    line must be empty or start with "#"."""
    lines = data.split(b"\n")
    if not lines[-1]:
        del lines[-1]  # the empty text after a final line end
    spaces = list(map(bytes.count, lines, repeat(b" ")))
    if spaces.count(1) < len(lines):
        for lineno, (ln, n) in enumerate(zip(lines, spaces), 1):
            if n != 1 and ln and not ln.startswith(b"#"):
                raise ToolkitError(f"line {lineno}: expected 'left right'")
        lines = list(compress(lines, map((1).__eq__, spaces)))
    # Each line rejoined after a "\n", one search cuts the "#version" lines.
    return _VERSION_LINES.sub(b"", b"\n".join([b"", *lines]))[1:]


def load_merges(path: str, vocab: Vocabulary) -> MergeRuleList:
    """Read merges from JSON ([[left, right], ...]) or plaintext ("left right" lines).

    Plaintext follows the common merges.txt convention: one space-separated
    pair per line. Every line that starts with "#version" is skipped; any
    other line starting with "#" is a comment unless it splits into exactly
    two tokens, because "# #" and "#x y" are real merges in byte-level
    vocabularies. A file opening with "[" is plaintext unless it parses as
    JSON ("[ a" is a merge of "[" and "a"). Every referenced token,
    including each merged concatenation, must exist in vocab.
    """
    # The id dict is built before the file's temporaries, so that they are
    # freed from above it: built after them, it left the seed-1 benchmark
    # augment's peak RSS about 1 MB higher.
    get = vocab._index().get
    with reading(path):
        data, opener, text = _read(path)
        arr = None
        if opener == "[":
            try:
                arr = json.loads(text)
            except ValueError:
                pass
        if arr == []:
            lefts = rights = merged = []  # zip(*[]) has no columns to unpack
        elif arr is not None:
            if not (
                {list}.issuperset(map(type, arr))
                and {2}.issuperset(map(len, arr))
                and {str}.issuperset(map(type, chain.from_iterable(arr)))
            ):
                raise ToolkitError("each merge must be a [left, right] pair of strings")
            lefts, rights = zip(*arr)
            utf8 = repeat("utf-8"), repeat("surrogateescape")
            lefts = list(map(str.encode, lefts, *utf8))
            rights = list(map(str.encode, rights, *utf8))
            merged = list(map(bytes.__add__, lefts, rights))
        else:
            # Every rule line holds exactly one space, so deleting the
            # spaces gives each rule's merged token.
            rules = _rule_lines(data)
            words = rules.replace(b"\n", b" ").split(b" ") if rules else []
            lefts, rights = words[0::2], words[1::2]
            merged = rules.replace(b" ", b"").split(b"\n") if rules else []
        lids, rids, nids = list(map(get, lefts)), list(map(get, rights)), list(map(get, merged))
        if None in lids or None in rids or None in nids:
            i = min(ids.index(None) for ids in (lids, rids, nids) if None in ids)
            missing = lefts[i] if lids[i] is None else rights[i] if rids[i] is None else merged[i]
            raise ToolkitError(f"merge references unknown token {token_to_str(missing)!r}")
    return MergeRuleList.from_columns(lids, rids, nids)

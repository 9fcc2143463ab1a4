"""Token vocabularies and ordered merge-rule lists, with file round-trips.

Tokens are byte strings internally so that vocabularies taken from byte-level
tokenizers (which routinely contain invalid UTF-8) are representable. JSON
serialization bridges bytes to str with UTF-8 + surrogateescape, which is
lossless in both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ToolkitError

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
    """Dense token <-> id bijection. Ids are 0..n-1 in insertion order."""

    def __init__(self, tokens: list[bytes] | None = None):
        self._tokens: list[bytes] = []
        self._ids: dict[bytes, int] = {}
        for t in tokens or []:
            self.add(t)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: bytes) -> bool:
        return token in self._ids

    def __iter__(self):
        return iter(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def add(self, token: bytes) -> int:
        """Append a new token; duplicate or empty tokens are errors."""
        if not isinstance(token, bytes):
            raise TypeError(f"token must be bytes, got {type(token).__name__}")
        if token == b"":
            raise ToolkitError("empty tokens are not allowed")
        if token in self._ids:
            raise ToolkitError(f"duplicate token {token_to_str(token)!r}")
        tid = len(self._tokens)
        self._tokens.append(token)
        self._ids[token] = tid
        return tid

    def get_or_add(self, token: bytes) -> int:
        """Like add, but reuses the id when the token already exists."""
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        return self.add(token)

    def id_of(self, token: bytes) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ToolkitError(f"token {token_to_str(token)!r} not in vocabulary") from None

    def get(self, token: bytes) -> int | None:
        return self._ids.get(token)

    def token(self, tid: int) -> bytes:
        return self._tokens[tid]

    def tokens(self) -> list[bytes]:
        return list(self._tokens)

    def token_set(self) -> frozenset[bytes]:
        return frozenset(self._ids)


@dataclass(frozen=True)
class MergeRule:
    left_id: int
    right_id: int
    new_id: int


class MergeRuleList:
    """Ordered merge rules; position in the list is the rule's rank."""

    def __init__(self, rules: list[MergeRule] | None = None):
        self._rules: list[MergeRule] = list(rules or [])

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __getitem__(self, i: int) -> MergeRule:
        return self._rules[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, MergeRuleList) and self._rules == other._rules

    def append(self, rule: MergeRule) -> None:
        self._rules.append(rule)

    def as_pairs(self, vocab: Vocabulary) -> list[tuple[bytes, bytes]]:
        return [(vocab.token(r.left_id), vocab.token(r.right_id)) for r in self._rules]


def save_vocab(vocab: Vocabulary, path: str) -> None:
    """Write a JSON object mapping token string to id."""
    obj = {token_to_str(t): i for i, t in enumerate(vocab)}
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as f:
        json.dump(obj, f, ensure_ascii=True, indent=0)
        f.write("\n")


def load_vocab(path: str) -> Vocabulary:
    """Read a vocabulary from JSON (token -> id) or plaintext (one token per line).

    JSON ids must be dense 0..n-1; plaintext lines are assigned ids in file
    order and empty lines are skipped.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        content = f.read()
    stripped = content.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(content)
        if not isinstance(obj, dict):
            raise ToolkitError(f"{path}: vocabulary JSON must be an object")
        by_id: dict[int, bytes] = {}
        for tok_s, tid in obj.items():
            if not isinstance(tid, int):
                raise ToolkitError(f"{path}: id for {tok_s!r} is not an integer")
            if tid in by_id:
                raise ToolkitError(f"{path}: duplicate id {tid}")
            by_id[tid] = str_to_token(tok_s)
        if sorted(by_id) != list(range(len(by_id))):
            raise ToolkitError(f"{path}: token ids are not dense 0..n-1")
        return Vocabulary([by_id[i] for i in range(len(by_id))])
    lines = content.split("\n")
    return Vocabulary([str_to_token(ln) for ln in lines if ln != ""])


def save_merges(rules: MergeRuleList, vocab: Vocabulary, path: str) -> None:
    """Write merges as a JSON array of [left, right] token-string pairs."""
    pairs = [[token_to_str(l), token_to_str(r)] for l, r in rules.as_pairs(vocab)]
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as f:
        json.dump(pairs, f, ensure_ascii=True, indent=0)
        f.write("\n")


def load_merges(path: str, vocab: Vocabulary) -> MergeRuleList:
    """Read merges from JSON ([[left, right], ...]) or plaintext ("left right" lines).

    Plaintext follows the common merges.txt convention: one space-separated
    pair per line. A "#version" header line is skipped; any other line
    starting with "#" is a comment unless it splits into exactly two tokens,
    because "# #" and "#x y" are real merges in byte-level vocabularies.
    Every referenced token, including each merged concatenation, must exist
    in vocab.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        content = f.read()
    stripped = content.lstrip()
    pairs: list[tuple[str, str]] = []
    if stripped.startswith("["):
        arr = json.loads(content)
        if not isinstance(arr, list):
            raise ToolkitError(f"{path}: merges JSON must be an array")
        for entry in arr:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ToolkitError(f"{path}: each merge must be a [left, right] pair")
            pairs.append((entry[0], entry[1]))
    else:
        for lineno, ln in enumerate(content.split("\n"), 1):
            if ln == "" or ln.startswith("#version"):
                continue
            parts = ln.split(" ")
            if ln.startswith("#") and len(parts) != 2:
                continue
            if len(parts) != 2:
                raise ToolkitError(f"{path}:{lineno}: expected 'left right'")
            pairs.append((parts[0], parts[1]))
    rules = MergeRuleList()
    for left_s, right_s in pairs:
        left = str_to_token(left_s)
        right = str_to_token(right_s)
        merged = left + right
        lid = vocab.get(left)
        rid = vocab.get(right)
        nid = vocab.get(merged)
        if lid is None or rid is None or nid is None:
            missing = token_to_str(left if lid is None else right if rid is None else merged)
            raise ToolkitError(f"{path}: merge references unknown token {missing!r}")
        rules.append(MergeRule(lid, rid, nid))
    return rules

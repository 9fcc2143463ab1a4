"""Corpus loading and character-level Unicode utilities.

Corpora are plain text, one document per line, UTF-8 only. There is no
whitespace pre-tokenization anywhere in this package: spaces, underscores and
other separator-looking characters are ordinary characters.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ._blocks import _NAMES, _STARTS, UNICODE_VERSION
from .errors import CorpusDecodeError, LineCountMismatchError

__all__ = [
    "UNICODE_VERSION",
    "Corpus",
    "ParallelCorpus",
    "load_corpus",
    "load_parallel_corpus",
    "unicode_block",
    "char_byte_len",
    "recover_utf8_chars",
]


@dataclass
class Corpus:
    """An ordered collection of text documents."""

    documents: tuple[str, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


@dataclass
class ParallelCorpus:
    """Sentence-aligned (english, target) pairs for one target language."""

    pairs: tuple[tuple[str, str], ...]
    target_lang: str
    target_script: str = ""
    n_skipped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _decode_lines(path: str) -> list[str]:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusDecodeError(path, exc.start, exc.reason) from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [ln[:-1] if ln.endswith("\r") else ln for ln in lines]


def load_corpus(path: str, fmt: str = "plain-lines") -> Corpus:
    """Read one document per line; empty lines are dropped, order is kept."""
    if fmt != "plain-lines":
        raise ValueError(f"unknown corpus format {fmt!r}")
    docs = tuple(ln for ln in _decode_lines(path) if ln != "")
    return Corpus(documents=docs, source=path)


def load_parallel_corpus(
    english_path: str,
    target_path: str,
    target_lang: str,
    target_script: str = "",
) -> ParallelCorpus:
    """Zip two line-aligned files into sentence pairs.

    The files must have the same line count. Pairs whose English side is empty
    are skipped and counted in n_skipped; an empty target side is kept (it is
    the premium computation's job to decide what to do with it).
    """
    eng = _decode_lines(english_path)
    tgt = _decode_lines(target_path)
    if len(eng) != len(tgt):
        raise LineCountMismatchError(english_path, target_path, len(eng), len(tgt))
    pairs = []
    skipped = 0
    for e, t in zip(eng, tgt):
        if e == "":
            skipped += 1
            continue
        pairs.append((e, t))
    return ParallelCorpus(
        pairs=tuple(pairs),
        target_lang=target_lang,
        target_script=target_script,
        n_skipped=skipped,
    )


def unicode_block(char: str) -> str:
    """Name of the Unicode block containing char ("No_Block" for unassigned gaps)."""
    if len(char) != 1:
        raise ValueError("unicode_block expects a single character")
    return _NAMES[bisect.bisect_right(_STARTS, ord(char)) - 1]


def char_byte_len(char: str) -> int:
    """UTF-8 encoded length of one character, 1 through 4."""
    if len(char) != 1:
        raise ValueError("char_byte_len expects a single character")
    return len(char.encode("utf-8"))


def recover_utf8_chars(data: bytes) -> set[str]:
    """Characters of the longest valid UTF-8 substring of a byte string.

    At most 3 bytes may be trimmed from each end and at least 2 bytes must
    remain; if no qualifying substring decodes, the result is empty. Ties on
    length prefer the smallest front trim, then the smallest back trim.
    """
    n = len(data)
    for length in range(n, 1, -1):
        if length < n - 6:
            break
        for front in range(0, min(3, n - length) + 1):
            back = n - length - front
            if back > 3:
                continue
            piece = data[front : front + length]
            try:
                decoded = piece.decode("utf-8")
            except UnicodeDecodeError:
                continue
            return set(decoded)
    return set()

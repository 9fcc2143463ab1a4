"""Corpus loading, table writing and character-level Unicode utilities.

Corpora are plain text, one document per line, UTF-8 only. There is no
whitespace pre-tokenization anywhere in this package: spaces, underscores and
other separator-looking characters are ordinary characters. A single corpus
drops its empty lines and must hold a nonempty one; a parallel corpus keeps
every line pair, and premium decides which pairs count.

Every table the toolkit writes (overlap matrix, composition breakdown,
premium matrix, similarity table) goes through write_table, so the manifest
line and the CSV dialect are decided here once.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._blocks import _NAMES, _STARTS, UNICODE_VERSION
from .errors import ToolkitError, reading

__all__ = [
    "UNICODE_VERSION",
    "ParallelCorpus",
    "load_corpus",
    "load_parallel_corpus",
    "write_table",
    "unicode_block",
    "char_byte_len",
    "recover_utf8_chars",
]


@dataclass
class ParallelCorpus:
    """Sentence-aligned (english, target) pairs for one target language."""

    pairs: tuple[tuple[str, str], ...]
    target_lang: str
    target_script: str = ""


def _decode_lines(path: str) -> list[str]:
    with reading(path), open(path, "rb") as f:
        try:
            text = f.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ToolkitError(f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [ln[:-1] if ln.endswith("\r") else ln for ln in lines]


def load_corpus(path: str) -> tuple[str, ...]:
    """Read one document per line; empty lines are dropped, order is kept,
    and at least one nonempty line must be left."""
    corpus = tuple(ln for ln in _decode_lines(path) if ln != "")
    if not corpus:
        with reading(path):
            raise ToolkitError("corpus is empty")
    return corpus


def load_parallel_corpus(
    english_path: str,
    target_path: str,
    target_lang: str,
    target_script: str = "",
) -> ParallelCorpus:
    """Zip two line-aligned files into sentence pairs, one per line in file
    order, empty sides included.

    The files must have the same line count. Every pair is kept: which pairs
    count is premium's decision.
    """
    eng = _decode_lines(english_path)
    tgt = _decode_lines(target_path)
    if len(eng) != len(tgt):
        raise ToolkitError(
            f"parallel line counts differ: {english_path} has {len(eng)}, {target_path} has {len(tgt)}"
        )
    return ParallelCorpus(pairs=tuple(zip(eng, tgt)), target_lang=target_lang, target_script=target_script)


def write_table(path: str, rows: Iterable[Sequence], manifest_digest: str = "", delimiter: str = ",") -> None:
    """Write rows as CSV with "\\n" line ends, after a "# manifest: DIGEST"
    comment line when a digest is given."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        if manifest_digest:
            f.write(f"# manifest: {manifest_digest}\n")
        csv.writer(f, delimiter=delimiter, lineterminator="\n").writerows(rows)


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

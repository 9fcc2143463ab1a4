"""Tokenization premium: how many more tokens a language costs than English.

The premium of a (tokenizer, language) pair over a sentence-aligned parallel
corpus is the arithmetic mean of per-sentence token-count ratios
|encode(target)| / |encode(english)|. A language paired with itself therefore
scores exactly 1.0. None of the encoders here add special tokens, so counts
are over content tokens only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .errors import OovCharacterError, ToolkitError
from .parallel import ordered_map
from .text import ParallelCorpus, write_table
from .training import bpe_encode, ulm_viterbi_segment, UnigramVocab
from .vocab import MergeRuleList, Vocabulary

__all__ = [
    "TokenizerHandle",
    "bpe_tokenizer",
    "ulm_tokenizer",
    "premium",
    "premium_matrix",
    "PremiumReport",
    "PremiumMatrix",
    "write_premium_csv",
    "write_premium_json",
]


@dataclass
class TokenizerHandle:
    """A named encode function: text in, token ids out.

    encode returns ids or raises OovCharacterError(char, offset), the one way
    an encode fails: premium counts such a pair as unencodable and augment's
    character scan skips such a character. Any other exception propagates.
    encode must be a pure function of its text: the same text always gives
    the same ids or the same error. premium relies on this to encode each
    distinct line once per run."""

    name: str
    encode: Callable[[str], list[int]]


# Byte alias table: every byte gets a printable single-character stand-in
# (identity for printable latin-1 ranges, remapped for the rest). Byte-level
# BPE vocabularies are written in this alphabet, so encoding real text with
# them means aliasing its UTF-8 bytes first.
def _byte_aliases() -> dict[int, str]:
    keep = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(0xA1, 0xAC + 1))
        + list(range(0xAE, 0xFF + 1))
    )
    table = {}
    bumped = 0
    for b in range(256):
        if b in keep:
            table[b] = chr(b)
        else:
            table[b] = chr(256 + bumped)
            bumped += 1
    return table


_BYTE_ALIASES = _byte_aliases()


def bpe_tokenizer(
    name: str, vocab: Vocabulary, rules: MergeRuleList, byte_input: bool = False
) -> TokenizerHandle:
    """Merge-replay tokenizer. With byte_input, text is first transcribed
    byte by byte into the alias alphabet byte-level vocabularies use; an
    OovCharacterError then names the character of text that holds the
    missing byte, and its offset in text."""

    if byte_input:

        def encode(text: str) -> list[int]:
            # Decoding as latin-1 turns byte b into the character of code
            # point b, so the alias table serves as a str.translate table.
            aliased = text.encode("utf-8").decode("latin-1").translate(_BYTE_ALIASES)
            try:
                return bpe_encode(aliased, vocab, rules)
            except OovCharacterError as exc:
                prefix = text.encode("utf-8")[: exc.offset]
                offset = len(prefix.decode("utf-8", errors="ignore"))
                raise OovCharacterError(text[offset], offset) from None

    else:

        def encode(text: str) -> list[int]:
            return bpe_encode(text, vocab, rules)

    return TokenizerHandle(name=name, encode=encode)


def ulm_tokenizer(name: str, vocab: UnigramVocab) -> TokenizerHandle:
    def encode(text: str) -> list[int]:
        return [vocab.id_of(t) for t in ulm_viterbi_segment(text, vocab)]

    return TokenizerHandle(name=name, encode=encode)


@dataclass
class PremiumReport:
    """One cell. Of the n_skipped pairs, n_unencodable held a character the
    tokenizer cannot encode on some side; the rest had a side that encodes
    to zero tokens, as an empty line does."""

    target_lang: str
    target_script: str
    tokenizer: str
    mean_ratio: float
    totals_ratio: float
    n_pairs: int
    n_skipped: int
    ratios: list[float] = field(default_factory=list)
    n_unencodable: int = 0

    def value(self, aggregate: str = "ratios") -> float:
        return self.mean_ratio if aggregate == "ratios" else self.totals_ratio


def _token_lengths(tok: TokenizerHandle, texts: list[str]) -> dict[str, int | None]:
    """Token count of each distinct text, encoded once in first-seen order;
    None where the tokenizer cannot encode it."""

    def length(text: str) -> int | None:
        try:
            return len(tok.encode(text))
        except OovCharacterError:
            return None

    distinct = list(dict.fromkeys(texts))
    return dict(zip(distinct, ordered_map(length, distinct)))


def premium(
    tok: TokenizerHandle,
    pc: ParallelCorpus,
    lengths: dict[str, int | None] | None = None,
) -> PremiumReport:
    """Mean per-sentence ratio over a parallel corpus.

    This is the one place that decides which pairs count. A pair is skipped
    and counted in n_skipped when either side holds a character the tokenizer
    cannot represent, or encodes to zero tokens, as an empty line does; so
    n_pairs + n_skipped is the number of pairs in pc. All pairs skipped is an
    error: the corpus says nothing about this tokenizer.

    Each distinct line is encoded once. lengths, tok's token count of every
    line of pc (None where it cannot encode one), lets premium_matrix share
    one table across the corpora; without it premium builds its own.
    """
    if lengths is None:
        lengths = _token_lengths(tok, [text for pair in pc.pairs for text in pair])
    ratios = []
    tgt_total = 0
    eng_total = 0
    skipped = 0
    unencodable = 0
    for eng, tgt in pc.pairs:
        n_eng = lengths[eng]
        n_tgt = lengths[tgt]
        if not n_eng or not n_tgt:
            skipped += 1
            if n_eng is None or n_tgt is None:
                unencodable += 1
            continue
        ratios.append(n_tgt / n_eng)
        tgt_total += n_tgt
        eng_total += n_eng
    if not ratios:
        raise ToolkitError(
            f"all {len(pc.pairs)} pairs were skipped for tokenizer {tok.name!r} "
            f"({unencodable} unencodable, {skipped - unencodable} empty)"
        )
    return PremiumReport(
        target_lang=pc.target_lang,
        target_script=pc.target_script,
        tokenizer=tok.name,
        mean_ratio=sum(ratios) / len(ratios),
        totals_ratio=tgt_total / eng_total,
        n_pairs=len(ratios),
        n_skipped=skipped,
        ratios=ratios,
        n_unencodable=unencodable,
    )


@dataclass
class PremiumMatrix:
    """Languages down the rows (input order), tokenizers across the columns.
    A cell is None when every pair was skipped for that combination; na
    holds the reason, keyed by (row, column)."""

    languages: list[tuple[str, str]]
    tokenizers: list[str]
    cells: list[list[PremiumReport | None]]
    aggregate: str = "ratios"
    na: dict[tuple[int, int], str] = field(default_factory=dict)


def premium_matrix(
    tokenizers: list[TokenizerHandle],
    corpora: list[ParallelCorpus],
    aggregate: str = "ratios",
) -> PremiumMatrix:
    """premium for every (corpus, tokenizer) cell. Each tokenizer encodes
    each distinct line of all the corpora once, so an English file shared by
    several languages, or a language paired with itself, costs one encode
    per line."""
    if not tokenizers:
        raise ToolkitError("no tokenizers given")
    if not corpora:
        raise ToolkitError("no parallel corpora given")
    if aggregate not in ("ratios", "totals"):
        raise ToolkitError(f"unknown aggregate {aggregate!r}")
    texts = [text for pc in corpora for pair in pc.pairs for text in pair]
    tables = [_token_lengths(tok, texts) for tok in tokenizers]
    cells: list[list[PremiumReport | None]] = []
    na: dict[tuple[int, int], str] = {}
    for i, pc in enumerate(corpora):
        row: list[PremiumReport | None] = []
        for j, (tok, lengths) in enumerate(zip(tokenizers, tables)):
            try:
                row.append(premium(tok, pc, lengths))
            except ToolkitError as exc:
                row.append(None)
                na[i, j] = str(exc)
        cells.append(row)
    return PremiumMatrix(
        languages=[(pc.target_lang, pc.target_script) for pc in corpora],
        tokenizers=[t.name for t in tokenizers],
        cells=cells,
        aggregate=aggregate,
        na=na,
    )


def write_premium_csv(matrix: PremiumMatrix, path: str, manifest_digest: str = "") -> None:
    """Two-decimal display table; unusable cells print NA."""
    rows = [
        [lang, script]
        + ["NA" if rep is None else f"{rep.value(matrix.aggregate):.2f}" for rep in row]
        for (lang, script), row in zip(matrix.languages, matrix.cells)
    ]
    write_table(path, [["language", "script"] + matrix.tokenizers] + rows, manifest_digest)


def write_premium_json(
    matrix: PremiumMatrix, path: str, manifest: dict | None = None, verbose: bool = False
) -> None:
    """Full-precision report; per-sentence ratios included only when verbose."""
    rows = []
    for (lang, script), row in zip(matrix.languages, matrix.cells):
        cells = {}
        for rep in row:
            if rep is None:
                continue
            entry = {
                "mean_ratio": rep.mean_ratio,
                "totals_ratio": rep.totals_ratio,
                "n_pairs": rep.n_pairs,
                "n_skipped": rep.n_skipped,
            }
            if verbose:
                entry["ratios"] = rep.ratios
            cells[rep.tokenizer] = entry
        for name in matrix.tokenizers:
            cells.setdefault(name, None)
        rows.append({"language": lang, "script": script, "cells": cells})
    doc: dict = {"aggregate": matrix.aggregate, "tokenizers": matrix.tokenizers, "rows": rows}
    if manifest is not None:
        doc["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

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

from .errors import OovCharacterError, ToolkitError, UnsegmentableError
from .parallel import ordered_map
from .text import ParallelCorpus
from .training import bpe_encode, ulm_viterbi_segment, UnigramVocab
from .vocab import MergeRuleList, Vocabulary

__all__ = [
    "TokenizerHandle",
    "bpe_tokenizer",
    "ulm_tokenizer",
    "sentence_ratio",
    "premium",
    "premium_matrix",
    "PremiumReport",
    "PremiumMatrix",
    "write_premium_csv",
    "write_premium_json",
]


@dataclass
class TokenizerHandle:
    """A named encode function: text in, token ids out."""

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
    byte by byte into the alias alphabet byte-level vocabularies use."""

    if byte_input:

        def encode(text: str) -> list[int]:
            aliased = "".join(_BYTE_ALIASES[b] for b in text.encode("utf-8"))
            return bpe_encode(aliased, vocab, rules)

    else:

        def encode(text: str) -> list[int]:
            return bpe_encode(text, vocab, rules)

    return TokenizerHandle(name=name, encode=encode)


def ulm_tokenizer(name: str, vocab: UnigramVocab) -> TokenizerHandle:
    def encode(text: str) -> list[int]:
        return [vocab.id_of(t) for t in ulm_viterbi_segment(text, vocab)]

    return TokenizerHandle(name=name, encode=encode)


def sentence_ratio(tok: TokenizerHandle, target: str, english: str) -> float:
    """Token-count ratio of one sentence pair."""
    n_eng = len(tok.encode(english))
    if n_eng == 0:
        raise ToolkitError("english sentence encodes to zero tokens")
    return len(tok.encode(target)) / n_eng


@dataclass
class PremiumReport:
    target_lang: str
    target_script: str
    tokenizer: str
    mean_ratio: float
    totals_ratio: float
    n_pairs: int
    n_skipped: int
    ratios: list[float] = field(default_factory=list)

    def value(self, aggregate: str = "ratios") -> float:
        return self.mean_ratio if aggregate == "ratios" else self.totals_ratio


def premium(tok: TokenizerHandle, pc: ParallelCorpus) -> PremiumReport:
    """Mean per-sentence ratio over a parallel corpus.

    Pairs are skipped (and counted) when either side encodes to zero tokens
    or contains characters the tokenizer cannot represent. All pairs skipped
    is an error: the corpus says nothing about this tokenizer.
    """

    def counts(pair: tuple[str, str]) -> tuple[int, int] | None:
        eng, tgt = pair
        try:
            n_eng = len(tok.encode(eng))
            n_tgt = len(tok.encode(tgt))
        except (OovCharacterError, UnsegmentableError):
            return None
        if n_eng == 0 or n_tgt == 0:
            return None
        return n_tgt, n_eng

    results = ordered_map(counts, pc.pairs)
    ratios = []
    tgt_total = 0
    eng_total = 0
    skipped = 0
    for r in results:
        if r is None:
            skipped += 1
            continue
        n_tgt, n_eng = r
        ratios.append(n_tgt / n_eng)
        tgt_total += n_tgt
        eng_total += n_eng
    if not ratios:
        raise ToolkitError(
            f"all {len(pc.pairs)} pairs were skipped for tokenizer {tok.name!r}"
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
    )


@dataclass
class PremiumMatrix:
    """Languages down the rows (input order), tokenizers across the columns.
    A cell is None when every pair was skipped for that combination."""

    languages: list[tuple[str, str]]
    tokenizers: list[str]
    cells: list[list[PremiumReport | None]]
    aggregate: str = "ratios"


def premium_matrix(
    tokenizers: list[TokenizerHandle],
    corpora: list[ParallelCorpus],
    aggregate: str = "ratios",
) -> PremiumMatrix:
    if not tokenizers:
        raise ToolkitError("no tokenizers given")
    if not corpora:
        raise ToolkitError("no parallel corpora given")
    if aggregate not in ("ratios", "totals"):
        raise ToolkitError(f"unknown aggregate {aggregate!r}")
    cells: list[list[PremiumReport | None]] = []
    for pc in corpora:
        row: list[PremiumReport | None] = []
        for tok in tokenizers:
            try:
                row.append(premium(tok, pc))
            except ToolkitError:
                row.append(None)
        cells.append(row)
    return PremiumMatrix(
        languages=[(pc.target_lang, pc.target_script) for pc in corpora],
        tokenizers=[t.name for t in tokenizers],
        cells=cells,
        aggregate=aggregate,
    )


def write_premium_csv(matrix: PremiumMatrix, path: str, manifest_digest: str = "") -> None:
    """Two-decimal display table; unusable cells print NA."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as f:
        if manifest_digest:
            f.write(f"# manifest: {manifest_digest}\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["language", "script"] + matrix.tokenizers)
        for (lang, script), row in zip(matrix.languages, matrix.cells):
            cells = [
                "NA" if rep is None else f"{rep.value(matrix.aggregate):.2f}"
                for rep in row
            ]
            w.writerow([lang, script] + cells)


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

"""Seeded input generator for the two benchmark workloads.

Everything the CLI reads is written here from ``random.Random(seed)`` and
``numpy.random.default_rng(seed)`` alone, so the same seed and size give
byte-identical files. The generator writes the file formats directly and
imports nothing from tokenlens: the inputs must not change when the
program under test does.

Shapes:

* ``frozen-bytebpe``: a GPT-2-class byte-level tokenizer in the byte-alias
  alphabet (256 byte tokens plus ``merges`` rules). Nearly every rule is a
  step of a ``Ġ``-prefixed word-prefix chain over a Zipf lexicon of ASCII
  pseudo-words; only 20 rules are Indic, so all but 16 Devanagari and
  Bengali characters stay 2 tokens. Aligned eng/hin/ben sentences, an eng-eng
  control, three derivative vocabularies for ``compare`` and a V0 matrix
  with one row per token.
* ``train-fresh``: a mixed eng/hin/ben training corpus, a smaller ULM slice
  of short documents that covers every character of the premium texts,
  aligned sentences and a V0 matrix sized to the trained BPE vocabulary.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import numpy as np

# Sizes per workload. "full" is what the benchmark measures; "smoke" keeps
# the benchmark's own tests fast. In "full", the subcommands a workload is
# about run for seconds, so interpreter start-up does not dominate them; the
# others stay small. Text lengths never depend on the seed.
SIZES = {
    "frozen-bytebpe": {
        "full": {
            "merges": 50_000,
            "multi_vocab": 250_000,
            "premium_pairs": 2,
            "control_pairs": 1,
            "augment_chars": 12,
            "eval_lines": 2,
            "eval_words": 10,
            "corpus_bytes": 8_000,
            "ulm_bytes": 2_500,
            "train_merges": 200,
            "ulm_seed_extra": 25,
            "ulm_prune_steps": 8,
            "dim": 64,
        },
        "smoke": {
            "merges": 2_000,
            "multi_vocab": 5_000,
            "premium_pairs": 2,
            "control_pairs": 1,
            "augment_chars": 9,
            "eval_lines": 1,
            "eval_words": 8,
            "corpus_bytes": 1_500,
            "ulm_bytes": 600,
            "train_merges": 10,
            "ulm_seed_extra": 8,
            "ulm_prune_steps": 3,
            "dim": 16,
        },
    },
    "train-fresh": {
        "full": {
            "corpus_bytes": 25_000,
            "ulm_bytes": 6_000,
            "premium_pairs": 200,
            "control_pairs": 20,
            "eval_lines": 120,
            "train_merges": 300,
            "ulm_seed_extra": 50,
            "ulm_prune_steps": 25,
            "dim": 32,
        },
        "smoke": {
            "corpus_bytes": 4_000,
            "ulm_bytes": 1_200,
            "premium_pairs": 20,
            "control_pairs": 4,
            "eval_lines": 4,
            "train_merges": 30,
            "ulm_seed_extra": 12,
            "ulm_prune_steps": 4,
            "dim": 16,
        },
    },
}

ENCODER_DEPTH = {"frozen-bytebpe": 4, "train-fresh": 2}

# ---------------------------------------------------------------------------
# byte-alias alphabet (the GPT-2 convention byte-level vocabularies use)


def byte_aliases() -> list[str]:
    keep = set(range(ord("!"), ord("~") + 1)) | set(range(0xA1, 0xAD)) | set(range(0xAE, 0x100))
    out = []
    bumped = 0
    for b in range(256):
        if b in keep:
            out.append(chr(b))
        else:
            out.append(chr(256 + bumped))
            bumped += 1
    return out


ALIAS = byte_aliases()
SPACE = ALIAS[ord(" ")]  # "Ġ"


# ---------------------------------------------------------------------------
# pseudo-languages

_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "st", "th", "tr", ""]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "y"]
_CODAS = ["", "", "", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ng", "ck"]

SCRIPTS = {
    # consonants, dependent vowel signs, virama, anusvara
    "Deva": ([chr(c) for c in range(0x0915, 0x0939)], [chr(c) for c in (0x093E, 0x093F, 0x0940, 0x0941, 0x0942, 0x0947, 0x0948, 0x094B, 0x094C)], "्", "ं"),
    "Beng": ([chr(c) for c in range(0x0995, 0x09B9) if c not in (0x09A9, 0x09B1, 0x09B3, 0x09B4, 0x09B5)], [chr(c) for c in (0x09BE, 0x09BF, 0x09C0, 0x09C1, 0x09C2, 0x09C7, 0x09C8, 0x09CB, 0x09CC)], "্", "ং"),
}


def ascii_word(rng: random.Random) -> str:
    n = rng.choice((1, 1, 2, 2, 2, 3))
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(n))


def indic_word(rng: random.Random, script: str, n_syll: int) -> str:
    cons, signs, virama, anusvara = SCRIPTS[script]
    out = []
    for _ in range(n_syll):
        out.append(rng.choice(cons))
        if rng.random() < 0.15:
            out.append(virama + rng.choice(cons))
        if rng.random() < 0.7:
            out.append(rng.choice(signs))
    if rng.random() < 0.1:
        out.append(anusvara)
    return "".join(out)


# Sentences draw from this many most frequent words. In the frozen
# tokenizer every one of them is whole, so the cost of encoding an English
# sentence does not swing with how many rare words a seed happens to draw.
COMMON_WORDS = 2000


class Lexicon:
    """Unique ASCII pseudo-words with Zipf weights (1 / rank); sample()
    draws from the COMMON_WORDS most frequent."""

    def __init__(self, rng: random.Random, n_words: int):
        words: list[str] = []
        seen = set()
        while len(words) < n_words:
            w = ascii_word(rng)
            if len(w) >= 2 and w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        self._cum = np.cumsum([1.0 / (r + 1) for r in range(min(n_words, COMMON_WORDS))])

    def sample(self, rng: random.Random) -> str:
        x = rng.random() * self._cum[-1]
        return self.words[int(np.searchsorted(self._cum, x, side="right"))]


def _fill(rng: random.Random, word, n_chars: int) -> str:
    """Words joined by spaces until n_chars, the last one cut to fit."""
    text = ""
    while len(text) < n_chars:
        text = (text + " " + word(rng)) if text else word(rng)
    return text[:n_chars].rstrip()


def sentences(rng: random.Random, lex: Lexicon, n: int, first: int = 0) -> list[tuple[str, str, str]]:
    """n aligned (eng, hin, ben) sentences of about 12-30 words.

    Lengths in characters follow a schedule that does not depend on the
    seed (English 80-180 characters, each Indic side 60% of that), so every
    seed asks the encoders for the same amount of work. ``first`` is the
    schedule position of the first sentence."""
    out = []
    for i in range(first, first + n):
        n_eng = 80 + (37 * i) % 101
        n_ind = (3 * n_eng) // 5
        eng = _fill(rng, lex.sample, n_eng - 1)
        out.append((
            eng[0].upper() + eng[1:] + ".",
            _fill(rng, lambda r: indic_word(r, "Deva", r.randint(1, 3)), n_ind) + " ।",
            _fill(rng, lambda r: indic_word(r, "Beng", r.randint(1, 3)), n_ind) + " ।",
        ))
    return out


# ---------------------------------------------------------------------------
# file writers (formats documented in the tokenlens README)


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path: Path, obj) -> None:
    path.write_bytes((json.dumps(obj, ensure_ascii=True, indent=0) + "\n").encode("ascii"))


def write_matrix(path: Path, rng: np.random.Generator, rows: int, dim: int) -> None:
    mat = (rng.standard_normal((rows, dim)) * 0.1).astype("<f4")
    path.write_bytes(struct.pack("<II", rows, dim) + mat.tobytes(order="C"))


# ---------------------------------------------------------------------------
# frozen-bytebpe


# Indic characters the frozen tokenizer keeps whole (one token each).
WHOLE_INDIC = "".join(chr(cp) for cp in (
    0x0915, 0x0930, 0x0928, 0x0938, 0x093E, 0x093F, 0x0947, 0x094D,  # क र न स ा ि े ्
    0x0995, 0x09B0, 0x09A8, 0x09B8, 0x09BE, 0x09BF, 0x09C7, 0x09CD,  # ক র ন স া ি ে ্
))


def _indic_merges() -> list[tuple[str, str]]:
    """A few dozen Indic rules: each block's two-byte UTF-8 lead, then the
    WHOLE_INDIC characters; every other character stays 2 tokens."""
    rules = []
    for lead in (0xA4, 0xA5, 0xA6, 0xA7):
        rules.append((ALIAS[0xE0], ALIAS[lead]))
    for ch in WHOLE_INDIC:
        b = ch.encode("utf-8")
        rules.append((ALIAS[b[0]] + ALIAS[b[1]], ALIAS[b[2]]))
    return rules


def _split_chars(rng: random.Random, script: str, n: int) -> list[str]:
    """n distinct characters of the script that the frozen tokenizer splits."""
    cons, signs, virama, anusvara = SCRIPTS[script]
    pool = [c for c in cons + signs + [virama, anusvara] if c not in WHOLE_INDIC]
    return rng.sample(pool, n)


def _words_of_three(chars: list[str]) -> str:
    return " ".join("".join(chars[i : i + 3]) for i in range(0, len(chars), 3)) + " ।"


def _prefix_chain_merges(rng: random.Random, n_merges: int) -> tuple[Lexicon, list[tuple[str, str]]]:
    """Rules Ġw[:k] + w[k] for every prefix of every lexicon word, most
    frequent prefix first (a parent is never less frequent than a child, so
    truncating the ranked list keeps every chain replayable)."""
    n_words = max(64, n_merges // 3)
    while True:
        lex = Lexicon(rng, n_words)
        weight: dict[str, float] = {}
        for rank, w in enumerate(lex.words):
            for k in range(1, len(w) + 1):
                p = SPACE + w[:k]
                weight[p] = weight.get(p, 0.0) + 1.0 / (rank + 1)
        if len(weight) >= n_merges:
            break
        n_words = int(n_words * 1.3) + 1
    ranked = sorted(weight, key=lambda p: (-weight[p], len(p), p))[:n_merges]
    return lex, [(p[:-1], p[-1]) for p in ranked]


def gen_frozen(out: Path, seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    indic = _indic_merges()
    lex, chain = _prefix_chain_merges(rng, size["merges"] - len(indic))
    # Indic rules sit early in rank, spread among the English ones.
    merges = chain[:]
    for i, rule in enumerate(indic):
        merges.insert(100 + 7 * i, rule)
    tokens = list(ALIAS) + [l + r for l, r in merges]

    write_json(out / "byte50k.vocab.json", {t: i for i, t in enumerate(tokens)})
    # Plaintext merges with the released-file header. No rule line starts
    # with "#": lexicon words are letters only and "#" never leads a rule.
    if any(l.startswith("#") for l, _ in merges):
        raise ValueError("a merge rule starts with '#'; load_merges would drop it as a comment")
    write_lines(out / "byte50k.merges.txt", ["#version: 0.2"] + [f"{l} {r}" for l, r in merges])

    # Marker derivatives of the same vocabulary: sentencepiece "▁" and
    # wordpiece "##" (word-internal pieces get the continuation prefix).
    write_lines(out / "spm50k.vocab.txt", [t.replace(SPACE, "▁") for t in tokens])
    write_lines(out / "wp50k.vocab.txt", [t[1:] if t.startswith(SPACE) and len(t) > 1 else "##" + t for t in tokens])
    write_lines(out / "multi250k.vocab.txt", _multilingual_vocab(rng, lex, size["multi_vocab"]))

    triples = sentences(rng, lex, size["premium_pairs"])
    write_lines(out / "eng.txt", [e for e, _, _ in triples])
    write_lines(out / "hin.txt", [h for _, h, _ in triples])
    write_lines(out / "ben.txt", [b for _, _, b in triples])
    write_lines(out / "ctl.txt", [t[0] for t in sentences(rng, lex, size["control_pairs"])])
    # augment selects the same number of characters for every seed, and eval
    # texts are written in those characters only, so the runs between them
    # (each one a bpe_encode call) are the same in number for every seed.
    planned = {s: _split_chars(rng, s, size["augment_chars"]) for s in ("Deva", "Beng")}
    write_lines(out / "indic.txt", [_words_of_three(chars) for chars in planned.values()])
    for script, lang in (("Deva", "hin"), ("Beng", "ben")):
        write_lines(out / f"eval.{lang}.txt", [
            _words_of_three([rng.choice(planned[script]) for _ in range(3 * size["eval_words"])])
            for _ in range(size["eval_lines"])
        ])
    corpus, ulm = _training_corpora(rng, lex, size, set())
    write_lines(out / "corpus.txt", corpus)
    write_lines(out / "ulm.txt", ulm)
    write_matrix(out / "v0.mat", nrng, len(tokens), size["dim"])
    return _facts("frozen-bytebpe", seed, size, corpus, ulm)


def _multilingual_vocab(rng: random.Random, lex: Lexicon, n: int) -> list[str]:
    """A sentencepiece-style vocabulary over many scripts, sharing the
    English lexicon (as ▁word) with the byte-level one."""
    ranges = [(0x0041, 0x007A), (0x0410, 0x044F), (0x0391, 0x03C9), (0x05D0, 0x05EA),
              (0x0627, 0x064A), (0x0E01, 0x0E30), (0x4E00, 0x9FFF), (0xAC00, 0xD7A3)]
    out: list[str] = []
    seen: set[str] = set()

    def add(tok: str) -> None:
        if tok not in seen and "\n" not in tok:
            seen.add(tok)
            out.append(tok)

    for w in lex.words[: n // 10]:
        add("▁" + w)
    while len(out) < n:
        kind = rng.random()
        if kind < 0.2:
            tok = indic_word(rng, rng.choice(("Deva", "Beng")), rng.randint(1, 3))
        else:
            lo, hi = rng.choice(ranges)
            tok = "".join(chr(rng.randint(lo, hi)) for _ in range(rng.randint(1, 4)))
        if tok.isprintable():
            add(("▁" if rng.random() < 0.5 else "") + tok)
    # A plaintext vocabulary whose first line starts with "{" would be read
    # as JSON; keep a plain token in front.
    out.sort(key=lambda t: t.startswith("{"))
    return out[:n]


# ---------------------------------------------------------------------------
# train-fresh


def gen_fresh(out: Path, seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    lex = Lexicon(rng, 3000)
    triples = sentences(rng, lex, size["premium_pairs"])
    write_lines(out / "eng.txt", [e for e, _, _ in triples])
    write_lines(out / "hin.txt", [h for _, h, _ in triples])
    write_lines(out / "ben.txt", [b for _, _, b in triples])
    control = [t[0] for t in sentences(rng, lex, size["control_pairs"])]
    write_lines(out / "ctl.txt", control)
    evals = sentences(rng, lex, size["eval_lines"])
    write_lines(out / "eval.hin.txt", [t[1] for t in evals])
    write_lines(out / "eval.ben.txt", [t[2] for t in evals])
    write_lines(out / "indic.txt", [t[1] for t in evals[:2]] + [t[2] for t in evals[:2]])

    needed = {c for t in triples for s in t for c in s}
    needed |= {c for t in evals for s in t for c in s} | {c for s in control for c in s}
    corpus, ulm = _training_corpora(rng, lex, size, needed)
    write_lines(out / "corpus.txt", corpus)
    write_lines(out / "ulm.txt", ulm)
    facts = _facts("train-fresh", seed, size, corpus, ulm)
    # One V0 row per token of the trained BPE vocabulary augment/eval use.
    write_matrix(out / "v0.mat", nrng, facts["bpe_target"], size["dim"])
    return facts


def _training_corpora(rng: random.Random, lex: Lexicon, size: dict, needed: set[str]) -> tuple[list[str], list[str]]:
    """A mixed eng/hin/ben corpus for the merge trainers, and a smaller ULM
    slice of five-word documents that covers every character in needed (so
    no premium cell goes NA). Short documents keep the cost of a prune step
    close to proportional to candidate frequency, which varies less from
    seed to seed than the share of long documents a candidate touches."""
    corpus: list[str] = []
    n_bytes = 0
    while n_bytes < size["corpus_bytes"]:
        for s in sentences(rng, lex, 1)[0]:
            corpus.append(s)
            n_bytes += len(s.encode("utf-8")) + 1
    chunks = []
    for s in corpus:
        words = s.split(" ")
        chunks += [" ".join(words[i : i + 5]) for i in range(0, len(words), 5)]
    ulm: list[str] = []
    covered: set[str] = set()
    for c in chunks:
        if not set(c) <= covered:
            ulm.append(c)
            covered.update(c)
    missing = needed - covered
    if missing:
        # Characters the corpus never produced go in as one extra line, to
        # both the corpus and the slice.
        line = "".join(sorted(missing))
        corpus.append(line)
        ulm.append(line)
    n_bytes = sum(len(c.encode("utf-8")) + 1 for c in ulm)
    for c in chunks:
        if n_bytes >= size["ulm_bytes"]:
            break
        if c not in ulm:
            ulm.append(c)
            n_bytes += len(c.encode("utf-8")) + 1
    return corpus, ulm


def _facts(workload: str, seed: int, size: dict, merge_corpus: list[str], ulm_corpus: list[str]) -> dict:
    """Trainer stop sizes (distinct characters plus the requested merges or
    prune steps) and the encoder spec: what the commands need to know."""
    n_chars = len({c for s in merge_corpus for c in s})
    ulm_seed = len({c for s in ulm_corpus for c in s}) + size["ulm_seed_extra"]
    return {
        "bpe_target": n_chars + size["train_merges"],
        "ulm_seed": ulm_seed,
        "ulm_target": ulm_seed - size["ulm_prune_steps"],
        "encoder": (seed, ENCODER_DEPTH[workload], size["dim"]),
    }


GENERATORS = {"frozen-bytebpe": gen_frozen, "train-fresh": gen_fresh}


def generate(workload: str, out: Path, seed: int, size: str = "full") -> dict:
    """Write the workload's inputs into out; returns facts the commands need."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed, SIZES[workload][size])


if __name__ == "__main__":
    # python3 gen.py WORKLOAD OUT_DIR SEED SIZE: writes the inputs, prints the
    # facts as JSON. run.py generates in a child so that its own memory stays
    # small: a child's ru_maxrss includes what its parent held at fork time.
    import sys

    wl, out_dir, seed_s, size_s = sys.argv[1:]
    print(json.dumps(generate(wl, Path(out_dir), int(seed_s), size_s)))

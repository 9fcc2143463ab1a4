"""Acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion NN PASS/FAIL" line (visible with -s or
in the captured output of a failure) and asserts the same condition, so the
verbose test report doubles as the checklist.
"""

import itertools
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tokenlens.analysis import containment, jaccard
from tokenlens.cli import main
from tokenlens.embedding import (
    AugmentationPlan,
    DerivationStrategy,
    PlanEntry,
    augment,
    corpus_similarity,
    derive_knn,
    derive_linreg,
    eval_similarity,
    pooled_hidden,
    toy_encoder,
    write_matrix,
)
from tokenlens.premium import bpe_tokenizer, premium, ulm_tokenizer
from tokenlens.text import Corpus, ParallelCorpus, load_parallel_corpus
from tokenlens.training import (
    UnigramVocab,
    bpe_encode,
    bpe_train,
    ulm_prune,
    ulm_seed,
    ulm_viterbi_segment,
    wordpiece_train,
)
from tokenlens.vocab import MergeRuleList, Vocabulary, load_merges, load_vocab, save_merges, save_vocab


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# independent brute-force helpers (no toolkit internals)


def seq_pair_counts(docs):
    """Non-overlapping left-to-right pair counts, plus token counts."""
    pairs, toks, total = {}, {}, 0
    for doc in docs:
        for t in doc:
            toks[t] = toks.get(t, 0) + 1
            total += 1
        i = 0
        while i + 1 < len(doc):
            p = (doc[i], doc[i + 1])
            pairs[p] = pairs.get(p, 0) + 1
            i += 2 if doc[i] == doc[i + 1] else 1
    return pairs, toks, total


def apply_merge(doc, a, b):
    out, i = [], 0
    while i < len(doc):
        if i + 1 < len(doc) and doc[i] == a and doc[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(doc[i])
            i += 1
    return out


def likelihood_argmax(docs):
    """Best merge by scoring every observed pair."""
    pairs, toks, total = seq_pair_counts(docs)
    scored = {}
    for (a, b), cab in pairs.items():
        s = cab * math.log(cab / (toks[a] * toks[b]))
        rest = total - cab
        if rest > 0:
            s -= rest * math.log(rest)
        scored[(a, b)] = s
    return min(scored, key=lambda p: (-scored[p], p[0] + p[1]))


def all_segmentations(text, table, max_len):
    """Every tokenization as (score, n_tokens, tokens).

    Scores are exact Fraction sums of the table's log-probabilities, so a
    mathematical tie is a tie regardless of token order.
    """
    out = []
    stack = []

    def rec(pos, score):
        if pos == len(text):
            out.append((score, len(stack), tuple(stack)))
            return
        for end in range(pos + 1, min(pos + max_len, len(text)) + 1):
            lp = table.get(text[pos:end])
            if lp is not None:
                stack.append(text[pos:end])
                rec(end, score + lp)
                stack.pop()

    rec(0, Fraction(0))
    return out


def best_segmentation(text, table, max_len):
    results = all_segmentations(text, table, max_len)
    if not results:
        return None
    return min(results, key=lambda r: (-r[0], r[1], r[2]))[2]


def best_removal(table, corpus):
    """Best single-token removal by re-segmenting the whole corpus."""
    max_len = max(len(t) for t in table)
    best = None
    for t in table:
        if len(t) == 1:
            continue
        sub = {k: v for k, v in table.items() if k != t}
        counts = {}
        for doc in corpus:
            seg = best_segmentation(doc, sub, max_len)
            assert seg is not None
            for tok in seg:
                counts[tok] = counts.get(tok, 0) + 1
        total = sum(counts.values())
        ll = math.fsum(c * math.log(c) for c in counts.values()) - total * math.log(total)
        key = (-ll, t.encode("utf-8"))
        if best is None or key < best[0]:
            best = (key, t)
    assert best is not None
    return best[1]


def write_text(path, content):
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    return str(path)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_bpe_worked_example():
    started = time.perf_counter()
    vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
    merges = [(vocab.token(r.left_id), vocab.token(r.right_id)) for r in rules]
    segmented = [
        vocab.token(i).decode() for i in bpe_encode("she_shakes_shoes", vocab, rules)
    ]
    elapsed = time.perf_counter() - started
    ok = (
        merges == [(b"s", b"h"), (b"_", b"sh"), (b"e", b"s")]
        and segmented == "sh e _sh a k es _sh o es".split()
        and elapsed < 1.0
    )
    report(1, "bpe worked example", ok, f"{elapsed * 1000:.1f} ms")


def test_criterion_02_layer0_regression_identity():
    rng = np.random.default_rng(2026)
    v0 = rng.normal(size=(1000, 32))
    chars = [chr(0x4E00 + i) for i in range(1000)]
    tok = bpe_tokenizer("ident", Vocabulary([c.encode() for c in chars]), MergeRuleList())
    enc = toy_encoder(seed=7, depth=1, dim=32)
    worst = 0.0
    for _ in range(100):
        text = "".join(rng.choice(chars) for _ in range(rng.integers(2, 7)))
        ids = tok.encode(text)
        derived = derive_linreg(pooled_hidden(enc, v0[ids], 0), v0, v0)
        expected = np.mean(v0[ids], axis=0)
        worst = max(worst, np.linalg.norm(derived - expected) / np.linalg.norm(expected))
    report(2, "layer-0 regression equals input-embedding mean", worst <= 1e-6,
           f"max rel err {worst:.2e}")


def test_criterion_03_knn_exact_hit():
    v0 = np.random.default_rng(31).normal(size=(1000, 32))
    misses = 0
    for vl in (v0, 2.0 * v0):
        for i in range(len(v0)):
            if not np.array_equal(derive_knn(vl[i], v0, vl, 1), v0[i]):
                misses += 1
    report(3, "k=1 exact hit returns the aligned input row bitwise", misses == 0,
           f"{misses} misses / 2000 queries")


def test_criterion_04_affine_recovery():
    rng = np.random.default_rng(44)
    v0 = rng.normal(size=(1000, 32))
    u, _ = np.linalg.qr(rng.normal(size=(32, 32)))
    vt, _ = np.linalg.qr(rng.normal(size=(32, 32)))
    a = u @ np.diag(np.linspace(1.0, 8.0, 32)) @ vt
    cond = np.linalg.cond(a)
    b = rng.normal(size=32)
    vl = v0 @ a.T + b
    worst = 0.0
    for _ in range(100):
        q = rng.normal(size=32)
        derived = derive_linreg(q @ a.T + b, v0, vl)
        worst = max(worst, np.linalg.norm(derived - q) / np.linalg.norm(q))
    report(4, "affine map recovery", cond <= 10.0 and worst <= 1e-5,
           f"cond {cond:.2f}, max rel err {worst:.2e}")


def test_criterion_05_merge_score_brute_force():
    rng = random.Random(5050)
    checked = 0
    mismatches = 0
    for _ in range(50):
        docs = [
            "".join(rng.choice("abcd") for _ in range(rng.randrange(2, 11)))
            for _ in range(rng.randrange(1, 4))
        ]
        vocab, rules = wordpiece_train(docs, len({c for d in docs for c in d}) + 5)
        state = [[c.encode() for c in doc] for doc in docs]
        for rule in rules:
            left, right = vocab.token(rule.left_id), vocab.token(rule.right_id)
            if (left, right) != likelihood_argmax(state):
                mismatches += 1
            checked += 1
            state = [apply_merge(doc, left, right) for doc in state]
    ok = mismatches == 0 and checked >= 100
    report(5, "every likelihood-scored merge matches brute force", ok,
           f"{checked} merges across 50 corpora, {mismatches} mismatches")


def test_criterion_06_ulm_brute_force():
    # Part 1: the segmenter against full enumeration, every string up to 12.
    uv = UnigramVocab.from_probs({"a": 0.3, "b": 0.2, "aa": 0.2, "ab": 0.2, "ba": 0.1})
    table = {t: Fraction(uv.log_prob(t)) for t in uv.tokens()}
    seg_checked = 0
    seg_mismatches = 0
    for n in range(1, 13):
        for combo in itertools.product("ab", repeat=n):
            text = "".join(combo)
            expected = best_segmentation(text, table, max_len=2)
            if list(expected) != ulm_viterbi_segment(text, uv):
                seg_mismatches += 1
            seg_checked += 1

    # Part 2: the pruner's removal choice against exhaustive re-segmentation.
    rng = random.Random(606)
    prune_checked = 0
    prune_mismatches = 0
    while prune_checked < 12:
        docs = [
            "".join(rng.choice("abc") for _ in range(rng.randrange(4, 13)))
            for _ in range(rng.randrange(1, 3))
        ]
        seed = ulm_seed(docs, max_token_len=3)
        if len(seed) > 20:
            seed = ulm_seed(docs, max_token_len=3, seed_size=20)
        if all(len(t) == 1 for t in seed.tokens()):
            continue
        pruned = ulm_prune(seed, docs, len(seed) - 1)
        removed = set(seed.tokens()) - set(pruned.tokens())
        expected = best_removal(
            {t: Fraction(seed.log_prob(t)) for t in seed.tokens()}, docs
        )
        if removed != {expected}:
            prune_mismatches += 1
        prune_checked += 1

    ok = seg_mismatches == 0 and prune_mismatches == 0
    report(6, "segmenter and pruner match exhaustive search", ok,
           f"{seg_checked} strings, {prune_checked} prunes, "
           f"{seg_mismatches + prune_mismatches} mismatches")


def test_criterion_07_premium_hand_corpus():
    vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
    worked = bpe_tokenizer("worked", vocab, rules)
    # Hand counts: shoes=3 shakes=4, sho=2 shoe_shoe=6, he=2 ash=2.
    pc = ParallelCorpus(
        pairs=(("shoes", "shakes"), ("sho", "shoe_shoe"), ("he", "ash")),
        target_lang="xx",
        target_script="Latn",
    )
    rep = premium(worked, pc)
    hand_ok = rep.ratios == [4 / 3, 3.0, 1.0] and rep.mean_ratio == (4 / 3 + 3.0 + 1.0) / 3

    tokenizers = [
        worked,
        bpe_tokenizer("raw", vocab, MergeRuleList()),
        ulm_tokenizer("uni", UnigramVocab.from_probs(
            {"s": 0.2, "h": 0.2, "e": 0.2, "o": 0.2, "sh": 0.2})),
    ]
    self_ok = True
    for tok in tokenizers:
        self_pc = ParallelCorpus(
            pairs=(("shoes", "shoes"), ("she", "she"), ("hose", "hose")),
            target_lang="eng",
            target_script="Latn",
        )
        self_rep = premium(tok, self_pc)
        self_ok = self_ok and self_rep.mean_ratio == 1.0
        self_ok = self_ok and f"{self_rep.mean_ratio:.2f}" == "1.00"
    report(7, "hand-counted ratios and self-pair 1.00", hand_ok and self_ok)


def test_criterion_08_overlap_properties():
    rng = random.Random(88)
    pool: list[bytes] = []
    while len(pool) < 60:
        t = bytes(rng.randrange(97, 123) for _ in range(rng.randrange(1, 5)))
        if t not in pool:
            pool.append(t)
    violations = 0
    for i in range(200):
        if i % 10 == 9:
            a = frozenset(rng.sample(pool[:30], rng.randrange(1, 20)))
            b = frozenset(rng.sample(pool[30:], rng.randrange(1, 20)))
        elif i % 7 == 6:
            a = frozenset(rng.sample(pool, rng.randrange(1, 40)))
            b = a
        else:
            a = frozenset(rng.sample(pool, rng.randrange(1, 40)))
            b = frozenset(rng.sample(pool, rng.randrange(1, 40)))
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        if jaccard(a, b) != jaccard(b, a):
            violations += 1
        if jaccard(a, a) != 1.0 or jaccard(b, b) != 1.0:
            violations += 1
        if not a & b and (jaccard(a, b) != 0.0 or containment(small, large) != 0.0):
            violations += 1
        if containment(small, large) < jaccard(a, b):
            violations += 1
    report(8, "overlap metric properties over 200 random pairs", violations == 0,
           f"{violations} violations")


def test_criterion_09_thread_determinism(tmp_path):
    vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
    vpath, mpath = str(tmp_path / "w.vocab.json"), str(tmp_path / "w.merges.json")
    save_vocab(vocab, vpath)
    save_merges(rules, vocab, mpath)

    byte_vocab = Vocabulary(
        [b"a", b"b", "Ã".encode("utf-8"), "©".encode("utf-8"), "¨".encode("utf-8")]
    )
    bvpath, bmpath = str(tmp_path / "b.vocab.json"), str(tmp_path / "b.merges.json")
    save_vocab(byte_vocab, bvpath)
    save_merges(MergeRuleList(), byte_vocab, bmpath)
    epath = str(tmp_path / "v0.mat")
    write_matrix(epath, np.random.default_rng(12).normal(size=(len(byte_vocab), 3)))

    eng = write_text(tmp_path / "eng.txt", "shoes\nsho\nhe\n")
    tgt = write_text(tmp_path / "tgt.txt", "shakes\nshoe_shoe\nash\n")
    aug_corpus = write_text(tmp_path / "aug.txt", "aé\nbè\n")
    vocab_files = [
        (f"v{i}", write_text(tmp_path / f"v{i}.vocab.txt", f"zz\n{chr(97 + i)}\n"))
        for i in range(4)
    ]

    results = {}
    for threads in ("1", "8"):
        blob = b""
        out = str(tmp_path / f"premium-{threads}.csv")
        jout = str(tmp_path / f"premium-{threads}.json")
        assert main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                     "--pair", f"xx:Latn:{eng}:{tgt}", "--threads", threads,
                     "--json", jout, "--out", out]) == 0
        for p in (out, jout):
            with open(p, "rb") as f:
                blob += f.read()
        out = str(tmp_path / f"compare-{threads}.csv")
        args = ["compare"]
        for name, path in vocab_files:
            args += ["--vocab", f"{name}={path}"]
        assert main(args + ["--threads", threads, "--out", out]) == 0
        with open(out, "rb") as f:
            blob += f.read()
        out = str(tmp_path / f"plan-{threads}.json")
        assert main(["augment", "--tokenizer", f"bytes=bpe-bytes:{bvpath}:{bmpath}",
                     "--embeddings", epath, "--encoder", "toy:0:1:3",
                     "--strategy", "local:3@1", "--corpus", aug_corpus,
                     "--threads", threads, "--out", out]) == 0
        for p in (out, out + ".mat"):
            with open(p, "rb") as f:
                blob += f.read()
        results[threads] = blob
    report(9, "premium, compare, and augment byte-identical across thread counts",
           results["1"] == results["8"], f"{len(results['1'])} bytes compared")


def test_criterion_10_toy_encoder_end_to_end():
    # 12 two-byte characters, each splitting into (lead, continuation) tokens.
    oov_chars = [chr(0xE1 + i) for i in range(12)]
    vocab = Vocabulary(
        [b"a", b"b", "Ã".encode("utf-8")]
        + [chr(0xA1 + i).encode("utf-8") for i in range(12)]
    )
    tok = bpe_tokenizer("bytes", vocab, MergeRuleList(), byte_input=True)
    rng = np.random.default_rng(1001)
    v0 = rng.normal(size=(len(vocab), 8))
    sentences = tuple(
        "".join(rng.choice(oov_chars) for _ in range(rng.integers(1, 11)))
        for _ in range(200)
    )
    corpus = Corpus(documents=sentences)

    linear = toy_encoder(seed=5, depth=1, dim=8, linear=True)
    plan = augment(tok, v0, linear, set(oov_chars), DerivationStrategy("linreg", 0))
    worst = max(
        abs(eval_similarity(linear, s, tok, plan, 1) - 1.0) for s in sentences
    )
    linear_ok = worst <= 1e-6

    nonlinear = toy_encoder(seed=6, depth=2, dim=8)
    derived_plan = augment(tok, v0, nonlinear, set(oov_chars), DerivationStrategy("linreg", 0))
    baseline = AugmentationPlan(
        entries=[
            PlanEntry(token=e.token, vector=rng.normal(size=8))
            for e in derived_plan.entries
        ],
        strategy=derived_plan.strategy,
        dim=8,
        v0=v0,
    )
    derived_mean = corpus_similarity(nonlinear, corpus, tok, derived_plan, 2)
    baseline_mean = corpus_similarity(nonlinear, corpus, tok, baseline, 2)
    nonlinear_ok = derived_mean > baseline_mean
    report(10, "linear-encoder similarity 1.0 and derived beats random baseline",
           linear_ok and nonlinear_ok,
           f"max |sim-1| {worst:.2e}; derived {derived_mean:.4f} vs random {baseline_mean:.4f}")


_DATA_ENV = (
    "TOKENLENS_GPT2_VOCAB",
    "TOKENLENS_GPT2_MERGES",
    "TOKENLENS_FLORES_ENG",
    "TOKENLENS_FLORES_HIN",
    "TOKENLENS_FLORES_BEN",
)


@pytest.mark.skipif(
    any(not os.environ.get(v) for v in _DATA_ENV),
    reason="needs external tokenizer and corpus files: " + ", ".join(_DATA_ENV),
)
def test_criterion_11_external_tokenizer_premiums():
    vocab = load_vocab(os.environ["TOKENLENS_GPT2_VOCAB"])
    rules = load_merges(os.environ["TOKENLENS_GPT2_MERGES"], vocab)
    tok = bpe_tokenizer("gpt2", vocab, rules, byte_input=True)
    eng = os.environ["TOKENLENS_FLORES_ENG"]
    started = time.perf_counter()
    hin = premium(tok, load_parallel_corpus(eng, os.environ["TOKENLENS_FLORES_HIN"], "hin", "Deva"))
    ben = premium(tok, load_parallel_corpus(eng, os.environ["TOKENLENS_FLORES_BEN"], "ben", "Beng"))
    elapsed = time.perf_counter() - started
    ok = (
        abs(hin.mean_ratio - 7.51) <= 0.05
        and abs(ben.mean_ratio - 9.70) <= 0.05
        and elapsed < 120.0
    )
    report(11, "published premiums reproduced from user-supplied data", ok,
           f"hin {hin.mean_ratio:.2f}, ben {ben.mean_ratio:.2f}, {elapsed:.0f} s")

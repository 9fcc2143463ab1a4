"""Segmenter training: frozen hand values first, then brute-force oracles."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tokenlens
from tokenlens.errors import OovCharacterError, ToolkitError
from tokenlens.training import (
    UnigramVocab,
    _char_documents,
    _count_delta,
    _forward,
    _lattice,
    _LazyArgmax,
    _log_prob_units,
    _merge_in_place,
    _path,
    bpe_encode,
    bpe_train,
    count_adjacent_pairs,
    load_probs,
    save_probs,
    ulm_prune,
    ulm_seed,
    ulm_viterbi_segment,
    unigram_log_likelihood,
    wordpiece_merge_score,
    wordpiece_train,
)
from tokenlens.vocab import MergeRule, MergeRuleList, Vocabulary


def decode(vocab: Vocabulary, ids: list[int]) -> list[str]:
    return [vocab.token(i).decode() for i in ids]


# ---------------------------------------------------------------------------
# independent oracles (deliberately separate implementations)


def oracle_sequential_counts(sequences: list[list[int]]) -> Counter:
    """The spec of count_adjacent_pairs: one left-to-right scan that steps
    past both tokens of a pair of equal tokens."""
    counts: Counter = Counter()
    for seq in sequences:
        i = 0
        while i < len(seq) - 1:
            counts[(seq[i], seq[i + 1])] += 1
            i += 2 if seq[i] == seq[i + 1] else 1
    return counts


def oracle_pair_and_token_counts(docs: list[list[bytes]]):
    pair_counts: dict[tuple[bytes, bytes], int] = {}
    tok_counts: dict[bytes, int] = {}
    total = 0
    for doc in docs:
        for t in doc:
            tok_counts[t] = tok_counts.get(t, 0) + 1
            total += 1
        i = 0
        while i + 1 < len(doc):
            p = (doc[i], doc[i + 1])
            pair_counts[p] = pair_counts.get(p, 0) + 1
            i += 2 if doc[i] == doc[i + 1] else 1
    return pair_counts, tok_counts, total


def oracle_apply_merge(doc: list[bytes], a: bytes, b: bytes) -> list[bytes]:
    out = []
    i = 0
    while i < len(doc):
        if i + 1 < len(doc) and doc[i] == a and doc[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(doc[i])
            i += 1
    return out


def oracle_merge_ids(seq: list[int], left: int, right: int, new_id: int) -> list[int]:
    """The spec of _merge_in_place, and its loop before it jumped between
    occurrences: one left-to-right scan that steps past both tokens of a
    merged pair. It always returns a new list."""
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == left and seq[i + 1] == right:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def oracle_replay_encode(text: str, vocab: Vocabulary, rules: MergeRuleList) -> list[int]:
    """The spec of bpe_encode: every rule in rank order, each one
    left-to-right pass without overlap over the whole sequence."""
    seq = [vocab.id_of(ch.encode("utf-8")) for ch in text]
    for rule in rules:
        seq = oracle_merge_ids(seq, rule.left_id, rule.right_id, rule.new_id)
    return seq


def oracle_train(
    corpus: list[str], target_vocab_size: int | None, min_pair_freq: int | None, scorer: str
) -> tuple[Vocabulary, MergeRuleList]:
    """The spec of bpe_train ("count") and wordpiece_train ("likelihood"):
    every step recounts every pair of the whole corpus, scores them all, and
    re-merges every document. Ties go to the smallest concatenated bytes,
    then to the pair count_adjacent_pairs meets first. A merge whose bytes
    are already a token reuses its id."""
    docs = [doc for doc in corpus if doc != ""]
    chars = sorted({ch for doc in docs for ch in doc}, key=lambda c: c.encode("utf-8"))
    tokens = [c.encode("utf-8") for c in chars]
    ids = {t: i for i, t in enumerate(tokens)}
    segmented = [[ids[ch.encode("utf-8")] for ch in doc] for doc in docs]
    rules = []
    while target_vocab_size is None or len(tokens) < target_vocab_size:
        counts = count_adjacent_pairs(segmented)
        if not counts:
            break
        if scorer == "count":
            if min_pair_freq is not None and max(counts.values()) < min_pair_freq:
                break
            scored = dict(counts)
        else:
            token_counts = Counter(t for seq in segmented for t in seq)
            corpus_len = sum(token_counts.values())
            scored = {
                (a, b): wordpiece_merge_score(token_counts[a], token_counts[b], cab, corpus_len)
                for (a, b), cab in counts.items()
            }
        best_key = None
        for pair, score in scored.items():
            key = (-score, tokens[pair[0]] + tokens[pair[1]])
            if best_key is None or key < best_key:
                best_key = key
                left, right = pair
        merged = tokens[left] + tokens[right]
        new_id = ids.get(merged)
        if new_id is None:
            new_id = ids[merged] = len(tokens)
            tokens.append(merged)
        rules.append(MergeRule(left, right, new_id))
        segmented = [oracle_merge_ids(seq, left, right, new_id) for seq in segmented]
    return Vocabulary(tokens), MergeRuleList(rules)


def oracle_bpe_choice(docs: list[list[bytes]]) -> tuple[bytes, bytes]:
    pair_counts, _, _ = oracle_pair_and_token_counts(docs)
    return min(pair_counts, key=lambda p: (-pair_counts[p], p[0] + p[1]))


def oracle_wordpiece_choice(docs: list[list[bytes]]) -> tuple[bytes, bytes]:
    pair_counts, tok_counts, total = oracle_pair_and_token_counts(docs)
    scored = {}
    for (a, b), cab in pair_counts.items():
        s = cab * math.log(cab / (tok_counts[a] * tok_counts[b]))
        rest = total - cab
        if rest > 0:
            s -= rest * math.log(rest)
        scored[(a, b)] = s
    return min(scored, key=lambda p: (-scored[p], p[0] + p[1]))


def oracle_enumerate_segmentations(text: str, table: dict[str, float]):
    """All segmentations as (score, n_tokens, tokens).

    Scores are exact Fraction sums (None stands in for -inf), so reordered
    token multisets tie exactly instead of drifting by rounding.
    """
    exact = {
        t: (None if lp == float("-inf") else Fraction(lp)) for t, lp in table.items()
    }
    results = []

    def rec(pos: int, toks: tuple, score):
        if pos == len(text):
            results.append((score, len(toks), toks))
            return
        for end in range(pos + 1, len(text) + 1):
            piece = text[pos:end]
            if piece in exact:
                lp = exact[piece]
                nxt = None if (score is None or lp is None) else score + lp
                rec(end, toks + (piece,), nxt)

    rec(0, (), Fraction(0))
    return results


def oracle_best_segmentation(text: str, table: dict[str, float]):
    results = oracle_enumerate_segmentations(text, table)
    if not results:
        return None

    def key(r):
        score, n, toks = r
        if score is None:
            return (1, Fraction(0), n, toks)
        return (0, -score, n, toks)

    return min(results, key=key)[2]


def oracle_prune_choice(table: dict[str, float], corpus: list[str]) -> str:
    """Best single removal by exhaustive re-segmentation of every candidate."""
    best = None
    for t in table:
        if len(t) == 1:
            continue
        sub = {k: v for k, v in table.items() if k != t}
        counts: dict[str, int] = {}
        for doc in corpus:
            seg = oracle_best_segmentation(doc, sub)
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


def oracle_viterbi_segment(text: str, vocab: UnigramVocab) -> list[str]:
    """The spec of ulm_viterbi_segment: a DP whose cells carry their whole
    (score, n_tokens, tokens) key and compare it in full."""
    if text == "":
        return []
    units = {t: _log_prob_units(vocab.log_prob(t)) for t in vocab}
    max_len = max(map(len, vocab))
    neg_inf = float("-inf")
    best: list = [None] * (len(text) + 1)
    best[0] = (0, 0, ())
    for j in range(1, len(text) + 1):
        cand = None
        for i in range(max(0, j - max_len), j):
            prev = best[i]
            piece = text[i:j]
            if prev is None or piece not in vocab:
                continue
            if prev[0] == neg_inf or units[piece] == neg_inf:
                score = neg_inf
            else:
                score = prev[0] + units[piece]
            entry = (score, prev[1] + 1, prev[2] + (piece,))
            if (
                cand is None
                or entry[0] > cand[0]
                or (entry[0] == cand[0] and entry[1:] < cand[1:])
            ):
                cand = entry
        best[j] = cand
    if best[-1] is None:
        p = max(i for i in range(len(text)) if best[i] is not None)
        assert text[p] not in vocab
        raise OovCharacterError(text[p], p)
    return list(best[-1][2])


def oracle_prune(vocab: UnigramVocab, corpus: list[str], target_size: int) -> UnigramVocab:
    """The spec of ulm_prune: each step builds a new vocabulary for every
    candidate and re-segments the whole corpus with it."""
    docs = [doc for doc in corpus if doc != ""]
    current = vocab
    while len(current) > target_size:
        best = None
        for t in current.tokens():
            if len(t) == 1:
                continue
            reduced = UnigramVocab(
                {tok: current.log_prob(tok) for tok in current.tokens() if tok != t},
                check=False,
            )
            counts: Counter = Counter()
            for doc in docs:
                counts.update(oracle_viterbi_segment(doc, reduced))
            key = (-unigram_log_likelihood(counts), t.encode("utf-8"))
            if best is None or key < best[0]:
                best = (key, t, counts)
        assert best is not None
        _, removed, counts = best
        survivors = [t for t in current.tokens() if t != removed]
        current = UnigramVocab.from_frequencies(counts, tokens=survivors)
    return current


def oracle_prune_by_recount(vocab: UnigramVocab, corpus: list[str], target_size: int) -> UnigramVocab:
    """ulm_prune before it scored candidates by their count deltas: each
    candidate copies the step's token counts, swaps each of its users' old
    segmentation for the new one, rebuilt whole from the restarted DP, and
    scores the result with unigram_log_likelihood. Fast enough for larger
    corpora than oracle_prune."""
    docs = _char_documents(corpus)
    current = vocab
    while len(current) > target_size:
        lattices = [_lattice(doc, current._prefixes) for doc in docs]
        bases = [_forward(doc, lattice) for doc, lattice in zip(docs, lattices)]
        segs = [_path(doc, back, len(doc)) for doc, (_, _, back) in zip(docs, bases)]
        total_counts: Counter = Counter()
        users: dict[str, list[int]] = {}
        for d, seg in enumerate(segs):
            total_counts.update(seg)
            for tok in set(seg):
                users.setdefault(tok, []).append(d)
        best = None
        for t in current.tokens():
            if len(t) == 1:
                continue
            new_counts = Counter(total_counts)
            for d in users.get(t, ()):
                doc = docs[d]
                j0 = doc.find(t) + len(t)
                score, n_tokens, back = bases[d]
                pad = len(doc) + 1 - j0
                arrays = score[:j0] + [None] * pad, n_tokens[:j0] + [0] * pad, back[:j0] + [0] * pad
                _forward(doc, lattices[d][j0 - 1 :], t, arrays, j0)
                new_counts.subtract(segs[d])
                new_counts.update(_path(doc, arrays[2], len(doc)))
            new_counts = +new_counts  # drop zero entries
            key = (-unigram_log_likelihood(new_counts), t.encode("utf-8"))
            if best is None or key < best[0]:
                best = (key, t, new_counts)
        assert best is not None
        _, removed, counts = best
        survivors = [t for t in current.tokens() if t != removed]
        current = UnigramVocab.from_frequencies(counts, tokens=survivors)
    return current


# ---------------------------------------------------------------------------
# pair counting


class TestCountAdjacentPairs:
    def test_identical_run_does_not_overlap(self):
        assert count_adjacent_pairs([[0, 0, 0, 0]]) == {(0, 0): 2}

    def test_distinct_pairs_may_share_a_token(self):
        assert count_adjacent_pairs([[0, 1, 0, 1]]) == {(0, 1): 2, (1, 0): 1}

    def test_no_pairs_across_documents(self):
        assert count_adjacent_pairs([[0], [1]]) == {}
        assert count_adjacent_pairs([[0, 1], [1, 0]]) == {(0, 1): 1, (1, 0): 1}

    def test_odd_identical_run(self):
        # aaa: count (a,a) at 0-1, resume at 2, no pair left
        assert count_adjacent_pairs([[3, 3, 3]]) == {(3, 3): 1}

    def test_even_run_steps_over_the_pair_leaving_it(self):
        assert count_adjacent_pairs([[0, 0, 1, 1, 1, 0]]) == {(0, 0): 1, (1, 1): 1, (1, 0): 1}

    @given(st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 6)), max_size=8), max_size=4))
    def test_matches_sequential_scan(self, docs):
        seqs = [[tid for tid, n in runs for _ in range(n)] for runs in docs]
        got = count_adjacent_pairs(seqs)
        assert got == oracle_sequential_counts(seqs)
        assert all(n > 0 for n in got.values())


# ---------------------------------------------------------------------------
# BPE


class TestBpeTrain:
    def test_worked_example_merge_sequence(self):
        vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
        pairs = [(l.decode(), r.decode()) for l, r in rules.as_pairs(vocab)]
        assert pairs == [("s", "h"), ("_", "sh"), ("e", "s")]

    def test_worked_example_final_segmentation(self):
        vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
        ids = bpe_encode("she_shakes_shoes", vocab, rules)
        assert decode(vocab, ids) == ["sh", "e", "_sh", "a", "k", "es", "_sh", "o", "es"]

    def test_initial_vocab_is_sorted_charset(self):
        vocab, _ = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
        assert [t.decode() for t in list(vocab)[:7]] == ["_", "a", "e", "h", "k", "o", "s"]

    def test_running_out_of_pairs_before_target_is_fine(self):
        vocab, rules = bpe_train(["aa"], target_vocab_size=3)
        assert {t.decode() for t in vocab} == {"a", "aa"}
        assert len(rules) == 1

    def test_min_pair_freq_stops_on_singletons(self):
        _, rules = bpe_train(["ab"], min_pair_freq=2)
        assert len(rules) == 0

    def test_target_below_charset_is_error(self):
        with pytest.raises(ToolkitError):
            bpe_train(["abc"], target_vocab_size=2)

    def test_exactly_one_stop_rule(self):
        with pytest.raises(ToolkitError):
            bpe_train(["ab"])
        with pytest.raises(ToolkitError):
            bpe_train(["ab"], target_vocab_size=3, min_pair_freq=2)

    def test_empty_corpus_is_error(self):
        with pytest.raises(ToolkitError):
            bpe_train([], min_pair_freq=2)

    def test_min_pair_freq_below_one_is_error(self):
        with pytest.raises(ToolkitError, match="min_pair_freq must be at least 1"):
            bpe_train(["ab"], min_pair_freq=0)

    def test_every_choice_matches_oracle_on_random_corpora(self):
        rng = random.Random(1234)
        for _ in range(30):
            docs = [
                "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 25)))
                for _ in range(rng.randrange(1, 4))
            ]
            vocab, rules = bpe_train(docs, target_vocab_size=len(set("".join(docs))) + 6)
            state = [[c.encode() for c in doc] for doc in docs]
            for rule in rules:
                left = vocab.token(rule.left_id)
                right = vocab.token(rule.right_id)
                assert (left, right) == oracle_bpe_choice(state)
                state = [oracle_apply_merge(doc, left, right) for doc in state]


class TestBpeEncode:
    @pytest.fixture()
    def worked(self):
        return bpe_train(["she_shakes_shoes"], min_pair_freq=2)

    def test_shoes(self, worked):
        vocab, rules = worked
        assert decode(vocab, bpe_encode("shoes", vocab, rules)) == ["sh", "o", "es"]

    def test_single_char(self, worked):
        vocab, rules = worked
        assert decode(vocab, bpe_encode("a", vocab, rules)) == ["a"]

    def test_oov_char_reports_char_and_offset(self, worked):
        vocab, rules = worked
        with pytest.raises(OovCharacterError) as exc:
            bpe_encode("sxq", vocab, rules)
        assert exc.value.char == "x"
        assert exc.value.offset == 1

    def test_empty_text(self, worked):
        vocab, rules = worked
        assert bpe_encode("", vocab, rules) == []

    def test_roundtrip_concatenation(self, worked):
        vocab, rules = worked
        for text in ["she", "shoes_shoes", "kesh", "_", "ashes"]:
            ids = bpe_encode(text, vocab, rules)
            assert b"".join(vocab.token(i) for i in ids).decode() == text

    def test_equal_run_merges_left_to_right(self):
        vocab = Vocabulary([b"a", b"aa"])
        rules = MergeRuleList([MergeRule(0, 0, 1)])
        assert decode(vocab, bpe_encode("aaa", vocab, rules)) == ["aa", "a"]
        assert decode(vocab, bpe_encode("aaaaa", vocab, rules)) == ["aa", "aa", "a"]

    def test_rule_before_its_operand_exists_never_fires(self):
        # (ab, c) ranks before the rule that makes ab, so replay has passed
        # it by the time ab appears; lowest-rank-first would give abc.
        vocab = Vocabulary([b"a", b"b", b"c", b"ab", b"abc"])
        rules = MergeRuleList([MergeRule(3, 2, 4), MergeRule(0, 1, 3)])
        assert decode(vocab, bpe_encode("abc", vocab, rules)) == ["ab", "c"]

    def test_duplicate_pair_fires_again_at_its_later_rank(self):
        # Rule 1 recreates (a, b) after rank 0 has passed; only the second
        # listing of (a, b) can merge it.
        vocab = Vocabulary([b"a", b"b", b"c", b"ab"])
        once = [MergeRule(0, 1, 3), MergeRule(2, 2, 0)]
        assert decode(vocab, bpe_encode("ccb", vocab, MergeRuleList(once))) == ["a", "b"]
        twice = MergeRuleList(once + [MergeRule(0, 1, 3)])
        assert decode(vocab, bpe_encode("ccb", vocab, twice)) == ["ab"]

    def test_new_id_equal_to_left_operand_fires_once_per_rank(self):
        # (a, b) -> a makes a new (a, b) at once; the pass at its rank has
        # already moved past it, so it waits for a later rank of (a, b).
        vocab = Vocabulary([b"a", b"b"])
        once = MergeRuleList([MergeRule(0, 1, 0)])
        assert decode(vocab, bpe_encode("abbb", vocab, once)) == ["a", "b", "b"]
        twice = MergeRuleList([MergeRule(0, 1, 0), MergeRule(0, 1, 0)])
        assert decode(vocab, bpe_encode("abbb", vocab, twice)) == ["a", "b"]

    def test_position_whose_pair_returns_is_not_merged_twice(self):
        # Shrunk from a hypothesis search. Position 0 starts as (c, a), due at
        # rank 1. Rank 0 merges the (a, c) to its right into a new a, so
        # position 0 holds (c, a) again and is due at rank 1 once more. Rank
        # 1 may merge there only once: its pass leaves the new (c, a) alone.
        vocab = Vocabulary([b"a", b"b", b"c"])
        rules = MergeRuleList([MergeRule(0, 2, 0), MergeRule(2, 0, 2)])
        assert decode(vocab, bpe_encode("caca", vocab, rules)) == ["c", "a"]

    def test_same_rank_pairs_merge_in_text_order_not_creation_order(self):
        # Rank 0 makes the X X at the end first; ranks 1-3 make the first X
        # later. Rank 4's pass still starts at the left: Y X, not X Y.
        vocab = Vocabulary([c.encode() for c in "abcdefghXY"])
        a, b, c, d, e, f, g, h, x, y = range(10)
        rules = MergeRuleList([
            MergeRule(c, d, x), MergeRule(e, f, g), MergeRule(g, h, a), MergeRule(a, b, x),
            MergeRule(x, x, y),
        ])
        assert decode(vocab, bpe_encode("efhbcdcd", vocab, rules)) == ["Y", "X"]

    @pytest.mark.parametrize("n,expected", [(500, 125), (501, 126)])
    def test_long_equal_run_under_two_ranks(self, n, expected):
        vocab = Vocabulary([b"a"])
        rules = MergeRuleList([MergeRule(0, 0, 0), MergeRule(0, 0, 0)])
        assert bpe_encode("a" * n, vocab, rules) == [0] * expected


@st.composite
def vocab_rules_text(draw):
    """Two or three ids (a, b and perhaps one opaque token); at least two
    rules drawn from a pool of at most three pairs, a third of them of two
    equal ids, so that most pairs repeat at several ranks, with a new_id
    that is often one of the operands; and text of short and long runs of
    one character and of the pool's pairs spelled out."""
    chars = "ab"
    vocab = Vocabulary([c.encode() for c in chars] + [b"#0"] * draw(st.integers(0, 1)))
    ids = st.integers(0, len(vocab) - 1)
    pair = st.tuples(ids, ids, st.integers(0, 2)).map(lambda t: (t[0], t[0]) if t[2] == 0 else t[:2])
    pool = draw(st.lists(pair, min_size=1, max_size=3))
    rules = []
    for _ in range(draw(st.integers(2, 20))):
        left, right = draw(st.sampled_from(pool))
        new_id = draw(st.sampled_from([left, right]) if draw(st.booleans()) else ids)
        rules.append(MergeRule(left, right, new_id))
    run = st.tuples(st.sampled_from(chars), st.integers(1, 4) | st.integers(5, 30)).map(lambda r: r[0] * r[1])
    spelled = [chars[l] + chars[r] for l, r in pool if l < len(chars) and r < len(chars)]
    piece = run | st.sampled_from(spelled) if spelled else run
    text = draw(st.lists(piece, min_size=2, max_size=12).map("".join))
    return vocab, MergeRuleList(rules), text


# test_random_rule_lists fails, under the derandomized profile of conftest.py,
# on each of these encoder mutants (each tried in a scratch copy): heap
# entries checked by the tokens of their pair instead of by their position's
# version, and same-rank entries popped in push order instead of position
# order.
class TestBpeEncodeMatchesReplay:
    @given(vocab_rules_text())
    def test_random_rule_lists(self, case):
        vocab, rules, text = case
        assert bpe_encode(text, vocab, rules) == oracle_replay_encode(text, vocab, rules)

    @given(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=20), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
        st.text(alphabet="abcd", max_size=200),
    )
    def test_shuffled_trained_rules(self, docs, rng, text):
        vocab, trained = bpe_train(docs, target_vocab_size=len(set("".join(docs))) + 8)
        rule_list = list(trained)
        rng.shuffle(rule_list)
        rules = MergeRuleList(rule_list)
        text = "".join(ch for ch in text if vocab.get(ch.encode()) is not None)
        assert bpe_encode(text, vocab, rules) == oracle_replay_encode(text, vocab, rules)


    @given(st.text(alphabet="ab\u0915xé", max_size=30))
    def test_oov_names_first_missing_character(self, text):
        # The per-character lookup: the first character, in text order, that
        # the vocabulary lacks, however often it and others repeat.
        vocab, rules = bpe_train(["abab", "ba"], target_vocab_size=4)
        missing = [(ch, i) for i, ch in enumerate(text) if vocab.get(ch.encode("utf-8")) is None]
        if not missing:
            assert bpe_encode(text, vocab, rules) == oracle_replay_encode(text, vocab, rules)
            return
        with pytest.raises(OovCharacterError) as exc:
            bpe_encode(text, vocab, rules)
        assert (exc.value.char, exc.value.offset) == missing[0]


def rule_triples(rules: MergeRuleList) -> list[tuple[int, int, int]]:
    return [(r.left_id, r.right_id, r.new_id) for r in rules]


def assert_same_training(got, expected):
    (vocab, rules), (oracle_vocab, oracle_rules) = got, expected
    assert list(vocab) == list(oracle_vocab)
    assert rule_triples(rules) == rule_triples(oracle_rules)


@st.composite
def merge_corpora(draw):
    """Documents over tiny alphabets, in one of three shapes. Runs of one
    character, so that equal-token runs, pairs that occur only uncounted
    ((a, b) in [a, a, b]), one-character and empty documents are common. Or
    a few short words repeated, so that many pairs share a count but not a
    product, and a merge moves the token counts of pairs far from it. Or
    many documents of one short word each, such as "ab" next to "aab" and
    "ac", so that a merge often uses up a token in one document, leaves it
    in others, and a later merge uses it there."""
    alphabet = draw(st.sampled_from(["a", "ab", "abc"]))
    shape = draw(st.integers(0, 2))
    if shape == 0:
        run = st.tuples(st.sampled_from(alphabet), st.integers(1, 5)).map(lambda r: r[0] * r[1])
        doc = st.lists(run, max_size=6).map("".join)
    elif shape == 1:
        words = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=4), min_size=1, max_size=4))
        doc = st.lists(st.sampled_from(words), max_size=8).map(" ".join)
    else:
        return draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=3), min_size=2, max_size=12))
    return draw(st.lists(doc, min_size=1, max_size=6).filter(any))


@st.composite
def merge_passes(draw):
    """A sequence and the pair (left, right) that one pass merges in it. The
    sequence is glued from pieces that stress the pass: runs of one token,
    "l r l r", "l l r", a lone l or r, and a token of neither. left == right
    is common, and left may stand last or be absent."""
    left, right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    run = st.tuples(st.sampled_from([left, right, 3]), st.integers(2, 6)).map(lambda r: [r[0]] * r[1])
    pieces = st.sampled_from([[left, right, left, right], [left, left, right], [left], [right], [3]])
    seq = sum(draw(st.lists(pieces | run, max_size=8)), [])
    shape = draw(st.sampled_from(["as drawn", "left last", "left absent"]))
    if shape == "left last":
        seq.append(left)
    elif shape == "left absent":
        seq = [tid for tid in seq if tid != left]
    return seq, left, right


# Each of these mutants of _merge_in_place, tried on a copy of the code,
# fails this class: the jump resuming at i + 1 after a merge (so "a a a" merges
# twice); the scan stopping at len(seq) - 2 (a pair at the end is missed);
# the tail seq[start:] not copied; and a copy returned when nothing merged.
class TestMergeInPlace:
    @given(merge_passes())
    def test_matches_the_scan(self, case):
        seq, left, right = case
        before = list(seq)
        got = _merge_in_place(seq, left, right, 9)
        assert got == oracle_merge_ids(before, left, right, 9)
        assert seq == before  # the input list is never changed
        # A merge shortens the list; with none, the input itself comes back.
        assert (got is seq) == (len(got) == len(seq))

    @pytest.mark.parametrize(
        "seq, left, right, expected",
        [
            ([0, 0, 0], 0, 0, [9, 0]),  # no overlap: "a a a" becomes "aa a"
            ([0, 0, 0, 0], 0, 0, [9, 9]),
            ([0, 1, 0, 1], 0, 1, [9, 9]),
            ([0, 0, 1], 0, 1, [0, 9]),
            ([2, 0, 1], 0, 1, [2, 9]),
        ],
    )
    def test_hand_cases(self, seq, left, right, expected):
        assert _merge_in_place(seq, left, right, 9) == expected


# Each of these trainer mutants, tried in a scratch copy, fails at least one
# test of this class: a heap entry accepted when only its bucket still
# matches its pair's key (a stale entry), and a pair not pushed again after
# its product changed. So do three mutants of the grow-only indexes: a
# merged document not recorded in holding[new_id]; a document dropped from
# a token's set after a merge that left the token in it; and a newly
# counted pair not added to having. When an index misses a document, the
# min_pair_freq stop merges the same top pair forever, so run such mutants
# under a timeout; the target-size tests fail at once on a duplicate token.
# Mutants of _LazyArgmax.best's flat-score loop pass here and fail
# TestLazyArgmax instead (listed there): wordpiece scores tie exactly across
# counts or products only at token counts far beyond these corpora.
class TestMergeTrainersMatchFullRecount:
    """The incremental merge loop against oracle_train, step for step."""

    @given(merge_corpora(), st.integers(0, 12))
    def test_bpe_to_target_size(self, docs, extra):
        target = len(set("".join(docs))) + extra
        assert_same_training(
            bpe_train(docs, target_vocab_size=target), oracle_train(docs, target, None, "count")
        )

    @given(merge_corpora(), st.integers(1, 4))
    def test_bpe_min_pair_freq_stop(self, docs, freq):
        assert_same_training(
            bpe_train(docs, min_pair_freq=freq), oracle_train(docs, None, freq, "count")
        )

    @given(merge_corpora(), st.integers(0, 12))
    def test_wordpiece(self, docs, extra):
        target = len(set("".join(docs))) + extra
        assert_same_training(
            wordpiece_train(docs, target), oracle_train(docs, target, None, "likelihood")
        )

    @given(merge_corpora(), st.integers(0, 12), st.sampled_from([bpe_train, wordpiece_train]))
    def test_every_merge_adds_a_new_token(self, docs, extra, train):
        # So no merge repeats a token, and no two pairs spell the same bytes,
        # which lets the trainers break ties on the bytes alone.
        vocab, rules = train(docs, target_vocab_size=len(set("".join(docs))) + extra)
        assert len(vocab) == len(set("".join(docs))) + len(rules)

    def test_uncounted_occurrence_is_still_merged(self):
        # The sequential count of "aab" takes (a, a) and skips (a, b), but
        # (a, b) wins on the other documents and merges "aab" into a, ab.
        vocab, rules = bpe_train(["aab", "ab", "ab"], target_vocab_size=4)
        assert rules.as_pairs(vocab) == [(b"a", b"b"), (b"a", b"ab")]
        assert_same_training((vocab, rules), oracle_train(["aab", "ab", "ab"], 4, None, "count"))

    def test_one_character_documents_have_no_pairs(self):
        vocab, rules = bpe_train(["a", "b", "a"], min_pair_freq=1)
        assert list(vocab) == [b"a", b"b"]
        assert len(rules) == 0

    def test_corpus_of_repeated_words(self):
        rng = random.Random(3)
        words = ["".join(rng.choice("abcde") for _ in range(rng.randrange(1, 6))) for _ in range(40)]
        docs = [" ".join(rng.choice(words) for _ in range(rng.randrange(1, 12))) for _ in range(60)]
        for scorer, train in (("count", bpe_train), ("likelihood", wordpiece_train)):
            assert_same_training(train(docs, target_vocab_size=150), oracle_train(docs, 150, None, scorer))


class _EagerCompaction(_LazyArgmax):
    """Compacts at almost every step, so that the tests reach it."""

    _FLOOR = 2


def flat_runs(bucket: int, p: int) -> int:
    return bucket % 2 - p // 3  # ties across buckets, and within a bucket over runs of three


def strict(bucket: int, p: int) -> int:
    return -p  # bpe's score: never flat


def wordpiece_at_scale(bucket: int, p: int) -> float:
    # wordpiece's formula at a corpus length where x*ln(x) swamps the gap
    # between neighbouring products, so real floats are flat at some of them
    cab, product, corpus_len = bucket + 1, 998 + p, 10**12
    return cab * math.log(cab / product) - (corpus_len - cab) * math.log(corpus_len - cab)


# Each of these mutants of _LazyArgmax.best, tried in a scratch copy, fails
# a test of this class: the top taken without the flat check; the flat loop
# not pushing its entries back; the flat check at p - 1 instead of p + 1; and
# a tie across buckets going to the first bucket, not to the smaller label.
class TestLazyArgmax:
    """The trainers' argmax against a scan of every live item, under scores
    that tie across buckets and within a bucket, and one that never ties."""

    _OPS = st.lists(
        st.tuples(st.integers(0, 3), st.none() | st.tuples(st.integers(0, 2), st.integers(0, 5))),
        min_size=10,
        max_size=100,
    )

    @given(_OPS)
    def test_matches_scan(self, ops):
        for score in (flat_runs, strict, wordpiece_at_scale):
            self.check_against_scan(_LazyArgmax, score, ops)

    @given(_OPS)
    def test_matches_scan_compacting_at_every_step(self, ops):
        for score in (flat_runs, strict, wordpiece_at_scale):
            self.check_against_scan(_EagerCompaction, score, ops)

    def test_wordpiece_at_scale_is_flat_only_in_places(self):
        steps = [wordpiece_at_scale(b, p) == wordpiece_at_scale(b, p + 1) for b in range(3) for p in range(5)]
        assert any(steps) and not all(steps)

    def check_against_scan(self, argmax_class, score, ops):
        live: dict[int, tuple[int, int]] = {}
        argmax = argmax_class(lambda item: live.get(item, (-1, 0)), score)
        for item, key in ops:
            if key is None:
                live.pop(item, None)
            else:
                live[item] = key
                argmax.push(b"%d" % item, item)  # also when the key is unchanged
            expected = None
            if live:
                best = max(score(*k) for k in live.values())
                winner = min((i for i, k in live.items() if score(*k) == best), key=lambda i: b"%d" % i)
                expected = (best, b"%d" % winner, winner)
            assert argmax.best() == expected

    @pytest.mark.parametrize("train", [bpe_train, wordpiece_train])
    def test_best_pushes_nothing_back_where_no_score_is_flat(self, monkeypatch, train):
        # Every pair of these documents ties at the top count, over and over.
        # bpe's score is never flat, and wordpiece's is not at this corpus
        # size, so best() reads each top and calls heappush only via push().
        training = sys.modules["tokenlens.training"]
        calls = Counter()
        real_heappush = training.heappush

        def heappush(heap, entry):
            calls["heappush"] += 1
            real_heappush(heap, entry)

        class Recorder(_LazyArgmax):
            def push(self, label, item):
                calls["push"] += 1
                super().push(label, item)

        monkeypatch.setattr(training, "heappush", heappush)
        monkeypatch.setattr(training, "_LazyArgmax", Recorder)
        docs = ["ab cd ef gh"] * 30 + ["gh ef cd ab"] * 30
        _, rules = train(docs, target_vocab_size=len(set("".join(docs))) + 10)
        assert len(rules) == 10
        assert calls["heappush"] == calls["push"]

    def test_entries_track_live_items_over_a_long_run(self, monkeypatch):
        # Wordpiece pushes a pair again whenever a merge moves either
        # token's count: about 91,000 pushes for 1,500 merges here, which
        # without compaction peak at about 66,000 entries for some 3,200
        # live pairs.
        rng = random.Random(5)
        words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randrange(2, 9))) for _ in range(400)]
        docs = [" ".join(rng.choice(words) for _ in range(rng.randrange(1, 15))) for _ in range(400)]
        seen = Counter()  # peak entries, live items (every 10th step), pushes in a step

        class Recorder(_LazyArgmax):
            def push(self, label, item):
                seen["pushes"] += 1
                super().push(label, item)

            def best(self):
                seen["steps"] += 1
                seen["step_pushes"] = max(seen["step_pushes"], seen.pop("pushes", 0))
                seen["peak"] = max(seen["peak"], len(self))
                if seen["steps"] % 10 == 0:
                    live = {e[2] for b, heap in self._buckets.items() for e in heap if self._key(e[2]) == (b, e[0])}
                    seen["live"] = max(seen["live"], len(live))
                return super().best()

        monkeypatch.setattr(sys.modules["tokenlens.training"], "_LazyArgmax", Recorder)
        _, rules = wordpiece_train(docs, len(set("".join(docs))) + 1500)
        assert len(rules) == 1500
        # Some 3,200 live pairs, so twice that is above the floor.
        assert seen["peak"] <= 2 * seen["live"] + seen["step_pushes"]


# ---------------------------------------------------------------------------
# likelihood pieces


class TestUnigramLogLikelihood:
    def test_single_token_type(self):
        assert unigram_log_likelihood({"a": 3}) == 0.0

    def test_two_one(self):
        expected = 2 * math.log(2) - 3 * math.log(3)
        assert unigram_log_likelihood({"a": 2, "b": 1}) == pytest.approx(expected, abs=1e-12)
        assert round(expected, 4) == -1.9095

    def test_uniform_two(self):
        assert unigram_log_likelihood({"a": 1, "b": 1}) == pytest.approx(
            -2 * math.log(2), abs=1e-12
        )

    def test_empty_is_error(self):
        with pytest.raises(ToolkitError):
            unigram_log_likelihood({})

    def test_zero_count_is_error(self):
        with pytest.raises(ToolkitError):
            unigram_log_likelihood({"a": 0})


class TestWordpieceMergeScore:
    def test_hand_value(self):
        got = wordpiece_merge_score(2, 2, 2, 6)
        expected = 2 * math.log(2 / 4) - 4 * math.log(4)
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 4) == -6.9315

    def test_whole_corpus_merge_hits_xlogx_convention(self):
        assert wordpiece_merge_score(1, 1, 1, 1) == 0.0

    def test_preconditions(self):
        with pytest.raises(ToolkitError):
            wordpiece_merge_score(1, 1, 0, 4)
        with pytest.raises(ToolkitError):
            wordpiece_merge_score(1, 2, 2, 4)
        with pytest.raises(ToolkitError):
            wordpiece_merge_score(5, 5, 5, 4)

    @given(st.integers(1, 10**6), st.integers(0, 10**12), st.just(1) | st.integers(1, 10**9), st.integers(0, 10**9))
    def test_score_does_not_increase_with_product(self, cab, extra, k, more):
        """wordpiece_train's bucket argmax relies on this: at a fixed count,
        the score computed in floats never grows with the product, adjacent
        products included."""
        p = cab * cab + extra  # each token occurs at least cab times
        rest = cab + more  # |C| - cab: the pairs alone take 2 * cab tokens
        low = cab * math.log(cab / (p + k)) - rest * math.log(rest)
        high = cab * math.log(cab / p) - rest * math.log(rest)
        assert low <= high

    def test_abab_argmax_matches_full_likelihood_simulation(self):
        """The displayed score and an exhaustive 'simulate the merge, rescore
        the corpus likelihood' oracle must pick the same pair on 'abab'."""
        docs = [[b"a", b"b", b"a", b"b"]]
        pair_counts, tok_counts, total = oracle_pair_and_token_counts(docs)

        def display_score(p):
            cab = pair_counts[p]
            return wordpiece_merge_score(tok_counts[p[0]], tok_counts[p[1]], cab, total)

        def simulated_ll(p):
            merged = [oracle_apply_merge(doc, p[0], p[1]) for doc in docs]
            counts: dict[bytes, int] = {}
            for doc in merged:
                for t in doc:
                    counts[t] = counts.get(t, 0) + 1
            return unigram_log_likelihood(counts)

        by_display = min(pair_counts, key=lambda p: (-display_score(p), p[0] + p[1]))
        by_simulation = min(pair_counts, key=lambda p: (-simulated_ll(p), p[0] + p[1]))
        assert by_display == by_simulation == (b"a", b"b")


class TestWordpieceTrain:
    def test_single_possible_merge(self):
        vocab, rules = wordpiece_train(["aa"], 3)
        assert [(l.decode(), r.decode()) for l, r in rules.as_pairs(vocab)] == [("a", "a")]

    def test_every_choice_matches_oracle_on_random_corpora(self):
        rng = random.Random(99)
        for _ in range(25):
            docs = [
                "".join(rng.choice("abcd") for _ in range(rng.randrange(2, 30)))
            ]
            charset = len(set(docs[0]))
            vocab, rules = wordpiece_train(docs, charset + 5)
            state = [[c.encode() for c in doc] for doc in docs]
            for rule in rules:
                left = vocab.token(rule.left_id)
                right = vocab.token(rule.right_id)
                assert (left, right) == oracle_wordpiece_choice(state)
                state = [oracle_apply_merge(doc, left, right) for doc in state]


# ---------------------------------------------------------------------------
# unigram LM


class TestUnigramVocab:
    def test_probability_sum_checked(self):
        with pytest.raises(ToolkitError):
            UnigramVocab.from_probs({"a": 0.5, "b": 0.4})

    def test_from_frequencies_pins_token_set(self):
        uv = UnigramVocab.from_frequencies({"a": 3, "b": 1}, tokens=["a", "b", "ab"])
        assert uv.log_prob("a") == pytest.approx(math.log(0.75))
        assert uv.log_prob("ab") == float("-inf")

    def test_empty_is_error(self):
        with pytest.raises(ToolkitError):
            UnigramVocab({})

    def test_empty_token_is_error(self):
        with pytest.raises(ToolkitError, match="empty tokens are not allowed"):
            UnigramVocab({"": -1.0}, check=False)

    def test_from_zero_frequencies_is_error(self):
        with pytest.raises(ToolkitError, match="no token frequencies"):
            UnigramVocab.from_frequencies({"a": 0})


class TestUlmViterbi:
    def test_prefers_higher_probability_single_token(self):
        uv = UnigramVocab.from_probs({"a": 0.4, "b": 0.4, "ab": 0.2})
        assert ulm_viterbi_segment("ab", uv) == ["ab"]

    def test_single_token_repetition(self):
        uv = UnigramVocab.from_probs({"a": 1.0})
        assert ulm_viterbi_segment("aaa", uv) == ["a", "a", "a"]

    def test_score_tie_prefers_fewer_tokens(self):
        # ln(0.25) == 2*ln(0.5) holds bitwise, so these paths tie on score
        uv = UnigramVocab.from_probs({"a": 0.5, "aa": 0.25, "b": 0.25})
        assert ulm_viterbi_segment("aa", uv) == ["aa"]

    def test_score_and_count_tie_prefers_lexicographic_sequence(self):
        table = {"a": -1.0, "b": -1.0, "c": -1.0, "ab": -1.0, "bc": -1.0}
        uv = UnigramVocab(table, check=False)
        # ["a","bc"] and ["ab","c"] both score -2.0 with 2 tokens
        assert ulm_viterbi_segment("abc", uv) == ["a", "bc"]

    def test_oov_char_reports_char_and_offset(self):
        uv = UnigramVocab.from_probs({"a": 1.0})
        with pytest.raises(OovCharacterError) as exc:
            ulm_viterbi_segment("aza", uv)
        assert exc.value.char == "z"
        assert exc.value.offset == 1

    def test_position_no_token_ends_at_is_not_an_error(self):
        # No token ends after "a", but "ab" + "c" covers the text.
        uv = UnigramVocab({"ab": -1.0, "c": -1.0}, check=False)
        assert ulm_viterbi_segment("abc", uv) == ["ab", "c"]

    def test_unreachable_text_names_furthest_reachable_char(self):
        uv = UnigramVocab({"ab": -1.0, "c": -1.0}, check=False)
        with pytest.raises(OovCharacterError) as exc:
            ulm_viterbi_segment("abx", uv)
        assert (exc.value.char, exc.value.offset) == ("x", 2)

    def test_empty_text(self):
        uv = UnigramVocab.from_probs({"a": 1.0})
        assert ulm_viterbi_segment("", uv) == []

    def test_matches_enumeration_on_random_vocab(self):
        rng = random.Random(5)
        table = {"a": math.log(0.3), "b": math.log(0.2), "aa": math.log(0.2),
                 "ab": math.log(0.2), "ba": math.log(0.1)}
        uv = UnigramVocab(table, check=False)
        for _ in range(200):
            text = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 10)))
            assert ulm_viterbi_segment(text, uv) == list(oracle_best_segmentation(text, table))

    def test_matches_enumeration_under_exact_ties(self):
        table = {"a": -1.0, "b": -1.0, "aa": -2.0, "ab": -1.0, "ba": -3.0}
        uv = UnigramVocab(table, check=False)
        rng = random.Random(6)
        for _ in range(200):
            text = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 9)))
            assert ulm_viterbi_segment(text, uv) == list(oracle_best_segmentation(text, table))


@st.composite
def unigram_tables(draw, with_chars: bool = False):
    """Token log-probs from a few values, so exact score ties (ln values
    that add up to each other) and -inf tokens are common."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    tokens = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=4), max_size=10, unique=True))
    if with_chars:
        tokens = list(alphabet) + [t for t in tokens if len(t) > 1]
    elif not tokens:
        tokens = ["a"]
    lps = st.sampled_from([-0.5, -1.0, -1.5, -2.0, -3.0, float("-inf")])
    return alphabet, {t: draw(lps) for t in tokens}


def outcome(fn, *args):
    """fn's result, or its error type and location."""
    try:
        return fn(*args)
    except OovCharacterError as exc:
        return ("oov", exc.char, exc.offset)


class TestUlmMatchesOracles:
    @given(unigram_tables(), st.data())
    def test_viterbi(self, case, data):
        alphabet, table = case
        text = data.draw(st.text(alphabet=alphabet, max_size=14))
        uv = UnigramVocab(table, check=False)
        assert outcome(ulm_viterbi_segment, text, uv) == outcome(oracle_viterbi_segment, text, uv)

    @given(unigram_tables(), st.data())
    def test_viterbi_against_enumeration(self, case, data):
        """Tables may leave out single characters: the result is the best of
        every segmentation or, when there is none, an OovCharacterError at
        the furthest offset that some token path reaches."""
        alphabet, table = case
        text = data.draw(st.text(alphabet=alphabet + "x", max_size=10))
        uv = UnigramVocab(table, check=False)
        expected = oracle_best_segmentation(text, table)
        if expected is None:
            p = max(i for i in range(len(text)) if oracle_enumerate_segmentations(text[:i], table))
            expected = ("oov", text[p], p)
        else:
            expected = list(expected)
        assert outcome(ulm_viterbi_segment, text, uv) == expected

    @given(unigram_tables(with_chars=True), st.data())
    def test_prune_random_tables(self, case, data):
        """Documents are often whole tokens strung together, so candidates
        start at offset 0, end at the end, and occur more than once."""
        alphabet, table = case
        glued = st.lists(st.sampled_from(sorted(table)), max_size=4).map("".join)
        doc = st.text(alphabet=alphabet, max_size=8) | glued
        docs = data.draw(st.lists(doc, min_size=1, max_size=3).filter(any))
        uv = UnigramVocab(table, check=False)
        target = data.draw(st.integers(len(alphabet), len(uv)))
        got = ulm_prune(uv, docs, target)
        expected = oracle_prune(uv, docs, target)
        assert [(t, got.log_prob(t)) for t in got] == [(t, expected.log_prob(t)) for t in expected]

    @given(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=10), min_size=1, max_size=3),
        st.integers(2, 4),
        st.integers(0, 4),
    )
    def test_prune_seeded_multi_step(self, docs, max_len, steps):
        seed = ulm_seed(docs, max_token_len=max_len, seed_size=None)
        n_chars = len(set("".join(docs)))
        target = max(n_chars, len(seed) - steps)
        got = ulm_prune(seed, docs, target)
        expected = oracle_prune(seed, docs, target)
        assert [(t, got.log_prob(t)) for t in got] == [(t, expected.log_prob(t)) for t in expected]


@st.composite
def prune_corpora(draw):
    """A unigram table and a corpus for ulm_prune. Documents repeat, and are
    often whole tokens glued together, so that a removal moves the counts of
    other tokens, often down to zero. In a mirrored case every token and
    document over "ab" has an image over "cd", so each candidate ties
    exactly with its image. A token of characters no document holds has no
    users, and -inf tokens rarely have any."""
    lps = st.sampled_from([-0.5, -1.0, -1.5, -2.0, float("-inf")])
    multi = draw(st.lists(st.text(alphabet="ab", min_size=2, max_size=4), max_size=6, unique=True))
    table = {t: draw(lps) for t in ["a", "b"] + multi}
    glued = st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=5).map("".join)
    pool = draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=10) | glued, min_size=1, max_size=3))
    docs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if draw(st.booleans()):
        image = str.maketrans("ab", "cd")
        table |= {t.translate(image): lp for t, lp in table.items()}
        docs += [doc.translate(image) for doc in docs]
    if draw(st.booleans()):
        table["xy"] = draw(lps)
    return table, docs


# Each of these mutants, tried on a copy of the code, fails this class: a
# delta that drops a token whose count fell to zero; a walk-back that stops
# at the first meeting point, or at one at j0, rather than below j0; the
# shared-token skip stepping only the new path; the total not moved by the
# delta; an old term added, not negated; the winner's delta not applied.
class TestUlmPruneMatchesRecount:
    """ulm_prune's count deltas and fsum scores against the whole recount."""

    @given(prune_corpora(), st.data())
    def test_prune(self, case, data):
        table, docs = case
        uv = UnigramVocab(table, check=False)
        target = data.draw(st.integers(sum(len(t) == 1 for t in table), len(uv)))
        got = ulm_prune(uv, docs, target)
        expected = oracle_prune_by_recount(uv, docs, target)
        assert [(t, got.log_prob(t)) for t in got] == [(t, expected.log_prob(t)) for t in expected]

    @given(prune_corpora())
    def test_count_delta_is_the_difference_of_whole_paths(self, case):
        table, docs = case
        prefixes = UnigramVocab(table, check=False)._prefixes
        for doc in docs:
            lattice = _lattice(doc, prefixes)
            score, n_tokens, back = _forward(doc, lattice)
            old = Counter(_path(doc, back, len(doc)))
            for t in sorted(old):
                if len(t) == 1:
                    continue
                j0 = doc.find(t) + len(t)
                pad = len(doc) + 1 - j0
                arrays = score[:j0] + [None] * pad, n_tokens[:j0] + [0] * pad, back[:j0] + [0] * pad
                _forward(doc, lattice[j0 - 1 :], t, arrays, j0)
                delta: dict[str, int] = {}
                _count_delta(doc, back, arrays[2], j0, delta)
                expected = Counter(_path(doc, arrays[2], len(doc)))
                expected.subtract(old)
                assert {k: v for k, v in delta.items() if v} == {k: v for k, v in expected.items() if v}

    def test_tied_candidates_go_to_the_smaller_bytes(self):
        # "ab" and its image "cd" tie exactly; "xy" has no users.
        table = {"a": -1.0, "b": -1.0, "c": -1.0, "d": -1.0, "cd": -1.0, "ab": -1.0, "xy": -0.5}
        uv = UnigramVocab(table, check=False)
        pruned = ulm_prune(uv, ["abab", "cdcd"], 6)
        assert pruned.tokens() == ["a", "b", "c", "d", "cd", "ab"]
        pruned = ulm_prune(uv, ["abab", "cdcd"], 5)
        assert pruned.tokens() == ["a", "b", "c", "d", "cd"]
        assert pruned.tokens() == oracle_prune_by_recount(uv, ["abab", "cdcd"], 5).tokens()

    def test_a_token_whose_count_falls_to_zero(self):
        # Without "abc", "xabcd" is best read "xa", "bcd": "x" and "d" are
        # used no more.
        table = {"a": -3.0, "b": -3.0, "c": -3.0, "d": -0.5, "x": -0.5, "abc": -0.2, "xa": -1.0, "bcd": -1.0}
        uv = UnigramVocab(table, check=False)
        assert ulm_viterbi_segment("xabcd", uv) == ["x", "abc", "d"]
        reduced = UnigramVocab({t: lp for t, lp in table.items() if t != "abc"}, check=False)
        assert ulm_viterbi_segment("xabcd", reduced) == ["xa", "bcd"]
        for target in (7, 6, 5):
            got = ulm_prune(uv, ["xabcd", "xa"], target)
            expected = oracle_prune_by_recount(uv, ["xabcd", "xa"], target)
            assert [(t, got.log_prob(t)) for t in got] == [(t, expected.log_prob(t)) for t in expected]


# Each of these prune mutants, tried in a scratch copy, fails
# test_prune_random_tables or test_prune_seeded_multi_step: restarting a
# candidate's DP one position late (after the end of its first occurrence)
# or from the end of its last occurrence.


class TestUlmPrune:
    def test_sole_removable_token_removed(self):
        uv = UnigramVocab.from_probs({"a": 0.25, "b": 0.25, "ab": 0.5})
        pruned = ulm_prune(uv, ["ab"], 2)
        assert set(pruned.tokens()) == {"a", "b"}
        assert pruned.log_prob("a") == pytest.approx(math.log(0.5))

    def test_target_equal_to_size_returns_vocab_unchanged(self):
        uv = UnigramVocab.from_probs({"a": 0.5, "b": 0.5})
        pruned = ulm_prune(uv, ["ab"], 2)
        assert pruned.tokens() == uv.tokens()
        assert [pruned.log_prob(t) for t in pruned.tokens()] == [
            uv.log_prob(t) for t in uv.tokens()
        ]

    def test_target_above_size_is_error(self):
        uv = UnigramVocab.from_probs({"a": 0.5, "b": 0.5})
        with pytest.raises(ToolkitError):
            ulm_prune(uv, ["ab"], 3)

    def test_target_below_single_char_count_is_error(self):
        uv = UnigramVocab.from_probs({"a": 0.5, "b": 0.5})
        with pytest.raises(ToolkitError):
            ulm_prune(uv, ["ab"], 1)

    def test_single_chars_survive_even_when_useless(self):
        uv = UnigramVocab.from_probs({"a": 0.2, "b": 0.2, "ab": 0.6})
        pruned = ulm_prune(uv, ["abab"], 2)
        assert set(pruned.tokens()) == {"a", "b"}

    def test_removal_choice_matches_brute_force(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(40):
            docs = [
                "".join(rng.choice("abc") for _ in range(rng.randrange(2, 10)))
                for _ in range(rng.randrange(1, 3))
            ]
            seed = ulm_seed(docs, max_token_len=3, seed_size=rng.randrange(6, 12))
            if len(seed) > 20 or all(len(t) == 1 for t in seed.tokens()):
                continue
            table = {t: seed.log_prob(t) for t in seed.tokens()}
            expected = oracle_prune_choice(table, docs)
            pruned = ulm_prune(seed, docs, len(seed) - 1)
            removed = set(seed.tokens()) - set(pruned.tokens())
            assert removed == {expected}
            checked += 1
        assert checked >= 20

    def test_multi_step_matches_oracle_replay(self):
        docs = ["abab", "ab", "ba"]
        seed = ulm_seed(docs, max_token_len=4)
        target = len(seed) - 3
        pruned = ulm_prune(seed, docs, target)

        table = {t: seed.log_prob(t) for t in seed.tokens()}
        for _ in range(3):
            choice = oracle_prune_choice(table, docs)
            survivors = [t for t in table if t != choice]
            counts: dict[str, int] = {}
            for doc in docs:
                seg = oracle_best_segmentation(doc, {t: table[t] for t in survivors})
                for tok in seg:
                    counts[tok] = counts.get(tok, 0) + 1
            total = sum(counts.values())
            table = {
                t: (math.log(counts[t] / total) if counts.get(t) else float("-inf"))
                for t in survivors
            }
        assert set(pruned.tokens()) == set(table)
        for t in pruned.tokens():
            assert pruned.log_prob(t) == pytest.approx(table[t], abs=1e-12)


    def test_oov_reports_first_character_in_corpus_order(self):
        uv = UnigramVocab.from_probs({"a": 0.25, "b": 0.25, "ab": 0.5})
        with pytest.raises(OovCharacterError) as exc:
            ulm_prune(uv, ["ab", "abxyz"], 2)
        assert (exc.value.char, exc.value.offset) == ("x", 2)

    def test_oov_report_does_not_depend_on_hash_seed(self):
        # Set iteration order depends on PYTHONHASHSEED; the report must not.
        src = os.path.dirname(os.path.dirname(os.path.abspath(tokenlens.__file__)))
        script = (
            "from tokenlens.errors import OovCharacterError\n"
            "from tokenlens.training import UnigramVocab, ulm_prune\n"
            "uv = UnigramVocab.from_probs({'a': 0.25, 'b': 0.25, 'ab': 0.5})\n"
            "try:\n"
            "    ulm_prune(uv, ['abxyz'], 2)\n"
            "except OovCharacterError as exc:\n"
            "    print(exc.char, exc.offset)\n"
        )
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            ).stdout
            assert out == "x 2\n"


class TestUlmSeed:
    def test_contains_all_chars(self):
        seed = ulm_seed(["hello"], max_token_len=3)
        for ch in "helo":
            assert ch in seed

    def test_seed_size_cap(self):
        seed = ulm_seed(["abcabc"], max_token_len=4, seed_size=5)
        assert len(seed) == 5

    def test_seed_size_below_charset_is_error(self):
        with pytest.raises(ToolkitError):
            ulm_seed(["abc"], seed_size=2)

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_token_len_below_one_is_error(self, max_len):
        with pytest.raises(ToolkitError, match=f"max_token_len must be at least 1, got {max_len}"):
            ulm_seed(["abc"], max_token_len=max_len)


class TestProbsFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        uv = UnigramVocab({"b": -0.5, "\u00e9": -1.0, "ab": float("-inf")}, check=False)
        path = str(tmp_path / "u.probs.json")
        save_probs(uv, path)
        with open(path, "rb") as f:
            first = f.read()
        assert first == b'{\n"b": -0.5,\n"\\u00e9": -1.0,\n"ab": -Infinity\n}\n'
        again = load_probs(path)
        assert [(t, again.log_prob(t)) for t in again] == [(t, uv.log_prob(t)) for t in uv]
        save_probs(again, path)
        with open(path, "rb") as f:
            assert f.read() == first

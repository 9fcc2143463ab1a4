"""Subword segmenter training: byte-pair merging, likelihood-scored merging,
and unigram-LM vocabulary pruning.

All algorithms are character-level and corpus-global. There is no whitespace
pre-tokenization: every character, separators included, is an ordinary symbol.
Pair counts are sequential (non-overlapping): after counting a pair whose two
tokens are equal, the scan resumes past both, so "a a a a" contains (a,a)
twice, not three times. Pairs never span document boundaries.

Determinism: every argmax breaks ties toward the lexicographically smallest
concatenated byte string, and all logarithms are natural.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import OovCharacterError, ToolkitError, UnsegmentableError
from .vocab import MergeRule, MergeRuleList, Vocabulary

__all__ = [
    "count_adjacent_pairs",
    "bpe_train",
    "bpe_encode",
    "unigram_log_likelihood",
    "wordpiece_merge_score",
    "wordpiece_train",
    "UnigramVocab",
    "ulm_viterbi_segment",
    "ulm_prune",
    "ulm_seed",
]


def count_adjacent_pairs(sequences: Iterable[list[int]]) -> Counter:
    """Sequential adjacent-pair counts over per-document token-id sequences."""
    counts: Counter = Counter()
    for seq in sequences:
        i = 0
        last = len(seq) - 1
        while i < last:
            a = seq[i]
            b = seq[i + 1]
            counts[(a, b)] += 1
            i += 2 if a == b else 1
    return counts


def _char_documents(corpus: Iterable[str]) -> list[str]:
    docs = [doc for doc in corpus if doc != ""]
    if not docs:
        raise ToolkitError("corpus is empty")
    return docs


def _initial_segmentation(docs: list[str]) -> tuple[Vocabulary, list[list[int]]]:
    # Initial vocabulary: every distinct character, id order = byte order.
    chars = sorted({ch for doc in docs for ch in doc}, key=lambda c: c.encode("utf-8"))
    vocab = Vocabulary([c.encode("utf-8") for c in chars])
    lookup = {c: i for i, c in enumerate(chars)}
    segmented = [[lookup[ch] for ch in doc] for doc in docs]
    return vocab, segmented


def _merge_in_place(seq: list[int], left: int, right: int, new_id: int) -> list[int]:
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


def _best_pair(
    scored: dict[tuple[int, int], float | int], vocab: Vocabulary
) -> tuple[int, int]:
    """Argmax over pairs; ties go to the smallest concatenated byte string."""
    best = None
    best_key = None
    for pair, score in scored.items():
        concat = vocab.token(pair[0]) + vocab.token(pair[1])
        key = (-score, concat)
        if best_key is None or key < best_key:
            best_key = key
            best = pair
    assert best is not None
    return best


def _train(
    corpus: Iterable[str],
    target_vocab_size: int | None,
    min_pair_freq: int | None,
    scorer: str,
) -> tuple[Vocabulary, MergeRuleList]:
    if (target_vocab_size is None) == (min_pair_freq is None):
        raise ToolkitError("exactly one of target_vocab_size and min_pair_freq is required")
    if min_pair_freq is not None and min_pair_freq < 1:
        raise ToolkitError("min_pair_freq must be at least 1")

    docs = _char_documents(corpus)
    vocab, segmented = _initial_segmentation(docs)
    if target_vocab_size is not None and target_vocab_size < len(vocab):
        raise ToolkitError(
            f"target_vocab_size {target_vocab_size} is below the "
            f"{len(vocab)} distinct characters in the corpus"
        )

    rules = MergeRuleList()
    while target_vocab_size is None or len(vocab) < target_vocab_size:
        counts = count_adjacent_pairs(segmented)
        if not counts:
            break
        if scorer == "count":
            if min_pair_freq is not None and max(counts.values()) < min_pair_freq:
                break
            chosen = _best_pair(counts, vocab)
        else:
            token_counts: Counter = Counter()
            for seq in segmented:
                token_counts.update(seq)
            corpus_len = sum(token_counts.values())
            scores = {
                (a, b): wordpiece_merge_score(
                    token_counts[a], token_counts[b], cab, corpus_len
                )
                for (a, b), cab in counts.items()
            }
            chosen = _best_pair(scores, vocab)
        left, right = chosen
        new_id = vocab.get_or_add(vocab.token(left) + vocab.token(right))
        rules.append(MergeRule(left, right, new_id))
        segmented = [_merge_in_place(seq, left, right, new_id) for seq in segmented]
    return vocab, rules


def bpe_train(
    corpus: Iterable[str],
    target_vocab_size: int | None = None,
    min_pair_freq: int | None = None,
) -> tuple[Vocabulary, MergeRuleList]:
    """Byte-pair training: repeatedly merge the most frequent adjacent pair.

    Exactly one stop rule must be given: a vocabulary size to reach, or the
    frequency below which no pair is worth merging. Running out of pairs
    before reaching target_vocab_size is not an error.
    """
    return _train(corpus, target_vocab_size, min_pair_freq, scorer="count")


def wordpiece_train(
    corpus: Iterable[str], target_vocab_size: int
) -> tuple[Vocabulary, MergeRuleList]:
    """Like bpe_train, but each step merges the pair maximizing the
    likelihood-gain score wordpiece_merge_score instead of the raw count."""
    return _train(corpus, target_vocab_size, None, scorer="likelihood")


def bpe_encode(text: str, vocab: Vocabulary, rules: MergeRuleList) -> list[int]:
    """Segment text with merge rules, exactly as replaying them would.

    Replay semantics: starting from the characters of text, each rule in rank
    order merges every occurrence of its pair in one left-to-right pass
    without overlap ("a a a" becomes "aa a"), and a rule never runs again
    after its rank has passed. So duplicate pairs fire once at each of their
    ranks, and a rule whose operand only a later rule produces never fires.
    Characters missing from the vocabulary raise OovCharacterError.

    Cost: rules whose pair does not occur in the current sequence change
    nothing, so only the rules that do are applied. Each step scans the
    adjacent pairs for the lowest rank not yet passed, through
    MergeRuleList.rank_index, and applies that one rule. A text of n
    characters costs O(n) per merge applied, whatever the number of rules.
    """
    if text == "":
        return []
    seq = []
    for offset, ch in enumerate(text):
        tid = vocab.get(ch.encode("utf-8"))
        if tid is None:
            raise OovCharacterError(ch, offset)
        seq.append(tid)
    first, later = rules.rank_index()
    no_rule = len(rules)
    floor = 0  # ranks below this have been replayed
    while len(seq) > 1:
        best = no_rule
        for a, b in zip(seq, seq[1:]):
            key = a << 32 | b
            rank = first.get(key)
            if rank is None or rank >= best:
                continue
            if rank < floor:
                ranks = later.get(key)
                if ranks is None:
                    continue
                i = bisect_left(ranks, floor)
                if i == len(ranks) or ranks[i] >= best:
                    continue
                rank = ranks[i]
            best = rank
        if best == no_rule:
            break
        rule = rules[best]
        seq = _merge_in_place(seq, rule.left_id, rule.right_id, rule.new_id)
        floor = best + 1
    return seq


def _xlogx(x: float) -> float:
    return 0.0 if x == 0 else x * math.log(x)


def unigram_log_likelihood(token_counts: Mapping[object, int]) -> float:
    """Corpus log-likelihood under maximum-likelihood unigram probabilities:
    sum of c*ln(c) over token counts, minus total*ln(total)."""
    if not token_counts:
        raise ToolkitError("token_counts is empty")
    total = 0
    for count in token_counts.values():
        if count < 1:
            raise ToolkitError(f"token counts must be >= 1, got {count}")
        total += count
    # fsum is correctly rounded, so the result cannot depend on count order
    terms = math.fsum(c * math.log(c) for c in token_counts.values())
    return terms - total * math.log(total)


def wordpiece_merge_score(
    count_a: int, count_b: int, count_ab: int, corpus_len: int
) -> float:
    """Likelihood gain of merging adjacent pair (a, b) into one token:

        #ab * ln(#ab / (#a * #b)) - (|C| - #ab) * ln(|C| - #ab)

    with the x*ln(x) = 0 convention at x = 0.
    """
    if count_ab < 1:
        raise ToolkitError("count_ab must be >= 1")
    if count_ab > min(count_a, count_b):
        raise ToolkitError("count_ab cannot exceed count_a or count_b")
    if count_ab > corpus_len:
        raise ToolkitError("count_ab cannot exceed corpus_len")
    return count_ab * math.log(count_ab / (count_a * count_b)) - _xlogx(
        corpus_len - count_ab
    )


_NEG_INF = float("-inf")

# Every finite double is an integer multiple of 2**-1074, so log-probs can
# be carried as exact integer counts of that unit. Sums of such integers are
# exact, which keeps segmentation ties independent of summation order.
_UNIT_BITS = 1074


def _log_prob_units(lp: float) -> int | float:
    if lp == _NEG_INF:
        return lp
    num, den = lp.as_integer_ratio()
    return (num << _UNIT_BITS) // den  # den divides 2**_UNIT_BITS, so exact


class UnigramVocab:
    """Unigram-LM vocabulary: token strings with log-probabilities.

    Ids follow token insertion order. Tokens estimated to zero frequency
    carry log-probability -inf; probabilities of a freshly estimated vocab
    sum to 1 within 1e-9.
    """

    def __init__(self, log_probs: dict[str, float], check: bool = True):
        if not log_probs:
            raise ToolkitError("unigram vocabulary is empty")
        for tok in log_probs:
            if tok == "":
                raise ToolkitError("empty tokens are not allowed")
        self._log_probs = dict(log_probs)
        self._tokens = list(self._log_probs)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        self._units = {t: _log_prob_units(lp) for t, lp in self._log_probs.items()}
        if check:
            total = math.fsum(math.exp(lp) for lp in self._log_probs.values())
            if abs(total - 1.0) > 1e-9:
                raise ToolkitError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_probs(cls, probs: dict[str, float]) -> "UnigramVocab":
        return cls(
            {t: (math.log(p) if p > 0 else float("-inf")) for t, p in probs.items()}
        )

    @classmethod
    def from_frequencies(
        cls, freqs: Mapping[str, int], tokens: Iterable[str] | None = None
    ) -> "UnigramVocab":
        """Relative-frequency estimation. The optional tokens argument pins
        the token set; tokens absent from freqs get probability zero."""
        token_list = list(tokens) if tokens is not None else list(freqs)
        total = sum(freqs.get(t, 0) for t in token_list)
        if total <= 0:
            raise ToolkitError("no token frequencies to estimate from")
        log_total = math.log(total)
        lps = {}
        for t in token_list:
            f = freqs.get(t, 0)
            lps[t] = math.log(f) - log_total if f > 0 else float("-inf")
        return cls(lps)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._log_probs

    def __iter__(self):
        return iter(self._tokens)

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def log_prob(self, token: str) -> float:
        return self._log_probs[token]

    def id_of(self, token: str) -> int:
        return self._ids[token]

    def max_token_len(self) -> int:
        return max(len(t) for t in self._tokens)


def ulm_viterbi_segment(text: str, vocab: UnigramVocab) -> list[str]:
    """Highest-log-probability segmentation of text over vocab tokens.

    Ties break toward fewer tokens, then toward the lexicographically
    smallest token sequence. A position no token can reach raises
    OovCharacterError for single characters, UnsegmentableError otherwise.
    """
    if text == "":
        return []
    n = len(text)
    max_len = vocab.max_token_len()
    units = vocab._units
    # best[j]: (score, n_tokens, tokens) for text[:j], or None if unreachable.
    # Scores are exact unit counts (see _log_prob_units), so a path's score
    # depends only on its token multiset and reorderings tie exactly.
    best: list[tuple[int | float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0, 0, ())
    for j in range(1, n + 1):
        cand = None
        for i in range(max(0, j - max_len), j):
            prev = best[i]
            if prev is None:
                continue
            piece = text[i:j]
            if piece not in vocab:
                continue
            piece_units = units[piece]
            if prev[0] == _NEG_INF or piece_units == _NEG_INF:
                score: int | float = _NEG_INF
            else:
                score = prev[0] + piece_units
            entry = (score, prev[1] + 1, prev[2] + (piece,))
            if (
                cand is None
                or entry[0] > cand[0]
                or (entry[0] == cand[0] and (entry[1], entry[2]) < (cand[1], cand[2]))
            ):
                cand = entry
        best[j] = cand
        if cand is None:
            ch = text[j - 1]
            if (j - 1 == 0 or best[j - 1] is not None) and ch not in vocab:
                raise OovCharacterError(ch, j - 1)
            raise UnsegmentableError(text, j - 1)
    final = best[n]
    assert final is not None
    return list(final[2])


def _segment_counts(docs: list[str], vocab: UnigramVocab) -> tuple[list[list[str]], Counter]:
    segs = [ulm_viterbi_segment(doc, vocab) for doc in docs]
    counts: Counter = Counter()
    for seg in segs:
        counts.update(seg)
    return segs, counts


def ulm_prune(vocab: UnigramVocab, corpus: Iterable[str], target_size: int) -> UnigramVocab:
    """Shrink a unigram vocabulary to target_size, one token at a time.

    Each step removes the multi-character token whose removal least decreases
    the corpus log-likelihood, where the likelihood of a candidate vocabulary
    is obtained by re-segmenting the corpus (current log-probs, survivors
    only) and scoring the resulting counts with unigram_log_likelihood.
    After each removal the probabilities are re-estimated from the winning
    segmentation's relative frequencies. Single-character tokens are never
    removed; ties remove the lexicographically smallest token.
    """
    docs = _char_documents(corpus)
    tokens = vocab.tokens()
    n_required = sum(1 for t in tokens if len(t) == 1)
    if target_size > len(tokens):
        raise ToolkitError(
            f"target_size {target_size} exceeds current vocabulary size {len(tokens)}"
        )
    if target_size < n_required:
        raise ToolkitError(
            f"target_size {target_size} is below the {n_required} single-character tokens"
        )
    for ch in {c for doc in docs for c in doc}:
        if ch not in vocab:
            raise OovCharacterError(ch, -1)

    current = vocab
    while len(current) > target_size:
        segs, _ = _segment_counts(docs, current)
        doc_counters = [Counter(seg) for seg in segs]
        total_counts: Counter = Counter()
        for dc in doc_counters:
            total_counts.update(dc)

        best_token = None
        best_ll = None
        best_state: tuple[list[list[str]], Counter] | None = None
        for t in current.tokens():
            if len(t) == 1:
                continue
            reduced = UnigramVocab(
                {tok: current.log_prob(tok) for tok in current.tokens() if tok != t},
                check=False,
            )
            # Docs whose current optimum avoids t keep their segmentation.
            new_segs = []
            new_counts = Counter(total_counts)
            for doc, seg, dc in zip(docs, segs, doc_counters):
                if dc[t] == 0:
                    new_segs.append(seg)
                    continue
                reseg = ulm_viterbi_segment(doc, reduced)
                new_segs.append(reseg)
                new_counts.subtract(dc)
                new_counts.update(reseg)
            new_counts = +new_counts  # drop zero entries
            ll = unigram_log_likelihood(new_counts)
            if (
                best_ll is None
                or ll > best_ll
                or (ll == best_ll and t.encode("utf-8") < best_token.encode("utf-8"))
            ):
                best_token = t
                best_ll = ll
                best_state = (new_segs, new_counts)
        if best_token is None:
            raise ToolkitError(
                f"only single-character tokens remain at size {len(current)}; "
                f"target_size {target_size} is unreachable"
            )
        assert best_state is not None
        _, counts = best_state
        survivors = [t for t in current.tokens() if t != best_token]
        current = UnigramVocab.from_frequencies(counts, tokens=survivors)
    return current


def ulm_seed(
    corpus: Iterable[str], max_token_len: int = 8, seed_size: int | None = None
) -> UnigramVocab:
    """Seed vocabulary for ulm_prune: every character plus the most frequent
    substrings of length 2..max_token_len (overlapping counts), capped at
    seed_size tokens, probabilities proportional to occurrence counts."""
    docs = _char_documents(corpus)
    counts: Counter = Counter()
    for doc in docs:
        n = len(doc)
        for i in range(n):
            for j in range(i + 1, min(i + max_token_len, n) + 1):
                counts[doc[i : j]] += 1
    chars = sorted({c for doc in docs for c in doc})
    multi = [t for t in counts if len(t) > 1]
    multi.sort(key=lambda t: (-counts[t], t))
    if seed_size is not None:
        if seed_size < len(chars):
            raise ToolkitError(
                f"seed_size {seed_size} is below the {len(chars)} distinct characters"
            )
        multi = multi[: seed_size - len(chars)]
    freqs = {t: counts[t] for t in chars + multi}
    return UnigramVocab.from_frequencies(freqs, tokens=chars + multi)

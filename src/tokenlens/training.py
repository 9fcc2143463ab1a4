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
from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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


def _initial_segmentation(docs: list[str]) -> tuple[list[bytes], list[list[int]]]:
    # Initial tokens: every distinct character, id order = byte order.
    chars = sorted({ch for doc in docs for ch in doc}, key=lambda c: c.encode("utf-8"))
    lookup = {c: i for i, c in enumerate(chars)}
    segmented = [[lookup[ch] for ch in doc] for doc in docs]
    return [c.encode("utf-8") for c in chars], segmented


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


def _train(
    corpus: Iterable[str],
    target_vocab_size: int | None,
    min_pair_freq: int | None,
    scorer: str,
) -> tuple[Vocabulary, MergeRuleList]:
    """Shared merge loop of bpe_train and wordpiece_train.

    The pair counts are kept incrementally: a merge re-merges and recounts
    only the documents where its pair is adjacent, so a step costs the
    length of those documents plus one scan of the distinct pairs for the
    argmax, not a recount of the whole corpus. The counts, and so every
    choice, are those of count_adjacent_pairs over the whole corpus.
    """
    if (target_vocab_size is None) == (min_pair_freq is None):
        raise ToolkitError("exactly one of target_vocab_size and min_pair_freq is required")
    if min_pair_freq is not None and min_pair_freq < 1:
        raise ToolkitError("min_pair_freq must be at least 1")

    docs = _char_documents(corpus)
    tokens, segmented = _initial_segmentation(docs)
    if target_vocab_size is not None and target_vocab_size < len(tokens):
        raise ToolkitError(
            f"target_vocab_size {target_vocab_size} is below the "
            f"{len(tokens)} distinct characters in the corpus"
        )

    counts = count_adjacent_pairs(segmented)
    # pair -> documents where it is adjacent, counted or not: the sequential
    # count of [a, a, b] skips (a, b), but merging (a, b) still changes it.
    where: dict[tuple[int, int], set[int]] = defaultdict(set)
    for d, seq in enumerate(segmented):
        for pair in zip(seq, seq[1:]):
            where[pair].add(d)
    concat: dict[tuple[int, int], bytes] = {}  # tokens never change
    if scorer == "likelihood":
        token_counts = Counter(tid for seq in segmented for tid in seq)
        corpus_len = sum(len(seq) for seq in segmented)

    rules: list[MergeRule] = []
    while target_vocab_size is None or len(tokens) < target_vocab_size:
        if not counts:
            break
        if scorer == "count":
            top = max(counts.values())
            if min_pair_freq is not None and top < min_pair_freq:
                break
            tied = [pair for pair, cab in counts.items() if cab == top]
        else:
            tied = _wordpiece_best(counts, token_counts, corpus_len)
        # A string standing as two whole tokens at two places has been merged
        # identically at both (merges cannot cross its ends there), so no two
        # pairs spell the same bytes: the concatenation breaks every tie, and
        # every merge adds a new token (Vocabulary rejects a repeat).
        for pair in tied:
            if pair not in concat:
                concat[pair] = tokens[pair[0]] + tokens[pair[1]]
        chosen = min(tied, key=concat.__getitem__)
        left, right = chosen
        new_id = len(tokens)
        tokens.append(concat[chosen])
        rules.append(MergeRule(left, right, new_id))

        # One left-to-right pass removes every adjacent (left, right).
        touched = list(where.pop(chosen))
        old = [segmented[d] for d in touched]
        new = [_merge_in_place(seq, left, right, new_id) for seq in old]
        for pair, cab in count_adjacent_pairs(old).items():
            rest = counts[pair] - cab
            if rest:
                counts[pair] = rest
            else:
                del counts[pair]
        counts.update(count_adjacent_pairs(new))
        merged = 0
        for d, before, after in zip(touched, old, new):
            segmented[d] = after
            merged += len(before) - len(after)
            was = set(zip(before, before[1:]))
            now = set(zip(after, after[1:]))
            for pair in was - now:
                doc_ids = where.get(pair)
                if doc_ids is not None:
                    doc_ids.discard(d)
                    if not doc_ids:
                        del where[pair]
            for pair in now - was:
                where[pair].add(d)
        if scorer == "likelihood":
            token_counts[left] -= merged
            token_counts[right] -= merged
            token_counts[new_id] += merged
            corpus_len -= merged
    return Vocabulary(tokens), MergeRuleList(rules)


def _wordpiece_best(
    counts: Mapping[tuple[int, int], int], token_counts: Mapping[int, int], corpus_len: int
) -> list[tuple[int, int]]:
    """The pairs of highest wordpiece_merge_score, computed inline with the
    same operations in the same order, so scores are bit-identical."""
    log = math.log
    # the second term depends on cab alone, so compute it once per value
    rest_xlogx = {cab: _xlogx(corpus_len - cab) for cab in set(counts.values())}
    best = -math.inf
    tied: list[tuple[int, int]] = []
    for (a, b), cab in counts.items():
        score = cab * log(cab / (token_counts[a] * token_counts[b])) - rest_xlogx[cab]
        if score > best:
            best = score
            tied = [(a, b)]
        elif score == best:
            tied.append((a, b))
    return tied


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

    Cost: the text is a linked list of symbols, and a heap holds one
    (rank, position, version) entry per adjacent pair that still has a rule
    to come: the lowest rank, through MergeRuleList.rank_index, at or above
    the floor in force when the pair was made. Popping in that order runs
    each rank as one left-to-right pass; a merge at rank r pushes its two new
    neighbour pairs with floor r + 1, and an entry whose position has changed
    since it was pushed is skipped. A text of n characters costs
    O((n + merges applied) log n), whatever the number of rules.
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
    n = len(seq)
    nxt = list(range(1, n + 1))  # n: no right neighbour
    prv = list(range(-1, n - 1))  # -1: no left neighbour
    version = [0] * n  # bumped whenever the pair starting at a position changes
    heap = []
    for pos in range(n - 1):
        rank = first.get(seq[pos] << 32 | seq[pos + 1])
        if rank is not None:
            heap.append((rank, pos, 0))
    heapify(heap)

    def push(pos: int, floor: int) -> None:
        key = seq[pos] << 32 | seq[nxt[pos]]
        rank = first.get(key)
        if rank is None:
            return
        if rank < floor:
            ranks = later.get(key)
            if ranks is None:
                return
            i = bisect_left(ranks, floor)
            if i == len(ranks):
                return
            rank = ranks[i]
        heappush(heap, (rank, pos, version[pos]))

    while heap:
        rank, pos, ver = heappop(heap)
        if ver != version[pos]:
            continue
        right = nxt[pos]
        after = nxt[right]
        seq[pos] = rules[rank].new_id
        nxt[pos] = after
        version[pos] += 1
        version[right] += 1  # merged away: its entries are stale
        if after < n:
            prv[after] = pos
            push(pos, rank + 1)
        before = prv[pos]
        if before >= 0:
            version[before] += 1
            push(before, rank + 1)
    out = []
    pos = 0
    while pos < n:
        out.append(seq[pos])
        pos = nxt[pos]
    return out


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

    Ids follow token insertion order. Log-probabilities are finite, or -inf
    for tokens estimated to zero frequency; probabilities of a freshly
    estimated vocab sum to 1 within 1e-9.
    """

    def __init__(self, log_probs: dict[str, float], check: bool = True):
        if not log_probs:
            raise ToolkitError("unigram vocabulary is empty")
        for tok, lp in log_probs.items():
            if tok == "":
                raise ToolkitError("empty tokens are not allowed")
            if lp != _NEG_INF and not math.isfinite(lp):
                raise ToolkitError(f"log-prob of {tok!r} is {lp!r}, not finite or -inf")
        self._log_probs = dict(log_probs)
        self._tokens = list(self._log_probs)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        self._units = {t: _log_prob_units(lp) for t, lp in self._log_probs.items()}
        self._max_len = max(len(t) for t in self._tokens)
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
        return self._max_len


def ulm_viterbi_segment(text: str, vocab: UnigramVocab) -> list[str]:
    """Highest-log-probability segmentation of text over vocab tokens.

    Ties break toward fewer tokens, then toward the lexicographically
    smallest token sequence. A position that no token ends at is only an
    error when the whole text cannot be reached: then the furthest reachable
    position p names the fault, as OovCharacterError for text[p] when that
    character is not a token, UnsegmentableError otherwise.
    """
    return _viterbi(text, vocab._units, vocab.max_token_len(), None)


def _viterbi(
    text: str, units: Mapping[str, int | float], max_len: int, excluded: str | None
) -> list[str]:
    """ulm_viterbi_segment over the tokens of units, less excluded."""
    if text == "":
        return []
    n = len(text)
    # For each prefix text[:j]: its best score (None if unreachable), the
    # token count of that path and where its last token starts. Scores are
    # exact unit counts (see _log_prob_units), so a path's score depends only
    # on its token multiset and reorderings tie exactly.
    score: list[int | float | None] = [None] * (n + 1)
    n_tokens = [0] * (n + 1)
    back = [0] * (n + 1)
    score[0] = 0
    for j in range(1, n + 1):
        best: int | float | None = None
        best_n = 0
        best_i = -1
        for i in range(j - max_len if j > max_len else 0, j):
            prev = score[i]
            if prev is None:
                continue
            piece = text[i:j]
            piece_units = units.get(piece)
            if piece_units is None or piece == excluded:
                continue
            if prev == _NEG_INF or piece_units == _NEG_INF:
                s: int | float = _NEG_INF
            else:
                s = prev + piece_units
            k = n_tokens[i] + 1
            if best_i >= 0:
                if s < best or (s == best and k > best_n):
                    continue
                # Token sequences are rebuilt only on an exact tie.
                if s == best and k == best_n:
                    sequence = _path(text, back, i) + [piece]
                    if sequence >= _path(text, back, best_i) + [text[best_i:j]]:
                        continue
            best = s
            best_n = k
            best_i = i
        if best_i >= 0:
            score[j] = best
            n_tokens[j] = best_n
            back[j] = best_i
    if score[n] is None:
        p = max(i for i in range(n) if score[i] is not None)
        if text[p] not in units:
            raise OovCharacterError(text[p], p)
        raise UnsegmentableError(text, p)
    return _path(text, back, n)


def _path(text: str, back: list[int], j: int) -> list[str]:
    """The tokens of the best path to text[:j], from its back-pointers."""
    tokens = []
    while j:
        i = back[j]
        tokens.append(text[i:j])
        j = i
    tokens.reverse()
    return tokens


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
    removed; ties remove the lexicographically smallest token. A character
    missing from vocab raises OovCharacterError for its first occurrence in
    corpus order, with its offset in its document.

    Cost: a step segments the corpus once, then, for each candidate, only
    the documents whose current segmentation uses it (the others keep their
    optimum), with the candidate excluded from the same vocabulary. This is
    exact; Kudo's approximations (a likelihood-loss estimate from the current
    segmentation, removing a fraction of tokens per step) are not used.
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
    for doc in docs:
        for offset, ch in enumerate(doc):
            if ch not in vocab:
                raise OovCharacterError(ch, offset)

    current = vocab
    while len(current) > target_size:
        segs, total_counts = _segment_counts(docs, current)
        users: dict[str, list[int]] = defaultdict(list)  # token -> docs using it
        for d, seg in enumerate(segs):
            for tok in set(seg):
                users[tok].append(d)
        units = current._units
        max_len = current.max_token_len()

        best_token = None
        best_ll = None
        best_counts: Counter | None = None
        for t in current.tokens():
            if len(t) == 1:
                continue
            new_counts = Counter(total_counts)
            for d in users.get(t, ()):
                new_counts.subtract(segs[d])
                new_counts.update(_viterbi(docs[d], units, max_len, t))
            new_counts = +new_counts  # drop zero entries
            ll = unigram_log_likelihood(new_counts)
            if (
                best_ll is None
                or ll > best_ll
                or (ll == best_ll and t.encode("utf-8") < best_token.encode("utf-8"))
            ):
                best_token = t
                best_ll = ll
                best_counts = new_counts
        if best_token is None:
            raise ToolkitError(
                f"only single-character tokens remain at size {len(current)}; "
                f"target_size {target_size} is unreachable"
            )
        assert best_counts is not None
        survivors = [t for t in current.tokens() if t != best_token]
        current = UnigramVocab.from_frequencies(best_counts, tokens=survivors)
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

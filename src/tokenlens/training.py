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

import json
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import eq, itemgetter
from typing import Iterable, Mapping

from .errors import OovCharacterError, ToolkitError, reading
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
    "save_probs",
    "load_probs",
]


def count_adjacent_pairs(sequences: Iterable[list[int]]) -> Counter:
    """Sequential adjacent-pair counts over per-document token-id sequences.

    Counts every adjacent pair, then corrects for runs of equal tokens: a
    left-to-right scan reaches each run of k >= 2 equal tokens at its start
    and counts k // 2 of its k - 1 pairs, and when k is even it steps over
    the pair that leaves the run."""
    counts: Counter = Counter()
    for seq in sequences:
        counts.update(zip(seq, seq[1:]))
        equal = list(compress(range(len(seq)), map(eq, seq, seq[1:])))  # seq[i] == seq[i + 1]
        j = 0
        while j < len(equal):
            start = equal[j]
            m = 1  # the run's equal pairs
            while j + m < len(equal) and equal[j + m] == start + m:
                m += 1
            j += m
            k = m + 1
            if m > k // 2:
                counts[seq[start], seq[start]] -= m - k // 2
            if k % 2 == 0 and start + k < len(seq):
                pair = (seq[start], seq[start + k])
                if counts[pair] == 1:
                    del counts[pair]
                else:
                    counts[pair] -= 1
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
    """seq with every adjacent (left, right) merged into new_id, in one
    left-to-right pass without overlap ("a a a" becomes "aa a"); seq itself
    when nothing merged. It jumps from one left to the next with list.index,
    so a pass costs one C-level scan plus a step per left."""
    out: list[int] = []
    start = 0  # seq[start:i] is not yet copied to out
    last = len(seq) - 1  # a left here has no right neighbour
    i = 0
    try:
        while True:
            i = seq.index(left, i, last)
            if seq[i + 1] == right:
                out += seq[start:i]
                out.append(new_id)
                i = start = i + 2
            else:
                i += 1
    except ValueError:
        pass
    if not out:
        return seq
    out += seq[start:]
    return out


class _LazyArgmax:
    """The exact argmax of score(key(item)) over live items, kept in lazy heaps.

    key(item) is a live item's (bucket, p), with p an int, and must match no
    pushed entry once the item is gone; within a bucket, score(bucket, p)
    must not increase as p grows. Each bucket is a min-heap of (p, label, item)
    entries, with one label per item. Push an item again whenever its key
    changes: an entry whose key has moved is stale, and is dropped when it
    reaches the top of its heap, or at the next compaction: once the heaps
    hold more than twice the entries left by the last one (and at least
    _FLOOR), best drops every stale and repeated entry first, so memory
    tracks the live items rather than the pushes.
    """

    _FLOOR = 1024

    def __init__(self, key, score):
        self._key = key
        self._score = score
        self._buckets: dict[int, list] = defaultdict(list)
        self._limit = self._FLOOR

    def __len__(self) -> int:
        """Entries held, stale ones included."""
        return sum(map(len, self._buckets.values()))

    def push(self, label: bytes, item: tuple[int, int]) -> None:
        bucket, p = self._key(item)
        heappush(self._buckets[bucket], (p, label, item))

    def best(self) -> tuple[float, bytes, tuple[int, int]] | None:
        """(score, label, item) of the highest score, ties going to the
        smallest label; None when no item is live.

        A bucket's top live entry is its smallest (p, label), so it is the
        bucket's candidate unless the score is flat at p + 1: only then are
        the entries at its score popped, and the live ones pushed back."""
        key, score = self._key, self._score
        if len(self) > self._limit:
            for bucket, heap in self._buckets.items():
                heap[:] = dict.fromkeys(e for e in heap if key(e[2]) == (bucket, e[0]))
                heapify(heap)
            self._limit = max(self._FLOOR, 2 * len(self))
        best = None
        for bucket in list(self._buckets):
            heap = self._buckets[bucket]
            while heap and key(heap[0][2]) != (bucket, heap[0][0]):
                heappop(heap)
            if not heap:
                del self._buckets[bucket]
                continue
            top = heap[0]
            s = score(bucket, top[0])
            if score(bucket, top[0] + 1) == s:
                tied = []
                while heap and score(bucket, heap[0][0]) == s:
                    entry = heappop(heap)
                    if key(entry[2]) == (bucket, entry[0]) and (not tied or tied[-1] != entry):
                        tied.append(entry)  # live, and not a repeat of the last
                top = min(tied, key=itemgetter(1))
                for entry in tied:
                    heappush(heap, entry)
            if best is None or s > best[0] or (s == best[0] and top[1] < best[1]):
                best = s, top[1], top[2]
        return best


def _train(
    corpus: Iterable[str],
    target_vocab_size: int | None,
    min_pair_freq: int | None,
    scorer: str,
) -> tuple[Vocabulary, MergeRuleList]:
    """Shared merge loop of bpe_train and wordpiece_train.

    The pair counts are kept incrementally: a merge re-merges only the
    documents that hold both of its tokens, and recounts only those it
    changed, not the whole corpus. The counts, and so every choice, are
    those of count_adjacent_pairs over the whole corpus. A re-merge jumps
    from one occurrence of the left token to the next (_merge_in_place), so
    a document that no longer holds the pair costs one C-level scan.

    The argmax is kept incrementally too, in a _LazyArgmax over the counted
    pairs. A pair's key is (0, -count) for the count scorer, and (count,
    product of its two tokens' counts) for the likelihood scorer, whose score
    does not increase with the product at a fixed count (see
    wordpiece_train). After a merge, only the pairs whose count or product
    moved are pushed again, and a step scores two products per distinct
    count (its top's and the next), not every pair.
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
    # token -> documents that have held it, never shrunk: a document where
    # (left, right) is adjacent holds both tokens, and one that no longer
    # does costs a merge pass that changes nothing.
    holding: dict[int, set[int]] = defaultdict(set)
    for d, seq in enumerate(segmented):
        for tid in set(seq):
            holding[tid].add(d)
    # A pair's key is (bucket, p). A pair no longer counted has count 0 in
    # the Counter, so its key matches no entry.
    if scorer == "likelihood":
        token_counts = Counter(tid for seq in segmented for tid in seq)
        corpus_len = sum(len(seq) for seq in segmented)
        having: dict[int, set[tuple[int, int]]] = defaultdict(set)  # token -> pairs ever counted
        for pair in counts:
            having[pair[0]].add(pair)
            having[pair[1]].add(pair)

        def key(pair: tuple[int, int]) -> tuple[int, int]:
            return counts[pair], token_counts[pair[0]] * token_counts[pair[1]]

        def score(cab: int, product: int) -> float:
            # wordpiece_merge_score's operations in its order: bit-identical
            return cab * math.log(cab / product) - _xlogx(corpus_len - cab)
    else:

        def key(pair: tuple[int, int]) -> tuple[int, int]:
            return 0, -counts[pair]

        def score(bucket: int, p: int) -> float:
            return -p

    # A string standing as two whole tokens at two places has been merged
    # identically at both (merges cannot cross its ends there), so no two
    # pairs spell the same bytes: the concatenation breaks every tie, and
    # every merge adds a new token (Vocabulary rejects a repeat).
    argmax = _LazyArgmax(key, score)
    for pair in counts:
        argmax.push(tokens[pair[0]] + tokens[pair[1]], pair)

    rules: list[MergeRule] = []
    while target_vocab_size is None or len(tokens) < target_vocab_size:
        top = argmax.best()
        if top is None:
            break
        best, merged_bytes, (left, right) = top
        if min_pair_freq is not None and best < min_pair_freq:
            break
        new_id = len(tokens)
        tokens.append(merged_bytes)
        rules.append(MergeRule(left, right, new_id))

        # One left-to-right pass removes every adjacent (left, right).
        old, new = [], []
        for d in holding[left] & holding[right]:
            before = segmented[d]
            after = _merge_in_place(before, left, right, new_id)
            if after is not before:
                segmented[d] = after
                holding[new_id].add(d)
                old.append(before)
                new.append(after)
        old_counts = count_adjacent_pairs(old)
        new_counts = count_adjacent_pairs(new)
        moved = set()
        for pair in old_counts.keys() | new_counts.keys():
            delta = new_counts.get(pair, 0) - old_counts.get(pair, 0)
            if not delta:
                continue
            moved.add(pair)
            prev = counts.get(pair, 0)
            cab = prev + delta
            if cab:
                counts[pair] = cab
            else:
                del counts[pair]
            if scorer == "likelihood" and not prev:  # newly counted
                having[pair[0]].add(pair)
                having[pair[1]].add(pair)
        if scorer == "likelihood":
            merged = sum(map(len, old)) - sum(map(len, new))
            token_counts[left] -= merged
            token_counts[right] -= merged
            token_counts[new_id] += merged
            corpus_len -= merged
            # every counted pair holding left or right has a new product;
            # having's pairs no longer counted fail the check below
            moved |= having[left] | having[right]
        for pair in moved:
            if pair in counts:
                argmax.push(tokens[pair[0]] + tokens[pair[1]], pair)
    return Vocabulary(tokens), MergeRuleList(rules)


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
    likelihood-gain score wordpiece_merge_score instead of the raw count.

    The argmax keeps one heap per pair count #ab, ordered by the product
    #a * #b, and scores only the top of each. It relies on the score, as
    computed in floats, not increasing as the product grows at a fixed #ab:
    #ab / (#a * #b) is a correctly rounded quotient, math.log is monotone,
    and the rest is a positive factor and a term of #ab alone. A test pins
    this on this platform's libm."""
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
    ids = {ch: vocab.get(ch.encode("utf-8")) for ch in set(text)}
    seq = list(map(ids.__getitem__, text))
    if None in ids.values():
        offset = seq.index(None)
        raise OovCharacterError(text[offset], offset)
    first, later = rules.rank_index()
    new_ids = rules.new_ids
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
        seq[pos] = new_ids[rank]
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
        self._ids = {t: i for i, t in enumerate(self._log_probs)}
        # Every prefix of a token -> its units if it is a token too, else None.
        self._prefixes: dict[str, int | float | None] = {
            t[:k]: None for t in self._log_probs for k in range(1, len(t))
        }
        for t, lp in self._log_probs.items():
            self._prefixes[t] = _log_prob_units(lp)
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
        return len(self._log_probs)

    def __contains__(self, token: str) -> bool:
        return token in self._log_probs

    def __iter__(self):
        return iter(self._log_probs)

    def tokens(self) -> list[str]:
        return list(self._log_probs)

    def log_prob(self, token: str) -> float:
        return self._log_probs[token]

    def id_of(self, token: str) -> int:
        return self._ids[token]


def save_probs(vocab: UnigramVocab, path: str) -> None:
    """Write vocab as a probs file: one JSON object mapping each token to its
    log-prob in id order, ASCII-escaped, -inf as -Infinity."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({t: vocab.log_prob(t) for t in vocab.tokens()}, f, ensure_ascii=True, indent=0)
        f.write("\n")


def load_probs(path: str) -> UnigramVocab:
    """Read a probs file as save_probs writes it. The log-probs need not sum
    to one; every error names the file."""
    with reading(path), open(path, "r", encoding="utf-8") as f:
        probs = json.load(f)
        # type(), not isinstance(): JSON true and false load as ints
        if not (isinstance(probs, dict) and all(type(lp) in (int, float) for lp in probs.values())):
            raise ToolkitError("probs JSON must map each token to a number")
        # float() of an int beyond float range raises OverflowError
        return UnigramVocab({t: float(lp) for t, lp in probs.items()}, check=False)


def ulm_viterbi_segment(text: str, vocab: UnigramVocab) -> list[str]:
    """Highest-log-probability segmentation of text over vocab tokens.

    Ties break toward fewer tokens, then toward the lexicographically
    smallest token sequence. A position that no token ends at is only an
    error when the whole text cannot be reached: then the furthest reachable
    position p names the fault as OovCharacterError for text[p]. text[p] is
    never a token, since as one it would make p + 1 reachable.

    The DP runs over the text's lattice of token edges (_lattice), which
    ulm_prune shares: one DP serves both.
    """
    score, _, back = _forward(text, _lattice(text, vocab._prefixes))
    n = len(text)
    if score[n] is None:
        p = max(i for i in range(n) if score[i] is not None)
        raise OovCharacterError(text[p], p)
    return _path(text, back, n)


_Edge = tuple[int, str, "int | float"]  # (start, piece, the piece's units)
_Arrays = tuple[list, list[int], list[int]]  # score, n_tokens, back


def _lattice(text: str, prefixes: Mapping[str, int | float | None]) -> list[list[_Edge]]:
    """Row j - 1 holds the edges (i, text[i:j], its units) ending at j whose
    piece is a token, in ascending i. prefixes maps every prefix of a token
    to its units, or to None when it is no token itself (UnigramVocab), so
    the scan from each start stops at the first piece that begins no token."""
    n = len(text)
    rows: list[list[_Edge]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n + 1):
            piece = text[i:j]
            if piece not in prefixes:
                break
            piece_units = prefixes[piece]
            if piece_units is not None:
                rows[j - 1].append((i, piece, piece_units))
    return rows


def _forward(
    text: str,
    rows: Iterable[list[_Edge]],
    excluded: str | None = None,
    arrays: _Arrays | None = None,
    start: int = 1,
) -> _Arrays:
    """The Viterbi DP over lattice rows, without the edges of excluded.

    For each prefix text[:j] the arrays hold its best score (None if
    unreachable), the token count of that path and where its last token
    starts. Scores are exact unit counts (see _log_prob_units), so a path's
    score depends only on its token multiset and reorderings tie exactly.
    rows are those of end positions start..len(text); given arrays must hold
    the final values below start, and are filled from start on.
    """
    if arrays is None:
        n = len(text)
        score: list[int | float | None] = [None] * (n + 1)
        score[0] = 0
        arrays = score, [0] * (n + 1), [0] * (n + 1)
    score, n_tokens, back = arrays
    for j, row in enumerate(rows, start):
        best: int | float | None = None
        best_n = 0
        best_i = -1
        for i, piece, piece_units in row:
            prev = score[i]
            if prev is None or piece == excluded:
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
    return arrays


def _path(text: str, back: list[int], j: int) -> list[str]:
    """The tokens of the best path to text[:j], from its back-pointers."""
    tokens = []
    while j:
        i = back[j]
        tokens.append(text[i:j])
        j = i
    tokens.reverse()
    return tokens


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

    Cost: a step builds each document's lattice (the token edges ending at
    each position) once and runs the Viterbi DP over it, keeping its forward
    arrays. For a candidate, only the documents whose segmentation uses it
    are re-segmented (the others keep their optimum), and only from the end
    of its first occurrence: no edge of it ends before, so the DP there is
    unchanged. The restart copies the arrays up to that position and runs
    the same DP over the rest of the lattice without the candidate's edges,
    making the same comparisons in the same order as a DP from the start.
    A document's count delta comes from walking its new and its old path
    back from the end, and stops where they meet before the restart
    (_count_delta). The candidate's likelihood is then one math.fsum over the
    step's c*ln(c) terms, with each changed token's old term negated and its
    new term added: the same exact sum, so the same float, as
    unigram_log_likelihood of the new counts, which are built only for the
    winner. This is exact; Kudo's approximations (a likelihood-loss estimate
    from the current segmentation, removing a fraction of tokens per step)
    are not used.
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
        # Every character is a token, so every document is reachable.
        lattices = [_lattice(doc, current._prefixes) for doc in docs]
        bases = [_forward(doc, lattice) for doc, lattice in zip(docs, lattices)]
        segs = [_path(doc, back, len(doc)) for doc, (_, _, back) in zip(docs, bases)]
        total_counts: Counter = Counter()
        users: dict[str, list[int]] = defaultdict(list)  # token -> docs using it
        for d, seg in enumerate(segs):
            total_counts.update(seg)
            for tok in set(seg):
                users[tok].append(d)

        total = sum(total_counts.values())
        base_terms = [c * math.log(c) for c in total_counts.values()]

        best_token = None
        best_ll = None
        best_delta: dict[str, int] = {}
        for t in current.tokens():
            if len(t) == 1:
                continue
            delta: dict[str, int] = {}
            for d in users.get(t, ()):
                doc = docs[d]
                j0 = doc.find(t) + len(t)  # where t's first edge ends
                score, n_tokens, back = bases[d]
                pad = len(doc) + 1 - j0
                arrays = score[:j0] + [None] * pad, n_tokens[:j0] + [0] * pad, back[:j0] + [0] * pad
                _forward(doc, lattices[d][j0 - 1 :], t, arrays, j0)
                _count_delta(doc, back, arrays[2], j0, delta)
            # unigram_log_likelihood of the new counts, bit for bit: fsum
            # rounds the same exact sum once, as each changed token's old
            # term cancels exactly against its copy in base_terms.
            terms = base_terms.copy()
            new_total = total
            for tok, dc in delta.items():
                if dc:
                    c = total_counts.get(tok, 0)
                    if c:
                        terms.append(-(c * math.log(c)))
                    if c + dc:
                        terms.append((c + dc) * math.log(c + dc))
                    new_total += dc
            ll = math.fsum(terms) - new_total * math.log(new_total)
            if (
                best_ll is None
                or ll > best_ll
                or (ll == best_ll and t.encode("utf-8") < best_token.encode("utf-8"))
            ):
                best_token = t
                best_ll = ll
                best_delta = delta
        # target_size >= n_required and single characters are never
        # removed, so a multi-character candidate is left.
        assert best_token is not None
        total_counts.update(best_delta)
        survivors = [t for t in current.tokens() if t != best_token]
        current = UnigramVocab.from_frequencies(total_counts, tokens=survivors)
    return current


def _count_delta(text: str, old: list[int], new: list[int], j0: int, delta: dict[str, int]) -> None:
    """Add to delta the token counts of the path of back-pointers new, less
    those of old, where new and old agree below j0. Walks both paths back
    from the end, stepping whichever stands further right, and stops where
    they meet below j0: from there they are one path."""
    p = q = len(text)  # the new path's position, the old path's
    while p != q or p >= j0:
        if p == q and new[p] == old[q]:  # one token on both paths
            p = q = new[p]
            continue
        i = p
        if p >= q:
            i = new[p]
            piece = text[i:p]
            delta[piece] = delta.get(piece, 0) + 1
        if q >= p:
            k = old[q]
            piece = text[k:q]
            delta[piece] = delta.get(piece, 0) - 1
            q = k
        p = i


def ulm_seed(
    corpus: Iterable[str], max_token_len: int = 8, seed_size: int | None = None
) -> UnigramVocab:
    """Seed vocabulary for ulm_prune: every character plus the most frequent
    substrings of length 2..max_token_len (overlapping counts), capped at
    seed_size tokens, probabilities proportional to occurrence counts."""
    if max_token_len < 1:
        raise ToolkitError(f"max_token_len must be at least 1, got {max_token_len}")
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

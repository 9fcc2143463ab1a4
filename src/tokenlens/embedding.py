"""Input-embedding derivation for multi-token characters.

A character the tokenizer splits into several tokens can be promoted to a
single new token if we can invent an input embedding for it. The recipe:
embed its constituent tokens, run them through the model to some layer, pool
the hidden states into one vector, then map that vector back to input space
with one of three strategies (inverse-distance KNN, a global affine fit, or
a locally weighted affine fit). The reference for the mapping is the matrix
V_l of per-token hidden states obtained by running each vocabulary embedding
through the model separately; layer 0 is the input space itself.

Embedding and hidden matrices are plain (n_tokens, dim) float arrays,
row-aligned with token ids. Matrices travel as little-endian float32 binary
files with an 8-byte header, so embeddings exported from a real model can be
plugged in; a JSON sidecar records provenance and is never read back. A plan
is what its file holds, the new tokens and one matrix of their vectors (JSON
with base64 vectors plus a companion matrix file); V0 is passed to eval.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import OovCharacterError, ToolkitError, reading
from .parallel import ordered_map
from .premium import TokenizerHandle

__all__ = [
    "write_matrix",
    "read_matrix",
    "LayerEncoder",
    "ToyEncoder",
    "toy_encoder",
    "LookupEncoder",
    "pooled_hidden",
    "build_reference",
    "all_finite",
    "derive_knn",
    "derive_linreg",
    "derive_local_linreg",
    "DerivationStrategy",
    "AugmentationPlan",
    "select_oov_chars",
    "check_strategies",
    "constituent_ids",
    "derive_plans",
    "augment",
    "encode_augmented",
    "eval_similarity",
    "corpus_similarity",
    "fraction_new_tokens",
    "save_plan",
    "load_plan",
]

RIDGE_EPS = 1e-8

_HEADER = struct.Struct("<II")


def write_matrix(path: str, matrix: np.ndarray, layer: int | None = None, provenance: str = "") -> None:
    """Header (u32 n_tokens, u32 dim) + row-major float32, both little-endian;
    layer and provenance go to a sidecar JSON next to the file."""
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise ToolkitError("matrix must be 2-dimensional")
    n, dim = arr.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(n, dim))
        f.write(arr.tobytes(order="C"))
    sidecar = {"n_tokens": n, "dim": dim, "layer": layer, "provenance": provenance}
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def read_matrix(path: str) -> np.ndarray:
    """The matrix a write_matrix file holds; its data must be exactly
    n_tokens * dim float32 values.

    The file's size is checked before the array is allocated, and the data
    is read straight into the array, so it is held once (f.read() would
    build a bytes object and join the reader's buffered head onto it)."""
    with reading(path), open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ToolkitError("truncated header")
        n, dim = _HEADER.unpack(head)
        found = os.fstat(f.fileno()).st_size - _HEADER.size
        if found != n * dim * 4:
            raise ToolkitError(f"expected {n * dim * 4} data bytes, found {found}")
        arr = np.empty((n, dim), dtype="<f4")
        got = f.readinto(arr.reshape(-1).view(np.uint8))
        if got != found:  # the file shrank while it was read
            raise ToolkitError(f"expected {found} data bytes, found {got}")
        return arr


class LayerEncoder(Protocol):
    """Deterministic, length-preserving map from an embedding sequence to
    hidden states at a layer; layer 0 is the identity.

    states is one sequence, (n, dim), or a stack of independent sequences,
    (batch, n, dim); a stack gives exactly, bit for bit, what encoding each
    sequence on its own gives.
    """

    depth: int

    def encode_to_layer(self, states: np.ndarray, layer: int) -> np.ndarray: ...


class ToyEncoder:
    """Small seeded stand-in for a real model.

    Each layer applies a causal prefix-mean mixing step, an affine map, and
    tanh. The linear variant drops both the mixing and the tanh (pure
    per-position affine), which makes averaging commute with the layer map.
    """

    def __init__(self, seed: int, depth: int, dim: int, linear: bool = False):
        if seed < 0:
            raise ToolkitError(f"seed must be >= 0, got {seed}")
        if depth < 1:
            raise ToolkitError(f"depth must be >= 1, got {depth}")
        if dim < 1:
            raise ToolkitError(f"dim must be >= 1, got {dim}")
        self.seed = seed
        self.depth = depth
        self.dim = dim
        self.linear = linear
        rng = np.random.default_rng(seed)
        self.layers = [
            (
                rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, dim)),
                rng.normal(0.0, 0.1, size=dim),
            )
            for _ in range(depth)
        ]

    def encode_to_layer(self, states: np.ndarray, layer: int) -> np.ndarray:
        if not 0 <= layer <= self.depth:
            raise ToolkitError(f"layer {layer} outside 0..{self.depth}")
        h = np.array(states, dtype=np.float64, copy=True)
        if h.ndim not in (2, 3) or h.shape[-1] != self.dim:
            raise ToolkitError(
                f"expected (n, {self.dim}) or (batch, n, {self.dim}) states, got {h.shape}"
            )
        # h = tanh((0.5*h + 0.5*prefix_mean) @ W.T + b), in place so a stack
        # of 50k sequences holds no extra temporaries. matmul runs a stack as
        # the same per-sequence product a single sequence gets, so batching
        # changes no bit; one 2-D product over all rows would round
        # differently.
        for w, b in self.layers[:layer]:
            if not self.linear and h.shape[-2] == 1:
                # One position: the prefix mean is h itself (a one-term cumsum
                # and a divide by 1 are exact), so this is the same
                # fl(0.5*h) + fl(0.5*h) as the general step, bit for bit.
                h *= 0.5
                h += h
            elif not self.linear:
                prefix_mean = np.cumsum(h, axis=-2)
                prefix_mean /= np.arange(1, h.shape[-2] + 1)[:, None]
                prefix_mean *= 0.5
                h *= 0.5
                h += prefix_mean
                del prefix_mean
            h = h @ w.T
            h += b
            if not self.linear:
                np.tanh(h, out=h)
        return h


def toy_encoder(seed: int, depth: int, dim: int, linear: bool = False) -> ToyEncoder:
    return ToyEncoder(seed, depth, dim, linear=linear)


class LookupEncoder:
    """Encoder backed by exported per-token matrices (layer -> matrix, for
    layers >= 1; layer 0 is v0 itself).

    It can only encode vectors that are exact rows of its V0, each position
    independently, so it supports reference building and augmentation but not
    evaluation over derived vectors. A vector matches a row when their bytes
    are equal; of byte-identical V0 rows, the last one's layer row is used.
    """

    def __init__(self, v0: np.ndarray, layer_matrices: dict[int, np.ndarray]):
        self._v0 = np.asarray(v0)
        # Each V0 row's index under the hash of its bytes, so the index holds
        # no second copy of V0; _row_of confirms a match on the bytes.
        self._rows_by_hash: dict[int, list[int]] = {}
        for i, row in enumerate(self._v0):
            self._rows_by_hash.setdefault(hash(row.tobytes()), []).append(i)
        self._layers = {0: self._v0}
        for layer, mat in layer_matrices.items():
            layer = int(layer)
            if layer < 1:
                raise ToolkitError(f"layer {layer} matrix: layer must be >= 1 (layer 0 is V0)")
            m = np.asarray(mat)
            if m.shape != self._v0.shape:
                raise ToolkitError(
                    f"layer {layer} matrix shape {m.shape} does not match V0 {self._v0.shape}"
                )
            self._layers[layer] = m
        self.depth = max(self._layers)

    def _row_of(self, key: bytes) -> int:
        """The last V0 row whose bytes are key."""
        for i in reversed(self._rows_by_hash.get(hash(key), ())):
            if self._v0[i].tobytes() == key:
                return i
        raise ToolkitError(
            "lookup encoder can only encode exact vocabulary embeddings; "
            "evaluation needs a runnable encoder"
        )

    def encode_to_layer(self, states: np.ndarray, layer: int) -> np.ndarray:
        if layer not in self._layers:
            raise ToolkitError(f"no exported matrix for layer {layer}")
        arr = np.asarray(states)
        if layer == 0:
            return np.array(arr, copy=True)
        rows = arr.reshape(-1, arr.shape[-1])
        out = np.empty((len(rows), self._v0.shape[1]), dtype=self._layers[layer].dtype)
        for i, row in enumerate(rows):
            key = np.asarray(row, dtype=self._v0.dtype).tobytes()
            out[i] = self._layers[layer][self._row_of(key)]
        return out.reshape(arr.shape[:-1] + (self._v0.shape[1],))


def pooled_hidden(enc: LayerEncoder, embeddings: np.ndarray, layer: int) -> np.ndarray:
    """Mean of the layer-l hidden states of an embedding sequence."""
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim != 2 or len(arr) == 0:
        raise ToolkitError("pooled_hidden needs a nonempty sequence of vectors")
    if not np.all(np.isfinite(arr)):
        raise ToolkitError("embeddings contain non-finite values")
    return enc.encode_to_layer(arr, layer).mean(axis=0)


# Rows per block of build_reference and of the euclidean screen and
# distances: their temporaries are _ROW_BLOCK x dim, not n_tokens x dim.
_ROW_BLOCK = 1024


def build_reference(enc: LayerEncoder, v0: np.ndarray, layer: int) -> np.ndarray:
    """V_l: run each token's embedding through the encoder on its own.

    The encoder runs over stacks of _ROW_BLOCK length-1 sequences,
    (rows, 1, dim); the encoder contract makes this bitwise equal to one call
    per token. Layer 0 copies v0. The rows go into one (n_tokens, dim + 1)
    buffer of the encoder's output dtype whose last column is 1.0, and the
    (n_tokens, dim) view of its first columns is returned; the view's .base
    is that buffer, which augment passes to _fit_affine as linreg's design
    matrix, bias column included."""
    arr = np.asarray(v0)
    if arr.ndim != 2:
        raise ToolkitError("v0 must be a 2-D matrix")

    def rows(start: int) -> np.ndarray:
        block = arr[start : start + _ROW_BLOCK]
        return block if layer == 0 else enc.encode_to_layer(block[:, None, :], layer)[:, 0, :]

    first = rows(0)
    dim = first.shape[1]
    buf = np.empty((len(arr), dim + 1), dtype=first.dtype)
    buf[:, dim] = 1.0
    buf[: len(first), :dim] = first
    for start in range(_ROW_BLOCK, len(arr), _ROW_BLOCK):
        buf[start : start + _ROW_BLOCK, :dim] = rows(start)
    return buf[:, :dim]


def all_finite(matrix: np.ndarray) -> bool:
    """np.all(np.isfinite(matrix)), checked _ROW_BLOCK rows at a time, so it
    makes no n_tokens x dim temporary."""
    return all(np.isfinite(matrix[start : start + _ROW_BLOCK]).all() for start in range(0, len(matrix), _ROW_BLOCK))


def _distances(h: np.ndarray, vl: np.ndarray, metric: str) -> np.ndarray:
    """The distance from h to every row of vl: euclidean for the rows _screen
    keeps, cosine for every row of a float64 reference."""
    if metric == "euclidean":
        # np.linalg.norm(vl - h, axis=1)'s operations on each row (subtract
        # in float64, square, add.reduce, sqrt), run in place in one block
        # buffer, so a float32 vl is converted a block at a time. Each row's
        # distance is the same operations whatever block it falls in, so the
        # result is bitwise that one pass over all rows.
        out = np.empty(len(vl))
        buf = np.empty((min(len(vl), _ROW_BLOCK), vl.shape[1]))
        for start in range(0, len(vl), _ROW_BLOCK):
            block = vl[start : start + _ROW_BLOCK]
            diff = buf[: len(block)]
            np.subtract(block, h, out=diff, dtype=np.float64)
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=1, out=out[start : start + len(block)])
        return np.sqrt(out, out=out)
    if metric == "cosine":
        vl = np.asarray(vl, dtype=np.float64)
        norms = np.linalg.norm(vl, axis=1) * np.linalg.norm(h)
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(norms > 0, (vl @ h) / norms, 0.0)
        return 1.0 - sims
    raise ToolkitError(f"unknown distance metric {metric!r}")


# The euclidean screen. For a reference row r and a query h of dimension n,
# let a = |r|^2, b = |h|^2, q = r.h and D^2 = a - 2q + b = |r - h|^2, all
# exact; let s be the sum _distances takes the square root of, and
# d = fl(sqrt(s)) the distance it returns; u = 2^-53. The screen computes
# w = fl(a' + b') and e = fl(w - 2q'), where a', b' and q' are dot products
# summed in whatever order, blocking and kernel (SIMD, FMA or not) the
# product chooses, and bounds s by e -/+ margin, where
# margin = (4n + 32)u*w + (n + 1)2^-1071. The relative part covers, with
# |q| <= sqrt(ab) <= (a + b)/2 and D^2 <= (sqrt(a) + sqrt(b))^2 <= 2(a + b):
#   1. the products: a sum of n products in any order is within
#      gamma_n = nu/(1 - nu) of the sum of their absolute values (Higham,
#      Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1), so with
#      the roundings of w and e, |e - D^2| <= (2 gamma_n + 3u)(a + b);
#   2. the rounding of s itself: one rounding of each difference, two of each
#      square's, and a sum of n nonnegative terms in any order, so
#      |s - D^2| <= gamma_(n+2) D^2 <= 2 gamma_(n+2)(a + b);
#   3. sqrt ties: s > s'(1 + 8u) implies fl(sqrt(s)) > fl(sqrt(s')), while two
#      values of s closer than that may share one d, and then the row index,
#      not s, decides. A dropped row has e - margin > kth >= s_k, the k-th
#      smallest s, and e <= 2(a + b)(1 + 4n u), so 16u(a + b) of its margin
#      puts its s above s_k(1 + 8u): its d is above the k-th d, not tied;
#   4. the roundings of margin and of e -/+ margin: 2u(a + b) each.
# That is (4n + 25)u(a + b); w >= (a + b)(1 - gamma_(n+1)), and the other 7u
# cover the terms in n^2 u^2 while n < 2^20. The absolute part covers
# underflow: a product or square that falls below 2^-1022 loses up to
# 2^-1075 beyond the relative bounds, at most 8n + 4 times in all.
# A row or query whose computed squared norm is not below 2^1019 (huge,
# infinite or NaN values) gets NaN bounds. Elsewhere w < 2^1020, so |e| and
# e + margin stay below 2^1022 and neither e, nor s, nor a partial sum of s
# overflows. partition sorts a NaN upper bound last, and ~(lower > kth)
# keeps a NaN lower bound's row. So every row _screen drops has d above the
# k-th smallest d, and none can be among the first k in (d, row index)
# order.
_SCREEN_HUGE = 2.0**1019


def _screen(queries: np.ndarray, vl: np.ndarray, k: int) -> list[np.ndarray]:
    """For each of the m >= 1 queries (rows of queries, float64), the rows of
    vl, ascending, that may be among its k nearest by euclidean distance.

    One pass over vl, _ROW_BLOCK rows at a time, takes each block's row
    norms and one product with every query (see the proof above), keeps each
    query's k smallest upper bounds so far, and records every row whose
    lower bound is not above its query's k-th of them; the k-th smallest
    upper bound only falls as rows are added, so the rows kept in the end,
    those whose lower bound is not above its final value, are all recorded.
    The product is einsum's, not BLAS's: a BLAS product may run on several
    threads, and on a host that is slow to wake an idle CPU every call can
    stall for milliseconds."""
    m, dim = queries.shape
    rel = (4 * dim + 32) * 2.0**-53
    floor = (dim + 1) * 2.0**-1071
    query_norms = np.einsum("ij,ij->i", queries, queries)
    huge_queries = ~(query_norms < _SCREEN_HUGE)
    best = np.empty((m, 0))
    kth = np.full((m, 1), np.inf)
    found = []
    for start in range(0, len(vl), _ROW_BLOCK):
        block = np.asarray(vl[start : start + _ROW_BLOCK], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.einsum("ij,ij->i", block, block)
            e = np.einsum("qj,ij->qi", queries, block)
            e *= -2.0
            margin = query_norms[:, None] + norms  # w
            e += margin  # fl(w - 2q'), as doubling is exact
            e[huge_queries] = np.nan
            e[:, ~(norms < _SCREEN_HUGE)] = np.nan
            margin *= rel
            margin += floor
        best = np.concatenate([best, e + margin], axis=1)
        if best.shape[1] >= k:
            best = np.partition(best, k - 1, axis=1)[:, :k]
            kth = best[:, k - 1 :]
        e -= margin
        q, r = np.nonzero(~(e > kth))
        found.append((q, r + start, e[q, r]))
    q, r, lower = (np.concatenate(parts) for parts in zip(*found))
    keep = ~(lower > kth[q, 0])
    q, r = q[keep], r[keep]
    order = np.argsort(q, kind="stable")
    return np.split(r[order], np.searchsorted(q[order], np.arange(1, m)))


def _nearest(h: np.ndarray, vl: np.ndarray, k: int, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest rows of vl to h and their distances, nearest first, in
    (distance, row index) order; NaN distances sort last.

    h is one query, (dim,), giving two (k,) arrays, or a stack of m queries,
    (m, dim), giving (m, k) arrays, each row bitwise what its query gives
    alone. euclidean measures only the rows _screen keeps for a query (a
    float32 vl is converted a block at a time); cosine converts a float32 vl
    to float64 once per call and measures every row (not a block at a time,
    since vl @ h over row blocks may round differently)."""
    hv = np.asarray(h, dtype=np.float64)
    queries = hv.reshape(-1, hv.shape[-1])
    if metric == "euclidean":
        kept = _screen(queries, vl, k) if len(queries) else []
        measured = (
            (rows, np.concatenate([
                _distances(query, vl[rows[start : start + _ROW_BLOCK]], metric)
                for start in range(0, len(rows), _ROW_BLOCK)
            ]))
            for query, rows in zip(queries, kept)
        )
    elif metric == "cosine":
        ref = np.asarray(vl, dtype=np.float64)
        every = np.arange(len(ref))
        measured = ((every, _distances(query, ref, metric)) for query in queries)
    else:
        raise ToolkitError(f"unknown distance metric {metric!r}")
    idx = np.empty((len(queries), k), dtype=np.intp)
    dists = np.empty((len(queries), k))
    for i, (rows, d) in enumerate(measured):
        # Exact brute force over the measured rows; ties resolved by row
        # index so results never depend on sort internals. Only rows no
        # farther than the k-th distance can be among the first k of the
        # (distance, index) order, so only they are sorted; NaN sorts last in
        # both partition and lexsort, and a NaN k-th distance keeps every row.
        kth = np.partition(d, k - 1)[k - 1]
        keep = ~(d > kth)
        rows, d = rows[keep], d[keep]
        order = np.lexsort((rows, d))[:k]
        idx[i], dists[i] = rows[order], d[order]
    return (idx, dists) if hv.ndim == 2 else (idx[0], dists[0])


def _each_query(fn, hv: np.ndarray, idx: np.ndarray, dists: np.ndarray, dim: int) -> np.ndarray:
    """fn(query, its idx, its dists) for one query, or, for a stack, one
    float64 (m, dim) array of its results."""
    if hv.ndim == 1:
        return fn(hv, idx, dists)
    out = np.empty((len(hv), dim))
    for i in range(len(hv)):
        out[i] = fn(hv[i], idx[i], dists[i])
    return out


def derive_knn(
    h: np.ndarray, v0: np.ndarray, vl: np.ndarray, k: int, metric: str = "euclidean"
) -> np.ndarray:
    """Inverse-distance-weighted mean of the k nearest tokens' embeddings.

    h is one pooled vector, (dim,), or a stack of them, (m, dim), which
    gives one float64 row per vector, bitwise that vector's own result, and
    finds every vector's neighbours in one call to _nearest. A zero distance
    makes 1/d undefined, so exact hits short-circuit: the result is the
    unweighted mean of the zero-distance rows' embeddings (bitwise the
    embedding itself when there is exactly one)."""
    n = len(vl)
    if not 1 <= k <= n:
        raise ToolkitError(f"k must be in 1..{n}, got {k}")
    hv = _finite_query(h)
    idx, dists = _nearest(hv, vl, k, metric)
    return _each_query(lambda _, i, d: _inverse_distance_mean(v0, i, d), hv, idx, dists, np.shape(v0)[1])


def _inverse_distance_mean(v0: np.ndarray, idx: np.ndarray, dists: np.ndarray) -> np.ndarray:
    zero = idx[dists == 0.0]
    if len(zero) == 1:
        return np.array(v0[zero[0]], copy=True)
    if len(zero) > 1:
        # In float64 whatever V0's dtype, as every other derivation is, so a
        # float32 V0 and its float64 widening give the same bits (a float32
        # mean of three equal rows need not be that row).
        return np.asarray(np.asarray(v0)[zero], dtype=np.float64).mean(axis=0)
    weights = 1.0 / dists
    rows = np.asarray(np.asarray(v0)[idx], dtype=np.float64)
    return (weights[:, None] * rows).sum(axis=0) / weights.sum()


def _with_bias(x: np.ndarray) -> np.ndarray:
    """x with a bias column of ones, as one fresh float64 matrix."""
    x = np.asarray(x)
    design = np.empty((len(x), x.shape[1] + 1))
    design[:, :-1] = x
    design[:, -1] = 1.0
    return design


def _fit_affine(
    design: np.ndarray, y: np.ndarray, sample_weights: np.ndarray | None, ridge: float
) -> np.ndarray:
    """Solve (X'WX + ridge*I) theta = X'WY for a design matrix X whose last
    column is the bias.

    X is taken as float64: a float64 design (a float64 build_reference
    buffer, or _with_bias's result) is used as it is, and any other dtype is
    converted in one copy."""
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if sample_weights is None:
        gram = design.T @ design
        moment = design.T @ y
    else:
        weighted = design * sample_weights[:, None]
        gram = design.T @ weighted
        moment = weighted.T @ y
    gram = gram + ridge * np.eye(gram.shape[0])
    return np.linalg.solve(gram, moment)


def _finite_query(h: np.ndarray) -> np.ndarray:
    hv = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(hv)):
        raise ToolkitError("query vector contains non-finite values")
    return hv


def _apply_affine(h: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.append(_finite_query(h), 1.0) @ theta


def derive_linreg(
    h: np.ndarray, v0: np.ndarray, vl: np.ndarray, ridge: float = RIDGE_EPS
) -> np.ndarray:
    """Global affine map from vl rows to v0 rows, fitted on every call,
    applied to h."""
    return _apply_affine(h, _fit_affine(_with_bias(vl), v0, None, ridge))


def derive_local_linreg(
    h: np.ndarray,
    v0: np.ndarray,
    vl: np.ndarray,
    k: int,
    ridge: float = RIDGE_EPS,
    metric: str = "euclidean",
) -> np.ndarray:
    """Affine map fitted on the k nearest tokens only, samples weighted by
    exp(-distance), applied to h.

    h is one pooled vector, (dim,), or a stack of them, (m, dim), which
    gives one float64 row per vector, bitwise that vector's own result, and
    finds every vector's neighbours in one call to _nearest; each vector
    still gets its own fit."""
    n = len(vl)
    if not 2 <= k <= n:
        raise ToolkitError(f"k must be in 2..{n}, got {k}")
    hv = _finite_query(h)
    idx, dists = _nearest(hv, vl, k, metric)
    return _each_query(lambda q, i, d: _local_fit(q, i, d, v0, vl, ridge), hv, idx, dists, np.shape(v0)[1])


def _local_fit(
    hv: np.ndarray, idx: np.ndarray, dists: np.ndarray, v0: np.ndarray, vl: np.ndarray, ridge: float
) -> np.ndarray:
    weights = np.exp(-dists)
    mean_w = weights.mean()
    if mean_w > 0:
        # Normalizing to mean 1 keeps the ridge term's relative size stable
        # and makes the all-weights-equal case coincide with the global fit.
        weights = weights / mean_w
    else:
        weights = np.ones_like(weights)  # all weights underflowed
    theta = _fit_affine(_with_bias(np.asarray(vl)[idx]), np.asarray(v0)[idx], weights, ridge)
    return _apply_affine(hv, theta)


@dataclass(frozen=True)
class DerivationStrategy:
    """kind is one of knn / linreg / local_linreg; neighbor-based kinds carry
    k; layer selects where hidden states are pooled and referenced."""

    kind: str
    layer: int
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("knn", "linreg", "local_linreg"):
            raise ToolkitError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "knn" and (self.k is None or self.k < 1):
            raise ToolkitError("knn needs k >= 1")
        if self.kind == "local_linreg" and (self.k is None or self.k < 2):
            raise ToolkitError("local_linreg needs k >= 2")
        if self.kind == "linreg" and self.k is not None:
            raise ToolkitError("linreg takes no k")
        if self.layer < 0:
            raise ToolkitError("layer must be >= 0")

    def label(self) -> str:
        base = self.kind if self.k is None else f"{self.kind}:{self.k}"
        return f"{base}@{self.layer}"


@dataclass
class AugmentationPlan:
    """New single-character tokens; vectors[i] (float64) is tokens[i]'s derived embedding."""

    tokens: tuple[str, ...]
    vectors: np.ndarray
    strategy: DerivationStrategy
    distance_metric: str = "euclidean"
    stats: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def select_oov_chars(corpus: Sequence[str], tok: TokenizerHandle) -> set[str]:
    """Characters of the corpus whose own encoding is 2 tokens or longer.

    Characters the tokenizer cannot encode at all (OovCharacterError) are
    not included: with no constituent tokens there is nothing to derive
    from. Any other error propagates.
    """
    out = set()
    for ch in {c for doc in corpus for c in doc}:
        try:
            n = len(tok.encode(ch))
        except OovCharacterError:
            continue
        if n >= 2:
            out.add(ch)
    return out


def check_strategies(enc: LayerEncoder, strategies: Sequence[DerivationStrategy], n_tokens: int) -> None:
    """Fail, naming the first such strategy, if a strategy's layer is above
    enc.depth or its k is outside the range a reference of n_tokens rows
    allows (1..n_tokens for knn, 2..n_tokens for local_linreg)."""
    for strat in strategies:
        if strat.layer > enc.depth:
            raise ToolkitError(f"strategy {strat.label()}: layer {strat.layer} outside 0..{enc.depth}")
        low = {"knn": 1, "local_linreg": 2}.get(strat.kind)
        if low is not None and not low <= strat.k <= n_tokens:
            raise ToolkitError(f"strategy {strat.label()}: k {strat.k} outside {low}..{n_tokens}")


def constituent_ids(tok: TokenizerHandle, chars: Iterable[str]) -> tuple[tuple[str, ...], list[list[int]]]:
    """The distinct characters in code point order, and each one's token ids.

    Each character is encoded once; one that encodes to a single token is an
    error, and one the tokenizer cannot encode raises its OovCharacterError.
    The tuple is what a plan's tokens will be, so encode_augmented can run
    over it before any plan exists."""
    tokens = tuple(sorted(set(chars)))
    char_ids = []
    for ch in tokens:
        ids = tok.encode(ch)
        if len(ids) < 2:
            raise ToolkitError(f"character {ch!r} encodes to a single token; nothing to derive")
        char_ids.append(ids)
    return tokens, char_ids


def derive_plans(
    v0: np.ndarray,
    enc: LayerEncoder,
    tokens: tuple[str, ...],
    char_ids: Sequence[Sequence[int]],
    strategies: Sequence[DerivationStrategy],
    metric: str = "euclidean",
) -> list[AugmentationPlan]:
    """One plan per strategy, in the order given: tokens[i]'s vector is
    derived from the V0 rows of char_ids[i]. No tokenizer is read here.

    v0 must be a finite 2-D matrix (augment checks it), and every strategy's
    layer and k must pass check_strategies. With no token there is nothing
    to derive: every plan is empty and no reference is built. Otherwise, one
    distinct layer at a time, in ascending order, the layer-l reference
    build_reference(enc, v0, l) is built (it must be finite), each
    character's constituent embeddings are pooled at that layer once, and
    every strategy at that layer maps the stack of pooled vectors back to
    input space. Only one reference is held at a time. linreg fits once per
    strategy on the reference's buffer, whose last column is the bias: a
    float64 reference is its own design matrix, and a float32 one is
    converted once; a float64 v0 is the fit's targets as it is. knn and
    local_linreg are one call each per strategy, derive_knn or
    derive_local_linreg over the whole stack, which finds every character's
    neighbours in one screened pass (euclidean) or converts a float32
    reference to float64 once (cosine).

    Every computation on v0's values is in float64, so a float32 v0 and its
    float64 widening give the same plans, bit for bit."""
    vectors = [np.empty((0, v0.shape[1]))] * len(strategies)
    for layer in sorted({s.layer for s in strategies}) if tokens else ():
        vl = build_reference(enc, v0, layer)
        if not all_finite(vl):
            raise ToolkitError(f"reference at layer {layer} contains non-finite values")
        pooled = np.stack(ordered_map(lambda ids: pooled_hidden(enc, v0[ids], layer), char_ids))
        for i, strat in enumerate(strategies):
            if strat.layer != layer:
                continue
            if strat.kind == "linreg":
                theta = _fit_affine(vl.base, v0, None, RIDGE_EPS)
                vectors[i] = np.array([_apply_affine(h, theta) for h in pooled], dtype=np.float64)
            elif strat.kind == "knn":
                vectors[i] = derive_knn(pooled, v0, vl, strat.k, metric)
            else:
                vectors[i] = derive_local_linreg(pooled, v0, vl, strat.k, metric=metric)
        del vl  # before the next layer's reference is built
    return [
        AugmentationPlan(tokens=tokens, vectors=vec, strategy=strat, distance_metric=metric)
        for strat, vec in zip(strategies, vectors)
    ]


def augment(
    tok: TokenizerHandle,
    v0: np.ndarray,
    enc: LayerEncoder,
    chars: set[str],
    strategies: Sequence[DerivationStrategy],
    metric: str = "euclidean",
) -> list[AugmentationPlan]:
    """Derive one input embedding per multi-token character with each
    strategy; returns one plan per strategy, in the order given.

    The steps, in this order, each failing before the next starts: v0 must
    be a 2-D matrix; then a strategy whose layer is above enc.depth or whose
    k does not fit v0's rows fails, before any character is encoded, with an
    error naming the strategy (check_strategies); then v0 must be finite;
    then each character is encoded once (constituent_ids), and one that
    encodes to a single token fails before any reference is built; then
    derive_plans derives every plan from the ids alone. A caller that holds
    the tokenizer only for this call can run the steps itself and drop the
    tokenizer before derive_plans, as the CLI does.
    """
    v0 = np.asarray(v0)
    if v0.ndim != 2:
        raise ToolkitError("v0 must be a 2-D matrix")
    check_strategies(enc, strategies, len(v0))
    if not all_finite(v0):
        raise ToolkitError("v0 contains non-finite values")
    tokens, char_ids = constituent_ids(tok, chars)
    return derive_plans(v0, enc, tokens, char_ids, strategies, metric)


def encode_augmented(text: str, tok: TokenizerHandle, tokens: Sequence[str]) -> list[tuple[str, int]]:
    """Tokenize with a plan's characters, tokens (plan.tokens), substituted
    first.

    Returns ("new", plan_row) and ("old", token_id) items in order.
    Planned characters are replaced greedily before base tokenization, so the
    remaining runs are tokenized independently of one another. Only the
    characters are read, so plans with equal tokens give equal items
    (corpus_similarity relies on this), and augment's CLI counts its new-token
    fraction before any plan is derived.
    """
    index = {t: i for i, t in enumerate(tokens)}
    items: list[tuple[str, int]] = []
    run_start = 0
    for pos, ch in enumerate(text):
        if ch in index:
            run = text[run_start:pos]
            if run:
                items.extend(("old", tid) for tid in tok.encode(run))
            items.append(("new", index[ch]))
            run_start = pos + 1
    tail = text[run_start:]
    if tail:
        items.extend(("old", tid) for tid in tok.encode(tail))
    return items


def eval_similarity(
    enc: LayerEncoder,
    v0: np.ndarray,
    before: np.ndarray | None,
    items: Sequence[tuple[str, int]],
    plan: AugmentationPlan,
    last_layer: int,
) -> float:
    """Cosine similarity of a sentence's encodings before and after
    augmentation: before is pooled_hidden over its tokens' rows of v0, and
    items, its encode_augmented tokens under plan, are pooled the same way.
    Exactly 1.0, with no encoder run, when no item is new (before may be None)."""
    if all(kind == "old" for kind, _ in items):
        return 1.0
    rows = np.stack([plan.vectors[i] if kind == "new" else v0[i] for kind, i in items])
    w = pooled_hidden(enc, rows, last_layer)
    nu = np.linalg.norm(before)
    nw = np.linalg.norm(w)
    if nu == 0.0 or nw == 0.0:
        raise ToolkitError("degenerate encoder produced a zero pooled vector")
    return float((before @ w) / (nu * nw))


def corpus_similarity(
    enc: LayerEncoder,
    v0: np.ndarray,
    corpus: Sequence[str],
    tok: TokenizerHandle,
    plans: Sequence[AugmentationPlan],
    last_layer: int,
) -> list[tuple[float, float]]:
    """Mean eval_similarity over a nonempty corpus and its fraction of new
    tokens, one (mean, fraction) per plan, in order. Both are read from the
    same encode_augmented items, kept only as (new, total) counts, so memory
    grows with the sentences, not their tokens. Each sentence is encoded
    once, augmented once per distinct plan.tokens (a grid's plans share
    theirs), and its before side pooled once, only when some plan touches
    it."""
    if len(corpus) == 0:
        raise ToolkitError("corpus is empty")
    token_sets = dict.fromkeys(plan.tokens for plan in plans)

    def per_plan(text: str) -> list[tuple[float, int, int]]:
        original = tok.encode(text)
        if not original:
            raise ToolkitError("sentence encodes to zero tokens")
        augmented = {tokens: encode_augmented(text, tok, tokens) for tokens in token_sets}
        new = {key: sum(kind == "new" for kind, _ in items) for key, items in augmented.items()}
        before = pooled_hidden(enc, np.asarray(v0)[original], last_layer) if any(new.values()) else None
        return [
            (eval_similarity(enc, v0, before, augmented[plan.tokens], plan, last_layer),
             new[plan.tokens], len(augmented[plan.tokens]))
            for plan in plans
        ]

    # A sentence's total is never 0: it holds a new item or is tok.encode(text).
    return [
        (sum(sim for sim, _, _ in col) / len(col), sum(n for _, n, _ in col) / sum(t for _, _, t in col))
        for col in zip(*ordered_map(per_plan, list(corpus)))
    ]


def fraction_new_tokens(encodings: Iterable[Sequence[tuple[str, int]]]) -> float:
    """Share of plan tokens among a corpus's encode_augmented items, given
    one item list per document: summed new items over summed items. Each
    list is counted as it comes, and no tokenizer runs here."""
    docs = new = total = 0
    for items in encodings:
        docs += 1
        new += sum(kind == "new" for kind, _ in items)
        total += len(items)
    if docs == 0:
        raise ToolkitError("corpus is empty")
    if total == 0:
        raise ToolkitError("corpus produced no tokens")
    return new / total


def save_plan(plan: AugmentationPlan, path: str, manifest: dict | None = None) -> None:
    """JSON with base64 float32 vectors, plus a companion matrix file at
    path + '.mat' holding plan.vectors, row-aligned with the entries."""
    entries = [
        {"token": t, "vector_b64": base64.b64encode(row.tobytes()).decode("ascii")}
        for t, row in zip(plan.tokens, np.asarray(plan.vectors, dtype="<f4"))
    ]
    doc: dict = {
        "strategy": {"kind": plan.strategy.kind, "layer": plan.strategy.layer, "k": plan.strategy.k},
        "distance_metric": plan.distance_metric,
        "dim": plan.dim,
        "entries": entries,
        "stats": plan.stats,
    }
    if manifest is not None:
        doc["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, ensure_ascii=False, indent=2, sort_keys=True)
        f.write("\n")
    write_matrix(
        path + ".mat", plan.vectors, layer=plan.strategy.layer, provenance=plan.strategy.label()
    )


def _plan_field(obj: object, key: str, types: type | tuple[type, ...]):
    """obj[key], which a plan file must hold with one of types (never a bool)."""
    if not (isinstance(obj, dict) and key in obj):
        raise ToolkitError(f"plan field {key!r} is missing")
    if isinstance(obj[key], bool) or not isinstance(obj[key], types):
        raise ToolkitError(f"plan field {key!r} has the wrong type")
    return obj[key]


def _plan_from_doc(doc: object) -> AugmentationPlan:
    strategy = _plan_field(doc, "strategy", dict)
    strat = DerivationStrategy(
        kind=_plan_field(strategy, "kind", str),
        layer=_plan_field(strategy, "layer", int),
        k=_plan_field(strategy, "k", (int, type(None))),
    )
    dim = _plan_field(doc, "dim", int)
    if dim < 1:
        raise ToolkitError(f"plan field 'dim' is {dim}, not >= 1")
    rows: dict[str, np.ndarray] = {}
    for e in _plan_field(doc, "entries", list):
        token = _plan_field(e, "token", str)
        if len(token) != 1:  # encode_augmented substitutes single characters
            raise ToolkitError(f"plan token {token!r} is not one character")
        if token in rows:
            raise ToolkitError(f"plan token {token!r} is repeated")
        b64 = _plan_field(e, "vector_b64", str)
        try:
            raw = base64.b64decode(b64, validate=True)
        except binascii.Error:
            raise ToolkitError(f"entry {token!r} vector is not valid base64") from None
        if len(raw) != 4 * dim:
            raise ToolkitError(f"entry {token!r} has {len(raw)} vector bytes, expected {4 * dim} (dim {dim})")
        rows[token] = np.frombuffer(raw, dtype="<f4")
        if not np.all(np.isfinite(rows[token])):
            raise ToolkitError(f"entry {token!r} vector is not finite")
    metric = _plan_field(doc, "distance_metric", str) if "distance_metric" in doc else "euclidean"
    if metric not in ("euclidean", "cosine"):
        raise ToolkitError(f"plan field 'distance_metric' is {metric!r}, not euclidean or cosine")
    return AugmentationPlan(
        tokens=tuple(rows),
        vectors=np.array(list(rows.values()), dtype=np.float64).reshape(len(rows), dim),
        strategy=strat,
        distance_metric=metric,
        stats=_plan_field(doc, "stats", dict) if "stats" in doc else {},
    )


def load_plan(path: str) -> AugmentationPlan:
    """Read a plan file; anything malformed in it is an error naming path."""
    with reading(path), open(path, "r", encoding="utf-8") as f:
        return _plan_from_doc(json.load(f))

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
files with an 8-byte header; plans as JSON with base64 vectors plus a
companion matrix file, so embeddings exported from a real model can be
plugged in and the plan imported back.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import ToolkitError
from .parallel import ordered_map
from .premium import TokenizerHandle
from .text import Corpus

__all__ = [
    "write_matrix",
    "read_matrix",
    "LayerEncoder",
    "ToyEncoder",
    "toy_encoder",
    "LookupEncoder",
    "pooled_hidden",
    "build_reference",
    "derive_knn",
    "derive_linreg",
    "derive_local_linreg",
    "DerivationStrategy",
    "PlanEntry",
    "AugmentationPlan",
    "select_oov_chars",
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


def read_matrix(path: str) -> tuple[np.ndarray, dict | None]:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ToolkitError(f"{path}: truncated header")
        n, dim = _HEADER.unpack(head)
        data = f.read()
    expected = n * dim * 4
    if len(data) != expected:
        raise ToolkitError(f"{path}: expected {expected} data bytes, found {len(data)}")
    arr = np.frombuffer(data, dtype="<f4").reshape(n, dim)
    sidecar = None
    try:
        with open(path + ".json", "r", encoding="utf-8") as f:
            sidecar = json.load(f)
    except FileNotFoundError:
        pass
    return arr, sidecar


class LayerEncoder(Protocol):
    """Deterministic, length-preserving map from an embedding sequence to
    hidden states at a layer; layer 0 is the identity."""

    depth: int

    def encode_to_layer(self, states: np.ndarray, layer: int) -> np.ndarray: ...


class ToyEncoder:
    """Small seeded stand-in for a real model.

    Each layer applies a causal prefix-mean mixing step, an affine map, and
    tanh. The linear variant drops both the mixing and the tanh (pure
    per-position affine), which makes averaging commute with the layer map.
    """

    def __init__(self, seed: int, depth: int, dim: int, linear: bool = False):
        if depth < 1:
            raise ToolkitError("depth must be >= 1")
        if dim < 1:
            raise ToolkitError("dim must be >= 1")
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
        if h.ndim != 2 or h.shape[1] != self.dim:
            raise ToolkitError(f"expected (n, {self.dim}) states, got {h.shape}")
        for w, b in self.layers[:layer]:
            if self.linear:
                h = h @ w.T + b
            else:
                prefix_mean = np.cumsum(h, axis=0) / np.arange(1, len(h) + 1)[:, None]
                h = np.tanh((0.5 * h + 0.5 * prefix_mean) @ w.T + b)
        return h


def toy_encoder(seed: int, depth: int, dim: int, linear: bool = False) -> ToyEncoder:
    return ToyEncoder(seed, depth, dim, linear=linear)


class LookupEncoder:
    """Encoder backed by exported per-token matrices (layer -> matrix).

    It can only encode vectors that are exact rows of its V0, each position
    independently, so it supports reference building and augmentation but not
    evaluation over derived vectors.
    """

    def __init__(self, v0: np.ndarray, layer_matrices: dict[int, np.ndarray]):
        self._v0 = np.asarray(v0)
        self._by_row = {self._v0[i].tobytes(): i for i in range(len(self._v0))}
        self._layers = {0: self._v0}
        for layer, mat in layer_matrices.items():
            m = np.asarray(mat)
            if m.shape != self._v0.shape:
                raise ToolkitError(
                    f"layer {layer} matrix shape {m.shape} does not match V0 {self._v0.shape}"
                )
            self._layers[int(layer)] = m
        self.depth = max(self._layers)

    def encode_to_layer(self, states: np.ndarray, layer: int) -> np.ndarray:
        if layer not in self._layers:
            raise ToolkitError(f"no exported matrix for layer {layer}")
        arr = np.asarray(states)
        if layer == 0:
            return np.array(arr, copy=True)
        out = np.empty((len(arr), self._v0.shape[1]), dtype=self._layers[layer].dtype)
        for i, row in enumerate(arr):
            idx = self._by_row.get(np.asarray(row, dtype=self._v0.dtype).tobytes())
            if idx is None:
                raise ToolkitError(
                    "lookup encoder can only encode exact vocabulary embeddings; "
                    "evaluation needs a runnable encoder"
                )
            out[i] = self._layers[layer][idx]
        return out


def pooled_hidden(enc: LayerEncoder, embeddings: np.ndarray, layer: int) -> np.ndarray:
    """Mean of the layer-l hidden states of an embedding sequence."""
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim != 2 or len(arr) == 0:
        raise ToolkitError("pooled_hidden needs a nonempty sequence of vectors")
    if not np.all(np.isfinite(arr)):
        raise ToolkitError("embeddings contain non-finite values")
    return enc.encode_to_layer(arr, layer).mean(axis=0)


def build_reference(enc: LayerEncoder, v0: np.ndarray, layer: int) -> np.ndarray:
    """V_l: run each token's embedding through the encoder on its own."""
    arr = np.asarray(v0)
    if layer == 0:
        return np.array(arr, copy=True)
    rows = [enc.encode_to_layer(arr[t : t + 1], layer)[0] for t in range(len(arr))]
    return np.stack(rows)


def _distances(h: np.ndarray, vl: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        return np.linalg.norm(vl - h, axis=1)
    if metric == "cosine":
        norms = np.linalg.norm(vl, axis=1) * np.linalg.norm(h)
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(norms > 0, (vl @ h) / norms, 0.0)
        return 1.0 - sims
    raise ToolkitError(f"unknown distance metric {metric!r}")


def _nearest(h: np.ndarray, vl: np.ndarray, k: int, metric: str) -> tuple[np.ndarray, np.ndarray]:
    d = _distances(np.asarray(h, dtype=np.float64), np.asarray(vl, dtype=np.float64), metric)
    # Exact brute force; ties resolved by row index so results never depend
    # on sort internals.
    order = np.lexsort((np.arange(len(d)), d))[:k]
    return order, d[order]


def derive_knn(
    h: np.ndarray, v0: np.ndarray, vl: np.ndarray, k: int, metric: str = "euclidean"
) -> np.ndarray:
    """Inverse-distance-weighted mean of the k nearest tokens' embeddings.

    A zero distance makes 1/d undefined, so exact hits short-circuit: the
    result is the unweighted mean of the zero-distance rows' embeddings
    (bitwise the embedding itself when there is exactly one)."""
    n = len(vl)
    if not 1 <= k <= n:
        raise ToolkitError(f"k must be in 1..{n}, got {k}")
    idx, dists = _nearest(h, vl, k, metric)
    zero = idx[dists == 0.0]
    if len(zero) == 1:
        return np.array(v0[zero[0]], copy=True)
    if len(zero) > 1:
        return np.asarray(v0)[zero].mean(axis=0)
    weights = 1.0 / dists
    rows = np.asarray(v0, dtype=np.float64)[idx]
    return (weights[:, None] * rows).sum(axis=0) / weights.sum()


def _fit_affine(
    x: np.ndarray, y: np.ndarray, sample_weights: np.ndarray | None, ridge: float
) -> np.ndarray:
    """Solve (X'WX + ridge*I) theta = X'WY for X with a bias column."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    design = np.hstack([x, np.ones((len(x), 1))])
    if sample_weights is None:
        gram = design.T @ design
        moment = design.T @ y
    else:
        weighted = design * sample_weights[:, None]
        gram = design.T @ weighted
        moment = weighted.T @ y
    gram = gram + ridge * np.eye(gram.shape[0])
    return np.linalg.solve(gram, moment)


def _apply_affine(h: np.ndarray, theta: np.ndarray) -> np.ndarray:
    hv = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(hv)):
        raise ToolkitError("query vector contains non-finite values")
    return np.append(hv, 1.0) @ theta


def derive_linreg(
    h: np.ndarray, v0: np.ndarray, vl: np.ndarray, ridge: float = RIDGE_EPS
) -> np.ndarray:
    """Global affine map from vl rows to v0 rows, fitted on every call,
    applied to h."""
    return _apply_affine(h, _fit_affine(vl, v0, None, ridge))


def derive_local_linreg(
    h: np.ndarray,
    v0: np.ndarray,
    vl: np.ndarray,
    k: int,
    ridge: float = RIDGE_EPS,
    metric: str = "euclidean",
) -> np.ndarray:
    """Affine map fitted on the k nearest tokens only, samples weighted by
    exp(-distance), applied to h."""
    n = len(vl)
    if not 2 <= k <= n:
        raise ToolkitError(f"k must be in 2..{n}, got {k}")
    hv = np.asarray(h, dtype=np.float64)
    idx, dists = _nearest(hv, vl, k, metric)
    weights = np.exp(-dists)
    mean_w = weights.mean()
    if mean_w > 0:
        # Normalizing to mean 1 keeps the ridge term's relative size stable
        # and makes the all-weights-equal case coincide with the global fit.
        weights = weights / mean_w
    else:
        weights = np.ones_like(weights)  # all weights underflowed
    theta = _fit_affine(np.asarray(vl)[idx], np.asarray(v0)[idx], weights, ridge)
    return np.append(hv, 1.0) @ theta


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
class PlanEntry:
    token: str
    vector: np.ndarray


@dataclass
class AugmentationPlan:
    """New single-character tokens with derived input embeddings.

    v0 is the embedding matrix the plan was derived from; it rides along in
    memory (evaluation needs it) but only its dimension is serialized.
    """

    entries: list[PlanEntry]
    strategy: DerivationStrategy
    dim: int
    distance_metric: str = "euclidean"
    stats: dict = field(default_factory=dict)
    v0: np.ndarray | None = field(default=None, repr=False)

    def chars(self) -> set[str]:
        return {e.token for e in self.entries}

    def entry_index(self) -> dict[str, int]:
        return {e.token: i for i, e in enumerate(self.entries)}


def select_oov_chars(corpus: Corpus, tok: TokenizerHandle) -> set[str]:
    """Characters of the corpus whose own encoding is 2 tokens or longer.

    Characters the tokenizer cannot encode at all are not included: with no
    constituent tokens there is nothing to derive from.
    """
    out = set()
    for ch in {c for doc in corpus for c in doc}:
        try:
            n = len(tok.encode(ch))
        except ToolkitError:
            continue
        if n >= 2:
            out.add(ch)
    return out


def augment(
    tok: TokenizerHandle,
    v0: np.ndarray,
    enc: LayerEncoder,
    chars: set[str],
    strat: DerivationStrategy,
    metric: str = "euclidean",
) -> AugmentationPlan:
    """Derive one input embedding per multi-token character.

    Per character: encode it, look up the constituent embeddings, pool their
    layer-l hidden states, and map the pooled vector back to input space with
    the strategy. The layer-l reference matrix, and for linreg the affine
    fit, are computed once per call.
    """
    v0 = np.asarray(v0)
    if v0.ndim != 2:
        raise ToolkitError("v0 must be a 2-D matrix")
    if not np.all(np.isfinite(v0)):
        raise ToolkitError("v0 contains non-finite values")
    ordered_chars = sorted(set(chars))
    vl = build_reference(enc, v0, strat.layer)
    if strat.kind == "linreg":
        theta = _fit_affine(vl, v0, None, RIDGE_EPS)

    def derive_one(ch: str) -> PlanEntry:
        ids = tok.encode(ch)
        if len(ids) < 2:
            raise ToolkitError(
                f"character {ch!r} encodes to a single token; nothing to derive"
            )
        pooled = pooled_hidden(enc, v0[ids], strat.layer)
        if strat.kind == "knn":
            vec = derive_knn(pooled, v0, vl, strat.k, metric)
        elif strat.kind == "linreg":
            vec = _apply_affine(pooled, theta)
        else:
            vec = derive_local_linreg(pooled, v0, vl, strat.k, metric=metric)
        return PlanEntry(token=ch, vector=np.asarray(vec, dtype=np.float64))

    entries = ordered_map(derive_one, ordered_chars)
    return AugmentationPlan(
        entries=entries,
        strategy=strat,
        dim=v0.shape[1],
        distance_metric=metric,
        v0=v0,
    )


def encode_augmented(
    text: str, tok: TokenizerHandle, plan: AugmentationPlan
) -> list[tuple[str, int]]:
    """Tokenize with planned characters substituted first.

    Returns ("new", entry_index) and ("old", token_id) items in order.
    Planned characters are replaced greedily before base tokenization, so the
    remaining runs are tokenized independently of one another.
    """
    index = plan.entry_index()
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


def _embedding_rows(
    items: list[tuple[str, int]], v0: np.ndarray, plan: AugmentationPlan
) -> np.ndarray:
    rows = [
        plan.entries[i].vector if kind == "new" else v0[i] for kind, i in items
    ]
    return np.stack([np.asarray(r, dtype=np.float64) for r in rows])


def eval_similarity(
    enc: LayerEncoder,
    sentence: str,
    tok: TokenizerHandle,
    plan: AugmentationPlan,
    last_layer: int,
) -> float:
    """Cosine similarity of a sentence's encodings before and after
    augmentation: run both token-embedding sequences to last_layer, average
    each run's states into one vector, compare. Exactly 1.0 when the plan
    touches nothing in the sentence."""
    if sentence == "":
        raise ToolkitError("sentence is empty")
    if plan.v0 is None:
        raise ToolkitError("plan carries no embedding matrix; attach v0 first")
    v0 = np.asarray(plan.v0)
    original = tok.encode(sentence)
    augmented = encode_augmented(sentence, tok, plan)
    if not original:
        raise ToolkitError("sentence encodes to zero tokens")
    if all(kind == "old" for kind, _ in augmented):
        return 1.0
    orig_rows = np.asarray(v0[original], dtype=np.float64)
    aug_rows = _embedding_rows(augmented, v0, plan)
    u = enc.encode_to_layer(orig_rows, last_layer).mean(axis=0)
    w = enc.encode_to_layer(aug_rows, last_layer).mean(axis=0)
    nu = np.linalg.norm(u)
    nw = np.linalg.norm(w)
    if nu == 0.0 or nw == 0.0:
        raise ToolkitError("degenerate encoder produced a zero pooled vector")
    return float((u @ w) / (nu * nw))


def corpus_similarity(
    enc: LayerEncoder,
    corpus: Corpus,
    tok: TokenizerHandle,
    plan: AugmentationPlan,
    last_layer: int,
) -> float:
    """Mean per-sentence similarity over a corpus."""
    if len(corpus) == 0:
        raise ToolkitError("corpus is empty")
    sims = ordered_map(lambda doc: eval_similarity(enc, doc, tok, plan, last_layer), list(corpus))
    return sum(sims) / len(sims)


def fraction_new_tokens(corpus: Corpus, tok: TokenizerHandle, plan: AugmentationPlan) -> float:
    """Share of plan tokens in the augmented encoding of a corpus."""
    if len(corpus) == 0:
        raise ToolkitError("corpus is empty")
    new = 0
    total = 0
    for doc in corpus:
        for kind, _ in encode_augmented(doc, tok, plan):
            total += 1
            if kind == "new":
                new += 1
    if total == 0:
        raise ToolkitError("corpus produced no tokens")
    return new / total


def save_plan(plan: AugmentationPlan, path: str, manifest: dict | None = None) -> None:
    """JSON with base64 float32 vectors, plus a companion matrix file at
    path + '.mat' holding the same vectors row-aligned with entries."""
    entries = []
    for e in plan.entries:
        vec = np.asarray(e.vector, dtype="<f4")
        entries.append(
            {"token": e.token, "vector_b64": base64.b64encode(vec.tobytes()).decode("ascii")}
        )
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
    if plan.entries:
        mat = np.stack([np.asarray(e.vector, dtype=np.float64) for e in plan.entries])
    else:
        mat = np.zeros((0, plan.dim))
    write_matrix(
        path + ".mat", mat, layer=plan.strategy.layer, provenance=plan.strategy.label()
    )


def load_plan(path: str, v0: np.ndarray | None = None) -> AugmentationPlan:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    strat = DerivationStrategy(
        kind=doc["strategy"]["kind"], layer=doc["strategy"]["layer"], k=doc["strategy"]["k"]
    )
    dim = doc["dim"]
    entries = []
    for e in doc["entries"]:
        vec = np.frombuffer(base64.b64decode(e["vector_b64"]), dtype="<f4").astype(np.float64)
        if len(vec) != dim:
            raise ToolkitError(f"{path}: entry {e['token']!r} has dim {len(vec)}, expected {dim}")
        entries.append(PlanEntry(token=e["token"], vector=vec))
    return AugmentationPlan(
        entries=entries,
        strategy=strat,
        dim=dim,
        distance_metric=doc.get("distance_metric", "euclidean"),
        stats=doc.get("stats", {}),
        v0=v0,
    )

"""Embedding derivation: matrix IO, encoders, the three strategies, plans."""

import base64
import contextlib
import dataclasses
import json
import math
import re
import struct
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tokenlens.embedding import (
    RIDGE_EPS,
    AugmentationPlan,
    DerivationStrategy,
    LookupEncoder,
    ToyEncoder,
    augment,
    build_reference,
    corpus_similarity,
    derive_knn,
    derive_linreg,
    derive_local_linreg,
    encode_augmented,
    eval_similarity,
    fraction_new_tokens,
    load_plan,
    pooled_hidden,
    read_matrix,
    save_plan,
    select_oov_chars,
    toy_encoder,
    write_matrix,
)
from tokenlens import embedding
from tokenlens.embedding import _distances, _fit_affine, _nearest, _with_bias
from tokenlens.errors import OovCharacterError, ToolkitError
from tokenlens.premium import TokenizerHandle, bpe_tokenizer
from tokenlens.vocab import MergeRule, MergeRuleList, Vocabulary


def oracle_build_reference(enc, v0, layer):
    """V_l one token at a time: each row encoded as its own length-1 sequence."""
    arr = np.asarray(v0)
    if layer == 0:
        return np.array(arr, copy=True)
    return np.stack([enc.encode_to_layer(arr[t : t + 1], layer)[0] for t in range(len(arr))])


def oracle_fit_affine(x, y, sample_weights, ridge):
    """The affine fit with its design matrix built by np.hstack from a float64
    copy of x."""
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


def oracle_euclidean(h, vl):
    """The euclidean distances in one pass over every row."""
    return np.linalg.norm(vl - h, axis=1)


def oracle_cosine(h, vl):
    """The cosine distances over every row, with the float64 reference's own
    product and norms."""
    norms = np.linalg.norm(vl, axis=1) * np.linalg.norm(h)
    with np.errstate(invalid="ignore", divide="ignore"):
        return 1.0 - np.where(norms > 0, (vl @ h) / norms, 0.0)


def oracle_nearest(h, vl, k, metric):
    """The k first rows of the full (distance, row index) order, one query at
    a time, with every row's distance taken in one pass."""
    h = np.asarray(h, dtype=np.float64)
    vl = np.asarray(vl, dtype=np.float64)
    d = {"euclidean": oracle_euclidean, "cosine": oracle_cosine}[metric](h, vl)
    order = np.lexsort((np.arange(len(d)), d))[:k]
    return order, d[order]


def oracle_derive_knn(h, v0, vl, k, metric="euclidean"):
    """derive_knn's weighting over oracle_nearest's neighbours, in float64."""
    idx, dists = oracle_nearest(h, vl, k, metric)
    v0 = np.asarray(v0)
    zero = idx[dists == 0.0]
    if len(zero):
        return np.asarray(v0[zero], dtype=np.float64).mean(axis=0)
    weights = 1.0 / dists
    return (weights[:, None] * np.asarray(v0[idx], dtype=np.float64)).sum(axis=0) / weights.sum()


def oracle_derive_local_linreg(h, v0, vl, k, metric="euclidean"):
    """derive_local_linreg's fit over oracle_nearest's neighbours."""
    idx, dists = oracle_nearest(h, vl, k, metric)
    weights = np.exp(-dists)
    weights = weights / weights.mean() if weights.mean() > 0 else np.ones_like(weights)
    theta = oracle_fit_affine(np.asarray(vl)[idx], np.asarray(v0)[idx], weights, RIDGE_EPS)
    return np.append(np.asarray(h, dtype=np.float64), 1.0) @ theta


def oracle_sentence_similarity(enc, v0, sentence, tok, plan, last_layer):
    """One sentence under one plan: both sides encoded and pooled inline,
    each row converted to float64 on its own."""
    augmented = encode_augmented(sentence, tok, plan.tokens)
    if all(kind == "old" for kind, _ in augmented):
        return 1.0
    u = enc.encode_to_layer(np.asarray(v0[tok.encode(sentence)], dtype=np.float64), last_layer).mean(axis=0)
    rows = [plan.vectors[i] if kind == "new" else np.asarray(v0[i], dtype=np.float64) for kind, i in augmented]
    w = enc.encode_to_layer(np.stack(rows), last_layer).mean(axis=0)
    return float((u @ w) / (np.linalg.norm(u) * np.linalg.norm(w)))


def oracle_fraction_new_tokens(corpus, tok, plan):
    """Share of plan tokens, each document encoded again under plan."""
    if len(corpus) == 0:
        raise ToolkitError("corpus is empty")
    new = 0
    total = 0
    for doc in corpus:
        for kind, _ in encode_augmented(doc, tok, plan.tokens):
            total += 1
            if kind == "new":
                new += 1
    if total == 0:
        raise ToolkitError("corpus produced no tokens")
    return new / total


class CountingEncoder:
    """Passes every call on to an encoder and keeps the states it was given."""

    def __init__(self, inner):
        self.inner = inner
        self.depth = inner.depth
        self.calls = []

    def encode_to_layer(self, states, layer):
        self.calls.append(np.array(states))
        return self.inner.encode_to_layer(states, layer)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# Ordinary values plus zeros, subnormals and values large enough to overflow
# a layer's affine map.
_EDGE_FLOATS = st.one_of(
    st.floats(-4.0, 4.0, width=64),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7e308, -1.7e308, 3e38]
    ),
)


@pytest.fixture()
def byte_tok():
    """Byte-alias tokenizer: 'é' and 'è' split into two tokens, ascii into one.

    Tokens are the alias characters of the UTF-8 bytes: C3 -> Ã, A9 -> ©,
    A8 -> ¨ (all in the kept printable ranges).
    """
    vocab = Vocabulary(
        [b"a", b"b", "Ã".encode("utf-8"), "©".encode("utf-8"), "¨".encode("utf-8")]
    )
    return vocab, bpe_tokenizer("bytes", vocab, MergeRuleList(), byte_input=True)


class TestMatrixIO:
    def test_roundtrip_values_and_sidecar(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 4))
        path = str(tmp_path / "v0.mat")
        write_matrix(path, mat, layer=2, provenance="demo")
        arr = read_matrix(path)
        assert arr.shape == (3, 4)
        assert np.array_equal(arr, mat.astype("<f4"))
        with open(path + ".json", encoding="utf-8") as f:
            assert json.load(f) == {"n_tokens": 3, "dim": 4, "layer": 2, "provenance": "demo"}

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "v0.mat")
        write_matrix(path, np.zeros((5, 7)))
        with open(path, "rb") as f:
            head = f.read(8)
        assert struct.unpack("<II", head) == (5, 7)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.mat")
        with open(path, "wb") as f:
            f.write(b"\x01\x00")
        with pytest.raises(ToolkitError):
            read_matrix(path)

    def test_short_data_rejected(self, tmp_path):
        path = str(tmp_path / "bad.mat")
        with open(path, "wb") as f:
            f.write(struct.pack("<II", 2, 2))
            f.write(b"\x00" * 8)  # needs 16
        with pytest.raises(ToolkitError):
            read_matrix(path)

    def test_trailing_data_rejected(self, tmp_path):
        path = str(tmp_path / "bad.mat")
        with open(path, "wb") as f:
            f.write(struct.pack("<II", 2, 2))
            f.write(b"\x00" * 20)  # needs 16
        with pytest.raises(ToolkitError, match="expected 16 data bytes, found 20"):
            read_matrix(path)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        # A header claiming 2**32 - 1 rows of 2**32 - 1 values is checked
        # against the file size; no array of that size is attempted.
        path = str(tmp_path / "bad.mat")
        with open(path, "wb") as f:
            f.write(struct.pack("<II", 2**32 - 1, 2**32 - 1))
            f.write(b"\x00" * 16)
        with pytest.raises(ToolkitError, match="found 16"):
            read_matrix(path)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (1500, 7)])
    def test_read_is_writable_and_exact(self, tmp_path, shape):
        # (1500, 7) spans more than the reader's 8 KiB buffer.
        path = str(tmp_path / "v.mat")
        mat = np.random.default_rng(1).normal(size=shape).astype("<f4")
        write_matrix(path, mat)
        arr = read_matrix(path)
        assert_bitwise(arr, mat)
        assert arr.flags.writeable and arr.flags.c_contiguous

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ToolkitError):
            write_matrix(str(tmp_path / "bad.mat"), np.zeros(4))

    def test_file_shrinking_while_read_rejected(self, tmp_path, monkeypatch):
        # The header promises 16 data bytes and fstat agrees, but only 8 are
        # left by the time they are read.
        path = str(tmp_path / "v.mat")
        with open(path, "wb") as f:
            f.write(struct.pack("<II", 2, 2))
            f.write(b"\x00" * 8)
        def fstat(fd):
            return types.SimpleNamespace(st_size=24)

        monkeypatch.setattr(embedding, "os", types.SimpleNamespace(fstat=fstat))
        with pytest.raises(ToolkitError, match=f"^{re.escape(path)}: expected 16 data bytes, found 8$"):
            read_matrix(path)


def oracle_toy_encode(enc, states, layer):
    """The toy layer map on one (n, dim) sequence, written out of place."""
    h = np.array(states, dtype=np.float64, copy=True)
    for w, b in enc.layers[:layer]:
        if enc.linear:
            h = h @ w.T + b
        else:
            prefix_mean = np.cumsum(h, axis=0) / np.arange(1, len(h) + 1)[:, None]
            h = np.tanh((0.5 * h + 0.5 * prefix_mean) @ w.T + b)
    return h


def oracle_prefix_mean_encode(enc, states, layer):
    """The toy encoder's in-place loop with its prefix-mean step run at every
    layer, whatever the sequence length."""
    h = np.array(states, dtype=np.float64, copy=True)
    for w, b in enc.layers[:layer]:
        prefix_mean = np.cumsum(h, axis=-2)
        prefix_mean /= np.arange(1, h.shape[-2] + 1)[:, None]
        prefix_mean *= 0.5
        h *= 0.5
        h += prefix_mean
        del prefix_mean
        h = h @ w.T
        h += b
        np.tanh(h, out=h)
    return h


# _EDGE_FLOATS plus infinities and NaNs, one with a payload.
_SPECIAL_FLOATS = _EDGE_FLOATS | st.sampled_from(
    [math.inf, -math.inf, math.nan, -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]]
)


@st.composite
def toy_stacks(draw):
    """(encoder, (batch, n, dim) stack, layer), dims across BLAS kernel sizes."""
    depth = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 70))
    enc = toy_encoder(draw(st.integers(0, 2**32 - 1)), depth, dim, linear=draw(st.booleans()))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), dim)
    stack = draw(hnp.arrays(np.float64, shape, elements=_EDGE_FLOATS))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):
            stack = stack.astype(np.float32)  # as read_matrix gives it
    return enc, stack, draw(st.integers(0, depth))


class TestToyEncoder:
    def test_layer_zero_is_identity(self):
        enc = toy_encoder(seed=1, depth=2, dim=3)
        x = np.arange(6, dtype=float).reshape(2, 3)
        out = enc.encode_to_layer(x, 0)
        assert np.array_equal(out, x)
        out[0, 0] = 99.0
        assert x[0, 0] == 0.0  # copies, never aliases

    def test_matches_manual_reimplementation(self):
        enc = toy_encoder(seed=7, depth=1, dim=2)
        rng = np.random.default_rng(7)
        w = rng.normal(0.0, 1.0 / math.sqrt(2), size=(2, 2))
        b = rng.normal(0.0, 0.1, size=2)
        states = np.array([[0.5, -1.0], [2.0, 0.25]])
        pm1 = (states[0] + states[1]) / 2
        expected = np.stack(
            [
                np.tanh(states[0] @ w.T + b),
                np.tanh((0.5 * states[1] + 0.5 * pm1) @ w.T + b),
            ]
        )
        assert np.allclose(enc.encode_to_layer(states, 1), expected, rtol=1e-12)

    def test_same_seed_same_weights_across_depths(self):
        x = np.random.default_rng(3).normal(size=(4, 5))
        shallow = toy_encoder(seed=11, depth=1, dim=5)
        deep = toy_encoder(seed=11, depth=3, dim=5)
        assert np.array_equal(
            shallow.encode_to_layer(x, 1), deep.encode_to_layer(x, 1)
        )

    def test_different_seeds_differ(self):
        x = np.ones((2, 4))
        a = toy_encoder(seed=1, depth=1, dim=4).encode_to_layer(x, 1)
        b = toy_encoder(seed=2, depth=1, dim=4).encode_to_layer(x, 1)
        assert not np.allclose(a, b)

    def test_mixing_makes_earlier_positions_leak_forward(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        y = x.copy()
        y[0] += 1.0
        enc = toy_encoder(seed=5, depth=1, dim=3)
        assert not np.allclose(enc.encode_to_layer(x, 1)[1], enc.encode_to_layer(y, 1)[1])
        lin = toy_encoder(seed=5, depth=1, dim=3, linear=True)
        assert np.array_equal(lin.encode_to_layer(x, 1)[1], lin.encode_to_layer(y, 1)[1])

    def test_linear_variant_is_per_position(self):
        enc = toy_encoder(seed=5, depth=2, dim=3, linear=True)
        x = np.random.default_rng(0).normal(size=(4, 3))
        full = enc.encode_to_layer(x, 2)
        rows = [enc.encode_to_layer(x[i : i + 1], 2)[0] for i in range(4)]
        assert np.allclose(full, np.stack(rows), rtol=1e-12)

    def test_linear_variant_commutes_with_averaging(self):
        enc = toy_encoder(seed=9, depth=2, dim=4, linear=True)
        x = np.random.default_rng(1).normal(size=(6, 4))
        lhs = enc.encode_to_layer(x, 2).mean(axis=0)
        rhs = enc.encode_to_layer(x.mean(axis=0, keepdims=True), 2)[0]
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ToolkitError):
            toy_encoder(seed=0, depth=0, dim=2)
        with pytest.raises(ToolkitError):
            toy_encoder(seed=0, depth=1, dim=0)
        enc = toy_encoder(seed=0, depth=1, dim=2)
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((1, 2)), 2)
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((1, 3)), 1)
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((1, 1, 3)), 1)
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros(2), 1)
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((1, 1, 1, 2)), 1)

    def test_stack_input_is_not_modified(self):
        enc = toy_encoder(seed=4, depth=2, dim=3)
        x = np.random.default_rng(2).normal(size=(2, 3, 3))
        before = x.copy()
        enc.encode_to_layer(x, 2)
        assert_bitwise(x, before)

    @given(toy_stacks())
    def test_stack_matches_one_sequence_at_a_time(self, case):
        enc, stack, layer = case
        with np.errstate(all="ignore"):
            batched = enc.encode_to_layer(stack, layer)
            single = [enc.encode_to_layer(seq, layer) for seq in stack]
            formula = [oracle_toy_encode(enc, seq, layer) for seq in stack]
        assert_bitwise(batched, np.stack(single))
        assert_bitwise(batched, np.stack(formula))


    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 70), st.integers(1, 5), st.data())
    def test_one_position_matches_prefix_mean_loop(self, seed, depth, dim, batch, data):
        # A one-position sequence skips the cumsum and the divide; every bit
        # stays.
        enc = toy_encoder(seed, depth, dim)
        layer = data.draw(st.integers(1, depth))
        seq = data.draw(hnp.arrays(np.float64, (1, dim), elements=_SPECIAL_FLOATS))
        stack = data.draw(hnp.arrays(np.float64, (batch, 1, dim), elements=_SPECIAL_FLOATS))
        with np.errstate(all="ignore"):
            assert_bitwise(enc.encode_to_layer(seq, layer), oracle_prefix_mean_encode(enc, seq, layer))
            assert_bitwise(enc.encode_to_layer(stack, layer), oracle_prefix_mean_encode(enc, stack, layer))

    @given(st.integers(1, 8), st.integers(1, 3), st.data())
    def test_one_position_mixing_bits_show(self, dim, batch, data):
        # With identity layers the output is tanh of the mixed states, and
        # tanh keeps subnormals, so a mixing step other than
        # fl(0.5*h) + fl(0.5*h) shows in the bits: 0.5 * 5e-324 rounds to 0.
        # Tried in a scratch copy, one-position mixing steps of "nothing"
        # and of "h += 0.0" each fail here; with random layers they do not,
        # because adding b swamps a subnormal.
        enc = toy_encoder(0, 2, dim)
        enc.layers = [(np.eye(dim), np.zeros(dim))] * 2
        tiny = st.sampled_from([5e-324, -5e-324, 1.5e-323, 1e-310, -0.0, 0.0]) | st.floats(-4.0, 4.0)
        stack = data.draw(hnp.arrays(np.float64, (batch, 1, dim), elements=tiny))
        assert_bitwise(enc.encode_to_layer(stack, 1), oracle_prefix_mean_encode(enc, stack, 1))
        assert_bitwise(enc.encode_to_layer(stack, 2), oracle_prefix_mean_encode(enc, stack, 2))
        assert_bitwise(enc.encode_to_layer(stack[0], 2), oracle_prefix_mean_encode(enc, stack[0], 2))

    def test_one_position_special_values(self):
        enc = toy_encoder(seed=3, depth=2, dim=8)
        nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
        row = [5e-324, -5e-324, -0.0, 0.0, 1.7e308, -math.inf, math.nan, nan_payload]
        stack = np.array([[row], [row[::-1]], [[1e-310] * 8]])
        with np.errstate(all="ignore"):
            for layer in (1, 2):
                assert_bitwise(enc.encode_to_layer(stack, layer), oracle_prefix_mean_encode(enc, stack, layer))
                assert_bitwise(enc.encode_to_layer(stack[0], layer), oracle_prefix_mean_encode(enc, stack[0], layer))


class TestLookupEncoder:
    @pytest.fixture()
    def exported(self):
        rng = np.random.default_rng(4)
        v0 = rng.normal(size=(5, 3))
        m1 = rng.normal(size=(5, 3))
        return v0, m1, LookupEncoder(v0, {1: m1})

    def test_layer_zero_copies(self, exported):
        v0, _, enc = exported
        out = enc.encode_to_layer(v0[:2], 0)
        assert np.array_equal(out, v0[:2])

    def test_exact_rows_map_to_exported_rows(self, exported):
        v0, m1, enc = exported
        out = enc.encode_to_layer(v0[[3, 1]], 1)
        assert np.array_equal(out, m1[[3, 1]])

    def test_stack_maps_row_by_row(self, exported):
        v0, m1, enc = exported
        out = enc.encode_to_layer(np.stack([v0[[3, 1]], v0[[0, 0]]]), 1)
        assert_bitwise(out, np.stack([m1[[3, 1]], m1[[0, 0]]]))

    def test_unknown_vector_is_error(self, exported):
        _, _, enc = exported
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((1, 3)), 1)
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((2, 1, 3)), 1)

    def test_missing_layer_is_error(self, exported):
        v0, _, enc = exported
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(v0[:1], 2)

    def test_shape_mismatch_rejected(self, exported):
        v0, _, _ = exported
        with pytest.raises(ToolkitError):
            LookupEncoder(v0, {1: np.zeros((4, 3))})

    @pytest.mark.parametrize("layer", [0, -1])
    def test_layer_below_one_rejected(self, exported, layer):
        # Layer 0 is V0 itself: a matrix given for it would never be read.
        v0, m1, _ = exported
        with pytest.raises(ToolkitError, match=r"layer must be >= 1 \(layer 0 is V0\)"):
            LookupEncoder(v0, {1: m1, layer: np.full(v0.shape, 7.0)})

    def test_depth_is_max_layer(self, exported):
        _, _, enc = exported
        assert enc.depth == 1

    def test_build_reference_returns_exported_matrix(self, exported):
        v0, m1, enc = exported
        assert np.array_equal(build_reference(enc, v0, 1), m1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicate_rows_map_to_the_last(self, dtype):
        # Rows 0, 2 and 4 have the same bytes: each of them maps to row 4's
        # layer row. Rows 1 and 3 differ only as 0.0 / -0.0, so they stay
        # distinct.
        v0 = np.array([[1.0, 2.0], [0.0, 5.0], [1.0, 2.0], [-0.0, 5.0], [1.0, 2.0]], dtype=dtype)
        m1 = np.arange(10, 20, dtype=dtype).reshape(5, 2)
        enc = LookupEncoder(v0, {1: m1})
        assert_bitwise(enc.encode_to_layer(v0[[0]], 1), m1[[4]])
        assert_bitwise(enc.encode_to_layer(v0[[2, 3, 1]], 1), m1[[4, 3, 1]])
        assert_bitwise(build_reference(enc, v0, 1), m1[[4, 1, 4, 3, 4]])

    def test_hash_collisions_confirmed_on_bytes(self, exported, monkeypatch):
        # With every row under one hash, each lookup still finds its own row.
        from tokenlens import embedding

        v0, m1, _ = exported
        monkeypatch.setattr(embedding, "hash", lambda key: 0, raising=False)
        enc = LookupEncoder(v0, {1: m1})
        assert_bitwise(enc.encode_to_layer(v0[[3, 0, 4]], 1), m1[[3, 0, 4]])
        with pytest.raises(ToolkitError, match="exact vocabulary embeddings"):
            enc.encode_to_layer(np.zeros((1, 3)), 1)


class TestPooledHidden:
    def test_layer_zero_is_plain_mean(self):
        enc = toy_encoder(seed=0, depth=1, dim=2)
        pooled = pooled_hidden(enc, np.array([[1.0, 2.0], [3.0, 4.0]]), 0)
        assert np.array_equal(pooled, np.array([2.0, 3.0]))

    def test_empty_and_nonfinite_rejected(self):
        enc = toy_encoder(seed=0, depth=1, dim=2)
        with pytest.raises(ToolkitError):
            pooled_hidden(enc, np.zeros((0, 2)), 0)
        with pytest.raises(ToolkitError):
            pooled_hidden(enc, np.array([[np.nan, 0.0]]), 0)


class TestAllFinite:
    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_isfinite_over_the_whole_matrix(self, rows, dtype):
        m = np.zeros((rows, 2), dtype=dtype)
        assert embedding.all_finite(m) is True
        for row in {0, rows // 2, 1023, 1024, rows - 1} & set(range(rows)):
            for bad in (np.nan, np.inf, -np.inf):
                m[row, 1] = bad
                assert embedding.all_finite(m) is False == np.all(np.isfinite(m))
                m[row, 1] = 0.0


class TestBuildReference:
    def test_layer_zero_is_a_copy(self):
        enc = toy_encoder(seed=0, depth=1, dim=2)
        v0 = np.ones((3, 2))
        ref = build_reference(enc, v0, 0)
        assert np.array_equal(ref, v0)
        ref[0, 0] = 5.0
        assert v0[0, 0] == 1.0

    def test_rows_encoded_independently(self):
        enc = toy_encoder(seed=2, depth=1, dim=3)
        rng = np.random.default_rng(0)
        v0 = rng.normal(size=(4, 3))
        ref = build_reference(enc, v0, 1)
        assert_bitwise(ref, oracle_build_reference(enc, v0, 1))
        # length-1 sequences: prefix mean is the row itself, so one layer is
        # tanh(affine(row))
        w, b = enc.layers[0]
        expected = np.tanh(v0 @ w.T + b)
        assert np.allclose(ref, expected, rtol=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 70),
        st.booleans(),
        st.sampled_from([np.float32, np.float64]),
        st.data(),
    )
    def test_toy_matches_per_row_oracle(self, seed, depth, dim, linear, dtype, data):
        enc = toy_encoder(seed, depth, dim, linear=linear)
        shape = (data.draw(st.integers(1, 40)), dim)
        v0 = data.draw(hnp.arrays(dtype, shape, elements=st.floats(-4, 4, width=32)))
        layer = data.draw(st.integers(0, depth))
        assert_bitwise(build_reference(enc, v0, layer), oracle_build_reference(enc, v0, layer))

    # Row counts around the block size: one row, one short of a block, one
    # block, one past it, and three blocks with a short tail.
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3079])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_per_row_oracle(self, rows, dtype):
        rng = np.random.default_rng(rows)
        v0 = rng.normal(size=(rows, 3)).astype(dtype)
        toy = toy_encoder(rows, 2, 3)
        lookup = LookupEncoder(v0, {1: rng.normal(size=(rows, 3)).astype(dtype)})
        for enc, layer in ((toy, 0), (toy, 2), (lookup, 1)):
            ref = build_reference(enc, v0, layer)
            assert_bitwise(ref, oracle_build_reference(enc, v0, layer))
            assert_bitwise(ref.base[:, -1], np.ones(rows, dtype=ref.dtype))

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
    def test_v0_not_2d_rejected(self, shape):
        with pytest.raises(ToolkitError, match="^v0 must be a 2-D matrix$"):
            build_reference(toy_encoder(0, 1, 3), np.zeros(shape), 0)

    def test_empty_vocabulary(self):
        ref = build_reference(toy_encoder(0, 1, 3), np.zeros((0, 3)), 1)
        assert ref.shape == (0, 3) and ref.dtype == np.float64

    @given(st.sampled_from([np.float32, np.float64]), st.data())
    def test_lookup_matches_per_row_oracle(self, dtype, data):
        shape = (data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5)))
        matrix = hnp.arrays(dtype, shape, elements=st.floats(-4, 4, width=32))
        v0 = data.draw(matrix)
        enc = LookupEncoder(v0, {1: data.draw(matrix), 2: data.draw(matrix)})
        layer = data.draw(st.integers(0, 2))
        assert_bitwise(build_reference(enc, v0, layer), oracle_build_reference(enc, v0, layer))


class TestNearest:
    def test_boundary_ties_and_nan_by_row_index(self):
        vl = np.array([[3.0], [1.0], [2.0], [1.0], [np.nan], [1.0]])
        idx, d = _nearest(np.zeros(1), vl, 2, "euclidean")
        assert idx.tolist() == [1, 3]
        idx, d = _nearest(np.zeros(1), vl, 6, "euclidean")
        assert idx.tolist() == [1, 3, 5, 2, 0, 4]
        assert np.isnan(d[-1])

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, np.inf, np.nan]), min_size=1, max_size=40
        ),
        st.data(),
    )
    def test_matches_full_lexsort(self, values, data):
        # One dimension and h = 0 make each distance |value|: many exact
        # ties, at the k boundary too, plus infinite and NaN distances.
        vl = np.array(values)[:, None]
        k = data.draw(st.integers(1, len(values)))
        got = _nearest(np.zeros(1), vl, k, "euclidean")
        want = oracle_nearest(np.zeros(1), vl, k, "euclidean")
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 4)),
            elements=st.sampled_from([0.0, 1.0, -1.0, 2.0, np.nan]),
        ),
        st.sampled_from(["euclidean", "cosine"]),
        st.data(),
    )
    def test_matches_full_lexsort_any_metric(self, vl, metric, data):
        unit = st.sampled_from([0.0, 1.0, -1.0])
        h = data.draw(hnp.arrays(np.float64, vl.shape[1], elements=unit))
        k = data.draw(st.integers(1, len(vl)))
        with np.errstate(all="ignore"):
            got = _nearest(h, vl, k, metric)
            want = oracle_nearest(h, vl, k, metric)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2100), st.sampled_from([1, 3, 64]))
    def test_float32_reference_matches_float64_oracle(self, metric, seed, rows, dim):
        # The distances are computed in float64 whatever the reference's
        # dtype: a float32 cosine norm or a float32 difference would change
        # their bits.
        rng = np.random.default_rng(seed)
        vl = rng.normal(size=(rows, dim)).astype(np.float32)
        h = rng.normal(size=dim)
        k = int(rng.integers(1, rows + 1))
        got = _nearest(h, vl, k, metric)
        want = oracle_nearest(h, vl, k, metric)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])


class TestDistances:
    # Row counts around the block size: one row, one short of a block, one
    # block, one past it, and three blocks with a short tail.
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3079])
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 64]), st.booleans())
    def test_euclidean_matches_one_pass(self, rows, seed, dim, special):
        rng = np.random.default_rng(seed)
        vl = rng.normal(size=(rows, dim)) * rng.choice([1e-160, 1.0, 1e160], size=(rows, 1))
        h = rng.normal(size=dim)
        if special:  # overflow, NaN and infinite rows
            vl[rng.integers(0, rows, size=3)] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=(3, dim))
        with np.errstate(all="ignore"):
            assert_bitwise(_distances(h, vl, "euclidean"), oracle_euclidean(h, vl))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ToolkitError, match="unknown distance metric 'manhattan'"):
            _distances(np.zeros(2), np.zeros((3, 2)), "manhattan")


@st.composite
def screen_cases(draw, special=True):
    """A reference, a stack of finite queries and a k for the euclidean
    screen. Rows are drawn about a centre: duplicates, coordinate
    permutations and sign flips of one another about the centre (equal
    exact distances that round apart by a few ulps), one-ulp nudges, the
    centre itself (an exact hit for a centre query) and, with special, rows
    holding a NaN, an infinity or a value whose square overflows. Magnitudes
    are near 1, 1e150 or 1e-160 (1, 1e18 or 1e-20 for a float32 reference),
    so distances squared run from subnormal to near overflow."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    scale = draw(st.sampled_from([1.0, 1e150, 1e-160] if dtype == np.float64 else [1.0, 1e18, 1e-20]))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.normal(size=dim) * scale
    kinds = ["random", "copy", "permute", "flip", "nudge", "center"] + ["special"] * special
    rows = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=30)):
        other = rows[rng.integers(len(rows))].astype(np.float64) if rows else center
        if kind == "random":
            row = center + rng.normal(size=dim) * scale
        elif kind == "copy":
            row = other
        elif kind == "permute":
            row = center + rng.permutation(other - center)
        elif kind == "flip":
            row = center + rng.choice([-1.0, 1.0], size=dim) * (other - center)
        elif kind == "nudge":
            row = np.nextafter(other.astype(dtype), rng.choice([-np.inf, np.inf], size=dim).astype(dtype))
        elif kind == "center":
            row = center
        else:
            row = center.copy()
            row[rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf, 1e300])
        with np.errstate(over="ignore"):
            rows.append(np.asarray(row).astype(dtype))
    vl = np.array(rows)
    finite = [row.astype(np.float64) for row in vl if np.all(np.isfinite(row))]
    queries = []
    for kind in draw(st.lists(st.sampled_from(["center", "row", "random"]), max_size=6)):
        if kind == "row" and finite:
            queries.append(finite[rng.integers(len(finite))])
        elif kind == "random":
            queries.append(center + rng.normal(size=dim) * scale)
        else:
            queries.append(center)
    queries = np.array(queries, dtype=np.float64).reshape(len(queries), dim)
    k = draw(st.integers(1, len(vl)))
    return vl, queries, k


@contextlib.contextmanager
def _block_rows(rows):
    """A context in which embedding's row blocks hold rows rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_ROW_BLOCK", rows)
        yield


# Tried in a scratch copy, two mutants of _screen fail the tests below: a
# zero margin (test_sqrt_ties_are_kept and both hypothesis tests), and
# keeping rows by lower <= kth, which drops rows of NaN values (the first
# hypothesis test, test_huge_query_keeps_every_row and TestNearest). A third,
# the margin without its sqrt-tie term (16u), passes them all, and no input
# can tell it apart: the rest of the margin is at least (4n + 16)u * w >=
# 12u * D^2 for n >= 2 on each side, while two squares that share a rounded
# root differ by at most about 4u * D^2. The term stays because the proof
# needs it.
class TestScreen:
    @given(screen_cases(), st.sampled_from([1, 2, 3, 7, 1024]))
    def test_stack_matches_full_pass_oracle(self, case, block):
        vl, queries, k = case
        with _block_rows(block), np.errstate(all="ignore"):
            idx, dists = _nearest(queries, vl, k, "euclidean")
            assert idx.shape == dists.shape == (len(queries), k)
            for i, h in enumerate(queries):
                want = oracle_nearest(h, vl, k, "euclidean")
                assert_bitwise(idx[i], want[0])
                assert_bitwise(dists[i], want[1])
                one = _nearest(h, vl, k, "euclidean")
                assert_bitwise(one[0], want[0])
                assert_bitwise(one[1], want[1])

    @given(screen_cases(special=False), st.sampled_from([1, 3, 1024]), st.integers(0, 2**32 - 1))
    def test_derivations_match_full_pass_oracle(self, case, block, seed):
        vl, queries, k = case
        v0 = np.random.default_rng(seed).normal(size=(len(vl), 3))
        with _block_rows(block), np.errstate(all="ignore"):
            knn = derive_knn(queries, v0, vl, k)
            want = [oracle_derive_knn(h, v0, vl, k) for h in queries]
            assert_bitwise(knn, np.array(want).reshape(len(queries), 3))
            if k < 2:
                return
            try:  # a fit on rows far from 1 may be singular
                want = [oracle_derive_local_linreg(h, v0, vl, k) for h in queries]
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    derive_local_linreg(queries, v0, vl, k)
                return
            assert_bitwise(derive_local_linreg(queries, v0, vl, k), np.array(want).reshape(len(queries), 3))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stack_is_one_call_per_query(self, metric, dtype):
        rng = np.random.default_rng(40)
        vl = rng.normal(size=(3079, 16)).astype(dtype)
        v0 = rng.normal(size=(3079, 4)).astype(np.float32)
        v0[:3] = v0[3]  # three equal embeddings
        queries = np.concatenate([rng.normal(size=(30, 16)), vl[[5, 1030, 3078]].astype(np.float64)])
        for derive, k in ((derive_knn, 8), (derive_local_linreg, 12)):
            stacked = derive(queries, v0, vl, k, metric=metric)
            alone = [derive(h, v0, vl, k, metric=metric) for h in queries]
            assert_bitwise(stacked, np.array(alone, dtype=np.float64))
        if metric == "euclidean":  # an exact hit alone keeps V0's dtype; a stack widens it
            assert derive_knn(queries[-1], v0, vl, 8).dtype == np.float32

    def test_random_reference_keeps_only_the_k_nearest(self):
        rng = np.random.default_rng(41)
        vl = rng.normal(size=(3079, 64))
        queries = rng.normal(size=(30, 64))
        kept = embedding._screen(queries, vl, 8)
        assert [len(rows) for rows in kept] == [8] * 30
        for h, rows in zip(queries, kept):
            assert_bitwise(rows, np.sort(oracle_nearest(h, vl, 8, "euclidean")[0]))

    @pytest.mark.parametrize("k", [1, 5, 3079])
    def test_k_is_n_and_no_queries(self, k):
        rng = np.random.default_rng(42)
        vl = rng.normal(size=(k, 3)).astype(np.float32)
        v0 = rng.normal(size=(k, 2))
        idx, dists = _nearest(np.empty((0, 3)), vl, k, "euclidean")
        assert idx.shape == dists.shape == (0, k) and idx.dtype == np.intp
        assert derive_knn(np.empty((0, 3)), v0, vl, k).shape == (0, 2)
        h = rng.normal(size=3)
        got = _nearest(h[None], vl, k, "euclidean")
        want = oracle_nearest(h, vl, k, "euclidean")
        assert_bitwise(got[0][0], want[0])
        assert_bitwise(got[1][0], want[1])

    def test_sqrt_ties_are_kept(self):
        # Two rows whose squared distances from the origin are the integers
        # X + 1 and X, exact near 2^52, share one rounded square root, so the
        # lower row index comes first although its square is larger.
        a, b = 2**26 - 1, 2**25 - 2
        c, d = 2**26 - 2, 2**25
        big, small = float(a * a + b * b), float(c * c + d * d)
        assert big == small + 1 and np.sqrt(big) == np.sqrt(small)
        vl = np.array([[a, b], [c, d], [3.0 * a, 0.0]], dtype=np.float64)
        idx, dists = _nearest(np.zeros((1, 2)), vl, 1, "euclidean")
        assert idx.tolist() == [[0]] and dists[0, 0] == np.sqrt(big)
        assert_bitwise(idx[0], oracle_nearest(np.zeros(2), vl, 1, "euclidean")[0])

    def test_huge_query_keeps_every_row(self):
        # A query whose squared norm overflows gives NaN bounds: nothing is
        # screened out, and the exact pass decides.
        vl = np.array([[1e200, 0.0], [0.0, 1e200], [1.0, 1.0]])
        h = np.array([1e200, 1.0])
        with np.errstate(all="ignore"):
            assert [len(rows) for rows in embedding._screen(h[None], vl, 1)] == [3]
            got = _nearest(h, vl, 2, "euclidean")
            want = oracle_nearest(h, vl, 2, "euclidean")
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])


class TestFitAffine:
    @pytest.mark.parametrize("rows", [1, 5, 1025])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_hstack_oracle(self, rows, dtype, weighted):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 4)).astype(dtype)
        y = rng.normal(size=(rows, 4)).astype(np.float32)
        w = rng.uniform(0.1, 2.0, size=rows) if weighted else None
        assert_bitwise(_fit_affine(_with_bias(x), y, w, 1e-8), oracle_fit_affine(x, y, w, 1e-8))
        assert not np.shares_memory(_with_bias(x), x)

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_reference_is_its_own_design_matrix(self, layer, weighted):
        rng = np.random.default_rng(3)
        v0 = rng.normal(size=(1500, 4))
        ref = build_reference(toy_encoder(3, 1, 4), v0, layer)
        assert ref.base.dtype == np.float64 and ref.base.shape == (1500, 5)
        w = rng.uniform(0.1, 2.0, size=len(v0)) if weighted else None
        assert_bitwise(_fit_affine(ref.base, v0, w, 1e-8), oracle_fit_affine(ref, v0, w, 1e-8))

    @pytest.mark.parametrize("bias", [0.0, -1.0, 2.0, np.nan, 1.0 + 2**-52])
    def test_changed_bias_column_is_not_used(self, bias):
        # derive_linreg builds its own design matrix, whatever the buffer
        # behind its reference holds.
        rng = np.random.default_rng(4)
        v0 = rng.normal(size=(40, 3))
        ref = build_reference(toy_encoder(4, 1, 3), v0, 1)
        ref.base[17, -1] = bias
        h = rng.normal(size=3)
        theta = oracle_fit_affine(ref, v0, None, 1e-8)
        assert_bitwise(derive_linreg(h, v0, ref), np.append(h, 1.0) @ theta)

    def test_other_views_of_the_buffer_are_copied(self):
        # Each view differs from the reference in one of data pointer, shape,
        # strides or dtype; _with_bias writes each into a fresh matrix.
        rng = np.random.default_rng(5)
        v0 = rng.normal(size=(40, 3))
        ref = build_reference(toy_encoder(5, 1, 3), v0, 1)
        buf = ref.base
        views = {
            "rows from 1": buf[1:, :3],
            "columns from 1": buf[:, 1:],
            "one column fewer": buf[:, :2],
            "every other row": buf[::2, :3],
            "packed rows": np.ndarray((40, 3), dtype=np.float64, buffer=buf, strides=(24, 8)),
        }
        for name, x in views.items():
            assert x.base is buf, name
            assert not np.shares_memory(_with_bias(x), buf), name
            assert_bitwise(_fit_affine(_with_bias(x), x, None, 1e-8), oracle_fit_affine(x, x, None, 1e-8))
        # A float32 reference's buffer (a matrices: one) is converted to
        # float64 once, with the values the oracle's copy has.
        f32 = build_reference(LookupEncoder(v0, {1: ref.astype(np.float32)}), v0, 1)
        assert f32.base.dtype == np.float32
        assert_bitwise(_fit_affine(f32.base, v0, None, 1e-8), oracle_fit_affine(f32, v0, None, 1e-8))


class TestDeriveKnn:
    @pytest.fixture()
    def space(self):
        rng = np.random.default_rng(8)
        v0 = rng.normal(size=(10, 3))
        vl = rng.normal(size=(10, 3))
        return v0, vl

    def test_k_out_of_range(self, space):
        v0, vl = space
        with pytest.raises(ToolkitError):
            derive_knn(np.zeros(3), v0, vl, 0)
        with pytest.raises(ToolkitError):
            derive_knn(np.zeros(3), v0, vl, 11)

    def test_exact_hit_returns_embedding_bitwise(self, space):
        v0, vl = space
        out = derive_knn(vl[4], v0, vl, 3)
        assert np.array_equal(out, v0[4])
        out[0] = 123.0
        assert v0[4, 0] != 123.0  # a copy, not a view

    def test_two_exact_hits_average_unweighted(self, space):
        v0, vl = space
        vl2 = vl.copy()
        vl2[7] = vl2[2]
        out = derive_knn(vl2[2], v0, vl2, 5)
        assert np.allclose(out, (v0[2] + v0[7]) / 2, rtol=1e-15)

    def test_three_equal_float32_hits_average_to_the_row(self):
        # float32's own mean of three rows of 0.9 is 0.8999999 (3 * 0.9
        # rounds); the hits are averaged in float64, so the mean of equal
        # rows is the row, and a float32 V0 and its widening agree.
        v0 = np.array([[0.9, 1.7, -0.9]] * 3 + [[5.0, 5.0, 5.0]], dtype=np.float32)
        assert np.float32(0.9) not in v0[:3].mean(axis=0)
        for vl in (v0, v0.astype(np.float64)):
            for rows in (v0, v0.astype(np.float64)):
                out = derive_knn(np.asarray(vl[0], dtype=np.float64), rows, vl, 3)
                assert_bitwise(out, v0[0].astype(np.float64))

    def test_inverse_distance_weighting_hand_value(self):
        v0 = np.array([[0.0], [10.0]])
        vl = np.array([[0.0], [3.0]])
        out = derive_knn(np.array([1.0]), v0, vl, 2)
        assert np.allclose(out, [(1.0 * 0.0 + 0.5 * 10.0) / 1.5], rtol=1e-15)

    def test_distance_ties_break_by_row_index(self):
        v0 = np.array([[1.0], [2.0], [3.0]])
        vl = np.array([[0.0], [2.0], [4.0]])
        out = derive_knn(np.array([1.0]), v0, vl, 1)
        assert np.array_equal(out, np.array([1.0]))

    def test_cosine_metric_exact_hit(self):
        v0 = np.array([[5.0, 5.0], [7.0, 7.0]])
        vl = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = derive_knn(np.array([1.0, 0.0]), v0, vl, 1, metric="cosine")
        assert np.array_equal(out, v0[0])

    def test_permutation_equivariance(self, space):
        v0, vl = space
        h = np.array([0.3, -0.2, 0.5])
        perm = np.random.default_rng(1).permutation(10)
        a = derive_knn(h, v0, vl, 4)
        b = derive_knn(h, v0[perm], vl[perm], 4)
        assert np.allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nonfinite_query_rejected(self, space, bad, metric):
        v0, vl = space
        with pytest.raises(ToolkitError, match="non-finite"):
            derive_knn(np.array([bad, 0.0, 0.0]), v0, vl, 3, metric=metric)


class TestDeriveLinreg:
    def test_recovers_exact_affine_map(self):
        rng = np.random.default_rng(3)
        vl = rng.normal(size=(12, 3))
        a = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        v0 = vl @ a.T + c
        h = rng.normal(size=3)
        assert np.allclose(derive_linreg(h, v0, vl), h @ a.T + c, rtol=1e-6, atol=1e-8)

    def test_nonfinite_query_rejected(self):
        v0 = np.ones((3, 2))
        vl = np.eye(3, 2)
        with pytest.raises(ToolkitError):
            derive_linreg(np.array([np.inf, 0.0]), v0, vl)

    def test_repeat_call_is_stable(self):
        rng = np.random.default_rng(5)
        v0 = rng.normal(size=(6, 2))
        vl = rng.normal(size=(6, 2))
        h = rng.normal(size=2)
        first = derive_linreg(h, v0, vl)
        second = derive_linreg(h, v0, vl)
        assert np.array_equal(first, second)

    def test_ridge_is_honoured_after_a_default_ridge_call(self):
        rng = np.random.default_rng(6)
        v0 = rng.normal(size=(6, 2))
        vl = rng.normal(size=(6, 2))
        h = rng.normal(size=2)
        derive_linreg(h, v0, vl)
        got = derive_linreg(h, v0, vl, ridge=100.0)
        fresh = derive_linreg(h, v0.copy(), vl.copy(), ridge=100.0)
        assert np.array_equal(got, fresh)
        assert not np.allclose(got, derive_linreg(h, v0, vl))

    def test_in_place_edit_of_v0_refits(self):
        rng = np.random.default_rng(7)
        v0 = rng.normal(size=(6, 2))
        vl = rng.normal(size=(6, 2))
        h = rng.normal(size=2)
        before = derive_linreg(h, v0, vl)
        v0 += 1.0
        after = derive_linreg(h, v0, vl)
        assert np.array_equal(after, derive_linreg(h, v0.copy(), vl.copy()))
        assert np.allclose(after, before + 1.0)


class TestDeriveLocalLinreg:
    def test_k_out_of_range(self):
        v0 = np.ones((5, 2))
        vl = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ToolkitError):
            derive_local_linreg(np.zeros(2), v0, vl, 1)
        with pytest.raises(ToolkitError):
            derive_local_linreg(np.zeros(2), v0, vl, 6)

    def test_recovers_exact_affine_map_locally(self):
        rng = np.random.default_rng(3)
        vl = rng.normal(size=(12, 3))
        a = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        v0 = vl @ a.T + c
        h = rng.normal(size=3)
        got = derive_local_linreg(h, v0, vl, k=6)
        assert np.allclose(got, h @ a.T + c, rtol=1e-6, atol=1e-8)

    def test_equal_distances_coincide_with_global_fit(self):
        # one-hot rows scaled by 2: every distance from the origin is exactly 2,
        # so the exp(-d) weights normalize to exactly 1 each
        vl = 2.0 * np.eye(4)
        v0 = np.random.default_rng(2).normal(size=(4, 4))
        h = np.zeros(4)
        local = derive_local_linreg(h, v0, vl, k=4)
        glob = derive_linreg(h, v0, vl)
        assert np.allclose(local, glob, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nonfinite_query_rejected(self, bad, metric):
        v0 = np.random.default_rng(2).normal(size=(5, 2))
        vl = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ToolkitError, match="non-finite"):
            derive_local_linreg(np.array([0.0, bad]), v0, vl, 3, metric=metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nonfinite_query_rejected_before_distance_pass(self, monkeypatch, metric):
        from tokenlens import embedding

        def no_pass(*args):
            raise AssertionError("distance pass ran on a non-finite query")

        monkeypatch.setattr(embedding, "_distances", no_pass)
        v0 = np.random.default_rng(2).normal(size=(5, 2))
        with pytest.raises(ToolkitError, match="query vector contains non-finite values"):
            derive_local_linreg(np.array([np.nan, 0.0]), v0, v0, 3, metric=metric)

    def test_weight_underflow_falls_back_to_uniform(self):
        vl = 20000.0 * np.eye(4)  # exp(-20000) underflows to zero
        v0 = np.random.default_rng(2).normal(size=(4, 4))
        h = np.zeros(4)
        local = derive_local_linreg(h, v0, vl, k=4)
        glob = derive_linreg(h, v0, vl)
        assert np.allclose(local, glob, rtol=1e-15, atol=0)


class TestDerivationStrategy:
    def test_labels(self):
        assert DerivationStrategy("knn", 0, 5).label() == "knn:5@0"
        assert DerivationStrategy("linreg", 2).label() == "linreg@2"
        assert DerivationStrategy("local_linreg", 1, 8).label() == "local_linreg:8@1"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "pca", "layer": 0},
            {"kind": "knn", "layer": 0},
            {"kind": "knn", "layer": 0, "k": 0},
            {"kind": "local_linreg", "layer": 0, "k": 1},
            {"kind": "linreg", "layer": 0, "k": 3},
            {"kind": "linreg", "layer": -1},
        ],
    )
    def test_invalid_strategies(self, kwargs):
        with pytest.raises(ToolkitError):
            DerivationStrategy(**kwargs)


class TestSelectOovChars:
    def test_multibyte_chars_selected_ascii_not(self, byte_tok):
        _, tok = byte_tok
        corpus = ("aé", "bè")
        assert select_oov_chars(corpus, tok) == {"é", "è"}

    def test_unencodable_chars_excluded(self, byte_tok):
        _, tok = byte_tok
        # で has an aliased byte outside the vocabulary
        corpus = ("でé",)
        assert select_oov_chars(corpus, tok) == {"é"}

    def test_other_errors_propagate(self):
        def encode(text):
            if text == "b":
                raise ToolkitError("encoder backend failed")
            if text == "c":
                raise OovCharacterError(text, 0)
            return [0, 1]

        tok = TokenizerHandle("flaky", encode)
        assert select_oov_chars(("ac",), tok) == {"a"}
        with pytest.raises(ToolkitError, match="encoder backend failed"):
            select_oov_chars(("abc",), tok)


class TestAugment:
    @pytest.fixture()
    def setting(self, byte_tok):
        vocab, tok = byte_tok
        rng = np.random.default_rng(12)
        v0 = rng.normal(size=(len(vocab), 3))
        return tok, v0

    def test_knn_layer0_entries(self, setting):
        tok, v0 = setting
        plan = augment(tok, v0, toy_encoder(0, 1, 3), {"é"}, [DerivationStrategy("knn", 0, 2)])[0]
        assert plan.tokens == ("é",)
        pooled = (v0[2] + v0[3]) / 2  # constituents Ã ©
        expected = derive_knn(pooled, v0, v0, 2)
        assert np.allclose(plan.vectors[0], expected, rtol=1e-15)
        assert plan.vectors.shape == (1, 3) and plan.vectors.dtype == np.float64
        assert plan.dim == 3

    def test_entries_sorted_by_codepoint(self, setting):
        tok, v0 = setting
        plan = augment(
            tok, v0, toy_encoder(0, 1, 3), {"é", "è"}, [DerivationStrategy("knn", 0, 1)]
        )[0]
        assert plan.tokens == ("è", "é")

    def test_single_token_char_is_error(self, setting, monkeypatch):
        # It fails before any reference is built.
        tok, v0 = setting

        def no_reference(*args):
            raise AssertionError("build_reference called")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        with pytest.raises(ToolkitError, match="character 'a' encodes to a single token"):
            augment(tok, v0, toy_encoder(0, 1, 3), {"a", "é"}, [DerivationStrategy("knn", 0, 1)])

    def test_layer_above_depth_is_error_before_any_encode(self, setting, monkeypatch):
        _, v0 = setting

        def no_encode(text):
            raise AssertionError("tokenizer called")

        def no_reference(*args):
            raise AssertionError("build_reference called")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        strategies = [DerivationStrategy("knn", 0, 1), DerivationStrategy("local_linreg", 2, 3)]
        with pytest.raises(ToolkitError, match=re.escape("strategy local_linreg:3@2: layer 2 outside 0..1")):
            augment(TokenizerHandle("never", no_encode), v0, toy_encoder(0, 1, 3), {"é"}, strategies)

    @pytest.mark.parametrize(
        "strategies, message",
        [([DerivationStrategy("knn", 0, 1), DerivationStrategy("knn", 1, 6)], "strategy knn:6@1: k 6 outside 1..5"),
         ([DerivationStrategy("local_linreg", 0, 6)], "strategy local_linreg:6@0: k 6 outside 2..5"),
         ([DerivationStrategy("knn", 0, 6), DerivationStrategy("knn", 2, 1)], "strategy knn:6@0: k 6 outside 1..5")],
    )
    def test_oversized_k_is_error_before_any_encode(self, setting, monkeypatch, strategies, message):
        _, v0 = setting

        def no_encode(text):
            raise AssertionError("tokenizer called")

        monkeypatch.setattr(embedding, "build_reference", no_encode)
        with pytest.raises(ToolkitError, match=re.escape(message)):
            augment(TokenizerHandle("never", no_encode), v0, toy_encoder(0, 1, 3), {"é"}, strategies)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_no_character_builds_no_reference(self, setting, monkeypatch, metric):
        tok, v0 = setting

        def no_reference(*args):
            raise AssertionError("build_reference called")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        strategies = [DerivationStrategy("knn", 1, 2), DerivationStrategy("linreg", 0),
                      DerivationStrategy("local_linreg", 1, 3)]
        plans = augment(tok, v0.astype(np.float32), toy_encoder(0, 1, 3), set(), strategies, metric)
        assert [p.strategy for p in plans] == strategies
        for plan in plans:
            assert plan.tokens == () and plan.distance_metric == metric
            assert_bitwise(plan.vectors, np.empty((0, 3)))

    def test_works_with_exported_matrices(self, setting):
        tok, v0 = setting
        m1 = np.random.default_rng(9).normal(size=v0.shape)
        enc = LookupEncoder(v0, {1: m1})
        plan = augment(tok, v0, enc, {"é"}, [DerivationStrategy("knn", 1, 2)])[0]
        pooled = (m1[2] + m1[3]) / 2
        expected = derive_knn(pooled, v0, m1, 2)
        assert np.allclose(plan.vectors[0], expected, rtol=1e-15)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("lookup", [False, True])
    def test_grid_equals_one_call_per_strategy(self, setting, lookup, metric):
        tok, v0 = setting
        m1 = np.random.default_rng(9).normal(size=v0.shape)
        enc = LookupEncoder(v0, {1: m1}) if lookup else toy_encoder(0, 1, 3)
        strategies = [
            DerivationStrategy(kind, layer, k)
            for layer in (1, 0)
            for kind, k in (("knn", 2), ("linreg", None), ("local_linreg", 3))
        ]
        chars = {"é", "è"}
        grid = augment(tok, v0, enc, chars, strategies, metric)
        assert [p.strategy for p in grid] == strategies
        for plan, strat in zip(grid, strategies):
            single = augment(tok, v0, enc, chars, [strat], metric)[0]
            assert plan.tokens == single.tokens == ("è", "é")
            assert plan.distance_metric == metric
            assert_bitwise(plan.vectors, single.vectors)
            # The public one-query functions over the same reference agree.
            vl = oracle_build_reference(enc, v0, strat.layer)
            pooled = [pooled_hidden(enc, v0[tok.encode(ch)], strat.layer) for ch in plan.tokens]
            if strat.kind == "knn":
                rows = [derive_knn(h, v0, vl, strat.k, metric) for h in pooled]
            elif strat.kind == "linreg":
                rows = [derive_linreg(h, v0, vl) for h in pooled]
            else:
                rows = [derive_local_linreg(h, v0, vl, strat.k, metric=metric) for h in pooled]
            assert_bitwise(plan.vectors, np.array(rows))

    def test_linreg_fits_on_the_reference_buffer(self, setting, monkeypatch):
        tok, v0 = setting
        refs, designs = [], []
        build, fit = embedding.build_reference, embedding._fit_affine

        def recording_build(*args):
            refs.append(build(*args))
            return refs[-1]

        def recording_fit(design, *args):
            designs.append(design)
            return fit(design, *args)

        monkeypatch.setattr(embedding, "build_reference", recording_build)
        monkeypatch.setattr(embedding, "_fit_affine", recording_fit)
        augment(tok, v0, toy_encoder(0, 1, 3), {"é"}, [DerivationStrategy("linreg", 1)])
        assert len(refs) == len(designs) == 1
        assert refs[0].dtype == np.float64
        assert designs[0] is refs[0].base

    def test_one_reference_per_layer_held_one_at_a_time(self, setting, monkeypatch):
        tok, v0 = setting
        built, alive = [], []
        build = embedding.build_reference

        def tracking(enc, v0, layer):
            ref = build(enc, v0, layer)
            alive.append(sum(r() is not None for r in built))
            built.append(weakref.ref(ref.base))
            return ref

        monkeypatch.setattr(embedding, "build_reference", tracking)
        strategies = [DerivationStrategy("knn", 1, 2), DerivationStrategy("linreg", 0),
                      DerivationStrategy("local_linreg", 1, 3)]
        augment(tok, v0, toy_encoder(0, 1, 3), {"é", "è"}, strategies)
        assert len(built) == 2
        assert alive == [0, 0]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("lookup", [False, True])
    def test_float32_v0_and_its_widening_give_the_same_plans(self, byte_tok, lookup, metric):
        # The CLI widens V0 to float64 when a grid holds linreg. Rows 2, 3
        # and 4 (Ã, © and ¨) are equal, so at layer 0 both characters hit
        # all three exactly.
        vocab, tok = byte_tok
        v0 = np.random.default_rng(13).normal(size=(len(vocab), 3)).astype(np.float32)
        v0[2:5] = [0.9, 1.7, -0.9]
        m1 = np.random.default_rng(14).normal(size=v0.shape).astype(np.float32)
        strategies = [
            DerivationStrategy(kind, layer, k)
            for layer in (0, 1)
            for kind, k in (("knn", 3), ("linreg", None), ("local_linreg", 3))
        ]
        plans = []
        for v in (v0, v0.astype(np.float64)):
            enc = LookupEncoder(v, {1: m1}) if lookup else toy_encoder(0, 1, 3)
            plans.append(augment(tok, v, enc, {"é", "è"}, strategies, metric))
        for narrow, wide in zip(*plans):
            assert_bitwise(narrow.vectors, wide.vectors)

    def test_cosine_converts_the_reference_once_per_strategy(self, setting, monkeypatch):
        tok, v0 = setting
        m1 = np.random.default_rng(9).normal(size=v0.shape).astype(np.float32)
        enc = LookupEncoder(v0.astype(np.float32), {1: m1})
        seen = []
        distances = embedding._distances

        def recording(h, vl, metric):
            seen.append(vl)
            return distances(h, vl, metric)

        monkeypatch.setattr(embedding, "_distances", recording)
        strategies = [DerivationStrategy("knn", 1, 2), DerivationStrategy("local_linreg", 1, 3)]
        augment(tok, v0.astype(np.float32), enc, {"é", "è"}, strategies, "cosine")
        # Two characters per strategy: one float64 array each, shared by
        # both of its characters.
        assert len(seen) == 4
        assert seen[0] is seen[1] and seen[2] is seen[3]
        assert all(vl.dtype == np.float64 for vl in seen)

    def test_cosine_over_a_float32_reference_matches_the_per_character_oracle(self, setting):
        tok, v0 = setting
        v0 = v0.astype(np.float32)
        m1 = np.random.default_rng(9).normal(size=v0.shape).astype(np.float32)
        enc = LookupEncoder(v0, {1: m1})
        strategies = [DerivationStrategy("knn", 1, 2), DerivationStrategy("local_linreg", 1, 3)]
        grid = augment(tok, v0, enc, {"é", "è"}, strategies, "cosine")
        # The public one-query functions convert the float32 reference on
        # each call.
        vl = build_reference(enc, v0, 1)
        assert vl.dtype == np.float32
        pooled = [pooled_hidden(enc, v0[tok.encode(ch)], 1) for ch in grid[0].tokens]
        assert_bitwise(grid[0].vectors, np.array([derive_knn(h, v0, vl, 2, "cosine") for h in pooled]))
        assert_bitwise(
            grid[1].vectors, np.array([derive_local_linreg(h, v0, vl, 3, metric="cosine") for h in pooled])
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_rejected(self, setting, bad):
        tok, v0 = setting
        m1 = np.random.default_rng(9).normal(size=v0.shape)
        m1[4, 1] = bad
        enc = LookupEncoder(v0, {1: m1})
        strategies = [DerivationStrategy("linreg", 1), DerivationStrategy("knn", 1, 2)]
        with pytest.raises(ToolkitError, match="reference at layer 1 contains non-finite values"):
            augment(tok, v0, enc, {"é"}, strategies)

    def test_bad_v0_rejected(self, setting):
        tok, _ = setting
        with pytest.raises(ToolkitError):
            augment(tok, np.zeros(3), toy_encoder(0, 1, 3), {"é"}, [DerivationStrategy("knn", 0, 1)])
        bad = np.full((5, 3), np.nan)
        with pytest.raises(ToolkitError):
            augment(tok, bad, toy_encoder(0, 1, 3), {"é"}, [DerivationStrategy("knn", 0, 1)])


class TestEncodeAugmented:
    @pytest.fixture()
    def planned(self, byte_tok):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(12).normal(size=(len(vocab), 3))
        plan = augment(
            tok, v0, toy_encoder(0, 1, 3), {"é", "è"}, [DerivationStrategy("knn", 0, 1)]
        )[0]
        return tok, plan

    def test_substitution_and_runs(self, planned):
        tok, plan = planned
        items = encode_augmented("aébè", tok, plan.tokens)
        assert items == [("old", 0), ("new", 1), ("old", 1), ("new", 0)]

    def test_adjacent_planned_chars(self, planned):
        tok, plan = planned
        assert encode_augmented("éè", tok, plan.tokens) == [("new", 1), ("new", 0)]

    def test_no_planned_chars_matches_base_encoding(self, planned):
        tok, plan = planned
        items = encode_augmented("ab", tok, plan.tokens)
        assert items == [("old", t) for t in tok.encode("ab")]

    def test_empty_text(self, planned):
        tok, plan = planned
        assert encode_augmented("", tok, plan.tokens) == []


class TestEvalSimilarity:
    @pytest.fixture()
    def linear_setting(self, byte_tok):
        vocab, tok = byte_tok
        rng = np.random.default_rng(21)
        v0 = rng.normal(size=(len(vocab), 3))
        enc = toy_encoder(seed=2, depth=1, dim=3, linear=True)
        plan = augment(tok, v0, enc, {"é", "è"}, [DerivationStrategy("linreg", 0)])[0]
        return tok, enc, v0, plan

    def test_untouched_sentence_is_exactly_one(self, linear_setting):
        tok, enc, v0, plan = linear_setting
        assert eval_similarity(enc, v0, None, encode_augmented("ab", tok, plan.tokens), plan, 1) == 1.0

    def test_linear_encoder_equal_group_sizes_near_one(self, linear_setting):
        tok, enc, v0, plan = linear_setting
        # both planned chars have exactly two constituent tokens
        before = pooled_hidden(enc, v0[tok.encode("éè")], 1)
        sim = eval_similarity(enc, v0, before, encode_augmented("éè", tok, plan.tokens), plan, 1)
        assert sim == pytest.approx(1.0, abs=1e-6)

    def test_nonlinear_encoder_similarity_below_one(self, byte_tok):
        vocab, tok = byte_tok
        rng = np.random.default_rng(22)
        v0 = rng.normal(size=(len(vocab), 3))
        enc = toy_encoder(seed=3, depth=2, dim=3)
        plan = augment(tok, v0, enc, {"é"}, [DerivationStrategy("knn", 0, 1)])[0]
        before = pooled_hidden(enc, v0[tok.encode("aéb")], 2)
        sim = eval_similarity(enc, v0, before, encode_augmented("aéb", tok, plan.tokens), plan, 2)
        assert -1.0 <= sim < 1.0

    def test_empty_sentence_is_error(self, linear_setting):
        tok, enc, v0, plan = linear_setting
        with pytest.raises(ToolkitError):
            corpus_similarity(enc, v0, ("",), tok, [plan], 1)

    def test_zero_token_encoding_is_error(self, linear_setting):
        _, enc, v0, plan = linear_setting
        tok = TokenizerHandle("nothing", lambda text: [])
        with pytest.raises(ToolkitError, match="sentence encodes to zero tokens"):
            corpus_similarity(enc, v0, ("ab",), tok, [plan], 1)

    def test_zero_pooled_vector_is_error(self, linear_setting):
        tok, _, v0, plan = linear_setting

        class ZeroEnc:
            depth = 1

            def encode_to_layer(self, states, layer):
                return np.zeros_like(np.asarray(states, dtype=np.float64))

        with pytest.raises(ToolkitError):
            corpus_similarity(ZeroEnc(), v0, ("éè",), tok, [plan], 1)


class TestCorpusLevelMetrics:
    @pytest.fixture()
    def setting(self, byte_tok):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(30).normal(size=(len(vocab), 3))
        enc = toy_encoder(seed=4, depth=1, dim=3)
        plan = augment(tok, v0, enc, {"é"}, [DerivationStrategy("knn", 0, 2)])[0]
        return tok, enc, v0, plan

    def test_corpus_similarity_is_mean(self, setting):
        tok, enc, v0, plan = setting
        corpus = ("aéb", "ab")
        per = [corpus_similarity(enc, v0, (doc,), tok, [plan], 1)[0][0] for doc in corpus]
        assert [mean for mean, _ in corpus_similarity(enc, v0, corpus, tok, [plan], 1)] == [sum(per) / 2]

    def test_empty_corpus_is_error(self, setting):
        tok, enc, v0, plan = setting
        with pytest.raises(ToolkitError):
            corpus_similarity(enc, v0, (), tok, [plan], 1)

    def test_fraction_new_tokens_hand_value(self, setting):
        tok, _, _, plan = setting
        corpus = ("aé", "é")
        assert fraction_new_tokens(encode_augmented(doc, tok, plan.tokens) for doc in corpus) == 2 / 3

    def test_fraction_zero_when_untouched(self, setting):
        tok, _, _, plan = setting
        assert fraction_new_tokens([encode_augmented("ab", tok, plan.tokens)]) == 0.0

    @pytest.mark.parametrize(
        "corpus,message", [([], "corpus is empty"), ([[]], "corpus produced no tokens")]
    )
    def test_fraction_without_tokens_is_error(self, corpus, message):
        with pytest.raises(ToolkitError, match=message):
            fraction_new_tokens(corpus)


class TestFractionFromItems:
    # Character-level bpe over a, b, c and x, with the merges ab, bc and xx,
    # so a planned character inside a run changes how its neighbors merge.
    # Plans draw their tokens from a, b and c; x is never planned.
    TOK = bpe_tokenizer(
        "chars",
        Vocabulary([b"a", b"b", b"c", b"x", b"ab", b"bc", b"xx"]),
        MergeRuleList([MergeRule(0, 1, 4), MergeRule(1, 2, 5), MergeRule(3, 3, 6)]),
    )

    @given(
        st.lists(st.sets(st.sampled_from("abc"), min_size=1), min_size=1, max_size=3),
        st.lists(st.text(alphabet="abcx", min_size=1, max_size=8), min_size=1, max_size=6),
    )
    # Planned characters at the start, at the end and next to each other,
    # an untouched sentence, and two plans sharing b.
    @example([{"a", "b"}, {"b", "c"}], ["axc", "xxab", "ba", "xx"])
    def test_fraction_equals_reencoding_oracle(self, token_sets, corpus):
        rng = np.random.default_rng(50)
        v0 = rng.normal(size=(7, 3))
        plans = [
            AugmentationPlan(
                tokens=tuple(sorted(chars)),
                vectors=rng.normal(size=(len(chars), 3)),
                strategy=DerivationStrategy("knn", 0, 1),
            )
            for chars in token_sets
        ]
        results = corpus_similarity(toy_encoder(8, 1, 3), v0, corpus, self.TOK, plans, 1)
        for (_, fraction), plan in zip(results, plans):
            oracle = oracle_fraction_new_tokens(corpus, self.TOK, plan)
            assert fraction == oracle
            assert fraction_new_tokens(encode_augmented(doc, self.TOK, plan.tokens) for doc in corpus) == oracle


class TestCorpusSimilarityGrid:
    def test_grid_equals_one_plan_at_a_time_and_runs_each_side_once(self, byte_tok):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(31).normal(size=(len(vocab), 3)).astype("<f4")
        toy = toy_encoder(seed=7, depth=2, dim=3)
        both = augment(tok, v0, toy, {"é", "è"}, [DerivationStrategy("knn", 1, 2)])[0]
        acute = augment(tok, v0, toy, {"é"}, [DerivationStrategy("linreg", 1)])[0]
        plans = [both, acute]
        # "aéb" and "éè" are touched by both plans, "bè" by one, "ab" by none.
        corpus = ("aéb", "ab", "bè", "éè")
        enc = CountingEncoder(toy)
        means = [mean for mean, _ in corpus_similarity(enc, v0, corpus, tok, plans, 2)]
        oracle = [
            sum([oracle_sentence_similarity(toy, v0, s, tok, plan, 2) for s in corpus]) / len(corpus)
            for plan in plans
        ]
        assert means == oracle
        assert means == [corpus_similarity(toy, v0, corpus, tok, [plan], 2)[0][0] for plan in plans]
        calls = [c.tobytes() for c in enc.calls]
        before = [np.asarray(v0[tok.encode(s)], dtype=np.float64).tobytes() for s in corpus]
        # The before side runs once per touched sentence, and "ab" runs no
        # encoder, before or after; the after side runs once per touched
        # (sentence, plan) pair: 2 + 1 + 2.
        assert [calls.count(b) for b in before] == [1, 0, 1, 1]
        assert len(calls) == 3 + 5

    def test_plans_sharing_tokens_share_one_encode_augmented(self, byte_tok, monkeypatch):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(32).normal(size=(len(vocab), 3))
        toy = toy_encoder(seed=8, depth=2, dim=3)
        knn, linreg = augment(
            tok, v0, toy, {"é", "è"}, [DerivationStrategy("knn", 1, 2), DerivationStrategy("linreg", 2)]
        )
        acute = augment(tok, v0, toy, {"é"}, [DerivationStrategy("local_linreg", 1, 3)])[0]
        plans = [knn, acute, linreg]
        corpus = ("aéb", "ab", "bè", "éè")
        singles = [corpus_similarity(toy, v0, corpus, tok, [plan], 2)[0] for plan in plans]
        texts = []
        real = embedding.encode_augmented
        monkeypatch.setattr(
            embedding, "encode_augmented", lambda text, *rest: texts.append(text) or real(text, *rest)
        )
        # knn and linreg share their tokens, so each sentence is augmented
        # once for them and once for acute's.
        assert corpus_similarity(toy, v0, corpus, tok, plans, 2) == singles
        assert sorted(texts) == sorted(corpus * 2)


class TestPlanFiles:
    @pytest.fixture()
    def v0(self, byte_tok):
        vocab, _ = byte_tok
        return np.random.default_rng(40).normal(size=(len(vocab), 3))

    @pytest.fixture()
    def plan(self, byte_tok, v0):
        _, tok = byte_tok
        p = augment(
            tok, v0, toy_encoder(5, 1, 3), {"é", "è"}, [DerivationStrategy("local_linreg", 1, 3)]
        )[0]
        p.stats = {"fraction_new": 0.25}
        return p

    def test_roundtrip(self, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path, manifest={"cmd": "augment"})
        loaded = load_plan(path)
        assert loaded.strategy == plan.strategy
        assert loaded.dim == 3
        assert loaded.distance_metric == "euclidean"
        assert loaded.stats == {"fraction_new": 0.25}
        assert loaded.tokens == ("è", "é")
        assert_bitwise(loaded.vectors, plan.vectors.astype("<f4").astype(np.float64))
        with open(path, encoding="utf-8") as f:
            assert json.load(f)["manifest"] == {"cmd": "augment"}

    def test_companion_matrix_row_aligned(self, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        arr = read_matrix(path + ".mat")
        assert arr.shape == (2, 3)
        assert np.array_equal(arr, plan.vectors.astype("<f4"))
        with open(path + ".mat.json", encoding="utf-8") as f:
            sidecar = json.load(f)
        assert sidecar["provenance"] == "local_linreg:3@1"
        assert sidecar["layer"] == 1

    def test_loaded_plan_evaluates_with_v0(self, plan, v0, tmp_path, byte_tok):
        _, tok = byte_tok
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        enc = toy_encoder(5, 1, 3)
        [(sim, _)] = corpus_similarity(enc, v0, ("éè",), tok, [load_plan(path)], 1)
        assert -1.0 <= sim <= 1.0

    def test_plan_holds_what_its_file_holds(self):
        names = [f.name for f in dataclasses.fields(AugmentationPlan)]
        assert names == ["tokens", "vectors", "strategy", "distance_metric", "stats"]

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda doc: doc.update(strategy={}), "'kind' is missing"),
            (lambda doc: doc.update(strategy=[]), "'strategy' has the wrong type"),
            (lambda doc: doc["strategy"].pop("k"), "'k' is missing"),
            (lambda doc: doc["strategy"].update(layer=True), "'layer' has the wrong type"),
            (lambda doc: doc["strategy"].update(k="3"), "'k' has the wrong type"),
            (lambda doc: doc.pop("dim"), "'dim' is missing"),
            (lambda doc: doc.update(entries={}), "'entries' has the wrong type"),
            (lambda doc: doc["entries"].append(7), "'token' is missing"),
            (lambda doc: doc["entries"][0].update(vector_b64=None), "'vector_b64' has the wrong type"),
            (lambda doc: doc["entries"][0].update(token="ab"), "'ab' is not one character"),
            (lambda doc: doc["entries"][0].update(token=""), "'' is not one character"),
            (lambda doc: doc.update(distance_metric=5), "'distance_metric' has the wrong type"),
            (lambda doc: doc.update(distance_metric="manhattan"), "not euclidean or cosine"),
            (lambda doc: doc.update(stats=[]), "'stats' has the wrong type"),
            (lambda doc: doc["strategy"].update(kind="lasso"), "unknown strategy kind 'lasso'"),
            (lambda doc: doc["entries"].append(dict(doc["entries"][0])), "'è' is repeated"),
            (lambda doc: doc.update(dim=-1, entries=[]), "'dim' is -1, not >= 1"),
            (lambda doc: doc["entries"][0].update(vector_b64="abc"), "not valid base64"),
            (lambda doc: doc["entries"][0].update(vector_b64=base64.b64encode(b"x" * 13).decode()),
             "has 13 vector bytes, expected 12"),
            (lambda doc: json.dumps(doc)[:-1], "Expecting ',' delimiter"),
            (lambda doc: doc["entries"][0].update(vector_b64=base64.b64encode(
                struct.pack("<3f", 0.0, math.nan, 0.0)).decode()), "entry 'è' vector is not finite"),
            (lambda doc: doc["entries"][1].update(vector_b64=base64.b64encode(
                struct.pack("<3f", 0.0, 0.0, -math.inf)).decode()), "entry 'é' vector is not finite"),
        ],
        ids=["empty-strategy", "list-strategy", "no-k", "bool-layer", "str-k", "no-dim",
             "dict-entries", "int-entry", "null-vector", "two-char-token", "empty-token",
             "int-metric", "unknown-metric", "list-stats", "unknown-kind", "repeated-token",
             "negative-dim", "bad-base64", "ragged-vector", "json-syntax", "nan-vector", "inf-vector"],
    )
    def test_malformed_plan_rejected(self, plan, tmp_path, edit, field):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        text = edit(doc)  # an edit that returns a string replaces the whole file
        with open(path, "w", encoding="utf-8") as f:
            f.write(text if isinstance(text, str) else json.dumps(doc))
        with pytest.raises(ToolkitError, match=field) as exc:
            load_plan(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_plan_without_metric_or_stats_loads_defaults(self, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        del doc["distance_metric"], doc["stats"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        loaded = load_plan(path)
        assert (loaded.distance_metric, loaded.stats) == ("euclidean", {})

    def test_plan_that_is_not_an_object_rejected(self, tmp_path):
        path = str(tmp_path / "plan.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("[]")
        with pytest.raises(ToolkitError, match="'strategy' is missing"):
            load_plan(path)

    def test_dim_mismatch_rejected(self, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        doc["dim"] = 4
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        with pytest.raises(ToolkitError):
            load_plan(path)

    def test_empty_plan_roundtrip(self, tmp_path):
        empty = AugmentationPlan(
            tokens=(), vectors=np.zeros((0, 3)), strategy=DerivationStrategy("knn", 0, 1)
        )
        path = str(tmp_path / "plan.json")
        save_plan(empty, path)
        loaded = load_plan(path)
        assert loaded.tokens == ()
        assert loaded.vectors.shape == (0, 3) and loaded.dim == 3
        arr = read_matrix(path + ".mat")
        assert arr.shape == (0, 3)

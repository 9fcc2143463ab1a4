"""Embedding derivation: matrix IO, encoders, the three strategies, plans."""

import json
import math
import struct

import numpy as np
import pytest

from tokenlens.embedding import (
    AugmentationPlan,
    DerivationStrategy,
    LookupEncoder,
    PlanEntry,
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
from tokenlens.errors import ToolkitError
from tokenlens.premium import bpe_tokenizer
from tokenlens.text import Corpus
from tokenlens.vocab import MergeRuleList, Vocabulary


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
        arr, sidecar = read_matrix(path)
        assert arr.shape == (3, 4)
        assert np.array_equal(arr, mat.astype("<f4"))
        assert sidecar == {"n_tokens": 3, "dim": 4, "layer": 2, "provenance": "demo"}

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "v0.mat")
        write_matrix(path, np.zeros((5, 7)))
        with open(path, "rb") as f:
            head = f.read(8)
        assert struct.unpack("<II", head) == (5, 7)

    def test_missing_sidecar_is_none(self, tmp_path):
        import os

        path = str(tmp_path / "v0.mat")
        write_matrix(path, np.zeros((1, 1)))
        os.remove(path + ".json")
        _, sidecar = read_matrix(path)
        assert sidecar is None

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

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ToolkitError):
            write_matrix(str(tmp_path / "bad.mat"), np.zeros(4))


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

    def test_unknown_vector_is_error(self, exported):
        _, _, enc = exported
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(np.zeros((1, 3)), 1)

    def test_missing_layer_is_error(self, exported):
        v0, _, enc = exported
        with pytest.raises(ToolkitError):
            enc.encode_to_layer(v0[:1], 2)

    def test_shape_mismatch_rejected(self, exported):
        v0, _, _ = exported
        with pytest.raises(ToolkitError):
            LookupEncoder(v0, {1: np.zeros((4, 3))})

    def test_depth_is_max_layer(self, exported):
        _, _, enc = exported
        assert enc.depth == 1

    def test_build_reference_returns_exported_matrix(self, exported):
        v0, m1, enc = exported
        assert np.array_equal(build_reference(enc, v0, 1), m1)


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
        # length-1 sequences: prefix mean is the row itself, so one layer is
        # tanh(affine(row))
        w, b = enc.layers[0]
        expected = np.tanh(v0 @ w.T + b)
        assert np.allclose(ref, expected, rtol=1e-12)


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
        corpus = Corpus(documents=("aé", "bè"))
        assert select_oov_chars(corpus, tok) == {"é", "è"}

    def test_unencodable_chars_excluded(self, byte_tok):
        _, tok = byte_tok
        # で has an aliased byte outside the vocabulary
        corpus = Corpus(documents=("でé",))
        assert select_oov_chars(corpus, tok) == {"é"}


class TestAugment:
    @pytest.fixture()
    def setting(self, byte_tok):
        vocab, tok = byte_tok
        rng = np.random.default_rng(12)
        v0 = rng.normal(size=(len(vocab), 3))
        return tok, v0

    def test_knn_layer0_entries(self, setting):
        tok, v0 = setting
        plan = augment(tok, v0, toy_encoder(0, 1, 3), {"é"}, DerivationStrategy("knn", 0, 2))
        assert [e.token for e in plan.entries] == ["é"]
        pooled = (v0[2] + v0[3]) / 2  # constituents Ã ©
        expected = derive_knn(pooled, v0, v0, 2)
        assert np.allclose(plan.entries[0].vector, expected, rtol=1e-15)
        assert plan.dim == 3
        assert plan.v0 is v0

    def test_entries_sorted_by_codepoint(self, setting):
        tok, v0 = setting
        plan = augment(
            tok, v0, toy_encoder(0, 1, 3), {"é", "è"}, DerivationStrategy("knn", 0, 1)
        )
        assert [e.token for e in plan.entries] == ["è", "é"]

    def test_single_token_char_is_error(self, setting):
        tok, v0 = setting
        with pytest.raises(ToolkitError):
            augment(tok, v0, toy_encoder(0, 1, 3), {"a"}, DerivationStrategy("knn", 0, 1))

    def test_works_with_exported_matrices(self, setting):
        tok, v0 = setting
        m1 = np.random.default_rng(9).normal(size=v0.shape)
        enc = LookupEncoder(v0, {1: m1})
        plan = augment(tok, v0, enc, {"é"}, DerivationStrategy("knn", 1, 2))
        pooled = (m1[2] + m1[3]) / 2
        expected = derive_knn(pooled, v0, m1, 2)
        assert np.allclose(plan.entries[0].vector, expected, rtol=1e-15)

    def test_bad_v0_rejected(self, setting):
        tok, _ = setting
        with pytest.raises(ToolkitError):
            augment(tok, np.zeros(3), toy_encoder(0, 1, 3), {"é"}, DerivationStrategy("knn", 0, 1))
        bad = np.full((5, 3), np.nan)
        with pytest.raises(ToolkitError):
            augment(tok, bad, toy_encoder(0, 1, 3), {"é"}, DerivationStrategy("knn", 0, 1))


class TestEncodeAugmented:
    @pytest.fixture()
    def planned(self, byte_tok):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(12).normal(size=(len(vocab), 3))
        plan = augment(
            tok, v0, toy_encoder(0, 1, 3), {"é", "è"}, DerivationStrategy("knn", 0, 1)
        )
        return tok, plan

    def test_substitution_and_runs(self, planned):
        tok, plan = planned
        items = encode_augmented("aébè", tok, plan)
        assert items == [("old", 0), ("new", 1), ("old", 1), ("new", 0)]

    def test_adjacent_planned_chars(self, planned):
        tok, plan = planned
        assert encode_augmented("éè", tok, plan) == [("new", 1), ("new", 0)]

    def test_no_planned_chars_matches_base_encoding(self, planned):
        tok, plan = planned
        items = encode_augmented("ab", tok, plan)
        assert items == [("old", t) for t in tok.encode("ab")]

    def test_empty_text(self, planned):
        tok, plan = planned
        assert encode_augmented("", tok, plan) == []


class TestEvalSimilarity:
    @pytest.fixture()
    def linear_setting(self, byte_tok):
        vocab, tok = byte_tok
        rng = np.random.default_rng(21)
        v0 = rng.normal(size=(len(vocab), 3))
        enc = toy_encoder(seed=2, depth=1, dim=3, linear=True)
        plan = augment(tok, v0, enc, {"é", "è"}, DerivationStrategy("linreg", 0))
        return tok, enc, plan

    def test_untouched_sentence_is_exactly_one(self, linear_setting):
        tok, enc, plan = linear_setting
        assert eval_similarity(enc, "ab", tok, plan, 1) == 1.0

    def test_linear_encoder_equal_group_sizes_near_one(self, linear_setting):
        tok, enc, plan = linear_setting
        # both planned chars have exactly two constituent tokens
        sim = eval_similarity(enc, "éè", tok, plan, 1)
        assert sim == pytest.approx(1.0, abs=1e-6)

    def test_nonlinear_encoder_similarity_below_one(self, byte_tok):
        vocab, tok = byte_tok
        rng = np.random.default_rng(22)
        v0 = rng.normal(size=(len(vocab), 3))
        enc = toy_encoder(seed=3, depth=2, dim=3)
        plan = augment(tok, v0, enc, {"é"}, DerivationStrategy("knn", 0, 1))
        sim = eval_similarity(enc, "aéb", tok, plan, 2)
        assert -1.0 <= sim < 1.0

    def test_empty_sentence_is_error(self, linear_setting):
        tok, enc, plan = linear_setting
        with pytest.raises(ToolkitError):
            eval_similarity(enc, "", tok, plan, 1)

    def test_plan_without_v0_is_error(self, linear_setting, tmp_path):
        tok, enc, plan = linear_setting
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        detached = load_plan(path)
        with pytest.raises(ToolkitError):
            eval_similarity(enc, "éè", tok, detached, 1)

    def test_zero_pooled_vector_is_error(self, linear_setting):
        tok, _, plan = linear_setting

        class ZeroEnc:
            depth = 1

            def encode_to_layer(self, states, layer):
                return np.zeros_like(np.asarray(states, dtype=np.float64))

        with pytest.raises(ToolkitError):
            eval_similarity(ZeroEnc(), "éè", tok, plan, 1)


class TestCorpusLevelMetrics:
    @pytest.fixture()
    def setting(self, byte_tok):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(30).normal(size=(len(vocab), 3))
        enc = toy_encoder(seed=4, depth=1, dim=3)
        plan = augment(tok, v0, enc, {"é"}, DerivationStrategy("knn", 0, 2))
        return tok, enc, plan

    def test_corpus_similarity_is_mean(self, setting):
        tok, enc, plan = setting
        corpus = Corpus(documents=("aéb", "ab"))
        per = [eval_similarity(enc, doc, tok, plan, 1) for doc in corpus]
        assert corpus_similarity(enc, corpus, tok, plan, 1) == sum(per) / 2

    def test_empty_corpus_is_error(self, setting):
        tok, enc, plan = setting
        with pytest.raises(ToolkitError):
            corpus_similarity(enc, Corpus(documents=()), tok, plan, 1)

    def test_fraction_new_tokens_hand_value(self, setting):
        tok, _, plan = setting
        corpus = Corpus(documents=("aé", "é"))
        assert fraction_new_tokens(corpus, tok, plan) == 2 / 3

    def test_fraction_zero_when_untouched(self, setting):
        tok, _, plan = setting
        assert fraction_new_tokens(Corpus(documents=("ab",)), tok, plan) == 0.0


class TestPlanFiles:
    @pytest.fixture()
    def plan(self, byte_tok):
        vocab, tok = byte_tok
        v0 = np.random.default_rng(40).normal(size=(len(vocab), 3))
        p = augment(
            tok, v0, toy_encoder(5, 1, 3), {"é", "è"}, DerivationStrategy("local_linreg", 1, 3)
        )
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
        assert [e.token for e in loaded.entries] == ["è", "é"]
        for orig, got in zip(plan.entries, loaded.entries):
            assert np.array_equal(
                got.vector, np.asarray(orig.vector, dtype="<f4").astype(np.float64)
            )
        assert loaded.v0 is None
        with open(path, encoding="utf-8") as f:
            assert json.load(f)["manifest"] == {"cmd": "augment"}

    def test_companion_matrix_row_aligned(self, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        arr, sidecar = read_matrix(path + ".mat")
        assert arr.shape == (2, 3)
        assert np.array_equal(arr[0], np.asarray(plan.entries[0].vector, dtype="<f4"))
        assert sidecar["provenance"] == "local_linreg:3@1"
        assert sidecar["layer"] == 1

    def test_reattached_v0_enables_eval(self, plan, tmp_path, byte_tok):
        vocab, tok = byte_tok
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        loaded = load_plan(path, v0=plan.v0)
        enc = toy_encoder(5, 1, 3)
        sim = eval_similarity(enc, "éè", tok, loaded, 1)
        assert -1.0 <= sim <= 1.0

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
            entries=[], strategy=DerivationStrategy("knn", 0, 1), dim=3
        )
        path = str(tmp_path / "plan.json")
        save_plan(empty, path)
        loaded = load_plan(path)
        assert loaded.entries == []
        arr, _ = read_matrix(path + ".mat")
        assert arr.shape == (0, 3)

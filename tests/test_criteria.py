"""Importance criteria against small closed-form and naive oracles."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from energyprune.criteria import (CRITERIA, ScoreTable, UnsupportedGraph,
                                  compute_scores, lrp_relevances,
                                  normalize_layer_l2, score_gradient,
                                  score_lrp, score_nuclear, score_taylor,
                                  score_weight, scored_layers)
from energyprune.engine import (ActivationRecord, GradientRecord,
                                capture_activations, forward, init_params)
from energyprune.graph import INPUT, ModelGraph
from energyprune.linalg import frobenius_norm, make_rng
from energyprune.toybench import build_toy_cnn_plain, build_toy_mlp
from helpers import _dense, _op, oracle_nuclear_norm


def _record(values, layer="L"):
    return ActivationRecord(layer_id=layer, capture_id=layer,
                            values=np.asarray(values, dtype=float))


class TestNuclear:
    def test_dense_neurons_reduce_to_euclidean_norm(self):
        # an N x 1 matrix has a single singular value: its vector norm
        rec = _record([[3.0, 0.0, 1.0], [4.0, 0.0, 2.0]])
        table = score_nuclear([rec])
        assert np.allclose(table.scores["L"], [5.0, 0.0, np.sqrt(5.0)])
        assert table.n_samples == 2

    def test_conv_channels_match_eigendecomposition_oracle(self):
        vals = make_rng(0).normal(size=(6, 3, 4, 4))
        rec = _record(vals)
        table = score_nuclear([rec])
        for c in range(3):
            expect = oracle_nuclear_norm(vals[:, c].reshape(6, -1))
            assert table.scores["L"][c] == pytest.approx(expect, rel=1e-10)

    def test_single_sample_equals_frobenius_norm(self):
        # one sample: the 1 x (h*w) channel matrix is rank one
        vals = make_rng(1).normal(size=(1, 2, 3, 3))
        table = score_nuclear([_record(vals)])
        for c in range(2):
            assert table.scores["L"][c] == pytest.approx(
                frobenius_norm(vals[0, c].reshape(1, -1)), rel=1e-10)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            score_nuclear([])

    def test_thread_count_does_not_change_scores(self):
        vals = make_rng(2).normal(size=(8, 5, 4, 4))
        one = score_nuclear([_record(vals)])
        with ThreadPoolExecutor(max_workers=4) as pool:
            four = list(pool.map(lambda _: score_nuclear([_record(vals)]),
                                 range(4)))
        for table in four:
            assert np.array_equal(one.scores["L"], table.scores["L"])


def test_weight_scores_are_l1_rows():
    g = build_toy_mlp(hidden=3, seed=0)
    g.nodes["fc1"].params["w"] = np.array([[1.0, -2.0], [0.0, 0.5], [3.0, 3.0]])
    table = score_weight(g)
    assert np.allclose(table.scores["fc1"], [3.0, 0.5, 6.0])
    assert set(table.scores) == {"fc1", "fc2", "fc3"}


class TestGradientTaylor:
    def setup_method(self):
        rng = make_rng(5)
        self.acts = rng.normal(size=(4, 3, 2, 2))
        self.grads = rng.normal(size=(4, 3, 2, 2))
        self.records = [_record(self.acts)]
        self.grecs = [GradientRecord("L", "L", self.grads)]

    def test_gradient_naive_oracle(self):
        table = score_gradient(self.records, self.grecs)
        for c in range(3):
            expect = sum(abs(self.grads[n, c, i, j])
                         for n in range(4) for i in range(2) for j in range(2))
            assert table.scores["L"][c] == pytest.approx(expect)

    def test_taylor_naive_oracle(self):
        table = score_taylor(self.records, self.grecs)
        for c in range(3):
            expect = abs(sum(self.acts[n, c, i, j] * self.grads[n, c, i, j]
                             for n in range(4) for i in range(2)
                             for j in range(2)))
            assert table.scores["L"][c] == pytest.approx(expect)

    def test_taylor_cancellation_differs_from_gradient(self):
        # taylor takes |sum|, so opposing contributions cancel
        acts = np.array([[[[1.0]], [[1.0]]]])  # (1, 2, 1, 1)
        grads = np.array([[[[2.0]], [[2.0]]]])
        acts2 = np.concatenate([acts, -acts])
        grads2 = np.concatenate([grads, grads])
        t = score_taylor([_record(acts2)], [GradientRecord("L", "L", grads2)])
        g = score_gradient([_record(acts2)], [GradientRecord("L", "L", grads2)])
        assert np.allclose(t.scores["L"], 0.0)
        assert np.allclose(g.scores["L"], 4.0)


def _small_mlp(seed=0, scale=4.0):
    g = ModelGraph((3,))
    _dense(g, "fc1", INPUT, 3, 5)
    _op(g, "r1", "ReLU", "fc1")
    _dense(g, "out", "r1", 5, 2)
    init_params(g, seed)
    # zero biases and inflate weights so every z is well away from the
    # epsilon stabilizer
    for nid in ("fc1", "out"):
        g.nodes[nid].params["b"][:] = 0.0
        g.nodes[nid].params["w"] *= scale
    return g


class TestLrp:
    def test_conservation_through_layers(self):
        g = _small_mlp()
        x = make_rng(3).normal(size=(10, 3)) * 3
        rel = lrp_relevances(g, x)
        start = rel["out"].sum(axis=1)
        back = rel["fc1"].sum(axis=1)
        assert np.max(np.abs(start - back) / np.maximum(np.abs(start), 1e-12)) < 1e-5

    def test_matches_naive_epsilon_rule(self):
        g = _small_mlp(seed=1)
        x = make_rng(4).normal(size=(6, 3)) * 2
        rel = lrp_relevances(g, x)

        # independent re-implementation for the two-layer case
        w1 = g.nodes["fc1"].params["w"]
        w2 = g.nodes["out"].params["w"]
        z1 = x @ w1.T
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2.T
        r2 = np.zeros_like(z2)
        win = np.argmax(z2, axis=1)
        r2[np.arange(6), win] = z2[np.arange(6), win]
        eps = 1e-6
        denom2 = np.where(z2 >= 0, z2 + eps, z2 - eps)
        r1 = a1 * ((r2 / denom2) @ w2)
        assert np.max(np.abs(rel["out"] - r2)) < 1e-8
        assert np.max(np.abs(rel["fc1"] - r1)) < 1e-8

    def test_score_is_magnitude_of_summed_relevance(self):
        g = _small_mlp(seed=2)
        x = make_rng(5).normal(size=(6, 3))
        rel = lrp_relevances(g, x)
        table = score_lrp(g, x)
        assert set(table.scores) == {"fc1"}
        assert np.allclose(table.scores["fc1"], np.abs(rel["fc1"].sum(axis=0)))

    def test_rejects_conv_graphs(self):
        g = build_toy_cnn_plain()
        x = make_rng(0).normal(size=(2, 3, 8, 8))
        with pytest.raises(UnsupportedGraph):
            score_lrp(g, x)


class TestScoreTable:
    def test_validate_rejects_bad_values(self):
        t = ScoreTable("weight", scores={"a": np.array([1.0, -0.1])})
        with pytest.raises(ValueError):
            t.validate()
        t = ScoreTable("weight", scores={"a": np.array([np.nan])})
        with pytest.raises(ValueError):
            t.validate()

    def test_normalize_layer_l2(self):
        t = ScoreTable("weight", scores={"a": np.array([3.0, 4.0]),
                                         "z": np.zeros(2)})
        n = normalize_layer_l2(t)
        assert np.allclose(n.scores["a"], [0.6, 0.8])
        assert np.array_equal(n.scores["z"], np.zeros(2))
        assert n.normalization == "layer-l2"
        assert np.allclose(t.scores["a"], [3.0, 4.0])  # input untouched

    def test_normalize_layer_l2_survives_huge_finite_scores(self):
        # the squared norm overflows; the layer's ranking must survive it
        t = ScoreTable("weight", scores={
            "a": np.array([1e308, 1e308] + [5.0] * 6),
            "b": np.array([1.7e308, 1e308])})
        with np.errstate(over="raise"):
            n = normalize_layer_l2(t)
        assert np.allclose(n.scores["a"][:2], 2 ** -0.5)
        assert np.all(n.scores["a"][2:] > 0)
        assert np.allclose(n.scores["b"], np.array([1.7, 1.0]) / np.hypot(1.7, 1.0))


class TestComputeScores:
    def test_dispatch_covers_all_criteria_on_mlp(self):
        g = build_toy_mlp(hidden=6, seed=0)
        rng = make_rng(7)
        x = rng.normal(size=(12, 2))
        y = rng.integers(0, 4, size=12)
        for criterion in CRITERIA:
            table = compute_scores(g, criterion, x, labels=y, seed=3)
            assert table.criterion == criterion
            assert set(table.scores) == {"fc1", "fc2", "fc3"}
            assert all(v.shape == (6,) for v in table.scores.values())

    def test_gradient_requires_labels(self):
        g = build_toy_mlp(hidden=4, seed=0)
        x = make_rng(0).normal(size=(4, 2))
        for criterion in ("gradient", "taylor"):
            with pytest.raises(ValueError):
                compute_scores(g, criterion, x)

    def test_unknown_criterion(self):
        g = build_toy_mlp(hidden=4, seed=0)
        with pytest.raises(ValueError):
            compute_scores(g, "entropy", make_rng(0).normal(size=(4, 2)))

    def test_scored_layers_are_capture_producers(self):
        assert scored_layers(build_toy_mlp(hidden=4)) == ["fc1", "fc2", "fc3"]
        assert scored_layers(build_toy_cnn_plain()) == [
            "c1.conv", "c2.conv", "c3.conv", "c4.conv"]

    def test_nuclear_matches_manual_capture(self):
        g = build_toy_cnn_plain(seed=1)
        x = make_rng(9).normal(size=(6, 3, 8, 8))
        via_dispatch = compute_scores(g, "nuclear", x)
        records = capture_activations(g, x)
        direct = score_nuclear(records)
        for lid in via_dispatch.scores:
            assert np.array_equal(via_dispatch.scores[lid], direct.scores[lid])

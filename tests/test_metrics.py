"""Complexity accounting, evaluation, and rank-stability metrics."""

import itertools

import numpy as np
import pytest

from energyprune.graph import INPUT, ModelGraph
from energyprune.linalg import make_rng
from energyprune.metrics import (count_complexity, evaluate, kendall_distance,
                                 ranking_from_scores, select_stability_layers,
                                 stability_curve)
from energyprune.toybench import build_toy_cnn_plain, build_toy_mlp
from helpers import _bn, _conv, _dense, _op


class TestComplexity:
    def test_conv_hand_count(self):
        g = ModelGraph((3, 8, 8))
        _conv(g, "c", INPUT, 3, 16)  # k=3, pad=1: output stays 8x8
        rep = count_complexity(g)
        assert rep.per_layer["c"] == (16 * 3 * 9 * 8 * 8, 16 * 3 * 9 + 16)

    def test_stride_shrinks_flops(self):
        g = ModelGraph((3, 8, 8))
        _conv(g, "c", INPUT, 3, 16, stride=2)  # output 4x4
        assert count_complexity(g).per_layer["c"][0] == 16 * 3 * 9 * 4 * 4

    def test_dense_and_bn_counts(self):
        g = ModelGraph((4, 2, 2))
        _bn(g, "bn", INPUT, 4)
        _op(g, "gap", "GlobalAvgPool", "bn")
        _dense(g, "fc", "gap", 4, 10)
        rep = count_complexity(g)
        # BN: gamma+beta trainable, running stats excluded, zero FLOPs
        assert rep.per_layer["bn"] == (0, 8)
        assert rep.per_layer["fc"] == (40, 50)
        assert rep.flops == 40 and rep.params == 58

    def test_mlp_closed_form(self):
        h = 13
        rep = count_complexity(build_toy_mlp(hidden=h))
        assert rep.flops == 2 * h + h * h + h * h + h * 4
        assert rep.params == (2 * h + h) + 2 * (h * h + h) + (4 * h + 4)

    def test_reduction_vs(self):
        g = build_toy_mlp(hidden=10)
        full = count_complexity(g)
        half = count_complexity(build_toy_mlp(hidden=5))
        fl, pa = half.reduction_vs(full)
        assert 0 < fl < 100 and 0 < pa < 100
        assert full.reduction_vs(full) == (0.0, 0.0)


class TestKendall:
    def test_identical_and_reversed(self):
        assert kendall_distance([0, 1, 2, 3], [0, 1, 2, 3]) == 0.0
        assert kendall_distance([0, 1, 2, 3], [3, 2, 1, 0]) == 1.0

    def test_single_swap(self):
        assert kendall_distance([0, 1, 2], [1, 0, 2]) == pytest.approx(1 / 3)

    def test_arbitrary_ids(self):
        assert kendall_distance(["a", "b", "c"], ["c", "a", "b"]) == \
            pytest.approx(2 / 3)

    def test_symmetry(self):
        rng = make_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = list(rng.permutation(n))
            q = list(rng.permutation(n))
            assert kendall_distance(p, q) == pytest.approx(
                kendall_distance(q, p))

    def test_brute_force_oracle_n4(self):
        ident = list(range(4))
        for perm in itertools.permutations(ident):
            pos = {x: i for i, x in enumerate(perm)}
            disagree = sum(1 for a, b in itertools.combinations(ident, 2)
                           if pos[a] > pos[b])
            assert kendall_distance(ident, list(perm)) == \
                pytest.approx(2 * disagree / (4 * 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            kendall_distance([0], [0])
        with pytest.raises(ValueError):
            kendall_distance([0, 1], [0, 2])
        with pytest.raises(ValueError):
            kendall_distance([0, 0, 1], [0, 1, 0])


def test_ranking_from_scores_descending_stable():
    assert ranking_from_scores(np.array([1.0, 3.0, 2.0])) == [1, 2, 0]
    assert ranking_from_scores(np.array([2.0, 2.0, 5.0])) == [2, 0, 1]


class TestEvaluate:
    def _graph(self):
        g = ModelGraph((3,))
        _dense(g, "out", INPUT, 3, 3)
        g.nodes["out"].params["w"] = np.eye(3)
        g.nodes["out"].params["b"] = np.zeros(3)
        return g

    def test_top1(self):
        g = self._graph()
        x = np.array([[5.0, 1.0, 0.0], [0.0, 5.0, 1.0], [1.0, 0.0, 5.0]])
        assert evaluate(g, (x, np.array([0, 1, 2]))) == 1.0
        assert evaluate(g, (x, np.array([1, 1, 2]))) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(self._graph(), (np.zeros((0, 3)), np.zeros(0, dtype=int)))


class TestStability:
    def test_layer_selection(self):
        g = build_toy_cnn_plain()
        assert select_stability_layers(g) == ["c1.conv", "c2.conv",
                                              "c3.conv", "c4.conv"]
        assert select_stability_layers(g, n_layers=2) == ["c1.conv", "c4.conv"]

    def test_curve_rows_and_nesting(self):
        g = build_toy_cnn_plain(seed=1)
        samples = make_rng(2).normal(size=(8, 3, 8, 8))
        rows = stability_curve(g, samples, "nuclear", (2, 4, 8), seed=0)
        assert len(rows) == 2 * 4  # consecutive size pairs x 4 layers
        assert {(a, b) for a, b, _, _ in rows} == {(2, 4), (4, 8)}
        assert all(0.0 <= d <= 1.0 for _, _, _, d in rows)
        again = stability_curve(g, samples, "nuclear", (2, 4, 8), seed=0)
        assert rows == again

    def test_pool_too_small(self):
        g = build_toy_cnn_plain()
        samples = make_rng(0).normal(size=(4, 3, 8, 8))
        with pytest.raises(ValueError):
            stability_curve(g, samples, "nuclear", (2, 8))

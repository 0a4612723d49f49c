"""Planning, executing, and verifying channel removal."""

import numpy as np
import pytest

from energyprune.criteria import ScoreTable, compute_scores
from energyprune.engine import TrainConfig, forward
from energyprune.linalg import make_rng
from energyprune.pruner import (ConsistencyError, PlanError, PruningPlan,
                                PruningSpec, default_protected, execute,
                                plan, prune_pipeline)
from energyprune.toybench import (ToyDatasetSpec, build_toy_cnn_plain,
                                  build_toy_cnn_residual, build_toy_mlp,
                                  gen_blobs)


def _mlp_scores(g, values):
    """ScoreTable over fc1..fc3 from an explicit dict."""
    return ScoreTable("weight", scores={k: np.asarray(v, dtype=float)
                                        for k, v in values.items()})


class TestSpecValidation:
    def test_bad_mode(self):
        with pytest.raises(PlanError):
            PruningSpec(mode="layerwise")

    def test_bad_ratio_and_threshold(self):
        with pytest.raises(PlanError):
            PruningSpec(ratio=1.0)
        with pytest.raises(PlanError):
            PruningSpec(threshold=-0.1)

    @pytest.mark.parametrize("r", [-0.25, 1.0])
    def test_bad_per_layer_ratio(self, r):
        # a negative ratio once made ranked[:k] keep only the top -k
        with pytest.raises(PlanError):
            PruningSpec(mode="per-layer", per_layer_ratios={"b1.conv1": r})


def test_default_protected():
    assert default_protected(build_toy_mlp(hidden=4)) == {"out"}
    assert default_protected(build_toy_cnn_plain()) == {"out", "c1.conv"}


class TestPerLayer:
    def test_takes_floor_ratio_lowest(self):
        g = build_toy_mlp(hidden=4, seed=0)
        scores = _mlp_scores(g, {"fc1": [4, 1, 3, 2], "fc2": [1, 2, 3, 4],
                                 "fc3": [5, 5, 0, 5]})
        spec = PruningSpec(mode="per-layer", ratio=0.5, criterion="weight")
        p = plan(g, scores, spec)
        removed = p.removed_slots
        assert removed == {("fc1", 1), ("fc1", 3), ("fc2", 0), ("fc2", 1),
                           ("fc3", 2), ("fc3", 0)}
        pruned = execute(g, p)
        assert all(pruned.nodes[f].attrs["out"] == 2
                   for f in ("fc1", "fc2", "fc3"))
        assert pruned.nodes["out"].attrs["in"] == 2

    def test_ratio_below_one_channel_removes_nothing(self):
        g = build_toy_mlp(hidden=4, seed=0)
        scores = _mlp_scores(g, {"fc1": [1, 2, 3, 4], "fc2": [1, 2, 3, 4],
                                 "fc3": [1, 2, 3, 4]})
        spec = PruningSpec(mode="per-layer", ratio=0.2, criterion="weight")
        p = plan(g, scores, spec)
        assert p.n_removed_channels() == 0

    def test_per_layer_overrides(self):
        g = build_toy_mlp(hidden=4, seed=0)
        scores = _mlp_scores(g, {"fc1": [1, 2, 3, 4], "fc2": [1, 2, 3, 4],
                                 "fc3": [1, 2, 3, 4]})
        spec = PruningSpec(mode="per-layer", ratio=0.0,
                           per_layer_ratios={"fc2": 0.75}, criterion="weight")
        pruned = execute(g, plan(g, scores, spec))
        assert pruned.nodes["fc1"].attrs["out"] == 4
        assert pruned.nodes["fc2"].attrs["out"] == 1
        assert pruned.nodes["fc3"].attrs["out"] == 4

    def test_residual_closure(self):
        g = build_toy_cnn_residual(seed=0)
        table = compute_scores(g, "weight", None)
        spec = PruningSpec(mode="per-layer", ratio=0.25, criterion="weight")
        p = plan(g, table, spec)
        # b1.conv1 channels are free singletons; every removal of a
        # b2.conv1 channel i drags (b2.proj, i) along through the add
        for grp, _ in p.removals:
            layers = {lid for lid, _ in grp.slots}
            assert layers in ({"b1.conv1"}, {"b2.conv1", "b2.proj"})
        assert any({lid for lid, _ in grp.slots} == {"b2.conv1", "b2.proj"}
                   for grp, _ in p.removals)
        pruned = execute(g, p)
        # stem.conv is protected, so the b1 groups stay whole
        assert pruned.nodes["stem.conv"].attrs["out"] == 16
        assert pruned.nodes["b2.conv1"].attrs["out"] == \
            pruned.nodes["b2.proj"].attrs["out"]
        x = make_rng(1).normal(size=(2, 3, 8, 8))
        forward(pruned, x)  # rewired graph still runs

    def test_tied_layers_cannot_be_emptied(self):
        # each layer's lowest half drags the other half of its Add twin
        g = build_toy_cnn_residual(seed=0)
        table = compute_scores(g, "weight", None)
        table.scores["b2.conv1"] = np.arange(32.0)
        table.scores["b2.proj"] = np.arange(32.0)[::-1].copy()
        spec = PruningSpec(mode="per-layer", ratio=0.5, criterion="weight")
        with pytest.raises(PlanError):
            plan(g, table, spec)


class TestGlobal:
    def test_threshold_fraction_of_prunable_channels(self):
        g = build_toy_mlp(hidden=1000, seed=0)
        table = compute_scores(g, "weight", None)
        spec = PruningSpec(mode="global", threshold=1.0 / 3.0,
                           criterion="weight")
        p = plan(g, table, spec)
        assert p.n_removed_channels() == 1000
        pruned = execute(g, p)
        widths = [pruned.nodes[f].attrs["out"] for f in ("fc1", "fc2", "fc3")]
        assert sum(widths) == 2000
        assert all(w >= 1 for w in widths)

    def test_uses_layer_l2_normalized_ranking(self):
        g = build_toy_mlp(hidden=4, seed=0)
        # raw scores would doom all of fc1; normalized ranking compares
        # within-layer relative magnitude instead
        scores = _mlp_scores(g, {"fc1": [1, 1, 1, 100],
                                 "fc2": [1000, 2000, 3000, 4000],
                                 "fc3": [1000, 2000, 3000, 4000]})
        spec = PruningSpec(mode="global", threshold=0.25, criterion="weight")
        removed = plan(g, scores, spec).removed_slots
        assert ("fc1", 3) not in removed
        assert {("fc1", 0), ("fc1", 1), ("fc1", 2)} <= removed

    def test_never_empties_a_layer(self):
        g = build_toy_mlp(hidden=2, seed=0)
        scores = _mlp_scores(g, {"fc1": [0.0, 0.0], "fc2": [5.0, 6.0],
                                 "fc3": [5.0, 6.0]})
        spec = PruningSpec(mode="global", threshold=0.33, criterion="weight")
        p = plan(g, scores, spec)
        assert sum(1 for lid, _ in p.removed_slots if lid == "fc1") <= 1

    def test_unreachable_threshold(self):
        g = build_toy_mlp(hidden=4, seed=0)
        table = compute_scores(g, "weight", None)
        with pytest.raises(PlanError):
            plan(g, table, PruningSpec(mode="global", threshold=0.9,
                                       criterion="weight"))

    def test_zero_threshold_empty_plan_is_identity(self):
        g = build_toy_mlp(hidden=6, seed=3)
        table = compute_scores(g, "weight", None)
        p = plan(g, table, PruningSpec(mode="global", threshold=0.0,
                                       criterion="weight"))
        assert p.removals == []
        assert p.predicted_flops == p.baseline_flops
        pruned = execute(g, p)
        for (n1, k1, a1), (n2, k2, a2) in zip(g.parameters(),
                                              pruned.parameters()):
            assert (n1, k1) == (n2, k2)
            assert np.array_equal(a1, a2)


class TestPlanIntegrity:
    def test_score_width_mismatch(self):
        g = build_toy_mlp(hidden=4, seed=0)
        scores = _mlp_scores(g, {"fc1": [1, 2, 3], "fc2": [1, 2, 3, 4],
                                 "fc3": [1, 2, 3, 4]})
        with pytest.raises(PlanError):
            plan(g, scores, PruningSpec(mode="per-layer", ratio=0.25,
                                        criterion="weight"))

    def test_scores_for_a_non_prunable_node(self):
        g = build_toy_cnn_plain(seed=0)
        table = ScoreTable("weight", scores={"c1.bn": np.ones(16)})
        with pytest.raises(PlanError, match="c1.bn"):
            plan(g, table, PruningSpec(mode="per-layer", ratio=0.3))

    def test_custom_protected_layers(self):
        g = build_toy_mlp(hidden=4, seed=0)
        table = compute_scores(g, "weight", None)
        spec = PruningSpec(mode="per-layer", ratio=0.5, criterion="weight",
                           protected=["fc1", "fc2", "out"])
        removed = plan(g, table, spec).removed_slots
        assert {lid for lid, _ in removed} == {"fc3"}

    def test_execute_checks_predictions(self):
        g = build_toy_mlp(hidden=4, seed=0)
        table = compute_scores(g, "weight", None)
        p = plan(g, table, PruningSpec(mode="per-layer", ratio=0.25,
                                       criterion="weight"))
        bad = PruningPlan(removals=p.removals,
                          predicted_shapes=p.predicted_shapes,
                          predicted_flops=p.predicted_flops + 1,
                          predicted_params=p.predicted_params,
                          baseline_flops=p.baseline_flops,
                          baseline_params=p.baseline_params)
        with pytest.raises(ConsistencyError):
            execute(g, bad)

    def test_plan_predicts_flops_and_params(self):
        g = build_toy_mlp(hidden=8, seed=0)
        table = compute_scores(g, "weight", None)
        p = plan(g, table, PruningSpec(mode="per-layer", ratio=0.25,
                                       criterion="weight"))
        assert p.predicted_flops < p.baseline_flops
        assert p.predicted_params < p.baseline_params
        execute(g, p)  # internal cross-check passes


def test_prune_pipeline_end_to_end():
    data = gen_blobs(ToyDatasetSpec(samples_per_class=40, seed=0))
    g = build_toy_mlp(hidden=16, seed=0)
    spec = PruningSpec(mode="per-layer", ratio=0.25, criterion="weight")
    cfg = TrainConfig(max_epochs=2, batch_size=32, seed=0)
    pruned, report = prune_pipeline(g, (data.train_x, data.train_y), spec,
                                    finetune=cfg)
    assert report["criterion"] == "weight"
    assert report["removed_channels"] == 12
    assert report["flops_after"] < report["flops_before"]
    assert report["params_after"] < report["params_before"]
    assert all(pruned.nodes[f].attrs["out"] == 12
               for f in ("fc1", "fc2", "fc3"))


@pytest.mark.parametrize("mode", ["global", "per-layer"])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_iterative_pruning_removes_the_one_shot_total(mode, steps):
    data = gen_blobs(ToyDatasetSpec(samples_per_class=10, seed=0))
    g = build_toy_mlp(hidden=40, seed=0)
    spec = PruningSpec(mode=mode, ratio=0.5, threshold=0.5,
                       criterion="weight")
    pruned, report = prune_pipeline(g, (data.train_x, data.train_y), spec,
                                    steps=steps)
    widths = [pruned.nodes[f].attrs["out"] for f in ("fc1", "fc2", "fc3")]
    assert report["removed_channels"] == 60
    assert sum(widths) == 60
    if mode == "per-layer":
        assert widths == [20, 20, 20]

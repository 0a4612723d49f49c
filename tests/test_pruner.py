"""Planning, executing, and verifying channel removal."""

import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from energyprune.criteria import ScoreTable, compute_scores
from energyprune.engine import TrainConfig, forward, init_params
from energyprune.graph import INPUT, ModelGraph, build_channel_groups
from energyprune.linalg import make_rng
from energyprune.pruner import (ConsistencyError, PlanError, PruningPlan,
                                PruningSpec, _layer_counts, _plan,
                                default_protected, execute, plan,
                                prune_pipeline)
from energyprune.toybench import (ToyDatasetSpec, build_reference_arch,
                                  build_toy_cnn_inception,
                                  build_toy_cnn_plain,
                                  build_toy_cnn_residual,
                                  build_toy_densenet_cell, build_toy_mlp,
                                  gen_blobs)

from helpers import (_conv, _dense, _op, reference_channel_groups,
                     reference_plan)


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

    def test_huge_finite_scores_keep_their_channels(self):
        # an overflowing layer norm once zeroed every score of fc1, so the
        # plan removed its two largest channels first
        g = build_toy_mlp(hidden=8, seed=0)
        scores = _mlp_scores(g, {"fc1": [1e308, 1e308] + [5] * 6,
                                 "fc2": range(1, 9), "fc3": range(1, 9)})
        spec = PruningSpec(mode="global", threshold=0.25, criterion="weight")
        removed = plan(g, scores, spec).removed_slots
        assert removed == {("fc1", ch) for ch in range(2, 8)}

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

    @pytest.mark.parametrize("mode", ["global", "per-layer"])
    def test_scores_for_layers_the_graph_lacks(self, mode):
        # a table from another model once planned 0 removals silently
        g = build_toy_mlp(hidden=8, seed=0)
        table = ScoreTable("weight", scores={"nope": np.ones(8),
                                             "fc9": np.ones(8)})
        with pytest.raises(PlanError, match="'nope'"):
            plan(g, table, PruningSpec(mode=mode, ratio=0.5, threshold=0.5))

    @pytest.mark.parametrize("field", ["per_layer_ratios", "protected"])
    def test_spec_names_a_layer_the_graph_lacks(self, field):
        g = build_toy_mlp(hidden=8, seed=0)
        table = compute_scores(g, "weight", None)
        value = {"fc9": 0.5} if field == "per_layer_ratios" else ["fc9"]
        spec = PruningSpec(mode="per-layer", ratio=0.25, criterion="weight",
                           **{field: value})
        with pytest.raises(PlanError, match="'fc9'"):
            plan(g, table, spec)

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


# --- the array planner against the union-find reference ---------------------

def _add_on_input():
    """An Add on the graph input freezes the conv it meets; a one-channel
    conv follows."""
    g = ModelGraph((3, 4, 4))
    _conv(g, "c", INPUT, 3, 3)
    _op(g, "add", "Add", [INPUT, "c"])
    _conv(g, "d", "add", 3, 1)
    _conv(g, "e", "d", 1, 4)
    _op(g, "gap", "GlobalAvgPool", "e")
    _dense(g, "fc", "gap", 4, 2)
    return init_params(g, 0)


ORACLE_GRAPHS = {
    "toy-cnn-residual": lambda: build_toy_cnn_residual(seed=0),
    "toy-cnn-inception": lambda: build_toy_cnn_inception(seed=0),
    "toy-densenet-cell": lambda: build_toy_densenet_cell(seed=0),
    "resnet56": lambda: init_params(build_reference_arch("resnet56"), 0),
    "densenet40": lambda: init_params(build_reference_arch("densenet40"), 0),
    "toy-mlp": lambda: build_toy_mlp(hidden=8, seed=0),
    "toy-mlp-1": lambda: build_toy_mlp(hidden=1, seed=0),
    "add-on-input": _add_on_input,
}


@cache
def _oracle_graph(name):
    return ORACLE_GRAPHS[name]()


def _draw_scores(data, g, rng):
    """Scores over a drawn subset of the layers: ties, zeros or distinct
    values, sometimes already layer-l2 normalized."""
    layers = [n.id for n in g.nodes.values() if n.kind in ("Dense", "Conv2D")]
    kind = data.draw(st.sampled_from(["ties", "zeros", "distinct"]))
    keep = data.draw(st.sampled_from(["all", "most"]))
    scores = {}
    for lid in layers:
        if keep == "most" and rng.random() < 0.2:
            continue
        c = g.nodes[lid].attrs["out"]
        if kind == "ties":
            vec = rng.integers(0, 3, size=c).astype(float)
        elif kind == "zeros":
            vec = rng.random(c) * (rng.random(c) < 0.3)
        else:
            vec = rng.random(c)
        scores[lid] = vec
    norm = data.draw(st.sampled_from(["raw", "layer-l2"]))
    return ScoreTable("weight", scores=scores, normalization=norm)


def _outcome(run):
    try:
        return run()
    except PlanError as exc:
        return f"PlanError: {exc}"


def _as_reference(p):
    return ([(grp.gid, grp.slots, score) for grp, score in p.removals],
            p.predicted_shapes, p.predicted_flops, p.predicted_params,
            p.baseline_flops, p.baseline_params)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_plan_matches_the_union_find_reference(data):
    name = data.draw(st.sampled_from(sorted(ORACLE_GRAPHS)))
    g = _oracle_graph(name)
    assert [tuple(grp) for grp in build_channel_groups(g)] == \
        reference_channel_groups(g)
    rng = make_rng(data.draw(st.integers(0, 2**16)))
    layers = [n.id for n in g.nodes.values() if n.kind in ("Dense", "Conv2D")]
    mode = data.draw(st.sampled_from(["global", "per-layer"]))
    spec = PruningSpec(
        mode=mode, criterion="weight",
        ratio=data.draw(st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.7, 0.9])),
        threshold=data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9])),
        per_layer_ratios={lid: 0.5 for lid in layers if rng.random() < 0.2},
        protected=data.draw(st.sampled_from(
            [None, [], [lid for lid in layers if rng.random() < 0.3]])))
    steps = data.draw(st.sampled_from([1, 1, 2, 3]))
    done: dict = {}
    for step in range(1, steps + 1):
        table = _draw_scores(data, g, rng)
        got = _outcome(lambda: _plan(g, table, spec, step / steps, done))
        want = _outcome(
            lambda: reference_plan(g, table, spec, step / steps, done))
        if isinstance(want, str):
            assert got == want
            return
        assert _as_reference(got) == want
        assert all(grp.prunable for grp, _ in got.removals)
        counts = _layer_counts(s for grp, _ in got.removals for s in grp.slots)
        done = {lid: done.get(lid, 0) + counts.get(lid, 0)
                for lid in set(done) | set(counts)}
        g = execute(g, got)


@pytest.mark.parametrize("name, mode, r", [
    ("resnet56", "per-layer", 0.7),  # tied layers empty each other
    ("toy-cnn-residual", "per-layer", 0.9),
    ("toy-mlp-1", "global", 0.5),  # one-channel layers cannot shrink
    ("add-on-input", "global", 0.9),  # a frozen group and a protected one
])
def test_plan_errors_match_the_reference(name, mode, r):
    g = _oracle_graph(name)
    table = compute_scores(g, "weight", None)
    for node in g.nodes.values():  # weight scores skip layers with no ReLU/BN
        if node.kind in ("Dense", "Conv2D"):
            table.scores.setdefault(node.id, np.arange(node.attrs["out"], 0.0, -1))
    spec = PruningSpec(mode=mode, ratio=r, threshold=r, criterion="weight")
    want = _outcome(lambda: reference_plan(g, table, spec))
    assert isinstance(want, str)
    assert _outcome(lambda: plan(g, table, spec)) == want


@pytest.mark.parametrize("name", ["vgg16bn", "googlenet"])
def test_plan_allocates_a_small_fraction_of_the_model(name):
    # planning once made a scratch copy of about half the parameters
    g = init_params(build_reference_arch(name), 0)
    table = compute_scores(g, "weight", None)
    spec = PruningSpec(mode="global", threshold=0.3, criterion="weight")
    param_bytes = sum(t.nbytes for _, _, t in g.parameters())
    tracemalloc.start()
    try:
        plan(g, table, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.10 * param_bytes

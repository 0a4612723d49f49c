"""Planning, executing, and verifying channel removal."""

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from energyprune.criteria import ScoreTable, compute_scores, score_weight
from energyprune.engine import TrainConfig, forward, init_params
from energyprune.graph import (INPUT, GraphError, ModelGraph,
                               build_channel_groups, infer_shapes)
from energyprune.linalg import make_rng
from energyprune.metrics import count_complexity
from energyprune.modelio import save_model
from energyprune.pruner import (ConsistencyError, PlanError, PruningSpec,
                                _plan, default_protected, execute, plan,
                                prune_pipeline)
from energyprune.toybench import (REFERENCE_BUILDERS, ZOO_BUILDERS,
                                  ToyDatasetSpec, build_reference_arch,
                                  build_toy_cnn_inception,
                                  build_toy_cnn_plain,
                                  build_toy_cnn_residual,
                                  build_toy_densenet_cell, build_toy_mlp,
                                  gen_blobs, gen_class_images)

from helpers import (_bn, _conv, _dense, _op, reference_channel_groups,
                     reference_plan)


class _NoCopy(np.ndarray):
    """A tensor that fails any test which reads a slice of it."""

    def __getitem__(self, key):
        raise AssertionError("a tensor was copied")


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
        # each layer's lowest half is the other half of its Add twin; once
        # each pick dragged its twin's channel along and emptied both
        g = build_toy_cnn_residual(seed=0)
        table = compute_scores(g, "weight", None)
        table.scores["b2.conv1"] = np.arange(32.0)
        table.scores["b2.proj"] = np.arange(32.0)[::-1].copy()
        spec = PruningSpec(mode="per-layer", ratio=0.5, criterion="weight")
        pruned = execute(g, plan(g, table, spec))
        assert pruned.nodes["b2.conv1"].attrs["out"] == 16
        assert pruned.nodes["b2.proj"].attrs["out"] == 16


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

    def test_tiny_scores_plan_like_small_ones(self):
        # the layer norm of 1e-200 scores once underflowed to zero, so fc1
        # was left raw and lost six channels instead of fc2/fc3 losing three
        g = build_toy_mlp(hidden=8, seed=0)
        spec = PruningSpec(mode="global", threshold=0.25, criterion="weight")
        plans = [plan(g, _mlp_scores(g, {"fc1": [tiny] * 8, "fc2": range(1, 9),
                                         "fc3": range(1, 9)}), spec).removed_slots
                 for tiny in (1e-100, 1e-200)]
        assert plans[0] == plans[1] == {(lid, ch) for lid in ("fc2", "fc3")
                                        for ch in range(3)}

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
        # a missing node, and nodes that are not Dense or Conv2D layers
        for build, lid in ((lambda: build_toy_mlp(hidden=8, seed=0), "fc9"),
                           (build_toy_cnn_plain, "c1.bn"),
                           (build_toy_cnn_plain, "c2.relu")):
            g = build()
            table = compute_scores(g, "weight", None)
            value = {lid: 0.5} if field == "per_layer_ratios" else [lid]
            spec = PruningSpec(mode="per-layer", ratio=0.25,
                               criterion="weight", **{field: value})
            with pytest.raises(PlanError, match=f"'{lid}'"):
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
        bad = replace(p, predicted_flops=p.predicted_flops + 1)
        with pytest.raises(ConsistencyError):
            execute(g, bad)

    def test_execute_refuses_a_plan_for_another_graph_before_copying(self):
        g = build_toy_cnn_residual(seed=0)
        table = compute_scores(g, "weight", None)
        p = plan(g, table, PruningSpec(mode="per-layer", ratio=0.25,
                                       criterion="weight"))
        rewired = g.copy()  # the same nodes, an Add's inputs swapped
        rewired.nodes["b1.add"].inputs.reverse()
        retuned = g.copy()  # the same wiring, one attribute changed
        retuned.nodes["b2.bn1"].attrs["eps"] = 1e-3
        others = [rewired, retuned, build_toy_cnn_residual(k=5),
                  build_toy_cnn_plain(seed=0)]
        for other in others:
            for node in other.nodes.values():
                node.params = {k: a.view(_NoCopy) for k, a in node.params.items()}
            with pytest.raises(GraphError, match="another graph"):
                execute(other, p)
        # a copy of the graph the plan was made for is that graph
        assert infer_shapes(execute(g.copy(), p)) == p.predicted_shapes

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


# the layers a default-protected plan can prune: on toy-cnn-residual the
# Add ties b1.conv2 to the protected stem, and b2.conv1 to b2.proj
ITERATIVE_LAYERS = {"toy-mlp": ("fc1", "fc2", "fc3"),
                    "toy-cnn-residual": ("b1.conv1", "b2.conv1", "b2.proj")}


@pytest.mark.parametrize("name, mode, r, steps", [
    pytest.param("toy-mlp", mode, 0.5, steps, id=f"{steps}-{mode}")
    for steps in (1, 2, 4) for mode in ("global", "per-layer")] + [
    pytest.param("toy-cnn-residual", mode, r, steps,
                 id=f"toy-cnn-residual-{mode}-{r}-{steps}")
    for mode, r in (("per-layer", 0.3), ("per-layer", 0.9), ("global", 0.3))
    for steps in (1, 2, 3, 5)])
def test_iterative_pruning_removes_the_one_shot_total(name, mode, r, steps):
    if name == "toy-mlp":
        data = gen_blobs(ToyDatasetSpec(samples_per_class=10, seed=0))
        g = build_toy_mlp(hidden=40, seed=0)
    else:
        data = gen_class_images(samples_per_class=2, seed=0)
        g = build_toy_cnn_residual(seed=0)
    spec = PruningSpec(mode=mode, ratio=r, threshold=r, criterion="weight")
    one_shot = plan(g, score_weight(g), spec).n_removed_channels()
    pruned, report = prune_pipeline(g, (data.train_x, data.train_y), spec,
                                    steps=steps)
    lost = {n.id: n.attrs["out"] - pruned.nodes[n.id].attrs["out"]
            for n in g.nodes.values() if n.kind in ("Dense", "Conv2D")}
    assert report["removed_channels"] == sum(lost.values()) == one_shot
    if name == "toy-mlp":
        assert one_shot == 60
    if mode == "per-layer":
        # the tied b2.conv1 and b2.proj share one target, so every
        # prunable layer loses exactly floor(r * c)
        assert lost == {lid: int(np.floor(r * g.nodes[lid].attrs["out"]))
                        if lid in ITERATIVE_LAYERS[name] else 0
                        for lid in lost}


@pytest.mark.parametrize("name", sorted(ZOO_BUILDERS)
                         + sorted(REFERENCE_BUILDERS))
def test_per_layer_plans_remove_at_most_floor_r_c_per_layer(name):
    build = ZOO_BUILDERS.get(name)
    g = build(4, 0) if build else init_params(build_reference_arch(name), 0)
    table = score_weight(g)
    protected = default_protected(g)
    tied: dict = {}  # layer -> the layers it shares a candidate group with
    for grp in build_channel_groups(g):
        lids = {lid for lid, _ in grp.slots}
        if grp.prunable and not lids & protected and lids <= table.scores.keys():
            for lid in lids:
                tied.setdefault(lid, set()).update(lids)
    for r in (0.2, 0.5, 0.9):
        p = plan(g, table, PruningSpec(mode="per-layer", ratio=r,
                                       criterion="weight"))
        removed = Counter(lid for lid, _ in p.removed_slots)
        target = {lid: int(np.floor(r * g.nodes[lid].attrs["out"]))
                  for lid in tied}
        for lid in (n.id for n in g.nodes.values()
                    if n.kind in ("Dense", "Conv2D")):
            assert removed[lid] <= target.get(lid, 0), (r, lid)
            if lid in tied and {target[t] for t in tied[lid]} == {target[lid]}:
                assert removed[lid] == target[lid], (r, lid)
        if (name, r) == ("resnet56", 0.2):
            # each pick once dragged in the channels its Add partners
            # share: 28 of 32 went, and -64.0 % FLOPs where 20 % of each
            # layer was asked for
            assert removed["s1b3.conv2"] == 6
            assert 1 - p.predicted_flops / p.baseline_flops < 0.3


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


def _add_after_flatten():
    """A Flatten turns each channel of c into 4 features, which an Add
    ties to those of d; a BatchNorm runs over the features."""
    g = ModelGraph((3, 2, 2))
    _conv(g, "c", INPUT, 3, 2, k=1, pad=0)
    _op(g, "flat", "Flatten", "c")
    _bn(g, "bn", "flat", 8)
    _dense(g, "d", "bn", 8, 8)
    _op(g, "add", "Add", ["flat", "d"])
    _dense(g, "fc", "add", 8, 3)
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
    "add-after-flatten": _add_after_flatten,
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
        assert got.n_removed_channels() == len(got.removed_slots)
        assert got.removed_slots == set().union(
            *(grp.slots for grp, _ in got.removals))
        done = dict(Counter(done) + Counter(
            lid for grp, _ in got.removals for lid, _ in grp.slots))
        g = execute(g, got)


def _weight_scores_on_every_layer(g):
    table = compute_scores(g, "weight", None)
    for node in g.nodes.values():  # weight scores skip layers with no ReLU/BN
        if node.kind in ("Dense", "Conv2D"):
            table.scores.setdefault(node.id, np.arange(node.attrs["out"], 0.0, -1))
    return table


@pytest.mark.parametrize("name, mode, r", [
    ("toy-mlp-1", "global", 0.5),  # one-channel layers cannot shrink
    ("add-on-input", "global", 0.9),  # a frozen group and a protected one
])
def test_plan_errors_match_the_reference(name, mode, r):
    g = _oracle_graph(name)
    table = _weight_scores_on_every_layer(g)
    spec = PruningSpec(mode=mode, ratio=r, threshold=r, criterion="weight")
    want = _outcome(lambda: reference_plan(g, table, spec))
    assert isinstance(want, str)
    assert _outcome(lambda: plan(g, table, spec)) == want


# tied layers once emptied each other here, and the spec was refused
@pytest.mark.parametrize("name, r", [("resnet56", 0.7),
                                     ("toy-cnn-residual", 0.9)])
def test_tied_per_layer_plans_match_the_reference(name, r):
    g = _oracle_graph(name)
    table = _weight_scores_on_every_layer(g)
    spec = PruningSpec(mode="per-layer", ratio=r, criterion="weight")
    assert _as_reference(plan(g, table, spec)) == \
        reference_plan(g, table, spec)


def test_plan_and_execute_build_no_removal_list():
    g = init_params(build_reference_arch("googlenet"), 0)
    table = score_weight(g)
    spec = PruningSpec(mode="global", threshold=0.3, criterion="weight")
    p = plan(g, table, spec)
    execute(g, p)
    assert "removals" not in vars(p)
    assert _as_reference(p) == reference_plan(g, table, spec)
    assert p.removals is p.removals
    assert p.removed_slots == set().union(*(grp.slots
                                            for grp, _ in p.removals))


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


# Per plan mode, sha256 of the plans' removals and predictions and the
# save_model bytes of the pruned models, over the five reference
# architectures (seed 0) under a global 0.3 and a per-layer 0.2 plan; the
# global digest also covers the weight scores. Both were recorded with
# numpy 2.4.6. The global one predates the rewrite reading the plan's slot
# table, weight scores running in row blocks and per-layer plans walking
# like global ones, none of which moved a bit of it. The per-layer one was
# recorded when per-layer plans stopped at floor(r * c) on Add-tied layers.
SURGERY_SHA256 = {
    "global": "27bd931c8102bd6ba0d9c83270c6d03e8d5417c5093632f94ff558cfad6e236e",
    "per-layer": "b432928bddda7c133613e33445f27908b7c16e95afb6c65cd6aa053335394e68",
}


def test_full_size_prune_stage_is_bit_identical_to_the_pinned_digest(tmp_path):
    digests = {mode: hashlib.sha256() for mode in SURGERY_SHA256}
    path = tmp_path / "m.json"
    for name in sorted(REFERENCE_BUILDERS):
        g = init_params(build_reference_arch(name), 0)
        table = score_weight(g)
        for lid, vec in table.scores.items():
            digests["global"].update(lid.encode())
            digests["global"].update(vec.tobytes())
        for spec in (PruningSpec(mode="global", threshold=0.3, criterion="weight"),
                     PruningSpec(mode="per-layer", ratio=0.2, criterion="weight")):
            h = digests[spec.mode]
            p = plan(g, table, spec)
            h.update(repr([(grp.gid, sorted(grp.slots), score)
                           for grp, score in p.removals]).encode())
            h.update(repr((p.predicted_shapes, p.predicted_flops,
                           p.predicted_params)).encode())
            save_model(execute(g, p), path)
            h.update(path.read_bytes())
            h.update(Path(f"{path}.bin").read_bytes())
    assert {mode: h.hexdigest() for mode, h in digests.items()} == \
        SURGERY_SHA256


# Per stage, the ratio a per-layer plan takes from each residual block's
# conv1, and the paper's (FLOPs, params) reductions in percent that it
# reaches. A per-layer plan removes the same counts whatever the scores.
PAPER_POINTS = {
    "resnet56": ((0.40, 0.35, 0.50), (40.4, 45.9)),
    "resnet110": ((0.85, 0.05, 0.65), (49.8, 52.9)),
}


@pytest.mark.parametrize("name", sorted(PAPER_POINTS))
def test_plans_reach_the_papers_complexity_points(name):
    ratios, paper = PAPER_POINTS[name]
    g = init_params(build_reference_arch(name), 0)
    spec = PruningSpec(mode="per-layer", criterion="weight", per_layer_ratios={
        lid: ratios[int(lid[1])] for lid in g.nodes if lid.endswith(".conv1")})
    p = plan(g, score_weight(g), spec)
    predicted = (100 * (1 - p.predicted_flops / p.baseline_flops),
                 100 * (1 - p.predicted_params / p.baseline_params))
    measured = count_complexity(execute(g, p)).reduction_vs(
        count_complexity(g))
    assert predicted == pytest.approx(paper, abs=0.5)
    assert measured == pytest.approx(paper, abs=0.5)

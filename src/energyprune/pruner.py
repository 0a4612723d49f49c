"""Turning a ScoreTable into a PruningPlan, executing it, verifying it.

Planning works on the graph's channel-slot arrays: it scores each
removal group by its lowest member score and, in one walk for both
modes, takes groups lowest first while each layer they touch has room
(per layer floor(r * c), globally c - 1 until the threshold). It predicts
the pruned shapes, FLOPs and parameters from the slots each node keeps,
copying no tensor. The plan keeps the slot table and the per-slot
removal mask it planned on, so execution runs the one structural rewrite
(``graph._rewrite``) straight from them, without rebuilding the table or
turning channels back into slots; it then cross-checks what it measures
on the rewritten graph against the predictions. The plan's removal list,
one (ChannelGroup, score) pair per removed group, is built the first
time it is read: planning and execution only need the group ids, their
scores and the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .criteria import ScoreTable, compute_scores, normalize_layer_l2
from .engine import TrainConfig, logits_node, train
from .graph import (ChannelSlots, ModelGraph, _rewrite, channel_provenance,
                    infer_shapes)
from .metrics import UNCOUNTED_PARAMS, count_complexity


class PlanError(ValueError):
    """Invalid pruning spec or scores that do not cover the graph."""


class ConsistencyError(RuntimeError):
    """Post-execute measurements disagree with the plan's predictions."""


@dataclass
class PruningSpec:
    mode: str = "global"  # or "per-layer"
    ratio: float = 0.0  # per-layer r in [0, 1): at most floor(r * c) per layer
    per_layer_ratios: dict = field(default_factory=dict)  # overrides per layer
    threshold: float = 0.0  # global: target fraction of prunable channels
    criterion: str = "nuclear"
    protected: list | None = None  # None -> classifier (+ conv stem)

    def __post_init__(self):
        if self.mode not in ("global", "per-layer"):
            raise PlanError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.ratio < 1.0:
            raise PlanError("ratio must be in [0, 1)")
        for lid, r in self.per_layer_ratios.items():
            if not 0.0 <= r < 1.0:
                raise PlanError(f"ratio of layer {lid!r} must be in [0, 1)")
        if not 0.0 <= self.threshold < 1.0:
            raise PlanError("threshold must be in [0, 1)")


@dataclass
class PruningPlan:
    predicted_shapes: dict
    predicted_flops: int
    predicted_params: int
    baseline_flops: int
    baseline_params: int
    # the slot table of the graph the plan was made for, and per slot of
    # it, then for slot -1, whether the plan removes it
    slots: ChannelSlots = field(repr=False, compare=False)
    gone: np.ndarray = field(repr=False, compare=False)
    # the removed group ids in removal order, and each one's aggregate score
    picked: np.ndarray = field(repr=False, compare=False)
    picked_scores: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def removals(self) -> list:
        """(ChannelGroup, aggregate score) per removed group, in removal
        order; built on first read."""
        return list(zip(self.slots.groups(self.picked),
                        self.picked_scores.tolist()))

    @property
    def removed_slots(self) -> set:
        """The removed (layer_id, channel) slots, read from ``gone``."""
        t = self.slots
        s = np.flatnonzero(self.gone[:-1])
        owner = t.layer[s]
        return set(zip([t.layers[i] for i in owner.tolist()],
                       (s - t.start[owner]).tolist()))

    def n_removed_channels(self) -> int:
        return int(np.count_nonzero(self.gone))


def default_protected(g: ModelGraph) -> set:
    """The output classifier, plus the first conv of a conv net (the
    input stem)."""
    protected = {logits_node(g)}
    for node in g.nodes.values():
        if node.kind == "Conv2D":
            protected.add(node.id)
            break
    return protected


def check_score_widths(g: ModelGraph, scores: ScoreTable) -> None:
    """Every layer a score table names must be a Dense/Conv2D layer of g
    with one score per output channel."""
    for lid, vec in scores.scores.items():
        node = g.nodes.get(lid)
        if node is None:
            raise PlanError(f"score table names layer {lid!r}, which the "
                            "graph does not have")
        if len(vec) != node.attrs.get("out"):
            raise PlanError(
                f"score table does not match graph layer widths: {len(vec)} "
                f"scores for layer {lid!r}, which has "
                f"{node.attrs.get('out', 0)} prunable channels")


def plan(g: ModelGraph, scores: ScoreTable, spec: PruningSpec) -> PruningPlan:
    """Select removal groups by score, lowest first: per-layer mode while
    each layer a group touches stays within floor(r_l * c_l), so a layer
    loses exactly that unless an Add ties it to a smaller target; global
    mode by layer-l2-normalized group scores until the threshold fraction
    is reached."""
    return _plan(g, scores, spec, 1.0, {})


def _plan(g: ModelGraph, scores: ScoreTable, spec: PruningSpec,
          frac: float, done: dict) -> PruningPlan:
    """``plan`` for step k of an iterative run, ``frac`` = k/steps. The
    targets are ``frac`` of the spec's, taken on the widths before earlier
    steps removed ``done`` (layer_id -> count) channels, which count
    toward them.

    Works on the slot table: a group's score is the lowest score of its
    slots, ties rank by group id (smallest slot first), and a group is
    taken while each layer it touches has room for its slots: per layer
    max(0, floor(r * c * frac) - done), globally the width less one. The
    predictions come from the slots each node keeps."""
    t = channel_provenance(g)
    check_score_widths(g, scores)
    index = {lid: i for i, lid in enumerate(t.layers)}
    for what, names in (("per-layer ratio", spec.per_layer_ratios),
                        ("protected layer", spec.protected or ())):
        for lid in names:
            if lid not in g.nodes:
                raise PlanError(f"{what} names layer {lid!r}, which the "
                                "graph does not have")
            if lid not in index:
                raise PlanError(f"{what} names {g.nodes[lid].kind} node "
                                f"{lid!r}, which is not a Dense or Conv2D "
                                "layer")
    protected = set(spec.protected) if spec.protected is not None \
        else default_protected(g)
    table = scores if spec.mode == "per-layer" \
        or scores.normalization == "layer-l2" else normalize_layer_l2(scores)

    widths = np.diff(t.start)
    score = np.zeros(len(t.gid))
    excluded = np.ones(len(t.layers), dtype=bool)  # unscored or protected
    for lid, vec in table.scores.items():
        i = index[lid]
        score[t.start[i]:t.start[i + 1]] = vec
        excluded[i] = lid in protected
    ok = t.prunable.copy()  # candidate groups
    ok[t.gid[excluded[t.layer]]] = False
    cand = ok[t.gid]  # candidate slots
    gscore = np.full(len(ok), np.inf)
    np.minimum.at(gscore, t.gid[cand], score[cand])

    if spec.mode == "per-layer":
        room = []  # floor(r * c * frac) on the widths c before earlier steps
        for lid, c, skip in zip(t.layers, widths.tolist(), excluded.tolist()):
            r, d = spec.per_layer_ratios.get(lid, spec.ratio), done.get(lid, 0)
            room.append(0 if skip
                        else max(0, int(np.floor(r * (c + d) * frac)) - d))
        target = sum(room)  # every room is 0 once this many are taken
    else:
        room = (widths - 1).tolist()  # never empty a layer
        total = int(cand.sum()) + sum(done.values())
        target = int(round(spec.threshold * total * frac)) - sum(done.values())
    gids = np.flatnonzero(ok)
    ranked = gids[np.lexsort((gids, gscore[gids]))].tolist()
    # each candidate group's (layer, slot count) pairs, by group id
    n_layers = len(t.layers)
    pairs, counts = np.unique(t.gid[cand] * n_layers + t.layer[cand],
                              return_counts=True)
    bounds = np.searchsorted(pairs // n_layers,
                             np.arange(len(ok) + 1)).tolist()
    pair_layer, counts = (pairs % n_layers).tolist(), counts.tolist()
    size = np.bincount(t.gid[cand], minlength=len(ok)).tolist()
    removed, walk = 0, []
    for gid in ranked:
        if removed >= target:
            break
        span = range(bounds[gid], bounds[gid + 1])
        if any(room[pair_layer[j]] < counts[j] for j in span):
            continue
        for j in span:
            room[pair_layer[j]] -= counts[j]
        walk.append(gid)
        removed += size[gid]
    if spec.mode == "global" and removed < target:
        raise PlanError(
            f"cannot reach threshold {spec.threshold}: only {removed} of "
            f"{target} channels removable")
    picked = np.array(walk, dtype=np.intp)
    gone = np.append(np.isin(t.gid, picked), False)  # per slot, then slot -1
    shapes, flops, params = _predict(g, t, gone)
    base = count_complexity(g)
    return PruningPlan(
        predicted_shapes=shapes, predicted_flops=flops,
        predicted_params=params,
        baseline_flops=base.flops, baseline_params=base.params,
        slots=t, gone=gone, picked=picked, picked_scores=gscore[picked])


def _predict(g: ModelGraph, t: ChannelSlots,
             gone: np.ndarray) -> tuple[dict, int, int]:
    """Shapes, FLOPs and parameters (by the ``metrics`` convention) of g
    once the slots marked in ``gone`` (per slot of the slot table t, then
    a False for slot -1) are removed, from the widths alone: as in the
    rewrite, a node keeps the channels whose slot is not removed, every
    tensor shrinks along its output-channel axis, and a weight also along
    its input's."""
    shapes = infer_shapes(g)
    width = {nid: len(s) - int(np.count_nonzero(gone[s]))
             for nid, s in t.prov.items()}  # first axis, after removals
    out_shapes, flops, params = {}, 0, 0
    for node in g.nodes.values():
        k, c, c_in = node.kind, width[node.id], width[node.inputs[0]]
        out_shapes[node.id] = (c,) + shapes[node.id][1:]
        if k == "Conv2D":
            flops += c * c_in * node.attrs["k"] ** 2 * math.prod(shapes[node.id][1:])
        elif k == "Dense":
            flops += c * c_in
        for name, t in node.params.items():
            if name == "w":
                params += c * c_in * math.prod(t.shape[2:])
            elif name not in UNCOUNTED_PARAMS:
                params += c * math.prod(t.shape[1:])
    return out_shapes, flops, params


def execute(g: ModelGraph, pruning_plan: PruningPlan) -> ModelGraph:
    """Apply the plan and verify shapes and complexity against its
    predictions. The rewrite reads the plan's own slot table and removal
    mask; a graph other than the one the plan was made for (other
    nodes, attributes or wiring) raises GraphError before any tensor is
    copied."""
    pruned = _rewrite(g, pruning_plan.slots, pruning_plan.gone)
    shapes = infer_shapes(pruned)
    if shapes != pruning_plan.predicted_shapes:
        raise ConsistencyError("post-prune shapes disagree with plan")
    measured = count_complexity(pruned)
    if (measured.flops, measured.params) != (
            pruning_plan.predicted_flops, pruning_plan.predicted_params):
        raise ConsistencyError("post-prune complexity disagrees with plan")
    return pruned


def prune_pipeline(g: ModelGraph, dataset, spec: PruningSpec,
                   finetune: TrainConfig | None = None,
                   scoring_samples=None, scoring_labels=None,
                   seed: int = 0, steps: int = 1):
    """capture -> score -> plan -> execute -> optional fine-tune.

    One-shot by default; ``steps > 1`` re-scores between pruning steps,
    step k removing up to k/steps of the spec's target counted on the
    original widths (per layer at most floor(r * c)), so the total
    removed equals the one-shot plan's.
    Returns (pruned_graph, report dict)."""
    x, y = dataset
    if scoring_samples is None:
        scoring_samples, scoring_labels = x, y
    layers = [n.id for n in g.nodes.values() if n.kind in ("Dense", "Conv2D")]
    current, done = g, {}
    for step in range(1, steps + 1):
        table = compute_scores(current, spec.criterion, scoring_samples,
                               labels=scoring_labels, seed=seed)
        current = execute(current,
                          _plan(current, table, spec, step / steps, done))
        # channels removed so far, per layer, from the widths left
        done = {lid: g.nodes[lid].attrs["out"] - current.nodes[lid].attrs["out"]
                for lid in layers}
    if finetune is not None:
        current, _ = train(current, dataset, finetune)
    base = count_complexity(g)
    final = count_complexity(current)
    report = {
        "criterion": spec.criterion,
        "removed_channels": sum(done.values()),
        "flops_before": base.flops, "flops_after": final.flops,
        "params_before": base.params, "params_after": final.params,
    }
    return current, report

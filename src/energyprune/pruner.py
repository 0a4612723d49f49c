"""Turning a ScoreTable into a PruningPlan, executing it, verifying it.

Planning works on the graph's channel-slot arrays: it scores each
removal group by its lowest member score, ranks groups, and removes the
lowest until the per-layer ratio or global threshold is met. It predicts
the pruned shapes, FLOPs and parameters from each layer's kept-channel
count, copying no tensor. Execution is the one structural rewrite, and
it cross-checks what it measures on the rewritten graph against those
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import ScoreTable, compute_scores, normalize_layer_l2
from .engine import TrainConfig, logits_node, train
from .graph import (INPUT, ModelGraph, channel_provenance, infer_shapes,
                    rewrite_remove_channels)
from .metrics import UNCOUNTED_PARAMS, count_complexity


class PlanError(ValueError):
    """Invalid pruning spec or scores that do not cover the graph."""


class ConsistencyError(RuntimeError):
    """Post-execute measurements disagree with the plan's predictions."""


@dataclass
class PruningSpec:
    mode: str = "global"  # or "per-layer"
    ratio: float = 0.0  # per-layer ratio r_l (uniform) in [0, 1)
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
    removals: list  # (ChannelGroup, aggregate score), removal order
    predicted_shapes: dict
    predicted_flops: int
    predicted_params: int
    baseline_flops: int
    baseline_params: int

    @property
    def removed_slots(self) -> set:
        slots = set()
        for grp, _ in self.removals:
            slots.update(grp.slots)
        return slots

    def n_removed_channels(self) -> int:
        return len(self.removed_slots)


def default_protected(g: ModelGraph) -> set:
    """The output classifier, plus the first conv of a conv net (the
    input stem)."""
    protected = {logits_node(g)}
    for node in g.nodes.values():
        if node.kind == "Conv2D":
            protected.add(node.id)
            break
    return protected


def _layer_counts(slots) -> dict:
    counts: dict = {}
    for lid, _ in slots:
        counts[lid] = counts.get(lid, 0) + 1
    return counts


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
    """Select removal groups by score; per-layer mode takes the
    floor(r_l * c_l) lowest channels of each layer (closed under
    grouping), global mode ranks layer-l2-normalized group scores and
    removes lowest-first until the threshold fraction is reached."""
    return _plan(g, scores, spec, 1.0, {})


def _plan(g: ModelGraph, scores: ScoreTable, spec: PruningSpec,
          frac: float, done: dict) -> PruningPlan:
    """``plan`` for step k of an iterative run, ``frac`` = k/steps. The
    targets are ``frac`` of the spec's, taken on the widths before earlier
    steps removed ``done`` (layer_id -> count) channels, which count
    toward them.

    Works on the slot table: a group's score is the lowest score of its
    slots, ties rank by group id (smallest slot first), and the
    predictions come from each layer's kept-channel count."""
    t = channel_provenance(g)
    check_score_widths(g, scores)
    for what, names in (("per-layer ratio", spec.per_layer_ratios),
                        ("protected layer", spec.protected or ())):
        for lid in names:
            if lid not in g.nodes:
                raise PlanError(f"{what} names layer {lid!r}, which the "
                                "graph does not have")
    protected = set(spec.protected) if spec.protected is not None \
        else default_protected(g)
    table = scores if spec.mode == "per-layer" \
        or scores.normalization == "layer-l2" else normalize_layer_l2(scores)

    index = {lid: i for i, lid in enumerate(t.layers)}
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
        chosen = np.zeros(len(ok), dtype=bool)
        for i in np.unique(t.layer[cand]).tolist():
            lid = t.layers[i]
            r = spec.per_layer_ratios.get(lid, spec.ratio)
            c = g.nodes[lid].attrs["out"] + done.get(lid, 0)
            k = int(np.floor(r * c * frac)) - done.get(lid, 0)
            if k <= 0:
                continue
            slots = t.start[i] + np.flatnonzero(cand[t.start[i]:t.start[i + 1]])
            ranked = slots[np.argsort(score[slots], kind="stable")]
            chosen[t.gid[ranked[:k]]] = True
        picked = np.flatnonzero(chosen)
        picked = picked[np.argsort(gscore[picked], kind="stable")]
    else:
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
        remaining = widths.tolist()
        removed, walk = 0, []
        for gid in ranked:
            if removed >= target:
                break
            span = range(bounds[gid], bounds[gid + 1])
            if any(remaining[pair_layer[j]] - counts[j] < 1 for j in span):
                continue  # never empty a layer
            for j in span:
                remaining[pair_layer[j]] -= counts[j]
            walk.append(gid)
            removed += size[gid]
        if removed < target:
            raise PlanError(
                f"cannot reach threshold {spec.threshold}: only {removed} of "
                f"{target} channels removable")
        picked = np.array(walk, dtype=np.intp)

    gone = np.isin(t.gid, picked)  # removed slots
    kept = widths - np.bincount(t.layer[gone], minlength=len(widths))
    if not kept.all():
        raise PlanError("spec would empty a layer: removal set empties layer "
                        f"{t.layers[int(np.argmin(kept))]!r}")
    shapes, flops, params = _predict(g, dict(zip(t.layers, kept.tolist())))
    base = count_complexity(g)
    return PruningPlan(
        removals=[(grp, float(gscore[grp.gid])) for grp in t.groups(picked)],
        predicted_shapes=shapes, predicted_flops=flops,
        predicted_params=params,
        baseline_flops=base.flops, baseline_params=base.params)


def _predict(g: ModelGraph, kept: dict) -> tuple[dict, int, int]:
    """Shapes, FLOPs and parameters (by the ``metrics`` convention) of g
    once each Dense/Conv2D layer keeps ``kept[layer_id]`` output
    channels, from the widths alone: as in the rewrite, every tensor
    shrinks along its output-channel axis, and a weight also along its
    input's."""
    shapes = infer_shapes(g)
    extent = {INPUT: g.input_shape[0]}  # first axis, before removals
    width = {INPUT: g.input_shape[0]}  # first axis, after
    out_shapes, flops, params = {}, 0, 0
    for node in g.nodes.values():
        k, ins = node.kind, node.inputs
        c_in = width[ins[0]]
        if k in ("Dense", "Conv2D"):
            c = kept[node.id]
        elif k == "Flatten":
            c = c_in * (shapes[node.id][0] // extent[ins[0]])
        elif k == "Concat":
            c = sum(width[s] for s in ins)
        else:  # Add and the pass-through kinds
            c = c_in
        extent[node.id], width[node.id] = shapes[node.id][0], c
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
    predictions."""
    pruned = rewrite_remove_channels(g, pruning_plan.removed_slots)
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
    original widths, so the total removed equals the one-shot plan's.
    Returns (pruned_graph, report dict)."""
    x, y = dataset
    if scoring_samples is None:
        scoring_samples, scoring_labels = x, y
    current = g
    all_removals = []
    for step in range(1, steps + 1):
        table = compute_scores(current, spec.criterion, scoring_samples,
                               labels=scoring_labels, seed=seed)
        done = _layer_counts(s for grp, _ in all_removals for s in grp.slots)
        step_plan = _plan(current, table, spec, step / steps, done)
        all_removals.extend(step_plan.removals)
        current = execute(current, step_plan)
    if finetune is not None:
        current, _ = train(current, dataset, finetune)
    base = count_complexity(g)
    final = count_complexity(current)
    report = {
        "criterion": spec.criterion,
        "removed_channels": sum(len(grp.slots) for grp, _ in all_removals),
        "flops_before": base.flops, "flops_after": final.flops,
        "params_before": base.params, "params_after": final.params,
    }
    return current, report

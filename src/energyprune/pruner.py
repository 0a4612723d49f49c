"""Turning a ScoreTable into a PruningPlan, executing it, verifying it.

Planning scores each removal group by its lowest member score, ranks
groups, and removes the lowest until the per-layer ratio or global
threshold is met. Execution delegates to the structural rewrite and
cross-checks the plan's predicted shapes and parameter counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import ScoreTable, compute_scores, normalize_layer_l2
from .engine import TrainConfig, logits_node, train
from .graph import (ModelGraph, RewriteRefusal, build_channel_groups,
                    infer_shapes, rewrite_remove_channels)
from .metrics import count_complexity


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
    """Every layer of g a score table names must be a Dense/Conv2D layer
    with one score per output channel."""
    for lid, vec in scores.scores.items():
        node = g.nodes.get(lid)
        if node is not None and len(vec) != node.attrs.get("out"):
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
    toward them."""
    groups = build_channel_groups(g)
    protected = set(spec.protected) if spec.protected is not None \
        else default_protected(g)
    order = {nid: i for i, nid in enumerate(g.nodes)}

    def sort_key(grp):
        return min((order[lid], ch) for lid, ch in grp.slots)

    candidates = []
    for grp in sorted(groups, key=sort_key):
        if not grp.prunable:
            continue
        if any(lid in protected for lid, _ in grp.slots):
            continue
        if any(lid not in scores.scores for lid, _ in grp.slots):
            continue
        candidates.append(grp)
    check_score_widths(g, scores)

    table = scores if spec.mode == "per-layer" \
        or scores.normalization == "layer-l2" else normalize_layer_l2(scores)

    def group_score(grp):
        return min(table.get(lid, ch) for lid, ch in grp.slots)

    selected: list = []
    if spec.mode == "per-layer":
        chosen_groups: dict = {}
        by_layer: dict = {}
        for grp in candidates:
            for lid, ch in grp.slots:
                by_layer.setdefault(lid, []).append((ch, grp))
        for lid, entries in by_layer.items():
            r = spec.per_layer_ratios.get(lid, spec.ratio)
            c = g.nodes[lid].attrs["out"] + done.get(lid, 0)
            k = int(np.floor(r * c * frac)) - done.get(lid, 0)
            if k <= 0:
                continue
            entries = sorted(entries, key=lambda e: e[0])
            ranked = sorted(entries, key=lambda e: table.get(lid, e[0]))
            for ch, grp in ranked[:k]:
                chosen_groups[grp.gid] = grp
        selected = [(grp, group_score(grp))
                    for grp in sorted(chosen_groups.values(), key=sort_key)]
        selected.sort(key=lambda e: e[1])
    else:
        total = sum(len(grp.slots) for grp in candidates) + sum(done.values())
        target = int(round(spec.threshold * total * frac)) - sum(done.values())
        ranked = sorted(
            ((grp, group_score(grp)) for grp in candidates),
            key=lambda e: (e[1], sort_key(e[0])))
        remaining = {lid: g.nodes[lid].attrs["out"]
                     for lid in {s[0] for grp in candidates for s in grp.slots}}
        removed = 0
        for grp, score in ranked:
            if removed >= target:
                break
            counts = _layer_counts(grp.slots)
            if any(remaining[lid] - n < 1 for lid, n in counts.items()):
                continue  # never empty a layer
            for lid, n in counts.items():
                remaining[lid] -= n
            selected.append((grp, score))
            removed += len(grp.slots)
        if removed < target:
            raise PlanError(
                f"cannot reach threshold {spec.threshold}: only {removed} of "
                f"{target} channels removable")

    try:
        scratch = rewrite_remove_channels(
            g, (s for grp, _ in selected for s in grp.slots))
    except RewriteRefusal as exc:
        raise PlanError(f"spec would empty a layer: {exc}") from exc
    base = count_complexity(g)
    pred = count_complexity(scratch)
    return PruningPlan(
        removals=selected,
        predicted_shapes=infer_shapes(scratch),
        predicted_flops=pred.flops, predicted_params=pred.params,
        baseline_flops=base.flops, baseline_params=base.params)


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

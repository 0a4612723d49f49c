"""Complexity accounting, accuracy evaluation, and rank stability.

FLOPs use the 1 MAC = 1 FLOP convention over conv and dense layers only;
BN, activations and pooling count as zero. This is the convention that
reproduces the published baseline figures for the reference
architectures. Parameter counts cover trainable tensors (conv/dense
weights and biases, BN gamma/beta); BN running statistics are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import ModelGraph, infer_shapes

FLOPS_CONVENTION = "1 MAC = 1 FLOP; conv+dense only"
UNCOUNTED_PARAMS = ("mean", "var")  # BatchNorm running statistics


@dataclass
class ComplexityReport:
    flops: int
    params: int
    per_layer: dict = field(default_factory=dict)  # id -> (flops, params)
    convention: str = FLOPS_CONVENTION

    def reduction_vs(self, reference: "ComplexityReport") -> tuple[float, float]:
        """(flops %, params %) removed relative to the reference."""
        fl = 100.0 * (1.0 - self.flops / reference.flops)
        pa = 100.0 * (1.0 - self.params / reference.params)
        return fl, pa


def _param_count(node) -> int:
    return sum(int(arr.size) for name, arr in node.params.items()
               if name not in UNCOUNTED_PARAMS)


def count_complexity(g: ModelGraph) -> ComplexityReport:
    shapes = infer_shapes(g)
    per_layer = {}
    for node in g.nodes.values():
        params = _param_count(node)
        flops = 0
        if node.kind == "Conv2D":
            _, ho, wo = shapes[node.id]
            flops = node.attrs["out"] * node.attrs["in"] * node.attrs["k"] ** 2 * ho * wo
        elif node.kind == "Dense":
            flops = node.attrs["in"] * node.attrs["out"]
        per_layer[node.id] = (flops, params)
    total_f = sum(f for f, _ in per_layer.values())
    total_p = sum(p for _, p in per_layer.values())
    return ComplexityReport(flops=total_f, params=total_p, per_layer=per_layer)


EVAL_BATCH = 512


def evaluate(g: ModelGraph, dataset) -> float:
    """Top-1 accuracy in eval mode, in batches of ``EVAL_BATCH``. Argmax
    ties break toward the lowest class index."""
    from .engine import forward, logits_node

    x, y = dataset
    if len(x) == 0:
        raise ValueError("empty dataset")
    lid = logits_node(g)
    hits = 0
    for i in range(0, len(x), EVAL_BATCH):
        logits = forward(g, x[i:i + EVAL_BATCH]).activations[lid]
        hits += int(np.sum(np.argmax(logits, axis=1) == y[i:i + EVAL_BATCH]))
    return hits / len(x)


# --- Kendall tau distance ----------------------------------------------

def kendall_distance(tau1, tau2) -> float:
    """Normalized pairwise-order disagreement between two rankings of
    the same ids: 0 for identical order, 1 for full reversal."""
    tau1 = list(tau1)
    tau2 = list(tau2)
    n = len(tau1)
    if n < 2:
        raise ValueError("rankings need at least two elements")
    if set(tau1) != set(tau2) or len(set(tau1)) != n:
        raise ValueError("rankings must be permutations of the same ids")
    pos2 = {x: i for i, x in enumerate(tau2)}
    order = np.array([pos2[x] for x in tau1])
    disagree = 0
    for j in range(n - 1):
        disagree += int(np.sum(order[j + 1:] < order[j]))
    return 2.0 * disagree / (n * (n - 1))


def ranking_from_scores(scores: np.ndarray):
    """Channel ids ordered by decreasing score; ties keep index order."""
    return list(np.argsort(-np.asarray(scores), kind="stable"))


# --- rank stability over data quantity ----------------------------------

def select_stability_layers(g: ModelGraph, n_layers: int = 4) -> list[str]:
    """Evenly spaced prunable layers (4 by default)."""
    from .criteria import scored_layers

    layers = scored_layers(g)
    if len(layers) <= n_layers:
        return layers
    idx = np.round(np.linspace(0, len(layers) - 1, n_layers)).astype(int)
    return [layers[i] for i in sorted(set(idx))]


def stability_curve(g: ModelGraph, samples: np.ndarray, criterion: str,
                    batch_sizes, seed: int = 0, labels=None):
    """Kendall distance between the rankings from nested sample subsets
    of consecutive sizes, on the ``select_stability_layers`` layers.

    Subsets are nested (the size-B set is a prefix of the size-2B set)
    and seed-deterministic. Returns rows
    (size_small, size_large, layer_id, distance)."""
    from .criteria import compute_scores
    from .linalg import make_rng

    sizes = sorted(int(b) for b in batch_sizes)
    if sizes[-1] > len(samples):
        raise ValueError("largest batch size exceeds the sample pool")
    layers = select_stability_layers(g)
    perm = make_rng(seed).permutation(len(samples))
    tables = {}
    for b in sizes:
        idx = perm[:b]
        tables[b] = compute_scores(
            g, criterion, samples[idx],
            labels=None if labels is None else labels[idx], seed=seed)
    rows = []
    for small, large in zip(sizes, sizes[1:]):
        for lid in layers:
            r1 = ranking_from_scores(tables[small].scores[lid])
            r2 = ranking_from_scores(tables[large].scores[lid])
            rows.append((small, large, lid, kendall_distance(r1, r2)))
    return rows

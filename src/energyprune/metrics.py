"""Complexity accounting and rank math.

FLOPs use the 1 MAC = 1 FLOP convention over conv and dense layers only;
BN, activations and pooling count as zero. This is the convention that
reproduces the published baseline figures for the reference
architectures. Parameter counts cover trainable tensors (conv/dense
weights and biases, BN gamma/beta); BN running statistics are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import scored_layers
from .engine import evaluate  # re-exported: the one evaluator lives in engine
from .graph import ModelGraph, infer_shapes

FLOPS_CONVENTION = "1 MAC = 1 FLOP; conv+dense only"
UNCOUNTED_PARAMS = ("mean", "var")  # BatchNorm running statistics


@dataclass
class ComplexityReport:
    flops: int
    params: int
    per_layer: dict = field(default_factory=dict)  # id -> (flops, params)

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


# --- Kendall tau distance ----------------------------------------------

def kendall_distance(tau1, tau2) -> float:
    """Normalized pairwise-order disagreement between two rankings of
    the same ids: 0 for identical order, 1 for full reversal."""
    tau1, tau2 = list(tau1), list(tau2)
    n = len(tau1)
    if n < 2:
        raise ValueError("rankings need at least two elements")
    if set(tau1) != set(tau2) or len(set(tau1)) != n:
        raise ValueError("rankings must be permutations of the same ids")
    pos2 = {x: i for i, x in enumerate(tau2)}
    order = np.array([pos2[x] for x in tau1])
    # pairs i < j that tau2 puts in the other order
    disagree = np.count_nonzero(np.triu(order[:, None] > order, 1))
    return 2.0 * disagree / (n * (n - 1))


def ranking_from_scores(scores: np.ndarray):
    """Channel ids ordered by decreasing score; ties keep index order."""
    return list(np.argsort(-np.asarray(scores), kind="stable"))


def layer_distances(a, b, layers) -> list[float]:
    """Per layer of ``layers``, the Kendall distance between the rankings
    the score tables a and b give its channels."""
    return [kendall_distance(ranking_from_scores(a.scores[lid]),
                             ranking_from_scores(b.scores[lid]))
            for lid in layers]


# --- rank stability over data quantity ----------------------------------

STABILITY_LAYERS = 4


def select_stability_layers(g: ModelGraph) -> list[str]:
    """``STABILITY_LAYERS`` evenly spaced prunable layers."""
    layers = scored_layers(g)
    if len(layers) <= STABILITY_LAYERS:
        return layers
    idx = np.round(np.linspace(0, len(layers) - 1,
                               STABILITY_LAYERS)).astype(int)
    return [layers[i] for i in sorted(set(idx))]

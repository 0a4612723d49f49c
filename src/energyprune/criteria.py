"""Per-channel importance criteria.

The energy criterion scores a channel by the nuclear norm of its
matricized feature maps; the four baselines (weight, gradient, Taylor,
LRP) share the same ScoreTable layout so they are interchangeable
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (ActivationRecord, GradientRecord, capture_activations,
                     capture_points, forward, logits_node)
from .graph import INPUT, ModelGraph
from .linalg import DomainError, nuclear_norms

CRITERIA = ("nuclear", "weight", "gradient", "taylor", "lrp")


class UnsupportedGraph(ValueError):
    """Criterion cannot be applied to this graph (e.g. LRP on convs)."""


@dataclass
class ScoreTable:
    criterion: str
    scores: dict = field(default_factory=dict)  # layer_id -> (C,) array
    n_samples: int = 0
    seed: int = 0
    normalization: str = "raw"  # or "layer-l2"

    def get(self, layer_id: str, channel: int) -> float:
        return float(self.scores[layer_id][channel])

    def validate(self):
        for lid, vec in self.scores.items():
            if not np.all(np.isfinite(vec)):
                raise DomainError(f"non-finite scores for layer {lid!r}")
            if np.any(vec < 0):
                raise ValueError(f"negative scores for layer {lid!r}")
        return self


def scored_layers(g: ModelGraph) -> list[str]:
    """Prunable layers a criterion scores: every capture-point producer."""
    return [prod for _, prod in capture_points(g)]


def _nuclear_channel_scores(rec: ActivationRecord) -> np.ndarray:
    """One layer's channel matrices scored as one (C, N, h*w) stack."""
    stack = rec.channel_stack()
    if stack.shape[2] == 1:
        # nuclear norm of an N x 1 matrix is its Euclidean norm
        return np.array([float(np.linalg.norm(a)) for a in stack])
    return nuclear_norms(stack)


def score_nuclear(records: list[ActivationRecord], seed: int = 0) -> ScoreTable:
    """Energy scores: per channel, nuclear norm of the N x (h*w) matrix
    stacking its map from every sample."""
    if not records:
        raise ValueError("no activation records")
    table = ScoreTable(criterion="nuclear", seed=seed,
                       n_samples=records[0].n_samples)
    for rec in records:
        if rec.n_samples < 1:
            raise ValueError(f"empty record for {rec.layer_id!r}")
        table.scores[rec.layer_id] = _nuclear_channel_scores(rec)
    return table.validate()


def score_weight(g: ModelGraph) -> ScoreTable:
    """L1 magnitude: sum |w| over each channel's kernel slice (conv) or
    incoming row (dense)."""
    table = ScoreTable(criterion="weight")
    for lid in scored_layers(g):
        w = g.nodes[lid].params["w"]
        table.scores[lid] = np.abs(w).reshape(w.shape[0], -1).sum(axis=1)
    return table.validate()


def _grad_pairs(records, grads):
    by_layer = {r.layer_id: r for r in records}
    for gr in grads:
        yield by_layer[gr.layer_id], gr


def score_gradient(records: list[ActivationRecord],
                   grads: list[GradientRecord]) -> ScoreTable:
    """Mean absolute loss gradient at the capture point, summed over
    spatial positions."""
    table = ScoreTable(criterion="gradient",
                       n_samples=records[0].n_samples if records else 0)
    for rec, gr in _grad_pairs(records, grads):
        v = np.abs(gr.values)
        table.scores[rec.layer_id] = v.reshape(v.shape[0], v.shape[1], -1).sum(axis=(0, 2))
    return table.validate()


def score_taylor(records: list[ActivationRecord],
                 grads: list[GradientRecord]) -> ScoreTable:
    """First-order Taylor: absolute mean of activation times gradient."""
    table = ScoreTable(criterion="taylor",
                       n_samples=records[0].n_samples if records else 0)
    for rec, gr in _grad_pairs(records, grads):
        prod = rec.values * gr.values
        table.scores[rec.layer_id] = np.abs(
            prod.reshape(prod.shape[0], prod.shape[1], -1).sum(axis=(0, 2)))
    return table.validate()


LRP_EPS = 1e-6


def _dense_chain(g: ModelGraph) -> list:
    """The graph as a linear chain of nodes; raises if it is not an MLP
    built from Dense/ReLU/Dropout/Softmax/Flatten."""
    chain = []
    allowed = {"Dense", "ReLU", "Dropout", "Softmax", "Flatten"}
    for node in g.nodes.values():
        if node.kind not in allowed:
            raise UnsupportedGraph(
                f"LRP supports dense-only MLPs; found {node.kind} node {node.id!r}")
        if len(node.inputs) != 1:
            raise UnsupportedGraph("LRP needs a chain-structured MLP")
        chain.append(node)
    for prev, nxt in zip(chain, chain[1:]):
        if nxt.inputs[0] != prev.id:
            raise UnsupportedGraph("LRP needs a chain-structured MLP")
    if chain and chain[0].inputs[0] != INPUT:
        raise UnsupportedGraph("LRP needs a chain starting at the input")
    return chain


def lrp_relevances(g: ModelGraph, samples: np.ndarray) -> dict:
    """Epsilon-rule relevance at every Dense output, per sample.

    Relevance starts at the winning logit and flows backward with
    z-denominators stabilized by eps * sign(z)."""
    chain = _dense_chain(g)
    fwd = forward(g, samples, mode="eval")
    lid = logits_node(g)
    logits = fwd.activations[lid]
    n = samples.shape[0]
    rel = np.zeros_like(logits)
    rel[np.arange(n), np.argmax(logits, axis=1)] = logits[np.arange(n), np.argmax(logits, axis=1)]

    out: dict = {}
    current = rel  # relevance at the output of the node being visited
    for node in reversed(chain):
        if node.kind == "Dense":
            out[node.id] = current
            a = samples if node.inputs[0] == INPUT else fwd.activations[node.inputs[0]]
            z = fwd.activations[node.id]
            denom = np.where(z >= 0, z + LRP_EPS, z - LRP_EPS)
            current = a * ((current / denom) @ node.params["w"])
        # ReLU/Dropout(eval)/Softmax/Flatten pass relevance through
    return out


def score_lrp(g: ModelGraph, samples: np.ndarray, seed: int = 0) -> ScoreTable:
    """LRP baseline: neuron score is the magnitude of its summed
    relevance over the sample set. Dense-only MLPs."""
    rel = lrp_relevances(g, samples)
    lid = logits_node(g)
    table = ScoreTable(criterion="lrp", n_samples=samples.shape[0], seed=seed)
    for layer in scored_layers(g):
        if layer == lid:
            continue
        table.scores[layer] = np.abs(rel[layer].sum(axis=0))
    return table.validate()


def normalize_layer_l2(table: ScoreTable) -> ScoreTable:
    """Each layer's score vector divided by its Euclidean norm; an
    all-zero layer is left unchanged. When the norm overflows, the
    vector is first divided by its largest magnitude."""
    scores = {}
    for lid, vec in table.scores.items():
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if not np.isfinite(norm):
            vec = vec / np.max(np.abs(vec))
            norm = float(np.linalg.norm(vec))
        scores[lid] = vec / norm if norm > 0 else vec.copy()
    return replace(table, scores=scores, normalization="layer-l2")


def compute_scores(g: ModelGraph, criterion: str, samples: np.ndarray,
                   labels: np.ndarray | None = None, seed: int = 0) -> ScoreTable:
    """Dispatch: capture whatever the criterion needs and score."""
    if criterion == "nuclear":
        records = capture_activations(g, samples, seed=seed)
        return score_nuclear(records, seed=seed)
    if criterion == "weight":
        return score_weight(g)
    if criterion in ("gradient", "taylor"):
        if labels is None:
            raise ValueError(f"{criterion} scoring needs labels")
        records, grads = capture_activations(g, samples, labels=labels,
                                             want_grads=True, seed=seed)
        fn = score_gradient if criterion == "gradient" else score_taylor
        table = fn(records, grads)
        table.seed = seed
        return table
    if criterion == "lrp":
        return score_lrp(g, samples, seed=seed)
    raise ValueError(f"unknown criterion {criterion!r}")

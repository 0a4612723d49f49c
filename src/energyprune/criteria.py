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
from .linalg import DomainError, _pow2_scale, nuclear_norms

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


def score_nuclear(records, seed: int = 0) -> ScoreTable:
    """Energy scores: per channel, nuclear norm of the N x (h*w) matrix
    stacking its map from every sample. ``records`` is any iterable of
    ActivationRecords, scored one at a time in order."""
    table = ScoreTable(criterion="nuclear", seed=seed)
    for rec in records:
        if rec.n_samples < 1:
            raise ValueError(f"empty record for {rec.layer_id!r}")
        table.n_samples = rec.n_samples
        table.scores[rec.layer_id] = nuclear_norms(rec.channel_stack())
    if not table.scores:
        raise ValueError("no activation records")
    return table.validate()


def _drain(items: list):
    """Yields the items of a list front to back, removing each from the
    list, so an item is freed once its consumer moves on."""
    items.reverse()
    while items:
        yield items.pop()


# Bytes of |w| that score_weight holds at a time: whole rows, reused
# from block to block and layer to layer.
_WEIGHT_BLOCK_BYTES = 256 * 1024


def score_weight(g: ModelGraph) -> ScoreTable:
    """L1 magnitude: sum |w| over each channel's kernel slice (conv) or
    incoming row (dense).

    The rows run in blocks through one buffer of ``_WEIGHT_BLOCK_BYTES``,
    so no temporary the size of a layer is made; a row wider than the
    buffer gets one of its own. Each row is still one contiguous sum, so
    the scores are those of ``np.abs(w).reshape(C, -1).sum(axis=1)``."""
    table = ScoreTable(criterion="weight")
    buf = np.empty(_WEIGHT_BLOCK_BYTES // 8)
    for lid in scored_layers(g):
        w = g.nodes[lid].params["w"]
        rows = w.reshape(w.shape[0], -1)
        step = max(1, buf.size // rows.shape[1])
        scores = np.empty(rows.shape[0])
        for i in range(0, rows.shape[0], step):
            part = rows[i:i + step]
            absval = np.abs(part, out=buf[:part.size].reshape(part.shape)) \
                if part.size <= buf.size else np.abs(part)
            np.add.reduce(absval, axis=1, out=scores[i:i + step])
        table.scores[lid] = scores
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
    lid = logits_node(g)
    dense = [node for node in chain if node.kind == "Dense"]
    fwd = forward(g, samples, mode="eval",
                  keep=[lid] + [n.id for n in dense] + [n.inputs[0] for n in dense])
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
    table = ScoreTable(criterion="lrp", n_samples=samples.shape[0], seed=seed)
    for layer in scored_layers(g):
        table.scores[layer] = np.abs(rel[layer].sum(axis=0))
    return table.validate()


def normalize_layer_l2(table: ScoreTable) -> ScoreTable:
    """Each layer's score vector divided by its Euclidean norm; an
    all-zero layer is left unchanged. The vector is first scaled by
    ``linalg._pow2_scale``, so its norm neither overflows nor underflows
    and, where the unscaled norm would not, the bits are the unscaled
    ``vec / np.linalg.norm(vec)``."""
    scores = {}
    for lid, vec in table.scores.items():
        vec = vec * _pow2_scale(float(np.max(np.abs(vec), initial=0.0)))
        norm = float(np.linalg.norm(vec))
        scores[lid] = vec / norm if norm > 0 else vec
    return replace(table, scores=scores, normalization="layer-l2")


def compute_scores(g: ModelGraph, criterion: str, samples: np.ndarray,
                   labels: np.ndarray | None = None, seed: int = 0) -> ScoreTable:
    """Dispatch: capture whatever the criterion needs and score."""
    if criterion == "nuclear":
        # each layer's record is released once it is scored; at paper
        # scale the records are most of the memory
        records = capture_activations(g, samples, seed=seed)
        return score_nuclear(_drain(records), seed=seed)
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

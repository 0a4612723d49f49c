"""Shared utilities for the test suite.

Provides tiny per-layer-kind graphs for gradient checking, a central
finite-difference checker, a numpy eigendecomposition oracle for
singular values (the production code never calls numpy's SVD/eigh; the
oracle exists only so tests can cross-check the hand-written kernels),
a scatter-based reference for the Conv2D input gradient, and a
union-find reference planner for the array-based one.
"""

from __future__ import annotations

import numpy as np

from energyprune.criteria import normalize_layer_l2
from energyprune.engine import (_scatter_windows, cross_entropy, forward,
                                backward, init_params, logits_node)
from energyprune.graph import (INPUT, PASSTHROUGH, LayerNode, ModelGraph,
                               RewriteRefusal, infer_shapes,
                               rewrite_remove_channels)
from energyprune.linalg import make_rng
from energyprune.metrics import count_complexity
from energyprune.pruner import PlanError, check_score_widths, default_protected


# --- eigendecomposition oracle -------------------------------------------

def oracle_singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a via eigvalsh of the Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    ev = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(ev, 0.0, None))[::-1]


def oracle_nuclear_norm(a: np.ndarray) -> float:
    return float(np.sum(oracle_singular_values(a)))


# --- tiny graphs, one per layer kind -------------------------------------

def _dense(g, nid, src, n_in, n_out):
    return g.add(LayerNode(nid, "Dense", {"in": n_in, "out": n_out},
                           {"w": np.zeros((n_out, n_in)),
                            "b": np.zeros(n_out)}, [src]))


def _conv(g, nid, src, c_in, c_out, k=3, stride=1, pad=1, bias=True):
    params = {"w": np.zeros((c_out, c_in, k, k))}
    if bias:
        params["b"] = np.zeros(c_out)
    return g.add(LayerNode(nid, "Conv2D",
                           {"in": c_in, "out": c_out, "k": k,
                            "stride": stride, "pad": pad,
                            "no_bias": not bias}, params, [src]))


def _bn(g, nid, src, c):
    return g.add(LayerNode(nid, "BatchNorm", {"channels": c, "eps": 1e-5},
                           {"gamma": np.ones(c), "beta": np.zeros(c),
                            "mean": np.zeros(c), "var": np.ones(c)}, [src]))


def _op(g, nid, kind, src, **attrs):
    srcs = src if isinstance(src, list) else [src]
    return g.add(LayerNode(nid, kind, attrs, {}, srcs))


def _finish(g, seed, n=4, classes=3):
    """Init params and draw a matching random batch."""
    init_params(g, seed)
    rng = make_rng(seed + 17)
    x = rng.normal(size=(n,) + g.input_shape)
    y = rng.integers(0, classes, size=n)
    return g, x, y


def graph_dense(seed, width=7):
    g = ModelGraph((5,))
    _dense(g, "h", INPUT, 5, width)
    _op(g, "r", "ReLU", "h")
    _dense(g, "out", "r", width, 3)
    return _finish(g, seed)


def graph_conv(seed, cfg=0):
    k, stride, pad, bias = [(3, 1, 1, True), (3, 2, 1, False),
                            (1, 1, 0, True)][cfg % 3]
    g = ModelGraph((2, 5, 5))
    _conv(g, "c", INPUT, 2, 4, k=k, stride=stride, pad=pad, bias=bias)
    _op(g, "gap", "GlobalAvgPool", "c")
    _dense(g, "out", "gap", 4, 3)
    return _finish(g, seed)


def graph_batchnorm(seed, cfg=0):
    # no ReLU after the BN: normalized activations cluster around zero,
    # so a ReLU here would put kinks inside the difference stencil
    g = ModelGraph((2, 4, 4))
    _conv(g, "c", INPUT, 2, 3 + cfg % 2)
    _bn(g, "bn", "c", 3 + cfg % 2)
    _op(g, "gap", "GlobalAvgPool", "bn")
    _dense(g, "out", "gap", 3 + cfg % 2, 3)
    return _finish(g, seed)


def graph_relu(seed, width=6):
    g = ModelGraph((4,))
    _dense(g, "h", INPUT, 4, width)
    _op(g, "r", "ReLU", "h")
    _dense(g, "out", "r", width, 3)
    return _finish(g, seed)


def graph_maxpool(seed, cfg=0):
    k, stride, pad = [(2, 2, 0), (3, 1, 1), (2, 1, 0)][cfg % 3]
    g = ModelGraph((2, 6, 6))
    _conv(g, "c", INPUT, 2, 3)
    _op(g, "p", "MaxPool", "c", k=k, stride=stride, pad=pad)
    _op(g, "gap", "GlobalAvgPool", "p")
    _dense(g, "out", "gap", 3, 3)
    return _finish(g, seed)


def graph_avgpool(seed, cfg=0):
    k, stride, pad = [(2, 2, 0), (3, 1, 1), (2, 1, 0)][cfg % 3]
    g = ModelGraph((2, 6, 6))
    _conv(g, "c", INPUT, 2, 3)
    _op(g, "p", "AvgPool", "c", k=k, stride=stride, pad=pad)
    _op(g, "gap", "GlobalAvgPool", "p")
    _dense(g, "out", "gap", 3, 3)
    return _finish(g, seed)


def graph_gap(seed, cfg=0):
    g = ModelGraph((2, 4 + cfg % 2, 4))
    _conv(g, "c", INPUT, 2, 4)
    _op(g, "gap", "GlobalAvgPool", "c")
    _dense(g, "out", "gap", 4, 3)
    return _finish(g, seed)


def graph_flatten(seed, cfg=0):
    g = ModelGraph((2, 4, 4))
    _conv(g, "c", INPUT, 2, 2 + cfg % 2)
    _op(g, "f", "Flatten", "c")
    _dense(g, "out", "f", (2 + cfg % 2) * 16, 3)
    return _finish(g, seed)


def graph_dropout(seed, cfg=0):
    g = ModelGraph((4,))
    _dense(g, "h", INPUT, 4, 8)
    _op(g, "r", "ReLU", "h")
    _op(g, "d", "Dropout", "r", p=[0.25, 0.5, 0.0][cfg % 3])
    _dense(g, "out", "d", 8, 3)
    return _finish(g, seed)


def graph_add(seed, cfg=0):
    g = ModelGraph((2, 4, 4))
    _conv(g, "a", INPUT, 2, 3)
    _conv(g, "b", INPUT, 2, 3, k=1, pad=0)
    _op(g, "add", "Add", ["a", "b"])
    _op(g, "gap", "GlobalAvgPool", "add")
    _dense(g, "out", "gap", 3, 3)
    return _finish(g, seed)


def graph_concat(seed, cfg=0):
    g = ModelGraph((2, 4, 4))
    _conv(g, "a", INPUT, 2, 2)
    _conv(g, "b", INPUT, 2, 3, k=1, pad=0)
    _op(g, "cat", "Concat", ["a", "b"], axis=1)
    _op(g, "gap", "GlobalAvgPool", "cat")
    _dense(g, "out", "gap", 5, 3)
    return _finish(g, seed)


def graph_softmax(seed, cfg=0):
    # mid-graph Softmax so its backward rule is exercised by the loss
    g = ModelGraph((4,))
    _dense(g, "h", INPUT, 4, 6)
    _op(g, "sm", "Softmax", "h")
    _dense(g, "out", "sm", 6, 3)
    return _finish(g, seed)


# Three configurations per kind. Seeds were checked to keep the central
# difference stencil clear of ReLU/MaxPool kinks at h=1e-5.
KIND_CONFIGS = {
    "Dense": [lambda: graph_dense(1), lambda: graph_dense(2, width=3),
              lambda: graph_dense(3, width=11)],
    "Conv2D": [lambda: graph_conv(4, 0), lambda: graph_conv(5, 1),
               lambda: graph_conv(6, 2)],
    "BatchNorm": [lambda: graph_batchnorm(7, 0), lambda: graph_batchnorm(8, 1),
                  lambda: graph_batchnorm(9, 0)],
    "ReLU": [lambda: graph_relu(10), lambda: graph_relu(11, width=4),
             lambda: graph_relu(12, width=9)],
    "MaxPool": [lambda: graph_maxpool(13, 0), lambda: graph_maxpool(14, 1),
                lambda: graph_maxpool(15, 2)],
    "AvgPool": [lambda: graph_avgpool(16, 0), lambda: graph_avgpool(17, 1),
                lambda: graph_avgpool(18, 2)],
    "GlobalAvgPool": [lambda: graph_gap(19, 0), lambda: graph_gap(20, 1),
                      lambda: graph_gap(21, 0)],
    "Flatten": [lambda: graph_flatten(22, 0), lambda: graph_flatten(23, 1),
                lambda: graph_flatten(24, 0)],
    "Dropout": [lambda: graph_dropout(25, 0), lambda: graph_dropout(26, 1),
                lambda: graph_dropout(27, 2)],
    "Add": [lambda: graph_add(28), lambda: graph_add(29),
            lambda: graph_add(30)],
    "Concat": [lambda: graph_concat(31), lambda: graph_concat(32),
               lambda: graph_concat(33)],
    "Softmax": [lambda: graph_softmax(34), lambda: graph_softmax(35),
                lambda: graph_softmax(36)],
}


def _loss(g, x, y, mode, seed):
    fwd = forward(g, x, mode=mode, seed=seed)
    return cross_entropy(fwd.activations[logits_node(g)], y)


def fd_max_rel_err(g, x, y, mode="train", seed=0, h=1e-5):
    """Worst per-tensor relative error between analytic and central
    finite-difference gradients over every trainable parameter."""
    _, pgrads, _, _ = backward(g, x, y, mode=mode, seed=seed)
    worst = 0.0
    for nid, name, arr in g.parameters():
        if name in ("mean", "var"):
            continue
        analytic = pgrads.get((nid, name))
        if analytic is None:
            continue
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = _loss(g, x, y, mode, seed)
            flat[i] = orig - h
            lm = _loss(g, x, y, mode, seed)
            flat[i] = orig
            nflat[i] = (lp - lm) / (2 * h)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
        worst = max(worst, np.linalg.norm(analytic - numeric) / denom)
    return worst


# --- reference conv input gradient -----------------------------------------

def reference_conv_input_grad(grad, w, x_shape, stride, pad):
    """The Conv2D input gradient as the engine computed it before it
    became one GEMM over the dilated gradient: the transposed kernel maps
    each output position's gradient to its k x k window, and the windows
    are summed back onto the input one kernel offset at a time."""
    n, cout, ho, wo = grad.shape
    gwin = (w.reshape(cout, -1).T @ grad.reshape(n, cout, ho * wo)) \
        .reshape((n,) + w.shape[1:] + (ho, wo))
    return _scatter_windows(gwin, x_shape, stride, pad)


# --- reference planner ------------------------------------------------------
# The union-find grouping and the per-group planner as they were before
# channel groups and ranking moved onto slot arrays. They are slow and
# obviously right, which makes them the oracle for the array code, the
# way finite differences are for the engine's gradients.

class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def reference_channel_groups(g):
    """(gid, slots, prunable) per group: union-find over the (layer_id,
    channel) slots an Add ties, numbered in the order of each root."""
    shapes = infer_shapes(g)
    uf = _UnionFind()
    frozen: set = set()
    prov: dict = {INPUT: [None] * g.input_shape[0]}
    for node in g.nodes.values():
        k = node.kind
        if k in ("Dense", "Conv2D"):
            slots = [(node.id, i) for i in range(node.attrs["out"])]
            for s in slots:
                uf.add(s)
            prov[node.id] = slots
        elif k in PASSTHROUGH:
            prov[node.id] = prov[node.inputs[0]]
        elif k == "Flatten":
            prov[node.id] = [None] * shapes[node.id][0]
        elif k == "Add":
            merged = []
            for members in zip(*(prov[s] for s in node.inputs)):
                real = [m for m in members if m is not None]
                for a, b in zip(real, real[1:]):
                    uf.union(a, b)
                if real and len(real) != len(members):
                    frozen.update(real)
                merged.append(real[0] if real else None)
            prov[node.id] = merged
        else:  # Concat
            prov[node.id] = [s for src in node.inputs for s in prov[src]]
    frozen_roots = {uf.find(s) for s in frozen}
    buckets: dict = {}
    for slot in uf.parent:
        buckets.setdefault(uf.find(slot), []).append(slot)
    order = {nid: i for i, nid in enumerate(g.nodes)}
    roots = sorted(buckets, key=lambda s: (order[s[0]], s[1]))
    return [(gid, frozenset(buckets[root]), root not in frozen_roots)
            for gid, root in enumerate(roots)]


def reference_plan(g, scores, spec, frac=1.0, done=None):
    """What ``pruner._plan(g, scores, spec, frac, done)`` returns, with
    removals as (gid, slots, score) and the predictions taken from a
    rewrite of g: (removals, predicted_shapes, predicted_flops,
    predicted_params, baseline_flops, baseline_params)."""
    done = done or {}
    groups = reference_channel_groups(g)
    protected = set(spec.protected) if spec.protected is not None \
        else default_protected(g)
    order = {nid: i for i, nid in enumerate(g.nodes)}

    def sort_key(grp):
        return min((order[lid], ch) for lid, ch in grp[1])

    candidates = [grp for grp in sorted(groups, key=sort_key)
                  if grp[2]
                  and not any(lid in protected for lid, _ in grp[1])
                  and all(lid in scores.scores for lid, _ in grp[1])]
    check_score_widths(g, scores)
    table = scores if spec.mode == "per-layer" \
        or scores.normalization == "layer-l2" else normalize_layer_l2(scores)

    def group_score(grp):
        return min(table.get(lid, ch) for lid, ch in grp[1])

    selected = []
    if spec.mode == "per-layer":
        chosen: dict = {}
        by_layer: dict = {}
        for grp in candidates:
            for lid, ch in grp[1]:
                by_layer.setdefault(lid, []).append((ch, grp))
        for lid, entries in by_layer.items():
            r = spec.per_layer_ratios.get(lid, spec.ratio)
            c = g.nodes[lid].attrs["out"] + done.get(lid, 0)
            k = int(np.floor(r * c * frac)) - done.get(lid, 0)
            if k <= 0:
                continue
            entries = sorted(entries, key=lambda e: e[0])
            ranked = sorted(entries, key=lambda e: table.get(lid, e[0]))
            for _, grp in ranked[:k]:
                chosen[grp[0]] = grp
        selected = [(grp, group_score(grp))
                    for grp in sorted(chosen.values(), key=sort_key)]
        selected.sort(key=lambda e: e[1])
    else:
        total = sum(len(grp[1]) for grp in candidates) + sum(done.values())
        target = int(round(spec.threshold * total * frac)) \
            - sum(done.values())
        ranked = sorted(((grp, group_score(grp)) for grp in candidates),
                        key=lambda e: (e[1], sort_key(e[0])))
        remaining = {lid: g.nodes[lid].attrs["out"]
                     for grp in candidates for lid, _ in grp[1]}
        removed = 0
        for grp, score in ranked:
            if removed >= target:
                break
            counts: dict = {}
            for lid, _ in grp[1]:
                counts[lid] = counts.get(lid, 0) + 1
            if any(remaining[lid] - n < 1 for lid, n in counts.items()):
                continue
            for lid, n in counts.items():
                remaining[lid] -= n
            selected.append((grp, score))
            removed += len(grp[1])
        if removed < target:
            raise PlanError(
                f"cannot reach threshold {spec.threshold}: only {removed} of "
                f"{target} channels removable")
    try:
        scratch = rewrite_remove_channels(
            g, (s for grp, _ in selected for s in grp[1]))
    except RewriteRefusal as exc:
        raise PlanError(f"spec would empty a layer: {exc}") from exc
    base, pred = count_complexity(g), count_complexity(scratch)
    return ([(grp[0], grp[1], score) for grp, score in selected],
            infer_shapes(scratch), pred.flops, pred.params,
            base.flops, base.params)

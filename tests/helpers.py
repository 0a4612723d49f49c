"""Shared utilities for the test suite.

Provides tiny per-layer-kind graphs for gradient checking, a central
finite-difference checker, a numpy eigendecomposition oracle for
singular values (the production code never calls numpy's SVD/eigh; the
oracle exists only so tests can cross-check the hand-written kernels),
the engine's earlier kernels as references (the scatter-based Conv2D
input gradient, and the whole-batch Conv2D, ReLU, pooling, BatchNorm and
SGD kernels that the engine must match bit for bit), and a union-find
reference planner for the array-based one.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from energyprune.criteria import normalize_layer_l2
from energyprune.engine import (cross_entropy, forward, backward, init_params,
                                logits_node)
from energyprune.graph import (INPUT, PASSTHROUGH, ModelGraph, infer_shapes,
                               rewrite_remove_channels)
from energyprune.linalg import make_rng
from energyprune.metrics import count_complexity
from energyprune.pruner import PlanError, check_score_widths, default_protected
from energyprune.toybench import _bn, _conv, _dense, _op


# run_toy_experiment(seed) results of this pytest run, by seed. Criterion 1's
# fixture fills it, and the pinned seed-0 test reads seed 0 from it instead
# of training it again; run alone, that test trains seed 0 itself.
TOY_EXPERIMENTS: dict = {}


# --- eigendecomposition oracle -------------------------------------------

def oracle_singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a via eigvalsh of [[0, a], [a.T, 0]].

    That matrix has eigenvalues +-s_i (and |m - n| zeros), each with an
    absolute error near eps * |a|. The Gram matrix a.T @ a would square
    the scale: a zero singular value comes back as sqrt(eps) * |a|.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    aug = np.zeros((m + n, m + n))
    aug[:m, m:] = a
    aug[m:, :m] = a.T
    ev = np.linalg.eigvalsh(aug)[::-1][:min(m, n)]
    return np.clip(ev, 0.0, None)


def oracle_nuclear_norm(a: np.ndarray) -> float:
    return float(np.sum(oracle_singular_values(a)))


# --- tiny graphs, one per layer kind -------------------------------------

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


# --- reference window, ReLU, pooling, BatchNorm and SGD kernels -------------
# The engine's kernels as they were before they dropped their window
# copies, scatters, selects and temporaries. The ReLU, pooling, BatchNorm
# and SGD kernels must match them bit for bit; the conv input gradient,
# whose summation order changed, within 1e-13.

def _reference_windows(x, k, stride, pad, fill=0.0):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   constant_values=fill)
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def _scatter_windows(gwin, x_shape, stride, pad):
    """Sums (N, C, k, k, Ho, Wo) window gradients back onto the
    (N, C, H, W) input, one kernel offset at a time."""
    n, c, h, w = x_shape
    _, _, k, _, ho, wo = gwin.shape
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gwin[:, :, i, j]
    if pad:
        gx = gx[:, :, pad:-pad, pad:-pad]
    return gx


def reference_conv_input_grad(grad, w, x_shape, stride, pad):
    """The Conv2D input gradient as the engine computed it before it
    became one GEMM over the dilated gradient: the transposed kernel maps
    each output position's gradient to its k x k window, and the windows
    are summed back onto the input one kernel offset at a time."""
    n, cout, ho, wo = grad.shape
    gwin = (w.reshape(cout, -1).T @ grad.reshape(n, cout, ho * wo)) \
        .reshape((n,) + w.shape[1:] + (ho, wo))
    return _scatter_windows(gwin, x_shape, stride, pad)


def whole_batch_conv(x, w, b, grad, stride, pad):
    """A Conv2D's forward output and its weight, bias and input gradients
    as the engine computed them before it built im2col columns a few
    samples at a time: each from one copy of the whole batch's columns.
    The chunked kernels must match them bit for bit."""
    n, c = x.shape[:2]
    cout, _, k, _ = w.shape
    win = _reference_windows(x, k, stride, pad)
    ho, wo = win.shape[2:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, ho * wo)
    out = cols.transpose(0, 2, 1) @ w.reshape(cout, -1).T
    out += b
    g = grad.reshape(n, cout, ho * wo)
    gw = (g @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = g.sum(axis=(0, 2))
    # the polyphase input gradient: per residue class of rows and columns
    # mod stride, the padded output gradient's columns meet the class's
    # flipped, transposed taps
    h, wd = x.shape[2:]
    t = -(-k // stride)
    r, q = (pad + h - 1) // stride + 1, (pad + wd - 1) // stride + 1
    gp = np.zeros((n, cout, t - 1 + r, t - 1 + q))
    gp[:, :, t - 1:t - 1 + ho, t - 1:t - 1 + wo] = grad[:, :, :r, :q]
    gx = np.zeros(x.shape)
    for ry in range(stride):
        for rx in range(stride):
            taps = w[:, :, ry::stride, rx::stride]
            kh, kw = taps.shape[2:]
            u0, v0 = -((ry - pad) // stride), -((rx - pad) // stride)
            y0, x0 = ry + stride * u0 - pad, rx + stride * v0 - pad
            nu, nv = len(range(y0, h, stride)), len(range(x0, wd, stride))
            if not (kh and kw and nu and nv):
                continue
            gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))[
                :, :, t - kh + u0:t - kh + u0 + nu, t - kw + v0:t - kw + v0 + nv]
            gcols = gwin.transpose(0, 1, 4, 5, 2, 3).reshape(n, cout * kh * kw, nu * nv)
            wf = taps[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            gx[:, :, y0::stride, x0::stride] = (wf @ gcols).reshape(n, c, nu, nv)
    return out.transpose(0, 2, 1).reshape(n, cout, ho, wo), gw, gb, gx


def reference_relu(x):
    return np.where(x > 0, x, 0.0)


def reference_relu_grad(grad, x):
    return np.where(x > 0, grad, 0.0)


def reference_maxpool(x, k, stride, pad):
    """(output, argmax index) from a reshaped copy of every window."""
    win = _reference_windows(x, k, stride, pad, fill=-np.inf)
    win = win.reshape(win.shape[:4] + (k * k,))
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def reference_maxpool_grad(grad, idx, x_shape, k, stride, pad):
    n, c, ho, wo = grad.shape
    gwin = np.zeros((n, c, k * k, ho, wo))
    np.put_along_axis(gwin, idx[:, :, None], grad[:, :, None], axis=2)
    return _scatter_windows(gwin.reshape(n, c, k, k, ho, wo), x_shape, stride, pad)


def reference_avgpool(x, k, stride, pad):
    win = _reference_windows(x, k, stride, pad)
    return win.reshape(win.shape[:4] + (k * k,)).mean(axis=-1)


def reference_avgpool_grad(grad, x_shape, k, stride, pad):
    n, c, ho, wo = grad.shape
    gwin = np.broadcast_to(grad[:, :, None, None] / (k * k), (n, c, k, k, ho, wo))
    return _scatter_windows(gwin, x_shape, stride, pad)


def reference_batchnorm(x, params, mode):
    """(output, xhat, inv) with the default eps and momentum; in train
    mode the running statistics in ``params`` are updated in place."""
    eps, momentum = 1e-5, 0.1
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    count = x.size // x.shape[1]
    if mode == "train":
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        unbiased = var * count / max(count - 1, 1)
        params["mean"][:] = (1 - momentum) * params["mean"] + momentum * mean
        params["var"][:] = (1 - momentum) * params["var"] + momentum * unbiased
    else:
        mean, var = params["mean"], params["var"]
    shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
    return params["gamma"].reshape(shape) * xhat + params["beta"].reshape(shape), xhat, inv


def reference_batchnorm_grad(grad, xhat, inv, gamma, mode):
    """(input gradient, gamma gradient, beta gradient)."""
    axes = (0,) if grad.ndim == 2 else (0, 2, 3)
    shape = (1, -1) if grad.ndim == 2 else (1, -1, 1, 1)
    ggamma = (grad * xhat).sum(axis=axes)
    gbeta = grad.sum(axis=axes)
    gxhat = grad * gamma.reshape(shape)
    if mode == "train":
        cnt = grad.size // grad.shape[1]
        term = gxhat - gxhat.mean(axis=axes).reshape(shape) \
            - xhat * (gxhat * xhat).sum(axis=axes).reshape(shape) / cnt
        return term * inv.reshape(shape), ggamma, gbeta
    return gxhat * inv.reshape(shape), ggamma, gbeta


def reference_sgd_step(params, velocity, grads, lr, cfg):
    """One momentum-SGD update of ``params`` and ``velocity`` (dicts
    keyed alike) with the old expressions, in place."""
    for key, vel in velocity.items():
        grad = grads[key] + cfg.weight_decay * params[key]
        vel *= cfg.momentum
        vel += grad
        params[key] -= lr * vel


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
            src = prov[node.inputs[0]]
            prov[node.id] = [s for s in src
                             for _ in range(shapes[node.id][0] // len(src))]
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

    # one walk for both modes: take a group while each layer it touches
    # has room for its channels there
    layers = {lid for grp in candidates for lid, _ in grp[1]}
    if spec.mode == "per-layer":
        room = {}
        for lid in layers:
            r = spec.per_layer_ratios.get(lid, spec.ratio)
            c = g.nodes[lid].attrs["out"] + done.get(lid, 0)
            room[lid] = max(0, int(np.floor(r * c * frac)) - done.get(lid, 0))
        target = None  # no count to reach
    else:
        total = sum(len(grp[1]) for grp in candidates) + sum(done.values())
        target = int(round(spec.threshold * total * frac)) \
            - sum(done.values())
        room = {lid: g.nodes[lid].attrs["out"] - 1 for lid in layers}
    ranked = sorted(((grp, group_score(grp)) for grp in candidates),
                    key=lambda e: (e[1], sort_key(e[0])))
    selected, removed = [], 0
    for grp, score in ranked:
        if target is not None and removed >= target:
            break
        counts: dict = {}
        for lid, _ in grp[1]:
            counts[lid] = counts.get(lid, 0) + 1
        if any(room[lid] < n for lid, n in counts.items()):
            continue
        for lid, n in counts.items():
            room[lid] -= n
        selected.append((grp, score))
        removed += len(grp[1])
    if target is not None and removed < target:
        raise PlanError(
            f"cannot reach threshold {spec.threshold}: only {removed} of "
            f"{target} channels removable")
    scratch = rewrite_remove_channels(
        g, (s for grp, _ in selected for s in grp[1]))
    base, pred = count_complexity(g), count_complexity(scratch)
    return ([(grp[0], grp[1], score) for grp, score in selected],
            infer_shapes(scratch), pred.flops, pred.params,
            base.flops, base.params)

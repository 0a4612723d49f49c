"""Forward/backward execution, training, and activation capture.

Activations carry a leading batch axis: (N, C, H, W) for feature maps,
(N, F) for vectors. All math is float64. Forward passes are
deterministic given the seed (Dropout masks come from the seeded PCG64
stream); eval mode turns Dropout into identity and makes BatchNorm use
its running statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import INPUT, ModelGraph, channel_provenance, infer_shapes
from .linalg import make_rng
from .metrics import evaluate


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: str = "cosine"  # or "constant"
    max_epochs: int = 200
    patience: int = 20
    batch_size: int = 128
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class ActivationRecord:
    """Capture-point activations: post-BN for conv stacks, post-bias for
    dense layers. ``layer_id`` names the producing prunable layer."""
    layer_id: str
    capture_id: str
    values: np.ndarray  # (N, C, H, W) or (N, F)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel_stack(self) -> np.ndarray:
        """Every channel matricized to N x (h*w), stacked to (C, N, h*w);
        N x 1 for dense neurons."""
        return self.values.reshape(self.n_samples, self.n_channels, -1) \
            .transpose(1, 0, 2)


@dataclass
class GradientRecord:
    layer_id: str
    capture_id: str
    values: np.ndarray  # dLoss/d(activation), same layout as its record


# --- per-kind forward/backward -----------------------------------------

def _windows(x, k, stride, pad, fill=0.0):
    """(N, C, Ho, Wo, k, k) view of the k x k windows of an (N, C, H, W)
    batch, padded by ``pad`` with ``fill``."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   constant_values=fill)
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def _scatter_windows(gwin, x_shape, stride, pad):
    """Adjoint of ``_windows`` for the pools: sums (N, C, k, k, Ho, Wo)
    window gradients back onto the (N, C, H, W) input. Window offsets
    lead, so each of the k*k adds reads whole (Ho, Wo) maps."""
    n, c, h, w = x_shape
    _, _, k, _, ho, wo = gwin.shape
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gwin[:, :, i, j]
    if pad:
        gx = gx[:, :, pad:-pad, pad:-pad]
    return gx


def _forward_node(node, xs, mode, rng, cache):
    k = node.kind
    if k == "Dense":
        (x,) = xs
        cache["x"] = x
        return x @ node.params["w"].T + node.params["b"]
    if k == "Conv2D":
        (x,) = xs
        win = _windows(x, node.attrs["k"], node.attrs["stride"], node.attrs["pad"])
        n, c, ho, wo, kk, _ = win.shape
        # channel-first im2col: one contiguous (N, C*k*k, Ho*Wo) copy
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kk * kk, ho * wo)
        cache["cols"], cache["x_shape"] = cols, x.shape
        w = node.params["w"]
        out = cols.transpose(0, 2, 1) @ w.reshape(w.shape[0], -1).T  # (N, Ho*Wo, Cout)
        if "b" in node.params:
            out += node.params["b"]
        return out.transpose(0, 2, 1).reshape(n, w.shape[0], ho, wo)
    if k == "BatchNorm":
        (x,) = xs
        eps = node.attrs.get("eps", 1e-5)
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        count = x.size // x.shape[1]
        if mode == "train":
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = node.attrs.get("bn_momentum", 0.1)
            unbiased = var * count / max(count - 1, 1)
            node.params["mean"][:] = (1 - m) * node.params["mean"] + m * mean
            node.params["var"][:] = (1 - m) * node.params["var"] + m * unbiased
        else:
            mean = node.params["mean"]
            var = node.params["var"]
        shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        cache.update(xhat=xhat, inv=inv, axes=axes, shape=shape, mode=mode,
                     count=count)
        return node.params["gamma"].reshape(shape) * xhat + node.params["beta"].reshape(shape)
    if k == "ReLU":
        (x,) = xs
        cache["mask"] = x > 0
        return np.where(cache["mask"], x, 0.0)
    if k == "MaxPool":
        (x,) = xs
        kk = node.attrs["k"]
        win = _windows(x, kk, node.attrs["stride"], node.attrs.get("pad", 0),
                       fill=-np.inf)
        win = win.reshape(win.shape[:4] + (kk * kk,))
        idx = win.argmax(axis=-1)
        cache.update(idx=idx, x_shape=x.shape)
        return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    if k == "AvgPool":
        (x,) = xs
        # padded entries count as zeros (count-include-pad convention)
        kk = node.attrs["k"]
        win = _windows(x, kk, node.attrs["stride"], node.attrs.get("pad", 0))
        cache["x_shape"] = x.shape
        return win.reshape(win.shape[:4] + (kk * kk,)).mean(axis=-1)
    if k == "GlobalAvgPool":
        (x,) = xs
        cache["x_shape"] = x.shape
        return x.mean(axis=(2, 3))
    if k == "Flatten":
        (x,) = xs
        cache["x_shape"] = x.shape
        return x.reshape(x.shape[0], -1)
    if k == "Dropout":
        (x,) = xs
        p = node.attrs["p"]
        if mode == "train" and p > 0:
            mask = (rng.random(x.shape) >= p) / (1.0 - p)
            cache["mask"] = mask
            return x * mask
        cache["mask"] = None
        return x
    if k == "Add":
        return sum(xs[1:], xs[0].copy())
    if k == "Concat":
        cache["widths"] = [x.shape[1] for x in xs]
        return np.concatenate(xs, axis=1)
    if k == "Softmax":
        (x,) = xs
        cache["out"] = _softmax(x)[2]
        return cache["out"]
    raise AssertionError(f"unhandled kind {k}")


def _conv_input_grad(grad, w, x_shape, stride, pad):
    """Conv2D input gradient as a stride-1 forward convolution: ``grad``
    is zero-inserted (every ``stride``-th row and column) and padded by
    k - 1, and its k x k windows at the H x W input positions meet the
    flipped, transposed kernel in one channel-first im2col GEMM."""
    n, cout, ho, wo = grad.shape
    _, c, h, wd = x_shape
    k = w.shape[2]
    # the window of output row i starts at row stride * i of the padded
    # input; here that row sits at k - 1 + stride * i
    dil = np.zeros((n, cout, h + 2 * pad + k - 1, wd + 2 * pad + k - 1))
    dil[:, :, k - 1:k - 1 + stride * ho:stride,
        k - 1:k - 1 + stride * wo:stride] = grad
    win = _windows(dil, k, 1, 0)[:, :, pad:pad + h, pad:pad + wd]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, cout * k * k, h * wd)
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    return (wf @ cols).reshape(n, c, h, wd)


def _backward_node(node, grad, cache, param_grads, input_grad=True):
    """Returns one gradient per input of the node; a Conv2D returns
    [None] when ``input_grad`` is off."""
    k = node.kind
    if k == "Dense":
        x = cache["x"]
        param_grads[(node.id, "w")] = grad.T @ x
        param_grads[(node.id, "b")] = grad.sum(axis=0)
        return [grad @ node.params["w"]]
    if k == "Conv2D":
        cols = cache["cols"]  # (N, C*k*k, Ho*Wo)
        n, cout, ho, wo = grad.shape
        w = node.params["w"]
        g = grad.reshape(n, cout, ho * wo)
        gw = g @ cols.transpose(0, 2, 1)  # (N, Cout, C*k*k)
        param_grads[(node.id, "w")] = gw.sum(axis=0).reshape(w.shape)
        if "b" in node.params:
            param_grads[(node.id, "b")] = g.sum(axis=(0, 2))
        if not input_grad:
            return [None]
        return [_conv_input_grad(grad, w, cache["x_shape"], node.attrs["stride"],
                                 node.attrs["pad"])]
    if k == "BatchNorm":
        xhat, inv, axes, shape = cache["xhat"], cache["inv"], cache["axes"], cache["shape"]
        gamma = node.params["gamma"]
        param_grads[(node.id, "gamma")] = (grad * xhat).sum(axis=axes)
        param_grads[(node.id, "beta")] = grad.sum(axis=axes)
        gxhat = grad * gamma.reshape(shape)
        if cache["mode"] == "train":
            cnt = cache["count"]
            term = gxhat - gxhat.mean(axis=axes).reshape(shape) \
                - xhat * (gxhat * xhat).sum(axis=axes).reshape(shape) / cnt
            return [term * inv.reshape(shape)]
        return [gxhat * inv.reshape(shape)]
    if k == "ReLU":
        return [np.where(cache["mask"], grad, 0.0)]
    if k in ("MaxPool", "AvgPool"):
        kk = node.attrs["k"]
        n, c, ho, wo = grad.shape
        if k == "MaxPool":
            gwin = np.zeros((n, c, kk * kk, ho, wo))
            np.put_along_axis(gwin, cache["idx"][:, :, None], grad[:, :, None], axis=2)
            gwin = gwin.reshape(n, c, kk, kk, ho, wo)
        else:
            gwin = np.broadcast_to(grad[:, :, None, None] / (kk * kk), (n, c, kk, kk, ho, wo))
        return [_scatter_windows(gwin, cache["x_shape"], node.attrs["stride"],
                                 node.attrs.get("pad", 0))]
    if k == "GlobalAvgPool":
        n, c, h, w = cache["x_shape"]
        return [np.broadcast_to(grad[:, :, None, None] / (h * w), (n, c, h, w)).copy()]
    if k == "Flatten":
        return [grad.reshape(cache["x_shape"])]
    if k == "Dropout":
        mask = cache["mask"]
        return [grad if mask is None else grad * mask]
    if k == "Add":
        return [grad] * len(node.inputs)
    if k == "Concat":
        return list(np.split(grad, np.cumsum(cache["widths"])[:-1], axis=1))
    if k == "Softmax":
        out = cache["out"]
        return [out * (grad - (grad * out).sum(axis=1, keepdims=True))]
    raise AssertionError(f"unhandled kind {k}")


# --- graph-level execution ----------------------------------------------

@dataclass
class ForwardPass:
    output: np.ndarray
    activations: dict
    caches: dict = field(repr=False, default_factory=dict)


def _mask_vectors(g: ModelGraph, masks: dict) -> dict:
    """Per maskable node (Conv2D/Dense/BatchNorm), a channel multiplier
    built from per-producer masks via channel provenance."""
    t = channel_provenance(g)
    mult = np.ones(len(t.gid))  # per slot
    masked = np.zeros(len(t.gid), dtype=bool)
    for i, lid in enumerate(t.layers):
        if lid in masks:
            mult[t.start[i]:t.start[i + 1]] = masks[lid]
            masked[t.start[i]:t.start[i + 1]] = True
    vectors = {}
    for node in g.nodes.values():
        if node.kind in ("Dense", "Conv2D"):
            if node.id in masks:
                vectors[node.id] = np.asarray(masks[node.id], dtype=float)
        elif node.kind == "BatchNorm":
            slots = t.prov[node.id]
            real = slots >= 0
            if masked[slots[real]].any():
                vectors[node.id] = np.where(real, mult[slots], 1.0)
    return vectors


def forward(g: ModelGraph, x: np.ndarray, mode: str = "eval", seed: int = 0,
            masks: dict | None = None, keep_caches: bool = False) -> ForwardPass:
    """Run the graph on a batch. ``masks`` (per-producer 0/1 channel
    vectors) are applied at conv/dense outputs and again at the
    downstream BatchNorm output, which is where scores are computed."""
    x = np.asarray(x, dtype=np.float64)
    expect = (x.shape[0],) + g.input_shape
    if x.shape != expect:
        raise ValueError(f"batch shape {x.shape} does not match input {expect}")
    rng = make_rng(seed)
    mask_vecs = _mask_vectors(g, masks) if masks else {}
    acts: dict = {}
    caches: dict = {}

    def fetch(src):
        return x if src == INPUT else acts[src]

    for node in g.nodes.values():
        cache: dict = {}
        out = _forward_node(node, [fetch(s) for s in node.inputs], mode, rng, cache)
        vec = mask_vecs.get(node.id)
        if vec is not None:
            shape = (1, -1) if out.ndim == 2 else (1, -1, 1, 1)
            out = out * vec.reshape(shape)
        acts[node.id] = out
        if keep_caches:
            caches[node.id] = cache
    return ForwardPass(output=acts[g.output_id], activations=acts,
                       caches=caches if keep_caches else {})


def logits_node(g: ModelGraph) -> str:
    """The node whose output feeds the loss: the output node, or its
    input when the graph ends in an explicit Softmax."""
    out = g.nodes[g.output_id]
    return out.inputs[0] if out.kind == "Softmax" else out.id


def _softmax(x: np.ndarray):
    """Row-wise softmax of (N, K) scores from one exponentiation: returns
    the max-shifted scores z, the row sums of exp(z), and the softmax."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return z, total, e / total


def _softmax_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and the softmax probabilities."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    z, total, probs = _softmax(logits)
    loss = float(np.mean(np.log(total[:, 0]) - z[np.arange(len(labels)), labels]))
    return loss, probs


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    return _softmax_loss(logits, labels)[0]


def backward(g: ModelGraph, x: np.ndarray, labels: np.ndarray,
             mode: str = "train", seed: int = 0):
    """Mean cross-entropy loss, plus gradients for every parameter and
    every node output. Returns (loss, param_grads, node_grads, fwd)."""
    labels = np.asarray(labels, dtype=np.intp)
    fwd = forward(g, x, mode=mode, seed=seed, keep_caches=True)
    lid = logits_node(g)
    loss, dlogits = _softmax_loss(fwd.activations[lid], labels)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)

    # Only ancestors of the logits ever receive a gradient; every other
    # node is skipped.
    node_grads: dict = {lid: dlogits}
    param_grads: dict = {}
    for nid in reversed(g.nodes):
        grad = node_grads.get(nid)
        if grad is None:
            continue
        node = g.nodes[nid]
        in_grads = _backward_node(node, grad, fwd.caches[nid], param_grads,
                                  input_grad=node.inputs != [INPUT])
        for src, ig in zip(node.inputs, in_grads):
            if src == INPUT:
                continue
            if src in node_grads:
                node_grads[src] = node_grads[src] + ig
            else:
                node_grads[src] = ig
    return loss, param_grads, node_grads, fwd


# --- activation capture -------------------------------------------------

def capture_points(g: ModelGraph) -> list[tuple[str, str]]:
    """(capture_node_id, producer_layer_id) pairs: every BatchNorm with a
    unique conv/dense producer, and every hidden Dense layer."""
    infer_shapes(g)
    lid = logits_node(g)
    points = []
    for node in g.nodes.values():
        if node.kind == "BatchNorm":
            producer = _trace_producer(g, node.inputs[0])
            if producer is not None:
                points.append((node.id, producer))
        elif node.kind == "Dense" and node.id != lid:
            points.append((node.id, node.id))
    return points


def _trace_producer(g: ModelGraph, src: str):
    while src != INPUT:
        node = g.nodes[src]
        if node.kind in ("Dense", "Conv2D"):
            return node.id
        if node.kind in ("Add", "Concat"):
            return None  # no unique producer
        src = node.inputs[0]
    return None


def capture_activations(g: ModelGraph, samples: np.ndarray,
                        labels: np.ndarray | None = None,
                        want_grads: bool = False, seed: int = 0):
    """Eval-mode capture of post-BN / post-bias activations.

    Returns records, or (records, grad_records) when ``want_grads`` is
    set (which requires labels for the loss).
    """
    points = capture_points(g)
    if want_grads:
        if labels is None:
            raise ValueError("gradient capture needs labels")
        _, _, node_grads, fwd = backward(g, samples, labels, mode="eval", seed=seed)
    else:
        fwd = forward(g, samples, mode="eval", seed=seed)
        node_grads = {}
    records = [ActivationRecord(layer_id=prod, capture_id=cap,
                                values=fwd.activations[cap])
               for cap, prod in points]
    if not want_grads:
        return records
    grads = [GradientRecord(layer_id=prod, capture_id=cap,
                            values=node_grads.get(cap, np.zeros_like(fwd.activations[cap])))
             for cap, prod in points]
    return records, grads


# --- training -----------------------------------------------------------

def init_params(g: ModelGraph, seed: int = 0) -> ModelGraph:
    """Kaiming-uniform (fan-in) init for conv/dense weights, zero biases,
    BN gamma=1 beta=0 with fresh running stats. In place; returns g."""
    rng = make_rng(seed)
    for node in g.nodes.values():
        if node.kind == "Dense":
            fan_in = node.attrs["in"]
            bound = np.sqrt(6.0 / fan_in)
            node.params["w"] = rng.uniform(-bound, bound, (node.attrs["out"], fan_in))
            node.params["b"] = np.zeros(node.attrs["out"])
        elif node.kind == "Conv2D":
            fan_in = node.attrs["in"] * node.attrs["k"] ** 2
            bound = np.sqrt(6.0 / fan_in)
            node.params["w"] = rng.uniform(
                -bound, bound,
                (node.attrs["out"], node.attrs["in"], node.attrs["k"], node.attrs["k"]))
            if "b" in node.params or not node.attrs.get("no_bias", False):
                node.params["b"] = np.zeros(node.attrs["out"])
        elif node.kind == "BatchNorm":
            c = node.attrs["channels"]
            node.params["gamma"] = np.ones(c)
            node.params["beta"] = np.zeros(c)
            node.params["mean"] = np.zeros(c)
            node.params["var"] = np.ones(c)
    return g


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.schedule == "cosine":
        return cfg.lr * (1.0 + np.cos(np.pi * epoch / cfg.max_epochs)) / 2.0
    return cfg.lr


def train(g: ModelGraph, dataset, cfg: TrainConfig):
    """SGD with momentum, weight decay, cosine schedule, and early
    stopping on validation accuracy. Returns (best_graph, history) where
    history rows are (epoch, train_loss, val_acc, lr)."""
    x, y = dataset
    if len(x) == 0:
        raise ValueError("empty dataset")
    rng = make_rng(cfg.seed)
    perm = rng.permutation(len(x))
    n_val = int(round(cfg.val_fraction * len(x)))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    xtr, ytr = x[tr_idx], y[tr_idx]
    xval, yval = (x[val_idx], y[val_idx]) if n_val else (xtr, ytr)

    g = g.copy()
    velocity = {key: np.zeros_like(arr) for nid, name, arr in g.parameters()
                for key in [(nid, name)] if name not in ("mean", "var")}
    best = g.copy()
    best_acc = -1.0
    since_best = 0
    history = []
    step_seed = cfg.seed + 1

    for epoch in range(cfg.max_epochs):
        lr = _epoch_lr(cfg, epoch)
        order = rng.permutation(len(xtr))
        losses = []
        for i in range(0, len(xtr), cfg.batch_size):
            bidx = order[i:i + cfg.batch_size]
            loss, pgrads, _, _ = backward(g, xtr[bidx], ytr[bidx],
                                          mode="train", seed=step_seed)
            step_seed += 1
            if not np.isfinite(loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}")
            losses.append(loss)
            for key, vel in velocity.items():
                nid, name = key
                grad = pgrads.get(key)
                if grad is None:
                    continue
                grad = grad + cfg.weight_decay * g.nodes[nid].params[name]
                vel *= cfg.momentum
                vel += grad
                g.nodes[nid].params[name] -= lr * vel
        val_acc = evaluate(g, (xval, yval))
        history.append((epoch, float(np.mean(losses)), val_acc, lr))
        if val_acc > best_acc:
            best_acc = val_acc
            best = g.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    return best, history

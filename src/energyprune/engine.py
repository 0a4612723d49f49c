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


class LabelError(ValueError):
    """A label is not a class index of the model: a data error."""


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
        # written so that NaN fails every range test
        if not 0.0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and >= 0")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError("schedule must be cosine or constant")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
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
    batch. With ``pad``, the batch is first copied into the middle of a
    buffer ``pad`` wider on every side and filled with ``fill``; without,
    the view reads ``x`` itself. ``win[..., i, j]`` is the strided
    (N, C, Ho, Wo) map of kernel offset (i, j)."""
    if pad:
        n, c, h, w = x.shape
        buf = np.full((n, c, h + 2 * pad, w + 2 * pad), fill)
        buf[:, :, pad:pad + h, pad:pad + w] = x
        x = buf
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


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
        shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
        count = x.size // x.shape[1]
        if mode == "train":
            # np.mean and np.var in one centring: the mean is the sum over
            # the count, and the variance the summed squares of x - mean
            mean = x.sum(axis=axes) / count
            xc = x - mean.reshape(shape)
            buf = np.square(xc)
            var = buf.sum(axis=axes) / count
            m = node.attrs.get("bn_momentum", 0.1)
            unbiased = var * count / max(count - 1, 1)
            node.params["mean"][:] = (1 - m) * node.params["mean"] + m * mean
            node.params["var"][:] = (1 - m) * node.params["var"] + m * unbiased
        else:
            xc = x - node.params["mean"].reshape(shape)
            var = node.params["var"]
            buf = np.empty_like(xc)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = np.multiply(xc, inv.reshape(shape), out=xc)
        cache.update(xhat=xhat, inv=inv, axes=axes, shape=shape, mode=mode,
                     count=count)
        out = np.multiply(xhat, node.params["gamma"].reshape(shape), out=buf)
        out += node.params["beta"].reshape(shape)
        return out
    if k == "ReLU":
        (x,) = xs
        cache["mask"] = x > 0
        return np.where(cache["mask"], x, 0.0)
    if k == "MaxPool":
        (x,) = xs
        kk = node.attrs["k"]
        win = _windows(x, kk, node.attrs["stride"], node.attrs.get("pad", 0),
                       fill=-np.inf)
        # a running maximum over the k*k offset maps in row-major order;
        # the strict > keeps the index of the first maximum, the one
        # argmax picks (for non-NaN input)
        out = win[..., 0, 0].copy()
        idx = np.zeros(out.shape, dtype=np.min_scalar_type(kk * kk - 1))
        gt = np.empty(out.shape, dtype=bool)
        for o in range(1, kk * kk):
            v = win[..., o // kk, o % kk]
            np.greater(v, out, out=gt)
            np.maximum(out, v, out=out)
            np.putmask(idx, gt, o)
        cache.update(idx=idx, x_shape=x.shape)
        return out
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
        buf = grad * xhat
        param_grads[(node.id, "gamma")] = buf.sum(axis=axes)
        param_grads[(node.id, "beta")] = grad.sum(axis=axes)
        gx = grad * gamma.reshape(shape)
        if cache["mode"] == "train":
            # gxhat - mean(gxhat) - xhat * sum(gxhat * xhat) / count in
            # that order, in place; the result takes buf's memory order,
            # as a fresh array from both operands would
            mean = gx.mean(axis=axes)
            proj = np.multiply(gx, xhat, out=buf).sum(axis=axes)
            np.multiply(xhat, proj.reshape(shape), out=buf)
            buf /= cache["count"]
            gx -= mean.reshape(shape)
            gx = np.subtract(gx, buf, out=buf)
        gx *= inv.reshape(shape)
        return [gx]
    if k == "ReLU":
        return [np.where(cache["mask"], grad, 0.0)]
    if k in ("MaxPool", "AvgPool"):
        # the adjoint of _windows: each kernel offset's (N, C, Ho, Wo)
        # gradient block is added onto its strided map of a padded buffer
        kk, stride = node.attrs["k"], node.attrs["stride"]
        pad = node.attrs.get("pad", 0)
        n, c, h, w = cache["x_shape"]
        ho, wo = grad.shape[2:]
        gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        share = grad / (kk * kk) if k == "AvgPool" else None
        for o in range(kk * kk):
            i, j = divmod(o, kk)
            block = share if share is not None else np.where(cache["idx"] == o, grad, 0.0)
            gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += block
        return [gx[:, :, pad:-pad, pad:-pad] if pad else gx]
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


def _check_labels(labels: np.ndarray, classes: int) -> None:
    """Every label is a class index of a model with ``classes`` outputs."""
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelError(f"label out of range: the labels span "
                         f"{labels.min()}..{labels.max()}, the model has "
                         f"{classes} classes")


def _softmax_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and the softmax probabilities."""
    labels = np.asarray(labels, dtype=np.intp)
    _check_labels(labels, logits.shape[1])
    z, total, probs = _softmax(logits)
    loss = float(np.mean(np.log(total[:, 0]) - z[np.arange(len(labels)), labels]))
    return loss, probs


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    return _softmax_loss(logits, labels)[0]


def backward(g: ModelGraph, x: np.ndarray, labels: np.ndarray,
             mode: str = "train", seed: int = 0):
    """Mean cross-entropy loss, plus gradients for every parameter and
    every node output. Returns (loss, param_grads, node_grads, fwd)."""
    return _backprop(g, x, labels, mode, seed, prob_floor=0.0)


# Softmax probabilities below this are zeroed in the training step only.
# A confident model's probabilities reach ~1e-300; backpropagated, they
# fill the gradients with subnormal numbers, which slow every BLAS call
# that reads them by an order of magnitude. A flushed probability changes
# a gradient entry by ~1e-250 at most, far below half an ulp of
# ``weight_decay * param`` for any parameter not itself that small, so
# the rounded SGD update is the same. The scoring paths (``backward``,
# ``capture_activations``) keep the raw probabilities: the gradient and
# Taylor criteria read exactly those collapsing gradients.
_PROB_FLOOR = 1e-250


def _backprop(g, x, labels, mode, seed, prob_floor):
    labels = np.asarray(labels, dtype=np.intp)
    fwd = forward(g, x, mode=mode, seed=seed, keep_caches=True)
    lid = logits_node(g)
    loss, dlogits = _softmax_loss(fwd.activations[lid], labels)
    if prob_floor:
        np.copyto(dlogits, 0.0, where=dlogits < prob_floor)
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
    # the validation split never reaches the loss, so check it here too
    _check_labels(y, infer_shapes(g)[logits_node(g)][0])
    rng = make_rng(cfg.seed)
    perm = rng.permutation(len(x))
    n_val = int(round(cfg.val_fraction * len(x)))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    xtr, ytr = x[tr_idx], y[tr_idx]
    xval, yval = (x[val_idx], y[val_idx]) if n_val else (xtr, ytr)

    g = g.copy()
    velocity = {key: np.zeros_like(arr) for nid, name, arr in g.parameters()
                for key in [(nid, name)] if name not in ("mean", "var")}
    scratch = np.empty(max((v.size for v in velocity.values()), default=0))
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
            loss, pgrads, _, _ = _backprop(g, xtr[bidx], ytr[bidx], "train",
                                           step_seed, _PROB_FLOOR)
            step_seed += 1
            if not np.isfinite(loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}")
            losses.append(loss)
            for key, vel in velocity.items():
                nid, name = key
                grad = pgrads.get(key)
                if grad is None:
                    continue
                # grad + wd * param, then param -= lr * vel, with the same
                # roundings in one scratch buffer instead of temporaries
                param = g.nodes[nid].params[name]
                buf = scratch[:param.size].reshape(param.shape)
                np.multiply(cfg.weight_decay, param, out=buf)
                np.add(grad, buf, out=buf)
                vel *= cfg.momentum
                vel += buf
                np.multiply(lr, vel, out=buf)
                param -= buf
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

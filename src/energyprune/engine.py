"""Forward/backward execution, training, and activation capture.

Activations carry a leading batch axis: (N, C, H, W) for feature maps,
(N, F) for vectors. All math is float64. Forward passes are
deterministic given the seed (Dropout masks come from the seeded PCG64
stream); eval mode turns Dropout into identity and makes BatchNorm use
its running statistics.

Memory. ``forward`` keeps every node's activation unless the caller names
the ones it reads with ``keep``; then each other activation is dropped as
soon as its last consumer has run, and only the kept nodes and the output
are returned. Each caller in the package names what it reads: the
training step and ``evaluate`` the logits, ``backward`` the
capture points and the logits, LRP the Dense layers and their inputs.
Backward reads only the per-node caches, which hold what each node's
gradient needs (a Dense or Conv2D layer's input by reference), never the
activation dict. A conv gathers its im2col columns, k*k times the size of
its input, a few samples at a time, in the forward and again in backward,
so no step holds a whole batch of them. Backward drops each cache once
its node's backward has run, and each node gradient once that node has
read it, unless the caller asked for that gradient: the training step
asks for none, gradient capture for the capture points', ``backward``
for every node's. ``train`` frees one untouched 16 MiB block before its
first step, which raises glibc's mmap and trim thresholds above a toy
step's buffers, so the freed buffers are reused from the heap on the next
step instead of being mapped and faulted in again. ``capture_activations`` runs in chunks
of ``CAPTURE_CHUNK`` samples, with gradients or without, and copies each
chunk's capture points and gradients into the whole set's arrays, so the
memory beyond those arrays does not grow with the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import INPUT, ModelGraph, channel_provenance, infer_shapes
from .linalg import make_rng


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

def _pad(x, pad, fill=0.0):
    """An (N, C, H, W) batch copied into the middle of a buffer ``pad``
    wider on every side and filled with ``fill``; ``x`` itself without
    ``pad``."""
    if not pad:
        return x
    n, c, h, w = x.shape
    buf = np.full((n, c, h + 2 * pad, w + 2 * pad), fill)
    buf[:, :, pad:pad + h, pad:pad + w] = x
    return buf


def _windows(x, k, stride, pad, fill=0.0):
    """(N, C, Ho, Wo, k, k) view of the k x k windows of an (N, C, H, W)
    batch, padded by ``_pad``. ``win[..., i, j]`` is the strided
    (N, C, Ho, Wo) map of kernel offset (i, j)."""
    return sliding_window_view(_pad(x, pad, fill), (k, k),
                               axis=(2, 3))[:, :, ::stride, ::stride]


# Bytes of im2col columns a conv builds at a time. Columns are k*k times
# the input they gather, so the forward, the weight gradient and the input
# gradient each gather them a few samples at a time (at least one), small
# enough for the heap to reuse, and write each chunk's GEMMs straight into
# the whole batch's result. numpy runs a stacked matmul as one GEMM per
# sample, so the chunks give the bits of one whole-batch call.
_CONV_BLOCK_BYTES = 512 * 1024

# BatchNorm's running-statistics momentum: fixed, not a model attribute
BN_MOMENTUM = 0.1


@lru_cache(maxsize=256)
def _window_index(width, kh, kw, stride, y0, x0, ho, wo):
    """Flat indices, into a map ``width`` wide, of the kh x kw windows
    whose first taps sit at (y0, x0) + stride * (a, b), in channel-first
    im2col order: entry (i, j, a, b) reads row y0 + i + stride * a and
    column x0 + j + stride * b. Read-only, since every conv of one
    geometry shares it."""
    ys = y0 + np.arange(kh)[:, None, None, None] + stride * np.arange(ho)[:, None]
    xs = x0 + np.arange(kw)[:, None, None] + stride * np.arange(wo)
    idx = (ys * width + xs).ravel()
    idx.flags.writeable = False
    return idx


def _column_chunks(buf, kh, kw, stride, y0, x0, ho, wo):
    """(rows, cols) per chunk of the samples of an (N, C, H, W) buffer.
    ``cols`` is the chunk's channel-first im2col columns of the windows
    ``_window_index`` describes, (n, C*kh*kw, Ho*Wo): one contiguous
    ``np.take`` of at most ``_CONV_BLOCK_BYTES``, or of one sample if
    that is larger. Its inner loop runs over all kh*kw*Ho*Wo entries,
    where a copy of a window view would run over each Wo-wide row. A
    1 x 1 window over the whole buffer reads it in place, in the
    buffer's memory order, which decides the GEMM's transpose flags, so
    it is not copied."""
    n, c, h, w = buf.shape
    flat = buf.reshape(n, c, h * w)
    if (kh, kw, ho, wo) == (1, 1, h, w):  # the windows are every entry
        yield slice(None), flat
        return
    idx = _window_index(w, kh, kw, stride, y0, x0, ho, wo)
    step = max(1, _CONV_BLOCK_BYTES // (8 * c * idx.size))
    for i in range(0, n, step):
        part = np.take(flat[i:i + step], idx, axis=2)
        yield slice(i, i + step), part.reshape(len(part), c * kh * kw, ho * wo)


def _forward_node(node, xs, mode, rng, cache):
    k = node.kind
    if k == "Dense":
        (x,) = xs
        cache["x"] = x
        return x @ node.params["w"].T + node.params["b"]
    if k == "Conv2D":
        (x,) = xs
        cache["x"] = x
        kk, stride = node.attrs["k"], node.attrs["stride"]
        xp = _pad(x, node.attrs["pad"])
        n, ho, wo = len(x), *((m - kk) // stride + 1 for m in xp.shape[2:])
        w = node.params["w"]
        w2t = w.reshape(w.shape[0], -1).T
        out = np.empty((n, ho * wo, w.shape[0]))
        for rows, cols in _column_chunks(xp, kk, kk, stride, 0, 0, ho, wo):
            np.matmul(cols.transpose(0, 2, 1), w2t, out=out[rows])
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
            m = BN_MOMENTUM
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
        # np.where(x > 0, x, 0.0) without a branch per entry: fmax drops
        # NaN and negatives, and adding 0.0 turns the -0.0 it may keep
        # into +0.0. The mask is in C order, the gradient's order.
        cache["mask"] = np.greater(x, 0.0, out=np.empty(x.shape, dtype=bool))
        out = np.fmax(x, 0.0)
        out += 0.0
        return out
    if k == "MaxPool":
        (x,) = xs
        kk = node.attrs["k"]
        win = _windows(x, kk, node.attrs["stride"], node.attrs.get("pad", 0),
                       fill=-np.inf)
        # a running maximum over the k*k offset maps in row-major order;
        # the strict > keeps the index of the first maximum, the one
        # argmax picks (for non-NaN input). The offsets rise, so the
        # maximum of idx and gt * o is o wherever v won.
        out = win[..., 0, 0].copy()
        idx = np.zeros(out.shape, dtype=np.min_scalar_type(kk * kk - 1))
        gt = np.empty(out.shape, dtype=bool)
        for o in range(1, kk * kk):
            v = win[..., o // kk, o % kk]
            np.greater(v, out, out=gt)
            np.maximum(out, v, out=out)
            np.maximum(idx, np.multiply(gt, o, dtype=idx.dtype), out=idx)
        cache.update(idx=idx, x_shape=x.shape)
        return out
    if k == "AvgPool":
        (x,) = xs
        # padded entries count as zeros (count-include-pad convention)
        kk = node.attrs["k"]
        win = _windows(x, kk, node.attrs["stride"], node.attrs.get("pad", 0))
        cache["x_shape"] = x.shape
        if kk != 2 or win.strides[4] == 2 * win.strides[5]:
            # the flattened windows are a view where the k x k offsets are
            # evenly spaced (k = 1, or a row k wide), one copy otherwise
            return win.reshape(win.shape[:4] + (kk * kk,)).mean(axis=-1)
        # 2 x 2: the mean over a C-order copy of every window, without the
        # copy. Four terms are one running sum from the reduction's 0.0
        # start, which turns an all -0.0 window into +0.0.
        out = np.add(win[..., 0, 0], 0.0, out=np.empty(win.shape[:4]))
        for o in range(1, 4):
            out += win[..., o // 2, o % 2]
        out /= 4
        return out
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
    """Conv2D input gradient with no products of inserted zeros. Padded
    input row ``stride * a + i`` gets output row a's gradient through
    kernel row i, so the input rows of one residue class mod ``stride``
    meet only the kernel rows of that class. Per class of rows and
    columns, the gradient (padded by the class's taps less one) meets
    the class's flipped, transposed taps in stride-1 channel-first im2col
    GEMMs, a few samples at a time. Stride 1 is the one class with every
    tap."""
    n, cout, ho, wo = grad.shape
    _, c, h, wd = x_shape
    k = w.shape[2]
    t = -(-k // stride)  # the most taps a class has along one axis
    # the output rows and columns that reach the input, padded by t - 1
    # before and as far as the last window reaches after
    r, q = (pad + h - 1) // stride + 1, (pad + wd - 1) // stride + 1
    gp = np.zeros((n, cout, t - 1 + r, t - 1 + q))
    gp[:, :, t - 1:t - 1 + ho, t - 1:t - 1 + wo] = grad[:, :, :r, :q]
    gx = np.empty((n, c, h * wd)) if stride == 1 else np.zeros((n, c, h, wd))
    for ry in range(stride):
        for rx in range(stride):
            taps = w[:, :, ry::stride, rx::stride]
            kh, kw = taps.shape[2:]
            # the class's first input row is padded row ry + stride * u0
            u0, v0 = -((ry - pad) // stride), -((rx - pad) // stride)
            y0, x0 = ry + stride * u0 - pad, rx + stride * v0 - pad
            nu, nv = len(range(y0, h, stride)), len(range(x0, wd, stride))
            if not (kh and kw and nu and nv):
                continue  # no taps (stride > k) or no rows: zero
            wf = taps[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            for rows, cols in _column_chunks(gp, kh, kw, 1, t - kh + u0,
                                             t - kw + v0, nu, nv):
                if stride == 1:  # the one class is the whole input
                    np.matmul(wf, cols, out=gx[rows])
                else:
                    gx[rows, :, y0::stride, x0::stride] = \
                        (wf @ cols).reshape(len(cols), c, nu, nv)
    return gx.reshape(n, c, h, wd)


def _backward_node(node, grad, cache, param_grads, input_grad=True):
    """Returns one gradient per input of the node, and adds the node's
    parameter gradients to ``param_grads`` unless it is None. A Conv2D
    returns [None] when ``input_grad`` is off."""
    k = node.kind
    if k == "Dense":
        if param_grads is not None:
            param_grads[(node.id, "w")] = grad.T @ cache["x"]
            param_grads[(node.id, "b")] = grad.sum(axis=0)
        return [grad @ node.params["w"]]
    if k == "Conv2D":
        w, x = node.params["w"], cache["x"]
        stride, pad = node.attrs["stride"], node.attrs["pad"]
        if param_grads is not None:
            n, cout, ho, wo = grad.shape
            g = grad.reshape(n, cout, ho * wo)
            gw = np.empty((n, cout, w[0].size))  # per sample, summed below
            for rows, cols in _column_chunks(_pad(x, pad), w.shape[2], w.shape[3],
                                             stride, 0, 0, ho, wo):
                np.matmul(g[rows], cols.transpose(0, 2, 1), out=gw[rows])
            param_grads[(node.id, "w")] = gw.sum(axis=0).reshape(w.shape)
            if "b" in node.params:
                param_grads[(node.id, "b")] = g.sum(axis=(0, 2))
        if not input_grad:
            return [None]
        return [_conv_input_grad(grad, w, x.shape, stride, pad)]
    if k == "BatchNorm":
        xhat, inv, axes, shape = cache["xhat"], cache["inv"], cache["axes"], cache["shape"]
        gamma = node.params["gamma"]
        if param_grads is not None or cache["mode"] == "train":
            buf = grad * xhat  # train mode reuses it as scratch below
        if param_grads is not None:
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
        # np.where(mask, grad, 0.0) bit for bit without a branch per
        # entry: the gradient's bits ANDed with all ones or all zeros.
        # (grad * mask would keep the sign of a blocked negative entry
        # and turn a blocked inf into NaN.)
        gx = np.empty(grad.shape)
        bits = gx.view(np.int64)
        np.subtract(0, cache["mask"], out=bits, dtype=np.int64)
        np.bitwise_and(bits, grad.view(np.int64), out=bits)
        return [gx]
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
            # grad * 0 is -0.0 or NaN where np.where gave 0.0: the sums
            # are the same for every finite gradient
            block = share if share is not None else grad * (cache["idx"] == o)
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
    """Per maskable node (Conv2D/Dense/BatchNorm) that a mask reaches, a
    channel multiplier: the mask entry of the slot each output channel
    comes from, 1.0 for a channel of the graph input."""
    t = channel_provenance(g)
    mult = np.ones(len(t.gid) + 1)  # per slot, then slot -1
    for i, lid in enumerate(t.layers):
        if lid in masks:
            mult[t.start[i]:t.start[i + 1]] = masks[lid]
    vectors = {}
    for node in g.nodes.values():
        if node.kind in ("Dense", "Conv2D", "BatchNorm"):
            vec = mult[t.prov[node.id]]
            if (vec != 1.0).any():
                vectors[node.id] = vec
    return vectors


def forward(g: ModelGraph, x: np.ndarray, mode: str = "eval", seed: int = 0,
            masks: dict | None = None, keep_caches: bool = False,
            keep=None) -> ForwardPass:
    """Run the graph on a batch. ``masks`` (per-producer 0/1 channel
    vectors) are applied at conv/dense outputs and again at the
    downstream BatchNorm output, which is where scores are computed.

    ``keep`` names the nodes whose activations the caller reads. By
    default every activation is kept. With a ``keep`` set, the other
    activations are dropped once their last consumer has run, and
    ``activations`` holds only the kept nodes and the output. The
    ``keep_caches`` caches are unaffected: backward reads only those."""
    x = np.asarray(x, dtype=np.float64)
    expect = (x.shape[0],) + g.input_shape
    if x.shape != expect:
        raise ValueError(f"batch shape {x.shape} does not match input {expect}")
    rng = make_rng(seed)
    mask_vecs = _mask_vectors(g, masks) if masks else {}
    acts: dict = {}
    caches: dict = {}
    frees = {} if keep is None else _last_reads(g, set(keep) | {g.output_id})

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
        for dead in frees.get(node.id, ()):
            del acts[dead]
    return ForwardPass(output=acts[g.output_id], activations=acts,
                       caches=caches if keep_caches else {})


def _last_reads(g: ModelGraph, keep: set) -> dict:
    """Per node, the activations not in ``keep`` that are dead once it has
    run: those it is the last reader of, and its own if nothing reads it."""
    last = {}
    for node in g.nodes.values():
        last[node.id] = node.id
        for src in node.inputs:
            last[src] = node.id
    frees: dict = {}
    for nid, reader in last.items():
        if nid != INPUT and nid not in keep:
            frees.setdefault(reader, []).append(nid)
    return frees


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


EVAL_BATCH = 512


def evaluate(g: ModelGraph, dataset) -> float:
    """Top-1 accuracy in eval mode, in batches of ``EVAL_BATCH``. Argmax
    ties break toward the lowest class index. A label that is not a class
    of the model raises ``LabelError``."""
    x, y = dataset
    if len(x) == 0:
        raise ValueError("empty dataset")
    lid = logits_node(g)
    _check_labels(np.asarray(y), infer_shapes(g)[lid][0])
    hits = 0
    for i in range(0, len(x), EVAL_BATCH):
        logits = forward(g, x[i:i + EVAL_BATCH], keep=[lid]).activations[lid]
        hits += int(np.sum(np.argmax(logits, axis=1) == y[i:i + EVAL_BATCH]))
    return hits / len(x)


def backward(g: ModelGraph, x: np.ndarray, labels: np.ndarray,
             mode: str = "train", seed: int = 0):
    """Mean cross-entropy loss, plus gradients for every parameter and
    every node output. Returns (loss, param_grads, node_grads, fwd);
    ``fwd`` keeps the activations of the capture points, the logits and
    the output."""
    keep = [cap for cap, _ in capture_points(g)]
    return _backprop(g, x, labels, mode, seed, prob_floor=0.0, keep=keep,
                     grads=None)


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


def _backprop(g, x, labels, mode, seed, prob_floor, keep=(), grads=(),
              set_size=None, params=True):
    """Loss, parameter gradients, node gradients and the forward pass.
    ``grads`` names the nodes whose gradients are returned, or is None for
    every node's. Each node's cache is dropped once its backward has run,
    and each gradient not returned once its node has read it, so the step
    holds only the caches and gradients still to be read. A chunk of a
    larger set passes its ``set_size`` to divide the loss gradient by.
    With ``params`` off no parameter gradient is formed, and an empty
    dict is returned for them."""
    labels = np.asarray(labels, dtype=np.intp)
    lid = logits_node(g)
    fwd = forward(g, x, mode=mode, seed=seed, keep_caches=True,
                  keep=[lid, *keep])
    loss, dlogits = _softmax_loss(fwd.activations[lid], labels)
    if prob_floor:
        np.copyto(dlogits, 0.0, where=dlogits < prob_floor)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= set_size or len(labels)

    # Only ancestors of the logits ever receive a gradient; every other
    # node is skipped.
    wanted = None if grads is None else set(grads)
    node_grads: dict = {lid: dlogits}
    param_grads = {} if params else None
    for nid in reversed(g.nodes):
        cache = fwd.caches.pop(nid)
        if wanted is None or nid in wanted:
            grad = node_grads.get(nid)
        else:
            grad = node_grads.pop(nid, None)
        if grad is None:
            continue
        node = g.nodes[nid]
        in_grads = _backward_node(node, grad, cache, param_grads,
                                  input_grad=node.inputs != [INPUT])
        for src, ig in zip(node.inputs, in_grads):
            if src == INPUT:
                continue
            if src in node_grads:
                node_grads[src] = node_grads[src] + ig
            else:
                node_grads[src] = ig
    return loss, param_grads or {}, node_grads, fwd


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
        if node.kind in ("Add", "Concat", "Flatten"):
            return None  # several producers, or features past a Flatten
        src = node.inputs[0]
    return None


# Samples per capture pass, a forward or an eval-mode backward. Per sample
# the chunks match one pass over the set bit for bit: in eval mode a sample's
# pass reads only that sample, each chunk divides its loss gradient by the
# set's count, and the last chunk takes the remainder, whose few rows BLAS
# would round on other kernels (gemv for one row, small-matrix kernels).
CAPTURE_CHUNK = 64


def capture_activations(g: ModelGraph, samples: np.ndarray,
                        labels: np.ndarray | None = None,
                        want_grads: bool = False, seed: int = 0):
    """Eval-mode capture of post-BN / post-bias activations.

    Returns records, or (records, grad_records) when ``want_grads`` is
    set (which requires one label per sample for the loss). The samples
    run in chunks of ``CAPTURE_CHUNK``, each one ``forward`` or, with
    gradients, one backward of its share of the whole set's mean loss
    that forms no parameter gradient."""
    points = capture_points(g)
    caps = [cap for cap, _ in points]
    n = len(samples)
    if want_grads:  # every label, before the first chunk runs
        if labels is None or len(labels) != n:
            raise ValueError(f"gradient capture needs one label per sample: got "
                             f"{0 if labels is None else len(labels)} for {n} samples")
        _check_labels(np.asarray(labels, np.intp), infer_shapes(g)[logits_node(g)][0])
    values, grads = {}, {}
    chunks = max(1, n // CAPTURE_CHUNK)  # the last one takes the remainder
    for j in range(chunks):
        rows = slice(j * CAPTURE_CHUNK, n if j == chunks - 1 else (j + 1) * CAPTURE_CHUNK)
        if want_grads:
            _, _, chunk_grads, fwd = _backprop(
                g, samples[rows], labels[rows], "eval", seed, prob_floor=0.0,
                keep=caps, grads=caps, set_size=n, params=False)
        else:
            fwd, chunk_grads = forward(g, samples[rows], seed=seed, keep=caps), {}
        for whole, part in ((values, fwd.activations), (grads, chunk_grads)):
            for cap in filter(part.__contains__, caps):
                if chunks == 1:
                    whole[cap] = part[cap]
                else:
                    if j == 0:  # laid out as one pass would lay them out
                        whole[cap] = np.empty_like(
                            part[cap], shape=(n,) + part[cap].shape[1:])
                    whole[cap][rows] = part[cap]
        del fwd, chunk_grads, part  # before the next chunk's pass
    records = [ActivationRecord(layer_id=prod, capture_id=cap, values=values[cap])
               for cap, prod in points]
    if not want_grads:
        return records
    grads = [GradientRecord(layer_id=prod, capture_id=cap,
                            values=grads.get(cap, np.zeros_like(values[cap])))
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
    # the validation split never reaches the loss; refuse it before the
    # first epoch rather than in evaluate after it
    _check_labels(y, infer_shapes(g)[logits_node(g)][0])
    rng = make_rng(cfg.seed)
    perm = rng.permutation(len(x))
    n_val = int(round(cfg.val_fraction * len(x)))
    if n_val == len(x):
        raise ValueError(f"val_fraction {cfg.val_fraction} of {len(x)} "
                         "samples leaves none to train on")
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    xtr, ytr = x[tr_idx], y[tr_idx]
    xval, yval = (x[val_idx], y[val_idx]) if n_val else (xtr, ytr)

    g = g.copy()
    velocity = {key: np.zeros_like(arr) for nid, name, arr in g.parameters()
                for key in [(nid, name)] if name not in ("mean", "var")}
    scratch = np.empty(max((v.size for v in velocity.values()), default=0))
    best_acc = -1.0  # below any accuracy, so epoch 0 always sets best
    since_best = 0
    history = []
    step_seed = cfg.seed + 1

    # Keep the step's freed buffers in the process. Per mallopt(3), glibc
    # raises its dynamic mmap threshold to the size of each mmapped block
    # freed (up to 32 MiB on 64-bit) and its trim threshold to twice that.
    # Freeing one untouched 16 MiB block lifts the first above every buffer
    # of a toy step, and the second above what one step frees, so the next
    # step takes those buffers back from the heap instead of mapping and
    # faulting them in again. Nothing is computed differently.
    np.empty(16 * 2**20, dtype=np.uint8)

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

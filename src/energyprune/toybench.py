"""Dataset generators and model builders for desk-scale experiments.

Includes the 4-class blob dataset and 3x1000 MLP used for the criterion
comparison, a zoo of miniature CNNs covering every structural pattern
(plain chain, residual add, inception concat, dense concat), and
shape-only builders for the five full-size reference architectures used
to calibrate the FLOPs/params counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import cross_entropy, forward, init_params, logits_node
from .graph import INPUT, LayerNode, ModelGraph
from .linalg import make_rng


@dataclass
class ToyDatasetSpec:
    classes: int = 4
    samples_per_class: int = 1000
    center_scale: float = 2.5
    std: float = 1.3
    seed: int = 0
    test_fraction: float = 0.25
    # explicit (k, 2) center layout; falls back to the symmetric corner
    # layout scaled by center_scale when omitted
    centers: tuple | None = None

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.std <= 0:
            raise ValueError("std must be positive")
        if self.centers is not None:
            arr = np.asarray(self.centers, dtype=float)
            if arr.shape != (self.classes, 2):
                raise ValueError("centers must have shape (classes, 2)")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _blob_centers(k: int, scale: float) -> np.ndarray:
    corners = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    if k <= 4:
        return scale * corners[:k]
    angles = 2 * np.pi * np.arange(k) / k
    return scale * np.sqrt(2.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def gen_blobs(spec: ToyDatasetSpec) -> Dataset:
    """Gaussian blobs around fixed class centers; balanced labels;
    deterministic under the seed."""
    rng = make_rng(spec.seed)
    if spec.centers is not None:
        centers = spec.center_scale * np.asarray(spec.centers, dtype=float)
    else:
        centers = _blob_centers(spec.classes, spec.center_scale)
    n_test = int(round(spec.test_fraction * spec.samples_per_class))

    def draw(n):
        xs, ys = [], []
        for c in range(spec.classes):
            xs.append(centers[c] + spec.std * rng.normal(size=(n, 2)))
            ys.append(np.full(n, c, dtype=np.intp))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        perm = rng.permutation(len(x))
        return x[perm], y[perm]

    train_x, train_y = draw(spec.samples_per_class)
    test_x, test_y = draw(max(n_test, 1))
    return Dataset(train_x, train_y, test_x, test_y)


def gen_class_images(classes: int = 4, samples_per_class: int = 256,
                     shape=(3, 8, 8), noise: float = 0.6, seed: int = 0,
                     test_fraction: float = 0.25) -> Dataset:
    """Synthetic image classes: a fixed random template per class plus
    Gaussian noise. Deterministic under the seed."""
    rng = make_rng(seed)
    templates = rng.normal(size=(classes,) + tuple(shape))
    n_test = max(int(round(test_fraction * samples_per_class)), 1)

    def draw(n):
        xs, ys = [], []
        for c in range(classes):
            xs.append(templates[c] + noise * rng.normal(size=(n,) + tuple(shape)))
            ys.append(np.full(n, c, dtype=np.intp))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        perm = rng.permutation(len(x))
        return x[perm], y[perm]

    train_x, train_y = draw(samples_per_class)
    test_x, test_y = draw(n_test)
    return Dataset(train_x, train_y, test_x, test_y)


# --- builders -----------------------------------------------------------

def _dense(g, nid, src, n_in, n_out):
    return g.add(LayerNode(nid, "Dense", {"in": n_in, "out": n_out},
                           {"w": np.zeros((n_out, n_in)), "b": np.zeros(n_out)},
                           [src]))


def _conv(g, nid, src, c_in, c_out, k=3, stride=1, pad=1, bias=True):
    params = {"w": np.zeros((c_out, c_in, k, k))}
    if bias:
        params["b"] = np.zeros(c_out)
    return g.add(LayerNode(nid, "Conv2D",
                           {"in": c_in, "out": c_out, "k": k,
                            "stride": stride, "pad": pad,
                            "no_bias": not bias},
                           params, [src]))


def _bn(g, nid, src, c):
    return g.add(LayerNode(nid, "BatchNorm", {"channels": c, "eps": 1e-5},
                           {"gamma": np.ones(c), "beta": np.zeros(c),
                            "mean": np.zeros(c), "var": np.ones(c)}, [src]))


def _op(g, nid, kind, src, **attrs):
    srcs = src if isinstance(src, list) else [src]
    return g.add(LayerNode(nid, kind, attrs, {}, srcs))


def _cbr(g, name, src, c_in, c_out, k=3, stride=1, pad=1, bias=True):
    """conv + BN + ReLU; returns the ReLU node id."""
    _conv(g, f"{name}.conv", src, c_in, c_out, k, stride, pad, bias)
    _bn(g, f"{name}.bn", f"{name}.conv", c_out)
    _op(g, f"{name}.relu", "ReLU", f"{name}.bn")
    return f"{name}.relu"


def build_toy_mlp(k: int = 4, hidden: int = 1000, seed: int = 0) -> ModelGraph:
    """The 3x1000 MLP of the criterion-comparison experiment:
    Dense-ReLU-Dropout(0.5)-Dense-ReLU-Dense-ReLU-Dense(k)."""
    g = ModelGraph((2,))
    _dense(g, "fc1", INPUT, 2, hidden)
    _op(g, "relu1", "ReLU", "fc1")
    _op(g, "drop1", "Dropout", "relu1", p=0.5)
    _dense(g, "fc2", "drop1", hidden, hidden)
    _op(g, "relu2", "ReLU", "fc2")
    _dense(g, "fc3", "relu2", hidden, hidden)
    _op(g, "relu3", "ReLU", "fc3")
    _dense(g, "out", "relu3", hidden, k)
    return init_params(g, seed)


def build_toy_cnn_plain(k: int = 4, seed: int = 0) -> ModelGraph:
    g = ModelGraph((3, 8, 8))
    last = _cbr(g, "c1", INPUT, 3, 16)
    _op(g, "pool1", "MaxPool", last, k=2, stride=2)
    last = _cbr(g, "c2", "pool1", 16, 24)
    last = _cbr(g, "c3", last, 24, 24)
    _op(g, "pool2", "MaxPool", last, k=2, stride=2)
    last = _cbr(g, "c4", "pool2", 24, 32)
    _op(g, "gap", "GlobalAvgPool", last)
    _dense(g, "out", "gap", 32, k)
    return init_params(g, seed)


def build_toy_cnn_residual(k: int = 4, seed: int = 0) -> ModelGraph:
    g = ModelGraph((3, 8, 8))
    stem = _cbr(g, "stem", INPUT, 3, 16)
    _conv(g, "b1.conv1", stem, 16, 16)
    _bn(g, "b1.bn1", "b1.conv1", 16)
    _op(g, "b1.relu1", "ReLU", "b1.bn1")
    _conv(g, "b1.conv2", "b1.relu1", 16, 16)
    _bn(g, "b1.bn2", "b1.conv2", 16)
    _op(g, "b1.add", "Add", [stem, "b1.bn2"])
    _op(g, "b1.relu2", "ReLU", "b1.add")
    # downsampling block with a 1x1 projection shortcut
    _conv(g, "b2.conv1", "b1.relu2", 16, 32, stride=2)
    _bn(g, "b2.bn1", "b2.conv1", 32)
    _conv(g, "b2.proj", "b1.relu2", 16, 32, k=1, stride=2, pad=0)
    _bn(g, "b2.projbn", "b2.proj", 32)
    _op(g, "b2.add", "Add", ["b2.bn1", "b2.projbn"])
    _op(g, "b2.relu", "ReLU", "b2.add")
    _op(g, "gap", "GlobalAvgPool", "b2.relu")
    _dense(g, "out", "gap", 32, k)
    return init_params(g, seed)


def build_toy_cnn_inception(k: int = 4, seed: int = 0) -> ModelGraph:
    g = ModelGraph((3, 8, 8))
    stem = _cbr(g, "stem", INPUT, 3, 16)
    b1 = _cbr(g, "b1", stem, 16, 8, k=1, pad=0)
    mid = _cbr(g, "b2a", stem, 16, 8, k=1, pad=0)
    b2 = _cbr(g, "b2b", mid, 8, 16)
    b3 = _cbr(g, "b3", stem, 16, 8)
    _op(g, "cat", "Concat", [b1, b2, b3], axis=1)
    _op(g, "pool", "MaxPool", "cat", k=2, stride=2)
    _op(g, "flat", "Flatten", "pool")
    _op(g, "drop", "Dropout", "flat", p=0.3)
    _dense(g, "out", "drop", 32 * 4 * 4, k)
    _op(g, "softmax", "Softmax", "out")
    return init_params(g, seed)


def build_toy_densenet_cell(k: int = 4, seed: int = 0) -> ModelGraph:
    g = ModelGraph((3, 8, 8))
    x0 = _cbr(g, "c0", INPUT, 3, 8)
    l1 = _cbr(g, "d1", x0, 8, 4)
    _op(g, "cat1", "Concat", [x0, l1], axis=1)
    l2 = _cbr(g, "d2", "cat1", 12, 4)
    _op(g, "cat2", "Concat", [x0, l1, l2], axis=1)
    tr = _cbr(g, "trans", "cat2", 16, 8, k=1, pad=0)
    _op(g, "apool", "AvgPool", tr, k=2, stride=2)
    _op(g, "gap", "GlobalAvgPool", "apool")
    _dense(g, "out", "gap", 8, k)
    return init_params(g, seed)


ZOO_BUILDERS = {
    "toy-cnn-plain": build_toy_cnn_plain,
    "toy-cnn-residual": build_toy_cnn_residual,
    "toy-cnn-inception": build_toy_cnn_inception,
    "toy-densenet-cell": build_toy_densenet_cell,
}


def build_zoo(k: int = 4, seed: int = 0) -> dict:
    """Miniature graphs exercising every layer kind and every channel
    grouping pattern."""
    return {name: fn(k, seed) for name, fn in ZOO_BUILDERS.items()}


# --- reference architectures (shape-only, for complexity calibration) ---

VGG16_CFG = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
             512, 512, 512, "M", 512, 512, 512, "M"]


def build_vgg16bn() -> ModelGraph:
    g = ModelGraph((3, 32, 32))
    last = INPUT
    c_in = 3
    i = 0
    for v in VGG16_CFG:
        if v == "M":
            _op(g, f"pool{i}", "MaxPool", last, k=2, stride=2)
            last = f"pool{i}"
        else:
            last = _cbr(g, f"conv{i}", last, c_in, v)
            c_in = v
        i += 1
    _op(g, "flat", "Flatten", last)
    _dense(g, "fc1", "flat", 512, 512)
    _op(g, "fc1.relu", "ReLU", "fc1")
    _dense(g, "fc2", "fc1.relu", 512, 512)
    _op(g, "fc2.relu", "ReLU", "fc2")
    _dense(g, "out", "fc2.relu", 512, 10)
    return g


def _resnet_block(g, name, src, c_in, c_out, stride):
    _conv(g, f"{name}.conv1", src, c_in, c_out, stride=stride, bias=False)
    _bn(g, f"{name}.bn1", f"{name}.conv1", c_out)
    _op(g, f"{name}.relu1", "ReLU", f"{name}.bn1")
    _conv(g, f"{name}.conv2", f"{name}.relu1", c_out, c_out, bias=False)
    _bn(g, f"{name}.bn2", f"{name}.conv2", c_out)
    if stride != 1 or c_in != c_out:
        _conv(g, f"{name}.proj", src, c_in, c_out, k=1, stride=stride,
              pad=0, bias=False)
        _bn(g, f"{name}.projbn", f"{name}.proj", c_out)
        skip = f"{name}.projbn"
    else:
        skip = src
    _op(g, f"{name}.add", "Add", [skip, f"{name}.bn2"])
    _op(g, f"{name}.relu2", "ReLU", f"{name}.add")
    return f"{name}.relu2"


def build_resnet_cifar(depth: int) -> ModelGraph:
    if (depth - 2) % 6 != 0:
        raise ValueError("CIFAR ResNet depth must be 6n+2")
    n = (depth - 2) // 6
    g = ModelGraph((3, 32, 32))
    last = _cbr(g, "stem", INPUT, 3, 16, bias=False)
    c_in = 16
    for stage, width in enumerate((16, 32, 64)):
        for b in range(n):
            stride = 2 if stage > 0 and b == 0 else 1
            last = _resnet_block(g, f"s{stage}b{b}", last, c_in, width, stride)
            c_in = width
    _op(g, "gap", "GlobalAvgPool", last)
    _dense(g, "out", "gap", 64, 10)
    return g


def _inception(g, name, src, c_in, n1, n3r, n3, n5r, n5, pool_planes):
    """GoogLeNet-for-CIFAR inception cell: 1x1 / 1x1-3x3 / 1x1-3x3-3x3 /
    pool-1x1 branches, concatenated."""
    b1 = _cbr(g, f"{name}.b1", src, c_in, n1, k=1, pad=0, bias=False)
    m = _cbr(g, f"{name}.b2a", src, c_in, n3r, k=1, pad=0, bias=False)
    b2 = _cbr(g, f"{name}.b2b", m, n3r, n3, bias=False)
    m = _cbr(g, f"{name}.b3a", src, c_in, n5r, k=1, pad=0, bias=False)
    m = _cbr(g, f"{name}.b3b", m, n5r, n5, bias=False)
    b3 = _cbr(g, f"{name}.b3c", m, n5, n5, bias=False)
    _op(g, f"{name}.pool", "MaxPool", src, k=3, stride=1, pad=1)
    b4 = _cbr(g, f"{name}.b4", f"{name}.pool", c_in, pool_planes, k=1,
              pad=0, bias=False)
    _op(g, f"{name}.cat", "Concat", [b1, b2, b3, b4], axis=1)
    return f"{name}.cat", n1 + n3 + n5 + pool_planes


def build_googlenet() -> ModelGraph:
    g = ModelGraph((3, 32, 32))
    last = _cbr(g, "pre", INPUT, 3, 192, bias=False)
    c = 192
    cells = [
        ("a3", 64, 96, 128, 16, 32, 32),
        ("b3", 128, 128, 192, 32, 96, 64),
        ("M", ),
        ("a4", 192, 96, 208, 16, 48, 64),
        ("b4", 160, 112, 224, 24, 64, 64),
        ("c4", 128, 128, 256, 24, 64, 64),
        ("d4", 112, 144, 288, 32, 64, 64),
        ("e4", 256, 160, 320, 32, 128, 128),
        ("M", ),
        ("a5", 256, 160, 320, 32, 128, 128),
        ("b5", 384, 192, 384, 48, 128, 128),
    ]
    pool_i = 0
    for cell in cells:
        if cell[0] == "M":
            _op(g, f"mpool{pool_i}", "MaxPool", last, k=2, stride=2)
            last = f"mpool{pool_i}"
            pool_i += 1
        else:
            name, n1, n3r, n3, n5r, n5, pp = cell
            last, c = _inception(g, name, last, c, n1, n3r, n3, n5r, n5, pp)
    _op(g, "gap", "GlobalAvgPool", last)
    _dense(g, "out", "gap", c, 10)
    return g


def build_densenet40(growth: int = 12) -> ModelGraph:
    g = ModelGraph((3, 32, 32))
    c = 2 * growth
    _conv(g, "conv0", INPUT, 3, c, bias=False)
    last = "conv0"
    for block in range(3):
        for layer in range(12):
            name = f"b{block}l{layer}"
            _bn(g, f"{name}.bn", last, c)
            _op(g, f"{name}.relu", "ReLU", f"{name}.bn")
            _conv(g, f"{name}.conv", f"{name}.relu", c, growth, bias=False)
            _op(g, f"{name}.cat", "Concat", [last, f"{name}.conv"], axis=1)
            last = f"{name}.cat"
            c += growth
        if block < 2:
            name = f"t{block}"
            _bn(g, f"{name}.bn", last, c)
            _op(g, f"{name}.relu", "ReLU", f"{name}.bn")
            _conv(g, f"{name}.conv", f"{name}.relu", c, c, k=1, pad=0, bias=False)
            _op(g, f"{name}.pool", "AvgPool", f"{name}.conv", k=2, stride=2)
            last = f"{name}.pool"
    _bn(g, "final.bn", last, c)
    _op(g, "final.relu", "ReLU", "final.bn")
    _op(g, "gap", "GlobalAvgPool", "final.relu")
    _dense(g, "out", "gap", c, 10)
    return g


REFERENCE_BUILDERS = {
    "vgg16bn": build_vgg16bn,
    "resnet56": lambda: build_resnet_cifar(56),
    "resnet110": lambda: build_resnet_cifar(110),
    "googlenet": build_googlenet,
    "densenet40": build_densenet40,
}


def build_reference_arch(name: str) -> ModelGraph:
    """Full-size architecture for complexity counting only."""
    try:
        return REFERENCE_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown architecture {name!r}; "
                         f"choose from {sorted(REFERENCE_BUILDERS)}") from None


# --- easy/hard sample selection -----------------------------------------

SELECT_BATCHES = 10


def select_by_loss(g: ModelGraph, dataset, mode: str, batch_size: int,
                   seed: int = 0):
    """Among the first ``SELECT_BATCHES`` seed-deterministic batches, the one
    with the lowest (easy) or highest (hard) mean loss. Ties break
    toward the lowest batch index."""
    if mode not in ("easy", "hard"):
        raise ValueError("mode must be 'easy' or 'hard'")
    x, y = dataset
    perm = make_rng(seed).permutation(len(x))
    lid = logits_node(g)
    losses = []
    batches = []
    for b in range(SELECT_BATCHES):
        idx = perm[b * batch_size:(b + 1) * batch_size]
        if len(idx) == 0:
            break
        logits = forward(g, x[idx]).activations[lid]
        losses.append(cross_entropy(logits, y[idx]))
        batches.append(idx)
    losses = np.array(losses)
    pick = int(np.argmin(losses)) if mode == "easy" else int(np.argmax(losses))
    idx = batches[pick]
    return x[idx], y[idx]

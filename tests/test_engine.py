"""Execution engine: forward/backward correctness, capture, training."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from energyprune import engine
from energyprune.engine import (_PROB_FLOOR, DivergenceError, LabelError,
                                TrainConfig, _backprop, _backward_node, _forward_node,
                                backward, capture_activations, capture_points,
                                cross_entropy, forward, init_params,
                                logits_node, train)
from energyprune.criteria import compute_scores
from energyprune.graph import INPUT, LayerNode, ModelGraph
from energyprune.linalg import make_rng
from energyprune.metrics import evaluate
from energyprune.pruner import PruningSpec, execute, plan
from energyprune.toybench import (ZOO_BUILDERS, ToyDatasetSpec,
                                  build_reference_arch, build_toy_cnn_plain,
                                  build_toy_cnn_residual, build_toy_mlp,
                                  gen_blobs, gen_class_images)
from helpers import (KIND_CONFIGS, _bn, _conv, _dense, _finish, _op,
                     fd_max_rel_err, reference_avgpool, reference_avgpool_grad,
                     reference_batchnorm, reference_batchnorm_grad,
                     reference_conv_input_grad, reference_maxpool,
                     reference_maxpool_grad, reference_relu,
                     reference_relu_grad, reference_sgd_step,
                     whole_batch_conv)


@pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
def test_gradients_match_finite_differences(kind):
    g, x, y = KIND_CONFIGS[kind][0]()
    assert fd_max_rel_err(g, x, y, h=1e-5) < 1e-4


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 2, 0)],
                         ids=["k3s1p1", "k3s2p1", "k1s2p0"])
def test_conv_input_gradient_matches_finite_differences(k, stride, pad, bias):
    # the first conv's weights see the loss only through the second
    # conv's input gradient, which the single-conv fixtures never reach
    # (backward drops the gradient of the graph input)
    g = ModelGraph((2, 6, 5))
    _conv(g, "c1", INPUT, 2, 3)
    _conv(g, "c2", "c1", 3, 4, k=k, stride=stride, pad=pad, bias=bias)
    _op(g, "gap", "GlobalAvgPool", "c2")
    _dense(g, "out", "gap", 4, 3)
    g, x, y = _finish(g, 40 + 2 * k + stride + pad)
    assert fd_max_rel_err(g, x, y, h=1e-5) < 1e-4


# a max-pool window of only padding (pad > k // 2) has no input to pick
@pytest.mark.parametrize("k,stride,pad,kind", [
    (k, stride, pad, kind) for k in (1, 2, 3) for stride in (1, 2)
    for pad in (0, 1) for kind in ("Conv2D", "AvgPool", "MaxPool")
    if kind != "MaxPool" or pad <= k // 2])
def test_window_backward_is_the_adjoint_of_forward(k, stride, pad, kind):
    # <f(x), g> = <x, f^T(g)> for the linear conv and average pool; max
    # pooling is linear too once its argmax is fixed
    rng = make_rng(100 * k + 10 * stride + pad)
    attrs = {"k": k, "stride": stride, "pad": pad}
    params = {}
    if kind == "Conv2D":
        attrs.update({"in": 3, "out": 4})
        params["w"] = rng.normal(size=(4, 3, k, k))
    node = LayerNode("n", kind, attrs, params, [INPUT])
    x = rng.normal(size=(2, 3, 7, 5))
    cache: dict = {}
    out = _forward_node(node, [x], "eval", None, cache)
    g = rng.normal(size=out.shape)
    (gx,) = _backward_node(node, g, cache, {})
    assert gx.shape == x.shape
    lhs, rhs = np.vdot(out, g), np.vdot(x, gx)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(out) * np.linalg.norm(g)


def test_conv_input_gradient_matches_the_scatter_reference():
    # every k, stride and pad <= k // 2 on non-square maps; for stride > 1
    # both extents leave a remainder row that no window reaches
    cases = [(k, stride, pad, c, cout) for k in (1, 2, 3, 5)
             for stride in (1, 2, 3) for pad in range(k // 2 + 1)
             for c, cout in ((1, 3), (4, 2))]
    for i, (k, stride, pad, c, cout) in enumerate(cases):
        rng = make_rng(500 + i)
        h = k - 2 * pad + 3 * stride - 1
        if stride > 1:
            assert (h + 2 * pad - k) % stride and (h + 2 + 2 * pad - k) % stride
        x = rng.normal(size=(2, c, h, h + 2))
        w = rng.normal(size=(cout, c, k, k))
        node = LayerNode("n", "Conv2D", {"in": c, "out": cout, "k": k,
                                         "stride": stride, "pad": pad},
                         {"w": w}, [INPUT])
        cache: dict = {}
        grad = rng.normal(size=_forward_node(node, [x], "eval", None, cache).shape)
        (gx,) = _backward_node(node, grad, cache, {})
        ref = reference_conv_input_grad(grad, w, x.shape, stride, pad)
        assert gx.shape == x.shape
        assert np.max(np.abs(gx - ref)) <= 1e-13 * np.max(np.abs(ref)), \
            (k, stride, pad, c, cout)


def _channel_last(x):
    """x's values laid out as a conv output: (N, H, W, C) in memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# every class of float64: NaN, infinities, signed zeros and subnormals
_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                      2.5e-310, -2.5e-310, 1.0, -1.0])


def test_relu_matches_the_reference_bit_for_bit():
    # lengths 1-40 reach every tail of numpy's vector loops; the layouts
    # are a Dense output, an NCHW map, a conv output (channel-last) and a
    # strided view
    node = LayerNode("r", "ReLU", {}, {}, [INPUT])
    for n in range(1, 41):
        rng = make_rng(900 + n)

        def draw(shape):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            special = rng.random(shape) < 0.5
            x[special] = rng.choice(_SPECIALS, size=np.count_nonzero(special))
            return x

        x = draw((2, n, 3, 2))
        layouts = {"dense": draw((1, n)), "nchw": x,
                   "channel-last": _channel_last(x),
                   "strided": draw((2, 2 * n, 3, 4))[:, ::2, :, ::2]}
        for layout, x in layouts.items():
            cache: dict = {}
            out = _forward_node(node, [x], "train", None, cache)
            ref = reference_relu(x)
            assert np.array_equal(_bits(out), _bits(ref)), (layout, n)
            assert out.strides == ref.strides, (layout, n)
            assert cache["mask"].flags.c_contiguous, (layout, n)
            grad = draw(x.shape)
            grads = {"c-order": grad}
            if x.ndim == 4:
                grads["channel-last"] = _channel_last(grad)
            for order, grad in grads.items():
                (gx,) = _backward_node(node, grad, cache, {})
                ref_gx = reference_relu_grad(grad, x)
                case = (layout, order, n)
                assert np.array_equal(_bits(gx), _bits(ref_gx)), case
                assert gx.flags.c_contiguous, case


def _pool_input(rng, kind, shape):
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(float)
    x = rng.normal(size=shape)
    if kind == "-inf":
        x[rng.random(shape) < 0.3] = -np.inf
    return x


def test_pools_match_the_reference_bit_for_bit():
    # every k, stride and pad <= k // 2 on non-square maps, with random,
    # tied (integer-valued) and -inf inputs, contiguous and channel-last
    # (a conv output's order) under NCHW-ordered gradients, as training
    # feeds them
    cases = [(k, stride, pad, data) for k in (1, 2, 3) for stride in (1, 2, 3)
             for pad in range(k // 2 + 1) for data in ("normal", "ties", "-inf")]
    for i, (k, stride, pad, data) in enumerate(cases):
        rng = make_rng(700 + i)
        x = _pool_input(rng, data, (2, 3, 7, 5))
        layouts = {"nchw": x, "channel-last": _channel_last(x)}
        attrs = {"k": k, "stride": stride, "pad": pad}
        for kind, layout in [(kind, layout) for kind in ("MaxPool", "AvgPool")
                             for layout in layouts]:
            x = layouts[layout]
            node = LayerNode("p", kind, attrs, {}, [INPUT])
            cache: dict = {}
            out = _forward_node(node, [x], "train", None, cache)
            grad = rng.normal(size=out.shape)
            (gx,) = _backward_node(node, grad, cache, {})
            if kind == "MaxPool":
                ref, idx = reference_maxpool(x, k, stride, pad)
                ref_gx = reference_maxpool_grad(grad, idx, x.shape, k, stride, pad)
            else:
                ref = reference_avgpool(x, k, stride, pad)
                ref_gx = reference_avgpool_grad(grad, x.shape, k, stride, pad)
            case = (kind, layout, k, stride, pad, data)
            assert np.array_equal(out, ref), case
            assert out.strides == ref.strides, case
            assert np.array_equal(gx, ref_gx), case
            assert gx.strides == ref_gx.strides, case


@pytest.mark.parametrize("k", [2, 4, 9, 13])
def test_avgpool_keeps_numpys_summation_order_for_wide_windows(k):
    # k = 2 sums its four maps inline; 16 and 81 terms take numpy's eight
    # running sums, 169 two halves of 80 and 89. About a third of the
    # inputs are -0.0, and one window holds nothing else
    rng = make_rng(800 + k)
    shape = (2, 3, k + 3, k + 2)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    x[rng.random(shape) < 0.3] = -0.0
    x[0, 0, :k, :k] = -0.0
    for x in (x, _channel_last(x)):
        node = LayerNode("p", "AvgPool", {"k": k, "stride": 1, "pad": 0}, {}, [INPUT])
        out = _forward_node(node, [x], "train", None, {})
        ref = reference_avgpool(x, k, 1, 0)
        assert np.array_equal(_bits(out), _bits(ref)) and out.strides == ref.strides


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("layout", ["dense", "nchw", "channel-last"])
def test_batchnorm_matches_the_reference_bit_for_bit(mode, layout):
    # a conv output reaches BatchNorm as a channel-last view, so the
    # order of its reductions must not change with the layout either
    rng = make_rng({"dense": 1, "nchw": 2, "channel-last": 3}[layout])
    c = 4
    if layout == "dense":
        x = rng.normal(size=(9, c)) * 3 + 1
    elif layout == "nchw":
        x = rng.normal(size=(3, c, 5, 6)) * 3 + 1
    else:
        x = (rng.normal(size=(3, 5, 6, c)) * 3 + 1).transpose(0, 3, 1, 2)
    params = {"gamma": rng.normal(size=c), "beta": rng.normal(size=c),
              "mean": rng.normal(size=c), "var": rng.random(c) + 0.5}
    node = LayerNode("bn", "BatchNorm", {"channels": c, "eps": 1e-5},
                     {name: a.copy() for name, a in params.items()}, [INPUT])
    cache: dict = {}
    out = _forward_node(node, [x], mode, None, cache)
    ref, xhat, inv = reference_batchnorm(x, params, mode)
    assert np.array_equal(out, ref) and out.strides == ref.strides
    for name in ("mean", "var"):
        assert np.array_equal(node.params[name], params[name]), name
    for grad in (rng.normal(size=out.shape), rng.normal(size=out.shape[::-1]).T):
        pgrads: dict = {}
        (gx,) = _backward_node(node, grad, cache, pgrads)
        ref_gx, ggamma, gbeta = reference_batchnorm_grad(grad, xhat, inv,
                                                         params["gamma"], mode)
        assert np.array_equal(gx, ref_gx) and gx.strides == ref_gx.strides
        assert np.array_equal(pgrads[("bn", "gamma")], ggamma)
        assert np.array_equal(pgrads[("bn", "beta")], gbeta)


def test_sgd_steps_match_the_reference_bit_for_bit(blobs):
    # two steps of one epoch, so the second one reads a nonzero velocity;
    # Dense and BatchNorm parameters are both updated
    g = ModelGraph((2,))
    _dense(g, "h", INPUT, 2, 6)
    _bn(g, "bn", "h", 6)
    _op(g, "r", "ReLU", "bn")
    _dense(g, "out", "r", 6, 4)
    init_params(g, 3)
    x, y = blobs.train_x[:50], blobs.train_y[:50]
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-2,
                      schedule="constant", max_epochs=1, batch_size=25,
                      seed=4, val_fraction=0.0)
    trained, _ = train(g, (x, y), cfg)

    ref = g.copy()
    rng = make_rng(cfg.seed)
    perm = rng.permutation(len(x))  # no validation split: all of it trains
    x, y, order = x[perm], y[perm], rng.permutation(len(x))
    params = {(nid, name): a for nid, name, a in ref.parameters()
              if name not in ("mean", "var")}
    velocity = {key: np.zeros_like(a) for key, a in params.items()}
    for step, i in enumerate(range(0, len(x), cfg.batch_size)):
        b = order[i:i + cfg.batch_size]
        _, grads, _, _ = backward(ref, x[b], y[b], seed=cfg.seed + 1 + step)
        reference_sgd_step(params, velocity, grads, cfg.lr, cfg)
    for (n1, k1, a1), (n2, k2, a2) in zip(trained.parameters(), ref.parameters()):
        assert (n1, k1) == (n2, k2)
        assert np.array_equal(a1, a2), (n1, k1)


def _confident_graph():
    # logits 0, -600 and -700: softmax probabilities 1, ~3e-261, ~1e-304
    g = ModelGraph((2,))
    _dense(g, "h", INPUT, 2, 2)
    _dense(g, "out", "h", 2, 3)
    g.nodes["h"].params["w"] = np.eye(2)
    g.nodes["h"].params["b"] = np.zeros(2)
    g.nodes["out"].params["w"] = np.array([[0.0, 0.0], [-600.0, 0.0], [-700.0, 0.0]])
    g.nodes["out"].params["b"] = np.zeros(3)
    return g, np.array([[1.0, 0.0]]), np.array([0])


def test_training_step_flushes_tiny_probabilities_but_scoring_does_not():
    g, x, y = _confident_graph()
    _, _, raw, _ = backward(g, x, y)
    _, _, flushed, _ = _backprop(g, x, y, "train", 0, _PROB_FLOOR,
                                 grads=["out", "h"])
    assert 0 < raw["out"][0, 2] < raw["out"][0, 1] < 1e-250
    assert raw["h"][0, 0] < 0
    assert flushed["out"][0, 1] == flushed["out"][0, 2] == 0.0
    assert flushed["h"][0, 0] == 0.0
    assert np.array_equal(raw["out"][:, 0], flushed["out"][:, 0])
    _, grads = capture_activations(g, x, labels=y, want_grads=True)
    assert [r.capture_id for r in grads] == ["h"]
    assert np.array_equal(grads[0].values, raw["h"])


def test_conv_reading_the_graph_input_gets_the_same_parameter_gradients():
    # backward skips the input gradient of a conv that reads the graph
    # input; behind an identity (p = 0 Dropout) the conv computes it and
    # the gradient is dropped one node later
    def build(identity):
        g = ModelGraph((3, 7, 6))
        if identity:
            _op(g, "id", "Dropout", INPUT, p=0.0)
        _conv(g, "c1", "id" if identity else INPUT, 3, 4, stride=2)
        _bn(g, "bn", "c1", 4)
        _op(g, "r", "ReLU", "bn")
        _conv(g, "c2", "r", 4, 5)
        _op(g, "gap", "GlobalAvgPool", "c2")
        _dense(g, "out", "gap", 5, 3)
        return _finish(g, 61)

    g, x, y = build(False)
    g_id, _, _ = build(True)
    _, direct, node_grads, _ = backward(g, x, y)
    _, behind, node_grads_id, _ = backward(g_id, x, y)
    assert direct.keys() == behind.keys()
    for key in direct:
        assert np.array_equal(direct[key], behind[key]), key
    for nid in node_grads:
        assert np.array_equal(node_grads[nid], node_grads_id[nid]), nid
    assert node_grads_id["id"].shape == x.shape


@pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (2, 2, 1), (3, 1, 1),
                                          (3, 2, 0)])
def test_conv_forward_is_the_direct_sum(k, stride, pad):
    # out[n, o, a, b] = b[o] + sum over c, i, j of
    #                   w[o, c, i, j] * x_padded[n, c, stride*a + i, stride*b + j]
    rng = make_rng(7 * k + stride + pad)
    w = rng.normal(size=(4, 3, k, k))
    bias = rng.normal(size=4)
    node = LayerNode("n", "Conv2D", {"in": 3, "out": 4, "k": k,
                                     "stride": stride, "pad": pad},
                     {"w": w, "b": bias}, [INPUT])
    x = rng.normal(size=(2, 3, 7, 5))
    out = _forward_node(node, [x], "eval", None, {})
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = out.shape[2:]
    ref = np.broadcast_to(bias[:, None, None], out.shape).copy()
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            ref += np.einsum("oc,ncab->noab", w[:, :, i, j], patch)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("layout", ["nchw", "channel-last"])
@pytest.mark.parametrize("per_chunk", [1, 3, None],
                         ids=["1-sample", "3-samples", "whole-batch"])
@pytest.mark.parametrize("k,stride,pad", [(k, stride, pad) for k in (1, 3)
                                          for stride in (1, 2) for pad in (0, 1)])
def test_chunked_conv_matches_the_whole_batch_bit_for_bit(monkeypatch, k, stride,
                                                         pad, per_chunk, layout):
    # 7 samples: chunks of 3 leave a remainder of 1
    rng = make_rng(11 * k + 3 * stride + pad)
    n, c, cout, h, wd = 7, 32, 8, 9, 8
    ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1

    def batch(ch, hh, ww):
        # a conv's output and what ReLU and BatchNorm make of it, forward
        # and backward, have a channel-last memory layout
        if layout == "nchw":
            return rng.normal(size=(n, ch, hh, ww))
        return rng.normal(size=(n, hh * ww, ch)).transpose(0, 2, 1).reshape(n, ch, hh, ww)

    x, grad = batch(c, h, wd), batch(cout, ho, wo)
    w, b = rng.normal(size=(cout, c, k, k)), rng.normal(size=cout)
    want = whole_batch_conv(x, w, b, grad, stride, pad)
    monkeypatch.setattr(engine, "_CONV_BLOCK_BYTES",
                        8 * c * k * k * ho * wo * per_chunk if per_chunk else 2**40)
    node = LayerNode("c", "Conv2D", {"in": c, "out": cout, "k": k,
                                     "stride": stride, "pad": pad},
                     {"w": w, "b": b}, ["prev"])
    cache, pgrads = {}, {}
    out = _forward_node(node, [x], "train", None, cache)
    (gx,) = _backward_node(node, grad, cache, pgrads)
    got = out, pgrads[("c", "w")], pgrads[("c", "b")], gx
    for name, a, ref in zip(("output", "weight", "bias", "input"), got, want):
        assert a.shape == ref.shape and a.tobytes() == ref.tobytes(), name


def test_single_dense_gradient_closed_form():
    g = ModelGraph((3,))
    _dense(g, "out", INPUT, 3, 2)
    init_params(g, 5)
    rng = make_rng(9)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    loss, pgrads, _, fwd = backward(g, x, y)
    logits = fwd.activations["out"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    d = p.copy()
    d[np.arange(6), y] -= 1.0
    d /= 6
    assert np.allclose(pgrads[("out", "w")], d.T @ x)
    assert np.allclose(pgrads[("out", "b")], d.sum(axis=0))


def test_batchnorm_eval_uses_running_stats():
    g = ModelGraph((1,))
    _dense(g, "id", INPUT, 1, 1)
    g.nodes["id"].params["w"] = np.array([[1.0]])
    g.nodes["id"].params["b"] = np.array([0.0])
    _bn(g, "bn", "id", 1)
    g.nodes["bn"].params["gamma"] = np.array([2.0])
    g.nodes["bn"].params["beta"] = np.array([1.0])
    g.nodes["bn"].params["mean"] = np.array([1.0])
    g.nodes["bn"].params["var"] = np.array([1.0])
    out = forward(g, np.array([[4.0]])).output
    # gamma * (x - mean) / sqrt(var + eps) + beta
    assert out[0, 0] == pytest.approx(2.0 * 3.0 / np.sqrt(1.0 + 1e-5) + 1.0,
                                      rel=1e-12)


def test_batchnorm_train_normalizes_batch():
    g = ModelGraph((2, 3, 3))
    _bn(g, "bn", INPUT, 2)
    x = make_rng(3).normal(size=(5, 2, 3, 3)) * 4 + 2
    out = forward(g, x, mode="train").output
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)
    # running stats moved toward the batch statistics
    assert not np.allclose(g.nodes["bn"].params["mean"], 0.0)


def test_dropout_eval_is_identity_and_train_is_seeded():
    g = ModelGraph((8,))
    _op(g, "d", "Dropout", INPUT, p=0.5)
    x = make_rng(4).normal(size=(3, 8))
    assert np.array_equal(forward(g, x).output, x)
    a = forward(g, x, mode="train", seed=11).output
    b = forward(g, x, mode="train", seed=11).output
    assert np.array_equal(a, b)
    kept = a != 0
    assert np.allclose(a[kept], 2.0 * x[kept])  # 1/(1-p) scaling


def test_forward_rejects_wrong_batch_shape():
    g = build_toy_mlp(hidden=4)
    with pytest.raises(ValueError):
        forward(g, np.zeros((2, 3)))


def test_masked_forward_zeroes_channels():
    g = build_toy_cnn_plain(seed=1)
    x = make_rng(2).normal(size=(3, 3, 8, 8))
    mask = np.ones(24)
    mask[[1, 7]] = 0.0
    fwd = forward(g, x, masks={"c2.conv": mask})
    assert np.all(fwd.activations["c2.conv"][:, [1, 7]] == 0)
    assert np.all(fwd.activations["c2.bn"][:, [1, 7]] == 0)
    assert np.any(fwd.activations["c2.conv"][:, 0] != 0)


def test_cross_entropy_value_and_validation():
    logits = np.array([[0.0, np.log(3.0)]])
    # softmax = [1/4, 3/4]
    assert cross_entropy(logits, np.array([1])) == pytest.approx(np.log(4 / 3))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([2]))


def test_saturated_logits_give_vanishing_gradients():
    g = ModelGraph((2,))
    _dense(g, "out", INPUT, 2, 2)
    g.nodes["out"].params["w"] = np.array([[30.0, 0.0], [-30.0, 0.0]])
    g.nodes["out"].params["b"] = np.zeros(2)
    x = np.array([[1.0, 0.0]])
    loss, pgrads, _, _ = backward(g, x, np.array([0]))
    assert loss < 1e-20
    assert np.max(np.abs(pgrads[("out", "w")])) < 1e-20


def test_branch_off_the_logits_gets_no_gradient(blobs):
    # fc1 feeds both the logits and a Dense branch that reaches no output
    g = ModelGraph((2,))
    _dense(g, "fc1", INPUT, 2, 4)
    _op(g, "relu", "ReLU", "fc1")
    _dense(g, "side", "relu", 4, 3)
    _dense(g, "out", "relu", 4, 2)
    init_params(g, seed=0)
    x, y = blobs.train_x[:16], blobs.train_y[:16] % 2
    _, pgrads, node_grads, _ = backward(g, x, y)
    assert ("side", "w") not in pgrads and ("side", "b") not in pgrads
    assert "side" not in node_grads
    assert {("fc1", "w"), ("out", "w")} <= set(pgrads)

    before = {name: a.copy() for name, a in g.nodes["side"].params.items()}
    cfg = TrainConfig(max_epochs=2, batch_size=8, seed=0)
    trained, _ = train(g, (blobs.train_x[:32], blobs.train_y[:32] % 2), cfg)
    for name, a in trained.nodes["side"].params.items():
        assert np.array_equal(a, before[name])
    assert not np.array_equal(trained.nodes["fc1"].params["w"],
                              g.nodes["fc1"].params["w"])


def test_logits_node_skips_trailing_softmax():
    g = ModelGraph((3,))
    _dense(g, "out", INPUT, 3, 2)
    assert logits_node(g) == "out"
    _op(g, "sm", "Softmax", "out")
    assert logits_node(g) == "out"


class TestCapture:
    def test_mlp_hidden_dense_layers(self):
        g = build_toy_mlp(hidden=5)
        assert capture_points(g) == [("fc1", "fc1"), ("fc2", "fc2"),
                                     ("fc3", "fc3")]

    def test_cnn_batchnorms(self):
        g = build_toy_cnn_plain()
        assert capture_points(g) == [("c1.bn", "c1.conv"), ("c2.bn", "c2.conv"),
                                     ("c3.bn", "c3.conv"), ("c4.bn", "c4.conv")]

    def test_residual_traces_unique_producers(self):
        points = dict(capture_points(build_toy_cnn_residual()))
        assert points["b1.bn2"] == "b1.conv2"
        assert points["b2.projbn"] == "b2.proj"
        assert len(points) == 5

    def test_capture_stops_at_flatten(self):
        # bn2 runs over c's 3 channels flattened into 48 features, so its
        # activations are not channels of c
        g = ModelGraph((3, 4, 4))
        _conv(g, "c", INPUT, 3, 3)
        _bn(g, "bn", "c", 3)
        _op(g, "relu", "ReLU", "bn")
        _op(g, "flat", "Flatten", "relu")
        _bn(g, "bn2", "flat", 48)
        _dense(g, "out", "bn2", 48, 2)
        init_params(g, 0)
        assert capture_points(g) == [("bn", "c")]
        table = compute_scores(g, "nuclear", make_rng(0).normal(size=(6, 3, 4, 4)))
        pruned = execute(g, plan(g, table, PruningSpec(mode="per-layer",
                                                       ratio=0.4, protected=[])))
        assert pruned.nodes["bn2"].attrs["channels"] == 32

    def test_capture_shapes_and_eval_mode(self):
        g = build_toy_mlp(hidden=5)
        x = make_rng(1).normal(size=(7, 2))
        records = capture_activations(g, x)
        assert [r.layer_id for r in records] == ["fc1", "fc2", "fc3"]
        assert all(r.values.shape == (7, 5) for r in records)
        # pre-ReLU capture: fc1 output can be negative
        assert records[0].values.min() < 0

    def test_gradient_capture_needs_labels(self, monkeypatch):
        g = build_toy_mlp(hidden=5)
        x = make_rng(1).normal(size=(4, 2))
        with pytest.raises(ValueError):
            capture_activations(g, x, want_grads=True)
        # the labels are sliced chunk by chunk with the samples
        with pytest.raises(ValueError, match="got 3 for 4 samples"):
            capture_activations(g, x, want_grads=True, labels=np.array([0, 1, 2]))
        records, grads = capture_activations(g, x, want_grads=True,
                                             labels=np.array([0, 1, 2, 3]))
        assert [g_.layer_id for g_ in grads] == [r.layer_id for r in records]
        assert all(g_.values.shape == r.values.shape
                   for g_, r in zip(grads, records))
        # every label is checked before the first chunk runs
        x = make_rng(1).normal(size=(6, 2))
        monkeypatch.setattr(engine, "CAPTURE_CHUNK", 2)
        monkeypatch.setattr(engine, "_backprop", lambda *a, **k: pytest.fail(
            "a chunk ran before the labels were checked"))
        with pytest.raises(LabelError, match="span 0..7, the model has 4"):
            capture_activations(g, x, want_grads=True,
                                labels=np.array([0, 1, 2, 3, 0, 7]))

    def test_channel_matrix_layout(self):
        g = build_toy_cnn_plain()
        x = make_rng(1).normal(size=(5, 3, 8, 8))
        rec = capture_activations(g, x)[0]
        assert rec.n_samples == 5 and rec.n_channels == 16
        assert rec.channel_stack().shape == (16, 5, 64)
        assert np.array_equal(rec.channel_stack()[3],
                              rec.values[:, 3].reshape(5, -1))


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs(ToyDatasetSpec(samples_per_class=40, seed=0))


class TestTraining:
    def test_determinism(self, blobs):
        cfg = TrainConfig(max_epochs=3, batch_size=32, seed=1)
        g1, h1 = train(build_toy_mlp(hidden=8, seed=1),
                       (blobs.train_x, blobs.train_y), cfg)
        g2, h2 = train(build_toy_mlp(hidden=8, seed=1),
                       (blobs.train_x, blobs.train_y), cfg)
        assert h1 == h2
        for (n1, k1, a1), (n2, k2, a2) in zip(g1.parameters(), g2.parameters()):
            assert (n1, k1) == (n2, k2)
            assert np.array_equal(a1, a2)

    def test_zero_lr_is_a_noop(self, blobs):
        g = build_toy_mlp(hidden=8, seed=2)
        before = {(n, k): a.copy() for n, k, a in g.parameters()}
        cfg = TrainConfig(lr=0.0, weight_decay=0.0, max_epochs=2,
                          batch_size=32, seed=2)
        trained, _ = train(g, (blobs.train_x, blobs.train_y), cfg)
        for n, k, a in trained.parameters():
            if k in ("mean", "var"):
                continue  # BN running stats may still update
            assert np.array_equal(a, before[(n, k)])

    def test_history_and_learning(self, blobs):
        cfg = TrainConfig(max_epochs=5, batch_size=32, seed=0)
        g, history = train(build_toy_mlp(hidden=8, seed=0),
                           (blobs.train_x, blobs.train_y), cfg)
        assert len(history) <= 5
        epochs, losses, accs, lrs = zip(*history)
        assert epochs == tuple(range(len(history)))
        assert all(np.isfinite(losses))
        # cosine schedule decays from the configured lr
        assert lrs[0] == pytest.approx(cfg.lr)
        assert all(a <= b + 1e-12 for a, b in zip(lrs[1:], lrs))
        acc = evaluate(g, (blobs.test_x, blobs.test_y))
        assert acc > 0.5  # far above the 0.25 chance level

    def test_one_epoch_copies_the_model_twice(self, blobs, monkeypatch):
        # the working copy and epoch 0's best; the input graph's read-only
        # zero tensors are never written
        copies = []
        copy = ModelGraph.copy
        monkeypatch.setattr(ModelGraph, "copy",
                            lambda g: copies.append(g) or copy(g))
        g = ModelGraph((2,))
        _dense(g, "h", INPUT, 2, 8)
        _op(g, "r", "ReLU", "h")
        _dense(g, "out", "r", 8, 4)
        cfg = TrainConfig(max_epochs=1, batch_size=32, seed=0)
        best, history = train(g, (blobs.train_x, blobs.train_y), cfg)
        assert len(copies) == 2 and len(history) == 1
        assert np.any(best.nodes["out"].params["b"])
        for _, _, a in g.parameters():
            assert not a.flags.writeable and not np.any(a)

    def test_divergence_detected(self, blobs):
        g = build_toy_mlp(hidden=8, seed=0)
        g.nodes["fc1"].params["w"][:] = 1e200
        cfg = TrainConfig(max_epochs=2, batch_size=32, seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergenceError):
                train(g, (blobs.train_x, blobs.train_y), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for bad in (dict(lr=np.nan), dict(lr=np.inf), dict(weight_decay=-1.0),
                    dict(weight_decay=np.nan), dict(val_fraction=1.0),
                    dict(val_fraction=-0.5), dict(schedule="bogus"),
                    dict(max_epochs=0), dict(patience=-1)):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        TrainConfig(lr=0.0, weight_decay=0.0, val_fraction=0.0, patience=0,
                    max_epochs=1, schedule="constant")

    def test_label_out_of_range_in_the_validation_split(self, blobs):
        # the validation split never reaches the loss; train refuses it
        # before the first epoch, not after it in evaluate
        x, y = blobs.train_x[:40], blobs.train_y[:40].copy()
        cfg = TrainConfig(max_epochs=1, batch_size=32, seed=0)
        y[make_rng(cfg.seed).permutation(len(x))[0]] = 4
        with pytest.raises(LabelError, match="out of range"):
            train(build_toy_mlp(hidden=4), (x, y), cfg)

    def test_validation_split_of_every_sample_rejected(self, blobs):
        # round(0.9 * 3) = 3 samples once all went to validation, so no
        # step ran and every train_loss row was the nan mean of no loss
        x, y = blobs.train_x[:3], blobs.train_y[:3]
        cfg = TrainConfig(val_fraction=0.9, max_epochs=2, seed=0)
        with pytest.raises(ValueError, match="val_fraction 0.9 of 3"):
            train(build_toy_mlp(hidden=4), (x, y), cfg)

    def test_empty_dataset_rejected(self):
        g = build_toy_mlp(hidden=4)
        with pytest.raises(ValueError):
            train(g, (np.zeros((0, 2)), np.zeros(0, dtype=int)), TrainConfig())
        with pytest.raises(ValueError):
            evaluate(g, (np.zeros((0, 2)), np.zeros(0, dtype=int)))


# --- liveness and chunked capture ---------------------------------------

def _reference_activations(g, x):
    """Every node's eval-mode output, from one node at a time."""
    acts = {INPUT: x}
    for node in g.nodes.values():
        acts[node.id] = _forward_node(node, [acts[s] for s in node.inputs],
                                      "eval", None, {})
    del acts[INPUT]
    return acts


class TestLiveness:
    def test_default_keeps_every_activation(self):
        g = build_toy_cnn_residual(seed=2)
        x = make_rng(3).normal(size=(4, 3, 8, 8))
        acts = forward(g, x).activations
        ref = _reference_activations(g, x)
        assert list(acts) == list(ref) == list(g.nodes)
        for nid in ref:
            assert np.array_equal(acts[nid], ref[nid]), nid

    def test_keep_returns_exactly_the_kept_nodes_and_the_output(self):
        g = build_toy_cnn_residual(seed=2)
        x = make_rng(3).normal(size=(4, 3, 8, 8))
        full = forward(g, x).activations
        for keep in ([], ["b1.bn2"], ["b2.add", "stem.conv", "out"]):
            fwd = forward(g, x, keep=keep)
            assert set(fwd.activations) == set(keep) | {g.output_id}
            assert fwd.output is fwd.activations[g.output_id]
            for nid, a in fwd.activations.items():
                assert np.array_equal(a, full[nid]), nid

    def test_keep_leaves_the_backward_caches_alone(self):
        g = build_toy_cnn_residual(seed=2)
        x = make_rng(3).normal(size=(4, 3, 8, 8))
        a = forward(g, x, mode="train", keep_caches=True)
        b = forward(g, x, mode="train", keep_caches=True, keep=[])
        assert a.caches.keys() == b.caches.keys() == set(g.nodes)
        for nid, cache in a.caches.items():
            assert cache.keys() == b.caches[nid].keys(), nid
            for key, v in cache.items():
                if isinstance(v, np.ndarray):
                    assert np.array_equal(v, b.caches[nid][key]), (nid, key)

    def test_a_branch_nothing_reads_is_dropped(self, blobs):
        g = ModelGraph((2,))
        _dense(g, "fc1", INPUT, 2, 4)
        _dense(g, "side", "fc1", 4, 3)
        _dense(g, "out", "fc1", 4, 2)
        init_params(g, seed=0)
        assert set(forward(g, blobs.train_x[:4], keep=[]).activations) == {"out"}

    def test_backward_keeps_the_capture_points_and_the_logits(self):
        g = build_toy_cnn_residual(seed=2)
        x = make_rng(3).normal(size=(4, 3, 8, 8))
        fwd = backward(g, x, np.array([0, 1, 2, 3]))[3]
        caps = {cap for cap, _ in capture_points(g)}
        assert set(fwd.activations) == caps | {logits_node(g), g.output_id}


_CHUNK_MODELS = {"resnet56": lambda: init_params(build_reference_arch("resnet56"), 0),
                 "toy-mlp": lambda: build_toy_mlp(seed=0),
                 **{name: lambda b=b: b(4, 0) for name, b in ZOO_BUILDERS.items()}}


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", sorted(_CHUNK_MODELS))
def test_chunked_capture_equals_one_call(monkeypatch, name, n):
    g = _CHUNK_MODELS[name]()
    x = make_rng(n).normal(size=(n,) + g.input_shape)
    # gradients at n = 16 only: one 64-image ResNet-56 backward takes ~2.9 GB
    grads = {"labels": np.arange(n) % 4, "want_grads": True}
    for kw in [{}] + [grads] * (n == 16):
        monkeypatch.setattr(engine, "CAPTURE_CHUNK", n)
        whole = capture_activations(g, x, **kw)
        # uneven: 16 = 5 + 5 + 6, as the last chunk takes the remainder. A
        # lone 16th sample would change bits: BLAS computes a one-row matmul
        # (the MLP's layers, every model's logits) as a gemv, which rounds
        # otherwise.
        monkeypatch.setattr(engine, "CAPTURE_CHUNK", 5)
        chunked = capture_activations(g, x, **kw)
        if kw:  # the records, then the gradient records
            whole, chunked = whole[0] + whole[1], chunked[0] + chunked[1]
        assert [r.capture_id for r in chunked] == [r.capture_id for r in whole]
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.values, b.values), a.capture_id
            assert a.values.strides == b.values.strides, a.capture_id


def _train_digest(g, history):
    h = hashlib.sha256(repr(history).encode())
    for nid, name, a in g.parameters():
        h.update(f"{nid}/{name}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of the trained parameters and history. They were recorded with
# numpy 2.4.6 and scipy-openblas 0.3.31 on x86-64 before the activations
# became liveness-managed and before the strided input gradient became
# polyphase; both changes left every bit in place. Another BLAS kernel may
# round the GEMMs differently and so give other digests.
ZOO_TRAIN_SHA256 = {
    "toy-cnn-plain": "e7b8bfb42f4b91ac365db4633c1e7f79f7540e2e53535f1b45f47998f1b6ca4b",
    "toy-cnn-residual": "30b8026a7fd040a3e78e770c5e52fa59ceb145fa5d1247e0c7b39bd22bf4116f",
    "toy-cnn-inception": "e5072d778a5d9efd2fdd569032be6a7f2dcfa6efa24534b2e0bbe16b685c38b6",
    "toy-densenet-cell": "b8e2acb9337275480682faa1e68f872a7d8bb11f7a030d990961bea10f53c635",
}


def test_zoo_training_is_bit_identical_to_the_pinned_digests():
    data = gen_class_images(classes=4, samples_per_class=16, seed=0)
    cfg = TrainConfig(lr=0.02, max_epochs=3, patience=3, batch_size=16, seed=0)
    got = {name: _train_digest(*train(build(4, 0), (data.train_x, data.train_y),
                                      cfg))
           for name, build in ZOO_BUILDERS.items()}
    assert got == ZOO_TRAIN_SHA256


def test_resnet56_eval_forward_at_32x32_stays_under_200_mib():
    # keeping every activation traced 933 MiB here; the liveness-aware
    # forward 105 MiB
    g = init_params(build_reference_arch("resnet56"), 0)
    assert g.input_shape == (3, 32, 32)
    x = make_rng(0).normal(size=(64, 3, 32, 32))
    lid = logits_node(g)
    tracemalloc.start()
    try:
        logits = forward(g, x, keep=[lid]).activations[lid]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logits.shape == (64, 10)
    assert peak < 200 * 2**20, f"{peak / 2**20:.0f} MiB"


def test_backprop_returns_only_the_gradients_asked_for():
    g = build_toy_cnn_residual(seed=2)
    x = make_rng(3).normal(size=(8, 3, 8, 8))
    y = np.arange(8) % 4
    loss, pgrads, every, _ = backward(g, x, y, seed=5)
    assert set(every) == set(g.nodes)
    caps = [cap for cap, _ in capture_points(g)]
    for asked in ((), caps, ["b2.add", "stem.conv"]):
        got = _backprop(g, x, y, "train", 5, 0.0, grads=asked)
        assert got[0] == loss
        assert set(got[2]) == set(asked)
        for nid, grad in got[2].items():
            assert np.array_equal(grad, every[nid]), nid
        assert got[1].keys() == pgrads.keys()
        for key in pgrads:
            assert np.array_equal(got[1][key], pgrads[key]), key
        assert got[3].caches == {}
    # gradient capture's backward forms no parameter gradient, and its
    # node gradients keep their bits (train mode still runs BatchNorm's
    # scratch buffer)
    for mode in ("eval", "train"):
        want = _backprop(g, x, y, mode, 5, 0.0, grads=caps)
        got = _backprop(g, x, y, mode, 5, 0.0, grads=caps, params=False)
        assert got[0] == want[0] and got[1] == {} and want[1]
        assert got[2].keys() == want[2].keys()
        for nid, grad in got[2].items():
            assert grad.tobytes() == want[2][nid].tobytes(), (mode, nid)


@pytest.mark.parametrize("n,bound", [(16, 250), (64, 800)])
def test_resnet56_training_step_at_32x32_stays_under_bound(n, bound):
    # 16 images: holding every cache and node gradient to the end of the
    # step traced 859 MiB here, dropping each at its last read 651 MiB,
    # and caching each conv's input instead of its im2col columns
    # 147 MiB; 64 images then trace 584 MiB
    g = init_params(build_reference_arch("resnet56"), 0)
    x = make_rng(0).normal(size=(n, 3, 32, 32))
    y = np.arange(n) % 10
    tracemalloc.start()
    try:
        _, pgrads, node_grads, _ = _backprop(g, x, y, "train", 0, _PROB_FLOOR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert node_grads == {}
    assert len(pgrads) == sum(name not in ("mean", "var")
                              for _, name, _ in g.parameters())
    assert peak < bound * 2**20, f"{peak / 2**20:.0f} MiB"


def test_resnet56_gradient_capture_at_32x32_stays_under_300_mib():
    # a full backward kept every node's gradient and traced 925 MiB here;
    # keeping only the capture points' gradients, 717 MiB; caching each
    # conv's input instead of its im2col columns, 208 MiB
    g = init_params(build_reference_arch("resnet56"), 0)
    x = make_rng(0).normal(size=(16, 3, 32, 32))
    y = np.arange(16) % 10
    tracemalloc.start()
    try:
        records, grads = capture_activations(g, x, labels=y, want_grads=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == len(grads) == len(capture_points(g))
    assert peak < 300 * 2**20, f"{peak / 2**20:.0f} MiB"


def test_resnet56_gradient_capture_in_chunks_of_4_stays_under_250_mib(monkeypatch):
    # one backward over the 16 images traced 717 MiB here; 4 chunks of 4,
    # 319 MiB, and 186 MiB once convs cache their input instead of their
    # im2col columns; 133 MiB are the records and gradients
    monkeypatch.setattr(engine, "CAPTURE_CHUNK", 4)
    g = init_params(build_reference_arch("resnet56"), 0)
    x = make_rng(0).normal(size=(16, 3, 32, 32))
    y = np.arange(16) % 10
    tracemalloc.start()
    try:
        records, grads = capture_activations(g, x, labels=y, want_grads=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == len(grads) == len(capture_points(g))
    assert peak < 250 * 2**20, f"{peak / 2**20:.0f} MiB"

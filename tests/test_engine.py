"""Execution engine: forward/backward correctness, capture, training."""

import numpy as np
import pytest

from energyprune.engine import (_PROB_FLOOR, DivergenceError, LabelError,
                                TrainConfig, _backprop, _backward_node, _forward_node,
                                backward, capture_activations, capture_points,
                                cross_entropy, forward, init_params,
                                logits_node, train)
from energyprune.graph import INPUT, LayerNode, ModelGraph
from energyprune.linalg import make_rng
from energyprune.metrics import evaluate
from energyprune.toybench import (ToyDatasetSpec, build_toy_cnn_plain,
                                  build_toy_cnn_residual, build_toy_mlp,
                                  gen_blobs)
from helpers import (KIND_CONFIGS, _bn, _conv, _dense, _finish, _op,
                     fd_max_rel_err, reference_avgpool, reference_avgpool_grad,
                     reference_batchnorm, reference_batchnorm_grad,
                     reference_conv_input_grad, reference_maxpool,
                     reference_maxpool_grad, reference_sgd_step)


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


def _pool_input(rng, kind, shape):
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(float)
    x = rng.normal(size=shape)
    if kind == "-inf":
        x[rng.random(shape) < 0.3] = -np.inf
    return x


def test_pools_match_the_reference_bit_for_bit():
    # every k, stride and pad <= k // 2 on non-square maps, with random,
    # tied (integer-valued) and -inf inputs
    cases = [(k, stride, pad, data) for k in (1, 2, 3) for stride in (1, 2, 3)
             for pad in range(k // 2 + 1) for data in ("normal", "ties", "-inf")]
    for i, (k, stride, pad, data) in enumerate(cases):
        rng = make_rng(700 + i)
        x = _pool_input(rng, data, (2, 3, 7, 5))
        attrs = {"k": k, "stride": stride, "pad": pad}
        for kind in ("MaxPool", "AvgPool"):
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
            case = (kind, k, stride, pad, data)
            assert np.array_equal(out, ref), case
            assert out.strides == ref.strides, case
            assert np.array_equal(gx, ref_gx), case
            assert gx.strides == ref_gx.strides, case


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
    _, _, flushed, _ = _backprop(g, x, y, "train", 0, _PROB_FLOOR)
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

    def test_capture_shapes_and_eval_mode(self):
        g = build_toy_mlp(hidden=5)
        x = make_rng(1).normal(size=(7, 2))
        records = capture_activations(g, x)
        assert [r.layer_id for r in records] == ["fc1", "fc2", "fc3"]
        assert all(r.values.shape == (7, 5) for r in records)
        # pre-ReLU capture: fc1 output can be negative
        assert records[0].values.min() < 0

    def test_gradient_capture_needs_labels(self):
        g = build_toy_mlp(hidden=5)
        x = make_rng(1).normal(size=(4, 2))
        with pytest.raises(ValueError):
            capture_activations(g, x, want_grads=True)
        records, grads = capture_activations(g, x, want_grads=True,
                                             labels=np.array([0, 1, 2, 3]))
        assert [g_.layer_id for g_ in grads] == [r.layer_id for r in records]
        assert all(g_.values.shape == r.values.shape
                   for g_, r in zip(grads, records))

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
        # the validation split only meets evaluate, which would count the
        # label as a miss instead of refusing it
        x, y = blobs.train_x[:40], blobs.train_y[:40].copy()
        cfg = TrainConfig(max_epochs=1, batch_size=32, seed=0)
        y[make_rng(cfg.seed).permutation(len(x))[0]] = 4
        with pytest.raises(LabelError, match="out of range"):
            train(build_toy_mlp(hidden=4), (x, y), cfg)

    def test_empty_dataset_rejected(self):
        g = build_toy_mlp(hidden=4)
        with pytest.raises(ValueError):
            train(g, (np.zeros((0, 2)), np.zeros(0, dtype=int)), TrainConfig())
        with pytest.raises(ValueError):
            evaluate(g, (np.zeros((0, 2)), np.zeros(0, dtype=int)))

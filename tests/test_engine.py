"""Execution engine: forward/backward correctness, capture, training."""

import numpy as np
import pytest

from energyprune.engine import (DivergenceError, TrainConfig, backward,
                                capture_activations, capture_points,
                                cross_entropy, forward, init_params,
                                logits_node, train)
from energyprune.graph import INPUT, ModelGraph
from energyprune.linalg import make_rng
from energyprune.metrics import evaluate
from energyprune.toybench import (ToyDatasetSpec, build_toy_cnn_plain,
                                  build_toy_cnn_residual, build_toy_mlp,
                                  gen_blobs)
from helpers import KIND_CONFIGS, _bn, _conv, _dense, _op, fd_max_rel_err


@pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
def test_gradients_match_finite_differences(kind):
    g, x, y = KIND_CONFIGS[kind][0]()
    assert fd_max_rel_err(g, x, y, h=1e-5) < 1e-4


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
        assert rec.channel_matrix(3).shape == (5, 64)
        assert np.array_equal(rec.channel_matrix(3),
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

    def test_empty_dataset_rejected(self):
        g = build_toy_mlp(hidden=4)
        with pytest.raises(ValueError):
            train(g, (np.zeros((0, 2)), np.zeros(0, dtype=int)), TrainConfig())
        with pytest.raises(ValueError):
            evaluate(g, (np.zeros((0, 2)), np.zeros(0, dtype=int)))

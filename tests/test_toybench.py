"""Dataset generators and model builders."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from energyprune.engine import forward, init_params
from energyprune.graph import infer_shapes
from energyprune.linalg import make_rng
from energyprune.metrics import count_complexity
from energyprune.toybench import (REFERENCE_BUILDERS, ToyDatasetSpec,
                                  ZOO_BUILDERS, build_reference_arch,
                                  build_resnet_cifar, build_toy_mlp,
                                  build_zoo, gen_blobs, gen_class_images,
                                  select_by_loss)


class TestBlobs:
    def test_shapes_and_balance(self):
        data = gen_blobs(ToyDatasetSpec(samples_per_class=50, seed=0))
        assert data.train_x.shape == (200, 2)
        assert data.test_x.shape == (12 * 4, 2)  # round(0.25 * 50) per class
        assert np.bincount(data.train_y).tolist() == [50] * 4

    def test_deterministic_under_seed(self):
        a = gen_blobs(ToyDatasetSpec(samples_per_class=20, seed=5))
        b = gen_blobs(ToyDatasetSpec(samples_per_class=20, seed=5))
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)
        c = gen_blobs(ToyDatasetSpec(samples_per_class=20, seed=6))
        assert not np.array_equal(a.train_x, c.train_x)

    def test_explicit_centers(self):
        centers = ((0.0, 0.0), (10.0, 0.0))
        spec = ToyDatasetSpec(classes=2, samples_per_class=100, std=0.1,
                              center_scale=2.0, centers=centers, seed=0)
        data = gen_blobs(spec)
        c1 = data.train_x[data.train_y == 1].mean(axis=0)
        assert c1 == pytest.approx([20.0, 0.0], abs=0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ToyDatasetSpec(classes=1)
        with pytest.raises(ValueError):
            ToyDatasetSpec(std=0.0)
        with pytest.raises(ValueError):
            ToyDatasetSpec(classes=3, centers=((0, 0), (1, 1)))

    def test_more_than_four_classes(self):
        data = gen_blobs(ToyDatasetSpec(classes=6, samples_per_class=10))
        assert set(data.train_y) == set(range(6))


class TestClassImages:
    def test_shapes_and_determinism(self):
        a = gen_class_images(samples_per_class=10, seed=3)
        b = gen_class_images(samples_per_class=10, seed=3)
        assert a.train_x.shape == (40, 3, 8, 8)
        assert np.array_equal(a.train_x, b.train_x)

    def test_classes_are_separable_templates(self):
        data = gen_class_images(samples_per_class=20, noise=0.1, seed=0)
        means = [data.train_x[data.train_y == c].mean(axis=0)
                 for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 1.0


# sha256 of each generated dataset's train_x, train_y, test_x and test_y
# bytes, in that order, as the generators have drawn them
GENERATED_SHA256 = {
    "blobs": "b6a98bafeb7682a5fd39f28d0ac8130d160becae8bd300907dadb843df61d565",
    "blobs-6": "a0c687163687309798dea3b360f80063ba88b1fa6aa4e672fbb7c7131867ef63",
    "images": "f133caf3772afa17ab1ee5abf60fd11b047c3f515d3be7978e22f8ee94ea185c",
    "images-3": "315b80909d1e46bf96be9eb1148b1cbbbd2f97af7260245c6d2ee12eed0e5f02",
}


def test_generators_draw_the_pinned_arrays():
    data = {
        "blobs": gen_blobs(ToyDatasetSpec(samples_per_class=37, seed=3)),
        "blobs-6": gen_blobs(ToyDatasetSpec(classes=6, samples_per_class=9,
                                            test_fraction=0.5, seed=1)),
        "images": gen_class_images(samples_per_class=11, seed=4),
        "images-3": gen_class_images(classes=3, samples_per_class=5,
                                     shape=(2, 5, 5), noise=0.3, seed=2),
    }
    got = {name: hashlib.sha256(b"".join(
        a.tobytes() for a in (d.train_x, d.train_y, d.test_x, d.test_y))
    ).hexdigest() for name, d in data.items()}
    assert got == GENERATED_SHA256


class TestZoo:
    def test_builders_produce_valid_graphs(self):
        zoo = build_zoo(k=4, seed=0)
        assert set(zoo) == set(ZOO_BUILDERS)
        x = make_rng(0).normal(size=(2, 3, 8, 8))
        for name, g in zoo.items():
            shapes = infer_shapes(g)
            out = forward(g, x).output
            assert out.shape[0] == 2
            assert shapes[g.output_id][0] == 4

    def test_builder_init_is_seeded(self):
        a = ZOO_BUILDERS["toy-cnn-plain"](4, 7)
        b = ZOO_BUILDERS["toy-cnn-plain"](4, 7)
        for (n1, k1, p1), (n2, k2, p2) in zip(a.parameters(), b.parameters()):
            assert (n1, k1) == (n2, k2)
            assert np.array_equal(p1, p2)

    def test_mlp_topology(self):
        g = build_toy_mlp(k=4, hidden=1000)
        assert [n.kind for n in g.nodes.values()] == [
            "Dense", "ReLU", "Dropout", "Dense", "ReLU", "Dense", "ReLU",
            "Dense"]
        assert infer_shapes(g)["out"] == (4,)


class TestReferenceArchitectures:
    def test_all_build_and_infer(self):
        for name in REFERENCE_BUILDERS:
            g = build_reference_arch(name)
            shapes = infer_shapes(g)
            assert shapes[g.output_id] == (10,)

    @pytest.mark.parametrize("name", sorted(REFERENCE_BUILDERS))
    def test_building_allocates_no_layer_tensor(self, name):
        # zero-filled Dense/Conv2D tensors were ~201 MB over the five
        tracemalloc.start()
        try:
            build_reference_arch(name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_layer_tensors_are_read_only_zeros(self):
        for name in REFERENCE_BUILDERS:
            for node in build_reference_arch(name).nodes.values():
                a = node.attrs
                if node.kind == "Dense":
                    shapes = {"w": (a["out"], a["in"]), "b": (a["out"],)}
                elif node.kind == "Conv2D":
                    shapes = {"w": (a["out"], a["in"], a["k"], a["k"])}
                    if not a["no_bias"]:
                        shapes["b"] = (a["out"],)
                else:
                    # BatchNorm tensors are real arrays: a train-mode
                    # forward updates the running statistics in place
                    assert all(t.flags.writeable
                               for t in node.params.values()), node.id
                    continue
                assert {k: t.shape for k, t in node.params.items()} == shapes
                for t in node.params.values():
                    assert t.dtype == np.float64 and not t.flags.writeable
                    assert not np.any(t), node.id

    def test_copy_and_init_params_give_writeable_tensors(self):
        g = build_reference_arch("resnet56")
        with pytest.raises(ValueError):
            g.nodes["stem.conv"].params["w"][0] = 1.0
        with pytest.raises(ValueError):
            g.nodes["out"].params["b"] += 1.0
        c = g.copy()
        for (nid, name, a), (_, _, b) in zip(g.parameters(), c.parameters()):
            assert b.flags.writeable and b.flags.c_contiguous, (nid, name)
            assert np.array_equal(a, b)
        c.nodes["stem.conv"].params["w"][0] = 1.0
        assert not np.any(g.nodes["stem.conv"].params["w"])
        init_params(g, 0)
        assert all(t.flags.writeable for _, _, t in g.parameters())

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_reference_arch("alexnet")

    def test_resnet_depth_validation(self):
        with pytest.raises(ValueError):
            build_resnet_cifar(57)
        g = build_resnet_cifar(20)
        convs = [n for n in g.nodes.values() if n.kind == "Conv2D"
                 and "proj" not in n.id]
        assert len(convs) == 19  # stem + 18 block convs

    def test_vgg_structure(self):
        g = build_reference_arch("vgg16bn")
        convs = [n for n in g.nodes.values() if n.kind == "Conv2D"]
        denses = [n for n in g.nodes.values() if n.kind == "Dense"]
        assert len(convs) == 13 and len(denses) == 3
        assert infer_shapes(g)["flat"] == (512,)

    def test_densenet_growth(self):
        g = build_reference_arch("densenet40")
        # 24 initial channels, 3 blocks x 12 layers x growth 12;
        # transitions keep the width
        assert g.nodes["out"].attrs["in"] == 24 + 36 * 12
        assert count_complexity(g).params > 0


class TestSelectByLoss:
    def test_easy_not_harder_than_hard(self):
        g = ZOO_BUILDERS["toy-cnn-plain"](4, 0)
        data = gen_class_images(samples_per_class=32, seed=0)
        from energyprune.engine import cross_entropy, logits_node
        ex, ey = select_by_loss(g, (data.train_x, data.train_y), "easy", 8)
        hx, hy = select_by_loss(g, (data.train_x, data.train_y), "hard", 8)
        lid = logits_node(g)
        le = cross_entropy(forward(g, ex).activations[lid], ey)
        lh = cross_entropy(forward(g, hx).activations[lid], hy)
        assert le <= lh
        assert ex.shape == (8, 3, 8, 8)

    def test_mode_validation(self):
        g = ZOO_BUILDERS["toy-cnn-plain"](4, 0)
        data = gen_class_images(samples_per_class=8, seed=0)
        with pytest.raises(ValueError):
            select_by_loss(g, (data.train_x, data.train_y), "medium", 4)

"""Graph IR: shape inference, channel grouping, structural rewriting."""

import numpy as np
import pytest

from energyprune.graph import (GraphError, INPUT, LayerNode, ModelGraph,
                               RewriteRefusal, build_channel_groups,
                               channel_provenance, infer_shapes,
                               rewrite_remove_channels)
from energyprune.engine import init_params
from energyprune.toybench import (ZOO_BUILDERS, build_reference_arch,
                                  build_toy_cnn_inception,
                                  build_toy_cnn_plain,
                                  build_toy_cnn_residual,
                                  build_toy_densenet_cell, build_toy_mlp)
from helpers import _bn, _conv, _dense, _op


class TestWiring:
    def test_unknown_kind_rejected(self):
        g = ModelGraph((3,))
        with pytest.raises(GraphError):
            g.add(LayerNode("x", "Conv3D", {}, {}, [INPUT]))

    def test_duplicate_id_rejected(self):
        g = ModelGraph((3,))
        _dense(g, "a", INPUT, 3, 2)
        with pytest.raises(GraphError):
            _dense(g, "a", INPUT, 3, 2)

    def test_input_id_is_reserved(self):
        g = ModelGraph((3,))
        with pytest.raises(GraphError):
            _dense(g, INPUT, INPUT, 3, 2)

    def test_unknown_input_rejected(self):
        g = ModelGraph((3,))
        with pytest.raises(GraphError):
            _dense(g, "a", "missing", 3, 2)

    def test_set_output_validates(self):
        g = ModelGraph((3,))
        _dense(g, "a", INPUT, 3, 2)
        with pytest.raises(GraphError):
            g.set_output("nope")

    def test_empty_graph_has_no_shapes(self):
        with pytest.raises(GraphError):
            infer_shapes(ModelGraph((3,)))


class TestShapeInference:
    def test_plain_cnn_hand_walk(self):
        g = build_toy_cnn_plain()
        s = infer_shapes(g)
        assert s["c1.conv"] == (16, 8, 8)
        assert s["pool1"] == (16, 4, 4)
        assert s["c2.conv"] == (24, 4, 4)
        assert s["pool2"] == (24, 2, 2)
        assert s["c4.conv"] == (32, 2, 2)
        assert s["gap"] == (32,)
        assert s["out"] == (4,)

    def test_stride_and_pad_arithmetic(self):
        g = ModelGraph((3, 9, 9))
        _conv(g, "c", INPUT, 3, 5, k=3, stride=2, pad=0)
        assert infer_shapes(g)["c"] == (5, 4, 4)

    def test_concat_sums_channels(self):
        s = infer_shapes(build_toy_densenet_cell())
        assert s["cat1"] == (12, 8, 8)
        assert s["cat2"] == (16, 8, 8)

    def test_flatten(self):
        s = infer_shapes(build_toy_cnn_inception())
        assert s["flat"] == (32 * 4 * 4,)

    def test_dense_width_mismatch(self):
        g = ModelGraph((3,))
        _dense(g, "a", INPUT, 4, 2)  # graph input is 3-wide
        with pytest.raises(GraphError):
            infer_shapes(g)

    def test_pool_window_too_large(self):
        g = ModelGraph((2, 3, 3))
        _op(g, "p", "MaxPool", INPUT, k=4, stride=1)
        with pytest.raises(GraphError):
            infer_shapes(g)

    @pytest.mark.parametrize("kind", ["Conv2D", "MaxPool", "AvgPool"])
    def test_window_may_not_dwarf_the_input(self, kind):
        # k = 10**6 with pad = k // 2 gives a 9x9 output on an 8x8 map,
        # but every window would be almost all padding
        g = ModelGraph((2, 8, 8))
        attrs = {"k": 10**6, "stride": 1, "pad": 5 * 10**5}
        if kind == "Conv2D":
            attrs.update({"in": 2, "out": 3})
        g.add(LayerNode("w", kind, attrs, {}, [INPUT]))
        with pytest.raises(GraphError, match="wider than input extent 8"):
            infer_shapes(g)

    @pytest.mark.parametrize("k,pad,ok", [(3, 1, True), (2, 0, True),
                                          (3, 0, False), (5, 2, False)])
    def test_window_overhangs_by_one_pad_at_most(self, k, pad, ok):
        # two rows: a 3x3, pad-1 conv on them is VGG's last block
        g = ModelGraph((2, 2, 3))
        _conv(g, "c", INPUT, 2, 2, k=k, pad=pad)
        if ok:
            assert infer_shapes(g)["c"][1] == 2 + 2 * pad - k + 1
        else:
            with pytest.raises(GraphError):
                infer_shapes(g)

    def test_add_shape_mismatch(self):
        g = ModelGraph((2, 4, 4))
        _conv(g, "a", INPUT, 2, 3)
        _conv(g, "b", INPUT, 2, 4)
        _op(g, "add", "Add", ["a", "b"])
        with pytest.raises(GraphError):
            infer_shapes(g)

    def test_concat_spatial_mismatch(self):
        g = ModelGraph((2, 4, 4))
        _conv(g, "a", INPUT, 2, 3)
        _conv(g, "b", INPUT, 2, 3, stride=2)
        _op(g, "cat", "Concat", ["a", "b"], axis=1)
        with pytest.raises(GraphError):
            infer_shapes(g)


class TestChannelGroups:
    def test_plain_chain_has_singleton_groups(self):
        g = build_toy_cnn_plain()
        groups = build_channel_groups(g)
        assert all(len(grp.slots) == 1 for grp in groups)
        assert sum(len(grp.slots) for grp in groups) == 16 + 24 + 24 + 32 + 4

    def test_residual_add_ties_channels(self):
        g = build_toy_cnn_residual()
        groups = build_channel_groups(g)
        pairs = [grp for grp in groups if len(grp.slots) == 2]
        # 16 pairs from b1's identity add, 32 from b2's projection add
        assert len(pairs) == 48
        b1 = {frozenset({("stem.conv", i), ("b1.conv2", i)})
              for i in range(16)}
        b2 = {frozenset({("b2.conv1", i), ("b2.proj", i)})
              for i in range(32)}
        assert {grp.slots for grp in pairs} == b1 | b2
        assert all(grp.prunable for grp in groups)

    def test_group_ids_are_deterministic(self):
        a = build_channel_groups(build_toy_cnn_residual())
        b = build_channel_groups(build_toy_cnn_residual())
        assert [(g.gid, g.slots, g.prunable) for g in a] == \
            [(g.gid, g.slots, g.prunable) for g in b]

    def test_add_with_graph_input_freezes_group(self):
        g = ModelGraph((3, 4, 4))
        _conv(g, "c", INPUT, 3, 3)
        _op(g, "add", "Add", [INPUT, "c"])
        _op(g, "gap", "GlobalAvgPool", "add")
        _dense(g, "fc", "gap", 3, 2)
        frozen = [grp for grp in build_channel_groups(g) if not grp.prunable]
        assert len(frozen) == 3
        assert all(grp.slots == frozenset({("c", i)})
                   for i, grp in enumerate(sorted(
                       frozen, key=lambda grp: min(ch for _, ch in grp.slots))))
        with pytest.raises(GraphError):
            rewrite_remove_channels(g, [("c", 1)])

    def test_flatten_repeats_provenance(self):
        g = build_toy_cnn_inception()
        t = channel_provenance(g)
        # each of the 32 pooled channels becomes 4x4 features, in order
        assert t.prov["flat"].tolist() == np.repeat(t.prov["pool"], 16).tolist()
        assert (t.prov["pool"] >= 0).all()
        # dense slots after the flatten are their own groups
        out = t.start[t.layers.index("out")]
        assert t.prov["out"].tolist() == [out + i for i in range(4)]
        assert [(t.layers[t.layer[s]], s - out) for s in t.prov["out"]] == \
            [("out", i) for i in range(4)]


def _table_view(t):
    return (t.layers, t.start.tolist(), t.layer.tolist(), t.gid.tolist(),
            t.prunable.tolist(), {nid: a.tolist() for nid, a in t.prov.items()},
            t.structure)


def _widen_c4(g):
    g.nodes["c4.conv"].attrs["out"] = 24
    g.nodes["c4.bn"].attrs["channels"] = 24
    g.nodes["out"].attrs["in"] = 24


def _append_dense(g):
    _dense(g, "head", "out", 4, 3)


def _grow_input(g):
    g.input_shape = (3, 16, 16)


class TestSlotTableMemo:
    def test_unchanged_graph_returns_the_same_table(self):
        g = build_toy_cnn_residual()
        t = channel_provenance(g)
        assert build_channel_groups(g) and channel_provenance(g) is t
        assert isinstance(t.layers, tuple)

    @pytest.mark.parametrize("edit", [_widen_c4, _append_dense, _grow_input],
                             ids=["attr-in-place", "appended-node",
                                  "input-shape"])
    def test_structural_edit_builds_a_fresh_table(self, edit):
        g = build_toy_cnn_plain()
        before = channel_provenance(g)
        edit(g)
        after = channel_provenance(g)
        fresh = build_toy_cnn_plain()
        edit(fresh)
        assert after is not before
        assert _table_view(after) == _table_view(channel_provenance(fresh))
        assert channel_provenance(g) is after

    def test_table_is_read_only(self):
        t = channel_provenance(build_toy_cnn_plain())
        for arr in (t.gid, t.start, t.layer, t.prunable, t.prov[INPUT],
                    t.prov["c2.conv"], t.prov["c2.relu"]):
            with pytest.raises(ValueError):
                arr[0] = arr[-1]


def _rewrite_models():
    for name, fn in ZOO_BUILDERS.items():
        yield pytest.param(lambda fn=fn: fn(4, 0), id=name)
    yield pytest.param(
        lambda: init_params(build_reference_arch("densenet40"), 0),
        id="densenet40")


class TestRewrite:
    @pytest.mark.parametrize("build", _rewrite_models())
    def test_empty_removal_set_is_an_exact_copy(self, build):
        g = build()
        out, ref = rewrite_remove_channels(g, []), g.copy()
        assert (out.input_shape, out.output_id) == \
            (ref.input_shape, ref.output_id)
        assert list(out.nodes) == list(ref.nodes)
        for nid, node in ref.nodes.items():
            new = out.nodes[nid]
            assert (new.kind, new.attrs, new.inputs) == \
                (node.kind, node.attrs, node.inputs)
            assert list(new.params) == list(node.params)
            for name, t in node.params.items():
                assert new.params[name].dtype == t.dtype
                assert new.params[name].shape == t.shape
                assert new.params[name].tobytes() == t.tobytes()

    @pytest.mark.parametrize("build", _rewrite_models())
    def test_output_shares_no_memory_with_input(self, build):
        g = build()
        group = next(grp for grp in build_channel_groups(g) if grp.prunable)
        for removals in ([], group.slots):
            out = rewrite_remove_channels(g, removals)
            for (_, _, a), (_, _, b) in zip(out.parameters(), g.parameters()):
                assert not np.shares_memory(a, b)

    def test_concat_offsets_follow_the_removed_channel(self):
        g = build_toy_densenet_cell(seed=0)
        out = rewrite_remove_channels(g, [("d1.conv", 2)])
        # d1 is the second piece of cat1 and cat2, after c0's 8 channels
        for nid in ("d2.conv", "trans.conv"):
            assert np.array_equal(out.nodes[nid].params["w"],
                                  np.delete(g.nodes[nid].params["w"], 10,
                                            axis=1))
        assert np.array_equal(out.nodes["d1.conv"].params["w"],
                              np.delete(g.nodes["d1.conv"].params["w"], 2,
                                        axis=0))
        assert out.nodes["d1.bn"].attrs["channels"] == 3

    def test_mlp_widths_shrink(self):
        g = build_toy_mlp(hidden=10, seed=0)
        out = rewrite_remove_channels(g, [("fc1", 0), ("fc2", 3), ("fc2", 7)])
        assert out.nodes["fc1"].attrs["out"] == 9
        assert out.nodes["fc2"].attrs["in"] == 9
        assert out.nodes["fc2"].attrs["out"] == 8
        assert out.nodes["fc3"].attrs["in"] == 8
        assert out.nodes["fc1"].params["w"].shape == (9, 2)
        assert out.nodes["fc2"].params["w"].shape == (8, 9)
        # surviving rows keep their values
        assert np.array_equal(out.nodes["fc1"].params["w"],
                              g.nodes["fc1"].params["w"][1:])

    def test_bn_follows_producer(self):
        g = build_toy_cnn_plain()
        out = rewrite_remove_channels(g, [("c2.conv", 5)])
        assert out.nodes["c2.bn"].attrs["channels"] == 23
        for name in ("gamma", "beta", "mean", "var"):
            assert out.nodes["c2.bn"].params[name].shape == (23,)
        assert out.nodes["c3.conv"].attrs["in"] == 23

    def test_flatten_expands_mask(self):
        g = build_toy_cnn_inception()
        out = rewrite_remove_channels(g, [("b1.conv", 0)])
        # one channel gone upstream of a 4x4 flatten: 16 features removed
        assert out.nodes["out"].attrs["in"] == 32 * 16 - 16
        infer_shapes(out)

    def test_refuses_to_empty_a_layer(self):
        g = build_toy_mlp(hidden=3, seed=0)
        with pytest.raises(RewriteRefusal):
            rewrite_remove_channels(g, [("fc2", 0), ("fc2", 1), ("fc2", 2)])

    def test_rejects_unclosed_residual_removal(self):
        g = build_toy_cnn_residual()
        with pytest.raises(GraphError):
            # (stem.conv, 0) is tied to (b1.conv2, 0) through the add
            rewrite_remove_channels(g, [("stem.conv", 0)])

    def test_accepts_closed_residual_removal(self):
        g = build_toy_cnn_residual()
        out = rewrite_remove_channels(g, [("stem.conv", 0), ("b1.conv2", 0)])
        assert out.nodes["stem.conv"].attrs["out"] == 15
        assert out.nodes["b1.conv2"].attrs["out"] == 15
        assert out.nodes["b1.conv1"].attrs["in"] == 15
        infer_shapes(out)

    def test_unknown_layer_in_removals(self):
        g = build_toy_mlp(hidden=4, seed=0)
        with pytest.raises(GraphError):
            rewrite_remove_channels(g, [("nope", 0)])

    @pytest.mark.parametrize("removal", [("relu1", 0), ("fc1", -1),
                                         ("fc1", 6)])
    def test_rejects_a_channel_the_graph_does_not_have(self, removal):
        # a layer without channels of its own, and channels outside
        # fc1's 0..5
        g = build_toy_mlp(hidden=6, seed=0)
        with pytest.raises(GraphError):
            rewrite_remove_channels(g, [removal])

    def test_add_after_flatten_ties_each_channel_to_its_features(self):
        # conv channel i becomes features 4i..4i+3, which the add ties to
        # those of d
        g = ModelGraph((3, 2, 2))
        _conv(g, "c", INPUT, 3, 2, k=1, pad=0)
        _op(g, "flat", "Flatten", "c")
        _dense(g, "d", "flat", 8, 8)
        _op(g, "add", "Add", ["flat", "d"])
        _dense(g, "out", "add", 8, 3)
        init_params(g, 0)
        groups = {grp.slots for grp in build_channel_groups(g)}
        assert frozenset({("c", 1)} | {("d", j) for j in range(4, 8)}) \
            in groups
        with pytest.raises(GraphError):
            rewrite_remove_channels(g, [("c", 1)])
        out = rewrite_remove_channels(
            g, [("c", 1)] + [("d", j) for j in range(4, 8)])
        assert (out.nodes["d"].attrs["in"], out.nodes["d"].attrs["out"],
                out.nodes["out"].attrs["in"]) == (4, 4, 4)
        infer_shapes(out)

    def test_original_graph_untouched(self):
        g = build_toy_mlp(hidden=6, seed=0)
        before = g.nodes["fc1"].params["w"].copy()
        rewrite_remove_channels(g, [("fc1", 2)])
        assert g.nodes["fc1"].attrs["out"] == 6
        assert np.array_equal(g.nodes["fc1"].params["w"], before)


def test_copy_is_deep_for_params():
    g = build_toy_mlp(hidden=4, seed=0)
    c = g.copy()
    c.nodes["fc1"].params["w"][:] = 0.0
    assert not np.array_equal(g.nodes["fc1"].params["w"],
                              c.nodes["fc1"].params["w"])


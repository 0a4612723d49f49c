"""File formats: model manifest + blob, datasets, configs, reports."""

import hashlib
import json
import mmap
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from energyprune.criteria import ScoreTable
from energyprune.engine import init_params
from energyprune.graph import INPUT, LayerNode, ModelGraph
from energyprune.modelio import (DataFormatError, PLAN_HEADER, SCORE_HEADER,
                                 format_table, load_config, load_dataset,
                                 load_model, plan_rows, read_blob, read_tsv,
                                 save_dataset, save_model, score_table_rows,
                                 write_tsv)
from energyprune.linalg import make_rng
from energyprune.toybench import (ToyDatasetSpec, build_reference_arch,
                                  build_toy_cnn_inception,
                                  build_toy_cnn_residual, build_toy_mlp,
                                  gen_blobs)


@pytest.mark.parametrize("reader", [load_model, load_dataset, load_config,
                                    read_tsv],
                         ids=["model", "dataset", "config", "report"])
def test_non_utf8_file_is_data_error(tmp_path, reader):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(DataFormatError, match="cannot read"):
        reader(path)


class TestModelRoundtrip:
    def test_topology_and_params_survive(self, tmp_path):
        g = build_toy_cnn_residual(seed=3)
        path = tmp_path / "m.json"
        save_model(g, path)
        back = load_model(path)
        assert list(back.nodes) == list(g.nodes)
        assert back.output_id == g.output_id
        assert back.input_shape == g.input_shape
        for nid, node in g.nodes.items():
            assert back.nodes[nid].kind == node.kind
            assert back.nodes[nid].attrs == node.attrs
            assert back.nodes[nid].inputs == node.inputs
            for name, arr in node.params.items():
                # storage is float32
                assert np.array_equal(
                    back.nodes[nid].params[name],
                    arr.astype(np.float32).astype(np.float64))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        g = build_toy_mlp(hidden=6, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(g, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.json.bin").read_bytes() == \
            (tmp_path / "b.json.bin").read_bytes()

    def test_bad_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json")
        with pytest.raises(DataFormatError):
            load_model(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataFormatError):
            load_model(path)
        with pytest.raises(DataFormatError):
            load_model(tmp_path / "missing.json")

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), path)
        blob = tmp_path / "m.json.bin"
        full = blob.read_bytes()
        for cut in (len(full) - 1, 6, 2):
            blob.write_bytes(full[:cut])
            with pytest.raises(DataFormatError, match="truncated"):
                load_model(path)

    def test_parameterless_graph_has_an_empty_blob(self, tmp_path):
        g = ModelGraph((3,))
        g.add(LayerNode("act", "ReLU", {}, {}, [INPUT]))
        g.add(LayerNode("prob", "Softmax", {}, {}, ["act"]))
        g.set_output("prob")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(g, p1)
        assert (tmp_path / "a.json.bin").read_bytes() == b""
        assert json.loads(p1.read_text())["tensors"] == []
        back = load_model(p1)
        assert list(back.nodes) == ["act", "prob"]
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "b.json.bin").read_bytes() == b""

    def test_blob_header_larger_than_any_read(self):
        header = struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1)
        with pytest.raises(DataFormatError, match="truncated"):
            read_blob(header, 0)

    @pytest.mark.parametrize("fault", [
        "negative-offset", "offset-past-end", "huge-offset", "true-offset",
        "float-offset", "huge-extents", "huge-rank"])
    def test_corrupt_index_fails_before_any_allocation(self, tmp_path, fault):
        path = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), path)
        manifest = json.loads(path.read_text())
        blob = tmp_path / "m.json.bin"
        raw = blob.read_bytes()
        entry = manifest["tensors"][0]  # fc1.w, of rank 2
        if fault.endswith("offset"):
            entry["offset"] = {"negative-offset": -1,
                               "offset-past-end": len(raw) + 8,
                               "huge-offset": 2**62, "true-offset": True,
                               "float-offset": 0.0}[fault]
        elif fault == "huge-extents":
            blob.write_bytes(struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1)
                             + raw[12:])
        else:
            blob.write_bytes(struct.pack("<I", 2**32 - 1) + raw[4:])
        path.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="tensor"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("key", ["input_shape", "nodes", "output",
                                     "tensors"])
    def test_manifest_missing_key(self, tmp_path, key):
        path = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), path)
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=key):
            load_model(path)


    @pytest.mark.parametrize("node,attr,value", [
        ("stem.conv", "stride", 0),
        ("stem.conv", "pad", 2),
        ("pool", "k", 2.0),
        ("drop", "p", "0.5"),
        ("stem.bn", "eps", -1),
        ("stem.bn", "channels", True),
    ])
    def test_bad_attr(self, tmp_path, node, attr, value):
        path = tmp_path / "m.json"
        save_model(build_toy_cnn_inception(seed=0), path)
        manifest = json.loads(path.read_text())
        spec = next(n for n in manifest["nodes"] if n["id"] == node)
        spec["attrs"][attr] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=attr):
            load_model(path)

    @pytest.mark.parametrize("change", ["missing", "extra", "misplaced"])
    def test_tensor_index_must_match_the_nodes(self, tmp_path, change):
        path = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), path)
        manifest = json.loads(path.read_text())
        fc1_w = manifest["tensors"][0]
        if change == "missing":
            manifest["tensors"].remove(fc1_w)
        elif change == "extra":
            manifest["tensors"].append(dict(fc1_w, node="relu1"))
        else:
            fc1_w["node"] = "fc2"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match="tensor"):
            load_model(path)

    @pytest.mark.parametrize("fault, message", [
        ("aliased", "starts at byte"), ("listed-twice", "listed twice"),
        ("trailing-bytes", "tensor blob has")])
    def test_tensor_index_must_tile_the_blob(self, tmp_path, fault, message):
        # each fault used to load: stem.bn took stem.conv's bias as its
        # gamma, b1.conv1 kept the last bias listed, the tail was ignored
        path = tmp_path / "m.json"
        save_model(build_toy_cnn_residual(seed=0), path)
        manifest = json.loads(path.read_text())
        entry = {(t["node"], t["name"]): t for t in manifest["tensors"]}
        if fault == "aliased":
            entry["stem.bn", "gamma"]["offset"] = \
                entry["stem.conv", "b"]["offset"]
        elif fault == "listed-twice":
            entry["stem.conv", "b"]["node"] = "b1.conv1"
        else:
            with (tmp_path / "m.json.bin").open("ab") as fh:
                fh.write(bytes(64))
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=message):
            load_model(path)

    def test_failed_save_leaves_the_old_model(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), path)
        files = (path, tmp_path / "m.json.bin")
        before = [p.read_bytes() for p in files]
        g = build_toy_mlp(hidden=6, seed=1)
        g.nodes["fc1"].attrs["out"] = np.int64(6)  # JSON cannot encode it
        with pytest.raises(TypeError):
            save_model(g, path)
        assert [p.read_bytes() for p in files] == before
        assert load_model(path).nodes["fc1"].attrs["out"] == 4

    def test_saving_over_a_model_leaves_its_readers_intact(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), path)
        blob = tmp_path / "m.json.bin"
        old = blob.read_bytes()
        os.link(blob, tmp_path / "link.bin")
        with blob.open("rb") as fh:
            save_model(build_toy_mlp(hidden=6, seed=1), path)
            assert fh.read() == old
        assert load_model(path).nodes["fc1"].attrs["out"] == 6
        # the blob is replaced, not written through its other name
        assert (tmp_path / "link.bin").read_bytes() == old != blob.read_bytes()

    @pytest.mark.parametrize("node, name, value", [
        ("stem.conv", "w", np.nan), ("stem.conv", "b", np.inf),
        ("stem.bn", "var", -np.inf), ("out", "b", np.nan)])
    def test_tensors_must_be_finite(self, tmp_path, node, name, value):
        g = build_toy_cnn_residual(seed=0)
        g.nodes[node].params[name].flat[-1] = value
        path = tmp_path / "m.json"
        save_model(g, path)
        with pytest.raises(DataFormatError,
                           match=rf"{node}: tensor '{name}' holds NaN or inf"):
            load_model(path)

    def test_float32_extremes_are_finite(self, tmp_path):
        # the squares of float32's largest values sum to a finite float64
        g = build_toy_cnn_residual(seed=0)
        top = float(np.finfo(np.float32).max)
        g.nodes["stem.conv"].params["w"][...] = top
        g.nodes["out"].params["w"][...] = -top
        path = tmp_path / "m.json"
        save_model(g, path)
        assert load_model(path).nodes["stem.conv"].params["w"].min() == top


# sha256 of the manifest and of the blob, as this format has written them
# since it was pinned; any change to the bytes on disk fails here
GOLDEN = {
    "toy-cnn-residual": (
        "d799eac05183a19c304cdd2864c527205a37a144946bc6379f4a2d7c41fcca2f",
        "0cada95d23f3cc159778298adbd74aa62a891d3bf72478174f4a5cfb3666e6c4"),
    "resnet56": (
        "3f8769d4b532898d5525db0e1a2771254859c0f5e5cb2bc22b644282dad6bce8",
        "5bb4a3fe51c961395258c100acf6dfc22162cadd3bab3bc4756b63bd34a0b1b4"),
}


def _golden_model(name):
    if name == "resnet56":
        return init_params(build_reference_arch("resnet56"), 0)
    return build_toy_cnn_residual(seed=3)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_model_bytes_are_pinned(tmp_path, name):
    path = tmp_path / "m.json"
    save_model(_golden_model(name), path)
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (path, tmp_path / "m.json.bin")) == GOLDEN[name]


def _traced(fn):
    """fn's result, the bytes it left allocated, and its peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


class TestModelMemory:
    @pytest.fixture(scope="class")
    def resnet56(self):
        return _golden_model("resnet56")

    def test_save_holds_no_copy_of_the_blob(self, tmp_path, resnet56):
        # a whole-blob buffer peaked at 1.24x the blob size here
        path = tmp_path / "m.json"
        _, _, peak = _traced(lambda: save_model(resnet56, path))
        assert peak < 0.5 * (tmp_path / "m.json.bin").stat().st_size

    def test_load_holds_the_model_and_no_copy_of_the_blob(self, tmp_path,
                                                          resnet56):
        # a whole-blob read peaked at 1.06x the blob size above the model
        path = tmp_path / "m.json"
        save_model(resnet56, path)
        size = (tmp_path / "m.json.bin").stat().st_size
        g, held, peak = _traced(lambda: load_model(path))
        assert held >= sum(a.nbytes for _, _, a in g.parameters())
        assert peak - held < 0.1 * size

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="lists mappings through Linux's /proc")
    @pytest.mark.parametrize("tensor", ["finite", "nan"])
    def test_load_leaves_no_mapping(self, tmp_path, tensor):
        g = build_toy_cnn_residual(seed=0)
        if tensor == "nan":
            g.nodes["out"].params["w"].flat[-1] = np.nan
        path = tmp_path / "m.json"
        save_model(g, path)
        blob = tmp_path / "m.json.bin"

        def mapped() -> bool:
            return str(blob) in Path("/proc/self/maps").read_text()

        with blob.open("rb") as fh, \
                mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ):
            assert mapped()  # the check sees a live mapping
        if tensor == "nan":
            # caught holds the traceback, so load_model's frame and its
            # locals stay alive through the check below
            with pytest.raises(DataFormatError, match="NaN") as caught:
                load_model(path)
        else:
            load_model(path)
        assert not mapped()


class TestDatasetRoundtrip:
    def test_vectors(self, tmp_path):
        data = gen_blobs(ToyDatasetSpec(samples_per_class=10, seed=0))
        path = tmp_path / "d.csv"
        save_dataset(path, data.train_x, data.train_y)
        x, y = load_dataset(path)
        # %.17g prints doubles losslessly
        assert np.array_equal(x, data.train_x)
        assert np.array_equal(y, data.train_y)

    def test_images_keep_shape(self, tmp_path):
        x0 = make_rng(1).normal(size=(5, 3, 4, 4))
        y0 = np.array([0, 1, 2, 3, 0])
        path = tmp_path / "d.csv"
        save_dataset(path, x0, y0)
        x, y = load_dataset(path)
        assert x.shape == (5, 3, 4, 4)
        assert np.array_equal(x, x0)

    def test_bad_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# shape=2\n1.0,oops,0\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)
        path.write_text("# shape=2\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "missing.csv")

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e400", "1.5",
                                       "1e300"])
    def test_labels_must_be_integers(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"# shape=2\n1.0,2.0,{label}\n")
        with pytest.raises(DataFormatError, match="label"):
            load_dataset(path)
        path.write_text("# shape=2\n1.0,2.0,2\n1.0,2.0,2.0\n")
        assert load_dataset(path)[1].tolist() == [2, 2]

    @pytest.mark.parametrize("feature", ["nan", "inf", "-inf", "1e400"])
    def test_features_must_be_finite(self, tmp_path, feature):
        path = tmp_path / "d.csv"
        path.write_text(f"# shape=2\n1.0,2.0,0\n1.0,{feature},1\n")
        with pytest.raises(DataFormatError,
                           match=f"non-finite feature in row '1.0,{feature},1'"):
            load_dataset(path)
        path.write_text("# shape=2\n1.0,1e300,0\n-1e-320,2.0,1\n")
        assert load_dataset(path)[0].tolist() == [[1.0, 1e300], [-1e-320, 2.0]]

    @pytest.mark.parametrize("text", [
        "# shape=abc\n1.0,2.0,0\n", "# shape=\n1.0,2.0,0\n",
        "# shape=3\n1.0,2.0,0\n3.0,4.0,1\n", "# shape=-1\n1.0,2.0,0\n",
        "# shape=0,2\n1.0,2.0,0\n", "# shape=2\n1.0,2.0,0\n1.0,1\n"],
        ids=["non-integer", "empty", "not-dividing", "negative", "zero",
             "ragged-rows"])
    def test_header_must_match_the_rows(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError):
            load_dataset(path)


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nlr = 0.01\nschedule=cosine\n\n")
        assert load_config(path) == {"lr": "0.01", "schedule": "cosine"}

    def test_rejects_lines_without_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lr 0.01\n")
        with pytest.raises(DataFormatError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_config(tmp_path / "missing.cfg")


class TestReports:
    def test_tsv_roundtrip(self, tmp_path):
        path = tmp_path / "r.tsv"
        header = ("a", "b")
        rows = [(1, "x"), (2.5, "y")]
        write_tsv(path, header, rows)
        h, r = read_tsv(path)
        assert h == ["a", "b"]
        assert r == [["1", "x"], ["2.5", "y"]]

    @pytest.mark.parametrize("row", ["1", "1\tx\textra"],
                             ids=["short", "long"])
    def test_ragged_tsv(self, tmp_path, row):
        path = tmp_path / "r.tsv"
        path.write_text(f"a\tb\n1\tx\n\n{row}\n")
        with pytest.raises(DataFormatError, match=r"r.tsv:4: \d fields, "
                                                  r"the header has 2"):
            read_tsv(path)

    def test_empty_tsv(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            read_tsv(path)

    def test_format_table_alignment(self):
        out = format_table(("col", "n"), [("a", 10), ("bbbb", 2)])
        lines = out.splitlines()
        assert lines[0].startswith("col")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_score_table_rows(self):
        table = ScoreTable("weight", scores={"L": np.array([1.5, 2.0])},
                           n_samples=4, seed=9)
        rows = score_table_rows(table)
        assert rows == [("L", 0, "1.5", "weight", 4, 9),
                        ("L", 1, "2", "weight", 4, 9)]
        assert len(SCORE_HEADER) == len(rows[0])

    def test_plan_rows(self):
        from energyprune.criteria import compute_scores
        from energyprune.pruner import PruningSpec, plan

        g = build_toy_mlp(hidden=4, seed=0)
        table = compute_scores(g, "weight", None)
        p = plan(g, table, PruningSpec(mode="per-layer", ratio=0.5,
                                       criterion="weight"))
        rows = plan_rows(p)
        assert len(rows) == p.n_removed_channels()
        assert all(len(r) == len(PLAN_HEADER) for r in rows)
        # cumulative percentage is non-decreasing and ends at the total
        cums = [float(r[3]) for r in rows]
        assert cums == sorted(cums)
        expect = 100.0 * (p.baseline_flops - p.predicted_flops) / p.baseline_flops
        assert cums[-1] == pytest.approx(expect, abs=5e-3)

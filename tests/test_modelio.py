"""File formats: model manifest + blob, datasets, configs, reports."""

import numpy as np
import pytest

from energyprune.criteria import ScoreTable
from energyprune.modelio import (DataFormatError, PLAN_HEADER, SCORE_HEADER,
                                 format_table, load_config, load_dataset,
                                 load_model, plan_rows, read_tsv,
                                 save_dataset, save_model, score_table_rows,
                                 write_tsv)
from energyprune.linalg import make_rng
from energyprune.toybench import (ToyDatasetSpec, build_toy_cnn_residual,
                                  build_toy_mlp, gen_blobs)


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

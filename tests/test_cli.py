"""Command-line interface: pipeline wiring and exit codes."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from energyprune.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC,
                             _build_arch, main)
from energyprune.criteria import CRITERIA, compute_scores
from energyprune.experiments import TOY_REPORT_HEADER, toy_experiment_report
from energyprune.modelio import (SCORE_HEADER, load_model, read_tsv,
                                 save_model, score_table_rows, write_tsv)
from energyprune.toybench import (build_reference_arch,
                                  build_toy_cnn_inception, build_toy_cnn_plain,
                                  build_toy_cnn_residual, build_toy_mlp)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny dataset and a one-epoch model to exercise the pipeline."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--kind", "blobs", "--samples-per-class", "30",
                 "--seed", "0", "--out", str(data)]) == 0
    model = root / "model.json"
    assert main(["train", "--data", str(data), "--arch", "toy-mlp",
                 "--max-epochs", "1", "--batch-size", "64",
                 "--out", str(model)]) == 0
    return root


def test_gen_data_writes_splits(workdir):
    assert (workdir / "data" / "train.csv").exists()
    assert (workdir / "data" / "test.csv").exists()


def test_train_writes_model_and_history(workdir):
    g = load_model(workdir / "model.json")
    assert g.nodes["fc1"].attrs["out"] == 1000
    header, rows = read_tsv(workdir / "model.history.tsv")
    assert header == ["epoch", "train_loss", "val_acc", "lr"]
    assert len(rows) == 1


def test_score_prune_eval_roundtrip(workdir):
    scores = workdir / "scores.tsv"
    assert main(["score", "--model", str(workdir / "model.json"),
                 "--data", str(workdir / "data"), "--criterion", "weight",
                 "--out", str(scores)]) == 0
    header, rows = read_tsv(scores)
    assert len(rows) == 3000  # three hidden layers of 1000

    pruned = workdir / "pruned.json"
    plan_tsv = workdir / "plan.tsv"
    assert main(["prune", "--model", str(workdir / "model.json"),
                 "--scores", str(scores), "--mode", "global",
                 "--threshold", "0.2", "--plan", str(plan_tsv),
                 "--out", str(pruned)]) == 0
    g = load_model(pruned)
    widths = [g.nodes[f].attrs["out"] for f in ("fc1", "fc2", "fc3")]
    assert sum(widths) == 3000 - 600
    _, plan_lines = read_tsv(plan_tsv)
    assert len(plan_lines) == 600

    assert main(["eval", "--model", str(pruned),
                 "--data", str(workdir / "data")]) == 0


def test_finetune(workdir):
    out = workdir / "tuned.json"
    assert main(["finetune", "--model", str(workdir / "model.json"),
                 "--data", str(workdir / "data"), "--max-epochs", "1",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_count_by_arch(capsys):
    assert main(["count", "--arch", "resnet56"]) == 0
    out = capsys.readouterr().out
    assert "total:" in out and "FLOPs" in out


def test_count_by_reference_arch_initializes_no_weights(capsys):
    # counting reads only shapes; drawing vgg16bn's 15.25 M weights first
    # once traced a 135 MiB peak
    tracemalloc.start()
    try:
        assert main(["count", "--arch", "vgg16bn"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    total = capsys.readouterr().out.splitlines()[-1]
    assert total.startswith("total: 313725952 FLOPs, 15253578 params ")


def test_reference_arch_weights_are_seeded():
    a, b = _build_arch("resnet56", 3), _build_arch("resnet56", 3)
    c = _build_arch("resnet56", 4)
    for node in a.nodes.values():
        if node.kind in ("Conv2D", "Dense"):
            assert np.any(node.params["w"] != 0), node.id
            assert np.array_equal(node.params["w"], b.nodes[node.id].params["w"])
            assert not np.array_equal(node.params["w"],
                                      c.nodes[node.id].params["w"])


def test_count_by_arch_matches_the_zero_weight_model(tmp_path, capsys):
    model = tmp_path / "resnet56.json"
    save_model(build_reference_arch("resnet56"), model)  # all-zero weights
    assert main(["count", "--model", str(model)]) == 0
    by_model = capsys.readouterr().out
    assert main(["count", "--arch", "resnet56"]) == 0
    assert capsys.readouterr().out == by_model


def test_report_renders_tsv(workdir, capsys):
    scores = workdir / "scores.tsv"
    assert main(["report", str(scores)]) == 0
    assert "layer" in capsys.readouterr().out


def test_stability_with_gradient_criterion(tmp_path):
    data = tmp_path / "images"
    assert main(["gen-data", "--kind", "images", "--samples-per-class", "4",
                 "--seed", "0", "--out", str(data)]) == 0
    model = tmp_path / "cnn.json"
    save_model(build_toy_cnn_plain(seed=0), model)
    out = tmp_path / "stability.tsv"
    assert main(["stability", "--model", str(model), "--data", str(data),
                 "--criterion", "gradient", "--sizes", "4,8",
                 "--out", str(out)]) == 0
    _, rows = read_tsv(out)
    assert len(rows) == 4  # one size pair on 4 layers


def test_train_config_file(workdir, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr=0.02\nmax_epochs=1\nbatch_size=64\n")
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(workdir / "data"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


class TestExitCodes:
    def test_missing_data_is_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.json")]) == EXIT_DATA

    def test_bad_score_file_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("wrong\theader\n")
        assert main(["prune", "--model", str(workdir / "model.json"),
                     "--scores", str(bad),
                     "--out", str(tmp_path / "p.json")]) == EXIT_DATA

    @pytest.mark.parametrize("rows", [
        ["fc1\t0\t1.5\tweight\t8\t0", "fc1\t2\t1.5\tweight\t8\t0"],
        ["fc1\t0\tabc\tweight\t8\t0"],
        ["fc1\t0\t1.5"],
        [f"fc1\t{ch}\t1.5\tweight\t8\t0" for ch in range(3)],
        ["relu1\t0\t1.5\tweight\t8\t0"],
        ["nope\t0\t1.5\tweight\t8\t0"],
    ], ids=["missing-channel", "non-numeric-score", "short-row",
            "missing-last-channels", "not-a-prunable-layer", "unknown-layer"])
    def test_wrong_score_table_is_data_error(self, workdir, tmp_path, rows):
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(["\t".join(SCORE_HEADER)] + rows) + "\n")
        assert main(["prune", "--model", str(workdir / "model.json"),
                     "--scores", str(bad),
                     "--out", str(tmp_path / "p.json")]) == EXIT_DATA

    @pytest.mark.parametrize("mode", ["global", "per-layer"])
    def test_another_models_score_table_is_data_error(self, tmp_path, capsys,
                                                      mode):
        # such a table once pruned nothing and exited 0
        model = tmp_path / "mlp.json"
        save_model(build_toy_mlp(hidden=8, seed=0), model)
        scores = tmp_path / "other.tsv"
        scores.write_text("\n".join(
            ["\t".join(SCORE_HEADER)]
            + [f"{lid}\t{ch}\t{ch + 1}\tweight\t8\t0"
               for lid in ("nope", "fc9") for ch in range(8)]) + "\n")
        flag = "--threshold" if mode == "global" else "--ratio"
        assert main(["prune", "--model", str(model), "--scores", str(scores),
                     "--mode", mode, flag, "0.5",
                     "--out", str(tmp_path / "p.json")]) == EXIT_DATA
        assert "'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("last, row", [
        (["fc3\t7\t8\tweight\t8\t0", "fc1\t0\t99.0\tweight\t8\t0"], 25),
        (["fc3\t7\t8\tnuclear\t8\t0"], 24),
        (["fc3\t7\t8\tweight\t9\t0"], 24),
        (["fc3\t7\t8\tweight\t8\t1"], 24),
    ], ids=["repeated-channel", "mixed-criteria", "mixed-n-samples",
            "mixed-seeds"])
    def test_inconsistent_score_rows_are_data_error(self, tmp_path, capsys,
                                                    last, row):
        # a repeated row once replaced the first, and the last row's
        # criterion, sample count and seed were taken; prune exited 0
        model = tmp_path / "mlp.json"
        save_model(build_toy_mlp(hidden=8, seed=0), model)
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(
            ["\t".join(SCORE_HEADER)]
            + [f"{lid}\t{ch}\t{ch + 1}\tweight\t8\t0"
               for lid in ("fc1", "fc2", "fc3") for ch in range(8)][:-1]
            + last) + "\n")
        assert main(["prune", "--model", str(model), "--scores", str(scores),
                     "--mode", "global", "--threshold", "0.25",
                     "--out", str(tmp_path / "p.json")]) == EXIT_DATA
        assert f"row {row} " in capsys.readouterr().err

    @pytest.mark.parametrize("mode, flag", [("global", "--ratio"),
                                            ("per-layer", "--threshold")])
    def test_prune_refuses_the_flag_its_mode_ignores(self, tmp_path, capsys,
                                                     mode, flag):
        # each once exited 0 after removing no channel
        g = build_toy_mlp(hidden=8, seed=0)
        model, scores = tmp_path / "mlp.json", tmp_path / "scores.tsv"
        save_model(g, model)
        write_tsv(scores, SCORE_HEADER,
                  score_table_rows(compute_scores(g, "weight", None)))
        assert main(["prune", "--model", str(model), "--scores", str(scores),
                     "--mode", mode, flag, "0.5",
                     "--out", str(tmp_path / "p.json")]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    def test_huge_finite_scores_keep_their_channels(self, tmp_path):
        model = tmp_path / "mlp.json"
        save_model(build_toy_mlp(hidden=8, seed=0), model)
        fc1 = ["1e308"] * 2 + ["5"] * 6
        scores = tmp_path / "huge.tsv"
        scores.write_text("\n".join(
            ["\t".join(SCORE_HEADER)]
            + [f"fc1\t{ch}\t{v}\tweight\t8\t0" for ch, v in enumerate(fc1)]
            + [f"{lid}\t{ch}\t{ch + 1}\tweight\t8\t0"
               for lid in ("fc2", "fc3") for ch in range(8)]) + "\n")
        plan_tsv = tmp_path / "plan.tsv"
        assert main(["prune", "--model", str(model), "--scores", str(scores),
                     "--mode", "global", "--threshold", "0.25",
                     "--plan", str(plan_tsv),
                     "--out", str(tmp_path / "p.json")]) == 0
        _, rows = read_tsv(plan_tsv)
        assert sorted(row[1] for row in rows) == [f"fc1:{ch}" for ch in range(2, 8)]

    def test_prune_without_score_source_is_config_error(self, workdir,
                                                        tmp_path, capsys):
        assert main(["prune", "--model", str(workdir / "model.json"),
                     "--out", str(tmp_path / "p.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--scores" in err and "--data" in err

    # --samples 0 once scored every sample and --samples -50 dropped the
    # last 50, both with exit 0
    @pytest.mark.parametrize("samples", ["0", "-50"])
    def test_non_positive_sample_count_is_config_error(self, workdir, tmp_path,
                                                       capsys, samples):
        data = tmp_path / "data"
        assert main(["gen-data", "--kind", "blobs", "--samples-per-class", "20",
                     "--seed", "1", "--out", str(data)]) == 0
        out = tmp_path / "s.tsv"
        assert main(["score", "--model", str(workdir / "model.json"),
                     "--data", str(data), "--samples", samples,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_plan_is_config_error(self, workdir, tmp_path):
        # an unreachable global threshold is a planning error
        assert main(["prune", "--model", str(workdir / "model.json"),
                     "--data", str(workdir / "data"), "--criterion", "weight",
                     "--mode", "global", "--threshold", "0.9999",
                     "--out", str(tmp_path / "p.json")]) == EXIT_CONFIG

    def test_divergence_is_numeric_error(self, workdir, tmp_path):
        with np.errstate(all="ignore"):
            code = main(["finetune", "--model", str(workdir / "model.json"),
                         "--data", str(workdir / "data"), "--lr", "1e300",
                         "--max-epochs", "3", "--batch-size", "32",
                         "--out", str(tmp_path / "m.json")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("kind", ["conv", "dense"])
    def test_non_finite_activations_are_numeric_error(self, tmp_path, kind):
        # finite features and finite weights whose products overflow: a
        # non-finite feature or weight is a data error
        if kind == "conv":
            data_args = ["--kind", "images", "--samples-per-class", "2"]
            g = build_toy_cnn_plain(seed=0)
        else:
            # three float32-sized weights scale unit features by ~1e117
            # at most, so the blobs are spread wide enough that fc3's
            # activations themselves overflow
            data_args = ["--kind", "blobs", "--samples-per-class", "4",
                         "--std", "1e200"]
            g = build_toy_mlp(hidden=8, seed=0)
        data = tmp_path / "data"
        assert main(["gen-data", *data_args, "--out", str(data)]) == 0
        model = tmp_path / "m.json"
        argv = ["score", "--model", str(model), "--data", str(data),
                "--out", str(tmp_path / "s.tsv")]
        save_model(g, model)
        assert main(argv) == 0
        for node in g.nodes.values():
            for name in ("w", "gamma"):
                if name in node.params:
                    node.params[name][...] = 3e38  # float32 holds it
        save_model(g, model)
        with np.errstate(all="ignore"):
            assert main(argv) == EXIT_NUMERIC

    def test_huge_finite_dense_activations_score(self, tmp_path):
        # fc3's activations reach ~1e157, so the squares inside a neuron's
        # norm overflow, but its energy (~1e158) is finite; this once
        # exited 4 as "non-finite scores"
        data = tmp_path / "data"
        assert main(["gen-data", "--kind", "blobs", "--samples-per-class", "4",
                     "--std", "1e40", "--out", str(data)]) == 0
        g = build_toy_mlp(hidden=8, seed=0)
        for node in g.nodes.values():
            for name in ("w", "gamma"):
                if name in node.params:
                    node.params[name][...] = 3e38
        model, scores = tmp_path / "m.json", tmp_path / "s.tsv"
        save_model(g, model)
        with np.errstate(over="raise"):
            assert main(["score", "--model", str(model), "--data", str(data),
                         "--out", str(scores)]) == 0
        _, rows = read_tsv(scores)
        fc3 = [float(row[2]) for row in rows if row[0] == "fc3"]
        assert len(fc3) == 8 and np.all(np.isfinite(fc3)) and max(fc3) > 1e150

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("argv", [
        ["eval"], ["score"], ["finetune", "--max-epochs", "1"],
        ["prune", "--criterion", "weight", "--threshold", "0.3"]],
        ids=["eval", "score", "finetune", "prune"])
    def test_non_finite_weight_is_data_error(self, workdir, tmp_path, capsys,
                                             argv, value):
        # finetune once trained on and saved back a NaN weight, and eval
        # printed an accuracy, both exiting 0
        g = load_model(workdir / "model.json")
        g.nodes["fc2"].params["w"].flat[7] = value
        model = tmp_path / "m.json"
        save_model(g, model)
        out = [] if argv[0] == "eval" else ["--out", str(tmp_path / "out")]
        assert main([*argv, "--model", str(model),
                     "--data", str(workdir / "data"), *out]) == EXIT_DATA
        assert "fc2: tensor 'w' holds NaN or inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truncated_model_blob_is_data_error(self, workdir, tmp_path):
        model = tmp_path / "m.json"
        save_model(load_model(workdir / "model.json"), model)
        blob = tmp_path / "m.json.bin"
        blob.write_bytes(blob.read_bytes()[:-5])
        assert main(["eval", "--model", str(model),
                     "--data", str(workdir / "data")]) == EXIT_DATA

    @pytest.mark.parametrize("fault", [
        "duplicate-id", "unknown-input", "unknown-kind", "mistyped-width",
        "tensor-attr-mismatch"])
    def test_broken_graph_manifest_is_data_error(self, tmp_path, fault):
        model = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), model)
        manifest = json.loads(model.read_text())
        nodes = {n["id"]: n for n in manifest["nodes"]}
        if fault == "duplicate-id":
            manifest["nodes"].insert(1, dict(nodes["fc1"]))
        elif fault == "unknown-input":
            nodes["fc2"]["inputs"] = ["nope"]
        elif fault == "unknown-kind":
            nodes["relu1"]["kind"] = "Conv3D"
        elif fault == "mistyped-width":
            nodes["out"]["attrs"]["out"] = "abc"
        else:
            nodes["fc1"]["attrs"]["out"] = nodes["fc2"]["attrs"]["in"] = 5
        model.write_text(json.dumps(manifest))
        assert main(["count", "--model", str(model)]) == EXIT_DATA

    @pytest.mark.parametrize("header", ["# shape=abc", "# shape=3"])
    def test_bad_dataset_header_is_data_error(self, workdir, tmp_path,
                                              header):
        # the blobs rows hold 2 features: 3 neither parses nor divides them
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "test"):
            lines = (workdir / "data" / f"{split}.csv").read_text().splitlines()
            assert lines[0] == "# shape=2"
            (data / f"{split}.csv").write_text("\n".join([header] + lines[1:]) + "\n")
        assert main(["eval", "--model", str(workdir / "model.json"),
                     "--data", str(data)]) == EXIT_DATA

    @pytest.mark.parametrize("node,k,pad", [("pool1", 10**6, 5 * 10**5),
                                            ("c4.conv", 7, 3)])
    def test_window_wider_than_its_input_is_data_error(self, tmp_path, node,
                                                       k, pad):
        # pool1 reads an 8x8 map and c4.conv a 2x2 one; pad <= k // 2
        # holds in both, and at k = 10**6 eval would pad to (10**6 + 8)**2
        g = build_toy_cnn_plain(seed=0)
        layer = g.nodes[node]
        layer.attrs.update(k=k, pad=pad)
        if "w" in layer.params:
            layer.params["w"] = np.zeros(layer.params["w"].shape[:2] + (k, k))
        model = tmp_path / "m.json"
        save_model(g, model)
        assert main(["count", "--model", str(model)]) == EXIT_DATA

    @pytest.mark.parametrize("p", [1, 1.0, 2.0])
    @pytest.mark.parametrize("command", ["eval", "finetune"])
    def test_dropout_rate_of_one_or_more_is_data_error(
            self, workdir, tmp_path, capsys, command, p):
        # finetune once exited 4 at p = 1 and trained on zeros at p = 2;
        # eval exited 0 on both
        model = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), model)
        manifest = json.loads(model.read_text())
        drop = next(n for n in manifest["nodes"] if n["id"] == "drop1")
        drop["attrs"]["p"] = p
        model.write_text(json.dumps(manifest))
        out = ([] if command == "eval" else
               ["--max-epochs", "1", "--out", str(tmp_path / "out")])
        assert main([command, "--model", str(model),
                     "--data", str(workdir / "data"), *out]) == EXIT_DATA
        assert "drop1: attr 'p'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bn_momentum_attr_is_ignored(self, tmp_path):
        # the engine once read it, so a string there made finetune die
        # with a TypeError traceback
        images = tmp_path / "images"
        assert main(["gen-data", "--kind", "images", "--samples-per-class",
                     "4", "--out", str(images)]) == 0
        plain, odd = tmp_path / "plain.json", tmp_path / "odd.json"
        save_model(build_toy_cnn_inception(seed=0), plain)
        manifest = json.loads(plain.read_text())
        for node in manifest["nodes"]:
            if node["kind"] == "BatchNorm":
                node["attrs"]["bn_momentum"] = "x"
        odd.write_text(json.dumps(manifest))
        (tmp_path / "odd.json.bin").write_bytes(
            (tmp_path / "plain.json.bin").read_bytes())
        for model in (plain, odd):
            assert main(["finetune", "--model", str(model), "--data",
                         str(images), "--max-epochs", "1", "--out",
                         str(tmp_path / f"tuned-{model.stem}.json")]) == 0
        assert (tmp_path / "tuned-odd.json.bin").read_bytes() \
            == (tmp_path / "tuned-plain.json.bin").read_bytes()

    def test_unreadable_model_blob_is_data_error(self, tmp_path):
        model = tmp_path / "m.json"
        save_model(build_toy_mlp(hidden=4, seed=0), model)
        blob = tmp_path / "m.json.bin"
        blob.unlink()
        blob.mkdir()
        assert main(["count", "--model", str(model)]) == EXIT_DATA

    def test_stability_data_without_model_is_config_error(self, tmp_path,
                                                          capsys):
        assert main(["stability", "--data", str(tmp_path / "nope"),
                     "--sizes", "4,8"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--model" in err and "--data" in err

    # "4" printed an empty table and "4,4" a set compared with itself, both
    # with exit 0; "0,4" failed on an empty record of a layer. Without
    # --model the sizes are checked before the default model is trained.
    @pytest.mark.parametrize("given_model", [True, False],
                             ids=["model", "default-model"])
    @pytest.mark.parametrize("sizes", ["4", "4,4", "0,4", "-4,8"])
    def test_senseless_stability_sizes_are_config_error(
            self, workdir, capsys, monkeypatch, sizes, given_model):
        monkeypatch.setattr("energyprune.experiments._trained_toy_cnn",
                            lambda seed: pytest.fail("trained before the "
                                                     "sizes were checked"))
        paths = (["--model", str(workdir / "model.json"),
                  "--data", str(workdir / "data")] if given_model else [])
        assert main(["stability", *paths, f"--sizes={sizes}"]) == EXIT_CONFIG
        assert f"sizes >= 1, got {sizes}" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["inf", "1e400", "1.5"])
    def test_non_integer_label_is_data_error(self, workdir, tmp_path, label):
        data = tmp_path / "data"
        data.mkdir()
        lines = (workdir / "data" / "train.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + label
        (data / "train.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(data), "--max-epochs", "1",
                     "--out", str(tmp_path / "m.json")]) == EXIT_DATA

    @pytest.mark.parametrize("argv", [
        ["train", "--max-epochs", "1"], ["finetune", "--max-epochs", "1"],
        ["eval"], ["score", "--criterion", "gradient"],
        ["score", "--criterion", "nuclear"]],
        ids=["train", "finetune", "eval", "score-gradient", "score-nuclear"])
    def test_non_finite_feature_is_data_error(self, workdir, tmp_path, capsys,
                                              argv):
        # train and finetune once saved a model full of NaN weights, eval
        # printed an accuracy and gradient scoring a table, all exiting 0
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "test"):
            lines = (workdir / "data" / f"{split}.csv").read_text().splitlines()
            for i, value in ((1, "nan"), (2, "inf")):
                lines[i] = value + "," + lines[i].split(",", 1)[1]
            (data / f"{split}.csv").write_text("\n".join(lines) + "\n")
        model = [] if argv[0] == "train" else ["--model", str(workdir / "model.json")]
        out = [] if argv[0] == "eval" else ["--out", str(tmp_path / "out")]
        assert main([*argv, *model, "--data", str(data), *out]) == EXIT_DATA
        assert "non-finite feature in row 'nan," in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["4", "-1"])
    def test_label_out_of_range_is_data_error(self, workdir, tmp_path, capsys,
                                              label):
        # the blobs have 4 classes, and so has the toy MLP
        data = tmp_path / "data"
        data.mkdir()
        lines = (workdir / "data" / "train.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + label
        (data / "train.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(data), "--max-epochs", "1",
                     "--out", str(tmp_path / "m.json")]) == EXIT_DATA
        assert "label out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["4", "-1"])
    def test_eval_label_out_of_range_is_data_error(self, workdir, tmp_path,
                                                   capsys, label):
        # eval once counted such a label as a miss and exited 0
        data = tmp_path / "data"
        data.mkdir()
        lines = (workdir / "data" / "test.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + label
        (data / "test.csv").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--model", str(workdir / "model.json"),
                     "--data", str(data)]) == EXIT_DATA
        assert "label out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "score", "finetune",
                                         "prune", "stability", "train"])
    def test_dataset_that_does_not_fit_the_model_is_data_error(
            self, workdir, tmp_path, capsys, command):
        # forward's batch-shape ValueError once made each of these exit 2
        images = tmp_path / "images"
        assert main(["gen-data", "--kind", "images", "--samples-per-class",
                     "2", "--out", str(images)]) == 0
        model = ["--model", str(workdir / "model.json")]
        out = ["--out", str(tmp_path / "out")]
        argv = {"eval": ["eval", *model, "--data", str(images)],
                "score": ["score", *model, "--data", str(images), *out],
                "finetune": ["finetune", *model, "--data", str(images),
                             "--max-epochs", "1", *out],
                "prune": ["prune", *model, "--data", str(images), *out],
                "stability": ["stability", *model, "--data", str(images),
                              "--sizes", "2,4"],
                "train": ["train", "--arch", "toy-cnn-plain", "--data",
                          str(workdir / "data"), "--max-epochs", "1", *out],
                }[command]
        assert main(argv) == EXIT_DATA
        split = "test" if command == "eval" else "train"
        shapes = ("(2,) does not match the model input (3, 8, 8)"
                  if command == "train" else
                  "(3, 8, 8) does not match the model input (2,)")
        assert f"{split}.csv: sample shape {shapes}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ragged_report_is_data_error(self, tmp_path, capsys):
        # a row shorter than its header once died in format_table (exit 1)
        report = tmp_path / "r.tsv"
        report.write_text("a\tb\tc\n1\t2\t3\n4\t5\n")
        assert main(["report", str(report)]) == EXIT_DATA
        assert "r.tsv:3: 2 fields" in capsys.readouterr().err

    # max_epoch, a misspelt max_epochs, was once dropped unread
    @pytest.mark.parametrize("setting", ["lr=nan", "val_fraction=1.0",
                                         "val_fraction=-0.5",
                                         "schedule=bogus", "max_epoch=1"])
    def test_senseless_train_config_is_config_error(self, workdir, tmp_path,
                                                    setting, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{setting}\nbatch_size=64\n")
        argv = ["train", "--data", str(workdir / "data"), "--max-epochs", "1",
                "--out", str(tmp_path / "m.json")]
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
        assert setting.split("=")[0] in capsys.readouterr().err
        if setting == "lr=nan":
            assert main(argv + ["--lr", "nan"]) == EXIT_CONFIG
        assert not (tmp_path / "m.json").exists()

    # the first five once exited 0 (non-finite features, a std the images
    # ignored, one class, a negative test fraction); the others exited 2
    # through numpy's reshape or NaN message, after writing train.csv
    @pytest.mark.parametrize("args, setting", [
        (["--std", "nan"], "std"),
        (["--std", "inf"], "std"),
        (["--kind", "images", "--std", "1.0"], "--std"),
        (["--kind", "images", "--classes", "1"], "classes"),
        (["--test-fraction", "-3"], "test_fraction"),
        (["--samples-per-class", "0"], "samples_per_class"),
        (["--test-fraction", "nan"], "test_fraction"),
        (["--kind", "images", "--test-fraction", "inf"], "test_fraction"),
    ])
    def test_senseless_gen_data_setting_is_config_error(self, tmp_path,
                                                        capsys, args,
                                                        setting):
        out = tmp_path / "data"
        assert main(["gen-data", "--samples-per-class", "4", *args,
                     "--out", str(out)]) == EXIT_CONFIG
        assert setting in capsys.readouterr().err
        assert not out.exists()

    # a validation split of every training sample once left train and
    # finetune no step to run: they wrote nan loss rows and exited 0
    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_validation_split_of_every_sample_is_config_error(
            self, workdir, tmp_path, command, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--kind", "blobs", "--samples-per-class", "1",
                     "--out", str(data)]) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("val_fraction=0.9\nmax_epochs=2\n")
        source = (["--arch", "toy-mlp"] if command == "train"
                  else ["--model", str(workdir / "model.json")])
        out = tmp_path / "m.json"
        assert main([command, *source, "--data", str(data), "--config",
                     str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "val_fraction 0.9" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


# --- corrupted model files --------------------------------------------------

@pytest.fixture(scope="module")
def corruptible(tmp_path_factory):
    """A saved toy MLP and residual CNN, each with a dataset to evaluate."""
    root = tmp_path_factory.mktemp("corrupt")
    cases = {}
    for name, g, kind in (("mlp", build_toy_mlp(hidden=8, seed=0), "blobs"),
                          ("cnn", build_toy_cnn_residual(seed=0), "images")):
        data = root / f"{name}-data"
        assert main(["gen-data", "--kind", kind, "--samples-per-class", "4",
                     "--out", str(data)]) == 0
        model = root / f"{name}.json"
        save_model(g, model)
        cases[name] = (json.loads(model.read_text()),
                       (root / f"{name}.json.bin").read_bytes(), data)
    return root, cases


def _key_paths(obj, prefix=()):
    """The path of every dict key and list index below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _key_paths(val, prefix + (key,))


ODD_VALUES = [None, "abc", 1.5, -1, 0, 10**9, [], {}, True, float("inf")]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrupted_model_never_raises(corruptible, data):
    root, cases = corruptible
    name = data.draw(st.sampled_from(sorted(cases)))
    manifest, blob, dataset = cases[name]
    manifest = json.loads(json.dumps(manifest))
    how = data.draw(st.sampled_from(["drop", "retype", "truncate", "flip"]))
    if how in ("drop", "retype"):
        path = data.draw(st.sampled_from(sorted(_key_paths(manifest), key=str)))
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.one_of(
                st.sampled_from(ODD_VALUES), st.integers(-2, 40)))
    elif how == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        at = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    model = root / "corrupted.json"
    model.write_text(json.dumps(manifest))
    (root / "corrupted.json.bin").write_bytes(blob)
    with np.errstate(all="ignore"):
        for argv in (["count", "--model", str(model)],
                     ["eval", "--model", str(model), "--data", str(dataset)],
                     ["finetune", "--model", str(model), "--data",
                      str(dataset), "--max-epochs", "1",
                      "--out", str(root / "tuned.json")]):
            assert main(argv) in (0, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)


# --- corrupted score tables -------------------------------------------------

@pytest.fixture(scope="module")
def score_lines(corruptible):
    """The lines of a weight-score table for each corruptible model."""
    root, cases = corruptible
    lines = {}
    for name in cases:
        g = load_model(root / f"{name}.json")
        table = compute_scores(g, "weight", None)
        lines[name] = ["\t".join(SCORE_HEADER)] + [
            "\t".join(str(v) for v in row) for row in score_table_rows(table)]
    return lines


ODD_CHANNELS = ["abc", "1.5", "", "-1", "99999999999999999999"]
ODD_SCORES = ["nan", "-1", "-0.0", "1e308", "inf", "abc", ""]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrupted_score_table_never_raises(corruptible, score_lines, data):
    root, cases = corruptible
    name = data.draw(st.sampled_from(sorted(cases)))
    header, *rows = score_lines[name]
    layers = sorted({row.split("\t")[0] for row in rows})
    how = data.draw(st.sampled_from(
        ["drop", "duplicate", "rename", "renumber", "rescore", "truncate"]))
    i = data.draw(st.integers(0, len(rows) - 1))
    fields = rows[i].split("\t")
    if how == "drop":
        del rows[i]
    elif how == "duplicate":
        rows.insert(data.draw(st.integers(0, len(rows))), rows[i])
    elif how == "rename":
        new = data.draw(st.sampled_from(layers + ["nope", "", "out"]))
        whole = data.draw(st.booleans())  # every row of the layer, or one
        rows = [new + row[len(fields[0]):]
                if row.startswith(fields[0] + "\t") and (whole or j == i)
                else row for j, row in enumerate(rows)]
    elif how in ("renumber", "rescore"):
        at = 1 if how == "renumber" else 2
        fields[at] = data.draw(st.one_of(
            st.integers(-2, 40).map(str),
            st.sampled_from(ODD_CHANNELS if at == 1 else ODD_SCORES)))
        rows[i] = "\t".join(fields)
    text = "\n".join([header] + rows) + "\n"
    if how == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    scores = root / "corrupted.tsv"
    scores.write_text(text)
    with np.errstate(all="ignore"):
        for flags in (["--mode", "per-layer", "--ratio", "0.5"],
                      ["--mode", "global", "--threshold", "0.3"]):
            assert main(["prune", "--model", str(root / f"{name}.json"),
                         "--scores", str(scores), *flags,
                         "--out", str(root / "pruned.json")]) \
                in (0, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)


# --- corrupted datasets and config files -------------------------------------

def _reading_commands(root, name, data, config=None):
    """Every subcommand that reads a dataset or a config file, at the
    smallest sizes."""
    model = str(root / f"{name}.json")
    arch = {"mlp": "toy-mlp", "cnn": "toy-cnn-residual"}[name]
    train = ["--max-epochs", "1", "--out", str(root / "trained.json")]
    if config:
        train += ["--config", str(config)]
    return (["train", "--data", str(data), "--arch", arch, *train],
            ["finetune", "--model", model, "--data", str(data), *train],
            ["score", "--model", model, "--data", str(data),
             "--out", str(root / "scores.tsv")],
            ["eval", "--model", model, "--data", str(data)],
            ["stability", "--model", model, "--data", str(data),
             "--sizes", "2,4"])


ODD_FIELDS = ["nan", "inf", "-inf", "1e400", "1e300", "1.5", "2.0", "-1", "4",
              "abc", "", " ", "0x1"]
ODD_HEADERS = ["# shape=0", "# shape=", "# shape=-2", "# shape=2,2",
               "# shape=1,1,2", "# shape=3,8,8", "# other", ""]


def _damage(raw: bytes, how: str, data) -> bytes:
    """raw cut short ("truncate") or with a non-UTF-8 byte ("bytes")."""
    if how not in ("truncate", "bytes"):
        return raw
    at = data.draw(st.integers(0, len(raw) - 1))
    return raw[:at] if how == "truncate" else raw[:at] + b"\xff" + raw[at:]


def _corrupt_csv(raw: bytes, how: str, data) -> bytes:
    header, *rows = raw.decode().splitlines()
    i = data.draw(st.integers(0, len(rows) - 1))
    fields = rows[i].split(",")
    if how in ("relabel", "refeature"):
        fields[-1 if how == "relabel" else 0] = \
            data.draw(st.sampled_from(ODD_FIELDS))
    elif how == "drop-field":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif how == "add-field":
        fields.insert(data.draw(st.integers(0, len(fields))), "0")
    rows[i] = ",".join(fields)
    if how == "drop-rows":
        rows = rows[:i]
    elif how == "header":
        header = data.draw(st.sampled_from(ODD_HEADERS))
    return _damage(("\n".join([header] + rows) + "\n").encode(), how, data)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrupted_dataset_never_raises(corruptible, data):
    root, cases = corruptible
    name = data.draw(st.sampled_from(sorted(cases)))
    how = data.draw(st.sampled_from(["relabel", "refeature", "drop-field",
                                     "add-field", "drop-rows", "header",
                                     "truncate", "bytes"]))
    corrupted = root / "corrupted-data"
    corrupted.mkdir(exist_ok=True)
    for split in ("train", "test"):  # eval reads test, the rest train
        raw = (cases[name][2] / f"{split}.csv").read_bytes()
        (corrupted / f"{split}.csv").write_bytes(_corrupt_csv(raw, how, data))
    with np.errstate(all="ignore"):
        for argv in _reading_commands(root, name, corrupted):
            assert main(argv) in (0, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)


TRAIN_CONFIG = {"lr": "0.02", "momentum": "0.9", "weight_decay": "5e-4",
                "schedule": "constant", "max_epochs": "1", "patience": "1",
                "batch_size": "64", "seed": "0", "val_fraction": "0.25"}
ODD_SETTINGS = ["nan", "inf", "-inf", "1e400", "-1", "0", "1", "1.5", "-0.5",
                "1.0", "abc", "", "bogus", "cosine"]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrupted_config_never_raises(corruptible, data):
    root, cases = corruptible
    name = data.draw(st.sampled_from(sorted(cases)))
    lines = [f"{k}={v}" for k, v in TRAIN_CONFIG.items()]
    how = data.draw(st.sampled_from(["revalue", "no-equals", "duplicate",
                                     "truncate", "bytes"]))
    i = data.draw(st.integers(0, len(lines) - 1))
    if how == "revalue":
        lines[i] = lines[i].split("=")[0] + "=" + \
            data.draw(st.sampled_from(ODD_SETTINGS))
    elif how == "no-equals":
        lines[i] = lines[i].replace("=", " ")
    elif how == "duplicate":
        lines.append(lines[i].split("=")[0] + "=" +
                     data.draw(st.sampled_from(ODD_SETTINGS)))
    config = root / "corrupted.cfg"
    config.write_bytes(_damage(("\n".join(lines) + "\n").encode(), how, data))
    with np.errstate(all="ignore"):
        # train and finetune are the commands that read a config
        for argv in _reading_commands(root, name, cases[name][2], config)[:2]:
            assert main(argv) in (0, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)


# --- corrupted reports --------------------------------------------------------

@pytest.fixture(scope="module")
def report_lines(corruptible, score_lines):
    """The lines of each kind of TSV that report reads: a score table, a
    prune plan and a toy-experiment report."""
    root, _ = corruptible
    scores = root / "cnn-scores.tsv"
    scores.write_text("\n".join(score_lines["cnn"]) + "\n")
    plan = root / "cnn-plan.tsv"
    assert main(["prune", "--model", str(root / "cnn.json"),
                 "--scores", str(scores), "--mode", "per-layer",
                 "--ratio", "0.5", "--plan", str(plan),
                 "--out", str(root / "cnn-pruned.json")]) == 0
    toy = root / "toy-report.tsv"
    write_tsv(toy, TOY_REPORT_HEADER, toy_experiment_report(
        {"rows": [(c, 0.9, 0.01, 1000, 5000) for c in CRITERIA]}))
    return {name: path.read_text().splitlines()
            for name, path in (("scores", scores), ("plan", plan),
                               ("toy-report", toy))}


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrupted_report_never_raises(corruptible, report_lines, data):
    root, _ = corruptible
    header, *rows = report_lines[data.draw(st.sampled_from(sorted(report_lines)))]
    how = data.draw(st.sampled_from(["drop-field", "add-field", "drop-rows",
                                     "header", "truncate", "bytes"]))
    i = data.draw(st.integers(0, len(rows) - 1))
    fields = rows[i].split("\t")
    if how == "drop-field":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif how == "add-field":
        fields.insert(data.draw(st.integers(0, len(fields))), "0")
    rows[i] = "\t".join(fields)
    if how == "drop-rows":
        rows = rows[:i]
    elif how == "header":
        header = data.draw(st.sampled_from(["", "layer", header + "\textra"]))
    report = root / "corrupted-report.tsv"
    report.write_bytes(_damage(("\n".join([header] + rows) + "\n").encode(),
                               how, data))
    code = main(["report", str(report)])
    assert code in (0, EXIT_DATA)
    if how in ("drop-field", "add-field", "header"):
        assert code == EXIT_DATA

"""Command-line interface: pipeline wiring and exit codes."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from energyprune.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC,
                             _build_arch, main)
from energyprune.criteria import CRITERIA, compute_scores
from energyprune.experiments import TOY_REPORT_HEADER, toy_experiment_report
from energyprune.modelio import (SCORE_HEADER, load_dataset, load_model,
                                 read_tsv, save_dataset, save_model,
                                 score_table_rows, write_tsv)
from energyprune.toybench import (build_reference_arch, build_toy_cnn_plain,
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
        assert main(["prune", "--model", str(model), "--scores", str(scores),
                     "--mode", mode, "--ratio", "0.5", "--threshold", "0.5",
                     "--out", str(tmp_path / "p.json")]) == EXIT_DATA
        assert "'nope'" in capsys.readouterr().err

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
        if kind == "conv":
            data_args = ["--kind", "images", "--samples-per-class", "2"]
            g = build_toy_cnn_plain(seed=0)
        else:
            data_args = ["--kind", "blobs", "--samples-per-class", "4"]
            g = build_toy_mlp(hidden=8, seed=0)
        data = tmp_path / "data"
        assert main(["gen-data", *data_args, "--out", str(data)]) == 0
        x, y = load_dataset(data / "train.csv")
        x.flat[3] = np.nan
        save_dataset(data / "train.csv", x, y)
        model = tmp_path / "m.json"
        save_model(g, model)
        with np.errstate(all="ignore"):
            code = main(["score", "--model", str(model), "--data", str(data),
                         "--out", str(tmp_path / "s.tsv")])
        assert code == EXIT_NUMERIC

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

    @pytest.mark.parametrize("label", ["inf", "1e400", "1.5"])
    def test_non_integer_label_is_data_error(self, workdir, tmp_path, label):
        data = tmp_path / "data"
        data.mkdir()
        lines = (workdir / "data" / "train.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + label
        (data / "train.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(data), "--max-epochs", "1",
                     "--out", str(tmp_path / "m.json")]) == EXIT_DATA

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

    def test_ragged_report_is_data_error(self, tmp_path, capsys):
        # a row shorter than its header once died in format_table (exit 1)
        report = tmp_path / "r.tsv"
        report.write_text("a\tb\tc\n1\t2\t3\n4\t5\n")
        assert main(["report", str(report)]) == EXIT_DATA
        assert "r.tsv:3: 2 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["lr=nan", "val_fraction=1.0",
                                         "val_fraction=-0.5",
                                         "schedule=bogus"])
    def test_senseless_train_config_is_config_error(self, workdir, tmp_path,
                                                    setting):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{setting}\nbatch_size=64\n")
        argv = ["train", "--data", str(workdir / "data"), "--max-epochs", "1",
                "--out", str(tmp_path / "m.json")]
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
        if setting == "lr=nan":
            assert main(argv + ["--lr", "nan"]) == EXIT_CONFIG
        assert not (tmp_path / "m.json").exists()

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
                     ["eval", "--model", str(model), "--data", str(dataset)]):
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

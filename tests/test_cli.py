"""Command-line interface: pipeline wiring and exit codes."""

import numpy as np
import pytest

from energyprune.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from energyprune.modelio import SCORE_HEADER, load_model, read_tsv, save_model
from energyprune.toybench import build_toy_cnn_plain


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
    ], ids=["missing-channel", "non-numeric-score", "short-row",
            "missing-last-channels", "not-a-prunable-layer"])
    def test_wrong_score_table_is_data_error(self, workdir, tmp_path, rows):
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(["\t".join(SCORE_HEADER)] + rows) + "\n")
        assert main(["prune", "--model", str(workdir / "model.json"),
                     "--scores", str(bad),
                     "--out", str(tmp_path / "p.json")]) == EXIT_DATA

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

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

"""The benchmark's own tests: a reduced-size run of every workload, with
tracing off and on, and the benchmark's definition file.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (puts the package sources on sys.path)
import harness  # noqa: E402
import oracles  # noqa: E402
from energyprune import criteria, engine, toybench  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_reports_every_metric(trace):
    p = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = run.benchmark_json(run.workloads(run.OUT / "unused"))
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    for name in run.workloads(run.OUT / "unused"):
        for m in declared:
            got = result["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert np.isfinite(got["value"])
            if trace == "0":
                assert got["value"] > 0


def test_benchmark_json_is_generated_from_the_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json(run.workloads(run.OUT / "unused"))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _bench("--workload", "arch-surgery", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def test_checks_catch_a_wrong_nuclear_score():
    data = toybench.gen_class_images(classes=4, samples_per_class=4, seed=0)
    g = toybench.ZOO_BUILDERS["toy-cnn-plain"](4, 0)
    records = engine.capture_activations(g, data.train_x[:8])
    table = criteria.score_nuclear(records)
    checks = harness.Checks()
    oracles.check_nuclear(checks, records, table, seed=0, per_record=16)
    assert checks.attempted > 0 and not checks.failures
    conv = next(r.layer_id for r in records if r.values.ndim == 4)
    table.scores[conv] = table.scores[conv] * (1 + 1e-6)
    oracles.check_nuclear(checks, records, table, seed=0, per_record=16)
    assert checks.failures

"""End-to-end acceptance checks.

Nine criteria covering the whole toolkit: the criterion-comparison
experiment, complexity calibration against published baseline figures,
SVD and Kendall oracles, mask/prune equivalence, gradient checks, rank
stability and data-quality robustness trends, and bitwise determinism.
Each heavy experiment runs once per module via a fixture and is then
interrogated by one or more tests.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import energyprune
from energyprune.cli import main
from energyprune.criteria import compute_scores, score_nuclear
from energyprune.engine import (capture_activations, forward, init_params,
                                logits_node)
from energyprune.experiments import (run_data_quality, run_stability,
                                     run_toy_experiment)
from energyprune.graph import (INPUT, ModelGraph, build_channel_groups,
                               rewrite_remove_channels)
from energyprune.linalg import (make_rng, nuclear_norm, nuclear_norms,
                                svd)
from energyprune.metrics import count_complexity, kendall_distance
from energyprune.toybench import (build_reference_arch, build_toy_mlp,
                                  build_zoo)
from helpers import (TOY_EXPERIMENTS, _bn, _conv, _dense, _op,
                     oracle_nuclear_norm)

SEEDS = (0, 1, 2, 3, 4)


# --- 1. criterion-comparison experiment ----------------------------------

@pytest.fixture(scope="module")
def toy_results():
    t0 = time.time()
    results = [run_toy_experiment(seed=s) for s in SEEDS]
    elapsed = time.time() - t0
    TOY_EXPERIMENTS.update(zip(SEEDS, results))
    return results, elapsed


def _median_drops(results):
    """Per criterion, the median accuracy drop in points over seeds."""
    names = [row[0] for row in results[0]["rows"]]
    out = {}
    for i, name in enumerate(names):
        vals = [100.0 * r["rows"][i][2] for r in results]
        out[name] = float(np.median(vals))
    out["_original_acc"] = float(np.median(
        [100.0 * r["rows"][0][1] for r in results]))
    return out


@pytest.mark.slow
def test_criterion_1_accuracy_ladder(toy_results):
    results, elapsed = toy_results
    med = _median_drops(results)
    assert med["_original_acc"] >= 92.0
    # the energy criterion barely hurts without fine-tuning
    assert med["nuclear"] <= 2.5
    # pure gradient signals collapse on a confidently-fit model
    assert med["gradient"] > 5.0 and med["taylor"] > 5.0
    assert med["nuclear"] < med["gradient"]
    assert med["nuclear"] < med["taylor"]
    # weight and LRP land between the two regimes (inclusive)
    lo, hi = med["nuclear"], med["gradient"]
    assert lo <= med["weight"] <= hi
    assert lo <= med["lrp"] <= hi
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_1_prunes_a_third_of_the_network(toy_results):
    results, _ = toy_results
    for r in results:
        base_params = r["rows"][0][3]
        for name, _, _, params, flops in r["rows"][1:]:
            assert params < base_params


# --- 2. complexity calibration -------------------------------------------

# published FLOPs/params for the reference CIFAR architectures
REFERENCE_COMPLEXITY = {
    "vgg16bn": (313.73e6, 14.98e6),
    "resnet56": (125.49e6, 0.85e6),
    "resnet110": (252.89e6, 1.72e6),
    "googlenet": (1.52e9, 6.15e6),
    "densenet40": (282.00e6, 1.04e6),
}


def test_criterion_2_complexity_calibration():
    t0 = time.time()
    for name, (ref_f, ref_p) in REFERENCE_COMPLEXITY.items():
        rep = count_complexity(build_reference_arch(name))
        assert abs(rep.flops - ref_f) / ref_f < 0.02, name
        assert abs(rep.params - ref_p) / ref_p < 0.02, name
    assert time.time() - t0 < 10.0


# --- 3. SVD / nuclear-norm oracle suite ----------------------------------

def test_criterion_3_svd_oracle_suite():
    t0 = time.time()
    rng = make_rng(314159)
    for _ in range(500):
        m, n = rng.integers(1, 65, size=2)
        a = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-2, 3)
        res = svd(a)
        scale = max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(res.reconstruct() - a) / scale < 1e-8
        r = min(m, n)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(r))) < 1e-10
        assert np.max(np.abs(res.v.T @ res.v - np.eye(r))) < 1e-10
        ref = oracle_nuclear_norm(a)
        assert abs(nuclear_norm(a) - ref) / max(ref, 1e-30) < 1e-8
    assert time.time() - t0 < 60.0


# --- 4. mask-equivalence suite -------------------------------------------

def _random_closed_removal(g, rng):
    """A random removal set closed under grouping that empties no layer.

    Groups touching the logits layer are skipped: removing a class
    column changes the output width, so masked and pruned forwards are
    only comparable for hidden-layer removals.
    """
    out = logits_node(g)
    groups = [grp for grp in build_channel_groups(g)
              if grp.prunable and all(lid != out for lid, _ in grp.slots)]
    rng.shuffle(groups)
    remaining = {}
    for grp in groups:
        for lid, _ in grp.slots:
            remaining.setdefault(lid, g.nodes[lid].attrs["out"])
    target = int(rng.integers(1, len(groups)))
    chosen = []
    for grp in groups:
        if len(chosen) >= target:
            break
        counts = {}
        for lid, _ in grp.slots:
            counts[lid] = counts.get(lid, 0) + 1
        if any(remaining[lid] - n < 1 for lid, n in counts.items()):
            continue
        for lid, n in counts.items():
            remaining[lid] -= n
        chosen.append(grp)
    slots = set()
    for grp in chosen:
        slots.update(grp.slots)
    return slots


def _bn_after_flatten(seed):
    """Conv -> Flatten -> BatchNorm -> Dense, with a random BatchNorm
    shift and running mean, so a masked channel's features leave the
    BatchNorm nonzero unless the mask reaches it."""
    g = ModelGraph((3, 4, 4))
    _conv(g, "c", INPUT, 3, 4)
    _op(g, "flat", "Flatten", "c")
    _bn(g, "bn", "flat", 64)
    _dense(g, "out", "bn", 64, 3)
    init_params(g, seed)
    rng = make_rng(seed)
    for name in ("beta", "mean"):
        g.nodes["bn"].params[name] = rng.normal(size=64)
    return g


def test_criterion_4_masked_equals_pruned():
    t0 = time.time()
    rng = make_rng(271828)
    models = {**build_zoo(k=4, seed=0), "bn-after-flatten": _bn_after_flatten(0)}
    for name, g in models.items():
        for trial in range(20):
            slots = _random_closed_removal(g, rng)
            if not slots:
                continue
            masks = {}
            for lid, ch in slots:
                masks.setdefault(lid,
                                 np.ones(g.nodes[lid].attrs["out"]))[ch] = 0.0
            pruned = rewrite_remove_channels(g, slots)
            for batch in range(5):
                x = rng.normal(size=(3,) + g.input_shape)
                a = forward(g, x, masks=masks).output
                b = forward(pruned, x).output
                scale = max(np.max(np.abs(a)), 1.0)
                assert np.max(np.abs(a - b)) / scale < 1e-6, (name, trial)
    assert time.time() - t0 < 120.0


# --- 5. gradient checks ---------------------------------------------------

from helpers import KIND_CONFIGS, fd_max_rel_err  # noqa: E402


@pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
def test_criterion_5_finite_difference_gradients(kind):
    for build in KIND_CONFIGS[kind]:
        g, x, y = build()
        assert fd_max_rel_err(g, x, y, h=1e-5) < 1e-4


# --- 6. Kendall correctness ----------------------------------------------

def test_criterion_6_kendall_exhaustive():
    for n in range(2, 7):
        ident = list(range(n))
        assert kendall_distance(ident, ident) == 0.0
        assert kendall_distance(ident, ident[::-1]) == 1.0
        for perm in itertools.permutations(ident):
            pos = {x: i for i, x in enumerate(perm)}
            disagree = sum(1 for a, b in itertools.combinations(ident, 2)
                           if pos[a] > pos[b])
            expect = 2.0 * disagree / (n * (n - 1))
            assert kendall_distance(ident, list(perm)) == pytest.approx(expect)


# --- 7. rank stability vs sample count -----------------------------------

@pytest.mark.slow
def test_criterion_7_stability_trend():
    per_pair = {(4, 8): [], (32, 64): [], (256, 512): []}
    for seed in SEEDS:
        rows = run_stability(seed=seed)
        for pair in per_pair:
            ds = [d for a, b, _, d in rows if (a, b) == pair]
            assert ds, pair
            per_pair[pair].append(float(np.mean(ds)))
    med = {pair: float(np.median(v)) for pair, v in per_pair.items()}
    # rankings stabilize as the sample set grows
    assert med[(32, 64)] <= med[(4, 8)]
    assert med[(256, 512)] <= 0.15


# --- 8. data-quality robustness ------------------------------------------

@pytest.mark.slow
def test_criterion_8_data_quality_robustness():
    dists = {"easy": [], "hard": []}
    spreads = []
    for seed in SEEDS:
        out = run_data_quality(seed=seed)
        dists["easy"].append(out["distances"]["easy"])
        dists["hard"].append(out["distances"]["hard"])
        accs = [100.0 * out["accuracies"][k] for k in ("small", "easy", "hard")]
        spreads.append(max(accs) - min(accs))
    assert float(np.median(dists["easy"])) <= 0.3
    assert float(np.median(dists["hard"])) <= 0.3
    assert float(np.median(spreads)) <= 1.5


# --- 9. determinism -------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_experiment_report_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    assert main(["toy-experiment", "--seed", "7", "--out", str(p1)]) == 0
    assert main(["toy-experiment", "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# Trains toy-cnn-residual for one epoch, then scores it by nuclear norm;
# prints the validation accuracies and the scores as JSON, whose float
# repr round-trips every bit.
ONE_EPOCH_REPORT = """
import json
from energyprune.criteria import compute_scores
from energyprune.engine import TrainConfig, train
from energyprune.toybench import build_toy_cnn_residual, gen_class_images
data = gen_class_images(samples_per_class=64, seed=3)
g, hist = train(build_toy_cnn_residual(seed=0), (data.train_x, data.train_y),
                TrainConfig(max_epochs=1, batch_size=32, seed=0))
table = compute_scores(g, "nuclear", data.test_x)
print(json.dumps({"val_acc": [row[2] for row in hist],
                  "scores": {lid: v.tolist() for lid, v in table.scores.items()}}))
"""


def test_criterion_9_report_is_blas_thread_invariant():
    # the README promises scores and accuracies that do not depend on the
    # BLAS thread count; the thread count is fixed when numpy loads, so
    # each count gets its own interpreter
    src = str(Path(energyprune.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", ONE_EPOCH_REPORT], env=env,
                             capture_output=True, text=True, check=True).stdout
        reports.append(json.loads(out))
    assert reports[0]["val_acc"] == reports[1]["val_acc"]
    assert reports[0]["scores"] == reports[1]["scores"]
    assert len(reports[0]["scores"]) == 5


def test_criterion_9_scoring_is_thread_invariant():
    # scoring a model from four concurrent callers gives the serial scores:
    # capture and kernels share no mutable state across calls
    zoo = build_zoo(k=4, seed=0)
    rng = make_rng(5)
    for g in zoo.values():
        x = rng.normal(size=(16,) + g.input_shape)
        serial = compute_scores(g, "nuclear", x)
        with ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(
                lambda _: compute_scores(g, "nuclear", x), range(4)))
        for table in tables:
            assert table.scores.keys() == serial.scores.keys()
            for lid in serial.scores:
                assert np.array_equal(table.scores[lid], serial.scores[lid])


def test_criterion_9_channel_scores_are_stack_composition_invariant():
    # the batched kernel scores a layer's channels as one stack; a
    # channel's score must not depend on the channels stacked with it
    for n in (4, 16):
        for g in build_zoo(k=4, seed=0).values():
            x = make_rng(n).normal(size=(n,) + g.input_shape)
            for rec in capture_activations(g, x):
                stack = rec.channel_stack()
                full = nuclear_norms(stack)
                assert np.array_equal(
                    score_nuclear([rec]).scores[rec.layer_id], full)
                for i in range(rec.n_channels):
                    assert np.array_equal(nuclear_norms(stack[i:i + 1]),
                                          full[i:i + 1])
    # dense neurons are N x 1 stacks through the same kernel, whose one
    # singular value is the neuron's Euclidean norm
    g = build_toy_mlp(hidden=16, seed=0)
    for rec in capture_activations(g, make_rng(1).normal(size=(32, 2))):
        stack = rec.channel_stack()
        full = nuclear_norms(stack)
        scores = score_nuclear([rec]).scores[rec.layer_id]
        assert np.array_equal(scores, full)
        for i in range(rec.n_channels):
            assert np.array_equal(nuclear_norms(stack[i:i + 1]), full[i:i + 1])
        assert np.allclose(scores, np.linalg.norm(rec.values, axis=0),
                           rtol=1e-15, atol=0)


def test_criterion_9_scoring_is_batch_composition_invariant():
    # a layer's scores depend only on its own activations: neither on a
    # repeated run nor on which other layers are scored alongside it
    zoo = build_zoo(k=4, seed=0)
    rng = make_rng(5)
    for g in zoo.values():
        x = rng.normal(size=(16,) + g.input_shape)
        first = compute_scores(g, "nuclear", x)
        again = compute_scores(g, "nuclear", x)
        assert first.scores.keys() == again.scores.keys()
        for lid in first.scores:
            assert np.array_equal(first.scores[lid], again.scores[lid])
        for rec in capture_activations(g, x):
            alone = score_nuclear([rec])
            assert np.array_equal(alone.scores[rec.layer_id],
                                  first.scores[rec.layer_id])

"""End-to-end experiment drivers shared by the CLI and the test suite.

``run_toy_experiment`` trains the 3x1000 MLP on 4-class blobs, prunes a
third of the hidden neurons under each criterion without fine-tuning,
and reports the accuracy ladder. ``run_stability`` sweeps rank stability
against sample-set size; ``run_data_quality`` probes easy/hard scoring
batches.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .criteria import CRITERIA, compute_scores
from .engine import TrainConfig, train
from .linalg import make_rng
from .metrics import (count_complexity, evaluate, kendall_distance,
                      ranking_from_scores, select_stability_layers,
                      stability_curve)
from .pruner import PruningSpec, execute, plan
from .toybench import (SELECT_BATCHES, ToyDatasetSpec, ZOO_BUILDERS,
                       build_toy_mlp, gen_blobs, gen_class_images,
                       select_by_loss)

TOY_TRAIN = TrainConfig(lr=0.005, momentum=0.9, weight_decay=5e-4,
                        schedule="cosine", max_epochs=40, patience=12,
                        batch_size=128)

# Widely separated, asymmetric 4-cluster layout for the criterion
# comparison: the trained model is confident on every sample, so
# activation-energy scores stay informative while pure gradient signals
# collapse into noise -- which is exactly the failure mode the
# comparison is meant to expose.
TOY_CENTERS = ((1.0, 1.2), (-1.3, -0.8), (1.15, -1.0), (-0.85, 1.05))
TOY_CENTER_SCALE = 6.0
TOY_STD = 1.0
TOY_SCORE_PER_CLASS = 32
TOY_PER_CLASS = 1000
TOY_HIDDEN = 1000
TOY_PRUNE_FRACTION = 1.0 / 3.0


def run_toy_experiment(seed: int = 0):
    """Criterion-comparison run: train, then per criterion prune a
    third of the hidden neurons globally with no fine-tuning.

    Returns {"rows": [(name, accuracy, drop, params, flops)], ...} with
    the unpruned model first."""
    spec = ToyDatasetSpec(classes=4, samples_per_class=TOY_PER_CLASS,
                          center_scale=TOY_CENTER_SCALE, std=TOY_STD,
                          seed=seed, centers=TOY_CENTERS)
    data = gen_blobs(spec)
    cfg = replace(TOY_TRAIN, seed=seed)
    model = build_toy_mlp(k=4, hidden=TOY_HIDDEN, seed=seed)
    model, history = train(model, (data.train_x, data.train_y), cfg)

    # fresh datapoints, unseen in training, for criterion computation
    score_set = gen_blobs(replace(spec, seed=seed + 1000,
                                  samples_per_class=TOY_SCORE_PER_CLASS,
                                  test_fraction=0.0))
    sx, sy = score_set.train_x, score_set.train_y

    base = count_complexity(model)
    orig_acc = evaluate(model, (data.test_x, data.test_y))
    rows = [("original", orig_acc, 0.0, base.params, base.flops)]
    for criterion in CRITERIA:
        table = compute_scores(model, criterion, sx, labels=sy, seed=seed)
        spec_p = PruningSpec(mode="global", threshold=TOY_PRUNE_FRACTION,
                             criterion=criterion)
        pruned = execute(model, plan(model, table, spec_p))
        acc = evaluate(pruned, (data.test_x, data.test_y))
        comp = count_complexity(pruned)
        rows.append((criterion, acc, orig_acc - acc, comp.params, comp.flops))
    return {"seed": seed, "rows": rows, "history": history,
            "model": model, "dataset": data}


def toy_experiment_report(result) -> list[tuple]:
    """Stable, serializable table rows for the comparison report."""
    return [(name, f"{100 * acc:.2f}", f"{100 * drop:.2f}", params, flops)
            for name, acc, drop, params, flops in result["rows"]]


TOY_REPORT_HEADER = ("criterion", "accuracy_pct", "drop_pct", "params", "flops")


def _trained_toy_cnn(seed: int):
    data = gen_class_images(classes=4, samples_per_class=192, seed=seed)
    cfg = TrainConfig(lr=0.02, max_epochs=25, patience=8, batch_size=64,
                      seed=seed)
    model = ZOO_BUILDERS["toy-cnn-plain"](4, seed)
    model, _ = train(model, (data.train_x, data.train_y), cfg)
    return model, data


STABILITY_POOL = 512


def run_stability(seed: int = 0, sizes=(4, 8, 16, 32, 64, 128, 256, 512),
                  criterion: str = "nuclear", model=None, data=None):
    """Kendall distance between the rankings from nested sample sets of
    consecutive sizes, on 4 evenly spaced layers. ``model`` and ``data``
    (samples, labels) default to a trained toy-cnn-plain and a fresh
    pool of ``STABILITY_POOL`` images."""
    if model is None:
        model, _ = _trained_toy_cnn(seed)
        pool = gen_class_images(classes=4,
                                samples_per_class=STABILITY_POOL // 4,
                                seed=seed + 500)
        data = (pool.train_x, pool.train_y)
    samples, labels = data
    return stability_curve(model, samples, criterion, sizes, seed=seed,
                           labels=labels)


def run_data_quality(seed: int = 0, batch_size: int = 32,
                     finetune_epochs: int = 30, ratio: float = 0.30):
    """Easy/hard/small scoring-set comparison on toy-cnn-plain.

    Returns per-condition Kendall distance to the 10-batch reference
    ranking and post-prune (with fine-tune) accuracy."""
    model, data = _trained_toy_cnn(seed)
    trainset = x, y = data.train_x, data.train_y
    layers = select_stability_layers(model)

    perm = make_rng(seed).permutation(len(x))
    ref_idx = perm[:SELECT_BATCHES * batch_size]
    small_idx = perm[:batch_size]
    sets = {
        "small": (x[small_idx], y[small_idx]),
        "easy": select_by_loss(model, trainset, "easy", batch_size, seed=seed),
        "hard": select_by_loss(model, trainset, "hard", batch_size, seed=seed),
    }
    reference = compute_scores(model, "nuclear", x[ref_idx], seed=seed)

    distances = {}
    accuracies = {}
    cfg = TrainConfig(lr=0.01, max_epochs=finetune_epochs,
                      patience=finetune_epochs, batch_size=64, seed=seed)
    for name, (sx, sy) in sets.items():
        table = compute_scores(model, "nuclear", sx, seed=seed)
        ds = [kendall_distance(ranking_from_scores(table.scores[lid]),
                               ranking_from_scores(reference.scores[lid]))
              for lid in layers]
        distances[name] = float(np.mean(ds))
        spec = PruningSpec(mode="per-layer", ratio=ratio, criterion="nuclear")
        pruned = execute(model, plan(model, table, spec))
        pruned, _ = train(pruned, trainset, cfg)
        accuracies[name] = evaluate(pruned, (data.test_x, data.test_y))
    return {"distances": distances, "accuracies": accuracies}

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
from .engine import TrainConfig, evaluate, train
from .linalg import make_rng
from .metrics import (count_complexity, layer_distances,
                      select_stability_layers)
from .pruner import PruningSpec, execute, plan, prune_pipeline
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

    Returns {"seed": seed, "rows": [(name, accuracy, drop, params,
    flops)]} with the unpruned model first."""
    spec = ToyDatasetSpec(classes=4, samples_per_class=TOY_PER_CLASS,
                          center_scale=TOY_CENTER_SCALE, std=TOY_STD,
                          seed=seed, centers=TOY_CENTERS)
    data = gen_blobs(spec)
    cfg = replace(TOY_TRAIN, seed=seed)
    model = build_toy_mlp(k=4, hidden=TOY_HIDDEN, seed=seed)
    model, _ = train(model, (data.train_x, data.train_y), cfg)

    # fresh datapoints, unseen in training, for criterion computation
    score_set = gen_blobs(replace(spec, seed=seed + 1000,
                                  samples_per_class=TOY_SCORE_PER_CLASS,
                                  test_fraction=0.0))
    sx, sy = score_set.train_x, score_set.train_y

    base = count_complexity(model)
    orig_acc = evaluate(model, (data.test_x, data.test_y))
    rows = [("original", orig_acc, 0.0, base.params, base.flops)]
    for criterion in CRITERIA:
        spec_p = PruningSpec(mode="global", threshold=TOY_PRUNE_FRACTION,
                             criterion=criterion)
        pruned, rep = prune_pipeline(model, (data.train_x, data.train_y),
                                     spec_p, scoring_samples=sx,
                                     scoring_labels=sy, seed=seed)
        acc = evaluate(pruned, (data.test_x, data.test_y))
        rows.append((criterion, acc, orig_acc - acc, rep["params_after"],
                     rep["flops_after"]))
    return {"seed": seed, "rows": rows}


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
# data-quality probe: scoring-set size, fine-tune epochs, per-layer ratio
QUALITY_BATCH, QUALITY_EPOCHS, QUALITY_RATIO = 32, 30, 0.30


def run_stability(seed: int = 0, sizes=(4, 8, 16, 32, 64, 128, 256, 512),
                  criterion: str = "nuclear", model=None, data=None):
    """Kendall distance between the rankings from nested sample sets of
    consecutive sizes, on the ``select_stability_layers`` layers.
    ``model`` and ``data`` (samples, labels) default to a trained
    toy-cnn-plain and a fresh pool of ``STABILITY_POOL`` images.

    The size-B set is a prefix of the size-2B set, drawn by a seeded
    permutation of the pool. Returns rows
    (size_small, size_large, layer_id, distance)."""
    # checked before a default model is trained
    sizes = sorted(int(b) for b in sizes)
    if len(sizes) < 2 or len(set(sizes)) < len(sizes) or sizes[0] < 1:
        raise ValueError("stability needs two or more distinct sizes >= 1, got "
                         + ",".join(map(str, sizes)))
    if model is None:
        model, _ = _trained_toy_cnn(seed)
        pool = gen_class_images(classes=4,
                                samples_per_class=STABILITY_POOL // 4,
                                seed=seed + 500)
        data = (pool.train_x, pool.train_y)
    samples, labels = data
    if sizes[-1] > len(samples):
        raise ValueError("largest batch size exceeds the sample pool")
    layers = select_stability_layers(model)
    perm = make_rng(seed).permutation(len(samples))
    tables = {}
    for b in sizes:
        idx = perm[:b]
        tables[b] = compute_scores(
            model, criterion, samples[idx],
            labels=None if labels is None else labels[idx], seed=seed)
    return [(small, large, lid, d) for small, large in zip(sizes, sizes[1:])
            for lid, d in zip(layers, layer_distances(
                tables[small], tables[large], layers))]


def run_data_quality(seed: int = 0):
    """Easy/hard/small scoring-set comparison on toy-cnn-plain.

    Returns per-condition Kendall distance to the 10-batch reference
    ranking and post-prune (with fine-tune) accuracy."""
    model, data = _trained_toy_cnn(seed)
    trainset = x, y = data.train_x, data.train_y
    layers = select_stability_layers(model)

    perm = make_rng(seed).permutation(len(x))
    ref_idx = perm[:SELECT_BATCHES * QUALITY_BATCH]
    small_idx = perm[:QUALITY_BATCH]
    sets = {"small": (x[small_idx], y[small_idx])}
    for kind in ("easy", "hard"):
        sets[kind] = select_by_loss(model, trainset, kind, QUALITY_BATCH,
                                    seed=seed)
    reference = compute_scores(model, "nuclear", x[ref_idx], seed=seed)

    distances, accuracies = {}, {}
    cfg = TrainConfig(lr=0.01, max_epochs=QUALITY_EPOCHS,
                      patience=QUALITY_EPOCHS, batch_size=64, seed=seed)
    spec = PruningSpec(mode="per-layer", ratio=QUALITY_RATIO,
                       criterion="nuclear")
    for name, (sx, sy) in sets.items():
        table = compute_scores(model, "nuclear", sx, seed=seed)
        distances[name] = float(np.mean(
            layer_distances(table, reference, layers)))
        pruned = execute(model, plan(model, table, spec))
        pruned, _ = train(pruned, trainset, cfg)
        accuracies[name] = evaluate(pruned, (data.test_x, data.test_y))
    return {"distances": distances, "accuracies": accuracies}

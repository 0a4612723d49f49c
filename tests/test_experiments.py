"""Experiment drivers: report formatting and the default blob benchmark."""

import numpy as np
import pytest

from energyprune.engine import TrainConfig, train
from energyprune.metrics import evaluate
from energyprune.experiments import (TOY_REPORT_HEADER, run_stability,
                                     toy_experiment_report)
from energyprune.linalg import make_rng
from energyprune.toybench import (ToyDatasetSpec, build_toy_cnn_plain,
                                  build_toy_mlp, gen_blobs)


def test_report_rows_are_formatted():
    result = {"rows": [("original", 0.9512, 0.0, 123, 456),
                       ("nuclear", 0.9311, 0.0201, 100, 400)]}
    rows = toy_experiment_report(result)
    assert rows == [("original", "95.12", "0.00", 123, 456),
                    ("nuclear", "93.11", "2.01", 100, 400)]
    assert len(TOY_REPORT_HEADER) == len(rows[0])


def test_run_stability_accepts_external_model():
    g = build_toy_cnn_plain(seed=0)
    samples = make_rng(1).normal(size=(16, 3, 8, 8))
    labels = np.arange(16) % 4
    rows = run_stability(seed=0, sizes=(4, 8, 16), model=g,
                         data=(samples, labels))
    assert {(a, b) for a, b, _, _ in rows} == {(4, 8), (8, 16)}
    assert all(0.0 <= d <= 1.0 for _, _, _, d in rows)


@pytest.mark.slow
def test_default_blobs_are_learnable_but_not_saturated():
    """With the default overlap the 4-class blobs land in the mid-90s:
    hard enough that accuracy is informative, easy enough to train."""
    data = gen_blobs(ToyDatasetSpec(seed=0))
    cfg = TrainConfig(lr=0.01, max_epochs=40, patience=12, batch_size=128,
                      seed=0)
    model, _ = train(build_toy_mlp(seed=0), (data.train_x, data.train_y), cfg)
    acc = evaluate(model, (data.test_x, data.test_y))
    assert 0.93 <= acc <= 0.97

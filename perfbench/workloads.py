"""The benchmark's workloads.

Each workload has a set-up (data plus the starting models) and a pass,
which calls the package's public functions in the order ``experiments``
and ``cli`` use them. A pass returns its outcome: values that must repeat
exactly from pass to pass under one seed, and the quality figures.

Sizes are cut from the paper-scale experiments so that a pass takes a few
seconds on one core with the current pure-Python Jacobi kernel (a 64x64
channel matrix costs about 0.3 s there). The shapes that matter are kept:
the 1000-wide MLP, the zoo's 8x8 feature maps, channel matrices on both
sides of N = h*w, and the full-size reference architectures.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from energyprune import (criteria, engine, graph, linalg, metrics, modelio,
                         pruner, toybench)
from energyprune.experiments import (TOY_CENTER_SCALE, TOY_CENTERS,
                                     TOY_SCORE_PER_CLASS, TOY_STD, TOY_TRAIN)

import oracles

# Nested scoring-set sizes of the stability sweep. Channel matrices of
# toy-cnn-plain are N x 64, N x 16 and N x 4, so these cover wide, square
# and tall shapes.
STABILITY_SIZES = (4, 8, 16)
# The Jacobi kernel's sweep count depends on the data; sweeping several
# independently seeded models per pass averages that out.
STABILITY_REPLICAS = 3
KENDALL_NAME = f"metrics.kendall_{STABILITY_SIZES[-2]}_{STABILITY_SIZES[-1]}"

# Quality figures a pass reports; each workload reports its own.
QUALITY = ("metrics.nuclear_drop_pct", "metrics.finetuned_acc_pct",
           KENDALL_NAME)

PER_LAYER_RATIO = 0.3
GLOBAL_THRESHOLD = 0.3
MLP_THRESHOLD = 1.0 / 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object  # (rec, seed, small, checks) -> state
    run: object  # (rec, state, checks) -> outcome dict
    steady: bool = True  # listed in BENCHMARK.json


# --- calls shared by the workloads ---------------------------------------

def train(rec, g, dataset, cfg):
    """engine.train, with the work it did as span attributes."""
    with rec.span("engine.train") as attrs:
        model, history = engine.train(g, dataset, cfg)
    n = len(dataset[0])
    n_train = n - int(round(cfg.val_fraction * n))
    epochs = len(history)
    attrs.update(epochs=epochs, samples=epochs * n_train,
                 steps=epochs * -(-n_train // cfg.batch_size))
    return model, epochs


def nuclear_scores(rec, checks, g, samples, seed):
    """Capture once, then score each record with its own call, so the
    time of every channel-matrix shape can be read from the spans."""
    with rec.span("engine.capture_activations"):
        records = engine.capture_activations(g, samples, seed=seed)
    table = criteria.ScoreTable(criterion="nuclear", n_samples=len(samples),
                                seed=seed)
    for r in records:
        n, c = r.values.shape[:2]
        cols = int(np.prod(r.values.shape[2:]))
        # an N x 1 matrix is scored by its Euclidean norm, not the SVD
        layer = "linalg" if r.values.ndim == 4 else "criteria"
        with rec.span("criteria.score_nuclear", layer=layer, n=n, cols=cols,
                      channels=c, channels_scored=c, cells=n * cols * c):
            part = criteria.score_nuclear([r], seed=seed)
        table.scores.update(part.scores)
    checks.defer(oracles.check_nuclear, records, table, seed)
    return table


def score(rec, checks, g, criterion, x, y, seed):
    if criterion == "nuclear":
        return nuclear_scores(rec, checks, g, x, seed)
    if criterion == "weight":
        with rec.span("criteria.score_weight") as attrs:
            table = criteria.score_weight(g)
    elif criterion in ("gradient", "taylor"):
        with rec.span("engine.capture_activations"):
            records, grads = engine.capture_activations(
                g, x, labels=y, want_grads=True, seed=seed)
        fn = criteria.score_gradient if criterion == "gradient" \
            else criteria.score_taylor
        with rec.span(f"criteria.score_{criterion}") as attrs:
            table = fn(records, grads)
    else:
        with rec.span("criteria.score_lrp") as attrs:
            table = criteria.score_lrp(g, x, seed=seed)
    attrs["channels_scored"] = sum(len(v) for v in table.scores.values())
    return table


def prune(rec, checks, g, table, spec, groups=None):
    """pruner.plan then pruner.execute; the plan's size is checked
    against its target after the pass."""
    with rec.span("pruner.plan") as attrs:
        the_plan = pruner.plan(g, table, spec)
    attrs["removed"] = the_plan.n_removed_channels()
    with rec.span("pruner.execute"):
        pruned = pruner.execute(g, the_plan)
    checks.defer(_check_plan, g, table, spec, the_plan, groups)
    return pruned, attrs["removed"]


def _check_plan(checks, g, table, spec, the_plan, groups):
    if groups is None:
        groups = graph.build_channel_groups(g)
    protected = set(spec.protected) if spec.protected is not None \
        else pruner.default_protected(g)
    oracles.check_plan_target(checks, g, table, spec, the_plan, groups,
                              protected)


# --- mlp-ladder ------------------------------------------------------------

def mlp_setup(rec, seed, small, checks):
    per_class, hidden, epochs = (200, 128, 3) if small else (500, 1000, 2)
    spec = toybench.ToyDatasetSpec(
        classes=4, samples_per_class=per_class, center_scale=TOY_CENTER_SCALE,
        std=TOY_STD, seed=seed, centers=TOY_CENTERS)
    with rec.span("toybench.gen_blobs"):
        data = toybench.gen_blobs(spec)
        scoring = toybench.gen_blobs(replace(
            spec, seed=seed + 1000, samples_per_class=TOY_SCORE_PER_CLASS,
            test_fraction=0.0))
    with rec.span("toybench.build_toy_mlp"):
        model = toybench.build_toy_mlp(k=4, hidden=hidden, seed=seed)
    # A fixed epoch count (patience never runs out) keeps the work the
    # same for every seed.
    cfg = replace(TOY_TRAIN, max_epochs=epochs, patience=epochs, seed=seed)
    return {"seed": seed, "data": data, "scoring": scoring, "model": model,
            "cfg": cfg}


def mlp_pass(rec, st, checks):
    data, seed = st["data"], st["seed"]
    test = (data.test_x, data.test_y)
    sx, sy = st["scoring"].train_x, st["scoring"].train_y
    model, epochs = train(rec, st["model"], (data.train_x, data.train_y),
                          st["cfg"])
    with rec.span("metrics.count_complexity"):
        metrics.count_complexity(model)
    with rec.span("metrics.evaluate"):
        base_acc = metrics.evaluate(model, test)
    checks.expect(base_acc >= 0.9,
                  f"trained MLP test accuracy {base_acc} below 0.9")
    accs, removed = {}, {}
    for crit in criteria.CRITERIA:
        table = score(rec, checks, model, crit, sx, sy, seed)
        spec = pruner.PruningSpec(mode="global", threshold=MLP_THRESHOLD,
                                  criterion=crit)
        pruned, removed[crit] = prune(rec, checks, model, table, spec)
        with rec.span("metrics.evaluate"):
            accs[crit] = metrics.evaluate(pruned, test)
        with rec.span("metrics.count_complexity"):
            metrics.count_complexity(pruned)
    return {"epochs": epochs, "base_acc": base_acc, "accs": accs,
            "removed": removed,
            "quality": {"metrics.nuclear_drop_pct":
                        100.0 * (base_acc - accs["nuclear"])}}


# --- cnn-stability ---------------------------------------------------------

def _train_zoo_model(rec, name, data, seed, epochs):
    with rec.span("toybench.build_zoo_model"):
        model = toybench.ZOO_BUILDERS[name](4, seed)
    cfg = engine.TrainConfig(lr=0.02, max_epochs=epochs, patience=epochs,
                             batch_size=64, seed=seed)
    model, _ = train(rec, model, (data.train_x, data.train_y), cfg)
    return model


def stability_setup(rec, seed, small, checks):
    per_class, epochs = (16, 1) if small else (32, 8)
    replicas = []
    for j in range(STABILITY_REPLICAS):
        sub = seed * STABILITY_REPLICAS + j
        with rec.span("toybench.gen_class_images"):
            data = toybench.gen_class_images(
                classes=4, samples_per_class=per_class, seed=sub)
            pool = toybench.gen_class_images(
                classes=4, samples_per_class=STABILITY_SIZES[-1] // 4,
                seed=sub + 500).train_x
        model = _train_zoo_model(rec, "toy-cnn-plain", data, sub, epochs)
        order = linalg.make_rng(sub).permutation(len(pool))
        replicas.append((sub, model, pool[order]))
    return {"replicas": replicas,
            "layers": metrics.select_stability_layers(replicas[0][1])}


def stability_pass(rec, st, checks):
    rows, removed = [], []
    for sub, g, pool in st["replicas"]:
        tables = {b: nuclear_scores(rec, checks, g, pool[:b], sub)
                  for b in STABILITY_SIZES}
        with rec.span("metrics.kendall"):
            for small, large in zip(STABILITY_SIZES, STABILITY_SIZES[1:]):
                for lid in st["layers"]:
                    r1 = metrics.ranking_from_scores(tables[small].scores[lid])
                    r2 = metrics.ranking_from_scores(tables[large].scores[lid])
                    rows.append((small, r1, r2,
                                 metrics.kendall_distance(r1, r2)))
        # prune with the ranking from the largest scoring set
        spec = pruner.PruningSpec(mode="per-layer", ratio=PER_LAYER_RATIO)
        removed.append(prune(rec, checks, g, tables[STABILITY_SIZES[-1]],
                             spec)[1])
    checks.defer(oracles.check_kendall, [r[1:] for r in rows])
    top = [d for small, _, _, d in rows if small == STABILITY_SIZES[-2]]
    return {"distances": [r[3] for r in rows], "removed": removed,
            "quality": {KENDALL_NAME: float(np.mean(top))}}


# --- zoo-finetune ----------------------------------------------------------

ZOO_SCORE_SAMPLES = 8


def zoo_setup(rec, seed, small, checks):
    per_class, epochs = (16, 1) if small else (64, 3)
    with rec.span("toybench.gen_class_images"):
        data = toybench.gen_class_images(classes=4,
                                         samples_per_class=per_class, seed=seed)
    models = {name: _train_zoo_model(rec, name, data, seed, epochs)
              for name in toybench.ZOO_BUILDERS}
    ft_epochs = 1 if small else 4
    cfg = engine.TrainConfig(lr=0.01, max_epochs=ft_epochs,
                             patience=ft_epochs, batch_size=64, seed=seed)
    return {"seed": seed, "data": data, "models": models, "cfg": cfg}


def zoo_pass(rec, st, checks):
    data, seed = st["data"], st["seed"]
    trainset = (data.train_x, data.train_y)
    sx = data.train_x[:ZOO_SCORE_SAMPLES]
    accs, removed = {}, {}
    for name, g in st["models"].items():
        table = nuclear_scores(rec, checks, g, sx, seed)
        spec = pruner.PruningSpec(mode="per-layer", ratio=PER_LAYER_RATIO)
        pruned, removed[name] = prune(rec, checks, g, table, spec)
        tuned, _ = train(rec, pruned, trainset, st["cfg"])
        with rec.span("metrics.evaluate"):
            accs[name] = metrics.evaluate(tuned, (data.test_x, data.test_y))
    return {"accs": accs, "removed": removed,
            "quality": {"metrics.finetuned_acc_pct":
                        100.0 * float(np.mean(list(accs.values())))}}


# --- arch-surgery ----------------------------------------------------------

ARCHS = tuple(oracles.REFERENCE_COMPLEXITY)
SMALL_ARCHS = ("resnet56", "densenet40")


def arch_setup(rec, seed, small, checks):
    models = {}
    for name in SMALL_ARCHS if small else ARCHS:
        with rec.span("toybench.build_reference_arch"):
            g = toybench.build_reference_arch(name)
        with rec.span("engine.init_params"):
            models[name] = engine.init_params(g, seed)
        checks.defer(_check_calibration, name, models[name])
    return {"seed": seed, "models": models}


def _check_calibration(checks, name, g):
    rep = metrics.count_complexity(g)
    ref_f, ref_p = oracles.REFERENCE_COMPLEXITY[name]
    checks.expect(abs(rep.flops - ref_f) / ref_f < oracles.COMPLEXITY_RTOL
                  and abs(rep.params - ref_p) / ref_p < oracles.COMPLEXITY_RTOL,
                  f"{name}: {rep.flops} FLOPs / {rep.params} params, "
                  f"published {ref_f:g} / {ref_p:g}")


def arch_pass(rec, st, checks):
    workdir = st["workdir"]
    removed, sizes = {}, {}
    for name, g in st["models"].items():
        with rec.span("graph.build_channel_groups") as attrs:
            groups = graph.build_channel_groups(g)
        attrs["groups"] = len(groups)
        table = score(rec, checks, g, "weight", None, None, st["seed"])
        spec = pruner.PruningSpec(mode="global", threshold=GLOBAL_THRESHOLD,
                                  criterion="weight")
        pruned, removed[name] = prune(rec, checks, g, table, spec, groups)
        with rec.span("metrics.count_complexity"):
            metrics.count_complexity(pruned)
        path = workdir / f"{name}.json"
        with rec.span("modelio.save_model") as attrs:
            modelio.save_model(pruned, path)
        attrs["bytes"] = sizes[name] = _saved_bytes(path)
        with rec.span("modelio.load_model"):
            loaded = modelio.load_model(path)
        checks.defer(_check_round_trip, path, loaded)
    return {"removed": removed, "bytes": sizes, "quality": {}}


def _saved_bytes(path: Path) -> int:
    return path.stat().st_size + Path(f"{path}.bin").stat().st_size


def _check_round_trip(checks, path, loaded):
    """save -> load -> save is byte-identical."""
    again = path.with_name(path.stem + ".again.json")
    modelio.save_model(loaded, again)
    same = all(Path(a).read_bytes() == Path(b).read_bytes()
               for a, b in ((path, again), (f"{path}.bin", f"{again}.bin")))
    checks.expect(same, f"{path.name}: save -> load -> save changed the bytes")


def arch_setup_in(workdir: Path):
    """arch-surgery writes its models under ``workdir``."""
    def setup(rec, seed, small, checks):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        state = arch_setup(rec, seed, small, checks)
        state["workdir"] = workdir
        return state
    return setup


def workloads(workdir: Path) -> dict:
    return {w.name: w for w in (
        # Not steady across seeds, so not in BENCHMARK.json: once the MLP
        # is confident its softmax underflows and backward works on
        # subnormal gradients, in numbers that depend on the seed; over
        # seeds 0-5 a backward step took 41 to 261 ms (2-core x86-64 VM,
        # one OpenBLAS thread).
        Workload("mlp-ladder",
                 "dense 1000-wide GEMM backprop and the SGD update dominate "
                 "(engine ~84 %); five criteria score, plan and execute; no "
                 "Jacobi SVD", mlp_setup, mlp_pass, steady=False),
        Workload("cnn-stability",
                 "nuclear scores of 3 toy-cnn-plain models on nested 4/8/16 "
                 "samples: Jacobi SVD on wide, square and tall channel "
                 "matrices is ~99 % of a pass", stability_setup, stability_pass),
        Workload("zoo-finetune",
                 "per-layer prune and fine-tune of plain, residual, inception "
                 "and dense CNNs: conv training ~70 %, Jacobi scoring ~28 %, "
                 "surgery on every topology", zoo_setup, zoo_pass),
        Workload("arch-surgery",
                 "groups, weight scores, global plan, execute, save, load on "
                 "5 full-size architectures: pruner ~60 %, modelio ~23 %, "
                 "graph ~11 %; no training, no SVD", arch_setup_in(workdir),
                 arch_pass),
    )}

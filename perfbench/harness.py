"""Timing, span recording, correctness bookkeeping and metric assembly.

Every call the benchmark makes into an energyprune module goes through
``Recorder.span``. The span's layer is the module it calls, so per-layer
self time is the sum of that layer's span durations within a pass; the
calls never nest, because the benchmark wraps only its own calls into the
package. Whatever part of a pass no span covers is the harness's own glue
and is reported as layer ``bench``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# run.py pins these to 1 before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 10

LAYERS = ("engine", "criteria", "linalg", "graph", "pruner", "metrics",
          "modelio", "bench")

# Spans whose time is "trained model to pruned model".
PRUNE_SPANS = ("engine.capture_activations", "criteria.score_nuclear",
               "criteria.score_weight", "criteria.score_gradient",
               "criteria.score_taylor", "criteria.score_lrp",
               "graph.build_channel_groups", "pruner.plan", "pruner.execute")


def environment() -> dict:
    """What a result must be read with: machine, cores, Python, numpy and
    its BLAS, and the BLAS thread settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    uname = os.uname()
    return {
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


class Recorder:
    """Times each call into the package.

    Per pass it sums seconds by span name (enough for the end-to-end
    metrics); when the pass is traced it also keeps every span with its
    start, end, parent and attributes, in memory until the run ends."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self.calls = 0
        self._parent = None
        self._traced = False
        self._totals: dict = {}
        self._pass_spans: list[dict] = []

    def begin(self, parent: str, traced: bool) -> None:
        self._parent, self._traced = parent, traced
        self._totals, self._pass_spans = {}, []

    def end(self):
        """Closes the current parent; returns (totals by name, spans)."""
        self.spans.extend(self._pass_spans)
        return self._totals, self._pass_spans

    @contextmanager
    def span(self, name: str, layer: str | None = None, **attrs):
        """Time the body as one call named ``module.function``. The body
        may add attributes to the yielded dict."""
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self.calls += 1
            self._totals[name] = self._totals.get(name, 0.0) + (end - start)
            if self._traced:
                self._pass_spans.append({
                    "name": name, "layer": layer or name.split(".")[0],
                    "parent": self._parent, "start": start - self.t0,
                    "end": end - self.t0, "attrs": attrs})


class Checks:
    """Correctness checks. A check that touches a pass's outputs is
    deferred until the pass's clock has stopped."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._deferred: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def defer(self, fn, *args) -> None:
        """Run ``fn(self, *args)`` after the pass."""
        self._deferred.append((fn, args))

    def run_deferred(self) -> None:
        pending, self._deferred = self._deferred, []
        for fn, args in pending:
            fn(self, *args)


# The host's speed drifts by up to ~30 % over tens of seconds when other
# jobs share it. So every timed unit (a set-up or a pass) is bracketed by
# runs of a fixed calibration kernel, and the end-to-end times are scaled
# by REFERENCE_CAL_S / (mean calibration time around the unit): they read
# as seconds on a host where calibrate() takes REFERENCE_CAL_S (a 2-core
# x86-64 VM with OpenBLAS 0.3.31 and Python 3.11, in its faster periods).
REFERENCE_CAL_S = 0.0105
_CAL_A = np.random.default_rng(0).random((192, 192))
_CAL_V = np.random.default_rng(1).random((64, 16))


def _calibration_work() -> None:
    """The three kinds of work the package's hot paths do: BLAS products,
    interpreter loops, and numpy calls on small vectors (Jacobi-style
    column rotations)."""
    for _ in range(8):
        _CAL_A @ _CAL_A
    x = 0
    for i in range(60000):
        x += i * i
    w = _CAL_V.copy()
    for _ in range(3):
        for p in range(15):
            for q in range(p + 1, 16):
                a, b = w[:, p], w[:, q]
                theta = 0.5 * np.arctan2(2.0 * (a @ b), a @ a - b @ b)
                c, s = np.cos(theta), np.sin(theta)
                w[:, p], w[:, q] = c * a + s * b, -s * a + c * b


def calibrate() -> float:
    """Median seconds, of three, for the calibration work."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _calibration_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class PassResult:
    wall_s: float
    speed: float  # REFERENCE_CAL_S / calibration time around the pass
    totals: dict
    spans: list
    outcome: dict


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)  # (raw seconds, speed)
    setup_spans: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 small: bool, rec: Recorder, checks: Checks) -> RunResult:
    """Set up at least SETUP_REPEATS times and for SETUP_MIN_S, then run
    passes until ``seconds`` have gone by. With ``trace`` the passes
    alternate traced and untraced (traced first), so one run also yields
    the tracing overhead. An exception from the package is recorded and
    ends the run."""
    result = RunResult()
    cal = calibrate()
    try:
        i = 0
        while i < SETUP_REPEATS or (sum(t for t, _ in result.setup_s)
                                    < SETUP_MIN_S and i < SETUP_MAX_REPEATS):
            state = None  # one set-up's state alive at a time
            rec.begin(f"setup{i}", trace)
            t0 = perf_counter()
            state = workload.setup(rec, seed, small, checks)
            took = perf_counter() - t0
            result.setup_spans.append(rec.end()[1])
            after = calibrate()
            result.setup_s.append((took, 2 * REFERENCE_CAL_S / (cal + after)))
            cal = after
            checks.run_deferred()
            i += 1
        start = perf_counter()
        i = 0
        while True:
            rec.begin(f"pass{i}", trace and i % 2 == 0)
            t0 = perf_counter()
            outcome = workload.run(rec, state, checks)
            wall = perf_counter() - t0
            totals, spans = rec.end()
            after = calibrate()
            result.passes.append(PassResult(
                wall, 2 * REFERENCE_CAL_S / (cal + after), totals, spans,
                outcome))
            cal = after
            checks.run_deferred()
            i += 1
            if perf_counter() - start >= seconds and (not trace or i >= 2):
                break
    except Exception:  # a failing call into the package is a failed operation
        result.errors.append(traceback.format_exc())
    if result.passes:
        first = result.passes[0].outcome
        for p in result.passes[1:]:
            checks.expect(p.outcome == first,
                          "pass outputs differ from the first pass's: "
                          "the workload is not deterministic under its seed")
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: RunResult) -> dict:
    """Medians over the set-ups and the untraced passes, at reference
    speed."""
    untraced = [p for p in result.passes if not p.spans] or result.passes
    return {
        "setup_s": statistics.median(t * v for t, v in result.setup_s),
        "wall_s": statistics.median(p.wall_s * p.speed for p in untraced),
        "prune_s": statistics.median(
            p.speed * sum(p.totals.get(n, 0.0) for n in PRUNE_SPANS)
            for p in untraced),
        "peak_rss_mb": peak_rss_mb(),
    }


def unscaled(result: RunResult) -> dict:
    """The host's measured speed and the times before scaling."""
    return {
        "bench.speed": statistics.median(p.speed for p in result.passes),
        "bench.raw_wall_s": statistics.median(p.wall_s for p in result.passes),
        "bench.raw_setup_s": statistics.median(t for t, _ in result.setup_s),
    }


def _sum(spans, name=None, layer=None, attr=None, where=None):
    total = 0.0
    for s in spans:
        if name is not None and s["name"] != name:
            continue
        if layer is not None and s["layer"] != layer:
            continue
        if where is not None and not where(s["attrs"]):
            continue
        total += s["attrs"].get(attr, 0) if attr else s["end"] - s["start"]
    return total


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(p: PassResult, stability_sizes) -> dict:
    """Per-layer metrics of one traced pass."""
    s = p.spans
    m = {}
    train_s = _sum(s, "engine.train")
    steps = _sum(s, "engine.train", attr="steps")
    m["engine.train_s"] = train_s
    m["engine.train_steps"] = steps
    m["engine.train_epochs"] = _sum(s, "engine.train", attr="epochs")
    m["engine.ms_per_step"] = _ratio(train_s, steps, 1e3)
    m["engine.train_samples_per_s"] = _ratio(
        _sum(s, "engine.train", attr="samples"), train_s)
    m["engine.capture_s"] = _sum(s, "engine.capture_activations")
    m["engine.capture_calls"] = sum(
        1 for x in s if x["name"] == "engine.capture_activations")
    for crit in ("nuclear", "weight", "gradient", "taylor", "lrp"):
        m[f"criteria.score_s.{crit}"] = _sum(s, f"criteria.score_{crit}")
    m["criteria.channels_scored"] = _sum(s, attr="channels_scored")

    nuc = [x for x in s if x["layer"] == "linalg"]
    m["linalg.nuclear_s"] = _sum(nuc)
    for n in stability_sizes:
        m[f"linalg.nuclear_s.n{n}"] = _sum(nuc, where=lambda a, n=n: a["n"] == n)
    for shape, is_tall in (("tall", True), ("wide", False)):
        pick = (lambda a, t=is_tall: (a["n"] >= a["cols"]) == t)
        m[f"linalg.ms_per_matrix.{shape}"] = _ratio(
            _sum(nuc, where=pick), _sum(nuc, attr="channels", where=pick), 1e3)
    m["linalg.matrices"] = _sum(nuc, attr="channels")
    m["linalg.cells"] = _sum(nuc, attr="cells")

    m["graph.groups_s"] = _sum(s, "graph.build_channel_groups")
    m["graph.groups"] = _sum(s, "graph.build_channel_groups", attr="groups")
    m["pruner.plan_s"] = _sum(s, "pruner.plan")
    m["pruner.execute_s"] = _sum(s, "pruner.execute")
    m["pruner.removed_channels"] = _sum(s, "pruner.plan", attr="removed")
    m["metrics.evaluate_s"] = _sum(s, "metrics.evaluate")
    m["metrics.count_s"] = _sum(s, "metrics.count_complexity")
    m["metrics.kendall_s"] = _sum(s, "metrics.kendall")
    m["modelio.save_s"] = _sum(s, "modelio.save_model")
    m["modelio.load_s"] = _sum(s, "modelio.load_model")
    m["modelio.bytes_written"] = _sum(s, "modelio.save_model", attr="bytes")

    covered = 0.0
    for layer in LAYERS[:-1]:
        t = _sum(s, layer=layer)
        covered += t
        m[f"self_s.{layer}"] = t
    m["self_s.bench"] = p.wall_s - covered
    for layer in LAYERS:
        m[f"self_pct.{layer}"] = _ratio(m[f"self_s.{layer}"], p.wall_s, 100.0)
    m["trace.spans"] = len(s)
    return m


def per_layer_names(stability_sizes, quality) -> list[str]:
    empty = PassResult(wall_s=1.0, speed=1.0, totals={}, spans=[], outcome={})
    return (["toybench.gen_s"] + list(layer_metrics(empty, stability_sizes))
            + ["trace.overhead_pct", "bench.speed", "bench.raw_wall_s",
               "bench.raw_setup_s"] + list(quality))


def per_layer(result: RunResult, names, stability_sizes) -> dict:
    """Medians over the traced passes, plus set-up and quality figures;
    a layer the workload does not use reads 0."""
    traced = [p for p in result.passes if p.spans]
    untraced = [p for p in result.passes if not p.spans]
    rows = [layer_metrics(p, stability_sizes) for p in traced]
    out = dict.fromkeys(names, 0.0)
    if rows:
        out.update({k: statistics.median(r[k] for r in rows) for k in rows[0]})
    out["toybench.gen_s"] = statistics.median(
        _sum(spans, layer="toybench") for spans in result.setup_spans)
    if traced and untraced:
        t = statistics.median(p.wall_s * p.speed for p in traced)
        u = statistics.median(p.wall_s * p.speed for p in untraced)
        out["trace.overhead_pct"] = 100.0 * (t - u) / u
    if result.passes:
        out.update(unscaled(result))
        out.update(result.passes[0].outcome["quality"])
    return out

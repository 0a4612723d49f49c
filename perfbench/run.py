"""energyprune benchmark: one command, four workloads.

    python3 perfbench/run.py --workload zoo-finetune --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --write-benchmark-json

Run it from the repository root; it benchmarks the sources under ``src/``
next to this directory. Each run sets its workload up at least three times
(``setup_s`` is the median), then repeats the workload's pass for
``--seconds`` and reports medians over passes, with times scaled to a
reference host speed (see ``harness.REFERENCE_CAL_S``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run also writes its spans
to ``perfbench/out/trace-<workload>-seed<seed>.jsonl``. A failed check or
call makes the exit code 1; missing sources make it 2.

BENCHMARK.json lists the workloads whose figures are steady across seeds;
``mlp-ladder`` runs here but is left out of it (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "energyprune" / "__init__.py").is_file():
    print(f"perfbench: no energyprune sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

# One BLAS thread, fixed before numpy loads: never more than the cores
# there are, and the same on both sides of any comparison.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from harness import (Checks, Recorder, end_to_end, environment,  # noqa: E402
                     per_layer, per_layer_names, run_workload, unscaled)
from workloads import QUALITY, STABILITY_SIZES, workloads  # noqa: E402

RUN_SECONDS = 30

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "prune_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]

_UNITS = {"engine.ms_per_step": "ms", "engine.train_samples_per_s": "1/s",
          "linalg.ms_per_matrix.tall": "ms", "linalg.ms_per_matrix.wide": "ms",
          "modelio.bytes_written": "bytes", "bench.speed": "ratio",
          QUALITY[-1]: "ratio"}
_HIGHER = ("engine.train_samples_per_s", "metrics.finetuned_acc_pct")


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_pct") or "_pct." in name:
        return "%"
    return "count"


def benchmark_json(table) -> dict:
    """The benchmark's definition, as BENCHMARK.json holds it."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in table.values() if w.steady],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": n, "unit": _unit(n),
             "better": "higher" if n in _HIGHER else "lower"}
            for n in per_layer_names(STABILITY_SIZES, QUALITY)],
    }


def run_one(workload, args, spec):
    """Runs one workload; prints its table; returns its result fields."""
    rec, checks = Recorder(), Checks()
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, rec, checks)
    for err in result.errors:
        print(f"{workload.name}: call failed\n{err}", file=sys.stderr)
    for msg, n in Counter(checks.failures).items():
        print(f"{workload.name}: check failed x{n}: {msg}", file=sys.stderr)
    attempted = rec.calls + checks.attempted
    failed = len(result.errors) + len(checks.failures)
    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in declared],
                           STABILITY_SIZES) if result.passes else {}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps({"env": environment(), "workload": workload.name,
                                 "seed": args.seed}) + "\n")
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        declared = spec["end_to_end"]
        values = end_to_end(result) if result.passes else {}
    print(f"== {workload.name}  seed {args.seed}  "
          f"{len(result.passes)} passes  trace {args.trace}")
    for m in declared:
        if m["name"] in values:
            print(f"  {m['name']:34s} {values[m['name']]:>14.6g} {m['unit']}")
    if not args.trace and result.passes:
        extra = {**unscaled(result), **result.passes[0].outcome["quality"]}
        for name, value in extra.items():
            print(f"  {name:34s} {value:>14.6g} {_unit(name)}")
    print(f"  {'error_rate':34s} {failed / max(attempted, 1):>14.6g} "
          f"({failed} failed of {attempted} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    ok = failed == 0 and len(metrics) == len(declared)
    return ok, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    table = workloads(workdir)
    spec = benchmark_json(table)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        return 0
    names = list(table) if args.workload == "all" else [args.workload]
    if any(n not in table for n in names):
        parser.error(f"--workload must be one of {list(table)} or 'all'")

    print("env " + json.dumps(environment()))
    results = []
    try:
        for name in names:
            results.append(run_one(table[name], args, spec))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        ok, attempted, failed, metrics = results[0]
    else:  # --workload all: one process, so peak_rss_mb is cumulative
        ok = all(r[0] for r in results)
        attempted = sum(r[1] for r in results)
        failed = sum(r[2] for r in results)
        metrics = {f"{n}.{k}": v for n, r in zip(names, results)
                   for k, v in r[3].items()}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

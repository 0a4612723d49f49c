"""Command-line interface.

Every experiment is reproducible from the shell: exit code 2 flags a
config error, 3 a data error, 4 a numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .criteria import CRITERIA, compute_scores
from .engine import (DivergenceError, LabelError, TrainConfig, evaluate,
                     init_params, train)
from .experiments import (TOY_REPORT_HEADER, run_stability,
                          run_toy_experiment, toy_experiment_report)
from .graph import GraphError
from .linalg import ConvergenceError, DomainError
from .metrics import FLOPS_CONVENTION, count_complexity
from .modelio import (DataFormatError, PLAN_HEADER, SCORE_HEADER,
                      format_table, load_config, load_dataset, load_model,
                      plan_rows, read_score_table, read_tsv, save_dataset,
                      save_model, score_table_rows, write_tsv)
from .pruner import (PlanError, PruningSpec, check_score_widths,
                     execute, plan)
from .toybench import (REFERENCE_BUILDERS, ToyDatasetSpec, ZOO_BUILDERS,
                       build_reference_arch, build_toy_mlp, gen_blobs,
                       gen_class_images)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _train_config(args) -> TrainConfig:
    """The config file's settings, each converted to the type of its
    TrainConfig default, then the flags."""
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    raw = load_config(args.config) if getattr(args, "config", None) else {}
    for key in raw:
        if key not in kinds:
            raise ValueError(f"{args.config}: unknown train setting {key!r}; "
                             f"known: {', '.join(kinds)}")
    cfg = TrainConfig(**{key: kinds[key](val) for key, val in raw.items()})
    return replace(cfg, **{name: getattr(args, name) for name in kinds
                           if getattr(args, name, None) is not None})


def _add_train_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--schedule", choices=["cosine", "constant"])
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--seed", type=int)


def _build_arch(name: str, seed: int):
    if name == "toy-mlp":
        return build_toy_mlp(seed=seed)
    if name in ZOO_BUILDERS:
        return ZOO_BUILDERS[name](4, seed)
    return init_params(build_reference_arch(name), seed)


def _load_split(g, data, split: str):
    """``<data>/<split>.csv``, refused as a data error unless its samples
    fit the input of ``g``."""
    path = Path(data) / f"{split}.csv"
    x, y = load_dataset(path)
    if x.shape[1:] != g.input_shape:
        raise DataFormatError(f"{path}: sample shape {x.shape[1:]} does not "
                              f"match the model input {g.input_shape}")
    return x, y


def cmd_gen_data(args):
    if args.kind == "blobs":
        spec = ToyDatasetSpec(classes=args.classes,
                              samples_per_class=args.samples_per_class,
                              std=args.std, seed=args.seed,
                              test_fraction=args.test_fraction)
        data = gen_blobs(spec)
    else:
        data = gen_class_images(classes=args.classes,
                                samples_per_class=args.samples_per_class,
                                seed=args.seed,
                                test_fraction=args.test_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(out / "train.csv", data.train_x, data.train_y)
    save_dataset(out / "test.csv", data.test_x, data.test_y)
    print(f"wrote {out}/train.csv ({len(data.train_x)} rows) and "
          f"{out}/test.csv ({len(data.test_x)} rows)")


def cmd_train(args):
    cfg = _train_config(args)
    g = _build_arch(args.arch, cfg.seed)
    g, history = train(g, _load_split(g, args.data, "train"), cfg)
    save_model(g, args.out)
    write_tsv(Path(args.out).with_suffix(".history.tsv"),
              ("epoch", "train_loss", "val_acc", "lr"),
              [(e, f"{l:.6f}", f"{a:.6f}", f"{lr:.6g}") for e, l, a, lr in history])
    print(f"trained {args.arch}: best val acc "
          f"{max(h[2] for h in history):.4f}; model at {args.out}")


def cmd_score(args):
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    g = load_model(args.model)
    x, y = _load_split(g, args.data, "train")
    if args.samples:
        x, y = x[:args.samples], y[:args.samples]
    table = compute_scores(g, args.criterion, x, labels=y, seed=args.seed)
    write_tsv(args.out, SCORE_HEADER, score_table_rows(table))
    print(f"wrote {args.out} ({sum(len(v) for v in table.scores.values())} channels)")


def cmd_prune(args):
    if not (args.scores or args.data):
        raise ValueError("prune needs a score source: --scores or --data")
    own, other = ("threshold", "ratio") if args.mode == "global" \
        else ("ratio", "threshold")
    if getattr(args, other) is not None:
        raise ValueError(f"--mode {args.mode} takes --{own}, not --{other}")
    g = load_model(args.model)
    if args.scores:
        table = read_score_table(args.scores)
        try:
            check_score_widths(g, table)
        except PlanError as exc:
            raise DataFormatError(f"{args.scores}: {exc}") from exc
    else:
        x, y = _load_split(g, args.data, "train")
        table = compute_scores(g, args.criterion, x, labels=y, seed=args.seed)
    spec = PruningSpec(mode=args.mode, ratio=args.ratio or 0.0,
                       threshold=args.threshold or 0.0,
                       criterion=table.criterion)
    p = plan(g, table, spec)
    pruned = execute(g, p)
    save_model(pruned, args.out)
    if args.plan:
        write_tsv(args.plan, PLAN_HEADER, plan_rows(p))
    print(f"removed {p.n_removed_channels()} channels; "
          f"FLOPs {p.baseline_flops} -> {p.predicted_flops}; model at {args.out}")


def cmd_finetune(args):
    cfg = _train_config(args)
    g = load_model(args.model)
    g, history = train(g, _load_split(g, args.data, "train"), cfg)
    save_model(g, args.out)
    print(f"fine-tuned: best val acc {max(h[2] for h in history):.4f}; "
          f"model at {args.out}")


def cmd_eval(args):
    g = load_model(args.model)
    acc = evaluate(g, _load_split(g, args.data, "test"))
    print(f"top-1 accuracy: {acc:.4f}")


def cmd_count(args):
    if args.model:
        g = load_model(args.model)
    elif args.arch in REFERENCE_BUILDERS:
        g = build_reference_arch(args.arch)  # counting reads only shapes
    else:
        g = _build_arch(args.arch, 0)
    rep = count_complexity(g)
    rows = [(nid, f, p) for nid, (f, p) in rep.per_layer.items() if f or p]
    print(format_table(("layer", "flops", "params"), rows))
    print(f"\ntotal: {rep.flops} FLOPs, {rep.params} params "
          f"({FLOPS_CONVENTION})")


def cmd_stability(args):
    sizes = [int(s) for s in args.sizes.split(",")]
    model = data = None
    if bool(args.model) != bool(args.data):
        raise ValueError("stability takes --model and --data together")
    if args.model:
        model = load_model(args.model)
        data = _load_split(model, args.data, "train")
    rows = run_stability(seed=args.seed, sizes=sizes, criterion=args.criterion,
                         model=model, data=data)
    out_rows = [(a, b, lid, f"{k:.6f}") for a, b, lid, k in rows]
    header = ("size_small", "size_large", "layer", "kendall_distance")
    if args.out:
        write_tsv(args.out, header, out_rows)
    print(format_table(header, out_rows))


def cmd_toy_experiment(args):
    result = run_toy_experiment(seed=args.seed)
    rows = toy_experiment_report(result)
    if args.out:
        write_tsv(args.out, TOY_REPORT_HEADER, rows)
    print(format_table(TOY_REPORT_HEADER, rows))


def cmd_report(args):
    header, rows = read_tsv(args.infile)
    print(format_table(header, rows))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="energyprune",
        description="Energy-aware (nuclear-norm) structured filter pruning")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a toy dataset")
    p.add_argument("--kind", choices=["blobs", "images"], default="blobs")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples-per-class", type=int, default=1000)
    p.add_argument("--std", type=float, default=0.9)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train an architecture on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", default="toy-mlp")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="compute channel importance scores")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--criterion", choices=CRITERIA, default="nuclear")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("prune", help="plan and execute channel removal")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", help="score table TSV (else score inline)")
    p.add_argument("--data", help="dataset dir for inline scoring")
    p.add_argument("--criterion", choices=CRITERIA, default="nuclear")
    p.add_argument("--mode", choices=["global", "per-layer"], default="global")
    p.add_argument("--ratio", type=float,
                   help="per-layer mode: each layer loses floor(ratio * "
                   "width) channels, or fewer if an Add ties it to less")
    p.add_argument("--threshold", type=float,
                   help="global mode: fraction of all prunable channels")
    p.add_argument("--plan", help="write the auditable plan TSV here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("finetune", help="fine-tune a (pruned) model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="top-1 accuracy on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", help="FLOPs/params report")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model")
    g.add_argument("--arch")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("stability", help="rank stability vs sample count")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--criterion", choices=CRITERIA, default="nuclear")
    p.add_argument("--sizes", default="4,8,16,32,64,128,256,512")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("toy-experiment",
                       help="criterion comparison on 4-class blobs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_toy_experiment)

    p = sub.add_parser("report", help="render a TSV report as a table")
    p.add_argument("infile")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (DataFormatError, LabelError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, FloatingPointError, ConvergenceError,
            DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PlanError, GraphError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())

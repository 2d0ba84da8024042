"""Command-line surface: training, evaluation, and verification tools.

Subcommands: train-align, train-classify, eval, verify-reductions,
gradcheck, metrics-report.  Each prints a human-readable table to
standard output and can write a machine-readable `key<TAB>value` report
file.  Exit codes: 0 success, 1 validation problem, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import io as io_mod
from .checks import (END_TO_END_TASKS, end_to_end_gradient_fd,
                     reduction_discrepancy, scorer_gradient_fd)
from .metrics import hits_at_k, mrr
from .propagation import REDUCTION_MODES, config_scorer, model_forward, relation_width
from .scorers import SCORERS
from .tasks import (EmbeddingState, UnsupportedModeError, evaluate_alignment,
                    evaluate_classification, scores_from_logits, train_alignment,
                    train_classification, zero_shot_relation_alignment)


def _add_train_flags(sub: argparse.ArgumentParser, task: str) -> None:
    sub.add_argument("--config", help="key = value configuration file")
    for key in io_mod.TRAIN_KEYS:
        if task == "align" or key not in io_mod.ALIGN_KEYS:
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key)
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-epoch progress lines")


def _overrides(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in io_mod.TRAIN_KEYS if getattr(args, k, None) is not None}


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(epoch, loss, metric):
        if epoch % 50 == 0:
            tail = "" if metric is None else f"  valid {metric:.4f}"
            print(f"epoch {epoch:4d}  loss {loss:.6f}{tail}", flush=True)

    return progress


def _aggregate(per_run: list, seed: int) -> dict:
    out = {"seed": seed}
    for key in sorted(per_run[0]):
        vals = [m[key] for m in per_run]
        out[key] = float(np.mean(vals))
        if len(vals) > 1:
            out[key + "_std"] = float(np.std(vals))
    return out


def _emit(report: dict, runtime: float, report_path) -> None:
    for key in sorted(report):
        print(f"{key:16s} {io_mod.format_value(report[key])}")
    print(f"{'runtime_seconds':16s} {runtime:.2f}")
    if report_path:
        io_mod.write_report(report_path, report)
        print(f"report written to {report_path}")


def _train(args: argparse.Namespace, task: str, prepare) -> int:
    """Shared body of the training subcommands: prepare(values, bundle) reads
    and checks what all runs share and returns run_one(cfg, progress) ->
    (test metrics, layer params, embedding tables, best validation metric);
    `runs` seeded runs of it, one aggregated report, the last run's checkpoint."""
    overrides = _overrides(args)
    overrides["task"] = task
    values = io_mod.parse_config(args.config, overrides)
    bundle = (io_mod.load_alignment_bundle if task == "align"
              else io_mod.load_classification_bundle)(values)
    run_one = prepare(values, bundle)
    t0 = time.perf_counter()
    per_run = []
    for run in range(values["runs"]):
        cfg = io_mod.train_config(values)
        cfg.seed = values["seed"] + run
        metrics, *last = run_one(cfg, _progress_printer(args.quiet))
        per_run.append(metrics)
    report = _aggregate(per_run, values["seed"])
    if values.get("checkpoint"):
        io_mod.save_checkpoint(values["checkpoint"], io_mod.pack_model(values, *last))
        print(f"checkpoint written to {values['checkpoint']}")
    _emit(report, time.perf_counter() - t0, values.get("report"))
    return 0


def _test_metrics(bundle, finals: list) -> dict:
    """The task's metrics of its final states, one per graph (a classifier's
    entities are its logits), on the test split, else valid, else train."""
    ls = bundle.label_set
    split = bundle.seeds if ls is None else ls
    ids = split.test or split.valid or split.train
    if not ids:
        raise io_mod.DataError(f"no {'labeled entities' if ls else 'seed pairs'} to evaluate")
    if ls is None:
        return evaluate_alignment(*finals, ids)
    return evaluate_classification(scores_from_logits(finals[0].entity, ls.multi_label), ls, ids)


def _prepare_alignment(values, bundle):
    rel_test, rel_pairs = values.get("rel_test"), None
    if rel_test:
        if relation_width(io_mod.train_config(values).model_config()) is None:
            raise UnsupportedModeError("relation alignment needs a mode with relation "
                                       f"embeddings, not {values['mode']}")
        rel_pairs = io_mod.load_alignments(rel_test, *bundle.relation_vocabs,
                                           what="relation")
        if not rel_pairs:
            raise io_mod.DataError(f"{rel_test}: no relation pairs")

    def run_one(cfg, progress):
        res = train_alignment(*bundle.graphs, bundle.seeds, cfg, progress=progress)
        metrics = _test_metrics(bundle, [res.state1, res.state2])
        if rel_pairs:
            rel = zero_shot_relation_alignment(res.state1, res.state2, rel_pairs)
            metrics.update(relation_mrr=rel["mrr"], relation_hits1=rel["hits1"])
        return metrics, res.params, {"g1": res.init1, "g2": res.init2}, res.best_valid_hits1

    return run_one


def _prepare_classification(values, bundle):
    def run_one(cfg, progress):
        res = train_classification(bundle.graphs[0], bundle.label_set, cfg, progress=progress)
        metrics = _test_metrics(bundle, [EmbeddingState(res.logits)])
        return metrics, res.params, {"g": res.init}, res.best_valid_metric

    return run_one


def cmd_train_align(args: argparse.Namespace) -> int:
    return _train(args, "align", _prepare_alignment)


def cmd_train_classify(args: argparse.Namespace) -> int:
    return _train(args, "classify", _prepare_classification)


def cmd_eval(args: argparse.Namespace) -> int:
    cp = io_mod.load_checkpoint(args.checkpoint)
    try:   # checkpoint errors get the file's name; data errors carry their own
        values, _ = io_mod.unpack_config(cp)
        if args.graph2 is not None and values["task"] != "align":
            raise io_mod.ConfigError("--graph2: a classification checkpoint reads one graph")
        for key in ("graph1", "graph2", "train", "valid", "test", "report"):
            v = getattr(args, key, None)
            if v is not None:
                values[key] = v
        t0 = time.perf_counter()
        align = values["task"] == "align"
        bundle = (io_mod.load_alignment_bundle if align
                  else io_mod.load_classification_bundle)(values)
        graphs = dict(zip(("g1", "g2") if align else ("g",), bundle.graphs))
        params_list, tables = io_mod.unpack_model(
            cp, values, graphs, None if align else bundle.label_set.num_classes)
    except io_mod.CheckpointError as exc:
        raise io_mod.CheckpointError(f"{args.checkpoint}: {exc}") from None
    mc = io_mod.train_config(values).model_config()
    scorer = config_scorer(mc)
    with np.errstate(all="ignore"):   # finite weights can still overflow: reported below
        finals = [model_forward(g, tables[gname], params_list, mode=mc.mode, scorer=scorer)
                  for gname, g in graphs.items()]
    bad = [gname for gname, f in zip(graphs, finals) if not np.isfinite(f.entity).all()]
    if bad:
        raise io_mod.CheckpointError(f"{args.checkpoint}: the model's output on {bad[0]} "
                                     "is not finite")
    report = _test_metrics(bundle, finals)
    report["seed"] = values["seed"]
    _emit(report, time.perf_counter() - t0, values.get("report"))
    return 0


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def cmd_verify_reductions(args: argparse.Namespace) -> int:
    base = args.seed
    runs = _at_least_one("--runs", args.runs)
    worst_all = 0.0
    for mode in REDUCTION_MODES:
        worst = max(reduction_discrepancy(mode, base + i) for i in range(runs))
        worst_all = max(worst_all, worst)
        print(f"{mode:13s} max discrepancy {worst:.3e}")
    ok = worst_all <= 1e-9
    print(f"overall {'PASS' if ok else 'FAIL'} (threshold 1e-9)")
    return 0 if ok else 1


def cmd_gradcheck(args: argparse.Namespace) -> int:
    kinds = sorted(SCORERS) if args.scorer == "all" else [args.scorer]
    points = _at_least_one("--points", args.points)
    worst = 0.0
    for kind in kinds:
        err = scorer_gradient_fd(kind, n_points=points)
        worst = max(worst, err)
        print(f"scorer {kind:9s} message fd error {err:.3e}")
    for kind in kinds:
        for task in END_TO_END_TASKS:
            err = end_to_end_gradient_fd(task, kind, max_coords=20)
            worst = max(worst, err)
            print(f"end-to-end {task:10s} {kind:9s} fd error {err:.3e}")
    ok = worst <= 1e-4
    print(f"worst {worst:.3e} {'PASS' if ok else 'FAIL'} (threshold 1e-4)")
    return 0 if ok else 1


def cmd_metrics_report(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    ranks = []
    for lineno, line in zip(*io_mod.data_lines(args.ranks)):
        rank = io_mod.int_token(line.strip())   # read as the loaders read an integer id
        if rank is None:
            raise io_mod.DataError(f"{args.ranks} line {lineno}: expected an integer rank")
        if rank < 1:
            raise io_mod.DataError(f"{args.ranks} line {lineno}: ranks are 1-based")
        ranks.append(rank)
    if not ranks:
        raise io_mod.DataError(f"{args.ranks}: no ranks")
    report = {"mrr": mrr(ranks), "hits1": hits_at_k(ranks, 1),
              "hits10": hits_at_k(ranks, 10)}
    _emit(report, time.perf_counter() - t0, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kegcn",
        description="Knowledge graph convolution with score-gradient messages")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("train-align", help="train a cross-graph entity aligner")
    _add_train_flags(p, "align")
    p.set_defaults(func=cmd_train_align)

    p = subs.add_parser("train-classify", help="train an entity classifier")
    _add_train_flags(p, "classify")
    p.set_defaults(func=cmd_train_classify)

    p = subs.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    for key in ("graph1", "graph2", "train", "valid", "test", "report"):
        p.add_argument(f"--{key}")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("verify-reductions",
                        help="check the generic layer against printed baselines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.set_defaults(func=cmd_verify_reductions)

    p = subs.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--scorer", choices=sorted(SCORERS) + ["all"], default="all")
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("metrics-report", help="ranking metrics from a rank list")
    p.add_argument("--ranks", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_metrics_report)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

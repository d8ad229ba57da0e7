"""Command-line entry points: init-delta, select, expand-delta, run-loop, report."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import engine, harness, learners, purity
from .errors import ConfigError, DcomError, PoolInvariantError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dcom", description="Coverage-and-margin active learning toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-delta", help="estimate the purity curve and pick delta0")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--alpha", type=float, default=purity.DEFAULT_ALPHA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--grid-max", type=float, default=2.0)
    p.add_argument("--no-normalize", action="store_true")

    p = sub.add_parser("select", help="run one query-selection step from a config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("expand-delta", help="assign radii to newly labeled points")
    p.add_argument("--config", required=True)

    p = sub.add_parser("run-loop", help="run the full seeded experiment loop")
    p.add_argument("--config", required=True)

    p = sub.add_parser("report", help="summarize an existing report CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--output", default=None)
    return parser


def _load_pool_inputs(config):
    dataset = harness.load_dataset(config["data"])
    labeled = [int(i) for i in config.get("labeled", [])]
    labeled_set = set(labeled)
    unlabeled = [i for i in range(dataset.count) if i not in labeled_set]
    deltas = [float(d) for d in config.get("deltas", [])]
    return dataset, engine.PoolState(labeled, unlabeled, deltas)


def _cmd_init_delta(args):
    dataset = harness.load_dataset(
        {"embeddings": args.embeddings, "l2_normalize": not args.no_normalize}
    )
    labels = purity.kmeans_cluster(dataset, args.classes, seed=args.seed)
    grid = engine.delta_grid(args.grid_step, args.grid_max)
    curve = purity.estimate_purity_curve(dataset, labels, grid)
    print("delta,purity")
    for d, p in zip(curve.grid, curve.purity):
        print(f"{d:.6g},{p:.6g}")
    print(f"delta0,{purity.select_initial_delta(curve, args.alpha):.6g}")
    return 0


def _cmd_select(args):
    config = json.loads(Path(args.config).read_text())
    dataset, pool = _load_pool_inputs(config)
    strategy, seed = harness.strategy_spec(config)
    q = int(config["q"])
    setting = harness.strategy_setting(dataset, strategy, config.get("dcom", {}), seed)
    picks, _ = harness.select_step(
        dataset, pool, strategy, q, setting, harness.learner_spec(config), seed=seed
    )
    print(",".join(str(i) for i in picks))
    return 0


def _cmd_expand_delta(args):
    config = json.loads(Path(args.config).read_text())
    dataset, pool = _load_pool_inputs(config)
    if dataset.labels is None:
        raise ConfigError("expand-delta trains on labels, and data.labels gives none")
    query = [int(i) for i in config["query"]]
    query_set, labeled = set(query), set(pool.labeled)
    bad = sorted(i for i, k in Counter(query).items() if k > 1 or i not in labeled)
    if bad:
        raise PoolInvariantError(f"query points {bad} are repeated or not labeled")
    strategy, seed = harness.strategy_spec(config, "dcom")
    dcom_config = harness.strategy_setting(dataset, strategy, config.get("dcom", {}), seed)
    earlier = [i for i in pool.labeled if i not in query_set]
    if not pool.deltas:
        # As in select: labeled points given without radii take delta0.
        pool.deltas = [dcom_config.delta0] * len(earlier)
    # select validates its pool in dcom_select; this is the pool before the query.
    engine.PoolState(earlier, pool.unlabeled + query, pool.deltas).validate(dataset.count)
    coverage_old = float(engine.covered_set(dataset, earlier, pool.deltas).mean())
    pairs = [(i, int(dataset.labels[i])) for i in pool.labeled]
    learner = learners.train_learner(dataset, pairs, harness.learner_spec(config))
    probs = learners.predict_softmax(learner, dataset, pool.unlabeled)
    predicted = probs.rows.argmax(axis=1)
    deltas = engine.expand_delta(
        dataset, pool, query, predicted, coverage_old, dcom_config
    )
    print(",".join(f"{d:.6g}" for d in deltas))
    return 0


def _cmd_run_loop(args):
    config = json.loads(Path(args.config).read_text())
    records = harness.run_al_loop(config)
    out_dir = Path(config.get("output", "out"))
    csv_path = out_dir / "report.csv"
    harness.write_report(records, csv_path)
    print(f"wrote {csv_path} and {csv_path.with_suffix('.json')}")
    return 0


def _cmd_report(args):
    records = harness.read_report(args.records)
    summary = harness.summarize(records)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 0


_COMMANDS = {
    "init-delta": ("pseudo-purity", _cmd_init_delta),
    "select": ("query-selection", _cmd_select),
    "expand-delta": ("radius-expansion", _cmd_expand_delta),
    "run-loop": ("experiment-harness", _cmd_run_loop),
    "report": ("reporting", _cmd_report),
}


def cli_dispatch(argv) -> int:
    """Parse and run; usage errors exit 2, runtime errors exit 1."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    module, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (DcomError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error ({module}): {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

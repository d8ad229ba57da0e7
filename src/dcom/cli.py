"""Command-line entry points: init-delta, select, expand-delta, run-loop, report."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import engine, harness, purity
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


def _load_round(config, expanding=False):
    """Dataset, strategy kind, seed, setting, pool and query of a select or expand-delta config.

    The pool is labeled plus every other dataset index, checked as
    engine.PoolState checks any pool; expand-delta's query must hold distinct
    labeled indices, and expand-delta is always dcom. When deltas is empty,
    dcom gives delta0 to every labeled point outside query; given radii must
    not exceed the largest one expand_delta assigns.
    """
    harness.check_config(config)
    harness._require(config, ("data", "query" if expanding else "q"))
    dataset = harness.load_dataset(config["data"])
    n = dataset.count
    labeled = list(config.get("labeled", []))
    unlabeled = sorted(set(range(n)) - set(labeled))
    # The index rules first, as building the setting may derive delta0 with k-means.
    engine.PoolState(labeled, unlabeled, []).check_range(n)
    query = list(config["query"]) if expanding else []
    bad = sorted({i for i, k in Counter(query).items() if k > 1} | (set(query) - set(labeled)))
    if bad:
        raise PoolInvariantError(f"query points {bad} are repeated or not labeled")
    kind, seed = harness.strategy_spec(config, "dcom" if expanding else None)
    setting = harness.strategy_setting(dataset, kind, config.get("dcom", {}), seed)
    deltas = [float(d) for d in config.get("deltas", [])]
    if kind == "dcom":
        grid = engine.delta_grid(setting.delta_resolution, setting.delta_max)
        largest = max(setting.delta_max, grid[-1])
        above = [d for d in deltas if d > largest]
        if above:
            raise PoolInvariantError(f"radii {above} exceed {largest!r}, dcom's largest radius")
        deltas = deltas or [setting.delta0] * (len(labeled) - len(query))
    return dataset, kind, seed, setting, engine.PoolState(labeled, unlabeled, deltas), query


def _cmd_init_delta(args):
    if args.classes < 2:
        raise ConfigError(f"--classes must be 2 or more, got {args.classes}")
    dataset = harness.load_dataset(
        {"embeddings": args.embeddings, "l2_normalize": not args.no_normalize}
    )
    labels = purity.kmeans_cluster(dataset, args.classes, seed=args.seed)
    curve = purity.estimate_purity_curve(dataset, labels, purity.DEFAULT_GRID)
    print("delta,purity")
    for d, p in zip(curve.grid, curve.purity):
        print(f"{d:.6g},{p:.6g}")
    print(f"delta0,{purity.select_initial_delta(curve, args.alpha):.6g}")
    return 0


def _cmd_select(args):
    config = json.loads(Path(args.config).read_text())
    dataset, kind, seed, setting, pool, _ = _load_round(config)
    spec = harness.learner_spec(config)
    picks = harness.select_step(dataset, pool, kind, config["q"], setting, spec, seed=seed)
    print(",".join(str(i) for i in picks))
    return 0


def _cmd_expand_delta(args):
    config = json.loads(Path(args.config).read_text())
    dataset, _, _, setting, pool, query = _load_round(config, expanding=True)
    if not pool.labeled:
        raise PoolInvariantError("expand-delta trains on the labeled points, and there are none")
    query_set = set(query)
    earlier = [i for i in pool.labeled if i not in query_set]
    # select validates its pool in dcom_select; this is the pool before the query.
    engine.PoolState(earlier, pool.unlabeled + query, pool.deltas).validate(dataset.count)
    coverage_old = float(engine.covered_set(dataset, earlier, pool.deltas).mean())
    _, deltas = engine._label_step(
        dataset, pool, query, coverage_old, harness.learner_spec(config), setting
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
    except (DcomError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error ({module}): {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

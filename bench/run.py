"""Run one dcom benchmark workload and print its metrics.

    python3 bench/run.py --workload al-loop [--seed 42] [--seconds 10] [--trace 0]

Runs from the root of a source checkout and imports dcom from its ``src``
directory; nothing is installed. One process is one closed-loop caller: a
single Python thread runs passes of the workload back to back until
``--seconds`` have elapsed (at least one pass). DCOM_THREADS is removed from
the environment unless ``--dcom-threads`` sets it.

With ``--trace 0`` the result holds the end-to-end metrics. ``setup_s`` is the
median, over fresh processes, of the time from process start to the first
timed call. With ``--trace 1`` passes alternate untraced and traced, and the
result holds the per-layer metrics of the traced passes (plus the traced
set-up) and the tracing overhead.

Metric names and units come from BENCHMARK.json at the checkout root. Every
pass's outputs are checked; at the workload's default seed they must also match
the digests in expected.json. The last line of standard output is the result
JSON; a copy, with the informational fields, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--dcom-threads",
        type=int,
        default=None,
        help="set DCOM_THREADS for a one-off comparison; unset by default",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_dcom():
    """Import dcom from this checkout's src/, never from anywhere else."""
    if not (SRC / "dcom" / "__init__.py").is_file():
        raise SystemExit(f"error: no dcom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcom

    if Path(dcom.__file__).resolve().parent != (SRC / "dcom").resolve():
        raise SystemExit(f"error: imported dcom from {dcom.__file__}, not {SRC}")
    return dcom


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup(workload, seed, workdir):
    """The workload's set-up, after a BLAS warm-up."""
    warm = np.ones((256, 256))
    warm @ warm  # first BLAS call starts the OpenBLAS threads
    return workload.setup(seed, workdir)


def measure_setup(args, seed):
    """Median over fresh processes of spawn-to-first-timed-call seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--setup-only"]
        started = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(samples), samples


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(workload, passes, setup_s):
    walls = [p["wall"] for p in passes]
    iters = [s for p in passes for s in p["iterations"]]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "iter_p50_s": statistics.median(iters),
        "iter_tail_s": nearest_rank(iters, workload.tail_percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(totals, overhead):
    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    built = get("graph.build_radius_graph", "edges_built")
    harness_self = sum(t["self_s"] for n, t in totals.items() if n.startswith("harness."))
    return {
        "data.gen_s": get("data.gen_gaussian_mixture"),
        "data.normalize_s": get("data.l2_normalize"),
        "purity.kmeans_s": get("purity.kmeans_cluster"),
        "purity.kmeans_calls": get("purity.kmeans_cluster", "calls"),
        "purity.curve_s": get("purity.estimate_purity_curve"),
        "purity.curve_calls": get("purity.estimate_purity_curve", "calls"),
        "purity.pair_evals": get("purity.estimate_purity_curve", "pair_evals"),
        "graph.build_s": get("graph.build_radius_graph"),
        "graph.build_calls": get("graph.build_radius_graph", "calls"),
        "graph.edges_built": built,
        "graph.edges_kept_ratio": (
            get("graph.build_radius_graph", "edges_kept") / built if built else 0.0
        ),
        "graph.gram_gflop": get("graph.build_radius_graph", "gram_flop") / 1e9,
        "graph.covered_s": get("graph.covered_set"),
        "graph.covered_calls": get("graph.covered_set", "calls"),
        "graph.covered_pair_evals": get("graph.covered_set", "pair_evals"),
        "graph.prune_s": get("graph.prune_incoming_for_covered")
        + get("graph.prune_outgoing_for_labeled"),
        "learners.train_s": get("learners.train_learner"),
        "learners.train_calls": get("learners.train_learner", "calls"),
        "learners.row_epochs": get("learners.train_learner", "row_epochs"),
        "learners.predict_s": get("learners.predict_softmax"),
        "learners.predict_rows": get("learners.predict_softmax", "rows"),
        "engine.select_s": get("engine.dcom_select"),
        "engine.select_self_s": get("engine.dcom_select", "self_s"),
        "engine.picks": get("engine.dcom_select", "picks"),
        "engine.expand_s": get("engine.expand_delta"),
        "engine.expand_points": get("engine.expand_delta", "points"),
        "engine.iteration_self_s": get("engine.run_iteration", "self_s"),
        "baselines.probcover_s": get("baselines.select_probcover"),
        "baselines.probcover_self_s": get("baselines.select_probcover", "self_s"),
        "baselines.coreset_s": get("baselines.select_coreset"),
        "baselines.uncertainty_s": get("baselines.select_by_uncertainty"),
        "baselines.random_s": get("baselines.select_random"),
        "harness.loop_s": get("harness.run_al_loop"),
        "harness.self_s": harness_self,
        "harness.eval_s": get("harness.evaluate_accuracy"),
        "harness.report_s": get("harness.write_report"),
        "harness.reps": get("harness.run_al_loop", "reps"),
        "trace.overhead_ratio": overhead,
    }


def combine(setup_totals, pass_totals, traced_passes):
    """Set-up totals plus the mean over traced passes, per function and key."""
    out = {}
    for totals, scale in ((setup_totals, 1.0), (pass_totals, 1.0 / traced_passes)):
        for name, values in totals.items():
            target = out.setdefault(name, {})
            for key, value in values.items():
                target[key] = target.get(key, 0) + value * scale
    return out


def src_lines():
    return sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "dcom").rglob("*.py"))
    )


def run_passes(workload, state, args, tracer, expected):
    """Run passes until --seconds have elapsed; check every pass's outputs.

    Returns (untraced, traced, roots, problems, raised): pass records, the
    indices of the traced passes' root spans, what went wrong, and 1 if a
    pass raised.
    """
    untraced, traced, roots, problems = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced_pass = bool(args.trace) and len(untraced) > len(traced)
        try:
            if traced_pass:
                roots.append(len(tracer.spans))
                with tracer.installed(), tracer.span("bench.pass") as root:
                    outputs, iterations = workload.run(state)
                wall = root.duration
            else:
                started = time.perf_counter()
                outputs, iterations = workload.run(state)
                wall = time.perf_counter() - started
        except Exception:  # a failing pass fails the run: report it, do not crash
            traceback.print_exc()
            return untraced, traced, roots, problems + ["a pass raised an exception"], 1
        (traced if traced_pass else untraced).append({"wall": wall, "iterations": iterations})
        problems += workload.check(state, outputs)
        if expected is not None and workload.digests(outputs) != expected:
            got = json.dumps(workload.digests(outputs))
            problems.append(f"digests differ from the recorded ones: {got}")
        if problems or (time.perf_counter() >= deadline and (traced or not args.trace)):
            return untraced, traced, roots, problems, 0


def traced_values(tracer, roots, untraced, traced, problems):
    """Per-layer metrics from the set-up span (index 0) and the traced passes."""
    self_times = tracer.self_times()
    for root in [0, *roots]:
        error = tracer.additivity_error(root, self_times)
        if error > 1e-6 * tracer.spans[root].duration + 1e-6:
            problems.append(f"self times under span {root} miss its wall time by {error:.3g} s")
    totals = combine(
        layer_totals(tracer, tracer.subtree(0), self_times),
        layer_totals(tracer, [i for r in roots for i in tracer.subtree(r)], self_times),
        max(1, len(roots)),
    )
    overhead = 0.0
    if traced and untraced:
        overhead = statistics.median(p["wall"] for p in traced) / statistics.median(
            p["wall"] for p in untraced
        )
    return per_layer(totals, overhead), self_times


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.dcom_threads is None:
        os.environ.pop("DCOM_THREADS", None)
    else:
        os.environ["DCOM_THREADS"] = str(args.dcom_threads)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_dcom()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"

    if args.setup_only:
        setup(workload, seed, workdir)
        print(time.perf_counter())
        return 0

    setup_s, setup_samples = (None, []) if args.trace else measure_setup(args, seed)
    recorded = json.loads((HERE / "expected.json").read_text())[workload.name]
    expected = recorded["digests"] if seed == recorded["seed"] else None

    tracer = Tracer()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with tracer.installed() if args.trace else contextlib.nullcontext():
            with tracer.span("bench.setup"):
                state = setup(workload, seed, workdir)
        untraced, traced, roots, problems, raised = run_passes(
            workload, state, args, tracer, expected
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        wanted = spec["per_layer"]
        values, self_times = traced_values(tracer, roots, untraced, traced, problems)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl", self_times)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(workload, untraced, setup_s) if untraced else {}
    names = [m["name"] for m in wanted]
    if not problems and set(values) != set(names):
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json {names}")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = (len(untraced) + len(traced) + raised) * workload.operations
    failed = attempted if problems else 0
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "pass_walls_s": [p["wall"] for p in untraced],
        "traced_pass_walls_s": [p["wall"] for p in traced],
        "iteration_samples": sum(len(p["iterations"]) for p in untraced),
        "tail_percentile": workload.tail_percentile,
        "setup_samples_s": setup_samples,
        "fail_ratio": failed / attempted,
        "blas_threads": blas_threads(),
        "dcom_threads": os.environ.get("DCOM_THREADS"),
        "digests_checked": expected is not None,
        "src_dcom_lines": src_lines(),
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

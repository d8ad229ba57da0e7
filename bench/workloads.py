"""The four benchmark workloads, driven through dcom's public API only.

Each workload has a default seed (the one its digests were recorded at), a
``setup(seed, workdir)`` that returns the inputs of the timed section, a
``run(state)`` that performs one pass of the timed section and returns
``(outputs, iteration_seconds)``, a ``check(state, outputs)``
that returns a list of problems (empty when the outputs are right) and a
``digests(outputs)`` over the outputs that must not change.

Why each workload exists, and which ROADMAP scenario it scales down, is
written up in NOTES.md.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import dcom
from dcom.purity import DEFAULT_GRID

STRATEGIES = ("dcom", "probcover", "coreset", "margin", "random")
AL_SCHEDULE = [8, 8, 16, 32, 64, 128, 256]
AL_REPETITIONS = 10


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(values, dtype) -> str:
    return sha256(np.ascontiguousarray(np.asarray(values, dtype=dtype)).tobytes())


def _on_grid(value, grid) -> bool:
    return bool(np.any(grid == value))


def _check_picks(picks, unlabeled, q, problems, what):
    if len(picks) != q:
        problems.append(f"{what}: {len(picks)} picks, expected {q}")
    if len(set(picks)) != len(picks):
        problems.append(f"{what}: picks are not distinct")
    if not set(picks) <= set(unlabeled):
        problems.append(f"{what}: a pick was not in the unlabeled pool")


def _check_partition(labeled, unlabeled, n, problems, what):
    lab, unl = set(labeled), set(unlabeled)
    if len(lab) != len(labeled) or len(unl) != len(unlabeled):
        problems.append(f"{what}: pool lists hold duplicates")
    if lab & unl or lab | unl != set(range(n)):
        problems.append(f"{what}: labeled and unlabeled do not partition the points")


# --------------------------------------------------------------------------
# al-loop: the criterion-9 experiment, five strategies, reports written.


class AlLoop:
    name = "al-loop"
    default_seed = 42
    tail_percentile = 97  # 350 iterations per pass leave 10 samples beyond p97
    operations = len(STRATEGIES) * AL_REPETITIONS * len(AL_SCHEDULE)

    def setup(self, seed, workdir):
        return {"seed": seed, "workdir": Path(workdir)}

    @staticmethod
    def config(seed, strategy):
        return {
            "data": {
                "mixture": {
                    "num_classes": 8,
                    "points_per_class": 200,
                    "dim": 16,
                    "class_separation": 6.0,
                    "within_std": 1.25,
                    "seed": seed,
                }
            },
            "split": {"test_fraction": 0.25, "seed": 0},
            "schedule": list(AL_SCHEDULE),
            "strategy": {"kind": strategy, "seed": 0},
            "learner": {"epochs": 300},
            "repetitions": AL_REPETITIONS,
            "record_timing": True,
            "dcom": {"delta0": 0.6, "delta_max": 0.6},
        }

    def run(self, state):
        outputs, seconds = {}, []
        for strategy in STRATEGIES:
            records = dcom.run_al_loop(self.config(state["seed"], strategy))
            path = state["workdir"] / f"{strategy}.csv"
            dcom.write_report(records, path)
            outputs[strategy] = {
                "records": records,
                "csv": path.read_bytes(),
                "json": path.with_suffix(".json").read_bytes(),
            }
            seconds.extend(r.seconds for r in records)
        return outputs, seconds

    @staticmethod
    def _csv_without_seconds(data: bytes) -> bytes:
        rows = list(csv.reader(io.StringIO(data.decode())))
        drop = rows[0].index("seconds")
        kept = [[v for i, v in enumerate(row) if i != drop] for row in rows]
        return "\n".join(",".join(row) for row in kept).encode()

    def digests(self, outputs):
        out = {}
        for strategy, result in outputs.items():
            out[f"{strategy}.csv"] = sha256(self._csv_without_seconds(result["csv"]))
            out[f"{strategy}.json"] = sha256(result["json"])
        return out

    def check(self, state, outputs):
        problems = []
        budgets = np.cumsum(AL_SCHEDULE).tolist()
        for strategy in STRATEGIES:
            result = outputs[strategy]
            records = result["records"]
            if len(records) != AL_REPETITIONS * len(AL_SCHEDULE):
                problems.append(f"{strategy}: {len(records)} records")
                continue
            for r in records:
                if r.strategy != strategy or r.budget != budgets[r.iteration]:
                    problems.append(f"{strategy}: record out of schedule: {r}")
                    break
                if not (0.0 <= r.accuracy <= 1.0 and 0.0 <= r.coverage <= 1.0):
                    problems.append(f"{strategy}: accuracy or coverage outside [0, 1]")
                    break
                if r.delta_mean > 0.6 * (1 + 1e-12):  # a mean of grid radii <= 0.6
                    problems.append(f"{strategy}: mean radius above delta_max")
                    break
            lines = result["csv"].decode().splitlines()
            if len(lines) != len(records) + 1:
                problems.append(f"{strategy}: report CSV has {len(lines)} lines")
            summary = json.loads(result["json"])
            per_budget = summary.get(strategy, {})
            if sorted(per_budget, key=int) != [str(b) for b in budgets] or any(
                v["repetitions"] != AL_REPETITIONS for v in per_budget.values()
            ):
                problems.append(f"{strategy}: summary does not cover every budget")
        return problems


# --------------------------------------------------------------------------
# cold-select: criterion 11 at 30% scale, one greedy select from empty.


class ColdSelect:
    name = "cold-select"
    default_seed = 0
    tail_percentile = 100  # one select per pass: too few samples for a tail
    operations = 1
    q = 1000

    def setup(self, seed, workdir):
        data = dcom.l2_normalize(
            dcom.gen_gaussian_mixture(dcom.MixtureSpec(10, 3000, 64, 6.0, 1.0, seed=seed))
        )
        return {"data": data, "config": dcom.DComConfig(delta0=0.9)}

    def run(self, state):
        data = state["data"]
        pool = dcom.PoolState([], list(range(data.count)), [])
        started = time.perf_counter()
        result = dcom.dcom_select(data, pool, np.ones(data.count), self.q, state["config"])
        return {"result": result}, [time.perf_counter() - started]

    def digests(self, outputs):
        return {"picks": _array_digest(outputs["result"].selected, np.int64)}

    def check(self, state, outputs):
        problems = []
        result = outputs["result"]
        _check_picks(result.selected, range(state["data"].count), self.q, problems, "select")
        if result.coverage_before != 0.0 or result.competence != 0.0:
            problems.append("an empty pool reported coverage or competence")
        return problems


# --------------------------------------------------------------------------
# covered-iter: two chained iterations on a pool that already covers everything.


class CoveredIter:
    name = "covered-iter"
    default_seed = 0
    tail_percentile = 100  # two iterations per pass: too few samples for a tail
    q = 100
    operations = 2  # chained run_iteration calls
    labeled = 400

    def setup(self, seed, workdir):
        data = dcom.l2_normalize(
            dcom.gen_gaussian_mixture(dcom.MixtureSpec(8, 1000, 64, 6.0, 1.0, seed=seed))
        )
        config = dcom.DComConfig(delta0=0.75, delta_max=1.5)
        grid = dcom.delta_grid(0.05, 1.5)
        rng = np.random.default_rng(seed)
        labeled = np.sort(rng.choice(data.count, size=self.labeled, replace=False))
        # Every seed gets the same multiset of radii (the upper half of the
        # grid, repeated), so the mean radius, and with it the size of the
        # graph each iteration builds, does not drift with the seed.
        deltas = rng.permutation(np.resize(grid[grid.size // 2 :], self.labeled))
        unlabeled = np.setdiff1d(np.arange(data.count), labeled)
        pool = dcom.PoolState(labeled.tolist(), unlabeled.tolist(), deltas.tolist())
        return {"data": data, "config": config, "pool": pool, "grid": grid}

    def run(self, state):
        pool, learner, steps, seconds = state["pool"], None, [], []
        for _ in range(self.operations):
            started = time.perf_counter()
            result, pool, learner, _ = dcom.run_iteration(
                state["data"], pool, dcom.LearnerSpec(), self.q, state["config"], learner
            )
            seconds.append(time.perf_counter() - started)
            steps.append((result, pool))
        return {"steps": steps}, seconds

    def digests(self, outputs):
        picks = [p for result, _ in outputs["steps"] for p in result.selected]
        _, final = outputs["steps"][-1]
        return {
            "picks": _array_digest(picks, np.int64),
            "radii": _array_digest(final.deltas, np.float64),
        }

    def check(self, state, outputs):
        problems = []
        n, grid = state["data"].count, state["grid"]
        delta_max = state["config"].delta_max
        before = state["pool"]
        for step, (result, after) in enumerate(outputs["steps"]):
            what = f"iteration {step}"
            _check_picks(result.selected, before.unlabeled, self.q, problems, what)
            _check_partition(after.labeled, after.unlabeled, n, problems, what)
            if after.labeled != before.labeled + result.selected:
                problems.append(f"{what}: labeled list is not the old one plus the picks")
            if after.deltas[: len(before.deltas)] != before.deltas:
                problems.append(f"{what}: existing radii changed")
            if len(after.deltas) != len(after.labeled):
                problems.append(f"{what}: {len(after.deltas)} radii for {len(after.labeled)} points")
            new = after.deltas[len(before.deltas) :]
            if not all(_on_grid(d, grid) and d <= delta_max for d in new):
                problems.append(f"{what}: a new radius is off the grid or above delta_max")
            before = after
        return problems


# --------------------------------------------------------------------------
# init-delta: k-means pseudo-labels, purity curve, initial radius.


class InitDelta:
    name = "init-delta"
    default_seed = 0
    tail_percentile = 100  # one derivation per pass: too few samples for a tail
    operations = 1
    classes = 10
    alpha = 0.95

    def setup(self, seed, workdir):
        data = dcom.l2_normalize(
            dcom.gen_gaussian_mixture(dcom.MixtureSpec(10, 600, 64, 6.0, 1.0, seed=seed))
        )
        return {"data": data}

    def run(self, state):
        started = time.perf_counter()
        labels = dcom.kmeans_cluster(state["data"], self.classes, seed=0)
        curve = dcom.estimate_purity_curve(state["data"], labels, DEFAULT_GRID)
        delta0 = dcom.select_initial_delta(curve, self.alpha)
        outputs = {"labels": labels, "curve": curve, "delta0": delta0}
        return outputs, [time.perf_counter() - started]

    def digests(self, outputs):
        curve = outputs["curve"]
        return {
            "curve": _array_digest(np.stack([curve.grid, curve.purity]), np.float64),
            "delta0": _array_digest([outputs["delta0"]], np.float64),
        }

    def check(self, state, outputs):
        problems = []
        curve, delta0 = outputs["curve"], outputs["delta0"]
        if len(np.unique(outputs["labels"])) != self.classes:
            problems.append("k-means did not produce every cluster")
        if not np.array_equal(curve.grid, DEFAULT_GRID):
            problems.append("purity curve is not on the default grid")
        if curve.purity.min() < 0.0 or curve.purity.max() > 1.0:
            problems.append("purity outside [0, 1]")
        passing = np.flatnonzero(curve.purity >= self.alpha)
        if passing.size == 0 or delta0 != curve.grid[passing[-1]]:
            problems.append(f"delta0={delta0} is not the largest radius with purity >= alpha")
        return problems


WORKLOADS = {w.name: w for w in (AlLoop(), ColdSelect(), CoveredIter(), InitDelta())}

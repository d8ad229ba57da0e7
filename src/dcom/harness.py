"""Seeded active-learning experiment loop, accuracy evaluation, CSV/JSON reports.

A config is a plain dict (usually parsed from JSON); every key except the data
source has a default. Repetitions may run in worker threads when the
DCOM_THREADS environment variable is set to a value above 1.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import (
    StrategySpec,
    select_by_uncertainty,
    select_coreset,
    select_probcover,
    select_random,
)
from .data import (
    EmbeddingSet,
    MixtureSpec,
    gen_gaussian_mixture,
    l2_normalize,
    read_embedding_file,
    read_label_file,
)
from .engine import DComConfig, PoolState, run_iteration
from .errors import ConfigError, EmptyTestSet, PoolInvariantError
from .learners import LearnerSpec, predict_softmax, train_learner
from .purity import (
    DEFAULT_GRID,
    estimate_purity_curve,
    kmeans_cluster,
    select_initial_delta,
)

REPORT_COLUMNS = (
    "run_seed",
    "strategy",
    "iteration",
    "budget",
    "accuracy",
    "coverage",
    "competence",
    "delta_mean",
    "delta_std",
    "seconds",
)


@dataclass(frozen=True)
class ExperimentRecord:
    run_seed: int
    strategy: str
    iteration: int
    budget: int
    accuracy: float
    coverage: float
    competence: float
    delta_mean: float
    delta_std: float
    seconds: float


class LabelOracle:
    """Gatekeeper for train-pool labels; records every revealed index."""

    def __init__(self, labels):
        self._labels = np.asarray(labels, dtype=np.int64)
        self.revealed = set()

    def reveal(self, indices):
        self.revealed.update(int(i) for i in indices)
        return [int(self._labels[i]) for i in indices]


def load_dataset(data_cfg) -> EmbeddingSet:
    """Resolve the config's data source into an EmbeddingSet."""
    if "mixture" in data_cfg:
        spec = MixtureSpec(**data_cfg["mixture"])
        dataset = gen_gaussian_mixture(spec)
    elif "embeddings" in data_cfg:
        dataset = read_embedding_file(data_cfg["embeddings"])
        if "labels" in data_cfg:
            dataset = EmbeddingSet(
                dataset.vectors, read_label_file(data_cfg["labels"])
            )
    else:
        raise ConfigError("data config needs either 'mixture' or 'embeddings'")
    if data_cfg.get("l2_normalize", True):
        dataset = l2_normalize(dataset)
    return dataset


def stratified_split(dataset, test_fraction, seed):
    """Seeded train/test index split, stratified by class when labels are known."""
    rng = np.random.default_rng(seed)
    n = dataset.count
    if dataset.labels is None:
        order = rng.permutation(n)
        cut = int(round(n * test_fraction))
        return np.sort(order[cut:]), np.sort(order[:cut])
    train, test = [], []
    for c in np.unique(dataset.labels):
        members = np.flatnonzero(dataset.labels == c)
        members = members[rng.permutation(members.size)]
        cut = int(round(members.size * test_fraction))
        test.extend(members[:cut])
        train.extend(members[cut:])
    return np.sort(np.array(train)), np.sort(np.array(test))


def evaluate_accuracy(learner, dataset, test) -> float:
    """Fraction of argmax predictions matching the true labels."""
    test = np.asarray(test, dtype=np.int64)
    if test.size == 0:
        raise EmptyTestSet("cannot evaluate on an empty test set")
    probs = predict_softmax(learner, dataset, test)
    predicted = probs.rows.argmax(axis=1)
    return float((predicted == dataset.labels[test]).mean())


def resolve_delta0(dataset, dcom_cfg, num_classes, seed) -> float:
    """Use the configured delta0, or derive it from the purity-curve procedure."""
    if dcom_cfg.get("delta0") is not None:
        return float(dcom_cfg["delta0"])
    labels = kmeans_cluster(dataset, max(num_classes, 2), seed=seed)
    curve = estimate_purity_curve(dataset, labels, DEFAULT_GRID)
    return select_initial_delta(curve, dcom_cfg.get("alpha", 0.95))


def _build_dcom_config(dcom_cfg, delta0, num_classes):
    defaults_a = 0.9 if num_classes <= 10 else 0.8
    return DComConfig(
        delta0=delta0,
        delta_max=dcom_cfg.get("delta_max"),
        tau_slope=dcom_cfg.get("tau_slope", 0.2),
        tau_intercept=dcom_cfg.get("tau_intercept", 0.4),
        logistic_a=dcom_cfg.get("logistic_a", defaults_a),
        logistic_k=dcom_cfg.get("logistic_k", 30.0),
        delta_resolution=dcom_cfg.get("delta_resolution", 0.05),
        seed=dcom_cfg.get("seed", 0),
    )


def _run_single_repetition(dataset, train, test, config, run_seed):
    strategy = StrategySpec(
        kind=config["strategy"].get("kind", "dcom"),
        params=config["strategy"].get("params", {}),
        seed=run_seed,
    )
    learner_spec = LearnerSpec(**{**{"seed": run_seed}, **config.get("learner", {})})

    # Queries, coverage and training all live on the train partition; the test
    # partition is only ever touched by evaluate_accuracy.
    pool_set = EmbeddingSet(dataset.vectors[train], dataset.labels[train])
    test_set = EmbeddingSet(dataset.vectors[test], dataset.labels[test])
    test_local = np.arange(test_set.count)

    num_classes = pool_set.num_classes
    dcom_cfg = dict(config.get("dcom", {}))
    dcom_config = None
    if strategy.kind in ("dcom", "probcover"):
        delta0 = strategy.params.get("delta0")
        if delta0 is None:
            delta0 = resolve_delta0(
                pool_set, dcom_cfg, num_classes, seed=config.get("split", {}).get("seed", 0)
            )
        dcom_config = _build_dcom_config(dcom_cfg, delta0, num_classes)

    oracle = LabelOracle(pool_set.labels)
    pool = PoolState(labeled=[], unlabeled=list(range(pool_set.count)), deltas=[])
    timing = bool(config.get("record_timing", False))

    records = []
    learner = None
    budget = 0
    for iteration, q in enumerate(config["schedule"]):
        started = time.perf_counter()
        coverage = competence = delta_mean = delta_std = 0.0
        if strategy.kind == "dcom":
            result, pool, learner, metrics = run_iteration(
                pool_set, pool, learner_spec, q, dcom_config, learner=learner
            )
            oracle.reveal(result.selected)
            coverage, competence = metrics["coverage"], metrics["competence"]
            delta_mean, delta_std = metrics["delta_mean"], metrics["delta_std"]
        else:
            picks = _baseline_select(
                pool_set, pool, strategy, q, learner, run_seed + iteration, dcom_config
            )
            oracle.reveal(picks)
            picked = set(picks)
            pool = PoolState(
                list(pool.labeled) + picks,
                [i for i in pool.unlabeled if i not in picked],
                [],
            )
            pairs = list(zip(pool.labeled, oracle.reveal(pool.labeled)))
            learner = _train_or_none(pool_set, pairs, learner_spec)
        budget += q

        if learner is None:
            accuracy = _majority_accuracy(pool_set, pool, test_set)
        else:
            accuracy = evaluate_accuracy(learner, test_set, test_local)
        seconds = time.perf_counter() - started if timing else 0.0
        records.append(
            ExperimentRecord(
                run_seed=run_seed,
                strategy=strategy.kind,
                iteration=iteration,
                budget=budget,
                accuracy=accuracy,
                coverage=coverage,
                competence=competence,
                delta_mean=delta_mean,
                delta_std=delta_std,
                seconds=seconds,
            )
        )
    # Label reads stay confined to the queried points.
    stray = sorted(oracle.revealed ^ set(pool.labeled))
    if stray:
        raise PoolInvariantError(f"label reads outside the query sets at indices {stray}")
    return records


def _train_or_none(dataset, pairs, learner_spec):
    if len({y for _, y in pairs}) < 2:
        return None
    return train_learner(dataset, pairs, learner_spec)


def _majority_accuracy(pool_set, pool, test_set):
    """Constant-prediction fallback while only one class has been observed."""
    if not pool.labeled:
        return 0.0
    values, counts = np.unique(pool_set.labels[pool.labeled], return_counts=True)
    majority = int(values[np.argmax(counts)])
    return float((test_set.labels == majority).mean())


def _baseline_select(dataset, pool, strategy, q, learner, seed, dcom_config):
    if strategy.kind == "random":
        return select_random(pool, q, seed)
    if strategy.kind == "coreset":
        return select_coreset(dataset, pool, q)
    if strategy.kind == "probcover":
        return select_probcover(dataset, pool, dcom_config.delta0, q)
    # Uncertainty strategies need a trained model; fall back to seeded random
    # until at least two classes have been observed.
    if learner is None:
        return select_random(pool, q, seed)
    probs = predict_softmax(learner, dataset, pool.unlabeled)
    return select_by_uncertainty(pool, probs, strategy.kind, q)


def run_al_loop(config) -> list:
    """Run every repetition of the configured experiment and return the records."""
    _validate_config(config)
    dataset = load_dataset(config["data"])
    split_cfg = config.get("split", {})
    train, test = stratified_split(
        dataset, split_cfg.get("test_fraction", 0.25), split_cfg.get("seed", 0)
    )
    if sum(config["schedule"]) > train.size:
        raise ConfigError(
            f"schedule needs {sum(config['schedule'])} points, train pool has {train.size}"
        )
    base_seed = config.get("strategy", {}).get("seed", 0)
    reps = config.get("repetitions", 1)
    seeds = [base_seed + i for i in range(reps)]

    workers = int(os.environ.get("DCOM_THREADS", "0") or 0)
    if workers > 1 and reps > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(
                pool.map(
                    lambda s: _run_single_repetition(dataset, train, test, config, s),
                    seeds,
                )
            )
    else:
        batches = [
            _run_single_repetition(dataset, train, test, config, s) for s in seeds
        ]
    return [record for batch in batches for record in batch]


def _validate_config(config):
    if "data" not in config:
        raise ConfigError("config requires a 'data' section")
    schedule = config.get("schedule")
    if not schedule or any(int(q) <= 0 for q in schedule):
        raise ConfigError("schedule must be a non-empty list of positive sizes")
    if config.get("repetitions", 1) < 1:
        raise ConfigError("repetitions must be >= 1")
    config.setdefault("strategy", {"kind": "dcom"})


def write_report(records, path) -> None:
    """Write the per-record CSV and a JSON summary of per-budget mean +- stderr.

    path is the CSV target; the summary lands next to it with a .json suffix.
    """
    if not records:
        raise ValueError("records must be non-empty")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.run_seed,
                    r.strategy,
                    r.iteration,
                    r.budget,
                    repr(r.accuracy),
                    repr(r.coverage),
                    repr(r.competence),
                    repr(r.delta_mean),
                    repr(r.delta_std),
                    repr(r.seconds),
                ]
            )
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(summarize(records), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> list:
    """Parse a report CSV back into ExperimentRecord objects."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        ExperimentRecord(
            run_seed=int(r["run_seed"]),
            strategy=r["strategy"],
            iteration=int(r["iteration"]),
            budget=int(r["budget"]),
            accuracy=float(r["accuracy"]),
            coverage=float(r["coverage"]),
            competence=float(r["competence"]),
            delta_mean=float(r["delta_mean"]),
            delta_std=float(r["delta_std"]),
            seconds=float(r["seconds"]),
        )
        for r in rows
    ]


def summarize(records) -> dict:
    """Per (strategy, budget) mean and standard error of accuracy across runs."""
    groups = {}
    for r in records:
        groups.setdefault((r.strategy, r.budget), []).append(r.accuracy)
    summary = {}
    for (strategy, budget), values in sorted(groups.items()):
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=0) / np.sqrt(arr.size))
        summary.setdefault(strategy, {})[str(budget)] = {
            "mean_accuracy": float(arr.mean()),
            "standard_error": stderr,
            "repetitions": int(arr.size),
        }
    return summary

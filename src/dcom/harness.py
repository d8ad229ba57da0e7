"""Seeded active-learning experiment loop, accuracy evaluation, CSV/JSON reports.

A config is a plain dict (usually parsed from JSON); every key except the data
source has a default, and unknown keys are rejected at the top level and in
every section that is read. strategy_spec, strategy_setting and select_step
hold every kind's strategy rules for the run loop and the CLI (a dcom round is
engine.run_iteration, whose query half select_step runs), so both pick the
same points.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import (
    SEEDED_KINDS,
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
from .engine import DComConfig, PoolState, _learner_or_none, _query, run_iteration
from .errors import ConfigError, EmptyTestSet, PoolInvariantError
from .learners import LearnerSpec, predict_softmax
from .purity import (
    DEFAULT_ALPHA,
    DEFAULT_GRID,
    estimate_purity_curve,
    kmeans_cluster,
    select_initial_delta,
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


# The report CSV has one column per record field, in field order. Under
# postponed annotations each field's type is its name as a string.
REPORT_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))
_PARSERS = {"int": int, "str": str, "float": float}


class LabelOracle:
    """Gatekeeper for train-pool labels; records every revealed index."""

    def __init__(self, labels):
        self._labels = np.asarray(labels, dtype=np.int64)
        self.revealed = set()

    def reveal(self, indices):
        self.revealed.update(int(i) for i in indices)
        return [int(self._labels[i]) for i in indices]


# Every top-level key of a config: run-loop reads the first nine, select and
# expand-delta read data, strategy, dcom, learner and the last four.
_CONFIG_KEYS = (
    "data", "split", "schedule", "strategy", "learner", "dcom", "repetitions",
    "record_timing", "output", "labeled", "deltas", "query", "q",
)


def _check_keys(values, known, section):
    """Raise a ConfigError naming the keys of values that are not in known."""
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ConfigError(f"{section} config: unknown keys {unknown}")


def _from_config(cls, values, section):
    """Build a config dataclass, naming the keys it does not know or lacks."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if unknown or missing:
        raise ConfigError(f"{section} config: unknown keys {unknown}, missing keys {missing}")
    return cls(**values)


def strategy_spec(config, kind=None):
    """The StrategySpec of a config's 'strategy' section, of kind if given, and its seed."""
    values = config.get("strategy", {})
    params = values.get("params", {})
    _check_keys(values, ("kind", "seed", "params"), "strategy")
    _check_keys(params, ("delta0",), "strategy.params")
    return StrategySpec(kind or values.get("kind", "dcom"), params), values.get("seed", 0)


def learner_spec(config) -> LearnerSpec:
    """The LearnerSpec of a config's 'learner' section."""
    return _from_config(LearnerSpec, config.get("learner", {}), "learner")


def load_dataset(data_cfg) -> EmbeddingSet:
    """Resolve the config's data source into an EmbeddingSet."""
    _check_keys(data_cfg, ("mixture", "embeddings", "labels", "l2_normalize"), "data")
    if "mixture" in data_cfg:
        spec = _from_config(MixtureSpec, data_cfg["mixture"], "mixture")
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
    """Seeded train/test index split, stratified by class."""
    rng = np.random.default_rng(seed)
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
    return select_initial_delta(curve, dcom_cfg.get("alpha", DEFAULT_ALPHA))


def strategy_setting(dataset, strategy, dcom_cfg, seed):
    """A DComConfig for dcom, the radius delta0 for probcover, None otherwise.

    delta0 is strategy.params["delta0"], else dcom_cfg["delta0"] (0 is kept,
    and rejected later), else derived with resolve_delta0's k-means seed. The
    rest of dcom_cfg but alpha must be DComConfig fields.
    """
    if strategy.kind not in ("dcom", "probcover"):
        return None
    delta0 = strategy.params.get("delta0")
    if delta0 is None:
        delta0 = resolve_delta0(dataset, dcom_cfg, dataset.num_classes, seed)
    if strategy.kind == "probcover":
        return delta0
    values = {k: v for k, v in dcom_cfg.items() if k != "alpha"}
    values = {"logistic_a": 0.9 if dataset.num_classes <= 10 else 0.8, **values, "delta0": delta0}
    return _from_config(DComConfig, values, "dcom")


def select_step(dataset, pool, strategy, q, setting, spec, learner=None, seed=0):
    """One query round of any strategy kind; returns the picks.

    setting comes from strategy_setting; learner is a model trained on
    pool.labeled, or None to train one where needed. Only the labels of
    pool.labeled are read, so a cold start needs none. Uncertainty kinds pick
    at random with seed until two classes are labeled.
    """
    if strategy.kind == "dcom":
        return _query(dataset, pool, spec, q, setting, learner).selected
    if strategy.kind == "random":
        return select_random(pool, q, seed)
    if strategy.kind == "coreset":
        return select_coreset(dataset, pool, q)
    if strategy.kind == "probcover":
        return select_probcover(dataset, pool, setting, q)
    learner = _learner_or_none(dataset, pool.labeled, spec, learner)
    if learner is None:
        return select_random(pool, q, seed)
    probs = predict_softmax(learner, dataset, pool.unlabeled)
    return select_by_uncertainty(pool, probs, strategy.kind, q)


def _run_single_repetition(pool_set, test_set, strategy, spec, setting, config, run_seed):
    test_local = np.arange(test_set.count)
    oracle = LabelOracle(pool_set.labels)
    pool = PoolState(labeled=[], unlabeled=list(range(pool_set.count)), deltas=[])
    timing = bool(config.get("record_timing", False))

    records, learner, budget = [], None, 0
    for iteration, q in enumerate(config["schedule"]):
        started = time.perf_counter()
        if strategy.kind == "dcom":
            query, pool, learner, metrics = run_iteration(
                pool_set, pool, spec, q, setting, learner
            )
            picks = query.selected
        else:
            metrics = dict.fromkeys(("coverage", "competence", "delta_mean", "delta_std"), 0.0)
            picks = select_step(
                pool_set, pool, strategy, q, setting, spec, learner, run_seed + iteration
            )
            pool = pool.with_labeled(picks)
            learner = _learner_or_none(pool_set, pool.labeled, spec)
        oracle.reveal(picks)
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
                seconds=seconds,
                **metrics,
            )
        )
    # Label reads stay confined to the queried points.
    stray = sorted(oracle.revealed ^ set(pool.labeled))
    if stray:
        raise PoolInvariantError(f"label reads outside the query sets at indices {stray}")
    return records


def _majority_accuracy(pool_set, pool, test_set):
    """Constant-prediction fallback while only one class has been observed."""
    values, counts = np.unique(pool_set.labels[pool.labeled], return_counts=True)
    majority = int(values[np.argmax(counts)])
    return float((test_set.labels == majority).mean())


def run_al_loop(config) -> list:
    """Run every repetition of the configured experiment and return the records.

    Records are ordered by run seed, then iteration. Only the kinds in
    SEEDED_KINDS read the run seed; any other kind runs its first repetition
    once, and every run seed gets a copy of its records, seconds included.
    """
    _validate_config(config)
    dataset = load_dataset(config["data"])
    if dataset.labels is None:
        raise ConfigError("run-loop reveals and scores labels, and data.labels gives none")
    split_cfg = config.get("split", {})
    _check_keys(split_cfg, ("test_fraction", "seed"), "split")
    split_seed = split_cfg.get("seed", 0)
    train, test = stratified_split(dataset, split_cfg.get("test_fraction", 0.25), split_seed)
    if sum(config["schedule"]) > train.size:
        raise ConfigError(
            f"schedule needs {sum(config['schedule'])} points, train pool has {train.size}"
        )
    strategy, base_seed = strategy_spec(config)
    spec = learner_spec(config)
    # Queries, coverage and training all live on the train partition; the test
    # partition is only ever touched by evaluate_accuracy.
    pool_set = EmbeddingSet(dataset.vectors[train], dataset.labels[train])
    test_set = EmbeddingSet(dataset.vectors[test], dataset.labels[test])
    setting = strategy_setting(pool_set, strategy, config.get("dcom", {}), split_seed)

    seeds = [base_seed + i for i in range(config.get("repetitions", 1))]
    repetition = partial(
        _run_single_repetition, pool_set, test_set, strategy, spec, setting, config
    )
    if strategy.kind in SEEDED_KINDS:
        return [record for seed in seeds for record in repetition(seed)]
    records = repetition(seeds[0])
    return [replace(record, run_seed=seed) for seed in seeds for record in records]


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _validate_config(config):
    """Reject what run_al_loop cannot run, naming the key; config is only read."""
    _check_keys(config, _CONFIG_KEYS, "top-level")
    if "data" not in config:
        raise ConfigError("config requires a 'data' section")
    schedule = config.get("schedule")
    if (
        not isinstance(schedule, (list, tuple))
        or not schedule
        or not all(_is_int(q) and q > 0 for q in schedule)
    ):
        raise ConfigError(
            f"schedule must be a non-empty list of positive integers, got {schedule!r}"
        )
    repetitions = config.get("repetitions", 1)
    if not _is_int(repetitions) or repetitions < 1:
        raise ConfigError(f"repetitions must be an integer >= 1, got {repetitions!r}")


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
                repr(getattr(r, f.name)) if f.type == "float" else getattr(r, f.name)
                for f in fields(ExperimentRecord)
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
            **{f.name: _PARSERS[f.type](r[f.name]) for f in fields(ExperimentRecord)}
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

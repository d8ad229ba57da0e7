"""Seeded active-learning experiment loop, accuracy evaluation, CSV/JSON reports.

A config is a plain dict (usually parsed from JSON); every key except the data
source has a default. check_config, the one type check, rejects any key that
CONFIG_KEYS does not list for its section or whose value lacks its JSON type
("deltas" a list of numbers, "output" a string), for every command and every
section, before any data loads; run_al_loop also rejects unknown (-1) labels.
strategy_spec, strategy_setting and select_step hold every kind's strategy
rules for the run loop and the CLI (a dcom round is engine.run_iteration,
whose query half select_step runs), so both pick the same points.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, fields, replace
from math import isfinite
from numbers import Real
from pathlib import Path

import numpy as np

from .baselines import (
    SEEDED_KINDS,
    STRATEGY_KINDS,
    select_by_uncertainty,
    select_coreset,
    select_probcover,
    select_random,
)
from .data import (
    UNKNOWN_LABEL,
    EmbeddingSet,
    MixtureSpec,
    _csv_records,
    _parse,
    _write_csv,
    gen_gaussian_mixture,
    l2_normalize,
    read_embedding_file,
    read_label_file,
)
from .engine import (
    DComConfig,
    PoolState,
    _learner_or_none,
    _learners_or_none,
    _query,
    run_iteration,
)
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


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, Real) and not isinstance(value, bool) and isfinite(value)


# The JSON value each type name takes, and its name in messages. Under
# postponed annotations a dataclass field's type is such a name. A list also
# comes as a tuple from run_al_loop callers.
_JSON_TYPES = {
    "int": (_is_int, "an integer"),
    # NumPy's default_rng takes no negative seed.
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "float": (_is_number, "a finite number"),
    "float | None": (lambda v: v is None or _is_number(v), "a finite number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list[int]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                  "a list of integers"),
    "list[float]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                    "a list of finite numbers"),
}


def _field_types(cls):
    """{field: type} of a config dataclass; a field whose default is None also takes null."""
    return {f.name: f"{f.type} | None" if f.default is None else f.type for f in fields(cls)}


# Every key a config may hold and its JSON type, by section path. check_config
# walks this table; each "object" key is a section whose entry comes later, so
# it is known to be an object before its keys are read.
# select and expand-delta read "labeled", "deltas" and "q" or "query" instead
# of split, schedule, repetitions, record_timing and output.
CONFIG_KEYS = {
    (): {
        "data": "object", "split": "object", "schedule": "list[int]", "strategy": "object",
        "learner": "object", "dcom": "object", "repetitions": "int", "record_timing": "bool",
        "output": "str", "labeled": "list[int]", "deltas": "list[float]",
        "query": "list[int]", "q": "int",
    },
    ("data",): {"mixture": "object", "embeddings": "str", "labels": "str", "l2_normalize": "bool"},
    ("data", "mixture"): {**_field_types(MixtureSpec), "seed": "seed"},
    ("split",): {"test_fraction": "float", "seed": "seed"},
    ("strategy",): {"kind": "str", "seed": "seed"},
    ("learner",): _field_types(LearnerSpec),
    ("dcom",): {**_field_types(DComConfig), "delta0": "float | None", "alpha": "float"},
}


def check_config(config):
    """Raise a ConfigError naming the first unknown key or value of the wrong JSON type."""
    if not isinstance(config, dict):
        raise ConfigError(f"top-level config must be an object, got {config!r}")
    for path, types in CONFIG_KEYS.items():
        section = config
        for key in path:
            section = section.get(key, {})
        unknown = sorted(set(section) - set(types))
        if unknown:
            raise ConfigError(f"{'.'.join(path) or 'top-level'} config: unknown keys {unknown}")
        for key, value in section.items():
            accepts, kind = _JSON_TYPES[types[key]]
            if not accepts(value):
                raise ConfigError(f"{'.'.join((*path, key))} must be {kind}, got {value!r}")


def _require(values, keys, section="top-level"):
    """Raise a ConfigError naming each of keys that values lacks."""
    missing = [key for key in keys if key not in values]
    if missing:
        raise ConfigError(f"{section} config: missing keys {missing}")


def strategy_spec(config, kind=None):
    """The strategy kind of a config (kind if given) and its seed; the one kind check."""
    values = config.get("strategy", {})
    kind = kind or values.get("kind", "dcom")
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"strategy.kind must be one of {list(STRATEGY_KINDS)}, got {kind!r}")
    return kind, values.get("seed", 0)


def learner_spec(config) -> LearnerSpec:
    """The LearnerSpec of a config's 'learner' section."""
    return LearnerSpec(**config.get("learner", {}))


def load_dataset(data_cfg) -> EmbeddingSet:
    """Resolve the config's data source into an EmbeddingSet."""
    files = [key for key in ("embeddings", "labels") if key in data_cfg]
    if "mixture" in data_cfg and files:
        raise ConfigError(f"data.mixture and data.{files[0]} are two data sources; give one")
    if "mixture" in data_cfg:
        mixture = data_cfg["mixture"]
        _require(mixture, [f.name for f in fields(MixtureSpec) if f.default is MISSING],
                 "data.mixture")
        dataset = gen_gaussian_mixture(MixtureSpec(**mixture))
    elif "embeddings" in data_cfg:
        dataset = read_embedding_file(data_cfg["embeddings"])
        if "labels" in data_cfg:
            dataset = EmbeddingSet(dataset.vectors, read_label_file(data_cfg["labels"]))
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
    return np.sort(np.array(train, dtype=np.int64)), np.sort(np.array(test, dtype=np.int64))


def evaluate_accuracy(learner, dataset, test) -> float:
    """Fraction of argmax predictions matching the true labels."""
    test = np.asarray(test, dtype=np.int64)
    if test.size == 0:
        raise EmptyTestSet("cannot evaluate on an empty test set")
    probs = predict_softmax(learner, dataset, test)
    predicted = probs.argmax(axis=1)
    return float((predicted == dataset.labels[test]).mean())


def resolve_delta0(dataset, dcom_cfg, num_classes, seed) -> float:
    """Use the configured delta0, or derive it from the purity-curve procedure."""
    if dcom_cfg.get("delta0") is not None:
        return float(dcom_cfg["delta0"])
    labels = kmeans_cluster(dataset, max(num_classes, 2), seed=seed)
    curve = estimate_purity_curve(dataset, labels, DEFAULT_GRID)
    return select_initial_delta(curve, dcom_cfg.get("alpha", DEFAULT_ALPHA))


def strategy_setting(dataset, kind, dcom_cfg, seed):
    """A DComConfig for dcom, the radius delta0 for probcover, None otherwise.

    delta0 is dcom_cfg["delta0"] (0 is kept, and rejected later), else
    derived with resolve_delta0's k-means seed.
    """
    if kind not in ("dcom", "probcover"):
        return None
    delta0 = resolve_delta0(dataset, dcom_cfg, dataset.num_classes, seed)
    if kind == "probcover":
        return delta0
    values = {k: v for k, v in dcom_cfg.items() if k != "alpha"}
    values = {"logistic_a": 0.9 if dataset.num_classes <= 10 else 0.8, **values, "delta0": delta0}
    return DComConfig(**values)


def select_step(dataset, pool, kind, q, setting, spec, learner=None, seed=0):
    """One query round of the strategy kind; returns the picks.

    setting comes from strategy_setting; learner is a model trained on
    pool.labeled, or None to train one where needed. Only the labels of
    pool.labeled are read, so a cold start needs none. Uncertainty kinds pick
    at random with seed until two classes are labeled.
    """
    if kind == "dcom":
        return _query(dataset, pool, spec, q, setting, learner).selected
    if kind == "random":
        return select_random(pool, q, seed)
    if kind == "coreset":
        return select_coreset(dataset, pool, q)
    if kind == "probcover":
        return select_probcover(dataset, pool, setting, q)
    learner = _learner_or_none(dataset, pool.labeled, spec, learner)
    if learner is None:
        return select_random(pool, q, seed)
    probs = predict_softmax(learner, dataset, pool.unlabeled)
    return select_by_uncertainty(pool, probs, kind, q)


# A baseline record's dcom metrics.
_NO_METRICS = dict.fromkeys(("coverage", "competence", "delta_mean", "delta_std"), 0.0)


def _run_repetitions(pool_set, test_set, kind, spec, setting, config, seeds):
    """One repetition per run seed, all stepped through the schedule in lockstep.

    At each iteration every repetition selects with its own seed and learner;
    then the repetitions whose labeled sets hold two classes, all of one size,
    train in one _learners_or_none batch, and each evaluates its own learner.
    A dcom round trains inside run_iteration. Records come in (seed,
    iteration) order, their seconds as run_al_loop describes.
    """
    test_local = np.arange(test_set.count)
    timing = config.get("record_timing", False)
    reps = range(len(seeds))
    oracles = [LabelOracle(pool_set.labels) for _ in reps]
    pools = [PoolState(labeled=[], unlabeled=list(range(pool_set.count)), deltas=[]) for _ in reps]
    learners, records = [None for _ in reps], [[] for _ in reps]
    budget = 0
    for iteration, q in enumerate(config["schedule"]):
        budget += q
        seconds, metrics = [0.0 for _ in reps], [_NO_METRICS for _ in reps]
        for r in reps:
            started = time.perf_counter()
            if kind == "dcom":
                query, pools[r], learners[r], metrics[r] = run_iteration(
                    pool_set, pools[r], spec, q, setting, learners[r]
                )
                picks = query.selected
            else:
                picks = select_step(
                    pool_set, pools[r], kind, q, setting, spec, learners[r], seeds[r] + iteration
                )
                pools[r] = pools[r].with_labeled(picks)
            oracles[r].reveal(picks)
            seconds[r] += time.perf_counter() - started
        if kind != "dcom":
            started = time.perf_counter()
            learners = _learners_or_none(pool_set, [pool.labeled for pool in pools], spec)
            elapsed = time.perf_counter() - started
            batch = [r for r in reps if learners[r] is not None] or reps
            for r in batch:
                seconds[r] += elapsed / len(batch)
        for r in reps:
            started = time.perf_counter()
            if learners[r] is None:
                accuracy = _majority_accuracy(pool_set, pools[r], test_set)
            else:
                accuracy = evaluate_accuracy(learners[r], test_set, test_local)
            seconds[r] += time.perf_counter() - started
            records[r].append(
                ExperimentRecord(
                    run_seed=seeds[r],
                    strategy=kind,
                    iteration=iteration,
                    budget=budget,
                    accuracy=accuracy,
                    seconds=seconds[r] if timing else 0.0,
                    **metrics[r],
                )
            )
    # Label reads stay confined to the queried points.
    for oracle, pool in zip(oracles, pools):
        stray = sorted(oracle.revealed ^ set(pool.labeled))
        if stray:
            raise PoolInvariantError(f"label reads outside the query sets at indices {stray}")
    return [record for rows in records for record in rows]


def _majority_accuracy(pool_set, pool, test_set):
    """Constant-prediction fallback while only one class has been observed."""
    values, counts = np.unique(pool_set.labels[pool.labeled], return_counts=True)
    majority = int(values[np.argmax(counts)])
    return float((test_set.labels == majority).mean())


def run_al_loop(config) -> list:
    """Run every repetition of the configured experiment and return the records.

    Records are ordered by run seed, then iteration. Only the kinds in
    SEEDED_KINDS read the run seed; their repetitions run in lockstep, and at
    each iteration the ones with two labeled classes train as one batch. Any
    other kind runs its first repetition once, and every run seed gets a copy
    of its records, seconds included. With record_timing, a record's seconds
    is its own select and evaluate time plus an equal 1/k share of the
    training batch of k repetitions it took part in; the records of one
    iteration sum to that iteration's wall time.
    """
    _validate_config(config)
    dataset = load_dataset(config["data"])
    if dataset.labels is None:
        raise ConfigError("run-loop reveals and scores labels, and data.labels gives none")
    unknown = np.flatnonzero(dataset.labels == UNKNOWN_LABEL)
    if unknown.size:
        raise ConfigError(
            f"run-loop reveals and scores labels, and data.labels marks {unknown.size} "
            f"points unknown (-1), first at rows {unknown[:5].tolist()}"
        )
    split_cfg = config.get("split", {})
    split_seed, fraction = split_cfg.get("seed", 0), split_cfg.get("test_fraction", 0.25)
    train, test = stratified_split(dataset, fraction, split_seed)
    if not test.size:
        raise ConfigError(f"split.test_fraction {fraction!r} leaves the test split empty")
    if sum(config["schedule"]) > train.size:
        raise ConfigError(
            f"schedule needs {sum(config['schedule'])} points, train pool has {train.size}"
        )
    kind, base_seed = strategy_spec(config)
    spec = learner_spec(config)
    # Queries, coverage and training all live on the train partition; the test
    # partition is only ever touched by evaluate_accuracy.
    pool_set = EmbeddingSet(dataset.vectors[train], dataset.labels[train])
    test_set = EmbeddingSet(dataset.vectors[test], dataset.labels[test])
    setting = strategy_setting(pool_set, kind, config.get("dcom", {}), split_seed)

    seeds = [base_seed + i for i in range(config.get("repetitions", 1))]
    seeded = kind in SEEDED_KINDS
    records = _run_repetitions(
        pool_set, test_set, kind, spec, setting, config, seeds if seeded else seeds[:1]
    )
    if seeded:
        return records
    return [replace(record, run_seed=seed) for seed in seeds for record in records]


def _validate_config(config):
    """Reject what run_al_loop cannot run, naming the key; config is only read."""
    check_config(config)
    _require(config, ("data", "schedule"))
    schedule = config["schedule"]
    if not schedule or min(schedule) < 1:
        raise ConfigError(
            f"schedule must be a non-empty list of positive integers, got {schedule!r}"
        )
    repetitions = config.get("repetitions", 1)
    if repetitions < 1:
        raise ConfigError(f"repetitions must be an integer >= 1, got {repetitions!r}")
    fraction = config.get("split", {}).get("test_fraction", 0.25)
    if not 0 < fraction < 1:
        raise ConfigError(f"split.test_fraction must lie in (0, 1), got {fraction!r}")


def write_report(records, path) -> None:
    """Write the per-record CSV and a JSON summary of per-budget mean +- stderr.

    path is the CSV target; the summary lands next to it with a .json suffix.
    """
    if not records:
        raise ValueError("records must be non-empty")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, REPORT_COLUMNS, ([getattr(r, c) for c in REPORT_COLUMNS] for r in records))
    path.with_suffix(".json").write_text(_summary_text(records))


def read_report(path) -> list:
    """Parse a report CSV back into ExperimentRecord objects.

    The header must hold every column of REPORT_COLUMNS, and at least one
    record must follow it.
    """
    header, rows, lines = _csv_records(path)
    missing = [c for c in REPORT_COLUMNS if c not in (header or ())]
    if missing:
        raise ValueError(f"{path} lacks report columns {missing}")
    if not rows:
        raise ValueError(f"{path} holds no records")
    columns = [(f.name, _PARSERS[f.type], header.index(f.name)) for f in fields(ExperimentRecord)]
    return [ExperimentRecord(**{name: _parse(parse, r[k], path, line, k + 1)
                                for name, parse, k in columns})
            for r, line in zip(rows, lines)]


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


def _summary_text(records) -> str:
    """The report's JSON text: summarize(records), indented, keys sorted, one final newline."""
    return json.dumps(summarize(records), indent=2, sort_keys=True) + "\n"

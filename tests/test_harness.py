import copy
import dataclasses
import json

import numpy as np
import pytest

from dcom.data import EmbeddingSet, MixtureSpec, gen_gaussian_mixture, l2_normalize
from dcom import harness
from dcom.baselines import SEEDED_KINDS, STRATEGY_KINDS
from dcom.errors import ConfigError, EmptyTestSet, PoolInvariantError
from dcom.harness import (
    ExperimentRecord,
    LabelOracle,
    check_config,
    evaluate_accuracy,
    load_dataset,
    read_report,
    resolve_delta0,
    run_al_loop,
    strategy_spec,
    stratified_split,
    summarize,
    write_report,
)
from dcom.learners import LearnerSpec, train_learner


def base_config(strategy="dcom", **overrides):
    config = {
        "data": {
            "mixture": {
                "num_classes": 3,
                "points_per_class": 40,
                "dim": 8,
                "class_separation": 6.0,
                "within_std": 1.0,
                "seed": 5,
            }
        },
        "split": {"test_fraction": 0.25, "seed": 1},
        "schedule": [3, 6],
        "strategy": {"kind": strategy, "seed": 0},
        "learner": {"epochs": 60},
        "repetitions": 2,
    }
    config.update(overrides)
    return config


def test_load_dataset_mixture_and_files(tmp_path):
    from dcom.data import write_embedding_file, write_label_file

    mixture = load_dataset(base_config()["data"])
    assert mixture.count == 120 and mixture.dim == 8
    norms = np.linalg.norm(mixture.vectors.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6

    raw = gen_gaussian_mixture(MixtureSpec(2, 5, 3, 4.0, 1.0, seed=0))
    epath, lpath = tmp_path / "e.dcm", tmp_path / "l.dcl"
    write_embedding_file(raw, epath)
    write_label_file(raw.labels, lpath)
    loaded = load_dataset(
        {"embeddings": str(epath), "labels": str(lpath), "l2_normalize": False}
    )
    assert loaded == raw
    with pytest.raises(ConfigError):
        load_dataset({})


def test_stratified_split_balanced_and_seeded():
    s = gen_gaussian_mixture(MixtureSpec(4, 20, 3, 4.0, 1.0, seed=2))
    train, test = stratified_split(s, 0.25, seed=3)
    assert sorted(np.concatenate((train, test)).tolist()) == list(range(80))
    for c in range(4):
        assert (s.labels[test] == c).sum() == 5
    train2, test2 = stratified_split(s, 0.25, seed=3)
    assert np.array_equal(train, train2) and np.array_equal(test, test2)
    _, test3 = stratified_split(s, 0.25, seed=4)
    assert not np.array_equal(test, test3)


@pytest.mark.parametrize("fraction", [0.0, 0.01])
def test_an_empty_test_split_is_int64(fraction):
    s = gen_gaussian_mixture(MixtureSpec(3, 20, 3, 4.0, 1.0, seed=2))
    train, test = stratified_split(s, fraction, seed=0)
    assert train.dtype == test.dtype == np.int64
    assert test.size == 0 and train.tolist() == list(range(60))


def test_evaluate_accuracy():
    s = gen_gaussian_mixture(MixtureSpec(2, 25, 4, 8.0, 0.5, seed=6))
    learner = train_learner(s, range(40), LearnerSpec(epochs=80))
    acc = evaluate_accuracy(learner, s, np.arange(40, 50))
    assert acc == 1.0
    with pytest.raises(EmptyTestSet):
        evaluate_accuracy(learner, s, [])


def test_resolve_delta0_prefers_config_value():
    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(2, 20, 4, 8.0, 0.6, seed=7)))
    assert resolve_delta0(s, {"delta0": 0.33}, 2, seed=0) == 0.33
    derived = resolve_delta0(s, {}, 2, seed=0)
    assert 0.05 <= derived <= 2.0


def test_label_oracle_records_reads():
    oracle = LabelOracle([5, 6, 7])
    assert oracle.reveal([2, 0]) == [7, 5]
    assert oracle.revealed == {0, 2}


@pytest.mark.parametrize("strategy", ["dcom", "random", "margin", "coreset", "probcover"])
def test_run_al_loop_strategies(strategy):
    config = base_config(strategy=strategy, repetitions=1)
    if strategy in ("dcom", "probcover"):
        config["dcom"] = {"delta0": 0.4}
    records = run_al_loop(config)
    assert len(records) == 2
    assert [r.budget for r in records] == [3, 9]
    assert all(r.strategy == strategy for r in records)
    assert all(0.0 <= r.accuracy <= 1.0 for r in records)


def test_run_al_loop_deterministic():
    config = base_config(strategy="dcom", dcom={"delta0": 0.4})
    a = run_al_loop(config)
    b = run_al_loop(base_config(strategy="dcom", dcom={"delta0": 0.4}))
    assert a == b


def test_run_al_loop_repetition_seeds_differ():
    config = base_config(strategy="random")
    records = run_al_loop(config)
    seeds = sorted({r.run_seed for r in records})
    assert seeds == [0, 1]
    by_seed = {s: [r.accuracy for r in records if r.run_seed == s] for s in seeds}
    assert len(records) == 4
    assert set(by_seed) == {0, 1}
    assert by_seed[0] != by_seed[1]


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_declared_seedless_kinds_ignore_the_run_seed(monkeypatch, kind):
    picks = []

    class PickLog(LabelOracle):
        def reveal(self, indices):
            picks.append(list(indices))
            return super().reveal(indices)

    # Each run computes one repetition, so the two seeds never share a copy.
    monkeypatch.setattr(harness, "LabelOracle", PickLog)
    runs = []
    for seed in (0, 1):
        picks.clear()
        config = base_config(strategy=kind, repetitions=1, dcom={"delta0": 0.4})
        config["strategy"]["seed"] = seed
        records = [
            dataclasses.replace(r, run_seed=0, seconds=0.0) for r in run_al_loop(config)
        ]
        runs.append((records, list(picks)))
    assert (runs[0] == runs[1]) == (kind not in SEEDED_KINDS)
    if kind == "random":
        assert runs[0][0] != runs[1][0]


@pytest.mark.parametrize("kind, computed", [("dcom", 1), ("coreset", 1), ("random", 3)])
def test_seedless_kinds_compute_one_repetition(monkeypatch, kind, computed):
    calls = []
    original = harness._run_single_repetition

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(harness, "_run_single_repetition", counted)
    config = base_config(strategy=kind, repetitions=3, dcom={"delta0": 0.4})
    config["strategy"]["seed"] = 4
    records = run_al_loop(config)
    assert calls == [4, 5, 6][:computed]
    assert [r.run_seed for r in records] == [4, 4, 5, 5, 6, 6]
    assert [r.iteration for r in records] == [0, 1] * 3


def test_copied_records_keep_the_computed_seconds():
    config = base_config(strategy="dcom", repetitions=3, dcom={"delta0": 0.4},
                         record_timing=True)
    records = run_al_loop(config)
    seconds = [[r.seconds for r in records if r.run_seed == s] for s in (0, 1, 2)]
    assert all(t > 0.0 for t in seconds[0])
    assert seconds[1] == seconds[0] and seconds[2] == seconds[0]


def test_run_al_loop_coverage_monotone():
    config = base_config(strategy="dcom", schedule=[3, 3, 3], repetitions=1,
                         dcom={"delta0": 0.4})
    records = run_al_loop(config)
    coverages = [r.coverage for r in records]
    assert all(b >= a for a, b in zip(coverages, coverages[1:]))


class LeakyOracle(LabelOracle):
    """Also reads the label of one point the strategy never queried."""

    def reveal(self, indices):
        labels = super().reveal(indices)
        unqueried = sorted(set(range(self._labels.size)) - self.revealed)
        super().reveal(unqueried[:1])
        return labels


@pytest.mark.parametrize("strategy", ["dcom", "random"])
def test_label_read_outside_query_set_raises(monkeypatch, strategy):
    monkeypatch.setattr(harness, "LabelOracle", LeakyOracle)
    config = base_config(strategy=strategy, repetitions=1, dcom={"delta0": 0.4})
    with pytest.raises(PoolInvariantError, match="label reads outside the query sets"):
        run_al_loop(config)


def test_strategy_delta0_zero_is_not_unset():
    config = base_config(strategy="dcom", repetitions=1, dcom={"delta0": 0})
    with pytest.raises(ConfigError, match="delta0 must be positive"):
        run_al_loop(config)


def test_strategy_spec_names_an_unknown_kind():
    assert strategy_spec({"strategy": {"kind": "random", "seed": 3}}) == ("random", 3)
    assert strategy_spec({"strategy": {"kind": "oracle"}}, "dcom") == ("dcom", 0)
    with pytest.raises(ConfigError, match=r"^strategy\.kind must be one of .*'oracle'"):
        strategy_spec({"strategy": {"kind": "oracle"}})


@pytest.mark.parametrize(
    "config, section",
    [
        ([1, 2], "top-level"),
        ({"dcom": None}, "dcom"),
        ({"data": {"mixture": [3]}}, "data.mixture"),
    ],
)
def test_check_config_names_a_section_that_is_not_an_object(config, section):
    # The top level is named "top-level config", a section by its dotted key.
    name = "top-level config" if section == "top-level" else section
    with pytest.raises(ConfigError, match=f"^{name} must be an object"):
        check_config(config)


def test_run_al_loop_config_validation():
    with pytest.raises(ConfigError):
        run_al_loop({"schedule": [1]})
    with pytest.raises(ConfigError):
        run_al_loop(base_config(schedule=[]))
    with pytest.raises(ConfigError):
        run_al_loop(base_config(schedule=[10_000]))
    with pytest.raises(ConfigError):
        run_al_loop(base_config(repetitions=0))


@pytest.mark.parametrize(
    "key, value",
    [
        ("repetitions", 2.0),
        ("repetitions", True),
        ("repetitions", "2"),
        ("schedule", [2.5, 3]),
        ("schedule", [3, True]),
        ("schedule", 3),
    ],
)
def test_non_integer_sizes_are_named(key, value):
    with pytest.raises(ConfigError, match=key):
        run_al_loop(base_config(**{key: value}))


def test_run_loop_rejects_unknown_labels_naming_their_rows(tmp_path):
    from dcom.data import write_embedding_file, write_label_file

    s = gen_gaussian_mixture(MixtureSpec(3, 40, 8, 6.0, 1.0, seed=5))
    labels = s.labels.copy()
    labels[[3, 50, 90, 110]] = -1
    write_embedding_file(s, tmp_path / "e.dcm")
    write_label_file(labels, tmp_path / "l.dcl")
    data = {"embeddings": str(tmp_path / "e.dcm"), "labels": str(tmp_path / "l.dcl")}
    config = base_config(strategy="coreset", data=data, schedule=[3], repetitions=1)
    message = r"marks 4 points unknown \(-1\), first at rows \[3, 50, 90, 110\]"
    with pytest.raises(ConfigError, match=message):
        run_al_loop(config)
    write_label_file(s.labels, tmp_path / "l.dcl")
    assert len(run_al_loop(config)) == 1


def test_run_al_loop_leaves_config_unchanged():
    config = base_config(strategy="dcom", repetitions=1, dcom={"delta0": 0.4})
    del config["strategy"]
    before = copy.deepcopy(config)
    records = run_al_loop(config)
    assert config == before
    assert records[0].strategy == "dcom"


def test_write_report_byte_identical(tmp_path):
    config = base_config(strategy="dcom", repetitions=1, dcom={"delta0": 0.4})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(run_al_loop(config), a)
    write_report(run_al_loop(base_config(strategy="dcom", repetitions=1,
                                         dcom={"delta0": 0.4})), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()


def test_report_round_trip_and_summary(tmp_path):
    records = [
        ExperimentRecord(0, "random", 0, 4, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
        ExperimentRecord(1, "random", 0, 4, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0),
        ExperimentRecord(0, "dcom", 0, 4, 0.9, 0.25, 0.1, 0.3, 0.01, 0.0),
    ]
    path = tmp_path / "r.csv"
    write_report(records, path)
    assert read_report(path) == records

    summary = summarize(records)
    assert summary["random"]["4"]["mean_accuracy"] == pytest.approx(0.6)
    assert summary["random"]["4"]["standard_error"] == pytest.approx(0.1 / np.sqrt(2))
    assert summary["random"]["4"]["repetitions"] == 2
    assert summary["dcom"]["4"]["repetitions"] == 1

    on_disk = json.loads(path.with_suffix(".json").read_text())
    assert on_disk == summary

    with pytest.raises(ValueError):
        write_report([], tmp_path / "empty.csv")


def test_select_step_dcom_only_selects(monkeypatch):
    from dcom import engine
    from dcom.engine import DComConfig, PoolState, run_iteration

    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(3, 20, 4, 6.0, 1.0, seed=2)))
    pool = PoolState([0, 25, 45], [i for i in range(60) if i not in (0, 25, 45)], [0.4] * 3)
    config, spec = DComConfig(delta0=0.4), LearnerSpec(epochs=30)
    expected = run_iteration(s, pool, spec, 5, config)[0]

    trainings = []

    def train_once(*args):
        if trainings:
            raise AssertionError("select_step trained a second learner")
        trainings.append(args)
        return train_learner(*args)

    def no_expand(*args):
        raise AssertionError("select_step expanded radii")

    monkeypatch.setattr(engine, "train_learner", train_once)
    monkeypatch.setattr(engine, "expand_delta", no_expand)
    picks = harness.select_step(s, pool, "dcom", 5, config, spec)
    assert picks == expected.selected
    assert len(trainings) == 1


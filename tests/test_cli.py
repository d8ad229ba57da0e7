import json

import numpy as np
import pytest

from dcom import graph, harness
from dcom.baselines import STRATEGY_KINDS, StrategySpec
from dcom.cli import cli_dispatch
from dcom.data import (
    MixtureSpec,
    gen_gaussian_mixture,
    write_embedding_file,
    write_label_file,
)
from dcom.engine import PoolState, run_iteration


@pytest.fixture
def mixture_file(tmp_path):
    s = gen_gaussian_mixture(MixtureSpec(3, 30, 6, 8.0, 0.7, seed=4))
    path = tmp_path / "points.dcm"
    write_embedding_file(s, path)
    return path


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "init-delta")
    assert code == 2
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_init_delta_output(capsys, mixture_file):
    code, out, err = run_cli(
        capsys, "init-delta", "--embeddings", str(mixture_file), "--classes", "3"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "delta,purity"
    assert lines[-1].startswith("delta0,")
    delta0 = float(lines[-1].split(",")[1])
    grid = [float(line.split(",")[0]) for line in lines[1:-1]]
    assert any(abs(delta0 - g) < 1e-6 for g in grid)
    purity = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert all(0.0 <= p <= 1.0 for p in purity)


def test_init_delta_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "init-delta", "--embeddings", str(tmp_path / "nope.dcm"), "--classes", "2"
    )
    assert code == 1
    assert err.startswith("error (pseudo-purity):")


def test_select_dcom_and_random(capsys, tmp_path):
    data = {
        "mixture": {
            "num_classes": 2,
            "points_per_class": 20,
            "dim": 4,
            "class_separation": 6.0,
            "within_std": 0.8,
            "seed": 2,
        }
    }
    config = {
        "data": data,
        "labeled": [0, 25],
        "deltas": [0.4, 0.4],
        "strategy": {"kind": "dcom"},
        "dcom": {"delta0": 0.4},
        "learner": {"epochs": 30},
        "q": 3,
    }
    path = tmp_path / "select.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "select", "--config", str(path))
    assert code == 0, err
    picks = [int(v) for v in out.strip().split(",")]
    assert len(picks) == 3 and not set(picks) & {0, 25}

    config["strategy"] = {"kind": "random", "seed": 3}
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "select", "--config", str(path))
    assert code == 0
    assert len(out.strip().split(",")) == 3


@pytest.mark.parametrize(
    "kind, message", [("dcom", "delta0 must be positive"), ("probcover", "delta must be positive")]
)
def test_select_delta0_zero_is_rejected_not_rederived(capsys, tmp_path, kind, message):
    config = {
        "data": {
            "mixture": {
                "num_classes": 2,
                "points_per_class": 20,
                "dim": 4,
                "class_separation": 6.0,
                "within_std": 0.8,
                "seed": 2,
            }
        },
        "labeled": [0, 25],
        "strategy": {"kind": kind},
        "dcom": {"delta0": 0},
        "learner": {"epochs": 30},
        "q": 3,
    }
    path = tmp_path / "select.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "select", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (query-selection):") and message in err


def test_select_bad_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "select", "--config", str(path))
    assert code == 1 and err.startswith("error (query-selection):")


def test_expand_delta_command(capsys, tmp_path):
    config = {
        "data": {
            "mixture": {
                "num_classes": 2,
                "points_per_class": 15,
                "dim": 4,
                "class_separation": 6.0,
                "within_std": 0.8,
                "seed": 3,
            }
        },
        "labeled": [0, 16, 5],
        "deltas": [0.4, 0.4],
        "query": [5],
        "dcom": {"delta0": 0.4},
        "learner": {"epochs": 30},
    }
    path = tmp_path / "expand.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 0, err
    deltas = [float(v) for v in out.strip().split(",")]
    assert len(deltas) == 3
    assert all(0.05 - 1e-9 <= d <= 0.8 + 1e-9 for d in deltas)


@pytest.mark.parametrize(
    "dcom_section, strategy",
    [(None, None), ({"alpha": 0.9}, None), ({"alpha": 0.9}, {"seed": 7})],
)
def test_expand_delta_derives_delta0(capsys, tmp_path, dcom_section, strategy):
    mixture = {
        "num_classes": 3,
        "points_per_class": 20,
        "dim": 4,
        "class_separation": 3.0,
        "within_std": 1.0,
        "seed": 2,
    }
    config = {
        "data": {"mixture": mixture, "l2_normalize": True},
        "labeled": [0, 21, 45, 3],
        "deltas": [0.3, 0.3, 0.3],
        "query": [3],
        "learner": {"epochs": 30},
    }
    if dcom_section is not None:
        config["dcom"] = dcom_section
    if strategy is not None:
        config["strategy"] = strategy

    def expand(cfg):
        path = tmp_path / "expand.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
        assert code == 0, err
        return out

    dataset = harness.load_dataset(config["data"])
    seed = (strategy or {}).get("seed", 0)
    delta0 = harness.resolve_delta0(dataset, dcom_section or {}, dataset.num_classes, seed)
    explicit = {**config, "dcom": {**(dcom_section or {}), "delta0": delta0}}
    assert expand(config) == expand(explicit)


def expand_radii(capsys, tmp_path, config):
    path = tmp_path / "expand.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 0, err
    return [float(v) for v in out.strip().split(",")]


def small_expand_config(**overrides):
    mixture = {
        "num_classes": 2,
        "points_per_class": 15,
        "dim": 4,
        "class_separation": 6.0,
        "within_std": 0.8,
        "seed": 3,
    }
    config = {
        "data": {"mixture": mixture},
        "labeled": [0, 16, 5, 20, 3],
        "deltas": [0.4, 0.4, 0.4],
        "query": [5, 3],
        "learner": {"epochs": 30},
    }
    return {**config, **overrides}


def test_expand_delta_honours_strategy_params_delta0(capsys, tmp_path):
    # select reads params.delta0 before dcom.delta0; expand-delta must agree.
    from_params = small_expand_config(
        strategy={"params": {"delta0": 0.7}}, dcom={"delta0": 0.3}
    )
    from_dcom = small_expand_config(dcom={"delta0": 0.7})
    radii = expand_radii(capsys, tmp_path, from_params)
    assert radii == expand_radii(capsys, tmp_path, from_dcom)
    assert radii != expand_radii(capsys, tmp_path, small_expand_config(dcom={"delta0": 0.3}))


def test_expand_delta_without_deltas_gives_earlier_points_delta0(capsys, tmp_path):
    # As in select, labeled points given without radii take delta0.
    implicit = expand_radii(capsys, tmp_path, small_expand_config(deltas=[], dcom={"delta0": 0.4}))
    assert len(implicit) == 5 and implicit[:3] == [0.4, 0.4, 0.4]
    assert implicit == expand_radii(capsys, tmp_path, small_expand_config(dcom={"delta0": 0.4}))


def thirty_point_expand_config(**overrides):
    mixture = {
        "num_classes": 3,
        "points_per_class": 10,
        "dim": 4,
        "class_separation": 6.0,
        "within_std": 0.8,
        "seed": 5,
    }
    config = {
        "data": {"mixture": mixture},
        "labeled": [0, 11, 21],
        "deltas": [0.4, 0.4],
        "query": [21],
        "dcom": {"delta0": 0.4},
        "learner": {"epochs": 30},
    }
    return {**config, **overrides}


def index_message(bad):
    return f"labeled points {bad} are repeated or not in [0, 30)"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"deltas": [-0.4, 0.4]}, "all radii must be positive"),
        ({"query": [21, 21]}, "query points [21] are repeated or not labeled"),
        ({"labeled": [0, 11], "query": [25]}, "query points [25] are repeated or not labeled"),
        ({"labeled": [], "deltas": [], "query": []}, "there are none"),
        ({"labeled": [0, -1, 21]}, index_message([-1])),
        ({"labeled": [0, 500, 21]}, index_message([500])),
        ({"labeled": [0, 0, 11, 21], "deltas": [0.4] * 3}, index_message([0])),
        ({"labeled": 5}, "not iterable"),
        ({"deltas": [None, 0.4]}, "NoneType"),
        ({"query": 21}, "not iterable"),
        ({"query": [21.5]}, "query points [21.5] are not integers"),
    ],
    ids=["negative-radius", "repeated-query", "unlabeled-query", "no-labeled-points",
         "negative-index", "index-past-end", "repeated-index", "labeled-int", "null-radius",
         "query-int", "fractional-query"],
)
def test_expand_delta_rejects_invalid_pools(capsys, tmp_path, overrides, message):
    path = tmp_path / "expand.json"
    path.write_text(json.dumps(thirty_point_expand_config()))
    code, _, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 0, err
    path.write_text(json.dumps(thirty_point_expand_config(**overrides)))
    code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (radius-expansion):") and message in err


@pytest.mark.parametrize(
    "labeled, deltas, q", [([0, 11, 21], [0.4, 0.3, 0.5], 3), ([], [], 1)],
    ids=["two-class-round", "single-class-first-round"],
)
def test_expand_delta_prints_the_radii_of_run_iteration(capsys, tmp_path, labeled, deltas, q):
    config = thirty_point_expand_config(labeled=labeled, deltas=deltas)
    dataset = harness.load_dataset(config["data"])
    setting = harness.strategy_setting(dataset, StrategySpec("dcom"), config["dcom"], 0)
    pool = PoolState(labeled, [i for i in range(dataset.count) if i not in labeled], deltas)
    spec = harness.learner_spec(config)
    result, after, learner, _ = run_iteration(dataset, pool, spec, q, setting)
    assert (learner is None) == (not labeled)  # one class after a one-pick first round
    config["labeled"], config["query"] = after.labeled, result.selected
    path = tmp_path / "expand.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 0, err
    assert out == ",".join(f"{d:.6g}" for d in after.deltas) + "\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"labeled": [0, -1]}, index_message([-1])),
        ({"labeled": [0, 500]}, index_message([500])),
        ({"labeled": [0, 0, 11]}, index_message([0])),
        ({"labeled": 5}, "not iterable"),
        ({"deltas": [None, 0.4]}, "NoneType"),
        ({"q": None}, "NoneType"),
        ({"labeled": [0.9, 11.5]}, "labeled points [0.9, 11.5] are not integers"),
        ({"labeled": [True, 11]}, "labeled points [True] are not integers"),
        ({"q": 2.7}, "q must be an integer, got float 2.7"),
    ],
    ids=["negative-index", "index-past-end", "repeated-index", "labeled-int", "null-radius",
         "null-q", "fractional-index", "boolean-index", "fractional-q"],
)
@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_select_rejects_bad_pool_inputs(capsys, tmp_path, kind, overrides, message):
    config = thirty_point_expand_config(
        labeled=[0, 11], strategy={"kind": kind, "seed": 3}, q=2
    )
    del config["query"]
    code, _, err = run_select(capsys, tmp_path, config)
    assert code == 0, err
    code, out, err = run_select(capsys, tmp_path, {**config, **overrides})
    assert code == 1 and out == ""
    assert err.startswith("error (query-selection):") and message in err


@pytest.mark.parametrize("command", ["select", "expand-delta"])
def test_radii_above_the_largest_expand_delta_radius_exit_1(capsys, tmp_path, command):
    config = thirty_point_expand_config(deltas=[5.0, 5.0])
    if command == "select":
        config.update(labeled=[0, 11], q=2)
        del config["query"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert "radii [5.0, 5.0] exceed 0.8" in err
    # The grid's top radius, 12 * 0.05, lies above delta_max 0.6 but is one
    # expand_delta assigns, so a pool holding it is accepted.
    top = 0.05 * 12
    assert top > 0.6
    config.update(deltas=[top, 0.6], dcom={"delta0": 0.4, "delta_max": 0.6})
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, command, "--config", str(path))
    assert code == 0, err


def test_dense_radius_graph_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "_MAX_EDGES", 10)
    code, out, err = run_select(capsys, tmp_path, select_config("dcom", [0, 35, 70]))
    assert code == 1 and out == ""
    assert err.startswith("error (query-selection): radius graph too dense")


def test_run_loop_and_report(capsys, tmp_path):
    config = {
        "data": {
            "mixture": {
                "num_classes": 3,
                "points_per_class": 30,
                "dim": 6,
                "class_separation": 6.0,
                "within_std": 1.0,
                "seed": 5,
            }
        },
        "split": {"test_fraction": 0.25, "seed": 1},
        "schedule": [3, 5],
        "strategy": {"kind": "dcom", "seed": 0},
        "dcom": {"delta0": 0.4},
        "learner": {"epochs": 40},
        "repetitions": 2,
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run-loop", "--config", str(path))
    assert code == 0, err
    csv_path = tmp_path / "out" / "report.csv"
    assert csv_path.exists() and csv_path.with_suffix(".json").exists()
    assert str(csv_path) in out

    code, out, _ = run_cli(capsys, "report", "--records", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"dcom"}
    assert summary["dcom"]["8"]["repetitions"] == 2

    out_json = tmp_path / "summary.json"
    code, _, _ = run_cli(
        capsys, "report", "--records", str(csv_path), "--output", str(out_json)
    )
    assert code == 0
    assert json.loads(out_json.read_text()) == summary


def test_report_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", "--records", str(tmp_path / "no.csv"))
    assert code == 1 and err.startswith("error (reporting):")


def select_config(kind, labeled):
    return {
        "data": {
            "mixture": {
                "num_classes": 3,
                "points_per_class": 30,
                "dim": 6,
                "class_separation": 6.0,
                "within_std": 1.0,
                "seed": 5,
            }
        },
        "labeled": labeled,
        "strategy": {"kind": kind, "seed": 3},
        "dcom": {"delta0": 0.5},
        "learner": {"epochs": 40},
        "q": 4,
    }


def run_select(capsys, tmp_path, config):
    path = tmp_path / "select.json"
    path.write_text(json.dumps(config))
    return run_cli(capsys, "select", "--config", str(path))


@pytest.mark.parametrize(
    "kind, picks",
    [
        ("dcom", "39,16,79,22"),
        ("random", "21,8,16,71"),
        ("margin", "28,2,15,53"),
        ("entropy", "28,2,15,8"),
        ("maxprob", "28,2,15,24"),
        ("coreset", "61,28,53,52"),
        ("probcover", "39,11,63,3"),
    ],
)
def test_select_golden_picks(capsys, tmp_path, kind, picks):
    code, out, err = run_select(capsys, tmp_path, select_config(kind, [0, 35, 70]))
    assert code == 0, err
    assert out.strip() == picks


@pytest.mark.parametrize("labeled", [[], [0], [1, 2]])
def test_select_uncertainty_falls_back_to_random_below_two_classes(
    capsys, tmp_path, labeled
):
    code, expected, err = run_select(capsys, tmp_path, select_config("random", labeled))
    assert code == 0, err
    for kind in ("margin", "entropy", "maxprob"):
        code, out, err = run_select(capsys, tmp_path, select_config(kind, labeled))
        assert code == 0, err
        assert out == expected


@pytest.mark.parametrize("kind", ["dcom", "probcover"])
def test_select_strategy_params_delta0_comes_first(capsys, tmp_path, kind):
    config = select_config(kind, [0, 35, 70])
    config["dcom"] = {"delta0": 0.7}
    code, expected, err = run_select(capsys, tmp_path, config)
    assert code == 0, err
    config["strategy"]["params"] = {"delta0": 0.7}
    config["dcom"] = {"delta0": 0.5}
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize(
    "section, key, present",
    [
        ("mixture", "sed", True),
        ("learner", "seed", True),
        ("mixture", "dim", False),
        ("dcom", "tau_slop", True),
        ("strategy", "sead", True),
        ("params", "delta", True),
        ("data", "l2_normalise", True),
        ("top-level", "repetiton", True),
    ],
)
@pytest.mark.parametrize("command", ["select", "run-loop"])
def test_bad_config_keys_exit_1_naming_them(capsys, tmp_path, command, section, key, present):
    config = select_config("dcom" if section == "dcom" else "random", [0, 35, 70])
    config.update(schedule=[3], output=str(tmp_path / "out"))
    if section == "mixture":
        target = config["data"]["mixture"]
    elif section == "params":
        target = config["strategy"]["params"] = {}
    elif section == "top-level":
        target = config
    else:
        target = config[section]
    if present:
        target[key] = 1
    else:
        del target[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (") and section in err and key in err


def test_run_loop_unknown_split_key_exits_1(capsys, tmp_path):
    config = select_config("random", [])
    config.update(schedule=[3], output=str(tmp_path / "out"), split={"test_fration": 0.5})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run-loop", "--config", str(path))
    assert code == 1 and out == ""
    assert err == "error (experiment-harness): split config: unknown keys ['test_fration']\n"


@pytest.mark.parametrize("key, value", [("repetitions", 2.0), ("schedule", [2.5, 3])])
def test_run_loop_non_integer_sizes_exit_1(capsys, tmp_path, key, value):
    config = select_config("random", [])
    config.update(schedule=[3], output=str(tmp_path / "out"))
    config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run-loop", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (experiment-harness):") and key in err


@pytest.mark.parametrize(
    "kind", ["dcom", "random", "margin", "entropy", "maxprob", "coreset", "probcover"]
)
def test_select_zero_budget_exits_1(capsys, tmp_path, kind):
    config = select_config(kind, [0, 35, 70])
    config["q"] = 0
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    assert err.startswith("error (query-selection):") and "q=0" in err


@pytest.fixture
def files(tmp_path):
    """A 3-class mixture as an unlabeled .dcm plus a separate labels file."""
    s = gen_gaussian_mixture(MixtureSpec(3, 30, 6, 6.0, 1.0, seed=5))
    write_embedding_file(s, tmp_path / "points.dcm")
    write_label_file(s.labels, tmp_path / "labels.dcl")
    return {"embeddings": str(tmp_path / "points.dcm"), "labels": str(tmp_path / "labels.dcl")}


def file_config(files, kind, labeled, labels=True):
    config = select_config(kind, labeled)
    config["data"] = dict(files) if labels else {"embeddings": files["embeddings"]}
    return config


def test_cold_dcom_select_needs_no_labels(capsys, tmp_path, files):
    code, expected, err = run_select(capsys, tmp_path, file_config(files, "dcom", []))
    assert code == 0, err
    code, out, err = run_select(capsys, tmp_path, file_config(files, "dcom", [], labels=False))
    assert code == 0, err
    assert out == expected and len(out.split(",")) == 4


@pytest.mark.parametrize("kind", ["random", "coreset", "probcover"])
def test_label_free_kinds_select_without_labels(capsys, tmp_path, files, kind):
    code, expected, err = run_select(capsys, tmp_path, file_config(files, kind, [0, 35, 70]))
    assert code == 0, err
    config = file_config(files, kind, [0, 35, 70], labels=False)
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("kind", ["dcom", "margin", "entropy", "maxprob"])
def test_select_on_labeled_points_without_labels_names_data_labels(
    capsys, tmp_path, files, kind
):
    config = file_config(files, kind, [0, 35, 70], labels=False)
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    assert err.startswith("error (query-selection):") and "data.labels" in err


def expand_config(files, labels=True):
    config = file_config(files, "dcom", [0, 35, 70, 5], labels)
    config.update(deltas=[0.5, 0.5, 0.5], query=[5])
    return config


def test_expand_delta_without_labels_names_data_labels(capsys, tmp_path, files):
    path = tmp_path / "expand.json"
    path.write_text(json.dumps(expand_config(files, labels=False)))
    code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (radius-expansion):") and "data.labels" in err


def test_expand_delta_rejects_unknown_labels(capsys, tmp_path, files):
    path = tmp_path / "expand.json"
    path.write_text(json.dumps(expand_config(files)))
    code, _, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 0, err
    labels = np.full(90, -1)
    labels[[0, 35, 70]] = [0, 1, 2]
    write_label_file(labels, files["labels"])
    code, out, err = run_cli(capsys, "expand-delta", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (radius-expansion):") and "[5]" in err and "-1" in err


@pytest.mark.parametrize(
    "command, kind",
    [("select", "dcom"), ("select", "margin"), ("select", "entropy"), ("select", "maxprob"),
     ("expand-delta", "dcom")],
)
def test_single_class_of_unknown_labels_is_rejected(capsys, tmp_path, files, command, kind):
    # Only -1 among the labels read: not a class, so the points are named.
    config = expand_config(files) if command == "expand-delta" else file_config(
        files, kind, [0, 35, 70]
    )
    labels = np.zeros(90, dtype=np.int64)
    labels[config["labeled"]] = -1
    write_label_file(labels, files["labels"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert f"points {config['labeled']} have label -1" in err


def test_run_loop_without_labels_names_data_labels(capsys, tmp_path, files):
    config = file_config(files, "dcom", [], labels=False)
    config.update(schedule=[3], output=str(tmp_path / "out"))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run-loop", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (experiment-harness):") and "data.labels" in err

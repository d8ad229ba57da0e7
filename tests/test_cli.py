import json

import numpy as np
import pytest

from dcom import graph, harness, purity
from dcom.baselines import STRATEGY_KINDS
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


@pytest.mark.parametrize("classes, seed", [(2, 0), (3, 0), (3, 7), (4, 1)])
def test_init_delta_gives_the_delta0_of_select_and_run_loop(
    capsys, monkeypatch, mixture_file, classes, seed
):
    grids = []
    curve = purity.estimate_purity_curve

    def recorded(embedding_set, labels, grid, sample=None):
        grids.append(grid)
        return curve(embedding_set, labels, grid, sample)

    monkeypatch.setattr(purity, "estimate_purity_curve", recorded)
    argv = ["init-delta", "--embeddings", str(mixture_file), "--classes", str(classes)]
    code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
    assert code == 0, err
    # The curve is printed on the grid that select and run-loop derive delta0 on.
    assert len(grids) == 1 and np.array_equal(grids[0], purity.DEFAULT_GRID)
    dataset = harness.load_dataset({"embeddings": str(mixture_file)})
    delta0 = harness.resolve_delta0(dataset, {}, classes, seed)
    assert out.splitlines()[-1] == f"delta0,{delta0:.6g}"
    assert run_cli(capsys, *argv, "--grid-step", "0.1")[0] == 2


@pytest.mark.parametrize("classes", ["1", "0", "-3"])
def test_init_delta_below_two_classes_exits_1_naming_classes(capsys, mixture_file, classes):
    argv = ["init-delta", "--embeddings", str(mixture_file), "--classes", classes]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error (pseudo-purity): --classes must be 2 or more, got {classes}\n"


def test_init_delta_negative_seed_exits_1_naming_it(capsys, mixture_file):
    argv = ["init-delta", "--embeddings", str(mixture_file), "--classes", "3", "--seed", "-1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error (pseudo-purity): --seed must be 0 or more, got -1\n"


@pytest.mark.parametrize(
    "text, message",
    [("f0,f1\n1.0,2.0\n3.0,abc\n", "line 3, field 2: cannot parse 'abc' as float"),
     ("f0,f1\n1.0,2.0\n3.0,\n", "line 3, field 2: cannot parse '' as float")],
    ids=["word", "empty"],
)
def test_init_delta_on_a_csv_token_that_is_no_number_names_it(capsys, tmp_path, text, message):
    path = tmp_path / "points.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "init-delta", "--embeddings", str(path), "--classes", "2")
    assert code == 1 and out == ""
    assert err == f"error (pseudo-purity): {path} {message}\n"


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"deltas": [-0.4, 0.4]}, "all radii must be positive"),
        ({"query": [21, 21]}, "query points [21] are repeated or not labeled"),
        ({"labeled": [0, 11], "query": [25]}, "query points [25] are repeated or not labeled"),
        ({"labeled": [], "deltas": [], "query": []}, "there are none"),
        ({"labeled": [0, -1, 21]}, "pool.labeled[1] is -1, a negative index"),
        ({"labeled": [0, 500, 21]}, "pool.labeled[1] is 500, outside [0, 30)"),
        ({"labeled": [0, 0, 11, 21], "deltas": [0.4] * 3},
         "pool.labeled must not repeat an index: 0 appears more than once"),
        ({"labeled": 5}, "labeled must be a list of integers, got 5"),
        ({"deltas": [None, 0.4]}, "deltas must be a list of finite numbers, got [None, 0.4]"),
        ({"query": 21}, "query must be a list of integers, got 21"),
        ({"query": [21.5]}, "query must be a list of integers, got [21.5]"),
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
    setting = harness.strategy_setting(dataset, "dcom", config["dcom"], 0)
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
        ({"labeled": [0, -1]}, "pool.labeled[1] is -1, a negative index"),
        ({"labeled": [0, 500]}, "pool.labeled[1] is 500, outside [0, 30)"),
        ({"labeled": [0, 0, 11]},
         "pool.labeled must not repeat an index: 0 appears more than once"),
        ({"labeled": 5}, "labeled must be a list of integers, got 5"),
        ({"deltas": [None, 0.4]}, "deltas must be a list of finite numbers, got [None, 0.4]"),
        ({"q": None}, "q must be an integer, got None"),
        ({"labeled": [0.9, 11.5]}, "labeled must be a list of integers, got [0.9, 11.5]"),
        ({"labeled": [True, 11]}, "labeled must be a list of integers, got [True, 11]"),
        ({"q": 2.7}, "q must be an integer, got 2.7"),
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


def test_a_labeled_index_past_the_points_exits_before_delta0_is_derived(
    capsys, tmp_path, monkeypatch
):
    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means ran before the pool's indices were checked")

    monkeypatch.setattr(harness, "kmeans_cluster", no_kmeans)
    config = thirty_point_expand_config(labeled=[0, 500], q=2, dcom={})
    del config["query"]
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    assert err == "error (query-selection): pool.labeled[1] is 500, outside [0, 30)\n"


def test_select_on_a_mixture_past_float32_range_names_the_non_finite_value(capsys, tmp_path):
    # Under tier-1's RuntimeWarning filter a warning cast would escape cli_dispatch.
    config = thirty_point_expand_config(labeled=[0, 11], q=2)
    del config["query"]
    config["data"]["mixture"]["class_separation"] = 1e40
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    assert err == "error (query-selection): non-finite value at row 0, column 0\n"


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


@pytest.mark.parametrize(
    "drop, message",
    [
        (["coverage"], "lacks report columns ['coverage']"),
        (["iteration", "seconds"], "lacks report columns ['iteration', 'seconds']"),
        (list(harness.REPORT_COLUMNS), f"lacks report columns {list(harness.REPORT_COLUMNS)}"),
        ([], "holds no records"),
    ],
    ids=["no-coverage", "two-columns", "empty-file", "header-only"],
)
def test_report_names_missing_columns_and_rejects_an_empty_report(
    capsys, tmp_path, drop, message
):
    record = harness.ExperimentRecord(0, "random", 0, 4, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    path = tmp_path / "report.csv"
    harness.write_report([record], path)
    assert run_cli(capsys, "report", "--records", str(path))[0] == 0
    header, row = (line.split(",") for line in path.read_text().splitlines())
    keep = [k for k, column in enumerate(header) if column not in drop]
    lines = [[header[k] for k in keep]] + ([[row[k] for k in keep]] if drop else [])
    path.write_text("".join(",".join(line) + "\n" for line in lines if line))
    code, out, err = run_cli(capsys, "report", "--records", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error (reporting):") and message in err


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


@pytest.mark.parametrize(
    "section, key, present",
    [
        ("mixture", "sed", True),
        ("learner", "seed", True),
        ("mixture", "dim", False),
        ("dcom", "tau_slop", True),
        ("strategy", "sead", True),
        ("strategy", "params", True),
        ("split", "test_fration", True),
        ("split", "sead", True),
        ("data", "l2_normalise", True),
        ("top-level", "repetiton", True),
    ],
)
@pytest.mark.parametrize("command", ["select", "expand-delta", "run-loop"])
def test_bad_config_keys_exit_1_naming_them(capsys, tmp_path, command, section, key, present):
    # random reads neither dcom nor split, yet every command checks every section.
    config = select_config("random", [0, 35, 70])
    config.update(schedule=[3], output=str(tmp_path / "out"), query=[70])
    if section == "mixture":
        target = config["data"]["mixture"]
    elif section == "top-level":
        target = config
    else:
        target = config.setdefault(section, {})
    if present:
        target[key] = 1
    else:
        del target[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    keys = "unknown keys" if present else "missing keys"
    assert err.startswith("error (") and section in err and f"{keys} ['{key}']" in err


@pytest.mark.parametrize("command", ["select", "expand-delta", "run-loop"])
def test_every_readme_schema_key_is_accepted(capsys, tmp_path, command):
    # Each key of the README's JSON config schema, data given by mixture.
    config = {
        "data": {
            "mixture": {"num_classes": 3, "points_per_class": 30, "dim": 6,
                        "class_separation": 6.0, "within_std": 1.0, "seed": 5},
            "l2_normalize": True,
        },
        "split": {"test_fraction": 0.25, "seed": 0},
        "schedule": [3, 3],
        "strategy": {"kind": "dcom", "seed": 0},
        "dcom": {"delta0": 0.5, "delta_max": 1.0, "alpha": 0.95, "tau_slope": 0.2,
                 "tau_intercept": 0.4, "logistic_a": 0.9, "logistic_k": 30.0,
                 "delta_resolution": 0.05},
        "learner": {"kind": "linear_probe", "learning_rate": 0.1, "epochs": 30,
                    "l2_penalty": 1e-4, "temperature": 1.0},
        "repetitions": 1,
        "record_timing": False,
        "output": str(tmp_path / "out"),
        "labeled": [0, 35, 70],
        "deltas": [],
        "query": [70],
        "q": 4,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 0 and err == "", err
    assert out


def _wrong_value(annotation):
    """A JSON value that a key of type annotation does not take."""
    if annotation == "str":
        return 5
    return [True, "0.4"] if annotation.startswith("list") else "x"


@pytest.mark.parametrize(
    "path, key, annotation",
    [
        pytest.param(path, key, annotation, id=".".join((*path, key)))
        for path, types in harness.CONFIG_KEYS.items()
        for key, annotation in types.items()
    ],
)
@pytest.mark.parametrize("command", ["select", "expand-delta", "run-loop"])
def test_every_config_key_of_the_wrong_type_exits_1_before_data_loads(
    capsys, tmp_path, command, path, key, annotation
):
    # The data file does not exist, so only a check made before loading names the key.
    missing = tmp_path / "missing.dcm"
    config = {"data": {"embeddings": str(missing)}, "strategy": {"kind": "random"},
              "labeled": [0], "deltas": [0.4], "query": [0], "q": 2, "schedule": [3]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, command, "--config", str(config_path))
    assert code == 1 and str(missing) in err
    target = config
    for name in path:
        target = target.setdefault(name, {})
    target[key] = _wrong_value(annotation)
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(config_path))
    assert code == 1 and out == ""
    dotted = ".".join((*path, key))
    assert err.startswith("error (") and f": {dotted} " in err and str(missing) not in err, err


@pytest.mark.parametrize(
    "command, key",
    [("select", "data"), ("select", "q"), ("expand-delta", "data"), ("expand-delta", "query"),
     ("run-loop", "data"), ("run-loop", "schedule")],
)
def test_a_missing_required_key_exits_1_naming_it(capsys, tmp_path, command, key):
    config = thirty_point_expand_config(deltas=[], q=2, schedule=[3])
    config["output"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, command, "--config", str(path))
    assert code == 0, err
    del config[key]
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.endswith(f"top-level config: missing keys ['{key}']\n"), err


@pytest.mark.parametrize("command", ["select", "expand-delta", "run-loop"])
def test_a_config_that_is_no_object_exits_1(capsys, tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.endswith("top-level config must be an object, got [1, 2]\n"), err


def test_run_loop_unknown_split_key_exits_1(capsys, tmp_path):
    config = select_config("random", [])
    config.update(schedule=[3], output=str(tmp_path / "out"), split={"test_fration": 0.5})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run-loop", "--config", str(path))
    assert code == 1 and out == ""
    assert err == "error (experiment-harness): split config: unknown keys ['test_fration']\n"


# Each row: dotted config keys and their values, then the key the error must name.
_BAD_VALUES = [
    ({"data.l2_normalize": "no"}, "data.l2_normalize"),
    ({"record_timing": "false"}, "record_timing"),
    ({"learner.epochs": True}, "learner.epochs"),
    ({"learner.epochs": 10.5}, "learner.epochs"),
    ({"learner.learning_rate": "0.1"}, "learner.learning_rate"),
    ({"learner.learning_rate": float("nan")}, "learner.learning_rate"),  # JSON NaN
    ({"dcom.delta0": float("inf")}, "dcom.delta0"),  # JSON Infinity
    ({"learner.kind": 1}, "learner.kind"),
    ({"data.mixture.num_classes": 3.0}, "data.mixture.num_classes"),
    ({"data.mixture.within_std": False}, "data.mixture.within_std"),
    ({"strategy.seed": 1.5}, "strategy.seed"),
    ({"dcom.delta_max": "1.0"}, "dcom.delta_max"),
    ({"dcom.delta0": "0.5"}, "dcom.delta0"),
    ({"dcom.delta0": None, "dcom.alpha": "0.9"}, "dcom.alpha"),
    ({"split.seed": 1.5}, "split.seed"),
    ({"split.test_fraction": 0}, "split.test_fraction"),
    ({"split.test_fraction": 0.01}, "split.test_fraction"),  # rounds to 0 of 20 per class
    ({"split.test_fraction": -0.5}, "split.test_fraction"),
    ({"split.test_fraction": 1}, "split.test_fraction"),
    ({"split.test_fraction": "0.25"}, "split.test_fraction"),
]


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        pytest.param(command, overrides, key, id=f"{command}-{list(overrides.values())[-1]!r}-{key}")
        for overrides, key in _BAD_VALUES
        for command in ("select", "run-loop")
        # Only run-loop reads split and record_timing.
        if command == "run-loop" or not key.startswith(("split.", "record_timing"))
    ],
)
def test_bad_config_values_exit_1_naming_the_key(capsys, tmp_path, command, overrides, key):
    config = select_config("dcom", [])
    config["data"]["mixture"]["points_per_class"] = 20
    config.update(schedule=[3], q=3, output=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, command, "--config", str(path))
    assert code == 0, err
    for dotted, value in overrides.items():
        *sections, last = dotted.split(".")
        target = config
        for name in sections:
            target = target.setdefault(name, {})
        target[last] = value
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert key in err and "Traceback" not in err, err


# NumPy's default_rng rejects a negative seed without naming it; check_config names the key.
@pytest.mark.parametrize(
    "command, dotted",
    [("run-loop", "split.seed"), ("select", "strategy.seed"), ("run-loop", "strategy.seed"),
     ("run-loop", "data.mixture.seed")],
)
def test_a_negative_seed_exits_1_naming_its_key(capsys, tmp_path, command, dotted):
    config = select_config("random", [])
    config.update(schedule=[3], output=str(tmp_path / "out"), split={"seed": 0})
    section, key = config, dotted.split(".")
    for name in key[:-1]:
        section = section[name]
    section[key[-1]] = -2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.endswith(f": {dotted} must be an integer >= 0, got -2\n"), err


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


@pytest.mark.parametrize("key", ["embeddings", "labels"])
def test_an_integer_data_path_exits_1_naming_it(capsys, tmp_path, files, key):
    # open() would read an integer as a file descriptor, 0 being stdin.
    config = {"data": {**files, key: 0}, "strategy": {"kind": "coreset"}, "q": 3}
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    assert f"data.{key} must be a string, got 0" in err


@pytest.mark.parametrize("key", ["embeddings", "labels"])
def test_a_mixture_beside_data_files_exits_1_naming_both(capsys, tmp_path, files, key):
    mixture = {"num_classes": 2, "points_per_class": 5, "dim": 6,
               "class_separation": 6.0, "within_std": 1.0}
    config = {"data": {key: files[key], "mixture": mixture}, "strategy": {"kind": "coreset"},
              "q": 3}
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    assert f"data.mixture and data.{key} are two data sources" in err


@pytest.mark.parametrize("key", ["embeddings", "labels"])
@pytest.mark.parametrize("bad", ["", "1,2"], ids=["blank", "ragged"])
def test_a_blank_or_ragged_csv_row_exits_1_naming_its_line(capsys, tmp_path, key, bad):
    s = gen_gaussian_mixture(MixtureSpec(3, 30, 6, 6.0, 1.0, seed=5))
    paths = {"embeddings": tmp_path / "points.csv", "labels": tmp_path / "labels.csv"}
    write_embedding_file(s, paths["embeddings"])
    write_label_file(s.labels, paths["labels"])
    config = {"data": {k: str(p) for k, p in paths.items()}, "strategy": {"kind": "coreset"},
              "q": 3}
    code, _, err = run_select(capsys, tmp_path, config)
    assert code == 0, err
    # Line 6 of the file: the header, then four records, then the bad one.
    lines = paths[key].read_text().splitlines()
    lines.insert(5, bad)
    paths[key].write_text("\n".join(lines) + "\n")
    code, out, err = run_select(capsys, tmp_path, config)
    assert code == 1 and out == ""
    fields = len(bad.split(",")) if bad else 0
    header = 6 if key == "embeddings" else 1
    assert err.startswith("error (query-selection):")
    assert f"line 6 has {fields} fields, the header {header}" in err

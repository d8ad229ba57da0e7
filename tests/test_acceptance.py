"""Acceptance gate: every release-blocking behavior, one test per criterion.

Each test prints a single PASS/FAIL line so the gate can be read off the
pytest -v output directly. Tolerances and time limits are pinned here and
must not be loosened without a recorded decision.
"""

import time

import numpy as np
import pytest

from dcom.baselines import select_probcover
from dcom.data import EmbeddingSet, MixtureSpec, gen_gaussian_mixture, l2_normalize
from dcom.engine import (
    DComConfig,
    PoolState,
    competence_score,
    dcom_select,
    delta_grid,
    expand_delta,
    largest_passing_index,
)
from dcom.graph import covered_set
from dcom.harness import run_al_loop, summarize, write_report
from dcom.learners import _probe_grad
from dcom.purity import estimate_purity_curve, select_initial_delta

from oracles import is_pure_ball, nnn_classify, probe_loss_and_grad


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_01_competence_monotone_in_nested_pools():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        s = gen_gaussian_mixture(MixtureSpec(5, 100, 8, 5.0, 1.0, seed=int(rng.integers(1e6))))
        size_small = int(rng.integers(1, 30))
        size_big = size_small + int(rng.integers(1, 30))
        order = rng.permutation(s.count)
        small, big = order[:size_small], order[:size_big]
        deltas_big = rng.uniform(0.1, 1.5, size=size_big)
        cov_small = covered_set(s, small, deltas_big[:size_small]).mean()
        cov_big = covered_set(s, big, deltas_big).mean()
        a, k = 0.9, 30.0
        ok &= competence_score(cov_small, a, k) <= competence_score(cov_big, a, k)
    elapsed = time.perf_counter() - started
    _verdict(
        f"competence never decreases when the labeled pool grows "
        f"(100/100 nested pools, {elapsed:.1f}s < 10s)",
        ok and elapsed < 10.0,
    )


def test_criterion_02_competence_reference_values():
    ok = (
        competence_score(1.0, 0.9, 30.0) == 1.0
        and abs(competence_score(0.9, 0.9, 30.0) - 0.52489) <= 1e-5
        and competence_score(0.0, 0.8, 30.0) <= 1e-9
    )
    _verdict(
        "competence hits its reference values (1.0 exact, 0.52489 +- 1e-5, <= 1e-9)",
        ok,
    )


def test_criterion_03_coverage_equals_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(50):
        n = int(rng.integers(50, 501))
        s = EmbeddingSet(rng.normal(size=(n, 6)))
        m = int(rng.integers(1, 21))
        labeled = rng.choice(n, size=m, replace=False)
        deltas = rng.uniform(0.2, 2.0, size=m)
        covered = covered_set(s, labeled, deltas)
        pts = s.vectors.astype(np.float64)
        brute = np.zeros(n, dtype=bool)
        brute[labeled] = True
        for x in range(n):
            for i, d in zip(labeled, deltas):
                if ((pts[x] - pts[i]) ** 2).sum() <= d * d:
                    brute[x] = True
                    break
        ok &= np.array_equal(covered, brute)
        ok &= covered.mean() == brute.sum() / n
    elapsed = time.perf_counter() - started
    _verdict(
        f"coverage matches the O(n^2) scan exactly (50/50 instances, {elapsed:.1f}s < 30s)",
        ok and elapsed < 30.0,
    )


def _greedy_oracle(s, labeled, unlabeled, deltas, margins, q, config):
    """Every pick recomputed from scratch with a dense distance matrix."""
    pts = s.vectors.astype(np.float64)
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    covered = covered_set(s, labeled, deltas)
    if len(labeled):
        competence = competence_score(
            covered.mean(), config.logistic_a, config.logistic_k
        )
        delta_avg = float(np.mean(deltas))
    else:
        competence = 0.0
        delta_avg = config.delta0
    within = sq <= delta_avg * delta_avg

    margin_map = np.ones(s.count)
    margin_map[unlabeled] = margins
    blocked = covered.copy()
    blocked[np.asarray(labeled, dtype=np.int64)] = True
    unl = np.asarray(unlabeled, dtype=np.int64)
    picked = np.zeros(s.count, dtype=bool)
    labeled_mask = np.zeros(s.count, dtype=bool)
    labeled_mask[np.asarray(labeled, dtype=np.int64)] = True

    selected = []
    for _ in range(q):
        degrees = np.zeros(unl.size)
        for pos, u in enumerate(unl):
            if picked[u] or labeled_mask[u]:
                continue
            degrees[pos] = (within[u] & ~blocked & (np.arange(s.count) != u)).sum()
        top = degrees.max()
        odr = degrees / top if top > 0 else degrees
        scores = competence * (1.0 - margin_map[unl]) + (1.0 - competence) * odr
        scores[picked[unl]] = -np.inf
        pick = int(unl[int(np.argmax(scores))])
        selected.append(pick)
        picked[pick] = True
        blocked |= within[pick]
        blocked[pick] = True
        margin_map[pick] = 1.0
    return selected


def test_criterion_04_greedy_picks_match_stepwise_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    config = DComConfig(delta0=0.7)
    ok = True
    for _ in range(20):
        n = int(rng.integers(80, 301))
        s = EmbeddingSet(rng.normal(size=(n, 3)))
        m = int(rng.integers(0, 11))
        labeled = sorted(rng.choice(n, size=m, replace=False).tolist())
        unlabeled = [i for i in range(n) if i not in labeled]
        deltas = rng.uniform(0.2, 1.2, size=m).tolist()
        q = int(rng.integers(1, 21))
        margins = rng.random(len(unlabeled))
        got = dcom_select(
            s, PoolState(list(labeled), list(unlabeled), list(deltas)), margins, q, config
        ).selected
        want = _greedy_oracle(s, labeled, unlabeled, deltas, margins, q, config)
        ok &= got == want
    elapsed = time.perf_counter() - started
    _verdict(
        f"every greedy pick attains the step-wise score maximum "
        f"(20/20 instances, {elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_05_reduces_to_coverage_only_selection_when_unlabeled():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(50):
        n = int(rng.integers(30, 120))
        s = EmbeddingSet(rng.normal(size=(n, 2)))
        delta0 = float(rng.uniform(0.3, 1.2))
        q = int(rng.integers(1, min(12, n)))
        a = select_probcover(s, PoolState([], list(range(n)), []), delta0, q)
        b = dcom_select(
            s, PoolState([], list(range(n)), []), np.ones(n), q, DComConfig(delta0=delta0)
        ).selected
        ok &= a == b
    _verdict(
        "with an empty labeled pool the selector equals coverage-only greedy "
        "(50/50 instances, exact)",
        ok,
    )


def test_criterion_06_radius_search_equals_linear_scan_on_monotone_profiles():
    rng = np.random.default_rng(606)
    grid = delta_grid(0.05, 2.0)
    ok = True
    for _ in range(200):
        purity = np.sort(rng.uniform(size=grid.size))[::-1]
        tau = float(rng.uniform(0.0, 1.0))
        idx = largest_passing_index((purity > tau)[None, :])[0]
        binary = grid[idx] if idx >= 0 else grid[0]
        passing = [d for d, p in zip(grid, purity) if p > tau]
        linear = passing[-1] if passing else grid[0]
        ok &= binary == linear
    _verdict(
        "binary-search radius equals the linear-scan radius "
        "(200/200 monotone purity profiles at resolution 0.05)",
        ok,
    )


def test_criterion_07_error_bounded_by_uncovered_mass_with_pure_balls():
    rng = np.random.default_rng(707)
    ok = True
    for trial in range(50):
        s = l2_normalize(
            gen_gaussian_mixture(
                MixtureSpec(4, 30, 8, 8.0, 0.5, seed=int(rng.integers(1e6)))
            )
        )
        m = int(rng.integers(4, 20))
        labeled_idx = rng.choice(s.count, size=m, replace=False).tolist()
        unlabeled_idx = [i for i in range(s.count) if i not in set(labeled_idx)]
        pool = PoolState(labeled_idx, unlabeled_idx, [])
        # Expansion with true labels standing in for predictions and a
        # threshold only a fully pure ball can clear.
        config = DComConfig(delta0=0.5, delta_max=1.0, tau_slope=0.0, tau_intercept=0.999)
        predicted = s.labels[unlabeled_idx]
        radii = expand_delta(s, pool, labeled_idx, predicted, 0.0, config)
        pool = PoolState(labeled_idx, unlabeled_idx, radii)
        ok &= all(
            is_pure_ball(s, s.labels, c, d) for c, d in zip(labeled_idx, pool.deltas)
        )
        coverage = covered_set(s, labeled_idx, pool.deltas).mean()
        predictions = [nnn_classify(s, labeled_idx, pool.deltas, x) for x in range(s.count)]
        error = float(np.mean(np.asarray(predictions) != s.labels))
        ok &= error <= 1.0 - coverage + 1e-12
    _verdict(
        "with verified-pure balls the nearest-ball error never exceeds the "
        "uncovered mass (50/50 planted mixtures)",
        ok,
    )


def test_criterion_08_initial_radius_matches_oracle_scan():
    grid = np.round(np.arange(1, 41) * 0.05, 10)
    ok = True
    for seed in range(20):
        s = l2_normalize(gen_gaussian_mixture(MixtureSpec(3, 40, 8, 10.0, 1.0, seed=seed)))
        labels = s.labels
        curve = estimate_purity_curve(s, labels, grid)
        got = select_initial_delta(curve, 0.95)
        brute = [
            np.mean([is_pure_ball(s, labels, c, d) for c in range(s.count)])
            for d in grid
        ]
        passing = [d for d, p in zip(grid, brute) if p >= 0.95]
        ok &= bool(passing) and got == passing[-1]
    _verdict(
        "the initial radius equals the oracle purity scan (20/20 seeds, exact)",
        ok,
    )


def test_criterion_09_synthetic_benchmark_beats_random_and_spans_margin():
    started = time.perf_counter()

    def config(strategy):
        c = {
            "data": {
                "mixture": {
                    "num_classes": 8,
                    "points_per_class": 200,
                    "dim": 16,
                    "class_separation": 6.0,
                    "within_std": 1.25,
                    "seed": 42,
                }
            },
            "split": {"test_fraction": 0.25, "seed": 0},
            "schedule": [8, 8, 16, 32, 64, 128, 256],
            "strategy": {"kind": strategy, "seed": 0},
            "learner": {"epochs": 300},
            "repetitions": 10,
        }
        if strategy == "dcom":
            c["dcom"] = {"delta0": 0.6, "delta_max": 0.6}
        return c

    means = {
        s: summarize(run_al_loop(config(s)))[s] for s in ("dcom", "random", "margin")
    }
    budgets = [8, 16, 32, 64, 128, 256, 512]
    ok = True
    for b in budgets:
        d = means["dcom"][str(b)]["mean_accuracy"]
        r = means["random"][str(b)]["mean_accuracy"]
        m = means["margin"][str(b)]["mean_accuracy"]
        ok &= d >= r
        if b <= 32:
            ok &= d > r and d >= m
    final = str(budgets[-1])
    ok &= (
        means["dcom"][final]["mean_accuracy"]
        >= means["margin"][final]["mean_accuracy"] - 0.01
    )
    elapsed = time.perf_counter() - started
    _verdict(
        "8-class benchmark: mean accuracy >= random at every budget, strictly "
        "above at <= 32, >= margin at <= 32 and within 1 point of margin at "
        f"the final budget over 10 seeds ({elapsed:.0f}s < 300s)",
        ok and elapsed < 300.0,
    )


def test_criterion_10_reports_are_byte_identical_across_runs(tmp_path):
    def config():
        return {
            "data": {
                "mixture": {
                    "num_classes": 4,
                    "points_per_class": 50,
                    "dim": 8,
                    "class_separation": 6.0,
                    "within_std": 1.0,
                    "seed": 7,
                }
            },
            "split": {"test_fraction": 0.25, "seed": 3},
            "schedule": [4, 8, 12],
            "strategy": {"kind": "dcom", "seed": 0},
            "dcom": {"delta0": 0.5},
            "learner": {"epochs": 80},
            "repetitions": 3,
        }

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(run_al_loop(config()), a)
    write_report(run_al_loop(config()), b)
    ok = (
        a.read_bytes() == b.read_bytes()
        and a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
    )
    _verdict("repeated runs of one config produce byte-identical reports", ok)


def test_criterion_11_selects_1000_of_100k_points_within_ten_minutes():
    started = time.perf_counter()
    s = l2_normalize(
        gen_gaussian_mixture(MixtureSpec(10, 10000, 64, 6.0, 1.0, seed=0))
    )
    pool = PoolState([], list(range(s.count)), [])
    result = dcom_select(s, pool, np.ones(s.count), 1000, DComConfig(delta0=0.9))
    elapsed = time.perf_counter() - started
    ok = len(set(result.selected)) == 1000 and elapsed <= 600.0
    _verdict(
        f"selected 1000 of 100000 points at dim 64 including the graph build "
        f"in {elapsed:.0f}s <= 600s",
        ok,
    )


def test_criterion_12_probe_gradient_matches_central_differences():
    rng = np.random.default_rng(1212)
    m, d, c = 15, 5, 3
    features = np.hstack((rng.normal(size=(m, d)), np.ones((m, 1))))
    onehot = np.zeros((m, c))
    onehot[np.arange(m), rng.integers(0, c, size=m)] = 1.0
    weights = rng.normal(scale=0.5, size=(d + 1, c))
    grad = _probe_grad(features, onehot, 1e-4)(weights)
    h = 1e-5
    numeric = np.zeros_like(weights)
    for i in range(d + 1):
        for j in range(c):
            wp, wm = weights.copy(), weights.copy()
            wp[i, j] += h
            wm[i, j] -= h
            lp, _ = probe_loss_and_grad(wp, features, onehot, 1e-4)
            lm, _ = probe_loss_and_grad(wm, features, onehot, 1e-4)
            numeric[i, j] = (lp - lm) / (2 * h)
    rel = float(np.abs(grad - numeric).max() / np.abs(numeric).max())
    _verdict(
        f"analytic probe gradient matches central differences (rel err {rel:.2e} <= 1e-4)",
        rel <= 1e-4,
    )

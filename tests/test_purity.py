import itertools

import numpy as np
import pytest

from dcom import data
from dcom.data import EmbeddingSet, MixtureSpec, gen_gaussian_mixture, l2_normalize
from dcom.errors import DimensionMismatch, NoDeltaMeetsAlpha
from dcom.purity import (
    _BLOCK_ROWS,
    PurityCurve,
    estimate_purity_curve,
    kmeans_cluster,
    min_impure_distance,
    select_initial_delta,
)

import oracles
from oracles import is_pure_ball


def one_d(*values):
    return EmbeddingSet(np.array(values, dtype=np.float64)[:, None])


def brute_force_two_partition(points):
    """Best 2-partition by within-cluster SSE, by full enumeration."""
    n = len(points)
    best, best_sse = None, np.inf
    for bits in itertools.product([0, 1], repeat=n):
        if len(set(bits)) < 2:
            continue
        sse = 0.0
        for c in (0, 1):
            members = np.array([p for p, b in zip(points, bits) if b == c])
            sse += ((members - members.mean()) ** 2).sum()
        if sse < best_sse:
            best_sse, best = sse, bits
    return best


def test_kmeans_recovers_optimal_two_partition():
    points = [0.0, 0.1, 10.0, 10.1]
    labels = kmeans_cluster(one_d(*points), k=2, seed=0)
    oracle = brute_force_two_partition(points)
    same = all((labels[i] == labels[j]) == (oracle[i] == oracle[j])
               for i in range(4) for j in range(4))
    assert same


def test_kmeans_k1_and_kn():
    s = one_d(0.0, 1.0, 2.0)
    assert list(kmeans_cluster(s, 1, seed=0)) == [0, 0, 0]
    labels = kmeans_cluster(s, 3, seed=4)
    assert sorted(labels) == [0, 1, 2]


def test_kmeans_deterministic_and_nonempty():
    s = gen_gaussian_mixture(MixtureSpec(4, 20, 5, 8.0, 1.0, seed=2))
    a = kmeans_cluster(s, 4, seed=13)
    b = kmeans_cluster(s, 4, seed=13)
    assert np.array_equal(a, b)
    assert all((a == c).any() for c in range(4))


def test_kmeans_errors():
    s = one_d(0.0, 1.0)
    with pytest.raises(ValueError):
        kmeans_cluster(s, 0)
    with pytest.raises(ValueError):
        kmeans_cluster(s, 3)


def test_kmeans_recovers_planted_partition():
    s = gen_gaussian_mixture(MixtureSpec(2, 30, 6, 100.0, 1.0, seed=5))
    labels = kmeans_cluster(s, 2, seed=9)
    # Same partition as the planted labels, up to label permutation.
    first_cluster = labels == labels[0]
    first_class = s.labels == s.labels[0]
    assert np.array_equal(first_cluster, first_class)


def test_is_pure_ball_examples():
    s = one_d(0.0, 0.2, 0.5)
    labels = [0, 0, 1]
    assert is_pure_ball(s, labels, center=0, delta=0.3)
    assert not is_pure_ball(s, labels, center=0, delta=0.6)
    assert is_pure_ball(s, labels, center=2, delta=0.2)  # singleton ball


def test_purity_curve_examples():
    s = one_d(0.0, 0.2, 0.5)
    labels = [0, 0, 1]
    curve = estimate_purity_curve(s, labels, [0.25, 0.35])
    assert curve.purity[0] == 1.0
    assert curve.purity[1] == pytest.approx(1 / 3)


def test_purity_below_min_pairwise_distance_is_one():
    s = one_d(0.0, 0.3, 0.9)
    curve = estimate_purity_curve(s, [0, 1, 2], [0.29])
    assert curve.purity[0] == 1.0


def test_purity_curve_matches_brute_force_and_monotone():
    s = gen_gaussian_mixture(MixtureSpec(3, 15, 3, 4.0, 1.0, seed=8))
    grid = np.linspace(0.2, 6.0, 25)
    curve = estimate_purity_curve(s, s.labels, grid)
    brute = [
        np.mean([is_pure_ball(s, s.labels, c, d) for c in range(s.count)])
        for d in grid
    ]
    assert np.array_equal(curve.purity, brute)
    assert (np.diff(curve.purity) <= 0).all()


def test_purity_sample_restriction():
    s = gen_gaussian_mixture(MixtureSpec(2, 10, 3, 6.0, 1.0, seed=3))
    sample = [0, 3, 7, 10, 14, 19]
    curve = estimate_purity_curve(s, s.labels, [0.5, 1.0], sample=sample)
    assert len(curve.purity) == 2


def _gaussian(n, d, seed, classes=3):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(rng.standard_normal((n, d))), rng.integers(0, classes, n)


def _mixture(seed):
    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(4, 30, 16, 6.0, 1.0, seed=seed)))
    return s, s.labels


def _lattice(seed):
    # Integer coordinates: many exactly tied distances, within and across labels.
    grid = np.array(list(itertools.product(range(4), repeat=3)), dtype=np.float64)
    rng = np.random.default_rng(seed)
    return EmbeddingSet(grid), rng.integers(0, 3, len(grid))


def _offset(seed):
    s, labels = _gaussian(90, 5, seed)
    return EmbeddingSet(s.vectors.astype(np.float64) + 1e4), labels


def _scaled(scale):
    def make(seed):
        s, labels = _gaussian(70, 4, seed)
        return EmbeddingSet(s.vectors.astype(np.float64) * scale), labels

    return make


def _single_class(seed):
    s, _ = _gaussian(50, 4, seed)
    return s, np.zeros(50, dtype=np.int64)


def _lone_point(seed):
    s, _ = _gaussian(60, 4, seed)
    labels = np.zeros(60, dtype=np.int64)
    labels[seed % 60] = 1
    return s, labels


def _duplicates(seed):
    s, labels = _gaussian(40, 4, seed)
    points = np.concatenate([s.vectors, s.vectors[:10]])
    return EmbeddingSet(points), np.concatenate([labels, (labels[:10] + 1) % 3])


_CASES = {
    "gaussian": lambda seed: _gaussian(150, 8, seed),
    "mixture": _mixture,
    "lattice": _lattice,
    "offset_1e4": _offset,
    # Beyond float32's range for |x|^2, and deep in its underflow.
    "huge": _scaled(1e20),
    "tiny": _scaled(1e-30),
    "single_class": _single_class,
    "lone_point": _lone_point,
    "duplicates": _duplicates,
    "n1": lambda seed: _gaussian(1, 3, seed),
    "n_below_block": lambda seed: _gaussian(7, 3, seed),
    "n_block": lambda seed: _gaussian(32, 3, seed),
    "n_not_block_multiple": lambda seed: _gaussian(97, 3, seed),
    # Several Gram blocks and a partial last one, at a width the GEMM tiles.
    "d64_partial_block": lambda seed: _gaussian(3 * _BLOCK_ROWS + 5, 64, seed),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_min_impure_distance_matches_loop_oracle(case):
    for seed in range(3):
        s, labels = _CASES[case](seed)
        n = s.count
        rng = np.random.default_rng(100 + seed)
        center_sets = [
            None,
            rng.permutation(n),
            rng.integers(0, n, 2 * n + 5),
            np.sort(rng.choice(n, (n + 1) // 2, replace=False)),
        ]
        for centers in center_sets:
            got = min_impure_distance(s, labels, centers)
            assert np.array_equal(got, oracles.min_impure_distance(s, labels, centers))
    if case == "single_class":
        assert np.isinf(got).all()
    if case == "duplicates":
        assert (min_impure_distance(s, labels)[:10] == 0.0).all()


def test_refine_skips_rows_without_other_labels(monkeypatch):
    pairs, exact = [], data._sq_dists

    def counting(points, center):
        pairs.append(len(points))
        return exact(points, center)

    monkeypatch.setattr(data, "_sq_dists", counting)
    s, _ = _gaussian(100, 4, 0)
    assert np.isinf(min_impure_distance(s, np.zeros(100, dtype=np.int64))).all()
    assert sum(pairs) == 0
    # Separated data: the refine confirms a few columns per row, not all of them.
    mixture = l2_normalize(gen_gaussian_mixture(MixtureSpec(4, 50, 16, 6.0, 1.0, seed=1)))
    min_impure_distance(mixture, mixture.labels)
    assert sum(pairs) < 4 * mixture.count


@pytest.mark.parametrize("count", [3, 40])
def test_label_length_mismatch_is_named(count):
    s, _ = _gaussian(20, 3, 0)
    labels = np.zeros(count, dtype=np.int64)
    for call in (
        lambda: min_impure_distance(s, labels),
        lambda: estimate_purity_curve(s, labels, [0.5]),
    ):
        with pytest.raises(DimensionMismatch, match=rf"\b{count}\b.*\b20\b"):
            call()


def test_empty_grid_rejected():
    s = one_d(0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_purity_curve(s, [0, 1], [])


def test_select_initial_delta_scan():
    curve = PurityCurve([0.1, 0.2, 0.3], [1.0, 0.97, 0.90])
    assert select_initial_delta(curve, 0.95) == 0.2


def test_select_initial_delta_boundaries():
    high = PurityCurve([0.1, 0.2, 0.3], [1.0, 0.99, 0.98])
    assert select_initial_delta(high, 0.95) == 0.3
    low = PurityCurve([0.1, 0.2], [0.5, 0.4])
    with pytest.raises(NoDeltaMeetsAlpha):
        select_initial_delta(low, 0.95)


def test_select_matches_linear_scan_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        grid = np.cumsum(rng.uniform(0.05, 0.2, size=10))
        purity = np.sort(rng.uniform(size=10))[::-1]
        curve = PurityCurve(grid, purity)
        alpha = rng.uniform(0.2, 0.99)
        passing = [d for d, p in zip(grid, purity) if p >= alpha]
        if passing:
            assert select_initial_delta(curve, alpha) == passing[-1]
        else:
            with pytest.raises(NoDeltaMeetsAlpha):
                select_initial_delta(curve, alpha)


def test_delta0_exceeds_within_class_spread():
    hits = 0
    for seed in range(20):
        s = l2_normalize(
            gen_gaussian_mixture(MixtureSpec(3, 40, 8, 10.0, 1.0, seed=seed))
        )
        labels = kmeans_cluster(s, 3, seed=seed)
        grid = np.round(np.arange(1, 41) * 0.05, 10)
        delta0 = select_initial_delta(estimate_purity_curve(s, labels, grid), 0.95)
        # within-class spread: median distance to the nearest same-class point
        pts = s.vectors.astype(np.float64)
        nn = []
        for i in range(s.count):
            mask = (s.labels == s.labels[i])
            mask[i] = False
            d = np.sqrt(((pts[mask] - pts[i]) ** 2).sum(axis=1)).min()
            nn.append(d)
        if delta0 > np.median(nn):
            hits += 1
    assert hits >= 19


def test_curve_validation():
    with pytest.raises(ValueError):
        PurityCurve([0.2, 0.1], [1.0, 1.0])
    with pytest.raises(ValueError):
        PurityCurve([0.1, 0.2], [0.5, 0.9])

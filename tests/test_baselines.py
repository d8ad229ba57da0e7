import numpy as np
import pytest

from dcom.baselines import (
    select_by_uncertainty,
    select_coreset,
    select_probcover,
    select_random,
)
from dcom.data import EmbeddingSet, MixtureSpec, gen_gaussian_mixture, l2_normalize
from dcom.engine import DComConfig, PoolState, dcom_select
from dcom.errors import PoolInvariantError

import oracles
from test_purity import _KMEANS_CASES, _exact_calls


def one_d(*values):
    return EmbeddingSet(np.array(values, dtype=np.float64)[:, None])


def test_random_is_seeded_and_disjoint():
    pool = PoolState([0, 1], list(range(2, 30)), [0.5, 0.5])
    a = select_random(pool, 10, seed=7)
    b = select_random(pool, 10, seed=7)
    c = select_random(pool, 10, seed=8)
    assert a == b and a != c
    assert len(set(a)) == 10 and set(a) <= set(pool.unlabeled)


def test_budget_overflow_rejected():
    pool = PoolState([], [0, 1], [])
    with pytest.raises(PoolInvariantError):
        select_random(pool, 3, seed=0)
    with pytest.raises(PoolInvariantError):
        select_coreset(one_d(0.0, 1.0), pool, 3)


# q=True used to pick one point (random raised a bare TypeError), and q=2.5
# to fail in range() or in slicing.
@pytest.mark.parametrize("q", [0, -1, True, 2.5])
def test_nonpositive_budget_rejected(q):
    s = one_d(0.0, 1.0, 2.0)
    pool = PoolState([], [0, 1, 2], [])
    probs = np.array([[0.6, 0.4]] * 3)
    with pytest.raises(PoolInvariantError, match="^q"):
        select_random(pool, q, seed=0)
    with pytest.raises(PoolInvariantError, match="^q"):
        select_by_uncertainty(pool, probs, "margin", q)
    with pytest.raises(PoolInvariantError, match="^q"):
        select_coreset(s, pool, q)
    with pytest.raises(PoolInvariantError, match="^q"):
        select_probcover(s, pool, 0.5, q)


def test_a_numpy_integer_budget_is_accepted():
    s = one_d(0.0, 1.0, 2.0)
    pool = PoolState([], [0, 1, 2], [])
    probs = np.array([[0.6, 0.4]] * 3)
    q = np.int64(3)
    assert sorted(select_random(pool, q, seed=0)) == [0, 1, 2]
    assert select_by_uncertainty(pool, probs, "margin", q) == [0, 1, 2]
    assert select_coreset(s, pool, q) == [0, 2, 1]  # farthest first
    assert sorted(select_probcover(s, pool, 0.5, q)) == [0, 1, 2]


SELECTORS = {
    "random": lambda s, pool: select_random(pool, 3, seed=0),
    "uncertainty": lambda s, pool: select_by_uncertainty(
        pool, np.full((len(pool.unlabeled), 2), 0.5), "margin", 3),
    "coreset": lambda s, pool: select_coreset(s, pool, 3),
    "probcover": lambda s, pool: select_probcover(s, pool, 0.5, 3),
}


# Each selector used to pick a repeated index again, and -1 as the last point;
# random and uncertainty read 1.7 as point 1 and True as point 1, and picked
# the labeled point 0 again. Coreset and probcover, which hold the points, also
# name an index past them.
BROKEN_POOLS = {
    "repeated": ([1, 1, 1, 2], PoolInvariantError,
                 "pool.unlabeled must not repeat an index: 1 appears more than once"),
    "negative": ([1, 2, -1], PoolInvariantError, r"pool.unlabeled\[2\] is -1, a negative index"),
    "fraction": ([0.5, 1.7, 2.2], PoolInvariantError,
                 r"^pool.unlabeled must hold integer indices, got dtype float64$"),
    "bool": ([True, 2, 3], PoolInvariantError,
             r"^pool.unlabeled must hold integer indices, got a bool$"),
    "past-n": ([1, 2, 4], PoolInvariantError, r"pool.unlabeled\[2\] is 4, outside \[0, 4\)"),
    "overlap": ([0, 1, 2, 3], PoolInvariantError,
                "pool.labeled and pool.unlabeled must be disjoint: 0 appears more than once"),
}


@pytest.mark.parametrize("kind, broken", [
    (kind, broken) for kind in SELECTORS for broken in BROKEN_POOLS
    if broken != "past-n" or kind in ("coreset", "probcover")
])
def test_selectors_reject_a_broken_pool(kind, broken):
    unlabeled, error, message = BROKEN_POOLS[broken]
    with pytest.raises(error, match=message):
        SELECTORS[kind](one_d(0.0, 1.0, 2.0, 3.0), PoolState([0], unlabeled, []))


def test_uncertainty_margin_order():
    pool = PoolState([3], [0, 1, 2], [0.5])
    probs = np.array([[0.9, 0.1], [0.55, 0.45], [0.7, 0.3]])
    assert select_by_uncertainty(pool, probs, "margin", 2) == [1, 2]
    assert select_by_uncertainty(pool, probs, "entropy", 1) == [1]
    assert select_by_uncertainty(pool, probs, "maxprob", 3) == [1, 2, 0]


def test_uncertainty_tie_breaks_to_lowest_index():
    pool = PoolState([], [4, 7, 9], [])
    probs = np.array([[0.6, 0.4]] * 3)
    assert select_by_uncertainty(pool, probs, "margin", 2) == [4, 7]


def test_uncertainty_row_mismatch():
    pool = PoolState([], [0, 1], [])
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(PoolInvariantError):
        select_by_uncertainty(pool, probs, "margin", 1)


def test_coreset_farthest_first():
    s = one_d(0.0, 1.0, 10.0, 11.0)
    pool = PoolState([0], [1, 2, 3], [0.5])
    # Farthest from point 0 is 11.0 (index 3). Then points 1 and 2 both lie
    # 1.0 from the set {0, 3}, and the tie goes to the lower index.
    assert select_coreset(s, pool, 2) == [3, 1]


def test_coreset_matches_greedy_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = EmbeddingSet(rng.normal(size=(30, 3)))
        labeled = sorted(rng.choice(30, size=4, replace=False).tolist())
        unlabeled = [i for i in range(30) if i not in labeled]
        pool = PoolState(labeled, unlabeled, [0.5] * 4)
        assert select_coreset(s, pool, 5) == oracles.coreset(s, labeled, unlabeled, 5)


def _coreset_pool(rng, n, shape):
    """(labeled, unlabeled) in shuffled order: nothing labeled, a subset of the points, or all of them."""
    order = rng.permutation(n).tolist()
    if shape == "cold":
        return [], order
    cut = int(rng.integers(1, n))
    if shape == "subset":
        return order[:cut // 2], order[cut:]
    return order[:cut], order[cut:]


# k-means' corpora, where keys tie or sit within their bound of a tie:
# copies, points 1e7 from the origin, exact ties past 2^53, and the Gram
# families k-means runs.
@pytest.mark.parametrize("case", ["duplicates", "far_from_origin", "mirrored_far",
                                  "lattice", "scale_1e20", "d4096"])
def test_coreset_matches_the_oracle_on_the_kmeans_corpora(monkeypatch, case):
    calls = _exact_calls(monkeypatch)
    rng = np.random.default_rng(sum(map(ord, case)))
    for trial in range(9):
        s, _ = _KMEANS_CASES[case](rng)
        labeled, unlabeled = _coreset_pool(rng, s.count, ("cold", "subset", "split")[trial % 3])
        # The first trial of each pool shape takes the whole unlabeled pool.
        q = len(unlabeled) if trial < 3 else int(rng.integers(1, len(unlabeled) + 1))
        pool = PoolState(labeled, unlabeled, [0.5] * len(labeled))
        assert select_coreset(s, pool, q) == oracles.coreset(s, labeled, unlabeled, q)
    if case in ("duplicates", "far_from_origin", "mirrored_far", "lattice"):
        assert calls, "no pick reached the exact refine"


def test_coreset_makes_no_exact_pass_over_the_pool_per_pick(monkeypatch):
    calls = _exact_calls(monkeypatch)
    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(10, 60, 64, 6.0, 1.0, seed=0)))
    labeled = list(range(0, s.count, 50))
    unlabeled = [i for i in range(s.count) if i not in labeled]
    picks = select_coreset(s, PoolState(labeled, unlabeled, [0.5] * len(labeled)), 40)
    # The keys decide: an exact call refines near-ties only, never the pool.
    assert [rows for rows, _ in calls if rows >= len(unlabeled)] == []
    assert picks == oracles.coreset(s, labeled, unlabeled, 40)


def test_coreset_empty_labeled_starts_lowest_index():
    s = one_d(5.0, 0.0, 9.0)
    pool = PoolState([], [0, 1, 2], [])
    picks = select_coreset(s, pool, 2)
    assert picks[0] == 0
    assert picks[1] == 1  # 0.0 is farther from 5.0 than 9.0 is


@pytest.mark.parametrize("labeled", [[], [4]])
@pytest.mark.parametrize("kind", ["dcom", "probcover", "coreset"])
def test_a_reversed_pool_gives_the_sorted_pools_picks(kind, labeled):
    # Far-apart points: every degree is 0 and, with nothing labeled, every
    # k-center distance is inf, so picks are ties that the lowest index wins.
    s = one_d(0.0, 10.0, 20.0, 30.0, 40.0)
    margins = {0: 0.2, 1: 0.2, 2: 0.5, 3: 0.5, 4: 0.5}  # dcom's scores tie in pairs

    def picks(unlabeled):
        pool = PoolState(labeled, unlabeled, [0.5] * len(labeled))
        if kind == "dcom":
            gaps = [margins[i] for i in unlabeled]
            return dcom_select(s, pool, gaps, 4, DComConfig(delta0=0.5)).selected
        if kind == "probcover":
            return select_probcover(s, pool, 0.5, 4)
        return select_coreset(s, pool, 4)

    in_order = [i for i in range(5) if i not in labeled]
    expected = picks(in_order)
    assert expected[0] == 0
    assert picks(in_order[::-1]) == expected


def test_probcover_greedy_degree():
    s = one_d(0.0, 0.4, 0.8, 5.0)
    pool = PoolState([], [0, 1, 2, 3], [])
    assert select_probcover(s, pool, 0.5, 2) == [1, 0]


def test_probcover_skips_covered_mass():
    s = one_d(0.0, 0.4, 0.8, 5.0, 5.4)
    pool = PoolState([4], [0, 1, 2, 3], [0.5])
    picks = select_probcover(s, pool, 0.5, 1)
    # Point 3 is covered by labeled point 4, so the dense middle wins.
    assert picks == [1]


def test_probcover_equals_dcom_on_empty_pool():
    rng = np.random.default_rng(9)
    for trial in range(15):
        s = EmbeddingSet(rng.normal(size=(45, 2)))
        pool = lambda: PoolState([], list(range(45)), [])
        delta0 = float(rng.uniform(0.3, 1.0))
        q = int(rng.integers(1, 10))
        a = select_probcover(s, pool(), delta0, q)
        b = dcom_select(s, pool(), np.ones(45), q, DComConfig(delta0=delta0)).selected
        assert a == b

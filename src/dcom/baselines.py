"""Classical query-selection strategies: random, uncertainty, k-center, max-coverage."""

from __future__ import annotations

import numpy as np

from .engine import _check_budget, _greedy_select
from .errors import PoolInvariantError
from .graph import covered_set
from .learners import uncertainty_scores
from .purity import _farthest_first

STRATEGY_KINDS = ("random", "margin", "entropy", "maxprob", "coreset", "probcover", "dcom")

# The kinds whose picks read the run seed: random always, the uncertainty
# kinds until two classes are labeled. The rest are deterministic given the
# pool, so all their repetitions are identical.
SEEDED_KINDS = ("random", "margin", "entropy", "maxprob")


def select_random(pool, q: int, seed: int) -> list:
    """q distinct indices drawn uniformly without replacement, seeded."""
    _check_budget(pool, q)
    rng = np.random.default_rng(seed)
    picks = rng.choice(np.asarray(pool.unlabeled, dtype=np.int64), size=q, replace=False)
    return [int(i) for i in picks]


def select_by_uncertainty(pool, probs: np.ndarray, kind: str, q: int) -> list:
    """The q most-uncertain unlabeled points; ties break to the lowest index."""
    _check_budget(pool, q)
    unlabeled = np.asarray(pool.unlabeled, dtype=np.int64)
    if probs.shape[0] != unlabeled.size:
        raise PoolInvariantError("softmax rows must align with the unlabeled pool")
    scores = uncertainty_scores(probs, kind)
    keys = scores if kind == "margin" else -scores  # lowest gap, highest entropy or maxprob first
    order = np.lexsort((unlabeled, keys))
    return [int(unlabeled[i]) for i in order[:q]]


def select_coreset(embedding_set, pool, q: int) -> list:
    """Greedy k-center: repeatedly take the point farthest from the selected/labeled set.

    purity._farthest_first picks from the labeled points, every unlabeled
    point available: the largest least exact distance, lowest index on ties,
    decided from the float64 keys k-means seeds from. With nothing labeled
    the lowest unlabeled index goes first.
    """
    _check_budget(pool, q)
    pool.check_range(embedding_set.count)
    points = embedding_set.vectors.astype(np.float64)
    available = np.zeros(embedding_set.count, dtype=bool)
    available[np.asarray(pool.unlabeled, dtype=np.int64)] = True
    norms = np.einsum("ij,ij->i", points, points)
    return _farthest_first(points, norms, pool.labeled, available, q)


def select_probcover(embedding_set, pool, delta0: float, q: int) -> list:
    """Greedy max-out-degree at a fixed radius (coverage-only selection).

    This is DCoM's greedy kernel at competence 0: every labeled point covers
    a delta0 ball, and the graph counts edges into uncovered points only. At
    competence 0 the kernel picks by integer degree and reads no margins, so
    none are passed.
    """
    _check_budget(pool, q)
    pool.check_range(embedding_set.count)
    unlabeled = np.sort(np.asarray(pool.unlabeled, dtype=np.int64))
    covered = None
    if pool.labeled:
        covered = covered_set(embedding_set, pool.labeled, [delta0] * len(pool.labeled))
    return _greedy_select(embedding_set, unlabeled, covered, delta0, 0.0, None, q)

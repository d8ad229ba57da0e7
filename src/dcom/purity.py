"""Purity-curve estimation with k-means pseudo-labels and initial radius selection.

The curve runs data._gram_pairs, the radius graph's Gram pass, in its
upper-triangle mode with its own marks; both clients' marks start from the key
error bound of data._gram_inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, _gram_inputs, _gram_pairs, _pair_sq_dists, _sq_dists
from .errors import DimensionMismatch, NoDeltaMeetsAlpha
from .graph import _indices

DEFAULT_ALPHA = 0.95
# 0.05 steps from 0.05 to 2.0, suited to L2-normalized embeddings.
DEFAULT_GRID = np.round(np.arange(1, 41) * 0.05, 10)

# Allowed upward jitter when validating that an estimated curve is
# monotonically non-increasing.
_MONOTONE_JITTER = 0.02

# Lloyd rounds after which k-means stops short of a fixpoint.
_KMEANS_ITERS = 100


@dataclass(frozen=True)
class PurityCurve:
    """Estimated fraction of pure balls for each radius on a grid."""

    grid: np.ndarray
    purity: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        purity = np.asarray(self.purity, dtype=np.float64)
        if grid.size == 0 or grid.size != purity.size:
            raise ValueError("grid and purity must be non-empty and equal length")
        if not (np.diff(grid) > 0).all():
            raise ValueError("grid must be strictly increasing")
        if not ((purity >= 0.0) & (purity <= 1.0)).all():  # NaN fails both
            raise ValueError("purity values must lie in [0, 1]")
        if (np.diff(purity) > _MONOTONE_JITTER).any():
            raise ValueError("purity curve increases beyond estimation jitter")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "purity", purity)


def kmeans_cluster(embedding_set: EmbeddingSet, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's k-means with farthest-first init, deterministic per seed.

    The first center is drawn uniformly with the seeded generator; each
    subsequent center is the point farthest from the chosen set (lowest index
    on ties). Empty clusters are repaired by moving the point currently
    farthest from its own centroid. Iteration stops at an assignment fixpoint
    or after _KMEANS_ITERS rounds.
    """
    n = embedding_set.count
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    points = embedding_set.vectors.astype(np.float64)
    rng = np.random.default_rng(seed)

    centers_idx = [int(rng.integers(n))]
    min_sq = _sq_dists(points, points[centers_idx[-1]])
    for _ in range(1, k):
        nxt = int(np.argmax(min_sq))
        centers_idx.append(nxt)
        min_sq = np.minimum(min_sq, _sq_dists(points, points[nxt]))
    centroids = points[centers_idx].copy()

    labels = None
    for _ in range(_KMEANS_ITERS):
        sq = np.array([_sq_dists(points, c) for c in centroids])
        new_labels = sq.argmin(axis=0)
        assigned_sq = sq[new_labels, np.arange(n)]

        for c in range(k):
            if not (new_labels == c).any():
                worst = int(np.argmax(assigned_sq))
                new_labels[worst] = c
                assigned_sq[worst] = 0.0

        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)

    return labels.astype(np.int64)


def min_impure_distance(embedding_set, labels) -> np.ndarray:
    """Distance from each point to its nearest differently-labeled point.

    A ball around a center is pure exactly when its radius is strictly below
    this distance (closed balls), so the purity curve falls out of a single
    pass over these values. A point with no differently-labeled point gets
    inf.

    The result is sqrt of the minimum exact float64 distance
    sum((x_j - x_c)^2) over differently-labeled j, found without a float64
    pass over every point per center. data._gram_pairs runs in upper-triangle
    mode: each unordered pair gets one key K_cj ~ -|x_c - x_j|^2/2 of
    data._gram_inputs, off by at most the E derived there in either
    orientation, so the nearest point has the largest key. The float64
    distances, each off by a relative 1.1 (d + 2) v, can invert keys that
    differ by up to 4.4 (d + 2) v M, as distances reach 4 M, and rounding a
    maximum key minus the slack s costs at most u (2 M + E + s) <= 2.2 u M +
    u s more. So every exact float64 minimiser has a key within
    2 E + (4.4 d + 11) u M + u s <= (11 d + 22) u M + u s of the largest one,
    and s = 12 (d + 4) u (1 + M), data._gram_inputs's slack, covers that.

    The largest key of a point is known only once the whole pass has passed
    it, so each point keeps a running maximum of its differently-labeled
    keys. Each tile raises it over the tile's row for each row of its row
    block, and over the tile's column for each column past the block's rows,
    as those meet the block only as columns. A pair is marked, and so goes
    through the exact refine, data._pair_sq_dists, when its key is at least
    either endpoint's running maximum minus s: its column's, then its row's,
    as the row's maximum so far. A running maximum never exceeds the final
    one, so every exact minimiser of either endpoint is refined, and the
    refine's minimum is taken at both endpoints. Tiles make the row maxima
    grow tile by tile, so a few more pairs may be refined than with whole
    rows: 19,050 instead of 18,793 on the init-delta bench's 6,000 points.
    """
    n = embedding_set.count
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels length {labels.size} does not match {n} points")
    inputs = _gram_inputs(embedding_set)
    slack = inputs[2]
    top = np.full(n, -np.inf, dtype=inputs[1].dtype)

    def floors(maxima):
        floor = maxima - slack
        # A point with no other label so far has nothing to refine.
        floor[floor == -np.inf] = np.inf
        return floor

    def keep(lo, part, c0, keys, mask):
        hi, c1 = lo + part.size, c0 + keys.shape[1]
        np.equal(labels[part][:, None], labels[c0:c1], out=mask)
        np.copyto(keys, -np.inf, where=mask)
        np.maximum(top[lo:hi], keys.max(axis=1), out=top[lo:hi])
        # Columns past the block's rows meet it only as columns; its rows took their maxima above.
        after = max(hi, c0)
        np.maximum(top[after:c1], keys[:, after - c0 :].max(axis=0), out=top[after:c1])
        # Keep the pairs within the slack of their column's maximum, as +inf keys, or their row's.
        np.greater_equal(keys, floors(top[c0:c1]), out=mask)
        np.copyto(keys, np.inf, where=mask)
        np.greater_equal(keys, floors(top[lo:hi])[:, None], out=mask)

    best = np.full(n, np.inf)
    everything = np.arange(n)
    for _, i, j, _ in _gram_pairs(inputs, everything, everything, keep):
        sq = _pair_sq_dists(inputs[0], i, j)
        np.minimum.at(best, i, sq)
        np.minimum.at(best, j, sq)
    return np.sqrt(best)


def estimate_purity_curve(embedding_set, labels, grid, sample=None) -> PurityCurve:
    """Fraction of centers whose ball stays pure, for each grid radius.

    All points act as centers unless a non-empty sample of point indices (any
    order, repeats allowed) is given; a fraction, a bool or an index outside
    [0, n) raises ValueError naming it.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if not (np.diff(grid) > 0).all():
        raise ValueError("grid must be strictly increasing")
    if sample is not None:
        sample = _indices("sample", sample, embedding_set.count)
        if sample.size == 0:
            raise ValueError("sample must hold at least one center")
    thresholds = min_impure_distance(embedding_set, labels)
    if sample is not None:
        thresholds = thresholds[sample]
    purity = (thresholds[None, :] > grid[:, None]).mean(axis=1)
    return PurityCurve(grid, purity)


def select_initial_delta(curve: PurityCurve, alpha: float = DEFAULT_ALPHA) -> float:
    """Largest grid radius whose purity is still >= alpha."""
    passing = np.flatnonzero(curve.purity >= alpha)
    if passing.size == 0:
        raise NoDeltaMeetsAlpha(
            f"no grid delta reaches purity {alpha}; max purity {curve.purity.max():.4f}"
        )
    return float(curve.grid[passing[-1]])


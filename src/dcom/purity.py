"""Purity-curve estimation with k-means pseudo-labels and initial radius selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, _gram_inputs, _pair_sq_dists, _sq_dists
from .errors import DimensionMismatch, NoDeltaMeetsAlpha

DEFAULT_ALPHA = 0.95
# 0.05 steps from 0.05 to 2.0, suited to L2-normalized embeddings.
DEFAULT_GRID = np.round(np.arange(1, 41) * 0.05, 10)

# Allowed upward jitter when validating that an estimated curve is
# monotonically non-increasing.
_MONOTONE_JITTER = 0.02

# Centers per Gram block.
_BLOCK_ROWS = 32


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
        if purity.min() < 0.0 or purity.max() > 1.0:
            raise ValueError("purity values must lie in [0, 1]")
        if (np.diff(purity) > _MONOTONE_JITTER).any():
            raise ValueError("purity curve increases beyond estimation jitter")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "purity", purity)


def kmeans_cluster(
    embedding_set: EmbeddingSet,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
) -> np.ndarray:
    """Lloyd's k-means with farthest-first init, deterministic per seed.

    The first center is drawn uniformly with the seeded generator; each
    subsequent center is the point farthest from the chosen set (lowest index
    on ties). Empty clusters are repaired by moving the point currently
    farthest from its own centroid. Iteration stops at an assignment fixpoint
    or after max_iters.
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
    for _ in range(max_iters):
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


def min_impure_distance(embedding_set, labels, centers=None) -> np.ndarray:
    """Distance from each center to its nearest differently-labeled point.

    A ball around a center is pure exactly when its radius is strictly below
    this distance (closed balls), so the purity curve falls out of a single
    pass over these values. centers defaults to every point and may be
    unsorted or hold duplicates; a center with no differently-labeled point
    gets inf.

    The result is sqrt of the minimum exact float64 distance
    sum((x_j - x_c)^2) over differently-labeled j, found without a float64
    pass over every point per center. For each block of centers, one Gram pass
    computes the keys K_cj ~ -|x_c - x_j|^2/2 of data._gram_inputs, each off
    by at most the E derived there, so the nearest point has the largest key.
    The float64 distances, each off by a relative 1.1 (d + 2) v, can invert
    keys that differ by up to 4.4 (d + 2) v M, as distances reach 4 M, and
    rounding the row maximum minus the slack s costs at most
    u (2 M + E + s) <= 2.2 u M + u s more. So every exact float64 minimiser
    has a key within 2 E + (4.4 d + 11) u M + u s <= (11 d + 22) u M + u s of
    the largest one, and s = 12 (d + 4) u (1 + M), data._gram_inputs's slack,
    covers that. Only the columns whose key is at least the row maximum minus
    s go through the exact refine, data._pair_sq_dists.
    """
    n = embedding_set.count
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels length {labels.size} does not match {n} points")
    centers = np.arange(n) if centers is None else np.asarray(centers, dtype=np.int64)
    points, gram, swap, slack = _gram_inputs(embedding_set)

    out = np.empty(centers.size)
    keys_buf = np.empty((min(_BLOCK_ROWS, centers.size), n), dtype=gram.dtype)
    mask_buf = np.empty(keys_buf.shape, dtype=bool)
    for lo in range(0, centers.size, _BLOCK_ROWS):
        rows = centers[lo : lo + _BLOCK_ROWS]
        keys, mask = keys_buf[: rows.size], mask_buf[: rows.size]
        np.matmul(gram[rows].take(swap, axis=1), gram.T, out=keys)
        np.equal(labels[rows][:, None], labels, out=mask)
        np.copyto(keys, -np.inf, where=mask)
        floor = keys.max(axis=1) - slack
        # A row with no other label has nothing to refine.
        floor[floor == -np.inf] = np.inf
        np.greater_equal(keys, floor[:, None], out=mask)
        cand_row, cand_col = np.divmod(np.flatnonzero(mask), n)
        best = np.full(rows.size, np.inf)
        np.minimum.at(best, cand_row, _pair_sq_dists(points, cand_col, rows[cand_row]))
        out[lo : lo + rows.size] = np.sqrt(best)
    return out


def estimate_purity_curve(embedding_set, labels, grid, sample=None) -> PurityCurve:
    """Fraction of centers whose ball stays pure, for each grid radius.

    All points act as centers unless a sample of indices is supplied.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if not (np.diff(grid) > 0).all():
        raise ValueError("grid must be strictly increasing")
    thresholds = min_impure_distance(embedding_set, labels, sample)
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


"""Purity-curve estimation with k-means pseudo-labels and initial radius selection.

k-means assigns each round from one float64 product of the points and the
centroids, refining exactly only the points its keys leave undecided. The
curve runs data._gram_pairs, the radius graph's Gram pass, in its
upper-triangle mode on the points sorted by label, with its own marks; both
clients' marks start from the key error bound of data._gram_inputs.
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


def _check_grid(grid):
    """ValueError unless the radii are finite, positive and strictly increasing; names a bad radius."""
    bad = np.flatnonzero(~(np.isfinite(grid) & (grid > 0)))
    if bad.size:
        raise ValueError(f"grid radius {grid[bad[0]]} at index {bad[0]} is not finite and positive")
    if not (np.diff(grid) > 0).all():
        raise ValueError("grid must be strictly increasing")


@dataclass(frozen=True)
class PurityCurve:
    """Estimated fraction of pure balls for each radius on a grid.

    The grid holds finite, positive, strictly increasing radii; a radius
    that is not finite and positive raises ValueError naming it.
    """

    grid: np.ndarray
    purity: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        purity = np.asarray(self.purity, dtype=np.float64)
        if grid.size == 0 or grid.size != purity.size:
            raise ValueError("grid and purity must be non-empty and equal length")
        _check_grid(grid)
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
    on ties). Each round gives every point the centroid at the least exact
    float64 distance _sq_dists, lowest index on ties. Each empty cluster, in
    index order, takes the point farthest from its own centroid among the
    clusters of two or more members, lowest index on ties; as k <= n such a
    cluster exists while one is empty, and no cluster ends empty, so no
    centroid is the NaN mean of nothing, even with duplicate points.
    Iteration stops at an assignment fixpoint or after _KMEANS_ITERS rounds.
    k must be a Python or NumPy integer in [1, n], not a bool.

    A round assigns by keys, one float64 product centroids @ points.T: the
    key of point x and centroid c is sq' = (|x|^2 + |c|^2) - 2 x.c, against
    the exact e = _sq_dists(x, c). Let M be the largest squared norm measured
    that round, over the points and the centroids, u = 2^-53, and
    gamma_k = k u / (1 - k u). In any summation order each norm is off by at
    most gamma_d M and the product x.c by gamma_d |x| |c| <= gamma_d M
    (Higham, Thm 3.1); the sum of the norms rounds by at most 2.01 u M, and
    the final difference, at most 4.01 M as d u is tiny, by 4.01 u M. e sums d rounded
    squares of rounded differences, so it is off the real |x - c|^2 <= 4 M by
    at most gamma_{d+2} 4 M. So |sq' - e| <= (8 d + 14.1) u M, and
    T = (9 d + 16) u M bounds it with room for the rounding of M, of T and of
    the gap below. Float32 points keep every term far from float64's
    overflow and underflow. A point whose second-least key exceeds its least
    by more than 2 T takes the least key's centroid: every other centroid is
    then strictly farther in e. Every other point is refined by the exact
    rule, e against all k centroids, on its own rows; _sq_dists sums each row
    on its own, so a row's e has the same bits in any batch. On the
    init-delta bench's 6,000 points 2 T is about 1.3e-13, the least gap about
    0.009, and none of the 4 rounds refines a row.
    """
    n = embedding_set.count
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
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

    point_norms = np.einsum("ij,ij->i", points, points)
    top_norm = float(point_norms.max())
    labels = None
    for _ in range(_KMEANS_ITERS):
        centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
        # k x n: the GEMM centroids @ points.T touches fewer BLAS buffer pages
        # than points @ centroids.T, about 3 MB less peak RSS with 2 threads.
        keys = np.add.outer(centroid_norms, point_norms)
        keys -= 2.0 * (centroids @ points.T)
        new_labels = keys.argmin(axis=0)
        if k > 1:
            bound = (9 * points.shape[1] + 16) * 2.0**-53 * max(top_norm, centroid_norms.max())
            least = np.partition(keys, 1, axis=0)
            # Negated, so a point whose gap is NaN goes to the exact rule too.
            unsure = np.flatnonzero(~(least[1] - least[0] > 2.0 * bound))
            if unsure.size:
                near = points[unsure]
                new_labels[unsure] = np.array([_sq_dists(near, c) for c in centroids]).argmin(axis=0)

        sizes = np.bincount(new_labels, minlength=k)
        if sizes.min() == 0:
            assigned_sq = _sq_dists(points, centroids[new_labels])
            for c in np.flatnonzero(sizes == 0):
                # Only a cluster of two or more gives up a point, so none is emptied.
                worst = int(np.argmax(np.where(sizes[new_labels] > 1, assigned_sq, -np.inf)))
                sizes[new_labels[worst]] -= 1
                sizes[c] = 1
                new_labels[worst] = c

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

    The pass runs on the points sorted by label (a stable argsort), and best
    goes back through the permutation: the proof holds in any point order,
    and a pair's refine has the same bits in either. Sorted, a label
    is one run of positions, so a tile excludes its same-label pairs with one
    -inf fill per label run that meets both its rows and its columns.

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
    rows: 19,080 on the init-delta bench's 6,000 points in label order
    (19,050 in point order, 18,793 with whole rows).
    """
    n = embedding_set.count
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels length {labels.size} does not match {n} points")
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    # Label run r holds the sorted positions [starts[r], starts[r + 1]).
    starts = np.r_[0, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, n]
    points, gram, slack = inputs = _gram_inputs(EmbeddingSet(embedding_set.vectors[order]))
    top = np.full(n, -np.inf, dtype=gram.dtype)

    def floors(maxima):
        floor = maxima - slack
        # A point with no other label so far has nothing to refine.
        floor[floor == -np.inf] = np.inf
        return floor

    def keep(lo, part, c0, keys, mask):
        hi, c1 = lo + part.size, c0 + keys.shape[1]
        # The runs that start before both ranges end and end after both start.
        first = np.searchsorted(starts, max(lo, c0), side="right") - 1
        for r in range(first, np.searchsorted(starts, min(hi, c1))):
            s, e = starts[r], starts[r + 1]
            keys[max(s - lo, 0) : e - lo, max(s - c0, 0) : e - c0] = -np.inf
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
        sq = _pair_sq_dists(points, i, j)
        np.minimum.at(best, i, sq)
        np.minimum.at(best, j, sq)
    out = np.empty(n)
    out[order] = np.sqrt(best)
    return out


def estimate_purity_curve(embedding_set, labels, grid, sample=None) -> PurityCurve:
    """Fraction of centers whose ball stays pure, for each grid radius.

    All points act as centers unless a non-empty sample of point indices (any
    order, repeats allowed) is given; a fraction, a bool or an index outside
    [0, n) raises ValueError naming it, and so does a grid radius that is not
    finite and positive.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    _check_grid(grid)
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


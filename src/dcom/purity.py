"""Purity-curve estimation with k-means pseudo-labels and initial radius selection.

k-means seeds through _farthest_first, Core-Set's k-center greedy step, from
float64 keys, one product of the points and each chosen center, and assigns
each round by one argmin over one product of the centroids and the points;
both refine exactly only the points their keys leave undecided. The curve
runs data._gram_pairs, the radius graph's Gram pass, on the points
sorted by label: an upper-triangle pass that only takes each point's largest
differently-labeled key per group of labels, then one rectangular pass per
group that marks the keys within the slack of their row's largest, as the
lemma of data._gram_inputs allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data
from .data import (EmbeddingSet, _gram_inputs, _gram_pairs, _pair_sq_dists, _points_at,
                   _sq_dists)
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


def _farthest_first(points, norms, chosen, available, q):
    """q picks of the k-center greedy step (Sener & Savarese 2018): Core-Set's and k-means' seeding.

    Each pick is the available point with the largest least exact float64
    distance _sq_dists to the chosen points and the earlier picks, lowest
    index on ties; with nothing chosen every least distance is inf, and the
    lowest available index goes first. points is n x d float64 and norms
    their squared norms; available, a mask of the n points that is read and
    not changed, holds at least q points. A point neither chosen nor
    available is never a pick.

    The picks decide from float64 keys: the key of point x and center c is
    sq' = (|x|^2 + |c|^2) - 2 x.c, against the exact e = _sq_dists(x, c).
    Let M be the largest squared norm measured over the points and the
    centers in use, u = 2^-53, and gamma_k = k u / (1 - k u). In any
    summation order each norm is off by at most gamma_d M and the product
    x.c by gamma_d |x| |c| <= gamma_d M (Higham, Thm 3.1); the sum of the
    norms rounds by at most 2.01 u M, and the final difference, at most
    4.01 M as d u is tiny, by 4.01 u M. e sums d rounded squares of rounded
    differences, so it is off the real |x - c|^2 <= 4 M by at most
    gamma_{d+2} 4 M. So |sq' - e| <= (8 d + 14.1) u M, and
    T = (9 d + 16) u M bounds it with room for the rounding of M, of T and
    of a key plus or minus 2 T. Float32 points keep every term far from
    float64's overflow and underflow. A least or largest key is then within
    T of the least or largest e, so keys more than 2 T apart order their e
    the same way.

    Each point keeps its least key to a chosen point, one points @ c per
    chosen point. Only the available points whose least key is within 2 T
    of the largest can hold the largest least e; when there are several,
    they are refined exactly against every chosen point, on their own rows.
    On the init-delta bench's 6,000 points no seeding step refines a row.

    k-means passes chosen = [start] and every other point available. The
    seeding over all points, in which a chosen point stays a candidate at
    least distance 0, picks the same points while the largest available
    least distance is positive, as no chosen point reaches it. Once it is 0,
    with j centers chosen, every point equals one of those j, which are
    distinct, and every later center of either seeding is a copy of one of
    them. Lloyd's first round then gives each point the lowest centroid at
    exact distance 0, its equal among the first j; its empty-cluster repair
    reads only those labels and those j centers. So both seedings give the
    same labels and centroid means from the first round on.
    """
    chosen, done = [int(c) for c in chosen], 0
    least = np.where(available, np.inf, -np.inf)
    # 2 T, with M the largest squared norm.
    gap = 2.0 * (9 * points.shape[1] + 16) * 2.0**-53 * float(norms.max())
    for _ in range(q):
        for c in chosen[done:]:
            key = norms + norms[c]
            key -= 2.0 * (points @ points[c])
            np.minimum(least, key, out=least)
        done = len(chosen)
        far = np.flatnonzero(least >= least.max() - gap)
        if far.size > 1 and chosen:
            rows = points[far]
            far = far[[np.min([_sq_dists(rows, points[c]) for c in chosen], axis=0).argmax()]]
        least[far[0]] = -np.inf
        chosen.append(int(far[0]))
    return chosen[len(chosen) - q :]


def kmeans_cluster(embedding_set: EmbeddingSet, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's k-means with farthest-first init, deterministic per seed.

    The first center is drawn uniformly with the seeded generator; the
    other k - 1 are _farthest_first's picks from it, every other point
    available. Each round gives every point the centroid at the least
    _sq_dists, lowest index on ties. Each empty cluster, in index order,
    takes the point farthest from its own centroid among the clusters of two
    or more members, lowest index on ties; as k <= n such a cluster exists
    while one is empty, and no cluster ends empty, so no centroid is the NaN
    mean of nothing, even with duplicate points. A centroid is the mean of
    its points in index order. Iteration stops at an assignment fixpoint or
    after _KMEANS_ITERS rounds. k must be a Python or NumPy integer in
    [1, n], not a bool.

    Each round decides from _farthest_first's keys, whose bound T holds with
    M taken over the points and the centroids. It makes one product
    centroids @ points.T, takes each point's least key with one argmin and
    counts its keys within 2 T of it. A point with one such key takes that
    centroid: every other centroid is strictly farther in e. Every
    other point is refined by the exact rule, e against all k centroids, on
    its own rows; _sq_dists sums each row on its own, so a row's e has the
    same bits in any batch. On the init-delta bench's 6,000 points 2 T is
    about 1.3e-13, the least gap about 0.009, and none of the 4 rounds
    refines a row.
    """
    n = embedding_set.count
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    points = embedding_set.vectors.astype(np.float64)
    point_norms = np.einsum("ij,ij->i", points, points)
    # 2 T per unit of the largest squared norm M.
    gap = 2.0 * (9 * points.shape[1] + 16) * 2.0**-53

    start = int(np.random.default_rng(seed).integers(n))
    others = np.arange(n) != start
    centroids = points[[start, *_farthest_first(points, point_norms, [start], others, k - 1)]]

    labels = None
    for _ in range(_KMEANS_ITERS):
        centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
        # k x n: the GEMM centroids @ points.T touches fewer BLAS buffer pages
        # than points @ centroids.T, about 3 MB less peak RSS with 2 threads.
        keys = np.add.outer(centroid_norms, point_norms)
        keys -= 2.0 * (centroids @ points.T)
        new_labels = keys.argmin(axis=0)
        limit = keys.min(axis=0) + gap * max(point_norms.max(), centroid_norms.max())
        # Not "> 1", so a point whose keys are NaN goes to the exact rule too.
        unsure = np.flatnonzero(np.count_nonzero(keys <= limit, axis=0) != 1)
        if unsure.size:
            rows = points[unsure]
            new_labels[unsure] = np.array([_sq_dists(rows, c) for c in centroids]).argmin(axis=0)

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
        # A stable label sort cut at the sizes: each cluster's rows in index order.
        for c, rows in enumerate(np.split(np.argsort(labels, kind="stable"), sizes.cumsum()[:-1])):
            centroids[c] = points[rows].mean(axis=0)

    return labels


def _label_groups(starts, size):
    """Bounds of the groups of label runs: runs join in order, and a group closes at size points.

    starts holds each run's first sorted position, then n. Group g is the
    positions [bounds[g], bounds[g + 1]); every group but the last holds at
    least size points, so there are at most ceil(n / size) + 1 of them, and
    a run of size points or more ends its group.
    """
    n = starts[-1]
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(starts[np.searchsorted(starts, min(bounds[-1] + size, n))])
    return np.array(bounds)


def min_impure_distance(embedding_set, labels) -> np.ndarray:
    """Distance from each point to its nearest differently-labeled point.

    A ball around a center is pure exactly when its radius is strictly below
    this distance (closed balls), so the purity curve falls out of a single
    pass over these values. A point with no differently-labeled point gets
    inf.

    The result is sqrt of the minimum exact float64 distance
    sum((x_j - x_c)^2) over differently-labeled j, found without a float64
    pass over every point per center. By the lemma of data._gram_inputs,
    each key K_cj that data._gram_pairs makes, whichever pass, orientation
    and tile shape made it, is within E of -D/2, D = |x_c - x_j|^2, and
    each refine within 4.4 (d + 2) v M of D. Let K_cm be c's largest
    differently-labeled key. An exact float64 minimiser j refines no larger
    than m, so D_j <= D_m + 8.8 (d + 2) v M and K_cj >= K_cm - T. Rounding
    K_cm - s, s the slack, costs at most u (2 M + E + s) <= 2.2 u M + u s,
    and s (1 - u) >= (12 d + 48) (1 - u)^2 u M >= T + 2.2 u M: each key of
    every exact minimiser is at least c's floor, K_cm - s in the keys' dtype.

    Both phases run on the points sorted by label (a stable argsort), and
    best goes back through the permutation: the proof holds in any point
    order, and a pair's refine has the same bits in either. The sorted set
    gathers the set's filled Gram rows and carries their largest norm, so
    its keys and slack are the ones a sort of the points would get, with no
    pass over them. Sorted, a label is one run of positions, so a tile drops
    its same-label pairs with one -inf fill per label run that meets both
    its rows and its columns. The
    runs join groups in label order, a group closing once it holds
    data._TILE_ROWS points (_label_groups): so there are at most
    ceil(n / _TILE_ROWS) + 1 groups whatever the label count, and the
    init-delta bench's 10 runs of about 600 points are 10 groups.

    Phase 1 is the pass's upper-triangle mode, and marks nothing. Each tile
    raises, for each row of its row block, the row's largest key in each
    group its columns meet, and for each column past the block's rows, as
    those meet the block only as columns, the column's largest key in each
    group the block's rows meet. So a (groups, n) table in the keys' dtype
    ends holding each point's largest differently-labeled key per group, and
    its column maxima give each point's floor. Phase 2 then runs the pass's
    rectangular mode once per group, its columns the group and its rows the
    points whose largest key there is at least their floor: no other group
    holds a key of an exact minimiser. It marks the keys at or above the
    row's floor and refines them with data._pair_sq_dists, keeping the least
    at the row. On the init-delta bench's 6,000 points it refines 6,024 pairs.
    """
    n = embedding_set.count
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels length {labels.size} does not match {n} points")
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    # Label run r holds the sorted positions [starts[r], starts[r + 1]).
    starts = np.r_[0, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, n]
    bounds = _label_groups(starts, data._TILE_ROWS)
    # Fill the set's own Gram rows, which the sorted set gathers with their largest norm.
    _gram_inputs(embedding_set)
    points, gram, slack = inputs = _gram_inputs(_points_at(embedding_set, order))
    table = np.full((bounds.size - 1, n), -np.inf, dtype=gram.dtype)

    def drop_same_label(rows, c0, keys):
        """-inf at the keys of sorted positions rows x [c0, c0 + width) that share a label."""
        c1 = c0 + keys.shape[1]
        # The runs that start before both ranges end and end after both start.
        first = np.searchsorted(starts, max(rows[0], c0), side="right") - 1
        for r in range(first, np.searchsorted(starts, min(rows[-1] + 1, c1))):
            s, e = starts[r], starts[r + 1]
            a, b = np.searchsorted(rows, (s, e))
            keys[a:b, max(s - c0, 0) : e - c0] = -np.inf

    def groups_in(lo, hi):
        """The range of groups that meet positions [lo, hi)."""
        return np.searchsorted(bounds, lo, side="right") - 1, np.searchsorted(bounds, hi)

    def gather(lo, part, c0, keys, mask):
        hi, c1 = lo + part.size, c0 + keys.shape[1]
        drop_same_label(part, c0, keys)
        g0, g1 = groups_in(c0, c1)
        rows = table[g0:g1, lo:hi]
        group_max = np.maximum.reduceat(keys, np.maximum(bounds[g0:g1] - c0, 0), axis=1)
        np.maximum(rows, group_max.T, out=rows)
        # Columns past the block's rows meet it only as columns; its rows took their maxima above.
        after = max(hi, c0)
        if after < c1:
            for g in range(*groups_in(lo, hi)):
                block = keys[max(bounds[g] - lo, 0) : bounds[g + 1] - lo, after - c0 :]
                np.maximum(table[g, after:c1], block.max(axis=0), out=table[g, after:c1])
        return False

    everything = np.arange(n)
    for _ in _gram_pairs(inputs, everything, everything, gather):
        pass

    floor = table.max(axis=0, initial=-np.inf) - slack
    # A point with no other label has nothing to refine.
    floor[floor == -np.inf] = np.inf
    best = np.full(n, np.inf)
    for g in range(bounds.size - 1):
        rows = np.flatnonzero(table[g] >= floor)
        if not rows.size:
            continue

        def mark(lo, part, c0, keys, mask):
            drop_same_label(part, bounds[g] + c0, keys)
            np.greater_equal(keys, floor[part, None], out=mask)

        for _, i, j, _ in _gram_pairs(inputs, rows, np.arange(bounds[g], bounds[g + 1]), mark):
            np.minimum.at(best, i, _pair_sq_dists(points, i, j))
    out = np.empty(n)
    out[order] = np.sqrt(best)
    return out


def estimate_purity_curve(embedding_set, labels, grid, sample=None) -> PurityCurve:
    """Fraction of centers whose ball stays pure, for each grid radius.

    All points act as centers unless a non-empty sample of point indices (any
    order, repeats allowed) is given; a fraction, a bool or an index outside
    [0, n) raises ValueError naming it, and so do a grid radius that is not
    finite and positive and an empty embedding set.
    """
    if embedding_set.count == 0:
        raise ValueError("the embedding set is empty: a purity curve needs at least one point")
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


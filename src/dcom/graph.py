"""Sparse undirected radius-adjacency graph and coverage computation.

RadiusGraph stores each unordered pair both ways in one CSR of int32
neighbours and starts from the caller's covered mask. Covering a point drops
it from its neighbours' degrees, so out-degrees count uncovered neighbours, as
do ball_members. The greedy kernel in engine (shared by dcom_select and
select_probcover) builds over the unlabeled points with the pool's covered
mask, then only covers, each picked ball through _cover.
A pair (i, j) is within i's radius r when the exact float64 distance
sum((x_i - x_j)^2) is at most r^2, and _within is the one step that tests
it, for the build and for coverage alike. Its candidates come from
data._gram_pairs, the package's one float32 Gram pass, which makes its keys
one data._TILE_ROWS x data._TILE_COLS tile at a time, in one reused buffer of
about 5 MB whatever the number of points. A key at or above its row's upper
floor, as almost all do, is within the radius by the lemma of
data._gram_inputs; only the band down to the floor is confirmed with the
exact distance. So the edge set matches a brute-force O(n^2) scan bit for
bit, and the CSR does not depend on the tile shape. The build runs the
pass's upper-triangle mode over the uncovered points, the whole of a cold
start, and its rectangular mode from the covered points to them: a pair of
covered points is never alive, so never built. covered_set runs it with a
radius, and so a pair of floors, per labeled point. The pass reads the
float32 vectors and gram of _gram_inputs, no float64 copy of the points. The
gram is the set's own storage, the vectors its first d columns, so the build
allocates no copy of the points; it frees its per-tile pair lists before it
makes the CSR. A cold build on 100k x 64 normalized points at delta 0.9
(5,561,798 entries), traced from after the points are made, peaks at about
109 MiB (134 MiB when the gram was an array of its own).
"""

from __future__ import annotations

import numpy as np

from . import data
from .data import EmbeddingSet, _gram_inputs, _gram_pairs, _pair_sq_dists
from .errors import DenseRadiusGraph, TooManyPoints

# Stored entries, 2 per confirmed pair, past which a build stops; about ten times
# a 100k-point select's 5.6M.
_MAX_EDGES = 60_000_000
# Points past which a build stops before it allocates: the CSR's neighbours are int32.
_MAX_POINTS = np.iinfo(np.int32).max


class RadiusGraph:
    """Coverable undirected adjacency over pairs (a, b), each given once, covered at start.

    The CSR stores mirrors (b, a), then pairs, sorted stably by point, as
    int32 neighbours: point indices below 2^31, as build_radius_graph checks.
    """

    def __init__(self, n, a, b, covered=None):
        a, b = np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)
        self._covered = np.zeros(n, dtype=bool) if covered is None else covered.copy()
        # bincount copies its input to int64, so one half at a time halves that copy.
        counts = np.bincount(b, minlength=n) + np.bincount(a, minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        if self._covered.any():
            # A mirror (b, a) is alive when a is uncovered, a pair (a, b) when b is.
            counts = (np.bincount(b[~self._covered[a]], minlength=n)
                      + np.bincount(a[~self._covered[b]], minlength=n))
        self._out_degree = counts
        order = np.argsort(np.concatenate((b, a)), kind="stable")
        self._nbrs = np.concatenate((a, b))[order]

    @property
    def out_degree(self):
        """Each point's count of uncovered neighbours: a read-only view that covering updates."""
        view = self._out_degree.view()
        view.flags.writeable = False
        return view

    def ball_members(self, v):
        """v's uncovered neighbours within the construction radius, v excluded."""
        nbrs = self._nbrs[self._indptr[v] : self._indptr[v + 1]]
        return nbrs[~self._covered[nbrs]]

    def _cover(self, targets):
        """Cover distinct, in-range, uncovered targets, dropping each from its neighbours' degrees."""
        self._covered[targets] = True
        starts = self._indptr[targets]
        counts = self._indptr[targets + 1] - starts
        ends = np.cumsum(counts)
        # Entry k of the targets' joined neighbour lists, inside target t's, is
        # _nbrs[starts[t] + k - (ends[t] - counts[t])].
        at = np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())
        np.subtract.at(self._out_degree, self._nbrs[at], 1)


def build_radius_graph(
    embedding_set: EmbeddingSet, delta: float, points=None, covered=None
) -> RadiusGraph:
    """All pairs of points at exact distance <= delta, but for pairs of covered points.

    points may be unsorted and hold duplicates; a non-integer dtype or an index
    outside [0, n) raises ValueError. covered, a boolean mask of shape (n,),
    is the graph's starting coverage, so out_degree and ball_members count the
    uncovered neighbours in points x (points minus covered). Raises
    DenseRadiusGraph once more than _MAX_EDGES entries, 2 per pair, are stored,
    and TooManyPoints, before it allocates, for more than _MAX_POINTS points,
    as the pairs and the CSR hold int32 indices. Each pair is tested by
    _within at r^2 = delta * delta, with the slack of data._gram_inputs at
    extent r^2.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = embedding_set.count
    if n > _MAX_POINTS:
        raise TooManyPoints(f"a radius graph holds at most {_MAX_POINTS} points, "
                            f"as int32 indices; got {n}")
    thresh = delta * delta
    covered = np.zeros(n, dtype=bool) if covered is None else np.asarray(covered)
    if covered.dtype != bool or covered.shape != (n,):
        raise ValueError(f"covered must be a boolean mask of shape ({n},), "
                         f"got dtype {covered.dtype} and shape {covered.shape}")
    # Duplicate-free indices, sorted as the pass needs its columns, in int32 like the pairs.
    points = np.arange(n) if points is None else _distinct(_indices("points", points, n))
    points = points.astype(np.int32)
    shut = covered[points]
    open_points, shut_points = points[~shut], points[shut]
    # A covered pool has nothing to build: skip the Gram inputs' n-row arrays.
    if open_points.size == 0:
        return RadiusGraph(n, open_points, open_points, covered)
    inputs = _gram_inputs(embedding_set, thresh)
    a_parts, b_parts = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    edges = 0
    # The upper-triangle pass yields each uncovered pair once, as a < b; then
    # covered x uncovered. No pair comes twice and no point meets itself.
    for rows in (open_points, shut_points):
        for a, b, keep in _within(inputs, rows, open_points, thresh):
            a_parts.append(a[keep])
            b_parts.append(b[keep])
            edges += 2 * a_parts[-1].size
            if edges > _MAX_EDGES:
                raise DenseRadiusGraph(f"radius graph too dense: {edges} edges so far within "
                                       f"delta {delta:.6g} among {n} points")
    # Free the parts, and float64 Gram inputs, which the set does not keep, before the CSR.
    del inputs
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)
    del a_parts, b_parts
    return RadiusGraph(n, a, b, covered)


def _within(inputs, rows, cols, sq_radii):
    """The one radius test: per tile of data._gram_pairs(inputs, rows, cols), (i, j, keep).

    sq_radii is one squared radius r^2, or one per row; keep marks the
    pairs with _pair_sq_dists(x_i, x_j) <= r^2 at row i's radius, of those
    the pass marked, so the ones at or above the floor f = -(r^2 + s)/2.
    A pair at or above the upper floor g = -(r^2 - s)/2 is kept unrefined;
    only the band f <= K < g is refined. f and g are rounded to the keys'
    dtype, each off by at most 1.01 u (r^2 + s).

    Both floors are exact when s (1 - 2.02 u) >= T + 2.02 u r^2, as
    data._gram_inputs' slack s ensures for r^2 at most its extent, with T
    the lemma's bound |sq - (-2 K)| <= T on a pair's refine sq and key K.
    Floor: sq <= r^2 gives -2 K <= r^2 + T <= r^2 + s - 2.02 u (r^2 + s)
    <= -2 f, so the pass marks the pair. Upper floor: K >= g gives
    -2 K <= r^2 - s + 2.02 u (r^2 + s), so sq <= r^2 + T + 2.02 u r^2
    - s (1 - 2.02 u) <= r^2. An infinite radius makes s infinite, so every
    row's f is -inf and its g NaN, or +inf at a finite radius: every pair is
    marked, none clears g, and each is refined. A scalar radius stays a
    stride-0 view across the rows, which the tiles compare against as fast
    as against one number.
    """
    vectors, gram, slack = inputs
    sq_radii = np.asarray(sq_radii, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf
        floors, uppers = -(sq_radii + slack) / 2, -(sq_radii - slack) / 2
    floors, uppers, sq_radii = (np.broadcast_to(x, rows.shape) for x in
                                (floors.astype(gram.dtype), uppers.astype(gram.dtype), sq_radii))

    def at_floor(lo, part, c0, keys, mask):
        np.greater_equal(keys, floors[lo : lo + part.size, None], out=mask)

    for k, i, j, key in _gram_pairs(inputs, rows, cols, at_floor):
        keep = key >= uppers[k]
        band = np.flatnonzero(~keep)
        keep[band] = _pair_sq_dists(vectors, i[band], j[band]) <= sq_radii[k[band]]
        yield i, j, keep


def _index_array(name, values, error=ValueError):
    """values as an int64 array; error names a float or a bool, even a bool among ints."""
    array = np.asarray(values)
    # An empty list's dtype is float64; bool is not an integer dtype.
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise error(f"{name} must hold integer indices, got dtype {array.dtype}")
    # Among ints a bool casts up to an int, so a list is checked element by element.
    if array is not values and not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise error(f"{name} must hold integer indices, got a bool")
    return array.astype(np.int64, copy=False)


def _indices(name, values, n):
    """values as int64 point indices; ValueError names a non-integer value or an outside index."""
    values = _index_array(name, values)
    bad = np.flatnonzero((values < 0) | (values >= n))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] is {values[bad[0]]}, outside [0, {n})")
    return values


def _distinct(values):
    """np.unique(values) for a 1-D int64 array: a sort and a mask of the entries unlike their left one.

    On 30k indices, sorted or shuffled, np.unique took about 20 times as long as
    np.sort (NumPy 2.4, 2 cores).
    """
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def covered_set(embedding_set, labeled, deltas) -> np.ndarray:
    """Covered flags of the union of closed per-point balls around the labeled points.

    Each block of labeled points runs _within, at each row's own radius r_k,
    against only the points no earlier block covered, as a union has no
    order. A block is an eighth of the pass's data._TILE_ROWS, and the call
    stops at the first block that finds no point left uncovered, so a pool
    that its first balls cover skips the rest: on the covered-iter bench's
    8k points a call took 6 ms in blocks of 32 and 18 ms in blocks of 256
    (2 cores). The slack is data._gram_inputs' at the largest r_k^2, and
    only grows with the extent, so it covers every row's r_k^2.
    """
    labeled = _indices("labeled", labeled, embedding_set.count)
    deltas = np.asarray(deltas, dtype=np.float64)
    if labeled.shape != deltas.shape:
        raise ValueError(f"{labeled.size} labeled points but {deltas.size} deltas")
    if np.isnan(deltas).any():
        raise ValueError("deltas must not be NaN")
    negative = np.flatnonzero(deltas < 0)
    if negative.size:
        bad = negative[0]
        raise ValueError(f"deltas must not be negative: deltas[{bad}] is {deltas[bad]}")
    sq_radii = deltas * deltas
    inputs = _gram_inputs(embedding_set, float(sq_radii.max(initial=0.0)))
    covered = np.zeros(embedding_set.count, dtype=bool)
    covered[labeled] = True
    step = max(1, data._TILE_ROWS // 8)
    for lo in range(0, labeled.size, step):
        block = slice(lo, lo + step)
        # A labeled point is covered, so it never meets itself among the columns.
        uncovered = np.flatnonzero(~covered)
        if not uncovered.size:
            break
        for _, j, inside in _within(inputs, labeled[block], uncovered, sq_radii[block]):
            covered[j[inside]] = True
    return covered

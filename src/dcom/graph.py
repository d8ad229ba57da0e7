"""Sparse undirected radius-adjacency graph and coverage computation.

RadiusGraph stores each unordered pair both ways in one CSR of int32
neighbours and starts from the caller's covered mask. Covering a point drops
it from its neighbours' degrees, so out-degrees count uncovered neighbours, as
do ball_members. The greedy kernel in engine (shared by dcom_select and
select_probcover) builds over the unlabeled points with the pool's covered
mask, then only covers, each picked ball through _cover, prune_incoming
without its checks.
Candidates come from data._gram_pairs, the package's one float32 Gram pass,
which makes its keys one data._TILE_ROWS x data._TILE_COLS tile at a time, in
one reused buffer of about 5 MB whatever the number of points. They are
marked at a floor derived from the key error bound of data._gram_inputs. A
candidate whose key clears an upper floor, as almost all do, is within the
radius by the same bound; only the band between the two floors is confirmed
with the package's exact float64 distance. So the edge set matches a
brute-force O(n^2) scan bit for bit, and the CSR does not depend on the tile
shape. The build runs the pass's upper-triangle mode over the uncovered
points, the whole of a cold start, and its rectangular mode from the covered
points to them: a pair of covered points is never alive, so never built.
covered_set runs the same pass with a radius, and so a pair of floors, per
labeled point. The pass reads the float32 vectors and gram of _gram_inputs,
no float64 copy of the points, and a build frees them and its per-tile pair
lists before it makes the CSR. A cold build on 100k x 64 points traces a
peak of about 108 MiB; with int64 pairs and a float64 copy it was 338.
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

    def prune_incoming(self, targets):
        """Cover targets, dropping each from its neighbours' degrees (repeats allowed)."""
        # A repeated target would list its neighbours twice and decrement twice.
        targets = _distinct(_indices("targets", targets, self._covered.size))
        self._cover(targets[~self._covered[targets]])

    def _cover(self, targets):
        """prune_incoming with no checks: targets must be distinct, in range and uncovered."""
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
    as the pairs and the CSR hold int32 indices.

    The candidate pass keeps (i, j) when the key K_ij ~ -|x_i - x_j|^2/2 of
    data._gram_inputs(embedding_set, delta^2), off by at most the E derived
    there, is at least the floor f = -(r^2 + s)/2 rounded to the keys' dtype,
    with r = delta and s its slack. Each candidate is then confirmed with the
    exact float64 distance sum((x_i - x_j)^2) <= r^2, unless its key decides
    it. The floor is off by at most 1.01 u (r^2 + s). An edge's exact
    distance is at most r^2 (1 + 1.1 (d + 2) u), so its key is at least
    -r^2/2 - 0.55 (d + 2) u r^2 - E, which clears the floor when
    s (1 - 2.02 u) >= 2 E + 1.1 (d + 4) u r^2. As 2 E <= (6.6 d + 11) u M,
    s = 12 (d + 4) u (1 + M + r^2) covers it.

    A candidate whose key is at least the upper floor g = -(r^2 - s)/2,
    rounded to the keys' dtype like f, is an edge with no refine; only the
    band f <= K < g is refined. g is off by at most 1.01 u (r^2 + s), so
    K >= g gives -2 K <= r^2 - s + 2.02 u (r^2 + s). The refine sq lies within
    T = 2 E + 4.4 (d + 2) v M <= (11 d + 20) u M of -2 K, as
    engine._ball_counts derives, in float32 and in float64 keys alike. So
    sq <= r^2 - s (1 - 2.02 u) + 2.02 u r^2 + T, which is at most r^2 when
    s (1 - 2.02 u) >= (11 d + 20) u M + 2.02 u r^2: the same s covers it,
    its r^2 term the floors' rounding, as stored in the keys' dtype too.
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
    floor, upper = _floors(thresh, inputs)
    a_parts, b_parts = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    edges = 0

    def at_floor(lo, part, c0, keys, mask):
        np.greater_equal(keys, floor, out=mask)

    # The upper-triangle pass yields each uncovered pair once, as a < b; then
    # covered x uncovered. No pair comes twice and no point meets itself.
    for rows in (open_points, shut_points):
        pairs = _gram_pairs(inputs, rows, open_points, at_floor)
        for _, a, b, key in pairs:
            keep = key >= upper
            band = np.flatnonzero(~keep)
            keep[band] = _pair_sq_dists(inputs[0], a[band], b[band]) <= thresh
            a_parts.append(a[keep])
            b_parts.append(b[keep])
            edges += 2 * a_parts[-1].size
            if edges > _MAX_EDGES:
                raise DenseRadiusGraph(f"radius graph too dense: {edges} edges so far within "
                                       f"delta {delta:.6g} among {n} points")
    # Free the Gram inputs and the parts before the CSR's arrays are made.
    del inputs
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)
    del a_parts, b_parts
    return RadiusGraph(n, a, b, covered)


def _floors(sq_radii, inputs):
    """build_radius_graph's floor f and upper floor g at each squared radius, in the keys' dtype.

    An infinite radius makes the slack infinite, and g NaN or +inf, so no
    key clears g and every marked pair is refined.
    """
    _, gram, slack = inputs
    sq_radii = np.asarray(sq_radii, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf
        floors, uppers = -(sq_radii + slack) / 2, -(sq_radii - slack) / 2
    return floors.astype(gram.dtype), uppers.astype(gram.dtype)


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

    Each block of labeled points runs the Gram pass against only the points
    no earlier block covered, as a union has no order. A block is an eighth
    of the pass's data._TILE_ROWS, so a pool that its first balls cover
    skips the rest: on the covered-iter bench's 8k points a call took 6 ms
    in blocks of 32 and 18 ms in blocks of 256 (2 cores). Row k gets its
    floor, upper floor and refine at its own radius r_k: a key at or
    above row k's upper floor covers its point with no refine, and only the
    band between the two floors is refined. The floors and their proofs are
    build_radius_graph's: the slack is computed for the largest radius and
    only grows with it, so s >= 12 (d + 4) u (1 + M + r_k^2) row by row.
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
    floors, uppers = _floors(sq_radii, inputs)
    covered = np.zeros(embedding_set.count, dtype=bool)
    covered[labeled] = True
    step = max(1, data._TILE_ROWS // 8)
    for lo in range(0, labeled.size, step):
        # A labeled point is covered, so it never meets itself among the columns.
        pairs = _gram_pairs(inputs, labeled[lo : lo + step], np.flatnonzero(~covered),
                            lambda at, part, c0, keys, mask: np.greater_equal(
                                keys, floors[lo + at : lo + at + part.size, None], out=mask))
        for k, i, j, key in pairs:
            row = lo + k
            inside = key >= uppers[row]
            band = np.flatnonzero(~inside)
            inside[band] = _pair_sq_dists(inputs[0], i[band], j[band]) <= sq_radii[row[band]]
            covered[j[inside]] = True
    return covered

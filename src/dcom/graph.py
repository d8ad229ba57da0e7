"""Sparse directed radius-adjacency graph and coverage computation.

RadiusGraph sorts its edges stably by source, keeping each source's targets in
the order given, and keeps one covered flag per point. Covering a point drops
every edge into it, so an edge is alive exactly while its target is uncovered,
and out-degrees count alive edges. Construction can be restricted to source
and target indices, so the greedy kernel in engine (shared by dcom_select and
select_probcover) builds only unlabeled sources to uncovered targets and then
only covers. Candidates come from data._gram_pairs, the package's one float32
Gram pass, with a floor derived from the key error bound of data._gram_inputs;
every candidate is confirmed with the package's exact float64 distance, so the
edge set matches a brute-force O(n^2) scan bit for bit. A build whose sources
and targets are the same points, as every cold start is, runs the pass's
upper-triangle mode and puts each confirmed pair's mirror ahead of the pairs,
so targets ascend within each source once sorted. covered_set runs the same
pass with a radius per labeled point.
"""

from __future__ import annotations

import numpy as np

from .data import EmbeddingSet, _gram_inputs, _gram_pairs
from .errors import DenseRadiusGraph

# Labeled points per coverage block.
_COVER_ROWS = 32
# Confirmed edges past which a build stops, about ten times a 100k-point select's 5.6M.
_MAX_EDGES = 60_000_000


class RadiusGraph:
    """Coverable directed adjacency; takes edges in any order and sorts them stably by source."""

    def __init__(self, n, src, dst):
        order = np.argsort(src, kind="stable")
        self._src = src[order]
        self._dst = dst[order]
        self._covered = np.zeros(n, dtype=bool)
        self._out_degree = np.bincount(src, minlength=n).astype(np.int64)
        # Static CSR over construction edges: geometric ball lookups survive covering.
        self._out_indptr = np.concatenate(([0], np.cumsum(self._out_degree)))
        self._in_edge_ids = np.argsort(self._dst, kind="stable")
        self._in_indptr = np.concatenate(([0], np.cumsum(np.bincount(self._dst, minlength=n))))

    @property
    def out_degree(self):
        return self._out_degree.copy()

    def ball_members(self, v):
        """Points within the construction radius of v, excluding v itself."""
        return self._dst[self._out_indptr[v] : self._out_indptr[v + 1]]

    def prune_incoming(self, targets):
        """Cover targets, removing every edge into them (repeats allowed, indices checked)."""
        # A repeated target would list its edges twice and decrement twice.
        targets = np.unique(_indices("targets", targets, self._covered.size))
        targets = targets[~self._covered[targets]]
        if targets.size == 0:
            return
        self._covered[targets] = True
        ids = np.concatenate(
            [self._in_edge_ids[self._in_indptr[t] : self._in_indptr[t + 1]] for t in targets]
        )
        np.subtract.at(self._out_degree, self._src[ids], 1)


def build_radius_graph(
    embedding_set: EmbeddingSet, delta: float, sources=None, targets=None
) -> RadiusGraph:
    """All ordered pairs at exact distance <= delta, without self-loops.

    sources and targets, when given, restrict the edges to pairs whose source
    lies in sources and whose target lies in targets; either may be unsorted
    and hold duplicates, and an index outside [0, n) raises ValueError. The
    restricted edge set equals the full one filtered to sources x targets, and
    ball_members then returns only targets. Raises DenseRadiusGraph once more
    than _MAX_EDGES edges are confirmed.

    The candidate pass keeps (i, j) when the key K_ij ~ -|x_i - x_j|^2/2 of
    data._gram_inputs(embedding_set, delta^2), off by at most the E derived
    there, is at least the floor f = -(r^2 + s)/2 rounded to the keys' dtype,
    with r = delta and s its slack. Each candidate is then confirmed with the
    exact float64 distance sum((x_i - x_j)^2) <= r^2, the same refine as a
    full build. The floor is off by at most 1.01 u (r^2 + s). An edge's exact
    distance is at most r^2 (1 + 1.1 (d + 2) u), so its key is at least
    -r^2/2 - 0.55 (d + 2) u r^2 - E, which clears the floor when
    s (1 - 2.02 u) >= 2 E + 1.1 (d + 4) u r^2. As 2 E <= (6.6 d + 11) u M,
    s = 12 (d + 4) u (1 + M + r^2) covers it.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = embedding_set.count
    thresh = delta * delta
    # Duplicate-free indices, sorted as the pass needs its columns.
    rows = np.arange(n) if sources is None else np.unique(_indices("sources", sources, n))
    cols = np.arange(n) if targets is None else np.unique(_indices("targets", targets, n))
    # A covered pool builds with no targets: skip the Gram inputs' n-row arrays.
    if rows.size == 0 or cols.size == 0:
        return RadiusGraph(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if np.array_equal(rows, cols):
        rows = cols  # one set on both sides, as in a cold start: the symmetric pass
    inputs = _gram_inputs(embedding_set, thresh)
    _, gram, slack = inputs
    floor = gram.dtype.type(-(thresh + float(slack)) / 2)
    # The symmetric pass yields each pair once, for two ordered pairs.
    orders = 2 if rows is cols else 1
    src_parts, dst_parts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    edges = 0
    for _, src, dst, sq in _gram_pairs(inputs, rows, cols, lambda *_: floor):
        keep = (src != dst) & (sq <= thresh)
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
        edges += orders * src_parts[-1].size
        if edges > _MAX_EDGES:
            raise DenseRadiusGraph(f"radius graph too dense: {edges} edges so far within "
                                   f"delta {delta:.6g} among {n} points")
    src, dst = np.concatenate(src_parts), np.concatenate(dst_parts)
    if orders == 2:
        # Mirrors first: source v lists its (v, u), u < v, by ascending u, then its (v, w).
        src, dst = np.concatenate((dst, src)), np.concatenate((src, dst))
    return RadiusGraph(n, src, dst)


def _indices(name, values, n):
    """values as int64 point indices; ValueError names the first one outside [0, n)."""
    values = np.asarray(values, dtype=np.int64)
    bad = np.flatnonzero((values < 0) | (values >= n))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] is {values[bad[0]]}, outside [0, {n})")
    return values


def covered_set(embedding_set, labeled, deltas) -> np.ndarray:
    """Covered flags of the union of closed per-point balls around the labeled points.

    Each block of _COVER_ROWS labeled points runs the Gram pass against only
    the points no earlier block covered, as a union has no order, with row
    k's floor and refine at its own radius r_k. The floor and the bound are
    build_radius_graph's: the slack is computed for the largest radius and
    only grows with it, so the bound holds row by row.
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
    floors = -((sq_radii + float(inputs[2])) / 2).astype(inputs[1].dtype)
    covered = np.zeros(embedding_set.count, dtype=bool)
    covered[labeled] = True
    for lo in range(0, labeled.size, _COVER_ROWS):
        # A labeled point is covered, so it never meets itself among the columns.
        pairs = _gram_pairs(inputs, labeled[lo : lo + _COVER_ROWS], np.flatnonzero(~covered),
                            lambda at, part, *_: floors[lo + at : lo + at + part.size, None])
        for k, _, j, sq in pairs:
            covered[j[sq <= sq_radii[lo + k]]] = True
    return covered

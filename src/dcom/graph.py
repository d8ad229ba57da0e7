"""Sparse directed radius-adjacency graph and coverage computation.

Edges are stored as a coordinate list sorted by (source, target) next to one
covered flag per point. Covering a point drops every edge into it, so an edge
is alive exactly while its target is uncovered, and out-degrees count alive
edges. Construction can be restricted to source and target indices, so the
greedy kernel in engine (shared by dcom_select and select_probcover) builds
only unlabeled sources to uncovered targets and then only covers. Candidates
come from a float32 BLAS Gram pass per block of source rows with a per-row
threshold; every candidate is then confirmed with the package's exact float64
distance (data._pair_sq_dists), so the edge set matches a brute-force O(n^2)
scan bit for bit. covered_set runs the same kernel with a radius per labeled
point.
"""

from __future__ import annotations

import numpy as np

from .data import EmbeddingSet, _gram_inputs, _pair_sq_dists
from .errors import DenseRadiusGraph

# Source rows per Gram block of a build, and labeled points per coverage block.
_CHUNK_ROWS = 512
_COVER_ROWS = 32
# Confirmed edges past which a build stops, about ten times a 100k-point select's 5.6M.
_MAX_EDGES = 60_000_000


class RadiusGraph:
    """Directed adjacency at a fixed radius whose targets can be covered."""

    def __init__(self, n, src, dst):
        self._src = src
        self._dst = dst
        self._covered = np.zeros(n, dtype=bool)
        self._out_degree = np.bincount(src, minlength=n).astype(np.int64)
        # Static CSR over construction edges: geometric ball lookups survive covering.
        self._out_indptr = np.concatenate(([0], np.cumsum(self._out_degree)))
        self._in_edge_ids = np.argsort(dst, kind="stable")
        self._in_indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))

    @property
    def edges(self):
        """Alive (source, target) pairs, sorted by (source, target)."""
        alive = ~self._covered[self._dst]
        return np.column_stack((self._src[alive], self._dst[alive]))

    @property
    def out_degree(self):
        return self._out_degree.copy()

    def ball_members(self, v):
        """Points within the construction radius of v, excluding v itself."""
        return self._dst[self._out_indptr[v] : self._out_indptr[v + 1]]

    def prune_incoming(self, targets):
        """Cover targets, removing every edge into them (repeats allowed)."""
        # A repeated target would list its edges twice and decrement twice.
        targets = np.unique(np.asarray(targets, dtype=np.int64))
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
    and hold duplicates. The restricted edge set equals the full one filtered
    to sources x targets, and ball_members then returns only targets.

    The candidate pass keeps (i, j) when the key K_ij ~ -|x_i - x_j|^2/2 of
    data._gram_inputs(embedding_set, delta^2), off by at most the E derived
    there, is at least the floor f = -(r^2 + s)/2 rounded to the keys' dtype,
    with r = delta and s its slack. Each candidate is then confirmed with the
    exact float64 distance sum((x_i - x_j)^2) <= r^2, the same refine as a
    full build. The floor is off by at most 1.01 u (r^2 + s). An edge's exact
    distance is at most r^2 (1 + 1.1 (d + 2) u), so its key is at least
    -r^2/2 - 0.55 (d + 2) u r^2 - E, which clears the floor when
    s (1 - 2.02 u) >= 2 E + 1.1 (d + 4) u r^2. As 2 E <= (6.6 d + 11) u M,
    s = 12 (d + 4) u (1 + M + r^2) covers it. With a radius per row, as in
    covered_set, the slack is computed for the largest radius and only grows
    with it, so the bound holds row by row.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = embedding_set.count
    thresh = delta * delta
    # Sorted, duplicate-free indices: the CSR in RadiusGraph needs ascending sources.
    rows = np.arange(n) if sources is None else np.unique(np.asarray(sources, dtype=np.int64))
    cols = np.arange(n) if targets is None else np.unique(np.asarray(targets, dtype=np.int64))
    # A covered pool builds with no targets: skip the Gram inputs' n-row arrays.
    if rows.size == 0 or cols.size == 0:
        return RadiusGraph(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    inputs = _gram_inputs(embedding_set, thresh)
    src, dst = _pairs_within(inputs, rows, np.full(rows.size, thresh, dtype=np.float64), cols)
    return RadiusGraph(n, src, dst)


def _pairs_within(inputs, rows, sq_radii, cols):
    """Pairs (rows[k], j != rows[k]), j in cols, at exact squared distance <= sq_radii[k].

    inputs is data._gram_inputs(embedding_set, extent >= max(sq_radii)), whose
    bound build_radius_graph derives. Pairs come in (rows, cols) order. Raises
    DenseRadiusGraph once more than _MAX_EDGES pairs are confirmed.
    """
    points, gram, swap, slack = inputs
    tgt = gram[cols]
    floor = -((sq_radii + float(slack)) / 2).astype(gram.dtype)
    buf = np.empty((min(_CHUNK_ROWS, rows.size), cols.size), dtype=gram.dtype)
    mask = np.empty(buf.shape, dtype=bool)

    src_parts, dst_parts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    edges = 0
    for lo in range(0, rows.size if cols.size else 0, _CHUNK_ROWS):
        block_rows = rows[lo : lo + _CHUNK_ROWS]
        block, block_mask = buf[: block_rows.size], mask[: block_rows.size]
        np.matmul(gram[block_rows].take(swap, axis=1), tgt.T, out=block)
        np.greater_equal(block, floor[lo : lo + _CHUNK_ROWS, None], out=block_mask)
        cand_row, cand_col = np.divmod(np.flatnonzero(block_mask), cols.size)
        src, dst = block_rows[cand_row], cols[cand_col]
        keep = (src != dst) & (_pair_sq_dists(points, src, dst) <= sq_radii[lo + cand_row])
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
        edges += src_parts[-1].size
        if edges > _MAX_EDGES:
            raise DenseRadiusGraph(
                f"radius graph too dense: {edges} edges so far within delta "
                f"{np.sqrt(sq_radii.max()):.6g} among {points.shape[0]} points"
            )
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def covered_set(embedding_set, labeled, deltas) -> np.ndarray:
    """Covered flags of the union of closed per-point balls around the labeled points.

    Each block of _COVER_ROWS labeled points runs the build's exact kernel
    against only the points no earlier block covered, as a union has no order.
    """
    labeled = np.asarray(labeled, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if labeled.shape != deltas.shape:
        raise ValueError(f"{labeled.size} labeled points but {deltas.size} deltas")
    if np.isnan(deltas).any():
        raise ValueError("deltas must not be NaN")
    sq_radii = deltas * deltas
    inputs = _gram_inputs(embedding_set, float(sq_radii.max(initial=0.0)))
    covered = np.zeros(embedding_set.count, dtype=bool)
    covered[labeled] = True
    for lo in range(0, labeled.size, _COVER_ROWS):
        hi = lo + _COVER_ROWS
        uncovered = np.flatnonzero(~covered)
        _, dst = _pairs_within(inputs, labeled[lo:hi], sq_radii[lo:hi], uncovered)
        covered[dst] = True
    return covered

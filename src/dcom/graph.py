"""Sparse directed radius-adjacency graph and coverage computation.

Edges are stored as a coordinate list sorted by (source, target) next to one
covered flag per point. Covering a point drops every edge into it, so an edge
is alive exactly while its target is uncovered, and out-degrees count alive
edges. Construction can be restricted to source and target indices, so the
greedy kernel in engine (shared by dcom_select and select_probcover) builds
only unlabeled sources to uncovered targets and then only covers. Candidates
come from a float32 BLAS Gram pass per block of source rows with a per-row
threshold; every candidate is then confirmed with the package's exact float64
distance (data._sq_dists), so the edge set matches a brute-force O(n^2) scan
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, _sq_dists

_CHUNK_ROWS = 512


@dataclass(frozen=True)
class CoverageState:
    """Boolean covered flags plus their exact mean."""

    covered: np.ndarray
    probability: float


class RadiusGraph:
    """Directed adjacency at a fixed radius whose targets can be covered."""

    def __init__(self, n, radius, src, dst):
        self.n = int(n)
        self.radius = float(radius)
        self._src = src
        self._dst = dst
        self._covered = np.zeros(self.n, dtype=bool)
        self._out_degree = np.bincount(src, minlength=self.n).astype(np.int64)
        # Static CSR over construction edges: geometric ball lookups survive covering.
        self._out_indptr = np.concatenate(([0], np.cumsum(self._out_degree)))
        self._in_edge_ids = np.argsort(dst, kind="stable")
        self._in_indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=self.n))))

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

    The candidate pass computes g = x_i . x_j for a block of source rows in
    float32 and keeps (i, j) when g - |x_j|^2/2 >= (|x_i|^2 - margin)/2, which
    is |x_i - x_j|^2 <= margin rearranged. margin is delta^2 plus
    1e-3 * (1 + 2 max |x|^2), a slack that scales with the largest norm so the
    float32 rounding in those terms drops no true edge. Each candidate is then
    confirmed with the exact float64 distance sum((x_i - x_j)^2) <= delta^2,
    the same refine as a full build.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    points32 = embedding_set.vectors
    points = points32.astype(np.float64)
    n = embedding_set.count
    sq_norms32 = (points32 * points32).sum(axis=1)
    thresh = delta * delta
    # Loose float32 candidate threshold; exact float64 refinement below.
    margin = np.float32(thresh + 1e-3 * (1.0 + 2.0 * float(sq_norms32.max()))) if n else thresh

    # Sorted, duplicate-free indices: the CSR in RadiusGraph needs ascending sources.
    all_rows = np.arange(n) if sources is None else np.unique(np.asarray(sources, dtype=np.int64))
    cols = None if targets is None else np.unique(np.asarray(targets, dtype=np.int64))
    tgt = points32 if cols is None else points32[cols]
    m = tgt.shape[0]
    half_sq_t = np.float32(0.5) * (sq_norms32 if cols is None else sq_norms32[cols])
    buf = np.empty((min(_CHUNK_ROWS, all_rows.size), m), dtype=np.float32)
    mask = np.empty(buf.shape, dtype=bool)

    src_parts, dst_parts = [], []
    for lo in range(0, all_rows.size if m else 0, _CHUNK_ROWS):
        rows = all_rows[lo : lo + _CHUNK_ROWS]
        block, block_mask = buf[: rows.size], mask[: rows.size]
        np.matmul(points32[rows], tgt.T, out=block)
        block -= half_sq_t
        np.greater_equal(block, ((sq_norms32[rows] - margin) / 2)[:, None], out=block_mask)
        cand_row, cand_col = np.divmod(np.flatnonzero(block_mask), m)
        cand_src = rows[cand_row]
        cand_dst = cand_col if cols is None else cols[cand_col]
        keep = cand_src != cand_dst
        cand_src, cand_dst = cand_src[keep], cand_dst[keep]
        if cand_src.size:
            keep = _sq_dists(points[cand_src], points[cand_dst]) <= thresh
            cand_src, cand_dst = cand_src[keep], cand_dst[keep]
        src_parts.append(cand_src.astype(np.int64))
        dst_parts.append(cand_dst.astype(np.int64))
    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    return RadiusGraph(n, delta, src, dst)


def covered_set(embedding_set, labeled, deltas) -> CoverageState:
    """Union of closed per-point balls around the labeled points."""
    labeled = np.asarray(labeled, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if labeled.shape != deltas.shape:
        raise ValueError(
            f"labeled length {labeled.size} does not match deltas length {deltas.size}"
        )
    points = embedding_set.vectors.astype(np.float64)
    covered = np.zeros(embedding_set.count, dtype=bool)
    covered[labeled] = True
    for idx, radius in zip(labeled, deltas):
        covered |= _sq_dists(points, points[idx]) <= radius * radius
    probability = float(int(covered.sum()) / embedding_set.count)
    return CoverageState(covered, probability)


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

from .data import EmbeddingSet, _gram_inputs, _sq_dists

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

    The candidate pass computes the key k_ij = x_i . x_j - |x_j|^2/2 for a
    block of source rows and keeps (i, j) when k_ij >= |x_i|^2/2 - margin/2,
    which is |x_i - x_j|^2 <= margin rearranged, with margin = delta^2 + s.
    Each candidate is then confirmed with the exact float64 distance sum((x_i
    - x_j)^2) <= delta^2, the same refine as a full build.

    The slack s makes the candidates hold every edge. Let M = max |x|^2, d the
    dimension, u the unit roundoff of the keys and gamma_d = d u / (1 - d u)
    <= 16 d u / 15, as d u <= 1/16 below. A key is off by at most 1.5 gamma_d
    M + 2.5 u M, as purity.min_impure_distance derives. The threshold
    |x_i|^2/2 - margin/2 is off by at most gamma_d M / 2 + 1.1 u (M + margin):
    the half norm by (gamma_d + u) M / 2, and the halved margin and the
    subtraction by the rest. An edge's float64 distance, a sum of d
    non-negative terms, is off by a relative (d + 2) 2^-53, so its exact
    distance is at most delta^2 (1 + 1.1 (d + 2) u). Every edge is therefore a
    candidate when s >= 4.3 d u M + 7.2 u M + 2.2 u margin + 1.1 (d + 2) u
    delta^2, and s = 8 (d + 4) u (1 + M + delta^2), data._gram_inputs's slack
    with extent delta^2, covers that; its "1 +" also covers float32 underflow.
    The keys are float32 unless d > 2^20 or 4 (M + delta^2) would overflow
    float32; then they are float64.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = embedding_set.count
    thresh = delta * delta
    points, gram_points, half_sq, slack = _gram_inputs(embedding_set, thresh)
    half_margin = gram_points.dtype.type((thresh + float(slack)) / 2)

    # Sorted, duplicate-free indices: the CSR in RadiusGraph needs ascending sources.
    all_rows = np.arange(n) if sources is None else np.unique(np.asarray(sources, dtype=np.int64))
    cols = None if targets is None else np.unique(np.asarray(targets, dtype=np.int64))
    tgt = gram_points if cols is None else gram_points[cols]
    m = tgt.shape[0]
    half_sq_t = half_sq if cols is None else half_sq[cols]
    buf = np.empty((min(_CHUNK_ROWS, all_rows.size), m), dtype=gram_points.dtype)
    mask = np.empty(buf.shape, dtype=bool)

    src_parts, dst_parts = [], []
    for lo in range(0, all_rows.size if m else 0, _CHUNK_ROWS):
        rows = all_rows[lo : lo + _CHUNK_ROWS]
        block, block_mask = buf[: rows.size], mask[: rows.size]
        np.matmul(gram_points[rows], tgt.T, out=block)
        block -= half_sq_t
        np.greater_equal(block, (half_sq[rows] - half_margin)[:, None], out=block_mask)
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


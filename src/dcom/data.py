"""Embedding containers, binary/CSV file formats, distance primitives, synthetic mixtures.

Binary layouts:
  embeddings ("DCM1"): 4 magic bytes, u32-LE count, u32-LE dim, then
    count*dim float32-LE values in row-major order.
  labels ("DCL1"): 4 magic bytes, u32-LE count, then count int32-LE values
    where -1 means unknown.
Paths ending in ".csv" use a header row and one record per point instead.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    NonFinite,
    PayloadOverflow,
    TruncatedPayload,
    ZeroVector,
)

EMBEDDING_MAGIC = b"DCM1"
LABEL_MAGIC = b"DCL1"
UNKNOWN_LABEL = -1

# n and d are u32 on disk; reject payloads whose product cannot be indexed.
_MAX_ELEMENTS = 2**31
_REFINE_PAIRS = 1024  # pairs per exact float64 gather: bounds memory, not results
_GRAM_ROWS = 256  # rows per Gram-pass strip; its keys and mask take 5 bytes per row per column


class EmbeddingSet:
    """Immutable n x d point set with optional integer class labels.

    Vectors are stored as float32 (the on-disk precision); distance
    computations promote to float64 so brute-force oracles are stable.
    """

    __slots__ = ("vectors", "labels")

    def __init__(self, vectors, labels=None):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DimensionMismatch(f"vectors must be 2-D, got shape {vectors.shape}")
        if not np.isfinite(vectors).all():
            raise NonFinite("row {}, column {}".format(*np.argwhere(~np.isfinite(vectors))[0]))
        vectors.setflags(write=False)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (vectors.shape[0],):
                raise DimensionMismatch(
                    f"labels length {labels.shape} does not match {vectors.shape[0]} points"
                )
            if (labels < UNKNOWN_LABEL).any():
                raise ValueError("labels must be >= 0 or the unknown sentinel -1")
            labels.setflags(write=False)
        self.vectors = vectors
        self.labels = labels

    @property
    def count(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]

    @property
    def num_classes(self):
        """Number of classes implied by the known labels (max label + 1)."""
        if self.labels is None:
            return 0
        return int(self.labels.max(initial=UNKNOWN_LABEL)) + 1

    def __eq__(self, other):
        if not isinstance(other, EmbeddingSet):
            return NotImplemented
        if not np.array_equal(self.vectors, other.vectors):  # False on a shape mismatch
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


@dataclass(frozen=True)
class MixtureSpec:
    """Seeded Gaussian-mixture generator parameters."""

    num_classes: int
    points_per_class: int
    dim: int
    class_separation: float
    within_std: float
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "points_per_class", "dim", "class_separation", "within_std"):
            if not getattr(self, name) > 0:  # not "<= 0", which NaN passes
                raise ValueError(f"{name} must be positive")


def write_embedding_file(embedding_set: EmbeddingSet, path) -> None:
    """Serialize to the DCM1 binary layout (or CSV when path ends '.csv')."""
    if str(path).endswith(".csv"):
        _write_embedding_csv(embedding_set, path)
        return
    header = EMBEDDING_MAGIC + struct.pack(
        "<II", embedding_set.count, embedding_set.dim
    )
    payload = embedding_set.vectors.astype("<f4", copy=False).tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_embedding_file(path) -> EmbeddingSet:
    """Parse a DCM1 file (or CSV). Bytes round-trip exactly through write."""
    if str(path).endswith(".csv"):
        return _read_embedding_csv(path)
    with open(Path(path), "rb") as fh:  # Path: open() takes an int as a file descriptor
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != EMBEDDING_MAGIC:
        raise BadMagic(0, bytes(raw[:4]))
    if len(raw) < 12:
        raise TruncatedPayload(len(raw), 12, len(raw))
    n, d = struct.unpack("<II", raw[4:12])
    if n * d > _MAX_ELEMENTS:
        raise PayloadOverflow(4, n, d)
    expected = 12 + 4 * n * d
    if len(raw) != expected:
        raise TruncatedPayload(min(len(raw), expected), expected, len(raw))
    values = np.frombuffer(raw, dtype="<f4", count=n * d, offset=12)
    if not np.isfinite(values).all():
        offset = 12 + 4 * int(np.argmin(np.isfinite(values)))
        raise NonFinite(f"byte {offset}", offset)
    return EmbeddingSet(values.reshape(n, d) if n else values.reshape(0, d))


def write_label_file(labels, path) -> None:
    """Serialize integer labels to the DCL1 layout (or CSV)."""
    labels = np.asarray(labels, dtype=np.int64)
    if str(path).endswith(".csv"):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label"])
            for value in labels:
                writer.writerow([int(value)])
        return
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC + struct.pack("<I", len(labels)))
        fh.write(labels.astype("<i4").tobytes())


def read_label_file(path) -> np.ndarray:
    """Parse a DCL1 file (or CSV) into an int64 label array (-1 = unknown)."""
    if str(path).endswith(".csv"):
        return np.array([int(row[0]) for row in _csv_records(path)[1]], dtype=np.int64)
    with open(Path(path), "rb") as fh:  # Path: open() takes an int as a file descriptor
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != LABEL_MAGIC:
        raise BadMagic(0, bytes(raw[:4]))
    if len(raw) < 8:
        raise TruncatedPayload(len(raw), 8, len(raw))
    (n,) = struct.unpack("<I", raw[4:8])
    expected = 8 + 4 * n
    if len(raw) != expected:
        raise TruncatedPayload(min(len(raw), expected), expected, len(raw))
    return np.frombuffer(raw, dtype="<i4", count=n, offset=8).astype(np.int64)


def _write_embedding_csv(embedding_set, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(embedding_set.dim)])
        for row in embedding_set.vectors:
            writer.writerow([repr(float(v)) for v in row])


def _csv_records(path):
    """A CSV file's header (None if empty), its records of the header's width, and their lines."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, records, lines = next(reader, None), [], []
        for record in reader:
            if len(record) != len(header):
                raise DimensionMismatch(f"{path} line {reader.line_num} has "
                                        f"{len(record)} fields, the header {len(header)}")
            records.append(record)
            lines.append(reader.line_num)
    return header, records, lines


def _read_embedding_csv(path):
    header, records, lines = _csv_records(path)
    if header is None:
        raise TruncatedPayload(0, 1, 0)
    data = np.array([[float(v) for v in row] for row in records], dtype=np.float32)
    if not np.isfinite(data).all():
        row, field = np.argwhere(~np.isfinite(data))[0]
        raise NonFinite(f"{path} line {lines[row]}, field {field + 1}")
    return EmbeddingSet(data.reshape(len(records), len(header)))


def l2_normalize(embedding_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm; labels pass through."""
    vectors = embedding_set.vectors.astype(np.float64)
    norms = np.sqrt((vectors * vectors).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    return EmbeddingSet(
        (vectors / norms[:, None]).astype(np.float32), embedding_set.labels
    )


def _sq_dists(points, center):
    """Exact squared distances from each row of points to center.

    The package's one distance rule; every exactness contract compares it.
    """
    diff = points - center
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=-1)


def _pair_sq_dists(points, a, b):
    """_sq_dists(points[a], points[b]), gathering at most _REFINE_PAIRS pairs at a time."""
    out = np.empty(len(a))
    for lo in range(0, len(a), _REFINE_PAIRS):
        part = slice(lo, lo + _REFINE_PAIRS)
        out[part] = _sq_dists(points[a[part]], points[b[part]])
    return out


def _gram_inputs(embedding_set, extent=0.0):
    """Inputs of a Gram pass whose keys are K_ij = -|x_i - x_j|^2/2, and its slack.

    Returns the float64 points, the n x (d + 2) array gram whose row i is
    [x_i, -|x_i|^2/2, 1], and s = 12 (d + 4) u (1 + B) in gram's dtype, where
    B = max |x|^2 + extent and u is the dtype's unit roundoff. The dtype is
    float32 unless d > 2^20 or 4 B would overflow float32; then float64.
    _gram_pairs multiplies these rows into keys.

    The key's error, which every caller's compare step starts from: let
    M = max |x|^2, v = 2^-53 <= u the float64 unit roundoff, and
    gamma_k = k u / (1 - k u) <= 15 k u / 14, as the dtype rule keeps
    (d + 2) u <= 1/15. A stored -|x|^2/2 is a float64 sum of d squares, off
    by a relative 1.01 d v, rounded once to the dtype, so it is off by at
    most 1.01 (d v + u) M / 2. A key sums d + 2 products whose magnitudes
    add up to at most |x_i| |x_j| + M (1 + 1.01 (d v + u)) <= 2.01 M, so in
    any summation order it is off its stored terms' sum by at most
    2.01 gamma_{d+2} M <= 2.2 (d + 2) u M (Higham, Thm 3.1). Each key is
    therefore within E = 2.2 (d + 2) u M + 1.01 (d v + u) M of
    -|x_i - x_j|^2/2: at most (2.2 d + 5.5) u M in float32, where
    d v <= u / 512, and (3.3 d + 5.5) u M in float64, where v = u. The exact
    float64 distance sum((x_i - x_j)^2) that confirms a candidate is off by a
    relative 1.1 (d + 2) v. s's "1 +" also covers float32 underflow.
    """
    points = embedding_set.vectors.astype(np.float64)
    n, d = points.shape
    sq_norms = (points * points).sum(axis=1)
    bound = float(sq_norms.max(initial=0.0)) + extent
    dtype = np.float32 if d <= 2**20 and 4.0 * bound < 2.0**127 else np.float64
    gram = np.empty((n, d + 2), dtype=dtype)
    gram[:, :d], gram[:, d], gram[:, d + 1] = embedding_set.vectors, -0.5 * sq_norms, 1.0
    slack = dtype(12 * (d + 4) * np.finfo(dtype).eps / 2 * (1.0 + bound))
    return points, gram, slack


def _gram_pairs(inputs, rows, cols, floor_of):
    """The package's one Gram pass: candidate pairs of rows x cols and their exact distances.

    The radius graph, coverage and the purity curve differ only in floor_of.
    inputs is _gram_inputs(...); rows are point indices in any order, cols
    sorted and duplicate-free, so cols holding every point is arange(n) and
    gram itself is the column side. For each strip part = rows[lo : lo + _GRAM_ROWS],
    the keys fill a reused len(part) x len(cols) buffer, and
    floor_of(lo, part, keys, scratch) returns a floor in the keys' dtype that
    broadcasts against them: a scalar, or a column with one value per row. It
    may rewrite keys: one set below its row's floor is dropped, one set to
    +inf is kept. It may use scratch, a boolean buffer of the keys' shape that
    the pass overwrites right after. Each pair whose key is at least its
    row's floor is yielded, a strip at a time in (rows, cols) order, as
    (k, i, j, sq): the position k in rows, i = rows[k], j in cols and the
    exact refine sq = _sq_dists(x_i, x_j).

    Upper-triangle mode runs when rows is cols, the way a caller passes one
    set of points for both sides. Then part meets only cols[lo:], so keys is
    len(part) x (len(cols) - lo) and column c holds cols[lo + c]; of the
    leading len(part) columns, the diagonal tile, only pairs past the
    diagonal are yielded. Each unordered pair {i, j} then comes once, as
    i < j, sorted by (i, j). One key per pair is enough: the bound of
    _gram_inputs holds for any summation order, so for either orientation.
    One refine is enough: _sq_dists is exactly symmetric, as (a - b)^2 and
    (b - a)^2 are equal in IEEE arithmetic.

    The keys are gram[part].take(swap, axis=1) @ gram[cols].T, whose left rows
    are [x_i, 1, -|x_i|^2/2]. take keeps that side C-contiguous; [:, swap] makes
    an F-ordered copy, which slowed the covered-iter bench by about 15% (2 cores).
    Each strip's keys and mask are contiguous views of flat reused buffers.
    """
    points, gram, _ = inputs
    swap = np.r_[: points.shape[1], -1, -2]
    upper = rows is cols
    tgt = gram if cols.size == gram.shape[0] else gram[cols]
    rows_max = min(_GRAM_ROWS, rows.size)
    keys_buf = np.empty(rows_max * cols.size, dtype=gram.dtype)
    mask_buf = np.empty(keys_buf.size, dtype=bool)
    tile = np.triu(np.ones((rows_max, rows_max), dtype=bool), 1) if upper else None
    for lo in range(0, rows.size if cols.size else 0, _GRAM_ROWS):
        part = rows[lo : lo + _GRAM_ROWS]
        first = lo if upper else 0
        width = cols.size - first
        keys = keys_buf[: part.size * width].reshape(part.size, width)
        mask = mask_buf[: keys.size].reshape(keys.shape)
        np.matmul(gram[part].take(swap, axis=1), tgt[first:].T, out=keys)
        np.greater_equal(keys, floor_of(lo, part, keys, mask), out=mask)
        if upper:
            mask[:, : part.size] &= tile[: part.size, : part.size]
        cand_row, cand_col = np.divmod(np.flatnonzero(mask), width)
        src, dst = part[cand_row], cols[first + cand_col]
        yield lo + cand_row, src, dst, _pair_sq_dists(points, src, dst)


def gen_gaussian_mixture(spec: MixtureSpec) -> EmbeddingSet:
    """Seeded Gaussian mixture; class c is centered at separation * e_(c mod d).

    Pure function of the spec: identical specs give bit-identical output.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_classes * spec.points_per_class
    points = np.empty((n, spec.dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for c in range(spec.num_classes):
        mean = np.zeros(spec.dim)
        mean[c % spec.dim] = spec.class_separation
        lo = c * spec.points_per_class
        hi = lo + spec.points_per_class
        points[lo:hi] = mean + spec.within_std * rng.standard_normal(
            (spec.points_per_class, spec.dim)
        )
        labels[lo:hi] = c
    return EmbeddingSet(points.astype(np.float32), labels)

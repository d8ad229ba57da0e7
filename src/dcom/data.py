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
            bad = int(np.flatnonzero(~np.isfinite(vectors.ravel()))[0])
            raise NonFinite(12 + 4 * bad)
        vectors.setflags(write=False)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (vectors.shape[0],):
                raise DimensionMismatch(
                    f"labels length {labels.shape} does not match {vectors.shape[0]} points"
                )
            known = labels[labels != UNKNOWN_LABEL]
            if known.size and known.min() < 0:
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
        known = self.labels[self.labels != UNKNOWN_LABEL]
        return int(known.max()) + 1 if known.size else 0

    def __eq__(self, other):
        if not isinstance(other, EmbeddingSet):
            return NotImplemented
        if self.vectors.shape != other.vectors.shape:
            return False
        if not np.array_equal(self.vectors, other.vectors):
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
        for name in ("num_classes", "points_per_class", "dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("class_separation", "within_std"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


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
    with open(path, "rb") as fh:
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
    # EmbeddingSet reports a non-finite value at its byte offset in this layout.
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
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return np.array([int(row[0]) for row in rows[1:]], dtype=np.int64)
    with open(path, "rb") as fh:
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


def _read_embedding_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise TruncatedPayload(0, 1, 0)
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float32)
    if data.size and not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data.ravel()))[0])
        raise NonFinite(bad)
    if data.size == 0:
        data = data.reshape(0, len(rows[0]))
    return EmbeddingSet(data)


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
    [x_i, -|x_i|^2/2, 1], the column order swap that exchanges gram's last two
    columns, and s = 12 (d + 4) u (1 + B) in gram's dtype, where
    B = max |x|^2 + extent and u is the dtype's unit roundoff. The dtype is
    float32 unless d > 2^20 or 4 B would overflow float32; then float64.
    gram[rows].take(swap, axis=1) @ gram[cols].T is the block of keys, as the
    rows of its left side are [x_i, 1, -|x_i|^2/2]. take keeps that side
    C-contiguous; the F-ordered copy that [:, swap] makes slowed the
    covered-iter bench passes by about 15% on a 2-core host.

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
    return points, gram, np.r_[:d, d + 1, d], slack


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

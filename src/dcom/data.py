"""Embedding containers, binary/CSV file formats, distance primitives, synthetic mixtures.

Binary layouts:
  embeddings ("DCM1"): 4 magic bytes, u32-LE count, u32-LE dim, then
    count*dim float32-LE values in row-major order.
  labels ("DCL1"): 4 magic bytes, u32-LE count, then count int32-LE values
    where -1 means unknown.
Paths ending in ".csv" use a header row and one record per point instead.
_write_binary and _read_binary are the one codec of both binary layouts;
_write_csv and _csv_records are the one CSV writer and reader, the run
loop's reports included.
"""

from __future__ import annotations

import csv
import math
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
# The Gram pass's tile: rows x columns of keys per GEMM. Its float32 keys and
# mask, 5 bytes per cell, are about 5 MB whatever the number of points.
_TILE_ROWS = 256
_TILE_COLS = 4096


class EmbeddingSet:
    """Immutable n x d point set with optional integer class labels.

    Vectors are stored as float32 (the on-disk precision); distance
    computations promote to float64 so brute-force oracles are stable.
    """

    __slots__ = ("vectors", "labels")

    def __init__(self, vectors, labels=None):
        with np.errstate(over="ignore"):  # a value past float32's range becomes inf, caught below
            vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DimensionMismatch(f"vectors must be 2-D, got shape {vectors.shape}")
        if not np.isfinite(vectors).all():
            row, column = np.argwhere(~np.isfinite(vectors))[0]
            raise NonFinite(f"row {row}, column {column}", cell=(row, column))
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
    vectors = embedding_set.vectors
    if str(path).endswith(".csv"):
        header = [f"f{j}" for j in range(embedding_set.dim)]
        _write_csv(path, header, map(np.ndarray.tolist, vectors))
    else:
        _write_binary(path, EMBEDDING_MAGIC, vectors.shape, vectors.astype("<f4", copy=False))


def read_embedding_file(path) -> EmbeddingSet:
    """Parse a DCM1 file (or CSV). Bytes round-trip exactly through write."""
    if str(path).endswith(".csv"):
        header, records, lines = _csv_records(path)
        if header is None:
            raise TruncatedPayload(0, 1, 0)
        data = np.array([[_parse(float, v, path, line, k) for k, v in enumerate(row, 1)]
                         for row, line in zip(records, lines)])
        try:
            return EmbeddingSet(data.reshape(len(records), len(header)))
        except NonFinite as err:
            row, column = err.cell
            raise NonFinite(f"{path} line {lines[row]}, field {column + 1}") from None
    (n, d), values = _read_binary(path, EMBEDDING_MAGIC, 2, "<f4")
    if not np.isfinite(values).all():
        offset = 12 + 4 * int(np.argmin(np.isfinite(values)))
        raise NonFinite(f"byte {offset}", offset)
    return EmbeddingSet(values.reshape(n, d))


def write_label_file(labels, path) -> None:
    """Serialize integer labels to the DCL1 layout (or CSV).

    A label is -1 (unknown) or a class index, at most 2^31 - 1 in DCL1's
    int32 cells: anything else raises a ValueError before the file is opened.
    """
    labels = np.asarray(labels, dtype=np.int64)
    binary = not str(path).endswith(".csv")
    top = np.iinfo(np.int32 if binary else np.int64).max
    bad = np.flatnonzero((labels < UNKNOWN_LABEL) | (labels > top))
    if bad.size:
        raise ValueError(f"label {bad[0]} is {labels[bad[0]]}, outside [-1, {top}]")
    if binary:
        _write_binary(path, LABEL_MAGIC, labels.shape, labels.astype("<i4"))
    else:
        _write_csv(path, ["label"], ([label] for label in labels.tolist()))


def read_label_file(path) -> np.ndarray:
    """Parse a DCL1 file (or CSV) into an int64 label array (-1 = unknown)."""
    if str(path).endswith(".csv"):
        _, records, lines = _csv_records(path)
        return np.array([_parse(int, row[0], path, line, 1) for row, line in zip(records, lines)],
                        dtype=np.int64)
    return _read_binary(path, LABEL_MAGIC, 1, "<i4")[1].astype(np.int64)


def _write_binary(path, magic, sizes, cells):
    """The one binary writer: magic, each of sizes as a u32-LE, then cells' bytes in C order."""
    with open(Path(path), "wb") as fh:  # Path: open() takes an int as a file descriptor
        fh.write(magic + struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(cells.tobytes())


def _read_binary(path, magic, dims, dtype):
    """The one binary parser: the dims u32-LE sizes after magic, and the cells that follow.

    Raises BadMagic at byte 0, PayloadOverflow at byte 4 when two sizes
    multiply past _MAX_ELEMENTS, and TruncatedPayload at the first byte the
    header or the payload of 4-byte cells lacks or holds beyond its end.
    """
    with open(Path(path), "rb") as fh:  # Path: open() takes an int as a file descriptor
        raw = fh.read()
    if raw[:4] != magic:
        raise BadMagic(0, raw[:4])
    start = 4 + 4 * dims
    if len(raw) < start:
        raise TruncatedPayload(len(raw), start, len(raw))
    sizes = struct.unpack(f"<{dims}I", raw[4:start])
    count = math.prod(sizes)
    if dims == 2 and count > _MAX_ELEMENTS:
        raise PayloadOverflow(4, *sizes)
    expected = start + 4 * count
    if len(raw) != expected:
        raise TruncatedPayload(min(len(raw), expected), expected, len(raw))
    return sizes, np.frombuffer(raw, dtype=dtype, count=count, offset=start)


def _write_csv(path, header, rows):
    """The one CSV writer: the header row, then rows; a float field is written as its repr."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _parse(parse, token, path, line, field):
    """parse(token), or a ValueError naming the token and its path, 1-based line and field."""
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"{path} line {line}, field {field}: "
                         f"cannot parse {token!r} as {parse.__name__}") from None


def l2_normalize(embedding_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm; labels pass through.

    Each row is divided in float64 by the root of its float64 sum of squares
    and rounded once to float32, _TILE_COLS rows at a time: no n x d float64
    copy is made.
    """
    vectors = embedding_set.vectors
    out = np.empty(vectors.shape, dtype=np.float32)
    for lo, rows in _float64_rows(vectors):
        norms = np.sqrt((rows * rows).sum(axis=1))
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroVector(lo + int(zero[0]))
        out[lo : lo + len(rows)] = np.divide(rows, norms[:, None], out=rows)
    return EmbeddingSet(out, embedding_set.labels)


def _float64_rows(vectors):
    """(lo, vectors[lo : lo + _TILE_COLS] as float64) for each chunk of rows, in order.

    Every chunk is a view of one buffer, which the next chunk overwrites.
    Row-wise float64 arithmetic on the chunks gives the bits it gives on a
    whole float64 copy, which is never made. In a fresh process the row sums
    of 8k x 64 points took 0.6 ms in one buffer and 2.0 ms in a new array per
    chunk (2 cores).
    """
    buf = np.empty((min(_TILE_COLS, len(vectors)), vectors.shape[1]))
    for lo in range(0, len(vectors), _TILE_COLS):
        rows = buf[: len(vectors) - lo]
        rows[...] = vectors[lo : lo + len(rows)]
        yield lo, rows


def _sq_dists(points, center):
    """Exact squared distances from each row of points to center.

    The package's one distance rule; every exactness contract compares it.
    """
    diff = points - center
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=-1)


def _pair_sq_dists(points, a, b):
    """_sq_dists(points[a], points[b]) in float64, gathering at most _REFINE_PAIRS pairs at a time.

    points may be float32, as the vectors of _gram_inputs are: the gathered
    rows are cast to float64, the values a float64 copy of points would hold.
    """
    out = np.empty(len(a))
    for lo in range(0, len(a), _REFINE_PAIRS):
        part = slice(lo, lo + _REFINE_PAIRS)
        out[part] = _sq_dists(points[a[part]].astype(np.float64, copy=False),
                              points[b[part]].astype(np.float64, copy=False))
    return out


def _gram_inputs(embedding_set, extent=0.0):
    """Inputs of a Gram pass whose keys are K_ij = -|x_i - x_j|^2/2, and its slack.

    Returns the float32 vectors, the n x (d + 2) array gram whose row i is
    [x_i, -|x_i|^2/2, 1], and s = 12 (d + 4) u (1 + B) in gram's dtype, where
    B = max |x|^2 + extent and u is the dtype's unit roundoff. The dtype is
    float32 unless d > 2^20 or 4 B would overflow float32; then float64.
    _gram_pairs multiplies these rows into keys. Each |x_i|^2 is a float64
    row sum of one chunk of _float64_rows, so no n x d float64 copy is made;
    the refines gather float32 rows through _pair_sq_dists.

    The lemma that every client of the pass cites, for E, T and s. Let
    M = max |x|^2, v = 2^-53 <= u the float64 unit roundoff, and
    gamma_k = k u / (1 - k u) <= 15 k u / 14, as the dtype rule keeps
    (d + 2) u <= 1/15. A stored -|x|^2/2 is a float64 sum of d squares, off
    by a relative 1.01 d v, rounded once to the dtype, so it is off by at
    most 1.01 (d v + u) M / 2. A key sums d + 2 products whose magnitudes
    add up to at most |x_i| |x_j| + M (1 + 1.01 (d v + u)) <= 2.01 M, so in
    any summation order it is off its stored terms' sum by at most
    2.01 gamma_{d+2} M <= 2.2 (d + 2) u M (Higham, Thm 3.1).
    E: each key, whichever tile shape and orientation made it, is within
    E = 2.2 (d + 2) u M + 1.01 (d v + u) M of -D/2, D = |x_i - x_j|^2
    <= 4 M: at most (2.2 d + 5.5) u M in float32, where d v <= u / 512,
    and (3.3 d + 5.5) u M in float64, where v = u.
    T: the exact float64 distance sq = sum((x_i - x_j)^2) that confirms a
    pair is off D by a relative 1.1 (d + 2) v, so by at most
    4.4 (d + 2) v M, and -2 K is within 2 E of D. So
    |sq - (-2 K)| <= T = 2 E + 4.4 (d + 2) v M <= (11 d + 20) u M, in
    float32 and float64 keys alike.
    s: as stored in gram's dtype, s >= (12 d + 48) (1 - u) u (1 + M + r^2)
    for any r^2 <= extent, so s (1 - 2.02 u) >= T + 2.02 u r^2 with room
    to spare. Its "1 +" also covers float32 underflow.
    """
    vectors = embedding_set.vectors
    n, d = vectors.shape
    sq_norms = np.empty(n)
    for lo, rows in _float64_rows(vectors):
        sq_norms[lo : lo + len(rows)] = np.multiply(rows, rows, out=rows).sum(axis=1)
    bound = float(sq_norms.max(initial=0.0)) + extent
    dtype = np.float32 if d <= 2**20 and 4.0 * bound < 2.0**127 else np.float64
    gram = np.empty((n, d + 2), dtype=dtype)
    gram[:, :d], gram[:, d], gram[:, d + 1] = vectors, -0.5 * sq_norms, 1.0
    slack = dtype(12 * (d + 4) * np.finfo(dtype).eps / 2 * (1.0 + bound))
    return vectors, gram, slack


def _gram_pairs(inputs, rows, cols, keep):
    """The package's one Gram pass: the pairs of rows x cols a hook marks, with their keys.

    inputs is _gram_inputs(...); rows are point indices in any order, cols
    sorted and duplicate-free, so cols holding every point is arange(n) and
    gram itself is the column side. Each row block part = rows[lo : lo + _TILE_ROWS]
    meets cols in tiles of at most _TILE_COLS columns: the tile starting at
    position c0 of cols fills a len(part) x width keys array with the keys of
    part x cols[c0 : c0 + width], and the hook keep(lo, part, c0, keys, mask)
    fills mask, a boolean array of the keys' shape, with the pairs it wants;
    it may overwrite keys. A hook that returns False marks nothing: the tile
    yields no pair and its mask is never read. Every tile's keys and mask are
    contiguous views of one keys buffer and one mask buffer of at most
    _TILE_ROWS x _TILE_COLS cells, allocated once per call. Each marked pair
    is yielded, a tile at a time in (row block, tile, row, column) order, as
    (k, i, j, key): the position k in rows, i = rows[k], j in cols and the
    key as the hook left it. So a row's pairs come in ascending cols order,
    and a column's in rows order. The pass neither compares keys nor
    refines; each client (graph._within, purity.min_impure_distance and
    engine._ball_counts) proves from the lemma of _gram_inputs that it marks
    every pair it needs, and refines with _pair_sq_dists the pairs its keys
    do not decide.

    Upper-triangle mode runs when rows is cols, the way a caller passes one
    set of points for both sides. Then a row block's tiles start at its own
    first column, c0 = lo, so the tiles left of the diagonal are never made,
    and of the tile columns that overlap the block's rows only marked pairs
    past the diagonal are yielded. Each unordered pair {i, j} then comes
    once, as i < j. One key per pair is enough: the bound of _gram_inputs
    holds for any summation order, so for either orientation and any tile
    shape. One refine is enough: _sq_dists is exactly symmetric, as
    (a - b)^2 and (b - a)^2 are equal in IEEE arithmetic.

    The keys are gram[part].take(swap, axis=1) @ gram[cols].T, whose left rows
    are [x_i, 1, -|x_i|^2/2]. take keeps that side C-contiguous; [:, swap] makes
    an F-ordered copy, which slowed the covered-iter bench by about 15% (2 cores).
    """
    vectors, gram, _ = inputs
    swap = np.r_[: vectors.shape[1], -1, -2]
    upper = rows is cols
    tgt = gram if cols.size == gram.shape[0] else gram[cols]
    rows_max, cols_max = min(_TILE_ROWS, rows.size), min(_TILE_COLS, cols.size)
    keys_buf = np.empty(rows_max * cols_max, dtype=gram.dtype)
    mask_buf = np.empty(keys_buf.size, dtype=bool)
    # past[r, c]: position c is past position r, for the tiles on the diagonal.
    past = np.triu(np.ones((rows_max, rows_max), dtype=bool), 1) if upper else None
    for lo in range(0, rows.size if cols.size else 0, _TILE_ROWS):
        part = rows[lo : lo + _TILE_ROWS]
        hi = lo + part.size
        left = gram[part].take(swap, axis=1)
        for c0 in range(lo if upper else 0, cols.size, _TILE_COLS):
            width = min(_TILE_COLS, cols.size - c0)
            keys = keys_buf[: part.size * width].reshape(part.size, width)
            mask = mask_buf[: keys.size].reshape(keys.shape)
            np.matmul(left, tgt[c0 : c0 + width].T, out=keys)
            if keep(lo, part, c0, keys, mask) is False:
                continue
            if upper and c0 < hi:
                overlap = min(width, hi - c0)
                mask[:, :overlap] &= past[: part.size, c0 - lo : c0 - lo + overlap]
            marked = np.flatnonzero(mask)
            cand_row, cand_col = np.divmod(marked, width)
            yield lo + cand_row, part[cand_row], cols[c0 + cand_col], keys_buf.take(marked)


def gen_gaussian_mixture(spec: MixtureSpec) -> EmbeddingSet:
    """Seeded Gaussian mixture; class c is centered at separation * e_(c mod d).

    Pure function of the spec: identical specs give bit-identical output.
    Each class draws its float64 rows _TILE_COLS at a time, the same stream
    as one draw of all its rows, and rounds them to float32 as they come: no
    n x d float64 array is made.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_classes * spec.points_per_class
    points = np.empty((n, spec.dim), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for c in range(spec.num_classes):
        mean = np.zeros(spec.dim)
        mean[c % spec.dim] = spec.class_separation
        start = c * spec.points_per_class
        end = start + spec.points_per_class
        for lo in range(start, end, _TILE_COLS):
            hi = min(lo + _TILE_COLS, end)
            rows = mean + spec.within_std * rng.standard_normal((hi - lo, spec.dim))
            with np.errstate(over="ignore"):  # past float32's range is inf: EmbeddingSet names it
                points[lo:hi] = rows
        labels[start:end] = c
    return EmbeddingSet(points, labels)

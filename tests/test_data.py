import os

import numpy as np
import pytest

import oracles
from dcom import data
from dcom.data import (
    EmbeddingSet,
    _gram_inputs,
    _gram_pairs,
    _pair_sq_dists,
    _sq_dists,
    MixtureSpec,
    gen_gaussian_mixture,
    l2_normalize,
    read_embedding_file,
    read_label_file,
    write_embedding_file,
    write_label_file,
)
from dcom.errors import BadMagic, NonFinite, TruncatedPayload, ZeroVector


def test_binary_round_trip(tmp_path):
    original = EmbeddingSet([[0.0, 0.0], [3.0, 4.0]])
    path = tmp_path / "two.dcm"
    write_embedding_file(original, path)
    loaded = read_embedding_file(path)
    assert loaded.count == 2 and loaded.dim == 2
    assert loaded == original


def test_single_value_file_is_16_bytes(tmp_path):
    path = tmp_path / "one.dcm"
    write_embedding_file(EmbeddingSet([[0.0]]), path)
    assert path.stat().st_size == 16


def test_write_is_deterministic(tmp_path):
    s = gen_gaussian_mixture(MixtureSpec(2, 5, 3, 4.0, 0.5, seed=3))
    a, b = tmp_path / "a.dcm", tmp_path / "b.dcm"
    write_embedding_file(s, a)
    write_embedding_file(s, b)
    assert a.read_bytes() == b.read_bytes()


def test_mixture_round_trip_bit_identical(tmp_path):
    s = gen_gaussian_mixture(MixtureSpec(4, 25, 16, 5.0, 1.0, seed=11))
    path = tmp_path / "mix.dcm"
    write_embedding_file(s, path)
    # Independent oracle: compare raw byte buffers, not parsed values.
    assert path.read_bytes()[12:] == s.vectors.tobytes()
    assert np.array_equal(read_embedding_file(path).vectors, s.vectors)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.dcm"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(BadMagic) as err:
        read_embedding_file(path)
    assert err.value.offset == 0


def test_truncated_payload(tmp_path):
    good = tmp_path / "good.dcm"
    write_embedding_file(EmbeddingSet([[1.0, 2.0]]), good)
    bad = tmp_path / "bad.dcm"
    bad.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(TruncatedPayload):
        read_embedding_file(bad)


def test_non_finite_rejected():
    with pytest.raises(NonFinite, match=r"^non-finite value at row 0, column 1$") as err:
        EmbeddingSet([[1.0, np.nan]])
    assert err.value.offset is None
    with pytest.raises(NonFinite, match=r"row 2, column 0$"):
        EmbeddingSet([[1.0, 2.0], [3.0, 4.0], [np.inf, 0.0]])


def test_non_finite_in_csv_names_its_line_and_field(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(NonFinite, match=r"nan\.csv line 3, field 2$") as err:
        read_embedding_file(path)
    assert err.value.offset is None


# float32 overflows past about 3.4e38, so 1e40 becomes inf in the one cast,
# EmbeddingSet's: tier-1 runs with RuntimeWarning as an error, so a cast that
# warned would raise RuntimeWarning here rather than NonFinite.
def test_values_past_float32_range_are_non_finite(tmp_path):
    with pytest.raises(NonFinite, match=r"^non-finite value at row 0, column 1$"):
        EmbeddingSet([[1.0, 1e40]])
    path = tmp_path / "big.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,1e40\n")
    with pytest.raises(NonFinite, match=r"big\.csv line 3, field 2$"):
        read_embedding_file(path)
    with pytest.raises(NonFinite, match=r"^non-finite value at row 0, column 0$"):
        gen_gaussian_mixture(MixtureSpec(2, 3, 4, 1e40, 1.0))


def test_non_finite_on_disk(tmp_path):
    path = tmp_path / "nan.dcm"
    payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
    path.write_bytes(b"DCM1" + (2).to_bytes(4, "little") + (1).to_bytes(4, "little") + payload)
    with pytest.raises(NonFinite) as err:
        read_embedding_file(path)
    assert err.value.offset == 16 and str(err.value) == "non-finite value at byte 16"


@pytest.mark.parametrize("read", [read_embedding_file, read_label_file])
def test_readers_reject_a_file_descriptor(read):
    # open() would read descriptor 0, stdin, for a path given as the integer 0.
    with pytest.raises(TypeError):
        read(0)


@pytest.mark.parametrize("write, value", [(write_embedding_file, EmbeddingSet([[1.0]])),
                                          (write_label_file, [1])])
def test_writers_reject_a_file_descriptor(write, value):
    # open() would write to the descriptor, then close it.
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(TypeError):
            write(value, write_end)
        os.fstat(write_end)  # still open
        os.set_blocking(read_end, False)
        with pytest.raises(BlockingIOError):  # and nothing was written
            os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.close(write_end)


def test_label_file_round_trip(tmp_path):
    labels = np.array([0, 3, -1, 2])
    path = tmp_path / "labels.dcl"
    write_label_file(labels, path)
    assert np.array_equal(read_label_file(path), labels)


def test_csv_round_trip(tmp_path):
    s = gen_gaussian_mixture(MixtureSpec(2, 4, 3, 4.0, 0.5, seed=1))
    path = tmp_path / "pts.csv"
    write_embedding_file(s, path)
    assert np.array_equal(read_embedding_file(path).vectors, s.vectors)
    lpath = tmp_path / "labels.csv"
    write_label_file(s.labels, lpath)
    assert np.array_equal(read_label_file(lpath), s.labels)


def test_l2_normalize_345():
    out = l2_normalize(EmbeddingSet([[3.0, 4.0]]))
    assert np.allclose(out.vectors, [[0.6, 0.8]], atol=1e-6)


def test_l2_normalize_unit_row_unchanged():
    out = l2_normalize(EmbeddingSet([[1.0, 0.0]]))
    assert np.allclose(out.vectors, [[1.0, 0.0]], atol=1e-7)


def test_l2_normalize_zero_vector():
    with pytest.raises(ZeroVector) as err:
        l2_normalize(EmbeddingSet([[1.0, 0.0], [0.0, 0.0]]))
    assert err.value.row == 1


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(5)
    s = EmbeddingSet(rng.normal(size=(40, 8)) + 0.1)
    once = l2_normalize(s)
    twice = l2_normalize(once)
    assert np.abs(once.vectors - twice.vectors).max() < 1e-6
    norms = np.linalg.norm(once.vectors.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_sq_dists_equals_inline_difference_rule(offset):
    rng = np.random.default_rng(11)
    points = rng.normal(size=(300, 17)) + offset
    for center in (points[5], rng.normal(size=17) + offset):
        diff = points - center
        assert np.array_equal(_sq_dists(points, center), (diff * diff).sum(axis=1))
    pairs = points[::-1]
    diff = points - pairs
    assert np.array_equal(_sq_dists(points, pairs), (diff * diff).sum(axis=1))


# One-cell tiles, tiles narrower or wider than they are tall, and the default.
TILES = [(1, 1), (7, 3), (3, 7), (data._TILE_ROWS, data._TILE_COLS)]


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("every_column", [False, True])
def test_gram_pairs_yields_each_marked_pair_once_in_order(monkeypatch, tile, every_column):
    oracles.set_tile(monkeypatch, tile)
    rows_per, cols_per = tile
    rng = np.random.default_rng(rows_per + 10 * cols_per + 100 * every_column)
    inputs = _gram_inputs(EmbeddingSet(rng.normal(size=(40, 5))))
    rows = rng.integers(0, 40, size=30)  # unsorted, with repeats
    cols = np.arange(40) if every_column else np.sort(rng.choice(40, size=25, replace=False))
    marks = rng.uniform(size=(rows.size, cols.size)) < 0.3
    tiles = []

    def keep(lo, part, c0, keys, mask):
        assert np.array_equal(part, rows[lo : lo + rows_per])
        width = min(cols_per, cols.size - c0)
        assert keys.shape == mask.shape == (part.size, width) and mask.dtype == bool
        tiles.append((lo, c0))
        mask[...] = marks[lo : lo + part.size, c0 : c0 + width]
        # The hook may overwrite keys, and the pass, which compares none, yields them as left.
        keys[...] = np.arange(lo, lo + part.size)[:, None] * cols.size + np.arange(c0, c0 + width)

    k, i, j, key = map(np.concatenate, zip(*_gram_pairs(inputs, rows, cols, keep)))
    assert tiles == [(lo, c0) for lo in range(0, rows.size, rows_per)
                     for c0 in range(0, cols.size, cols_per)]
    # (row block, tile, row, column) order.
    want_k, want_c = [], []
    for lo, c0 in tiles:
        r, c = np.nonzero(marks[lo : lo + rows_per, c0 : c0 + cols_per])
        want_k.append(lo + r)
        want_c.append(c0 + c)
    want_k, want_c = np.concatenate(want_k), np.concatenate(want_c)
    assert 0 < want_k.size < marks.size and want_k.size == marks.sum()
    assert np.array_equal(k, want_k) and np.array_equal(i, rows[want_k])
    assert np.array_equal(j, cols[want_c])
    assert key.dtype == inputs[1].dtype
    assert np.array_equal(key, want_k * cols.size + want_c)


@pytest.mark.parametrize("tile", TILES)
def test_gram_pairs_upper_mode_yields_each_marked_pair_once_past_the_diagonal(monkeypatch,
                                                                              tile):
    # rows is cols: a row block's tiles start at its first row's column, and
    # marks on or below the diagonal are dropped.
    oracles.set_tile(monkeypatch, tile)
    rows_per, cols_per = tile
    rng = np.random.default_rng(200 + rows_per + 10 * cols_per)
    inputs = _gram_inputs(EmbeddingSet(rng.normal(size=(40, 5))))
    rows = np.arange(40)
    marks = rng.uniform(size=(40, 40)) < 0.3
    every_key = np.full((40, 40), np.nan)
    tiles = []

    def keep(lo, part, c0, keys, mask):
        assert part.size == min(rows_per, 40 - lo)
        assert keys.shape == mask.shape == (part.size, min(cols_per, 40 - c0))
        tiles.append((lo, c0))
        c1 = c0 + keys.shape[1]
        mask[...] = marks[lo : lo + part.size, c0:c1]
        every_key[lo : lo + part.size, c0:c1] = keys

    k, i, j, key = map(np.concatenate, zip(*_gram_pairs(inputs, rows, rows, keep)))
    assert tiles == [(lo, c0) for lo in range(0, 40, rows_per) for c0 in range(lo, 40, cols_per)]
    want = []
    for lo, c0 in tiles:
        r, c = np.nonzero(np.triu(marks, 1)[lo : lo + rows_per, c0 : c0 + cols_per])
        want.append(np.column_stack((lo + r, c0 + c)))
    want = np.concatenate(want)
    assert 0 < want.shape[0] < 40 * 39 // 2 and want.shape[0] == np.triu(marks, 1).sum()
    assert np.array_equal(np.column_stack((i, j)), want) and np.array_equal(k, i)
    # The keys as the GEMM left them, -|x_i - x_j|^2/2 up to rounding.
    assert np.array_equal(key, every_key[i, j])
    points = inputs[0]
    assert np.allclose(-2 * key, _sq_dists(points[i], points[j]), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("upper", [False, True])
def test_gram_pairs_reuses_one_tile_sized_buffer(monkeypatch, upper):
    # Every tile's keys and mask are views of one buffer of _TILE_ROWS x
    # _TILE_COLS cells, whatever the number of points: the pass's memory bound.
    oracles.set_tile(monkeypatch, (8, 16))
    rng = np.random.default_rng(300 + upper)
    inputs = _gram_inputs(EmbeddingSet(rng.normal(size=(200, 5))))
    rows = np.arange(200)
    seen = []

    def keep(lo, part, c0, keys, mask):
        assert keys.size <= 8 * 16 and mask.size == keys.size
        assert keys.flags.c_contiguous and mask.flags.c_contiguous
        seen.append((keys, mask))
        np.greater_equal(keys, np.median(keys), out=mask)

    pairs = list(_gram_pairs(inputs, rows, rows if upper else rows.copy(), keep))
    assert len(seen) == sum(len(range(lo if upper else 0, 200, 16)) for lo in range(0, 200, 8))
    assert sum(i.size for _, i, _, _ in pairs) > 0
    first_keys, first_mask = seen[0]
    for keys, mask in seen:
        assert keys.base is first_keys.base and mask.base is first_mask.base
        assert np.shares_memory(keys, first_keys) and np.shares_memory(mask, first_mask)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e20])
def test_sq_dists_is_exactly_symmetric(scale):
    # The symmetric Gram pass refines each unordered pair once for both orders.
    rng = np.random.default_rng(12)
    points = rng.normal(size=(500, 33)) * scale + rng.normal(size=33) * scale
    other = points[rng.permutation(500)]
    assert np.array_equal(_sq_dists(points, other), _sq_dists(other, points))


def test_mixture_determinism_and_counts():
    spec = MixtureSpec(3, 10, 4, 6.0, 1.0, seed=7)
    a = gen_gaussian_mixture(spec)
    b = gen_gaussian_mixture(spec)
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.count == 30
    assert [int((a.labels == c).sum()) for c in range(3)] == [10, 10, 10]


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(0, 10, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        MixtureSpec(2, 10, 4, 1.0, 0.0)


# A small chunk, and data._TILE_COLS as shipped: the chunked float64 passes
# of l2_normalize, gen_gaussian_mixture and _gram_inputs run data._TILE_COLS
# rows at a time.
CHUNKS = (5, data._TILE_COLS)


def chunk_sizes(chunk):
    """Row counts at and around the chunk boundaries."""
    return (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_l2_normalize_equals_whole_array_formula(monkeypatch, chunk):
    monkeypatch.setattr(data, "_TILE_COLS", chunk)
    rng = np.random.default_rng(chunk)
    for n in chunk_sizes(chunk):
        d = int(rng.integers(1, 10))
        # Row scales from float32's subnormals to near its largest value.
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-40, 37, size=(n, 1))
        s = EmbeddingSet(pts, labels=rng.integers(0, 3, size=n))
        got, want = l2_normalize(s), oracles.l2_normalize(s)
        assert got.vectors.dtype == np.float32 and np.array_equal(got.vectors, want.vectors), n
        assert np.array_equal(got.labels, s.labels)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_l2_normalize_names_the_first_zero_row_in_a_later_chunk(monkeypatch, chunk):
    monkeypatch.setattr(data, "_TILE_COLS", chunk)
    pts = np.random.default_rng(3).normal(size=(3 * chunk + 5, 4))
    pts[[2 * chunk + 3, 3 * chunk + 1]] = 0.0
    s = EmbeddingSet(pts)
    with pytest.raises(ZeroVector) as want:
        oracles.l2_normalize(s)
    with pytest.raises(ZeroVector) as got:
        l2_normalize(s)
    assert got.value.row == want.value.row == 2 * chunk + 3
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_mixture_equals_whole_array_formula(monkeypatch, chunk):
    monkeypatch.setattr(data, "_TILE_COLS", chunk)
    for k, per_class in enumerate(chunk_sizes(chunk)[1:]):
        spec = MixtureSpec(3, per_class, 1 + 2 * k, 6.0, 0.5, seed=k)
        got, want = gen_gaussian_mixture(spec), oracles.gaussian_mixture(spec)
        assert got.vectors.dtype == np.float32 and np.array_equal(got.vectors, want.vectors)
        assert np.array_equal(got.labels, want.labels)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_mixture_past_float32_range_names_the_cell_of_the_whole_array_formula(monkeypatch,
                                                                               chunk):
    # RuntimeWarnings fail the suite, so the overflow must raise NonFinite alone.
    monkeypatch.setattr(data, "_TILE_COLS", chunk)
    per_class, seed = 3 * chunk + 5, 1
    draws = np.random.default_rng(seed).standard_normal(2 * per_class)
    # The largest draw, past the first chunk, times within_std passes float32's
    # range; every draw in the first chunk times within_std stays inside it.
    std = 3.5e38 / np.abs(draws[chunk:]).max()
    assert np.abs(draws[:chunk]).max() * std < np.finfo(np.float32).max
    spec = MixtureSpec(2, per_class, 1, 1e-30, std, seed=seed)
    with pytest.raises(NonFinite) as want:
        oracles.gaussian_mixture(spec)
    with pytest.raises(NonFinite) as got:
        gen_gaussian_mixture(spec)
    assert got.value.cell == want.value.cell and got.value.cell[0] >= chunk
    assert str(got.value) == str(want.value)


def gram_inputs_match_whole_array_formula(s, extent):
    vectors, gram, slack = _gram_inputs(s, extent)
    want_gram, want_slack = oracles.gram_inputs(s, extent)
    assert vectors is s.vectors
    assert gram.dtype == want_gram.dtype and np.array_equal(gram, want_gram)
    assert slack.dtype == want_slack.dtype and slack == want_slack


@pytest.mark.parametrize("chunk", CHUNKS)
def test_gram_inputs_equal_whole_array_formula(monkeypatch, chunk):
    monkeypatch.setattr(data, "_TILE_COLS", chunk)
    rng = np.random.default_rng(chunk + 1)
    for n in chunk_sizes(chunk):
        # Scales whose |x|^2 fit float32 keys, and 1e20, whose keys are float64.
        scale = rng.choice([1e-3, 1.0, 1e20])
        gram_inputs_match_whole_array_formula(
            EmbeddingSet(rng.normal(size=(n, int(rng.integers(1, 10)))) * scale), scale)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("family", oracles.GRAM_FAMILIES)
def test_gram_inputs_equal_whole_array_formula_on_gram_families(monkeypatch, family, chunk):
    rng = np.random.default_rng(sum(map(ord, family)))
    monkeypatch.setattr(data, "_TILE_COLS", chunk)
    for _ in range(4):
        s, _, radius = oracles.gram_case(family, rng)
        gram_inputs_match_whole_array_formula(s, radius * radius)


def test_pair_sq_dists_of_float32_rows_equals_a_float64_copys():
    rng = np.random.default_rng(8)
    vectors = EmbeddingSet(rng.normal(size=(300, 7)) * 1e3 + 5.0).vectors
    a, b = rng.integers(0, 300, size=(2, 2 * data._REFINE_PAIRS + 3))
    points = vectors.astype(np.float64)
    assert np.array_equal(_pair_sq_dists(vectors, a, b), _sq_dists(points[a], points[b]))
    assert np.array_equal(_pair_sq_dists(points, a, b), _sq_dists(points[a], points[b]))

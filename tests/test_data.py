import numpy as np
import pytest

from dcom import data
from dcom.data import (
    EmbeddingSet,
    _gram_inputs,
    _gram_pairs,
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


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("every_column", [False, True])
def test_gram_pairs_yields_every_key_at_or_above_its_floor(monkeypatch, block, every_column):
    monkeypatch.setattr(data, "_GRAM_ROWS", block)
    rng = np.random.default_rng(block + 100 * every_column)
    inputs = _gram_inputs(EmbeddingSet(rng.normal(size=(40, 5))))
    rows = rng.integers(0, 40, size=30)  # unsorted, with repeats
    cols = np.arange(40) if every_column else np.sort(rng.choice(40, size=25, replace=False))
    floors = rng.normal(-5.0, 2.0, size=rows.size).astype(inputs[1].dtype)
    blocks = []

    def floor_of(lo, part, keys, scratch):
        assert np.array_equal(part, rows[lo : lo + block])
        assert keys.shape[0] <= data._GRAM_ROWS
        assert scratch.shape == keys.shape and scratch.dtype == bool
        scratch[...] = True  # lent: the pass overwrites it
        blocks.append(keys.copy())
        return floors[lo : lo + part.size, None]

    k, i, j, sq = map(np.concatenate, zip(*_gram_pairs(inputs, rows, cols, floor_of)))
    keys = np.concatenate(blocks)
    assert keys.shape == (rows.size, cols.size)
    want_k, want_c = np.nonzero(keys >= floors[:, None])
    assert 0 < want_k.size < keys.size
    assert np.array_equal(k, want_k) and np.array_equal(i, rows[want_k])
    assert np.array_equal(j, cols[want_c])
    points = inputs[0]
    assert np.array_equal(sq, _sq_dists(points[i], points[j]))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_gram_pairs_upper_mode_yields_each_pair_once_past_the_diagonal(monkeypatch, block):
    # rows is cols: strip k meets only the columns from its first row onward.
    monkeypatch.setattr(data, "_GRAM_ROWS", block)
    rng = np.random.default_rng(200 + block)
    inputs = _gram_inputs(EmbeddingSet(rng.normal(size=(40, 5))))
    rows = np.arange(40)
    floors = rng.normal(-5.0, 2.0, size=rows.size).astype(inputs[1].dtype)
    keys = np.full((40, 40), -np.inf)

    def floor_of(lo, part, block_keys, scratch):
        assert block_keys.shape == scratch.shape == (part.size, 40 - lo)
        assert part.size == min(block, 40 - lo) <= data._GRAM_ROWS
        scratch[...] = True  # lent: the pass overwrites it
        keys[lo : lo + part.size, lo:] = block_keys
        return floors[lo : lo + part.size, None]

    k, i, j, sq = map(np.concatenate, zip(*_gram_pairs(inputs, rows, rows, floor_of)))
    want_i, want_j = np.nonzero(np.triu(keys >= floors[:, None], 1))
    assert 0 < want_i.size < 40 * 39 // 2
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j) and np.array_equal(k, i)
    points = inputs[0]
    assert np.array_equal(sq, _sq_dists(points[i], points[j]))


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

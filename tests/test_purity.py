import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from dcom import data, purity
from dcom.data import (
    _TILE_COLS,
    _TILE_ROWS,
    EmbeddingSet,
    MixtureSpec,
    gen_gaussian_mixture,
    l2_normalize,
)
from dcom.errors import DimensionMismatch, NoDeltaMeetsAlpha
from dcom.purity import (
    PurityCurve,
    estimate_purity_curve,
    kmeans_cluster,
    min_impure_distance,
    select_initial_delta,
)

import oracles
from oracles import is_pure_ball


def one_d(*values):
    return EmbeddingSet(np.array(values, dtype=np.float64)[:, None])


def brute_force_two_partition(points):
    """Best 2-partition by within-cluster SSE, by full enumeration."""
    n = len(points)
    best, best_sse = None, np.inf
    for bits in itertools.product([0, 1], repeat=n):
        if len(set(bits)) < 2:
            continue
        sse = 0.0
        for c in (0, 1):
            members = np.array([p for p, b in zip(points, bits) if b == c])
            sse += ((members - members.mean()) ** 2).sum()
        if sse < best_sse:
            best_sse, best = sse, bits
    return best


def test_kmeans_recovers_optimal_two_partition():
    points = [0.0, 0.1, 10.0, 10.1]
    labels = kmeans_cluster(one_d(*points), k=2, seed=0)
    oracle = brute_force_two_partition(points)
    same = all((labels[i] == labels[j]) == (oracle[i] == oracle[j])
               for i in range(4) for j in range(4))
    assert same


def test_kmeans_k1_and_kn():
    s = one_d(0.0, 1.0, 2.0)
    assert list(kmeans_cluster(s, 1, seed=0)) == [0, 0, 0]
    labels = kmeans_cluster(s, 3, seed=4)
    assert sorted(labels) == [0, 1, 2]


def test_kmeans_deterministic_and_nonempty():
    s = gen_gaussian_mixture(MixtureSpec(4, 20, 5, 8.0, 1.0, seed=2))
    a = kmeans_cluster(s, 4, seed=13)
    b = kmeans_cluster(s, 4, seed=13)
    assert np.array_equal(a, b)
    assert all((a == c).any() for c in range(4))


def test_kmeans_errors():
    s = one_d(0.0, 1.0)
    with pytest.raises(ValueError):
        kmeans_cluster(s, 0)
    with pytest.raises(ValueError):
        kmeans_cluster(s, 3)


def test_kmeans_recovers_planted_partition():
    s = gen_gaussian_mixture(MixtureSpec(2, 30, 6, 100.0, 1.0, seed=5))
    labels = kmeans_cluster(s, 2, seed=9)
    # Same partition as the planted labels, up to label permutation.
    first_cluster = labels == labels[0]
    first_class = s.labels == s.labels[0]
    assert np.array_equal(first_cluster, first_class)


def _kmeans_mixture(separation):
    def make(rng):
        spec = MixtureSpec(int(rng.integers(2, 6)), int(rng.integers(5, 40)),
                           int(rng.integers(2, 20)), separation, 1.0, int(rng.integers(1000)))
        s = gen_gaussian_mixture(spec)
        return s, int(rng.integers(1, 2 * spec.num_classes + 1))

    return make


def _kmeans_gram_family(family):
    def make(rng):
        s, _, _ = oracles.gram_case(family, rng)
        return s, int(rng.integers(1, s.count + 1))

    return make


def _kmeans_duplicates(rng):
    # Few distinct points, many copies, and k close to n: once the seeding
    # runs out of distinct points, clusters come out empty and the repair
    # moves the farthest point into them.
    pts = rng.normal(size=(int(rng.integers(2, 6)), 3))
    s = EmbeddingSet(pts[rng.integers(0, len(pts), size=int(rng.integers(6, 30)))])
    return s, int(rng.integers(max(s.count - 3, 1), s.count + 1))


def _kmeans_far_from_origin(rng):
    # Overlapping clusters 1e7 from the origin in 16 dimensions: |x|^2 is
    # about 1.6e15, the keys are off the exact distances by up to about 0.25,
    # and many points lie within the keys' bound of a second centroid.
    s = gen_gaussian_mixture(MixtureSpec(3, 40, 16, 1.0, 1.0, int(rng.integers(1000))))
    return EmbeddingSet(s.vectors.astype(np.float64) + 1e7), int(rng.integers(2, 6))


def _kmeans_mirrored_far(rng):
    # Copies of a centre 1e7 from the origin in 128 dimensions, then points
    # centre +- v for coordinate permutations v of one integer vector, all
    # exact in float32. Each is at one exact distance from the centre, so
    # ties abound; |x|^2 passes 2^53, so their keys differ by rounding, and
    # only the exact refine gives the seeding's ties to the lowest index.
    centre = rng.integers(10**7, 10**7 + 1000, size=128).astype(np.float64)
    v = rng.integers(-3, 4, size=128)
    shifts = [sign * rng.permutation(v) for _ in range(3) for sign in (1, -1)]
    copies = np.repeat(centre[None], int(rng.integers(3, 9)), axis=0)
    return EmbeddingSet(np.concatenate((copies, centre + shifts))), int(rng.integers(2, 6))


def _kmeans_symmetric_line(rng):
    # x, -x and 0 on a line: with two centroids at +-c, 0 is exactly equidistant.
    half = np.sort(rng.uniform(0.1, 3.0, size=int(rng.integers(1, 6))))
    s = one_d(*np.concatenate((-half, [0.0], half)))
    return s, int(rng.integers(2, 4))


def _kmeans_k_is_n(rng):
    s = EmbeddingSet(rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 5)))))
    return s, s.count


def _kmeans_k_is_one(rng):
    s, _ = _kmeans_mixture(1.0)(rng)
    return s, 1


_KMEANS_CASES = {
    "separated": _kmeans_mixture(8.0),
    "overlapping": _kmeans_mixture(0.5),
    "lattice": _kmeans_gram_family("lattice"),
    "scale_1e20": _kmeans_gram_family("scale_1e20"),
    "d4096": _kmeans_gram_family("d4096"),
    "duplicates": _kmeans_duplicates,
    "far_from_origin": _kmeans_far_from_origin,
    "mirrored_far": _kmeans_mirrored_far,
    "symmetric_line": _kmeans_symmetric_line,
    "k_is_n": _kmeans_k_is_n,
    "k_is_one": _kmeans_k_is_one,
}


@pytest.mark.parametrize("case", sorted(_KMEANS_CASES))
def test_kmeans_matches_the_full_pass_oracle(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(8):
        s, k = _KMEANS_CASES[case](rng)
        seed = int(rng.integers(100))
        want = oracles.kmeans_cluster(s, k, seed)
        assert np.array_equal(kmeans_cluster(s, k, seed), want)


def _exact_calls(monkeypatch):
    """Record (rows, centre ndim) of each _sq_dists call k-means makes from here on."""
    calls, exact = [], purity._sq_dists

    def counting(points, center):
        calls.append((len(points), np.ndim(center)))
        return exact(points, center)

    monkeypatch.setattr(purity, "_sq_dists", counting)
    return calls


def test_kmeans_repairs_empty_clusters_like_the_oracle(monkeypatch):
    # Two distinct points with copies and k = 3: the third seed repeats a
    # point, its cluster comes out empty, and the repair, whose one call has
    # a centroid per row, fills it.
    calls = _exact_calls(monkeypatch)
    s = one_d(0.0, 0.0, 5.0)
    for seed in range(4):
        calls.clear()
        labels = kmeans_cluster(s, 3, seed)
        assert (s.count, 2) in calls
        assert np.array_equal(labels, oracles.kmeans_cluster(s, 3, seed))
        assert sorted(labels) == [0, 1, 2]


@pytest.mark.parametrize("rows, k", [
    ([[1.0]] * 4, 4),
    ([[1.0]] * 4, 1),
    ([[0.0], [0.0], [5.0], [5.0], [5.0]], 2),
    ([[0.0], [0.0], [5.0], [5.0], [5.0]], 3),
    ([[0.0], [0.0], [5.0], [5.0], [5.0]], 5),
    ([[0.0, 1.0], [2.0, 2.0]] * 3 + [[0.0, 1.0]], 6),
])
def test_kmeans_on_duplicate_points_leaves_no_cluster_empty(rows, k):
    # k at and above the distinct count: the seeding repeats a point, and the
    # repair once moved one zero-distance point from cluster to cluster,
    # leaving an empty cluster whose mean was NaN ("Mean of empty slice").
    s = EmbeddingSet(rows)
    for seed in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = kmeans_cluster(s, k, seed)
        assert np.array_equal(np.unique(labels), np.arange(k))
        assert np.array_equal(labels, oracles.kmeans_cluster(s, k, seed))


def test_the_seeding_skips_chosen_points_and_keeps_the_oracles_labels():
    # Once every point equals a center, the oracle's seeding over all points
    # re-picks the lowest index, a chosen point, while _farthest_first picks
    # the lowest point not chosen: another copy, so the labels cannot change.
    rng = np.random.default_rng(11)
    differ = 0
    for _ in range(40):
        s, k = _kmeans_duplicates(rng)
        seed = int(rng.integers(100))
        want = oracles.kmeans_seeds(s, k, seed)
        points = s.vectors.astype(np.float64)
        norms, others = (points**2).sum(axis=1), np.arange(s.count) != want[0]
        got = [want[0], *purity._farthest_first(points, norms, want[:1], others, k - 1)]
        differ += got != want
        assert np.array_equal(kmeans_cluster(s, k, seed), oracles.kmeans_cluster(s, k, seed))
    assert differ


@pytest.mark.parametrize("case", ["far_from_origin", "symmetric_line", "lattice"])
def test_kmeans_refines_the_rows_its_keys_do_not_decide(monkeypatch, case):
    # A call on fewer than n rows is a refine, of the seeding or of a round
    # (the empty-cluster repair's call has n rows); these cases must reach
    # one, and still match the oracle.
    calls = _exact_calls(monkeypatch)
    rng = np.random.default_rng(7)
    refined = 0
    for _ in range(8):
        s, k = _KMEANS_CASES[case](rng)
        calls.clear()
        labels = kmeans_cluster(s, k, seed=3)
        refined += sum(rows for rows, _ in calls if rows < s.count)
        assert np.array_equal(labels, oracles.kmeans_cluster(s, k, seed=3))
    assert refined > 0


def test_kmeans_keys_decide_separated_points_without_a_refine(monkeypatch):
    calls = _exact_calls(monkeypatch)
    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(10, 60, 64, 6.0, 1.0, seed=0)))
    labels = kmeans_cluster(s, 10, seed=0)
    # Neither the seeding nor a round makes an exact pass over every point.
    assert [rows for rows, _ in calls if rows == s.count] == []
    assert np.array_equal(labels, oracles.kmeans_cluster(s, 10, seed=0))


@pytest.mark.parametrize("k", [True, np.bool_(True), 2.5, np.float64(2.0), "3", None])
def test_kmeans_names_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=r"k must be an integer, got"):
        kmeans_cluster(one_d(0.0, 1.0, 2.0), k)


def test_kmeans_rounds_copy_no_points():
    # Beside its one n x d float64 copy of the points, a round holds k x n
    # keys and one cluster's rows at a time: no second n x d array.
    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(8, 1000, 64, 6.0, 1.0, seed=0)))
    tracemalloc.start()
    try:
        labels = kmeans_cluster(s, 8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * s.vectors.size * 8, peak
    assert np.array_equal(labels, oracles.kmeans_cluster(s, 8, seed=0))


def test_kmeans_takes_numpy_integers():
    s = one_d(0.0, 0.1, 10.0)
    for k in (np.int64(2), np.int32(2), np.uint8(2)):
        assert np.array_equal(kmeans_cluster(s, k), kmeans_cluster(s, 2))


def test_is_pure_ball_examples():
    s = one_d(0.0, 0.2, 0.5)
    labels = [0, 0, 1]
    assert is_pure_ball(s, labels, center=0, delta=0.3)
    assert not is_pure_ball(s, labels, center=0, delta=0.6)
    assert is_pure_ball(s, labels, center=2, delta=0.2)  # singleton ball


def test_purity_curve_examples():
    s = one_d(0.0, 0.2, 0.5)
    labels = [0, 0, 1]
    curve = estimate_purity_curve(s, labels, [0.25, 0.35])
    assert curve.purity[0] == 1.0
    assert curve.purity[1] == pytest.approx(1 / 3)


def test_purity_below_min_pairwise_distance_is_one():
    s = one_d(0.0, 0.3, 0.9)
    curve = estimate_purity_curve(s, [0, 1, 2], [0.29])
    assert curve.purity[0] == 1.0


def test_purity_curve_matches_brute_force_and_monotone():
    s = gen_gaussian_mixture(MixtureSpec(3, 15, 3, 4.0, 1.0, seed=8))
    grid = np.linspace(0.2, 6.0, 25)
    curve = estimate_purity_curve(s, s.labels, grid)
    brute = [
        np.mean([is_pure_ball(s, s.labels, c, d) for c in range(s.count)])
        for d in grid
    ]
    assert np.array_equal(curve.purity, brute)
    assert (np.diff(curve.purity) <= 0).all()


def test_purity_sample_restriction():
    s = gen_gaussian_mixture(MixtureSpec(2, 10, 3, 6.0, 1.0, seed=3))
    sample = [0, 3, 7, 10, 14, 19]
    curve = estimate_purity_curve(s, s.labels, [0.5, 1.0], sample=sample)
    assert len(curve.purity) == 2


def _gaussian(n, d, seed, classes=3):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(rng.standard_normal((n, d))), rng.integers(0, classes, n)


def _mixture(seed):
    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(4, 30, 16, 6.0, 1.0, seed=seed)))
    return s, s.labels


def _lattice(seed):
    # Integer coordinates: many exactly tied distances, within and across labels.
    grid = np.array(list(itertools.product(range(4), repeat=3)), dtype=np.float64)
    rng = np.random.default_rng(seed)
    return EmbeddingSet(grid), rng.integers(0, 3, len(grid))


def _offset(seed):
    s, labels = _gaussian(90, 5, seed)
    return EmbeddingSet(s.vectors.astype(np.float64) + 1e4), labels


def _scaled(scale):
    def make(seed):
        s, labels = _gaussian(70, 4, seed)
        return EmbeddingSet(s.vectors.astype(np.float64) * scale), labels

    return make


def _single_class(seed):
    s, _ = _gaussian(50, 4, seed)
    return s, np.zeros(50, dtype=np.int64)


def _lone_point(seed):
    s, _ = _gaussian(60, 4, seed)
    labels = np.zeros(60, dtype=np.int64)
    labels[seed % 60] = 1
    return s, labels


def _duplicates(seed):
    s, labels = _gaussian(40, 4, seed)
    points = np.concatenate([s.vectors, s.vectors[:10]])
    return EmbeddingSet(points), np.concatenate([labels, (labels[:10] + 1) % 3])


_CASES = {
    "gaussian": lambda seed: _gaussian(150, 8, seed),
    "mixture": _mixture,
    "lattice": _lattice,
    "offset_1e4": _offset,
    # Beyond float32's range for |x|^2, and deep in its underflow.
    "huge": _scaled(1e20),
    "tiny": _scaled(1e-30),
    "single_class": _single_class,
    "two_labels": lambda seed: _gaussian(150, 8, seed, classes=2),
    "own_labels": lambda seed: (_gaussian(60, 4, seed)[0],
                                np.random.default_rng(seed).permutation(60)),
    "lone_point": _lone_point,
    "duplicates": _duplicates,
    "n1": lambda seed: _gaussian(1, 3, seed),
    "n_below_block": lambda seed: _gaussian(7, 3, seed),
    "n_block": lambda seed: _gaussian(_TILE_ROWS, 3, seed),
    "n_not_block_multiple": lambda seed: _gaussian(97, 3, seed),
    # Several row blocks and a partial last one, at a width the GEMM tiles.
    "d64_partial_block": lambda seed: _gaussian(3 * _TILE_ROWS + 5, 64, seed),
}


# The default tile, one-row blocks, and 7-row blocks in 5-column tiles.
_TILES = ((_TILE_ROWS, _TILE_COLS), (1, 64), (7, 5))


@pytest.mark.parametrize("case", sorted(_CASES))
def test_min_impure_distance_matches_loop_oracle(monkeypatch, case):
    for seed in range(3):
        s, labels = _CASES[case](seed)
        expected = oracles.min_impure_distance(s, labels)
        # The default tile and two that put tile boundaries everywhere.
        for tile in _TILES:
            oracles.set_tile(monkeypatch, tile)
            got = min_impure_distance(s, labels)
            assert np.array_equal(got, expected)
    if case == "single_class":
        assert np.isinf(got).all()
    if case == "duplicates":
        assert (got[:10] == 0.0).all()


@pytest.mark.parametrize("family", oracles.GRAM_FAMILIES)
def test_min_impure_distance_matches_loop_oracle_on_the_gram_corpus(monkeypatch, family):
    # The radius graph's adversarial cases. Each centre has a label of its
    # own, so its nearest other point decides its distance: in "shell", the
    # point one float inside the radius.
    rng = np.random.default_rng(sum(map(ord, family)))
    for _ in range(3):
        s, centres, _ = oracles.gram_case(family, rng)
        labels = rng.integers(0, 3, size=s.count)
        labels[centres] = 3 + np.arange(centres.size)
        expected = oracles.min_impure_distance(s, labels)
        for tile in _TILES:
            oracles.set_tile(monkeypatch, tile)
            assert np.array_equal(min_impure_distance(s, labels), expected)
        oracles.set_tile(monkeypatch, _TILES[0])


def test_min_impure_distance_sorts_the_sets_own_rows_without_a_norm_pass(monkeypatch):
    # The label-sorted set gathers the set's filled Gram rows and carries
    # their largest norm, so only the set's first float32 call sums squares.
    passes, float64_rows = [], data._float64_rows

    def counting(vectors):
        passes.append(len(vectors))
        return float64_rows(vectors)

    monkeypatch.setattr(data, "_float64_rows", counting)
    for case in ("gaussian", "mixture", "duplicates", "d64_partial_block"):
        s, labels = _CASES[case](0)
        expected = oracles.min_impure_distance(s, labels)
        passes.clear()
        for _ in range(3):
            assert np.array_equal(min_impure_distance(s, labels), expected), case
        assert passes == [s.count] and s._top is not None, case


def _labels_near_one_per_block(shift):
    # n / _TILE_ROWS labels, plus shift, spread evenly over n points: runs a
    # little longer than a row block at shift -1, each a group of its own,
    # and a little shorter at +1, merging into groups of two.
    def make(seed):
        rows = data._TILE_ROWS
        n = 4 * rows + 3
        s, _ = _gaussian(n, 3, seed)
        return s, np.random.default_rng(seed).permutation(np.arange(n) % (n // rows + shift))

    return make


def _equidistant_across_groups(seed):
    # Point 0 (label 0) is exactly 1 from point 1 (label 1) and point 2
    # (label 2). A row block of far points of each of labels 1 and 2 makes
    # label 1's run close the first group, so 1 and 2 fall in different groups.
    rows = data._TILE_ROWS
    far = np.random.default_rng(seed).normal(size=(2 * rows, 3)) + 100.0
    points = np.concatenate(([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], far))
    return EmbeddingSet(points), np.r_[0, 1, 2, np.repeat([1, 2], rows)]


_GROUP_CASES = {
    "runs_above_a_block": _labels_near_one_per_block(-1),
    "runs_below_a_block": _labels_near_one_per_block(1),
    "equidistant_across_groups": _equidistant_across_groups,
}


@pytest.mark.parametrize("case", sorted(_GROUP_CASES))
def test_min_impure_distance_matches_loop_oracle_as_runs_form_groups(monkeypatch, case):
    # The cases size their label runs by the row blocks in force, so each is made per tile.
    for tile in _TILES:
        oracles.set_tile(monkeypatch, tile)
        for seed in range(3):
            s, labels = _GROUP_CASES[case](seed)
            expected = oracles.min_impure_distance(s, labels)
            assert np.array_equal(min_impure_distance(s, labels), expected)
    if case == "equidistant_across_groups":
        assert expected[0] == 1.0


def test_the_group_table_has_at_most_one_row_per_block_plus_one(monkeypatch):
    # Every point its own label: n runs, grouped into the table's rows.
    made, label_groups = [], purity._label_groups

    def recording(starts, size):
        made.append((label_groups(starts, size), size))
        return made[-1][0]

    monkeypatch.setattr(purity, "_label_groups", recording)
    for tile in _TILES:
        oracles.set_tile(monkeypatch, tile)
        for n in (1, 2, 7, 300, 600):
            s, _ = _gaussian(n, 3, n)
            labels = np.random.default_rng(n).permutation(n)
            assert np.array_equal(min_impure_distance(s, labels),
                                  oracles.min_impure_distance(s, labels))
            bounds, size = made.pop()
            assert bounds[0] == 0 and bounds[-1] == n
            assert bounds.size - 1 <= -(-n // size) + 1
            assert (np.diff(bounds)[:-1] >= size).all()


def test_phase_two_refines_fewer_than_two_pairs_per_point_on_the_init_delta_bench(monkeypatch):
    pairs, exact = [], data._sq_dists

    def counting(points, center):
        pairs.append(len(points))
        return exact(points, center)

    s = l2_normalize(gen_gaussian_mixture(MixtureSpec(10, 600, 64, 6.0, 1.0, seed=0)))
    labels = kmeans_cluster(s, 10, seed=0)
    monkeypatch.setattr(data, "_sq_dists", counting)
    min_impure_distance(s, labels)
    # Phase 1 refines nothing; the running maxima it replaced refined 19,080 pairs.
    assert 0 < sum(pairs) < 2 * s.count


@pytest.mark.parametrize("case", sorted(_CASES))
def test_purity_sample_is_the_full_pass_at_unsorted_repeated_indices(case):
    grid = np.linspace(0.05, 3.0, 12)
    for seed in range(3):
        s, labels = _CASES[case](seed)
        n = s.count
        rng = np.random.default_rng(100 + seed)
        full = oracles.min_impure_distance(s, labels)
        for sample in (rng.permutation(n), rng.integers(0, n, 2 * n + 5), [n - 1, 0, n - 1]):
            curve = estimate_purity_curve(s, labels, grid, sample=sample)
            expected = (full[sample][None, :] > grid[:, None]).mean(axis=1)
            assert np.array_equal(curve.purity, expected)


def _other_label_in_an_earlier_strip(block, rng):
    # Label 1 only among the first rows: every later row meets it only as a column.
    s, _ = _gaussian(3 * block + 4, 4, int(rng.integers(1000)))
    labels = np.zeros(s.count, dtype=np.int64)
    labels[: max(block // 2, 1)] = 1
    return s, labels


def _same_label_strips_first(block, rng):
    # Two row blocks (strips) of label 0 before mixed labels: those blocks'
    # tiles among themselves hold only same-label fills, so their points meet
    # label 1 only in later tiles, and only as rows.
    s, _ = _gaussian(4 * block + 3, 4, int(rng.integers(1000)))
    labels = np.zeros(s.count, dtype=np.int64)
    labels[2 * block :] = rng.integers(0, 2, s.count - 2 * block)
    return s, labels


def _ties_across_strip_boundaries(block, rng):
    # Lattice points, and a copy of the last row of each row block (strip) as
    # the first row of the next, so exact ties and zero distances straddle
    # every row block boundary, and the tiles' column boundaries near them.
    n = 3 * block + 5
    pts = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
    starts = np.arange(block, n, block)
    pts[starts] = pts[starts - 1]
    return EmbeddingSet(pts), rng.integers(0, 3, n)


@pytest.mark.parametrize("block", [1, 7, _TILE_ROWS])
@pytest.mark.parametrize(
    "make",
    [_other_label_in_an_earlier_strip, _same_label_strips_first, _ties_across_strip_boundaries],
)
def test_symmetric_purity_pass_matches_loop_oracle_across_strips(monkeypatch, make, block):
    # Tiles two columns wider than a row block, so a block's rows straddle tiles.
    oracles.set_tile(monkeypatch, (block, block + 2))
    rng = np.random.default_rng(block)
    for _ in range(3):
        s, labels = make(block, rng)
        expected = oracles.min_impure_distance(s, labels)
        assert np.array_equal(min_impure_distance(s, labels), expected)


def test_refine_skips_rows_without_other_labels(monkeypatch):
    pairs, exact = [], data._sq_dists

    def counting(points, center):
        pairs.append(len(points))
        return exact(points, center)

    monkeypatch.setattr(data, "_sq_dists", counting)
    s, _ = _gaussian(100, 4, 0)
    assert np.isinf(min_impure_distance(s, np.zeros(100, dtype=np.int64))).all()
    assert sum(pairs) == 0
    # Separated data: the refine confirms a few columns per row, not all of them.
    mixture = l2_normalize(gen_gaussian_mixture(MixtureSpec(4, 50, 16, 6.0, 1.0, seed=1)))
    min_impure_distance(mixture, mixture.labels)
    assert sum(pairs) < 4 * mixture.count


@pytest.mark.parametrize("count", [3, 40])
def test_label_length_mismatch_is_named(count):
    s, _ = _gaussian(20, 3, 0)
    labels = np.zeros(count, dtype=np.int64)
    for call in (
        lambda: min_impure_distance(s, labels),
        lambda: estimate_purity_curve(s, labels, [0.5]),
    ):
        with pytest.raises(DimensionMismatch, match=rf"\b{count}\b.*\b20\b"):
            call()


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_an_empty_embedding_set_is_named_before_any_pass(monkeypatch, action):
    # Its mean over no centers used to warn "Mean of empty slice", and with
    # warnings ignored the NaN purity failed the curve's [0, 1] check.
    monkeypatch.setattr(purity, "min_impure_distance", None)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match="^the embedding set is empty"):
            estimate_purity_curve(EmbeddingSet(np.zeros((0, 3)), []), [], [0.5])


def test_empty_grid_rejected():
    s = one_d(0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_purity_curve(s, [0, 1], [])


def test_select_initial_delta_scan():
    curve = PurityCurve([0.1, 0.2, 0.3], [1.0, 0.97, 0.90])
    assert select_initial_delta(curve, 0.95) == 0.2


def test_select_initial_delta_boundaries():
    high = PurityCurve([0.1, 0.2, 0.3], [1.0, 0.99, 0.98])
    assert select_initial_delta(high, 0.95) == 0.3
    low = PurityCurve([0.1, 0.2], [0.5, 0.4])
    with pytest.raises(NoDeltaMeetsAlpha):
        select_initial_delta(low, 0.95)


def test_select_matches_linear_scan_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        grid = np.cumsum(rng.uniform(0.05, 0.2, size=10))
        purity = np.sort(rng.uniform(size=10))[::-1]
        curve = PurityCurve(grid, purity)
        alpha = rng.uniform(0.2, 0.99)
        passing = [d for d, p in zip(grid, purity) if p >= alpha]
        if passing:
            assert select_initial_delta(curve, alpha) == passing[-1]
        else:
            with pytest.raises(NoDeltaMeetsAlpha):
                select_initial_delta(curve, alpha)


def test_delta0_exceeds_within_class_spread():
    hits = 0
    for seed in range(20):
        s = l2_normalize(
            gen_gaussian_mixture(MixtureSpec(3, 40, 8, 10.0, 1.0, seed=seed))
        )
        labels = kmeans_cluster(s, 3, seed=seed)
        grid = np.round(np.arange(1, 41) * 0.05, 10)
        delta0 = select_initial_delta(estimate_purity_curve(s, labels, grid), 0.95)
        # within-class spread: median distance to the nearest same-class point
        pts = s.vectors.astype(np.float64)
        nn = []
        for i in range(s.count):
            mask = (s.labels == s.labels[i])
            mask[i] = False
            d = np.sqrt(((pts[mask] - pts[i]) ** 2).sum(axis=1)).min()
            nn.append(d)
        if delta0 > np.median(nn):
            hits += 1
    assert hits >= 19


def test_curve_validation():
    with pytest.raises(ValueError):
        PurityCurve([0.2, 0.1], [1.0, 1.0])
    with pytest.raises(ValueError):
        PurityCurve([0.1, 0.2], [0.5, 0.9])


@pytest.mark.parametrize("grid, bad", [
    ([np.nan], r"nan at index 0"),
    ([np.inf], r"inf at index 0"),
    ([-1.0, 0.5], r"-1\.0 at index 0"),
    ([0.0], r"0\.0 at index 0"),
    ([0.5, np.inf], r"inf at index 1"),
    ([0.1, 0.2, np.nan], r"nan at index 2"),
])
def test_grid_radii_must_be_finite_and_positive(grid, bad):
    message = rf"grid radius {bad} is not finite and positive"
    with pytest.raises(ValueError, match=message):
        PurityCurve(grid, [1.0] * len(grid))
    s = one_d(0.0, 0.2, 0.5)
    with pytest.raises(ValueError, match=message):
        estimate_purity_curve(s, [0, 0, 1], grid)


def test_the_default_grid_passes_the_radius_check():
    assert select_initial_delta(PurityCurve(purity.DEFAULT_GRID, np.ones(40))) == 2.0


@pytest.mark.parametrize("purity", [[np.nan, 0.5], [1.0, np.nan], [1.5, 1.0], [0.5, -0.1],
                                    [np.inf, 0.5]])
def test_curve_rejects_purity_outside_the_unit_interval_nan_included(purity):
    with pytest.raises(ValueError, match=r"purity values must lie in \[0, 1\]"):
        PurityCurve([0.5, 1.0], purity)


@pytest.mark.parametrize("sample, message", [
    ([0.5, 1.7, 2.2], "sample must hold integer indices, got dtype float64"),
    ([-1, True], "sample must hold integer indices, got a bool"),
    (np.array([True, False]), "sample must hold integer indices, got dtype bool"),
    ([3, -1], r"sample\[1\] is -1, outside \[0, 20\)"),
    ([0, 20], r"sample\[1\] is 20, outside \[0, 20\)"),
    ([], "sample must hold at least one center"),
    (np.empty(0, dtype=np.int64), "sample must hold at least one center"),
])
def test_purity_sample_names_a_bad_index_or_an_empty_sample(sample, message):
    s = gen_gaussian_mixture(MixtureSpec(2, 10, 3, 6.0, 1.0, seed=3))
    with pytest.raises(ValueError, match=message):
        estimate_purity_curve(s, s.labels, [0.5, 1.0], sample=sample)

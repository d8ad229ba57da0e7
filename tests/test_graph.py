import tracemalloc

import numpy as np
import pytest

import oracles
from dcom import data, graph
from dcom.data import (
    EmbeddingSet,
    MixtureSpec,
    _gram_inputs,
    _gram_pairs,
    _pair_sq_dists,
    _sq_dists,
    gen_gaussian_mixture,
    l2_normalize,
)
from dcom.errors import DenseRadiusGraph, TooManyPoints
from dcom.graph import build_radius_graph, covered_set


def one_d(*values):
    return EmbeddingSet(np.array(values, dtype=np.float64)[:, None])


def brute_force_edges(embedding_set, delta):
    pts = embedding_set.vectors.astype(np.float64)
    n = embedding_set.count
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and ((pts[u] - pts[v]) ** 2).sum() <= delta * delta:
                edges.append((u, v))
    return edges


def test_three_point_line():
    g = build_radius_graph(one_d(0.0, 0.4, 0.8), 0.5)
    assert oracles.edges(g).tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]
    assert g.out_degree.tolist() == [1, 2, 1]


def test_out_degree_is_a_read_only_view_that_covering_updates():
    g = build_radius_graph(one_d(0.0, 0.4, 0.8), 0.5)
    degree = g.out_degree
    with pytest.raises(ValueError, match="read-only"):
        degree[0] = 5
    oracles.prune_incoming(g, [1])
    assert degree.tolist() == [0, 2, 0]


def test_small_delta_empty_graph():
    g = build_radius_graph(one_d(0.0, 0.4, 0.8), 0.1)
    assert oracles.edges(g).shape[0] == 0
    assert g.out_degree.tolist() == [0, 0, 0]


def test_coincident_points_mutual_edges():
    g = build_radius_graph(one_d(1.0, 1.0), 0.01)
    assert oracles.edges(g).tolist() == [[0, 1], [1, 0]]


def test_symmetry_random():
    s = gen_gaussian_mixture(MixtureSpec(2, 25, 4, 2.0, 1.0, seed=3))
    g = build_radius_graph(s, 1.5)
    pairs = set(map(tuple, oracles.edges(g).tolist()))
    assert all((v, u) in pairs for u, v in pairs)


@pytest.mark.parametrize("seed", range(5))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s = EmbeddingSet(rng.normal(size=(60, 3)))
    delta = rng.uniform(0.3, 1.5)
    g = build_radius_graph(s, delta)
    assert list(map(tuple, oracles.edges(g).tolist())) == brute_force_edges(s, delta)


def test_dense_build_fails_naming_n_delta_and_edges(monkeypatch):
    s = gen_gaussian_mixture(MixtureSpec(2, 600, 3, 1.0, 1.0, seed=0))
    pairs = oracles.edges(build_radius_graph(s, 1.5))
    edges = pairs.shape[0]
    # The symmetric pass's first tile is its first row block against every
    # column, as 1200 points fit in one tile's width. It holds every pair
    # with an end among those rows, and counts it in both orders.
    assert s.count <= data._TILE_COLS
    first_block = int((pairs.min(axis=1) < data._TILE_ROWS).sum())
    assert first_block < edges
    monkeypatch.setattr(graph, "_MAX_EDGES", edges)
    assert build_radius_graph(s, 1.5).out_degree.sum() == edges
    monkeypatch.setattr(graph, "_MAX_EDGES", edges - 1)
    with pytest.raises(DenseRadiusGraph):
        build_radius_graph(s, 1.5)
    # The build stops after its first tile, which passes the limit.
    monkeypatch.setattr(graph, "_MAX_EDGES", first_block - 1)
    with pytest.raises(DenseRadiusGraph) as err:
        build_radius_graph(s, 1.5)
    assert str(err.value) == (
        f"radius graph too dense: {first_block} edges so far within delta 1.5 "
        f"among 1200 points"
    )
    # A restricted build stores and counts each pair with an uncovered end
    # twice, though a pair with a covered end is alive one way only.
    covered = np.zeros(1200, dtype=bool)
    covered[::3] = True
    shut_pairs = int(covered[pairs].all(axis=1).sum()) // 2
    entries = edges - 2 * shut_pairs
    monkeypatch.setattr(graph, "_MAX_EDGES", entries)
    restricted = build_radius_graph(s, 1.5, covered=covered)
    assert restricted._nbrs.size == entries > oracles.edges(restricted).shape[0]
    monkeypatch.setattr(graph, "_MAX_EDGES", entries - 1)
    with pytest.raises(DenseRadiusGraph):
        build_radius_graph(s, 1.5, covered=covered)


def test_build_refuses_more_points_than_int32_indices_hold(monkeypatch):
    # A DCM1 file may hold 2^31 points at d = 1; the CSR's int32 neighbours
    # index at most 2^31 - 1 of them.
    assert graph._MAX_POINTS == np.iinfo(np.int32).max
    rng = np.random.default_rng(0)
    small = EmbeddingSet(rng.normal(size=(50, 1)))
    monkeypatch.setattr(graph, "_MAX_POINTS", small.count)
    assert build_radius_graph(small, 0.1)._nbrs.dtype == np.int32
    s = EmbeddingSet(rng.normal(size=(100_000, 1)))
    monkeypatch.setattr(graph, "_MAX_POINTS", s.count - 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyPoints) as err:
            build_radius_graph(s, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"a radius graph holds at most {s.count - 1} points, "
                              f"as int32 indices; got {s.count}")
    # Less than a byte per point: it raised before any n-sized array was made.
    assert peak < s.count


def test_cold_build_and_normalize_make_no_float64_copy_of_the_points():
    raw = gen_gaussian_mixture(MixtureSpec(10, 2000, 64, 6.0, 1.0, seed=0))
    float64_copy = raw.count * raw.dim * 8
    tracemalloc.start()
    try:
        s = l2_normalize(raw)
        normalize_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = build_radius_graph(s, 0.9)
        build_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # l2_normalize holds its float32 result and two float64 chunks at most.
    assert normalize_peak < float64_copy
    # The build holds the float32 gram, the Gram pass's two tile buffers of
    # data._TILE_ROWS x data._TILE_COLS keys and flags, its pair lists and
    # the CSR's temporaries. At 20k x 64 the buffers are half a float64
    # copy of the points, so they are counted apart.
    stored = g._nbrs.nbytes + g._indptr.nbytes + g._out_degree.nbytes + g._covered.nbytes
    buffers = data._TILE_ROWS * data._TILE_COLS * (np.dtype(np.float32).itemsize + 1)
    assert build_peak < float64_copy + stored + buffers


def test_covered_set_examples():
    s = one_d(0.0, 0.4, 0.8)
    assert covered_set(s, [1], [0.5]).mean() == 1.0
    assert covered_set(s, [], []).mean() == 0.0
    covered = covered_set(s, [0], [0.1])
    assert covered.mean() == pytest.approx(1 / 3)
    assert covered.tolist() == [True, False, False]


def test_covered_set_matches_double_loop():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = EmbeddingSet(rng.normal(size=(50, 4)))
        labeled = rng.choice(50, size=8, replace=False)
        deltas = rng.uniform(0.2, 2.0, size=8)
        covered = covered_set(s, labeled, deltas)
        pts = s.vectors.astype(np.float64)
        brute = []
        for x in range(50):
            inside = x in set(labeled.tolist())
            for i, d in zip(labeled, deltas):
                if ((pts[x] - pts[i]) ** 2).sum() <= d * d:
                    inside = True
            brute.append(inside)
        assert covered.tolist() == brute
        assert covered.mean() == sum(brute) / 50


def test_covered_length_mismatch():
    with pytest.raises(ValueError):
        covered_set(one_d(0.0, 1.0), [0], [0.5, 0.5])


def test_covered_set_rejects_nan_radius():
    with pytest.raises(ValueError, match="NaN"):
        covered_set(one_d(0.0, 1.0), [0, 1], [0.5, np.nan])


def test_covered_set_rejects_a_negative_radius_naming_it():
    s = one_d(0.0, 0.4, 0.8)
    # Squaring would turn -1 into the ball of radius 1.
    with pytest.raises(ValueError, match=r"deltas\[1\] is -1"):
        covered_set(s, [0, 1, 2], [0.5, -1.0, -2.0])
    assert covered_set(s, [0], [0.0]).tolist() == [True, False, False]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: covered_set(s, [-1], [0.5]), r"^labeled\[0\] is -1, outside \[0, 30\)$"),
        (lambda s: covered_set(s, [2, 30], [0.5, 0.5]), r"^labeled\[1\] is 30, outside"),
        (lambda s: build_radius_graph(s, 0.5, points=[-1]), r"^points\[0\] is -1, outside"),
        (lambda s: build_radius_graph(s, 0.5, points=[30]), r"^points\[0\] is 30, outside"),
        (lambda s: build_radius_graph(s, 0.5, points=[0, 3, -2]), r"^points\[2\] is -2,"),
        (lambda s: build_radius_graph(s, 0.5, points=[2, 30]), r"^points\[1\] is 30, outside"),
    ],
    ids=["covered-negative", "covered-past-end", "points-negative", "points-past-end",
         "points-negative-later", "points-past-end-later"],
)
def test_indices_outside_the_points_are_named(call, message):
    # -1 would otherwise read point 29, and 30 fail with a bare IndexError.
    s = gen_gaussian_mixture(MixtureSpec(3, 10, 4, 6.0, 1.0, seed=5))
    with pytest.raises(ValueError, match=message):
        call(s)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: covered_set(s, [1.7], [0.0]),
         r"^labeled must hold integer indices, got dtype float64$"),
        (lambda s: covered_set(s, [True], [0.5]), r"^labeled must hold .* dtype bool$"),
        (lambda s: build_radius_graph(s, 3.0, points=[0.5, 2.9]), r"^points must .* float64$"),
        (lambda s: build_radius_graph(s, 3.0, covered=np.zeros(30)),
         r"^covered must be a boolean mask of shape \(30,\), "
         r"got dtype float64 and shape \(30,\)$"),
        (lambda s: build_radius_graph(s, 3.0, covered=np.zeros(29, dtype=bool)),
         r"^covered must be a boolean mask .* shape \(29,\)$"),
        (lambda s: build_radius_graph(s, 3.0, covered=[0, 1]), r"^covered must be .* dtype int64"),
        (lambda s: covered_set(s, [True, 2], [0.5, 0.5]), r"^labeled must hold .*, got a bool$"),
        (lambda s: build_radius_graph(s, 3.0, points=[3, np.True_]), r"^points must .* a bool$"),
    ],
    ids=["covered-fraction", "covered-bool", "points-fraction", "mask-float",
         "mask-short", "mask-indices", "covered-bool-among-ints", "points-bool-among-ints"],
)
def test_indices_of_another_dtype_are_named(call, message):
    # A cast to int64 would read 1.7 as point 1, [True, False] as points 1 and
    # 0, and [True, 2] as points 1 and 2.
    s = gen_gaussian_mixture(MixtureSpec(3, 10, 4, 6.0, 1.0, seed=5))
    with pytest.raises(ValueError, match=message):
        call(s)


@pytest.mark.parametrize("delta", [float("nan"), 0.0, -1.0])
def test_build_rejects_a_delta_that_is_not_positive(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        build_radius_graph(one_d(0.0, 0.4, 0.8), delta)


def coverage_case(rng, kind):
    """(points, labeled, deltas) for the covered_set equivalence test, by kind."""
    n = int(rng.integers(2, 120))
    d = int(rng.integers(1, 9))
    m = int(rng.integers(1, min(n, 20) + 1))
    labeled = rng.choice(n, size=m, replace=False)
    if kind == "lattice":
        # Integer points and radii sqrt(k): many distances fall exactly on a radius.
        pts = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        return pts, labeled, np.sqrt(rng.integers(1, 6, size=m).astype(np.float64))
    if kind == "zero_radii":
        # Few distinct points, so a zero radius still covers the coincident ones.
        pts = rng.normal(size=(5, d))[rng.integers(0, 5, size=n)]
        return pts, labeled, np.zeros(m)
    if kind == "duplicates":
        labeled = rng.integers(0, n, size=int(rng.integers(2, 2 * n + 2)))
        return rng.normal(size=(n, d)), labeled, rng.uniform(0.1, 2.0, size=labeled.size)
    if kind == "many_blocks":
        n = int(rng.integers(200, 500))
        labeled = rng.choice(n, size=int(rng.integers(33, 150)), replace=False)
        return rng.normal(size=(n, d)), labeled, rng.uniform(0.05, 0.8, size=labeled.size)
    if kind == "empty":
        return rng.normal(size=(n, d)), labeled[:0], np.empty(0)
    if kind == "scale_1e20":
        # |x|^2 overflows float32, so the keys are float64.
        return rng.normal(size=(n, d)) * 1e20, labeled, rng.uniform(0.2, 2.0, size=m) * 1e20
    if kind == "offset_1e4":
        pts = 1e4 + rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0])
    else:
        pts = rng.normal(size=(n, d))
    if kind == "gaussian":
        return pts, labeled, rng.uniform(0.1, 2.0, size=m)
    # Radii equal to the exact distance from each labeled point to another point.
    exact = EmbeddingSet(pts).vectors.astype(np.float64)
    other = rng.integers(0, n, size=m)
    return pts, labeled, np.sqrt(_sq_dists(exact[other], exact[labeled]))


@pytest.mark.parametrize(
    "kind",
    [
        "gaussian",
        "lattice",
        "zero_radii",
        "pair_distances",
        "duplicates",
        "offset_1e4",
        "scale_1e20",
        "empty",
        "many_blocks",
    ],
)
def test_covered_set_matches_per_point_passes(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(20):
        pts, labeled, deltas = coverage_case(rng, kind)
        s = EmbeddingSet(pts)
        covered = covered_set(s, labeled, deltas)
        expected = oracles.covered_set(s, labeled, deltas)
        assert covered.dtype == bool
        assert np.array_equal(covered, expected)
        assert covered.mean() == int(expected.sum()) / s.count


def test_infinite_and_zero_radii_match_the_oracles():
    # An infinite radius takes an infinite slack, so its floor is -inf and
    # its upper floor NaN, or +inf at a finite radius beside it: every key is
    # marked and refined, and inf - inf raises no RuntimeWarning. A zero
    # radius covers its own point and its exact duplicates only.
    rng = np.random.default_rng(35)
    pts = rng.normal(size=(30, 4))
    pts[7] = pts[3]
    s = EmbeddingSet(pts)
    cases = [([3, 10], [np.inf, 0.5]), ([3, 10], [0.0, 0.0]), ([10], [np.inf]), ([3], [0.0])]
    for labeled, deltas in cases:
        assert np.array_equal(covered_set(s, labeled, deltas),
                              oracles.covered_set(s, labeled, deltas))
    assert covered_set(s, [3, 10], [np.inf, 0.5]).all()
    assert np.flatnonzero(covered_set(s, [3, 10], [0.0, 0.0])).tolist() == [3, 7, 10]
    everything = np.arange(s.count)
    g = build_radius_graph(s, np.inf)
    assert np.array_equal(oracles.edges(g), oracles.radius_edges(s, np.inf, everything))
    assert g.out_degree.tolist() == [s.count - 1] * s.count
    covered = rng.random(s.count) < 0.5
    g = build_radius_graph(s, np.inf, covered=covered)
    assert np.array_equal(oracles.edges(g), oracles.radius_edges(s, np.inf, everything, covered))


def band_pairs(inputs, rows, cols, sq_radii):
    """How many keys of the Gram pass over rows x cols lie in [floor, upper floor) at their radius.

    The keys are made tile by tile with the pass's own products, from
    _gram_inputs alone; rows is cols runs the upper-triangle mode.
    """
    points, gram, slack = inputs
    swap = np.r_[: points.shape[1], -1, -2]
    floors = (-(sq_radii + float(slack)) / 2).astype(gram.dtype)
    uppers = (-(sq_radii - float(slack)) / 2).astype(gram.dtype)
    count = 0
    for lo in range(0, rows.size, data._TILE_ROWS):
        part = slice(lo, lo + data._TILE_ROWS)
        for c0 in range(lo if rows is cols else 0, cols.size, data._TILE_COLS):
            tile = np.arange(c0, min(c0 + data._TILE_COLS, cols.size))
            keys = gram[rows[part]].take(swap, axis=1) @ gram[cols[tile]].T
            band = (keys >= floors[part, None]) & (keys < uppers[part, None])
            if rows is cols:
                band &= tile > np.arange(lo, lo + band.shape[0])[:, None]
            count += int(band.sum())
    return count


def test_refine_gathers_at_most_1024_pairs(monkeypatch):
    # Far from the origin the slack is wide, so the band between the floors
    # holds thousands of pairs; a key above the band needs no refine.
    pairs, exact = [], data._sq_dists

    def recording(points, center):
        pairs.append(len(points))
        return exact(points, center)

    monkeypatch.setattr(data, "_sq_dists", recording)
    rng = np.random.default_rng(40)
    s = EmbeddingSet(100 + rng.normal(size=(600, 3)))
    everything = np.arange(600)
    edges = oracles.edges(build_radius_graph(s, 2.0)).shape[0]
    band = band_pairs(_gram_inputs(s, 4.0), everything, everything, np.full(600, 4.0))
    assert sum(pairs) == band > 1024 and max(pairs) <= 1024
    assert edges > 20 * band
    pairs.clear()
    # One coverage block, an eighth of a row block, so the pass's columns are
    # every unlabeled point.
    monkeypatch.setattr(data, "_TILE_ROWS", 8 * 100)
    labeled = np.sort(rng.choice(600, size=100, replace=False))
    covered = covered_set(s, labeled, np.full(100, 1.5))
    assert covered.sum() > 500
    band = band_pairs(_gram_inputs(s, 2.25), labeled, np.setdiff1d(everything, labeled),
                      np.full(100, 2.25))
    assert sum(pairs) == band > 1024 and max(pairs) <= 1024


def test_coverage_monotone_under_pool_growth():
    rng = np.random.default_rng(11)
    s = EmbeddingSet(rng.normal(size=(80, 3)))
    for _ in range(20):
        small = rng.choice(80, size=5, replace=False).tolist()
        extra = [i for i in rng.choice(80, size=12, replace=False) if i not in small]
        deltas_small = rng.uniform(0.1, 1.0, size=5).tolist()
        deltas_big = deltas_small + rng.uniform(0.1, 1.0, size=len(extra)).tolist()
        assert (
            covered_set(s, small, deltas_small).mean()
            <= covered_set(s, small + extra, deltas_big).mean()
        )


def test_prune_incoming_for_covered():
    s = one_d(0.0, 0.4, 0.8)
    g = build_radius_graph(s, 0.5)
    oracles.prune_incoming(g, np.flatnonzero([True, True, True]))
    assert oracles.edges(g).shape[0] == 0
    assert g.out_degree.tolist() == [0, 0, 0]


def test_prune_incoming_noop_and_idempotent():
    s = one_d(0.0, 0.4, 0.8)
    g = build_radius_graph(s, 0.5)
    oracles.prune_incoming(g, np.flatnonzero([False, False, False]))
    oracles.prune_incoming(g, [])  # an empty list's dtype is float64
    assert g.out_degree.tolist() == [1, 2, 1]
    oracles.prune_incoming(g, np.flatnonzero([False, True, False]))
    first = oracles.edges(g).tolist()
    oracles.prune_incoming(g, np.flatnonzero([False, True, False]))
    assert oracles.edges(g).tolist() == first == [[1, 0], [1, 2]]


def test_prune_incoming_duplicate_targets_decrement_once():
    s = one_d(0.0, 0.1, 0.2)
    g = build_radius_graph(s, 0.5)
    oracles.prune_incoming(g, [2, 2])
    assert oracles.edges(g).tolist() == [[0, 1], [1, 0], [2, 0], [2, 1]]
    assert g.out_degree.tolist() == [1, 1, 2]
    assert g.out_degree.sum() == oracles.edges(g).shape[0]


@pytest.mark.parametrize("order", ["sorted", "shuffled", "repeated", "one", "empty"])
def test_distinct_indices_are_np_uniques_for_every_caller(order):
    # build_radius_graph and expand_delta's check dedupe with a sort and an
    # adjacent-equal mask; each must see np.unique's array.
    rng = np.random.default_rng(len(order))
    s = gen_gaussian_mixture(MixtureSpec(3, 20, 4, 2.0, 1.0, seed=3))
    picked = rng.choice(s.count, size=s.count // 2, replace=False)
    indices = {"sorted": np.sort(picked), "shuffled": picked,
               "repeated": rng.choice(picked, size=2 * s.count),
               "one": picked[:1], "empty": np.empty(0, dtype=np.int64)}[order]
    unique = np.unique(indices)
    got = graph._distinct(indices)
    assert got.dtype == unique.dtype and np.array_equal(got, unique)
    built, want = build_radius_graph(s, 1.5, indices), build_radius_graph(s, 1.5, unique)
    assert np.array_equal(oracles.edges(built), oracles.edges(want))
    built._cover(unique)
    want._cover(unique)
    assert np.array_equal(built.out_degree, want.out_degree)
    assert np.array_equal(oracles.edges(built), oracles.edges(want))


def test_cover_equals_prune_incoming_after_the_same_balls():
    # _cover takes no repeats and no covered target, and drops every target at
    # once; fed a picked ball's uncovered members and the pick when uncovered,
    # it must leave the graph that the checked reference, one target at a
    # time, leaves.
    rng = np.random.default_rng(11)
    for kind in ("gaussian", "lattice"):
        for _ in range(6):
            s, radius = random_case(rng, kind, n=int(rng.integers(5, 45)))
            points, covered = random_indices(rng, s.count), random_covered(rng, s.count)
            g = build_radius_graph(s, radius, points, covered)
            h = build_radius_graph(s, radius, points, covered)
            for v in rng.permutation(np.unique(points))[: int(rng.integers(1, 30))]:
                oracles.prune_incoming(g, np.append(g.ball_members(v), v))
                ball = h.ball_members(v)
                h._cover(ball if h._covered[v] else np.append(ball, v))
                np.testing.assert_array_equal(h.out_degree, g.out_degree)
                np.testing.assert_array_equal(h._covered, g._covered)
            assert np.array_equal(oracles.edges(h), oracles.edges(g))


def test_prunes_never_raise_degree():
    rng = np.random.default_rng(4)
    s = EmbeddingSet(rng.normal(size=(40, 2)))
    g = build_radius_graph(s, 1.0)
    # The same pairs in shuffled order, each in a random orientation: the
    # constructor's own mirroring and sort must give the same balls.
    pairs = oracles.edges(g)
    pairs = rng.permutation(pairs[pairs[:, 0] < pairs[:, 1]])
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    h = graph.RadiusGraph(40, pairs[:, 0], pairs[:, 1])
    for _ in range(5):
        before = g.out_degree.copy()
        assert np.array_equal(h.out_degree, before)
        for v in range(40):
            assert np.array_equal(np.sort(h.ball_members(v)), g.ball_members(v))
            assert g.ball_members(v).size == before[v] == h.ball_members(v).size
        covered = np.flatnonzero(rng.random(40) < 0.1)
        oracles.prune_incoming(g, covered)
        oracles.prune_incoming(h, covered)
        assert (g.out_degree <= before).all()


def random_case(rng, kind, n=None):
    """Points for the restricted-build equivalence tests, by kind."""
    if n is None:
        n = int(rng.integers(1, 45))
    d = int(rng.integers(1, 5))
    if kind == "gaussian":
        return EmbeddingSet(rng.normal(size=(n, d))), float(rng.uniform(0.2, 2.0))
    if kind == "lattice":
        # Integer points: many distances fall exactly on delta.
        pts = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        return EmbeddingSet(pts), float(rng.choice([1.0, np.sqrt(2.0), 2.0, np.sqrt(5.0)]))
    # Large norms: a far offset plus a wide spread.
    offset = rng.normal(size=d) * rng.choice([1e2, 1e3, 1e4])
    pts = offset + rng.normal(size=(n, d)) * rng.choice([1.0, 10.0])
    return EmbeddingSet(pts), float(rng.uniform(0.5, 20.0))


def random_indices(rng, n):
    """Unsorted indices with duplicates; empty about one time in six."""
    if rng.random() < 1 / 6:
        return np.empty(0, dtype=np.int64)
    return rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))


def random_covered(rng, n):
    """A covered mask over n points, each covered at one random rate."""
    return rng.random(n) < rng.uniform(0.0, 1.0)


def assert_matches_filtered_brute_force(s, delta, points, covered):
    """A build equals the brute-force edges filtered to points x (points minus covered)."""
    g = build_radius_graph(s, delta, points, covered)
    point_set = set(np.asarray(points, dtype=np.int64).tolist())
    expected = [
        (u, v) for u, v in brute_force_edges(s, delta)
        if u in point_set and v in point_set and not covered[v]
    ]
    assert list(map(tuple, oracles.edges(g).tolist())) == expected
    degree = np.bincount([u for u, _ in expected], minlength=s.count)
    assert g.out_degree.tolist() == degree.tolist()
    for u in range(s.count):
        assert g.ball_members(u).tolist() == [v for w, v in expected if w == u]


@pytest.mark.parametrize("kind", ["gaussian", "lattice", "large_norm"])
def test_restricted_build_matches_filtered_brute_force(kind):
    rng = np.random.default_rng({"gaussian": 21, "lattice": 22, "large_norm": 23}[kind])
    for _ in range(25):
        s, delta = random_case(rng, kind)
        points, covered = random_indices(rng, s.count), random_covered(rng, s.count)
        assert_matches_filtered_brute_force(s, delta, points, covered)


@pytest.mark.parametrize("cover", ["none", "all", "all_but_one"])
def test_build_with_none_all_or_all_but_one_point_covered(cover):
    rng = np.random.default_rng(27)
    for _ in range(10):
        s, delta = random_case(rng, "lattice", int(rng.integers(2, 45)))
        points = rng.permutation(s.count)[: int(rng.integers(1, s.count + 1))]
        # Points outside the build are covered or not at random.
        covered = random_covered(rng, s.count)
        covered[points] = cover != "none"
        if cover == "all_but_one":
            covered[points[0]] = False
        assert_matches_filtered_brute_force(s, delta, points, covered)


@pytest.mark.parametrize("kind", ["gaussian", "lattice", "large_norm"])
def test_builds_with_a_partial_last_row_block_match_per_row_passes(kind):
    # n is never a multiple of _TILE_ROWS, so the last row block is partial.
    # The restricted build covers some of its points, as in the greedy kernel,
    # whose points are unlabeled and some of them covered.
    rng = np.random.default_rng({"gaussian": 44, "lattice": 45, "large_norm": 46}[kind])
    for _ in range(3):
        n = int(rng.integers(1, 3)) * data._TILE_ROWS + int(rng.integers(1, data._TILE_ROWS))
        s, delta = random_case(rng, kind, n)
        expected = oracles.radius_edges(s, delta, np.arange(n))
        assert np.array_equal(oracles.edges(build_radius_graph(s, delta)), expected)
        points = rng.permutation(n)[: int(rng.integers(data._TILE_ROWS + 1, n + 1))]
        covered = random_covered(rng, n)
        g = build_radius_graph(s, delta, points, covered)
        assert np.array_equal(oracles.edges(g), oracles.radius_edges(s, delta, points, covered))


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("family", oracles.GRAM_FAMILIES)
def test_builds_and_coverage_match_oracles_at_any_block_size(monkeypatch, family, block):
    # Row blocks of 1 or 7 rows in tiles of 5 or 17 columns, so tiles start
    # off the diagonal and most cases have a partial last row block and tile.
    # Coverage runs one labeled point per block.
    oracles.set_tile(monkeypatch, (block, 2 * block + 3))
    rng = np.random.default_rng(sum(map(ord, family)) + block)
    for _ in range(6):
        s, centres, delta = oracles.gram_case(family, rng)
        n = s.count
        expected = oracles.radius_edges(s, delta, np.arange(n))
        assert np.array_equal(oracles.edges(build_radius_graph(s, delta)), expected)
        points, covered = random_indices(rng, n), random_covered(rng, n)
        restricted = build_radius_graph(s, delta, points, covered)
        assert np.array_equal(oracles.edges(restricted),
                              oracles.radius_edges(s, delta, points, covered))
        # The centres' balls at the case's radius alone, then with more balls
        # at exact distances between points (ties on the boundary) or small radii.
        deltas = np.full(centres.size, delta)
        assert np.array_equal(covered_set(s, centres, deltas),
                              oracles.covered_set(s, centres, deltas))
        labeled = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        exact = s.vectors.astype(np.float64)
        far = exact[rng.integers(0, n, size=labeled.size)]
        small = delta * np.sqrt(rng.uniform(0.0, 0.1, size=labeled.size))
        tied = np.sqrt(_sq_dists(far, exact[labeled]))
        labeled = np.concatenate((centres, labeled))
        deltas = np.concatenate((deltas, np.where(rng.random(tied.size) < 0.5, tied, small)))
        covered = covered_set(s, labeled, deltas)
        assert np.array_equal(covered, oracles.covered_set(s, labeled, deltas))


def test_restricted_build_defaults_and_empty_sides():
    rng = np.random.default_rng(24)
    s = EmbeddingSet(rng.normal(size=(30, 3)))
    full = oracles.edges(build_radius_graph(s, 1.2))
    everything = np.arange(30)[::-1]
    none = np.zeros(30, dtype=bool)
    assert np.array_equal(oracles.edges(build_radius_graph(s, 1.2, everything, none)), full)
    assert np.array_equal(oracles.edges(build_radius_graph(s, 1.2, points=everything)), full)
    for points, covered in (([], None), (None, ~none), ([], ~none)):
        g = build_radius_graph(s, 1.2, points, covered)
        assert oracles.edges(g).shape == (0, 2)
        assert g.out_degree.tolist() == [0] * 30


def test_restricted_build_spans_several_row_blocks():
    # More points than one candidate block holds, so blocks are stitched.
    rng = np.random.default_rng(25)
    s = EmbeddingSet(rng.normal(size=(1200, 2)))
    points = rng.permutation(1200)[:1100]
    covered = np.ones(1200, dtype=bool)
    covered[rng.permutation(1200)[:700]] = False
    g = build_radius_graph(s, 0.15, points, covered)
    ordered = np.sort(points)
    targets = ordered[~covered[ordered]]
    pts = s.vectors.astype(np.float64)
    src, dst = [], []
    for u in ordered:
        diff = pts[targets] - pts[u]
        near = targets[(diff * diff).sum(axis=1) <= 0.15 * 0.15]
        near = near[near != u]
        src.extend([u] * near.size)
        dst.extend(near.tolist())
    assert oracles.edges(g)[:, 0].tolist() == src
    assert oracles.edges(g)[:, 1].tolist() == dst


def gram_key_points(kind, rng):
    """Points for the Gram key bound test, and the key dtype they must get."""
    if kind == "d1":
        return rng.normal(size=(60, 1)), np.float32
    if kind == "d64":
        return rng.normal(size=(60, 64)) * rng.uniform(0.1, 10.0, size=(60, 1)), np.float32
    if kind == "d4096":
        return 1e2 + rng.normal(size=(10, 4096)), np.float32
    if kind == "near_duplicates":
        # A few ulps apart far from the origin, plus exact copies.
        pts = 1e3 + rng.normal(size=8) + rng.integers(-3, 4, size=(40, 8)) * 1e-4
        return np.concatenate([pts, pts[:5]]), np.float32
    if kind == "scale_1e20":
        return rng.normal(size=(40, 4)) * 1e20, np.float64
    # Largest squared norm just below and just above 2^125, where 4 |x|^2
    # would reach float32's range.
    pts = rng.normal(size=(40, 8))
    scale = {"below_float32_limit": 0.9, "above_float32_limit": 1.1}[kind] * 2.0**125
    pts *= np.sqrt(scale / (pts * pts).sum(axis=1).max())
    return pts, np.float32 if kind == "below_float32_limit" else np.float64


@pytest.mark.parametrize(
    "kind",
    ["d1", "d64", "d4096", "near_duplicates", "below_float32_limit",
     "above_float32_limit", "scale_1e20"],
)
def test_gram_keys_stay_within_the_stated_bound(monkeypatch, kind):
    # Partial tiles at every size here, so the GEMM runs at many shapes.
    oracles.set_tile(monkeypatch, (7, 9))
    rng = np.random.default_rng(sum(map(ord, kind)))
    pts, dtype = gram_key_points(kind, rng)
    inputs = _gram_inputs(EmbeddingSet(pts))
    vectors, gram, slack = inputs
    assert gram.dtype == dtype and slack.dtype == dtype
    # The float64 reference of the stored float32 vectors.
    points = vectors.astype(np.float64)
    n, d = points.shape
    keys = np.full((n, n), np.nan)

    def record(lo, part, c0, tile, mask):
        keys[lo : lo + part.size, c0 : c0 + tile.shape[1]] = tile
        mask[...] = False

    for _ in _gram_pairs(inputs, np.arange(n), np.arange(n), record):
        pass
    diff = points[:, None, :] - points[None, :, :]
    exact = -0.5 * (diff * diff).sum(axis=2)
    # E from _gram_inputs's docstring; the float64 reference is itself off by
    # a relative 1.1 (d + 2) 2^-53.
    u, v = np.finfo(dtype).eps / 2, 2.0**-53
    m = float((points * points).sum(axis=1).max())
    bound = (2.2 * (d + 2) * u + 1.01 * (d * v + u)) * m
    assert np.isfinite(keys).all()
    assert (np.abs(keys - exact) <= bound + 1.1 * (d + 2) * v * np.abs(exact)).all()
    assert 2 * bound < slack


def test_candidate_margin_absorbs_float32_rounding():
    # Far from the origin the float32 Gram terms carry rounding errors larger
    # than delta^2 itself; with delta at the median distance, many pairs sit
    # inside that error band and must still be found by the candidate pass.
    rng = np.random.default_rng(26)
    pts = 1e3 + rng.normal(size=(150, 8))
    s = EmbeddingSet(pts)
    exact = s.vectors.astype(np.float64)
    dists = np.sqrt(((exact[:, None, :] - exact[None, :, :]) ** 2).sum(axis=2))
    delta = float(np.median(dists[np.triu_indices(150, 1)]))
    covered = np.ones(150, dtype=bool)
    covered[rng.permutation(150)[:100]] = False
    expected = [(u, v) for u, v in brute_force_edges(s, delta) if not covered[v]]
    assert list(map(tuple, oracles.edges(build_radius_graph(s, delta)).tolist())) == (
        brute_force_edges(s, delta)
    )
    restricted = build_radius_graph(s, delta, covered=covered)
    assert list(map(tuple, oracles.edges(restricted).tolist())) == expected


def test_build_beyond_float32_range():
    # |x|^2 overflows float32 here, so the keys must switch to float64.
    rng = np.random.default_rng(0)
    s = EmbeddingSet(rng.standard_normal((50, 4)) * 1e20)
    expected = brute_force_edges(s, 2e20)
    assert len(expected) == 678
    assert list(map(tuple, oracles.edges(build_radius_graph(s, 2e20)).tolist())) == expected


@pytest.mark.parametrize("kind", ["large_d", "offset_1e4"])
def test_candidate_slack_holds_at_large_d_and_offset(kind):
    # delta at a random quantile of the pair distances puts many pairs within
    # float32 rounding of the boundary.
    rng = np.random.default_rng({"large_d": 31, "offset_1e4": 32}[kind])
    for _ in range(4):
        n = int(rng.integers(20, 60))
        if kind == "large_d":
            d = int(rng.integers(1024, 4096))
            pts = rng.choice([0.0, 1e2, 1e3]) + rng.normal(size=(n, d))
        else:
            d = int(rng.integers(2, 65))
            pts = 1e4 + rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0])
        s = EmbeddingSet(pts)
        exact = s.vectors.astype(np.float64)
        dists = [np.sqrt(_sq_dists(exact, exact[u])) for u in range(n)]
        delta = float(np.quantile(np.concatenate(dists), rng.uniform(0.1, 0.9)))
        expected = brute_force_edges(s, delta)
        assert list(map(tuple, oracles.edges(build_radius_graph(s, delta)).tolist())) == expected
        covered = np.ones(n, dtype=bool)
        covered[rng.permutation(n)[: n // 2]] = False
        restricted = build_radius_graph(s, delta, covered=covered)
        assert list(map(tuple, oracles.edges(restricted).tolist())) == [
            (u, v) for u, v in expected if not covered[v]
        ]


# Row blocks of 1 and 7 rows in tiles of 5 and 17 columns put tile boundaries
# everywhere; at 512 x 1027, most cases fit in one tile, as at the default shape.
@pytest.mark.parametrize("block", [1, 7, 512])
@pytest.mark.parametrize("family", oracles.GRAM_FAMILIES)
def test_symmetric_build_matches_brute_force_and_the_rectangular_pass(monkeypatch, family, block):
    # A full build, or a cold start whose points are every point in any
    # order, tests each unordered pair once on the diagonal tile and above it.
    oracles.set_tile(monkeypatch, (block, 2 * block + 3))
    rng = np.random.default_rng(sum(map(ord, family)) + block)
    for _ in range(3):
        s, _, delta = oracles.gram_case(family, rng)
        n = s.count
        g = build_radius_graph(s, delta)
        got = oracles.edges(g)
        assert np.array_equal(got, oracles.radius_edges(s, delta, np.arange(n)))
        # The rectangular pass: rows and cols are equal but not one array.
        inputs = _gram_inputs(s, delta * delta)
        floor = inputs[1].dtype.type(-(delta * delta + float(inputs[2])) / 2)
        everything = np.arange(n)
        pairs = _gram_pairs(inputs, everything, everything.copy(),
                            lambda lo, part, c0, keys, mask: np.greater_equal(keys, floor,
                                                                              out=mask))
        # It refines every marked pair, the band and above it alike, and
        # yields them in (row block, tile) order.
        points = inputs[0]
        rect = np.concatenate([
            np.column_stack((i, j))[(i != j) & (_pair_sq_dists(points, i, j) <= delta * delta)]
            for _, i, j, _ in pairs])
        assert np.array_equal(got, rect[np.lexsort((rect[:, 1], rect[:, 0]))])
        cold = build_radius_graph(s, delta, points=rng.permutation(n))
        assert np.array_equal(oracles.edges(cold), got)
        # Every edge's reverse is an edge, and the CSR agrees with the list,
        # whose (point, neighbour) order concatenates the balls.
        reverse = got[:, ::-1]
        assert np.array_equal(reverse[np.lexsort((reverse[:, 1], reverse[:, 0]))], got)
        assert g.out_degree.tolist() == np.bincount(got[:, 0], minlength=n).tolist()
        balls = [g.ball_members(u) for u in range(n)]
        assert np.array_equal(np.concatenate(balls), got[:, 1])


def test_covered_set_stops_once_nothing_is_left_uncovered(monkeypatch):
    # Each block of labeled points runs _within against the points still
    # uncovered; once a block leaves none, no later block runs a pass.
    calls = []
    within = graph._within

    def counting(inputs, rows, cols, sq_radii):
        calls.append((rows.size, cols.size))
        return within(inputs, rows, cols, sq_radii)

    monkeypatch.setattr(graph, "_within", counting)
    rng = np.random.default_rng(61)
    s = EmbeddingSet(rng.normal(size=(300, 4)))
    step = data._TILE_ROWS // 8
    labeled = rng.choice(300, size=3 * step + 5, replace=False)
    # Any one ball covers the pool.
    assert covered_set(s, labeled, np.full(labeled.size, 100.0)).all()
    assert calls == [(step, 300 - labeled.size)]
    # A pool whose every point is labeled makes no pass.
    calls.clear()
    assert covered_set(s, np.arange(300), np.full(300, 0.5)).all()
    assert calls == []
    # Small balls leave points uncovered, so every block runs, and the mask
    # is the oracle's.
    calls.clear()
    deltas = np.full(labeled.size, 0.1)
    assert np.array_equal(covered_set(s, labeled, deltas),
                          oracles.covered_set(s, labeled, deltas))
    assert len(calls) == 4

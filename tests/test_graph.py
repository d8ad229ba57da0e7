import numpy as np
import pytest

import oracles
from dcom import data, graph
from dcom.data import EmbeddingSet, MixtureSpec, _gram_inputs, _sq_dists, gen_gaussian_mixture
from dcom.errors import DenseRadiusGraph
from dcom.graph import _pairs_within, build_radius_graph, covered_set


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
    assert g.edges.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]
    assert g.out_degree.tolist() == [1, 2, 1]


def test_small_delta_empty_graph():
    g = build_radius_graph(one_d(0.0, 0.4, 0.8), 0.1)
    assert g.edges.shape[0] == 0
    assert g.out_degree.tolist() == [0, 0, 0]


def test_coincident_points_mutual_edges():
    g = build_radius_graph(one_d(1.0, 1.0), 0.01)
    assert g.edges.tolist() == [[0, 1], [1, 0]]


def test_symmetry_random():
    s = gen_gaussian_mixture(MixtureSpec(2, 25, 4, 2.0, 1.0, seed=3))
    g = build_radius_graph(s, 1.5)
    pairs = set(map(tuple, g.edges.tolist()))
    assert all((v, u) in pairs for u, v in pairs)


@pytest.mark.parametrize("seed", range(5))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s = EmbeddingSet(rng.normal(size=(60, 3)))
    delta = rng.uniform(0.3, 1.5)
    g = build_radius_graph(s, delta)
    assert list(map(tuple, g.edges.tolist())) == brute_force_edges(s, delta)


def test_dense_build_fails_naming_n_delta_and_edges(monkeypatch):
    s = gen_gaussian_mixture(MixtureSpec(2, 600, 3, 1.0, 1.0, seed=0))
    edges = int(build_radius_graph(s, 1.5).out_degree.sum())
    first_block = int(build_radius_graph(s, 1.5, sources=range(graph._CHUNK_ROWS)).out_degree.sum())
    monkeypatch.setattr(graph, "_MAX_EDGES", edges)
    assert build_radius_graph(s, 1.5).out_degree.sum() == edges
    # The build stops after its first row block, which passes the limit.
    monkeypatch.setattr(graph, "_MAX_EDGES", first_block - 1)
    with pytest.raises(DenseRadiusGraph) as err:
        build_radius_graph(s, 1.5)
    assert str(err.value) == (
        f"radius graph too dense: {first_block} edges so far within delta 1.5 "
        f"among 1200 points"
    )


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


def test_refine_gathers_at_most_1024_pairs(monkeypatch):
    pairs, exact = [], data._sq_dists

    def recording(points, center):
        pairs.append(len(points))
        return exact(points, center)

    monkeypatch.setattr(data, "_sq_dists", recording)
    rng = np.random.default_rng(40)
    s = EmbeddingSet(rng.normal(size=(600, 3)))
    # Dense: one 512-row block holds far more than 1,024 candidates.
    edges = build_radius_graph(s, 2.0).edges.shape[0]
    assert edges > 50_000
    assert sum(pairs) >= edges and max(pairs) <= 1024
    pairs.clear()
    covered = covered_set(s, rng.choice(600, size=100, replace=False), np.full(100, 1.5))
    assert covered.sum() > 100
    assert sum(pairs) > 1024 and max(pairs) <= 1024


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
    g.prune_incoming(np.flatnonzero([True, True, True]))
    assert g.edges.shape[0] == 0
    assert g.out_degree.tolist() == [0, 0, 0]


def test_prune_incoming_noop_and_idempotent():
    s = one_d(0.0, 0.4, 0.8)
    g = build_radius_graph(s, 0.5)
    g.prune_incoming(np.flatnonzero([False, False, False]))
    assert g.out_degree.tolist() == [1, 2, 1]
    g.prune_incoming(np.flatnonzero([False, True, False]))
    first = g.edges.tolist()
    g.prune_incoming(np.flatnonzero([False, True, False]))
    assert g.edges.tolist() == first == [[1, 0], [1, 2]]


def test_prune_incoming_duplicate_targets_decrement_once():
    s = one_d(0.0, 0.1, 0.2)
    g = build_radius_graph(s, 0.5)
    g.prune_incoming([2, 2])
    assert g.edges.tolist() == [[0, 1], [1, 0], [2, 0], [2, 1]]
    assert g.out_degree.tolist() == [1, 1, 2]
    assert g.out_degree.sum() == g.edges.shape[0]


def test_prunes_never_raise_degree():
    rng = np.random.default_rng(4)
    s = EmbeddingSet(rng.normal(size=(40, 2)))
    g = build_radius_graph(s, 1.0)
    before = g.out_degree
    g.prune_incoming(np.flatnonzero(rng.random(40) < 0.3))
    mid = g.out_degree
    assert (mid <= before).all()


def random_case(rng, kind):
    """Points for the restricted-build equivalence tests, by kind."""
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


@pytest.mark.parametrize("kind", ["gaussian", "lattice", "large_norm"])
def test_restricted_build_matches_filtered_brute_force(kind):
    rng = np.random.default_rng({"gaussian": 21, "lattice": 22, "large_norm": 23}[kind])
    for _ in range(25):
        s, delta = random_case(rng, kind)
        sources, targets = random_indices(rng, s.count), random_indices(rng, s.count)
        g = build_radius_graph(s, delta, sources=sources, targets=targets)
        src_set, tgt_set = set(sources.tolist()), set(targets.tolist())
        expected = [
            (u, v) for u, v in brute_force_edges(s, delta) if u in src_set and v in tgt_set
        ]
        assert list(map(tuple, g.edges.tolist())) == expected
        degree = np.bincount([u for u, _ in expected], minlength=s.count)
        assert g.out_degree.tolist() == degree.tolist()
        for u in range(s.count):
            assert g.ball_members(u).tolist() == [v for w, v in expected if w == u]


def test_restricted_build_defaults_and_empty_sides():
    rng = np.random.default_rng(24)
    s = EmbeddingSet(rng.normal(size=(30, 3)))
    full = build_radius_graph(s, 1.2).edges
    everything = np.arange(30)[::-1]
    assert np.array_equal(build_radius_graph(s, 1.2, everything, everything).edges, full)
    assert np.array_equal(build_radius_graph(s, 1.2, sources=everything).edges, full)
    for sources, targets in (([], None), (None, []), ([], [])):
        g = build_radius_graph(s, 1.2, sources, targets)
        assert g.edges.shape == (0, 2)
        assert g.out_degree.tolist() == [0] * 30


def test_restricted_build_spans_several_row_blocks():
    # More sources than one candidate block holds, so blocks are stitched.
    rng = np.random.default_rng(25)
    s = EmbeddingSet(rng.normal(size=(1200, 2)))
    sources = rng.permutation(1200)[:1100]
    targets = rng.permutation(1200)[:700]
    g = build_radius_graph(s, 0.15, sources, targets)
    pts = s.vectors.astype(np.float64)
    src, dst = [], []
    for u in np.sort(sources):
        diff = pts[np.sort(targets)] - pts[u]
        near = np.sort(targets)[(diff * diff).sum(axis=1) <= 0.15 * 0.15]
        near = near[near != u]
        src.extend([u] * near.size)
        dst.extend(near.tolist())
    assert g.edges[:, 0].tolist() == src
    assert g.edges[:, 1].tolist() == dst


def test_pairs_within_radius_per_row_across_row_blocks():
    # More rows than one Gram block, each with its own radius, in any order.
    rng = np.random.default_rng(27)
    s = EmbeddingSet(rng.normal(size=(700, 2)))
    rows, cols = rng.permutation(700)[:600], np.sort(rng.permutation(700)[:300])
    sq_radii = rng.uniform(0.0, 0.1, size=600)
    src, dst = _pairs_within(_gram_inputs(s, sq_radii.max()), rows, sq_radii, cols)
    pts = s.vectors.astype(np.float64)
    expected = [
        (u, v)
        for u, r2 in zip(rows.tolist(), sq_radii)
        for v in cols[_sq_dists(pts[cols], pts[u]) <= r2].tolist()
        if v != u
    ]
    assert list(zip(src.tolist(), dst.tolist())) == expected


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
    targets = rng.permutation(150)[:100]
    target_set = set(targets.tolist())
    expected = [(u, v) for u, v in brute_force_edges(s, delta) if v in target_set]
    assert list(map(tuple, build_radius_graph(s, delta).edges.tolist())) == (
        brute_force_edges(s, delta)
    )
    restricted = build_radius_graph(s, delta, targets=targets)
    assert list(map(tuple, restricted.edges.tolist())) == expected


def test_build_beyond_float32_range():
    # |x|^2 overflows float32 here, so the keys must switch to float64.
    rng = np.random.default_rng(0)
    s = EmbeddingSet(rng.standard_normal((50, 4)) * 1e20)
    expected = brute_force_edges(s, 2e20)
    assert len(expected) == 678
    assert list(map(tuple, build_radius_graph(s, 2e20).edges.tolist())) == expected


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
        assert list(map(tuple, build_radius_graph(s, delta).edges.tolist())) == expected
        targets = rng.permutation(n)[: n // 2]
        target_set = set(targets.tolist())
        restricted = build_radius_graph(s, delta, targets=targets)
        assert list(map(tuple, restricted.edges.tolist())) == [
            (u, v) for u, v in expected if v in target_set
        ]

"""Every client of the Gram pass gives the same results at any tile shape.

data._gram_pairs walks each row block in column tiles. The radius graph,
coverage, the purity pass and the ball counts must match their brute-force
oracles at every shape, and the graph's CSR must not depend on the shape.
"""

import numpy as np
import pytest

import oracles
from dcom import data, engine
from dcom.data import EmbeddingSet, _sq_dists
from dcom.graph import build_radius_graph, covered_set
from dcom.purity import min_impure_distance

# The default first, then one-cell tiles, square ones, and tiles wider and
# narrower than they are tall.
SHAPES = ((data._TILE_ROWS, data._TILE_COLS), (1, 1), (7, 7), (3, 7), (7, 3))
_SIDES = sorted({side for shape in SHAPES for side in shape if side > 1})


def _case(family, rng):
    """A Gram-corpus case padded with copies of its points to a count no tile side divides.

    So every shape above but (1, 1) has a partial last row block and tile.
    A copy is a zero distance, one more tie for the exact refine.
    """
    s, centres, radius = oracles.gram_case(family, rng)
    pts = s.vectors
    while any(pts.shape[0] % side == 0 for side in _SIDES):
        pts = np.concatenate((pts, pts[rng.integers(pts.shape[0])][None]))
    return EmbeddingSet(pts), centres, radius


def _balls(rng, s, centres, delta):
    """The centres' balls at delta, then balls at exact distances between points or small radii."""
    n = s.count
    labeled = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
    exact = s.vectors.astype(np.float64)
    far = exact[rng.integers(0, n, size=labeled.size)]
    tied = np.sqrt(_sq_dists(far, exact[labeled]))
    small = delta * np.sqrt(rng.uniform(0.0, 0.1, size=labeled.size))
    deltas = np.concatenate((np.full(centres.size, delta),
                             np.where(rng.random(labeled.size) < 0.5, tied, small)))
    return np.concatenate((centres, labeled)), deltas


@pytest.mark.parametrize("family", oracles.GRAM_FAMILIES)
def test_gram_clients_match_their_oracles_at_every_tile_shape(monkeypatch, family):
    rng = np.random.default_rng(sum(map(ord, family)) + 29)
    for _ in range(4):
        # "partial_tiles" sizes itself by the row blocks in force: 7 rows here.
        oracles.set_tile(monkeypatch, (7, 7))
        s, centres, delta = _case(family, rng)
        n = s.count
        points = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
        covered = rng.random(n) < rng.uniform(0.0, 1.0)
        labeled, deltas = _balls(rng, s, centres, delta)
        # Each centre has a label of its own, so its nearest other point decides its distance.
        labels = rng.integers(0, 3, size=n)
        labels[centres] = 3 + np.arange(centres.size)
        grid = np.unique(np.append(delta * rng.uniform(0.05, 2.0, size=6), delta))
        want_cold = oracles.radius_edges(s, delta, np.arange(n))
        want_restricted = oracles.radius_edges(s, delta, points, covered)
        want_covered = oracles.covered_set(s, labeled, deltas)
        want_impure = oracles.min_impure_distance(s, labels)
        want_total, want_same = oracles.ball_counts(s, centres, labels, grid)
        default = None
        for shape in SHAPES:
            oracles.set_tile(monkeypatch, shape)
            graphs = (build_radius_graph(s, delta), build_radius_graph(s, delta, points, covered))
            assert np.array_equal(oracles.edges(graphs[0]), want_cold)
            assert np.array_equal(oracles.edges(graphs[1]), want_restricted)
            default = default or graphs
            for got, ref in zip(graphs, default):
                assert np.array_equal(got._nbrs, ref._nbrs)
                assert np.array_equal(got._indptr, ref._indptr)
            assert np.array_equal(covered_set(s, labeled, deltas), want_covered)
            assert np.array_equal(min_impure_distance(s, labels), want_impure)
            blocks = list(engine._ball_counts(s, centres, labels, grid))
            assert np.array_equal(np.concatenate([b[0] for b in blocks]), want_total)
            assert np.array_equal(np.concatenate([b[1] for b in blocks]), want_same)


def _runs(rng, n, shape):
    """Labels in runs of the lengths around both tile sides, so runs straddle their edges."""
    sides = {1, 2} | {side + step for side in shape for step in (-1, 0, 1) if side + step > 0}
    lengths = rng.choice(sorted(sides), size=n)
    return np.repeat(np.arange(n), lengths)[:n]


# Label layouts: the pass sorts the points by label, so each layout is a set of label runs.
_LAYOUTS = {
    "interleaved": lambda rng, n, shape: np.arange(n) % 3,
    "one_point_runs": lambda rng, n, shape: rng.permutation(n),
    "single_label": lambda rng, n, shape: np.full(n, 4),
    "minus_one_and_large": lambda rng, n, shape: rng.choice([-1, 2**62, -(2**40), 5], size=n),
    "straddling_runs": _runs,
    "straddling_runs_shuffled": lambda rng, n, shape: rng.permutation(_runs(rng, n, shape)),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("family", ["lattice", "duplicates", "partial_tiles"])
def test_purity_pass_matches_its_oracle_on_every_label_layout(monkeypatch, family, layout):
    rng = np.random.default_rng(sum(map(ord, family + layout)))
    for _ in range(2):
        oracles.set_tile(monkeypatch, (7, 7))
        s, _, _ = _case(family, rng)
        for shape in SHAPES:
            oracles.set_tile(monkeypatch, shape)
            labels = _LAYOUTS[layout](rng, s.count, shape)
            got = min_impure_distance(s, labels)
            assert np.array_equal(got, oracles.min_impure_distance(s, labels))
            if layout == "single_label":
                assert np.isinf(got).all()


@pytest.mark.parametrize("shape", SHAPES)
def test_permuting_points_and_labels_permutes_the_purity_pass(monkeypatch, shape):
    oracles.set_tile(monkeypatch, shape)
    rng = np.random.default_rng(31)
    for family in ("lattice", "duplicates", "shell"):
        s, _, _ = _case(family, rng)
        labels = rng.integers(-1, 3, size=s.count)
        want = min_impure_distance(s, labels)
        for _ in range(3):
            p = rng.permutation(s.count)
            assert np.array_equal(min_impure_distance(EmbeddingSet(s.vectors[p]), labels[p]),
                                  want[p])


@pytest.mark.parametrize("shape", SHAPES)
def test_ball_count_blocks_match_their_oracles_at_every_tile_shape(monkeypatch, shape):
    # A block is min(_TILE_ROWS, _BALL_CELLS // slots) centres, one GEMM per
    # column tile, and its hook bins _BALL_CELLS // width rows at a time.
    # The cases: the default cells; cells that split a tile's rows into
    # several chunks at the shapes wider than one radius's 6 slots; and
    # 200 radii whose slots cap the block below _TILE_ROWS.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    oracles.set_tile(monkeypatch, shape)
    s, _, radius = _case("partial_tiles", rng)
    n, rows = s.count, data._TILE_ROWS
    labels = rng.integers(0, 3, size=n)
    s = EmbeddingSet(s.vectors, labels)
    # More centres than a row block, so there are several blocks.
    centres = rng.choice(n, size=rows + (n - rows) // 2, replace=False)
    assert centres.size > rows
    chunked = 0
    for cells, radii in ((2**16, 6), (6 * rows, 1), (2**16, 200),
                         (2 * 202 * max(1, 2 * rows // 3), 200)):
        monkeypatch.setattr(engine, "_BALL_CELLS", cells)
        grid = np.unique(np.append(radius * rng.uniform(0.05, 2.0, size=radii - 1), radius))
        slots = 2 * (grid.size + 2)
        step = max(1, min(rows, cells // slots))
        chunked += cells // min(n, data._TILE_COLS) < step
        blocks = list(engine._ball_counts(s, centres, labels, grid))
        assert [b[0].shape[0] for b in blocks] == [
            min(step, centres.size - lo) for lo in range(0, centres.size, step)]
        want_total, want_same = oracles.ball_counts(s, centres, labels, grid)
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), want_total)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), want_same)
        # expand_delta's radii at a grid of as many radii, the new points all centres.
        config = engine.DComConfig(delta0=radius, delta_max=2 * radius,
                                   delta_resolution=2 * radius / radii)
        rest = np.setdiff1d(np.arange(n), centres)
        earlier = rng.choice(rest, size=min(3, rest.size), replace=False)
        unlabeled = np.setdiff1d(rest, earlier)
        pool = engine.PoolState(earlier.tolist() + centres.tolist(), unlabeled.tolist(),
                                [radius] * earlier.size)
        predicted = rng.integers(0, 3, size=unlabeled.size)
        coverage = float(rng.uniform())
        got = engine.expand_delta(s, pool, centres, predicted, coverage, config)
        assert got == oracles.expand_delta(s, pool, centres, predicted, coverage, config)
    assert chunked >= (shape[1] > 6 and shape[0] > 1)

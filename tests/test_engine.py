import dataclasses

import numpy as np
import pytest

from dcom import data, engine, graph
from dcom.data import EmbeddingSet, MixtureSpec, gen_gaussian_mixture
from dcom.errors import ConfigError, PoolInvariantError
from dcom.engine import (
    DComConfig,
    PoolState,
    competence_score,
    compute_tau,
    dcom_select,
    delta_grid,
    expand_delta,
    largest_passing_index,
    run_iteration,
)
from dcom.baselines import select_probcover
from dcom.graph import build_radius_graph, covered_set
from dcom.learners import LearnerSpec

import oracles
from oracles import ball_purity_predicted


def one_d(*values, labels=None):
    return EmbeddingSet(np.array(values, dtype=np.float64)[:, None], labels=labels)


def test_competence_values():
    assert competence_score(1.0, 0.9, 30.0) == pytest.approx(1.0, abs=1e-12)
    assert competence_score(0.9, 0.9, 30.0) == pytest.approx(0.52489, abs=1e-5)
    assert competence_score(0.0, 0.8, 30.0) <= 1e-9


def test_competence_monotone_in_coverage():
    grid = np.linspace(0.0, 1.0, 101)
    for a, k in ((0.9, 30.0), (0.8, 30.0), (0.5, 5.0)):
        values = [competence_score(p, a, k) for p in grid]
        assert all(b > a_ for a_, b in zip(values, values[1:]))


def test_competence_validation():
    with pytest.raises(ConfigError):
        competence_score(1.5, 0.9, 30.0)
    with pytest.raises(ConfigError):
        competence_score(0.5, 1.0, 30.0)
    with pytest.raises(ConfigError):
        competence_score(0.5, 0.9, 0.0)


def test_compute_tau():
    assert compute_tau(0.0, 0.2, 0.4) == pytest.approx(0.4)
    assert compute_tau(1.0, 0.2, 0.4) == pytest.approx(0.6)
    with pytest.raises(ConfigError):
        compute_tau(-0.1, 0.2, 0.4)


def test_delta_grid():
    grid = delta_grid(0.05, 0.2)
    assert np.allclose(grid, [0.05, 0.1, 0.15, 0.2])
    assert len(delta_grid(0.05, 0.19)) == 3


def test_largest_passing_index_matches_linear_scan():
    # Every monotone row of each size: true ... true false ... false.
    for size in range(1, 31):
        passes = np.arange(size)[None, :] < np.arange(size + 1)[:, None]
        assert largest_passing_index(passes).tolist() == list(range(-1, size))


def test_largest_passing_index_equals_the_scalar_search_on_every_row():
    # Every boolean row of lengths 1-12, then random rows of length 1,000 at
    # several densities: the table search ends where the scalar search does.
    for size in range(1, 13):
        passes = (np.arange(2**size)[:, None] >> np.arange(size) & 1).astype(bool)
        want = [oracles.largest_passing_index(size, row.__getitem__) for row in passes]
        assert largest_passing_index(passes).tolist() == want
    rng = np.random.default_rng(3)
    passes = rng.uniform(size=(300, 1000)) < rng.uniform(size=(300, 1))
    passes[::3, 0] = True
    want = [oracles.largest_passing_index(1000, row.__getitem__) for row in passes]
    assert largest_passing_index(passes).tolist() == want


@pytest.mark.parametrize(
    "size, predicate, probes, result",
    [
        (1, lambda i: False, [0], -1),
        (2, lambda i: i % 2 == 0, [0, 1], 0),
        (7, lambda i: i in (0, 2, 6), [0, 3, 1], 0),
        (30, lambda i: i % 3 != 1, [0, 15, 22, 18, 20, 21], 21),
        (40, lambda i: bin(i).count("1") % 2 == 0, [0, 20, 30, 35, 32, 31], 30),
        (100, lambda i: i < 10 or 60 <= i < 70 or i == 99, [0, 50, 25, 12, 6, 9, 10], 9),
    ],
)
def test_largest_passing_index_probe_sequence(size, predicate, probes, result):
    # expand_delta's purity need not be monotone in the radius, so its radii
    # are whatever this fixed sequence of probes ends on; these pin the scalar
    # reference, and the table search ends where it does.
    seen = []

    def recorded(i):
        seen.append(i)
        return predicate(i)

    assert oracles.largest_passing_index(size, recorded) == result
    assert seen == probes
    row = np.array([[predicate(i) for i in range(size)]])
    assert largest_passing_index(row).tolist() == [result]


def test_pool_state_validation():
    PoolState([0], [1, 2], [0.5]).validate(3)
    with pytest.raises(PoolInvariantError):
        PoolState([0], [0, 1, 2], [0.5]).validate(3)
    with pytest.raises(PoolInvariantError):
        PoolState([0], [1], [0.5]).validate(3)
    with pytest.raises(PoolInvariantError, match="pool.labeled must not repeat an index: 0 "):
        PoolState([0, 0], [1, 2], [0.5, 0.5]).validate(3)
    with pytest.raises(PoolInvariantError, match="pool.unlabeled must not repeat an index: 1 "):
        PoolState([0], [1, 1, 2], [0.5]).validate(3)
    with pytest.raises(PoolInvariantError):
        PoolState([0], [1, 2], [0.5, 0.5]).validate(3)
    with pytest.raises(PoolInvariantError):
        PoolState([0], [1, 2], [-0.5]).validate(3)


# The rules PoolState's constructor checks; the rest need n, and validate checks them.
CONSTRUCTION_RULES = ("repeat", "overlap", "negative", "bool", "float",
                      "radius-zero", "radius-negative", "radius-nan", "radius-inf")
N_RULES = ("past-n", "missing", "radius-count")
BAD_RADII = {"radius-zero": 0.0, "radius-negative": -0.5, "radius-nan": np.nan,
             "radius-inf": np.inf}


def _random_pool(rng, rule):
    """(labeled, unlabeled, deltas, n): a random partition of range(n), n >= 2, with rule broken.

    rule None leaves the pool valid. An index rule breaks one of the two
    lists; a labeled index added or removed takes its radius along, so the
    radius count stays right.
    """
    n = int(rng.integers(2, 25))
    order = rng.permutation(n).tolist()
    k = int(rng.integers(1 if rule in BAD_RADII else 0, n + 1))
    labeled, unlabeled, deltas = order[:k], order[k:], rng.uniform(0.05, 2.0, k).tolist()
    side, other = (labeled, unlabeled) if rng.random() < 0.5 else (unlabeled, labeled)
    if not (other if rule == "overlap" else side):
        side, other = other, side
    added = None
    if rule == "repeat":
        added = side[int(rng.integers(len(side)))]
    elif rule == "overlap":
        added = other[int(rng.integers(len(other)))]
    elif rule == "negative":
        added = -int(rng.integers(1, 4))
    elif rule == "past-n":
        added = n + int(rng.integers(3))
    if added is not None:
        side.insert(int(rng.integers(len(side) + 1)), added)
        if side is labeled:
            deltas.append(0.5)
    elif rule == "missing":
        at = int(rng.integers(len(side)))
        del side[at]
        if side is labeled:
            del deltas[at]
    elif rule in ("bool", "float"):
        value = int(rng.integers(2 if rule == "bool" else n))
        holder = labeled if value in labeled else unlabeled
        holder[holder.index(value)] = bool(value) if rule == "bool" else float(value)
    elif rule == "radius-count":
        if deltas and rng.random() < 0.5:
            deltas.pop()
        else:
            deltas.append(0.5)
    elif rule is not None:
        deltas[int(rng.integers(len(deltas)))] = BAD_RADII[rule]
    return labeled, unlabeled, deltas, n


def test_pool_contract_matches_the_set_based_oracle():
    rules = (None, *CONSTRUCTION_RULES, *N_RULES)
    for seed in range(200):
        rule = rules[seed % len(rules)]
        labeled, unlabeled, deltas, n = _random_pool(np.random.default_rng(seed), rule)
        valid = oracles.pool_is_valid(labeled, unlabeled, deltas, n)
        assert valid == (rule is None), (seed, rule)
        if rule in CONSTRUCTION_RULES:
            with pytest.raises(PoolInvariantError):
                PoolState(labeled, unlabeled, deltas)
            continue
        pool = PoolState(labeled, unlabeled, deltas)
        if valid:
            pool.validate(n)
        else:
            with pytest.raises(PoolInvariantError):
                pool.validate(n)


def test_pool_state_fields_cannot_be_assigned():
    pool = PoolState([0], [1, 2], [0.5])
    for name, value in (("labeled", [1]), ("unlabeled", [0, 2]), ("deltas", [0.25])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pool, name, value)
    assert pool == PoolState([0], [1, 2], [0.5])


def test_config_defaults_and_validation():
    cfg = DComConfig(delta0=0.3)
    assert cfg.delta_max == pytest.approx(0.6)
    assert cfg.tau_slope == 0.2 and cfg.tau_intercept == 0.4
    with pytest.raises(ConfigError):
        DComConfig(delta0=0.0)
    with pytest.raises(ConfigError):
        DComConfig(delta0=0.5, delta_max=0.4)
    with pytest.raises(ConfigError):
        DComConfig(delta0=0.5, logistic_a=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make, error, field",
    [
        (lambda v: DComConfig(delta0=v), ConfigError, "delta0"),
        (lambda v: DComConfig(delta0=v, delta_max=1.0), ConfigError, "delta0"),
        (lambda v: DComConfig(delta0=0.5, delta_max=v), ConfigError, "delta_max"),
        (lambda v: DComConfig(delta0=0.5, delta_resolution=v), ConfigError, "delta_resolution"),
        (lambda v: DComConfig(delta0=0.5, tau_slope=v), ConfigError, "tau_slope"),
        (lambda v: DComConfig(delta0=0.5, tau_intercept=v), ConfigError, "tau_intercept"),
        (lambda v: DComConfig(delta0=0.5, logistic_a=v), ConfigError, "logistic_a"),
        (lambda v: DComConfig(delta0=0.5, logistic_k=v), ConfigError, "logistic_k"),
        (lambda v: competence_score(0.5, 0.9, v), ConfigError, "finite k"),
        (lambda v: LearnerSpec(learning_rate=v), ValueError, "learning_rate"),
        (lambda v: LearnerSpec(l2_penalty=v), ValueError, "l2_penalty"),
        (lambda v: LearnerSpec(temperature=v), ValueError, "temperature"),
    ],
    ids=["delta0", "delta0-with-delta_max", "delta_max", "delta_resolution", "tau_slope",
         "tau_intercept", "logistic_a", "logistic_k", "competence-k", "learning_rate",
         "l2_penalty", "temperature"],
)
def test_non_finite_config_values_are_rejected_naming_the_field(make, error, field, value):
    # A check written "x <= 0" lets NaN through: DComConfig(delta0=0.5,
    # logistic_k=nan) once made dcom_select pick the lowest positions at
    # competence nan.
    with pytest.raises(error, match=field):
        make(value)


def test_config_bounds_its_grid():
    # A square past float64 used to warn in expand_delta, and a fine
    # resolution to allocate its grid and count tables without limit.
    with pytest.raises(ConfigError, match="delta_max 2e[+]160 is too large"):
        DComConfig(delta0=1e160, delta_max=2e160, delta_resolution=1e160)
    for resolution in (1e-9, 1 / (2**16 + 1)):
        with pytest.raises(ConfigError, match="delta_resolution must be at least"):
            DComConfig(delta0=0.5, delta_max=1.0, delta_resolution=resolution)
    config = DComConfig(delta0=0.5, delta_max=1.0, delta_resolution=2**-16)
    assert delta_grid(config.delta_resolution, config.delta_max).size == 2**16
    DComConfig(delta0=1e154, delta_max=1e154, delta_resolution=5e153)


def test_ball_purity_predicted():
    s = one_d(0.0, 0.2, 0.5, labels=[0, 0, 1])
    pool = PoolState([0], [1, 2], [0.1])
    # Predicted labels for unlabeled [1, 2].
    assert ball_purity_predicted(s, pool, [0, 1], center=0, delta=0.3) == 1.0
    assert ball_purity_predicted(s, pool, [1, 1], center=0, delta=0.3) == 0.0
    assert ball_purity_predicted(s, pool, [0, 1], center=0, delta=0.6) == pytest.approx(0.5)
    # Empty ball is pure by definition.
    assert ball_purity_predicted(s, pool, [0, 1], center=2, delta=0.05) == 1.0


def test_expand_delta_matches_linear_scan():
    rng = np.random.default_rng(2)
    config = DComConfig(delta0=0.5, delta_max=1.0, delta_resolution=0.05)
    grid = delta_grid(0.05, 1.0)
    for trial in range(10):
        s = EmbeddingSet(rng.normal(size=(40, 2)), labels=rng.integers(0, 3, size=40))
        labeled = sorted(rng.choice(40, size=6, replace=False).tolist())
        unlabeled = [i for i in range(40) if i not in labeled]
        pool = PoolState(labeled, unlabeled, [0.5] * 4)
        predicted = rng.integers(0, 3, size=len(unlabeled))
        coverage_old = float(rng.uniform(0, 1))
        new_points = labeled[-2:]
        deltas = expand_delta(s, pool, new_points, predicted, coverage_old, config)
        assert deltas == oracles.expand_delta(s, pool, new_points, predicted, coverage_old, config)
        assert deltas[:4] == [0.5] * 4
        tau = compute_tau(coverage_old, 0.2, 0.4)
        for v, got in zip(new_points, deltas[4:]):
            flags = [
                ball_purity_predicted(s, pool, predicted, v, d) > tau for d in grid
            ]
            assert got in grid.tolist()
            # On a pass/fail profile that flips once the search is a linear scan.
            if flags == sorted(flags, reverse=True):
                expected = grid[sum(flags) - 1] if any(flags) else grid[0]
                assert got == expected


def test_expand_delta_fallback_to_resolution():
    s = one_d(0.0, 0.01, labels=[0, 1])
    pool = PoolState([0, 1], [], [0.5])
    config = DComConfig(delta0=0.5, delta_max=1.0)
    deltas = expand_delta(s, pool, [1], [], 0.9, config)
    assert deltas == [0.5, delta_grid(0.05, 1.0)[0]] == [0.5, 0.05]


@pytest.mark.parametrize(
    "new_points, predicted, error, message, deltas",
    [
        # A length-1 prediction used to broadcast over every unlabeled point.
        ([1], [1], PoolInvariantError, "holds 1 labels for 2 unlabeled points", [0.5]),
        # -1 used to read point n - 1.
        ([-1], [1, 1], ValueError, r"new_points\[0\] is -1, outside \[0, 4\)", [0.5]),
        ([4], [1, 1], ValueError, r"new_points\[0\] is 4", [0.5]),
        ([0.5], [1, 1], ValueError, "new_points must hold integer indices", [0.5]),
        # An unlabeled point used to get a radius from its own prediction.
        ([2], [1, 1], PoolInvariantError, "new point 2 is not in pool.labeled", [0.5]),
        ([1, 1], [1, 1], PoolInvariantError, "new_points must be distinct", [0.5]),
        # The radii used to come back as [0.25] and as four radii for two points.
        ([1], [1, 1], PoolInvariantError, "0 radii for 1 labeled points besides new_points", []),
        ([1], [1, 1], PoolInvariantError, "3 radii for 1 labeled points besides new_points",
         [0.5] * 3),
    ],
)
def test_expand_delta_names_bad_input(new_points, predicted, error, message, deltas):
    s = one_d(0.0, 0.2, 0.5, 0.9, labels=[0, 0, 1, 1])
    pool = PoolState([0, 1], [2, 3], deltas)
    config = DComConfig(delta0=0.5)
    with pytest.raises(error, match=message):
        expand_delta(s, pool, new_points, predicted, 0.5, config)


def _random_round(rng, s, num_labeled, num_new, classes):
    """A pool of num_labeled random points whose last num_new are new, and predictions."""
    n = s.count
    labeled = rng.choice(n, size=num_labeled, replace=False).tolist()
    unlabeled = sorted(set(range(n)) - set(labeled))
    pool = PoolState(labeled, unlabeled, [0.5] * (num_labeled - num_new))
    return pool, labeled[-num_new:], rng.integers(0, classes, size=len(unlabeled))


def _family(name, rng):
    """(embedding set, config, coverage) of one randomized expand_delta family."""
    config = DComConfig(delta0=0.5, delta_max=1.0, delta_resolution=0.05)
    if name == "lattice":
        # Points 0.25 apart in float32 and a 0.25 grid: many distances equal a
        # grid radius exactly, so the <= in the ball test decides.
        cells = rng.integers(-4, 5, size=(60, 2)).astype(np.float64) * 0.25
        config = DComConfig(delta0=0.5, delta_max=1.5, delta_resolution=0.25)
        return EmbeddingSet(cells, labels=rng.integers(0, 2, size=60)), config, 0.5
    if name == "lattice-0.05":
        cells = rng.integers(-10, 11, size=(60, 2)).astype(np.float64) * 0.05
        return EmbeddingSet(cells, labels=rng.integers(0, 2, size=60)), config, 0.5
    if name == "duplicates":
        # Each point repeated, so every centre has copies at distance 0.
        base = rng.normal(size=(12, 3)) * 0.3
        points = base[rng.integers(0, 12, size=60)]
        return EmbeddingSet(points, labels=rng.integers(0, 3, size=60)), config, 0.3
    if name == "tau-near-0":
        config = DComConfig(delta0=0.5, delta_max=1.0, tau_slope=0.0, tau_intercept=1e-12)
        return EmbeddingSet(rng.normal(size=(60, 2)), labels=rng.integers(0, 2, size=60)), config, 0.1
    if name == "tau-near-1":
        config = DComConfig(delta0=0.5, delta_max=1.0, tau_slope=0.0, tau_intercept=1 - 1e-12)
        return EmbeddingSet(rng.normal(size=(60, 2)), labels=rng.integers(0, 2, size=60)), config, 0.9
    if name == "tau-half":
        # Balls split evenly between two labels sit exactly on tau = 0.5.
        config = DComConfig(delta0=0.5, delta_max=1.0, tau_slope=0.0, tau_intercept=0.5)
        cells = rng.integers(-3, 4, size=(60, 1)).astype(np.float64) * 0.25
        return EmbeddingSet(cells, labels=rng.integers(0, 2, size=60)), config, 0.5
    if name == "large-norm":
        # Norms near 1e4: the slack dwarfs the grid spacing, so most pairs are refined.
        points = 1e4 + rng.normal(size=(60, 4))
        config = DComConfig(delta0=1.0, delta_max=3.0, delta_resolution=0.1)
        return EmbeddingSet(points, labels=rng.integers(0, 2, size=60)), config, 0.4
    if name == "large-spread":
        points = rng.normal(size=(60, 8)) * 1e3
        config = DComConfig(delta0=2e3, delta_max=6e3, delta_resolution=1e2)
        return EmbeddingSet(points, labels=rng.integers(0, 2, size=60)), config, 0.4
    if name == "huge-norm":
        # |x|^2 near 1e38 would overflow float32 keys, so the pass runs in float64.
        points = rng.normal(size=(60, 3)) * 1e19
        config = DComConfig(delta0=2e19, delta_max=6e19, delta_resolution=2e18)
        return EmbeddingSet(points, labels=rng.integers(0, 2, size=60)), config, 0.4
    if name == "fine-grid":
        # 10,000 radii, more than one per bucket: few pairs escape the refine.
        config = DComConfig(delta0=0.5, delta_max=1.0, delta_resolution=1e-4)
        return EmbeddingSet(rng.normal(size=(60, 2)), labels=rng.integers(0, 2, size=60)), config, 0.5
    if name == "d1":
        return EmbeddingSet(rng.normal(size=(80, 1)), labels=rng.integers(0, 3, size=80)), config, 0.6
    if name == "d64":
        s = gen_gaussian_mixture(MixtureSpec(4, 40, 64, 1.5, 1.0, seed=int(rng.integers(1000))))
        points = s.vectors / np.linalg.norm(s.vectors, axis=1, keepdims=True)
        config = DComConfig(delta0=0.7, delta_max=1.5, delta_resolution=0.05)
        return EmbeddingSet(points, labels=s.labels), config, 0.7
    raise ValueError(name)


FAMILIES = ["lattice", "lattice-0.05", "duplicates", "tau-near-0", "tau-near-1",
            "tau-half", "large-norm", "large-spread", "huge-norm", "fine-grid", "d1", "d64"]


@pytest.mark.parametrize("family", FAMILIES)
def test_expand_delta_equals_the_per_point_oracle(family):
    rng = np.random.default_rng(FAMILIES.index(family))
    for _ in range(4):
        s, config, coverage = _family(family, rng)
        pool, new_points, predicted = _random_round(rng, s, 20, 8, 3)
        got = expand_delta(s, pool, new_points, predicted, coverage, config)
        assert got == oracles.expand_delta(s, pool, new_points, predicted, coverage, config)


def test_expand_delta_ball_of_only_unlabeled_points():
    # Centre 0's neighbours within 1 are all unlabeled, so predictions alone
    # decide its radius; every labeled point is at least 5 away.
    rng = np.random.default_rng(7)
    near = rng.uniform(-0.3, 0.3, size=(30, 2))
    far = 5.0 + rng.uniform(size=(10, 2))
    s = EmbeddingSet(np.vstack(([[0.0, 0.0]], near, far)), labels=rng.integers(0, 2, size=41))
    config = DComConfig(delta0=0.5, delta_max=1.0)
    labeled = [0] + list(range(31, 41))
    unlabeled = list(range(1, 31))
    pool = PoolState(labeled, unlabeled, [0.5] * 10)
    for predicted in (np.zeros(30, dtype=int), np.ones(30, dtype=int), rng.integers(0, 2, 30)):
        got = expand_delta(s, pool, [0], predicted, 0.5, config)
        assert got == oracles.expand_delta(s, pool, [0], predicted, 0.5, config)


@pytest.mark.parametrize("family", ["lattice", "duplicates", "large-norm", "huge-norm", "d1", "d64"])
@pytest.mark.parametrize("buckets, cells, tile",
                         [(2**14, 2**16, (256, 4096)), (16, 1, (256, 7)), (64, 2**20, (3, 5))])
def test_ball_counts_equal_brute_force_on_a_non_uniform_grid(monkeypatch, family, buckets,
                                                             cells, tile):
    # Few buckets mark most pairs for the refine; one cell runs a block per
    # centre; three-row blocks split a block of centres across several row
    # blocks. The narrow tiles split every row into several.
    monkeypatch.setattr(engine, "_BUCKETS", buckets)
    monkeypatch.setattr(engine, "_BALL_CELLS", cells)
    oracles.set_tile(monkeypatch, tile)
    rng = np.random.default_rng(11)
    s, config, _ = _family(family, rng)
    top = config.delta_max
    grid = np.concatenate((np.sort(rng.uniform(0, top, size=7)), [top / 4, top / 2, top]))
    grid = np.unique(np.concatenate((grid, delta_grid(config.delta_resolution, top)[::3])))
    labels = rng.integers(0, 3, size=s.count)
    centers = rng.choice(s.count, size=10, replace=False)
    blocks = list(engine._ball_counts(s, centers, labels, grid))
    total = np.concatenate([b[0] for b in blocks])
    same = np.concatenate([b[1] for b in blocks])
    want_total, want_same = oracles.ball_counts(s, centers, labels, grid)
    np.testing.assert_array_equal(total, want_total)
    np.testing.assert_array_equal(same, want_same)


@pytest.mark.parametrize("family", oracles.GRAM_FAMILIES)
def test_ball_counts_equal_brute_force_on_the_gram_corpus(monkeypatch, family):
    # The radius graph's adversarial cases, each with its radius on the grid.
    rng = np.random.default_rng(sum(map(ord, family)))
    for tile in ((data._TILE_ROWS, data._TILE_COLS), (7, 3)):
        oracles.set_tile(monkeypatch, tile)
        s, centres, radius = oracles.gram_case(family, rng)
        grid = np.unique(np.append(radius * rng.uniform(0.05, 2.0, size=6), radius))
        labels = rng.integers(0, 3, size=s.count)
        blocks = list(engine._ball_counts(s, centres, labels, grid))
        want_total, want_same = oracles.ball_counts(s, centres, labels, grid)
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), want_total)
        np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), want_same)


def test_dcom_select_empty_pool_is_degree_greedy():
    s = one_d(0.0, 0.4, 0.8, 5.0)
    pool = PoolState([], list(range(4)), [])
    result = dcom_select(s, pool, np.ones(4), 2, DComConfig(delta0=0.5))
    assert result.coverage_before == 0.0
    assert result.competence == 0.0
    # Point 1 has the highest out-degree; its ball is then pruned, leaving
    # all remaining degrees zero, so the next pick is the lowest index.
    assert result.selected == [1, 0]


def test_dcom_select_matches_stepwise_oracle():
    rng = np.random.default_rng(5)
    config = DComConfig(delta0=0.6)
    for trial in range(8):
        s = EmbeddingSet(rng.normal(size=(50, 2)))
        labeled = sorted(rng.choice(50, size=5, replace=False).tolist())
        unlabeled = [i for i in range(50) if i not in labeled]
        deltas = rng.uniform(0.2, 1.0, size=5).tolist()
        margins = rng.random(len(unlabeled))
        result = dcom_select(s, pool_copy(labeled, unlabeled, deltas), margins, 6, config)
        oracle = stepwise_oracle(s, labeled, unlabeled, deltas, margins, 6, config)
        assert result.selected == oracle


def pool_copy(labeled, unlabeled, deltas):
    return PoolState(list(labeled), list(unlabeled), list(deltas))


def stepwise_oracle(s, labeled, unlabeled, deltas, margins, q, config):
    """Recompute every greedy step from scratch with plain loops."""
    pts = s.vectors.astype(np.float64)
    covered = covered_set(s, labeled, deltas)
    competence = competence_score(covered.mean(), config.logistic_a, config.logistic_k)
    delta_avg = float(np.mean(deltas)) if labeled else config.delta0

    margin_map = dict(zip(unlabeled, margins))
    blocked = set(np.flatnonzero(covered).tolist()) | set(labeled)
    selected = []
    for _ in range(q):
        degrees = {}
        for u in unlabeled:
            if u in selected or u in labeled:
                degrees[u] = 0
                continue
            degrees[u] = sum(
                1
                for v in range(s.count)
                if v != u
                and v not in blocked
                and ((pts[u] - pts[v]) ** 2).sum() <= delta_avg**2
            )
        top = max(degrees[u] for u in unlabeled)
        best_u, best_score = None, -np.inf
        for u in unlabeled:
            if u in selected:
                continue
            odr = degrees[u] / top if top > 0 else 0.0
            m = 1.0 if u in selected else margin_map[u]
            score = competence * (1.0 - m) + (1.0 - competence) * odr
            if score > best_score:
                best_u, best_score = u, score
        selected.append(best_u)
        blocked.add(best_u)
        for v in range(s.count):
            if ((pts[best_u] - pts[v]) ** 2).sum() <= delta_avg**2:
                blocked.add(v)
        margin_map[best_u] = 1.0
    return selected


def test_dcom_select_validation():
    s = one_d(0.0, 1.0)
    with pytest.raises(PoolInvariantError):
        dcom_select(s, PoolState([], [0, 1], []), np.ones(2), 3, DComConfig(delta0=0.5))
    with pytest.raises(PoolInvariantError):
        dcom_select(s, PoolState([], [0, 1], []), np.ones(3), 1, DComConfig(delta0=0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25, 1.5])
def test_dcom_select_rejects_a_margin_outside_the_unit_interval(bad):
    # A NaN margin would win the cold-start argmax: the picks were [7, 20, 40].
    s = gen_gaussian_mixture(MixtureSpec(3, 20, 3, 4.0, 1.0, seed=9))
    margins = np.ones(60)
    margins[[7, 30]] = bad
    # Descending pools: the position named is the margin's, not the sorted one.
    cold = PoolState([], list(range(59, -1, -1)), [])
    warm = PoolState([0], list(range(59, 0, -1)), [0.4])
    for pool in (cold, warm):
        with pytest.raises(PoolInvariantError, match=rf"margins\[7\] is {bad}$"):
            dcom_select(s, pool, margins[: len(pool.unlabeled)], 3, DComConfig(delta0=0.5))
    pool = PoolState([], list(range(60)), [])
    assert dcom_select(s, pool, np.linspace(0.0, 1.0, 60), 3, DComConfig(delta0=0.5)).selected


# q=True used to pick one point, and q=2.5 to fail in range().
@pytest.mark.parametrize("q", [0, -1, True, 2.5])
def test_nonpositive_budget_rejected(q):
    s = one_d(0.0, 1.0, 2.0, labels=[0, 1, 0])
    pool = PoolState([], [0, 1, 2], [])
    config = DComConfig(delta0=0.5)
    with pytest.raises(PoolInvariantError, match="^q"):
        dcom_select(s, pool, np.ones(3), q, config)
    with pytest.raises(PoolInvariantError, match="^q"):
        run_iteration(s, pool, LearnerSpec(), q, config)
    assert len(dcom_select(s, pool, np.ones(3), np.int64(3), config).selected) == 3


def test_dcom_select_no_duplicates_and_unlabeled_only():
    s = gen_gaussian_mixture(MixtureSpec(3, 20, 3, 4.0, 1.0, seed=9))
    labeled = [0, 20, 40]
    unlabeled = [i for i in range(60) if i not in labeled]
    pool = PoolState(labeled, unlabeled, [0.4, 0.4, 0.4])
    result = dcom_select(s, pool, np.random.default_rng(0).random(57), 10, DComConfig(delta0=0.5))
    assert len(set(result.selected)) == 10
    assert set(result.selected) <= set(unlabeled)


def test_run_iteration_cold_start_and_growth():
    s = gen_gaussian_mixture(MixtureSpec(3, 15, 4, 6.0, 0.8, seed=4))
    config = DComConfig(delta0=0.8)
    spec = LearnerSpec(epochs=40)
    pool = PoolState([], list(range(s.count)), [])
    result, pool, learner, metrics = run_iteration(s, pool, spec, 4, config)
    assert len(pool.labeled) == 4 and len(pool.deltas) == 4
    assert metrics["coverage"] == 0.0 and metrics["competence"] == 0.0
    pool.validate(s.count)
    # The top of the grid may round just above delta_max (12 * 0.05 > 0.6).
    largest = max(config.delta_max, delta_grid(config.delta_resolution, config.delta_max)[-1])
    assert max(pool.deltas) <= largest

    result2, pool2, learner2, metrics2 = run_iteration(s, pool, spec, 4, config, learner)
    assert len(pool2.labeled) == 8
    assert pool2.labeled[:4] == pool.labeled
    assert pool2.deltas[:4] == pool.deltas
    assert metrics2["coverage"] >= metrics["coverage"]
    pool2.validate(s.count)
    assert max(pool2.deltas) <= largest


def test_run_iteration_single_class_start():
    # All of class 0 sits in one tight blob, so the first picks can share a class.
    s = EmbeddingSet(
        [[0.0], [0.01], [0.02], [5.0], [5.01]], labels=[0, 0, 0, 1, 1]
    )
    pool = PoolState([0], [1, 2, 3, 4], [0.05])
    _, new_pool, _, _ = run_iteration(s, pool, LearnerSpec(epochs=10), 1, DComConfig(delta0=0.05))
    new_pool.validate(5)
    assert len(new_pool.labeled) == 2


def full_build_then_prune(s, labeled, deltas, delta):
    """Graph over every pair with the covered targets pruned.

    Edges out of labeled points stay, but only unlabeled degrees are read.
    """
    graph = build_radius_graph(s, delta)
    if labeled:
        oracles.prune_incoming(graph, np.flatnonzero(covered_set(s, labeled, deltas)))
    return graph


def pruned_graph_dcom_oracle(s, labeled, unlabeled, deltas, margins, q, config):
    """dcom_select's greedy loop over a full-build-then-prune graph."""
    if labeled:
        coverage = covered_set(s, labeled, deltas).mean()
        competence = competence_score(coverage, config.logistic_a, config.logistic_k)
        delta = float(np.mean(deltas))
    else:
        competence, delta = 0.0, config.delta0
    graph = full_build_then_prune(s, labeled, deltas, delta)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    margin_full = np.ones(s.count)
    margin_full[unlabeled] = margins
    unlabeled = np.sort(unlabeled)  # lowest index on ties
    available = np.ones(unlabeled.size, dtype=bool)
    selected = []
    for _ in range(q):
        degrees = graph.out_degree[unlabeled].astype(np.float64)
        top = degrees.max()
        odr = degrees / top if top > 0 else np.zeros_like(degrees)
        scores = competence * (1.0 - margin_full[unlabeled]) + (1.0 - competence) * odr
        pos = int(np.argmax(np.where(available, scores, -np.inf)))
        pick = int(unlabeled[pos])
        selected.append(pick)
        available[pos] = False
        oracles.prune_incoming(graph, np.append(graph.ball_members(pick), pick))
        margin_full[pick] = 1.0
    return selected


def pruned_graph_probcover_oracle(s, labeled, unlabeled, delta0, q):
    """select_probcover's greedy loop over a full-build-then-prune graph."""
    graph = full_build_then_prune(s, labeled, [delta0] * len(labeled), delta0)
    unlabeled = np.sort(np.asarray(unlabeled, dtype=np.int64))  # lowest index on ties
    available = np.ones(unlabeled.size, dtype=bool)
    selected = []
    for _ in range(q):
        degrees = graph.out_degree[unlabeled].astype(np.float64)
        pos = int(np.argmax(np.where(available, degrees, -np.inf)))
        pick = int(unlabeled[pos])
        selected.append(pick)
        available[pos] = False
        oracles.prune_incoming(graph, np.append(graph.ball_members(pick), pick))
    return selected


def partly_covered_pool(rng, lattice):
    n = int(rng.integers(20, 90))
    if lattice:
        s = EmbeddingSet(rng.integers(-3, 4, size=(n, 2)).astype(np.float64))
    else:
        s = EmbeddingSet(rng.normal(size=(n, 3)))
    size = int(rng.integers(0, n // 3))
    labeled = rng.choice(n, size=size, replace=False).tolist()
    labeled_set = set(labeled)
    unlabeled = [int(i) for i in rng.permutation(n) if i not in labeled_set]
    deltas = (
        rng.choice([1.0, np.sqrt(2.0)], size=size) if lattice
        else rng.uniform(0.2, 1.0, size=size)
    ).tolist()
    return s, labeled, unlabeled, deltas


@pytest.mark.parametrize("lattice", [False, True])
def test_dcom_select_matches_full_build_then_prune(lattice):
    rng = np.random.default_rng(31 + lattice)
    config = DComConfig(delta0=1.0 if lattice else 0.6, delta_max=2.0, logistic_k=5.0)
    partly = 0
    for _ in range(30):
        s, labeled, unlabeled, deltas = partly_covered_pool(rng, lattice)
        if labeled:
            partly += 0 < covered_set(s, labeled, deltas).mean() < 1
        margins = rng.random(len(unlabeled))
        q = int(rng.integers(1, min(12, len(unlabeled)) + 1))
        pool = PoolState(list(labeled), list(unlabeled), list(deltas))
        result = dcom_select(s, pool, margins, q, config)
        expected = pruned_graph_dcom_oracle(s, labeled, unlabeled, deltas, margins, q, config)
        assert result.selected == expected
    assert partly >= 10


@pytest.mark.parametrize("lattice", [False, True])
def test_probcover_matches_full_build_then_prune(lattice):
    rng = np.random.default_rng(41 + lattice)
    for _ in range(30):
        s, labeled, unlabeled, _ = partly_covered_pool(rng, lattice)
        delta0 = float(rng.choice([1.0, np.sqrt(2.0)])) if lattice else 0.5
        q = int(rng.integers(1, min(12, len(unlabeled)) + 1))
        pool = PoolState(list(labeled), list(unlabeled), [])
        expected = pruned_graph_probcover_oracle(s, labeled, unlabeled, delta0, q)
        assert select_probcover(s, pool, delta0, q) == expected


def greedy_case(rng):
    """A pool for _greedy_select: points, sorted distinct unlabeled, covered mask, radius, q.

    Lattice points tie exactly in distance and degree; unlabeled may be a
    subset with points in neither list; a third of the cases pick every
    unlabeled point, so the top degree reaches 0 and the tail picks run.
    """
    n, d = int(rng.integers(5, 401)), int(rng.integers(1, 9))
    if rng.random() < 0.5:
        s = EmbeddingSet(rng.integers(-3, 4, size=(n, d)).astype(np.float64))
        radius = float(np.sqrt(rng.integers(1, d + 3)))
    else:
        s = EmbeddingSet(rng.normal(size=(n, d)))
        exact = s.vectors.astype(np.float64)
        sq = data._sq_dists(exact, exact[int(rng.integers(n))])
        radius = float(np.sqrt(np.quantile(sq, rng.uniform(0.02, 0.3), method="lower"))) or 1.0
    size = n if rng.random() < 0.5 else int(rng.integers(1, n + 1))
    unlabeled = np.sort(rng.choice(n, size=size, replace=False))
    covered = None if rng.random() < 0.3 else rng.random(n) < rng.uniform(0.0, 0.9)
    q = size if rng.random() < 1 / 3 else int(rng.integers(1, size + 1))
    return s, unlabeled, covered, radius, q


def test_greedy_select_at_competence_zero_equals_the_float_score_oracle():
    # The integer-degree pick reads no margins; the oracle gets random ones.
    rng = np.random.default_rng(2205)
    everything = 0
    for _ in range(64):
        s, unlabeled, covered, radius, q = greedy_case(rng)
        everything += q == unlabeled.size
        margins = rng.random(unlabeled.size)
        got = engine._greedy_select(s, unlabeled, covered, radius, 0.0, None, q)
        assert got == oracles.greedy_select(s, unlabeled, covered, radius, 0.0, margins, q)
        competence = float(rng.uniform(0.01, 1.0))
        got = engine._greedy_select(s, unlabeled, covered, radius, competence, margins, q)
        assert got == oracles.greedy_select(s, unlabeled, covered, radius, competence, margins, q)
    assert everything >= 15


def test_greedy_select_tail_equals_the_stepwise_oracle(monkeypatch):
    # Once the top degree is 0 the loop stops stepping and sorts the rest, so
    # it covers fewer balls than it picks; the oracle steps every pick.
    covers = []
    cover = graph.RadiusGraph._cover
    monkeypatch.setattr(graph.RadiusGraph, "_cover",
                        lambda self, targets: covers.append(1) or cover(self, targets))
    rng = np.random.default_rng(1771)
    mid_loop = 0
    for trial in range(90):
        s, unlabeled, covered, radius, q = greedy_case(rng)
        if trial % 3 == 0:
            covered = np.ones(s.count, dtype=bool)  # a fully covered pool: an empty graph
        if trial % 2 == 0:
            q = unlabeled.size  # every available point
        # Few distinct margins, so the tail's sort meets many ties.
        margins = rng.choice([0.0, 0.25, 0.5, 1.0], size=unlabeled.size)
        for competence in (0.0, 0.5, 1.0):
            covers.clear()
            got = engine._greedy_select(s, unlabeled, covered, radius, competence, margins, q)
            assert got == oracles.greedy_select(s, unlabeled, covered, radius, competence,
                                                margins, q)
            if trial % 3 == 0:
                assert covers == []
            mid_loop += 0 < len(covers) < q
    assert mid_loop >= 30


def test_dcom_select_on_a_fully_covered_pool_sorts_by_margin():
    # Coverage 1.0 gives competence exactly 1.0 and an empty graph: the
    # picks are the highest 1 - margin, lowest index on ties, with no step.
    s = one_d(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    pool = PoolState([0], [1, 2, 3, 4, 5, 6], [10.0])
    margins = [0.5, 0.2, 0.5, 0.2, 0.9, 0.0]
    result = dcom_select(s, pool, margins, 6, DComConfig(delta0=0.5))
    assert result.coverage_before == 1.0 and result.competence == 1.0
    assert result.selected == [6, 2, 4, 1, 3, 5]

"""Dynamic coverage-and-margin query selection and per-point radius expansion.

The selection loop greedily maximizes a competence-weighted mix of margin
uncertainty and out-degree rank over a radius graph; after annotation, each
new point receives the largest radius whose predicted-label purity still
clears an adaptive threshold. _greedy_select holds the package's only greedy
loop: ProbCover's max-coverage selection (baselines.select_probcover) is the
same loop at competence 0 with a uniform radius. At competence 0, every
probcover pick and every pick of a cold start, a step is one argmax over the
graph's integer out-degrees, which provably gives the float score's pick;
above 0 it scores every unlabeled point. Either way the pick's ball is
covered with no re-check, as the graph itself produced its indices. Once no
out-degree is left, as on a fully covered pool from the start, the loop
stops stepping and the rest of the picks come from one stable sort of the
margin term. The radii's ball counts come from data._gram_pairs, the radius
graph's Gram pass: a float32 key bins each pair under the grid radii, and
the hook marks only the pairs in a band around a grid radius, as wide as the
lemma of data._gram_inputs needs, for the exact float64 refine. Each block
of up to data._TILE_ROWS new points meets each column tile in one GEMM, and
then gets its radii from one pass/fail table of its counts, which
largest_passing_index searches for every row at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data
from .data import UNKNOWN_LABEL, EmbeddingSet, _gram_inputs, _gram_pairs, _pair_sq_dists
from .errors import ConfigError, PoolInvariantError
from .graph import _distinct, _index_array, _indices, build_radius_graph, covered_set
from .learners import (
    LearnerSpec,
    normalize_unit_interval,
    predict_softmax,
    train_learner,
    train_learners,
    uncertainty_scores,
)

# Buckets of _ball_counts' table, which spans squared distances up to the largest
# squared grid radius; more buckets mean narrower bands and fewer exact refines.
_BUCKETS = 2**14
# int64 slots of one chunk of a tile's rows, and histogram slots per _ball_counts
# block: bounds memory.
_BALL_CELLS = 2**16
# Most radii in a DComConfig's grid: expand_delta's count tables grow with it, not the data.
_MAX_RADII = 2**16


@dataclass(frozen=True)
class PoolState:
    """Labeled/unlabeled index split plus per-labeled-point radii.

    Construction checks every rule that needs no dataset size and raises
    PoolInvariantError: integer indices (a bool is not one), none negative,
    labeled and unlabeled each distinct and the two disjoint, and every
    radius finite and positive. Subset pools are valid. The rules that need
    n are check_range (every index below n) and validate (a partition of
    range(n) with one radius per labeled point). The fields keep the lists
    given, so a list changed after construction is not checked again.
    """

    labeled: list
    unlabeled: list
    deltas: list

    def __post_init__(self):
        arrays = []
        for name in ("labeled", "unlabeled"):
            values = _index_array(f"pool.{name}", getattr(self, name), PoolInvariantError)
            _reject(f"pool.{name}", values, values < 0, "a negative index")
            _reject_repeats(values, f"pool.{name} must not repeat an index")
            arrays.append(values)
        _reject_repeats(np.concatenate(arrays), "pool.labeled and pool.unlabeled must be disjoint")
        deltas = np.asarray(self.deltas, dtype=np.float64)
        _reject("pool.deltas", deltas, ~(np.isfinite(deltas) & (deltas > 0)),
                "but all radii must be positive and finite")

    def with_labeled(self, picks):
        """This pool with picks moved from unlabeled to labeled; radii are kept."""
        picked = set(picks)
        unlabeled = [i for i in self.unlabeled if i not in picked]
        return PoolState(list(self.labeled) + list(picks), unlabeled, list(self.deltas))

    def check_range(self, n):
        """Raise PoolInvariantError unless every index is below n."""
        for name in ("labeled", "unlabeled"):
            values = np.asarray(getattr(self, name), dtype=np.int64)
            _reject(f"pool.{name}", values, values >= n, f"outside [0, {n})")

    def validate(self, n):
        """Raise PoolInvariantError unless the pool partitions range(n), a radius per labeled point.

        Construction ruled out repeats and overlaps, so once every index is
        below n, counts adding up to n make a partition.
        """
        self.check_range(n)
        if len(self.labeled) + len(self.unlabeled) != n:
            held = np.zeros(n, dtype=bool)
            held[self.labeled] = held[self.unlabeled] = True
            raise PoolInvariantError(f"labeled and unlabeled must hold each dataset index "
                                     f"once: {np.argmin(held)} is in neither")
        if len(self.deltas) != len(self.labeled):
            raise PoolInvariantError(f"{len(self.deltas)} radii for {len(self.labeled)} "
                                     f"labeled points")


def _reject(name, values, bad, why):
    """Raise PoolInvariantError naming the first values[k] where the mask bad holds."""
    at = np.flatnonzero(bad)
    if at.size:
        raise PoolInvariantError(f"{name}[{at[0]}] is {values[at[0]]}, {why}")


def _reject_repeats(values, rule):
    """Raise PoolInvariantError naming the smallest index the int64 array values repeats."""
    ordered = np.sort(values)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        raise PoolInvariantError(f"{rule}: {repeats[0]} appears more than once")


@dataclass(frozen=True)
class DComConfig:
    delta0: float
    delta_max: float = None
    tau_slope: float = 0.2
    tau_intercept: float = 0.4
    logistic_a: float = 0.9
    logistic_k: float = 30.0
    delta_resolution: float = 0.05

    def __post_init__(self):
        # Each check is written so that NaN fails it, as "x <= 0" would let NaN through.
        if not 0 < self.delta0 < np.inf:
            raise ConfigError(f"delta0 must be positive and finite, got {self.delta0}")
        if self.delta_max is None:
            object.__setattr__(self, "delta_max", 2.0 * self.delta0)
        if not self.delta0 <= self.delta_max < np.inf:
            raise ConfigError(f"delta_max must be finite and at least delta0, got {self.delta_max}")
        if not 0 < self.delta_resolution <= self.delta_max:
            raise ConfigError("delta_resolution must lie in (0, delta_max]")
        if not self.delta_max / self.delta_resolution <= _MAX_RADII:
            raise ConfigError(f"delta_resolution must be at least delta_max / {_MAX_RADII}, "
                              f"so the grid holds at most {_MAX_RADII} radii")
        top = float(delta_grid(self.delta_resolution, self.delta_max)[-1])
        if top * top == np.inf:
            raise ConfigError(f"delta_max {self.delta_max} is too large: its grid radius "
                              f"{top} squared overflows float64")
        for name in ("tau_slope", "tau_intercept"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.logistic_a < 1:
            raise ConfigError("logistic_a must lie in (0, 1)")
        if not 0 < self.logistic_k < np.inf:
            raise ConfigError(f"logistic_k must be positive and finite, got {self.logistic_k}")


@dataclass(frozen=True)
class QueryResult:
    selected: list
    coverage_before: float
    competence: float


def competence_score(coverage_p: float, a: float, k: float) -> float:
    """Logistic growth in the coverage probability; equals 1 at full coverage."""
    if not 0.0 <= coverage_p <= 1.0:
        raise ConfigError(f"coverage {coverage_p} outside [0, 1]")
    if not 0 < a < 1 or not 0 < k < np.inf:
        raise ConfigError("require a in (0,1) and a finite k > 0")
    return float((1.0 + np.exp(-k * (1.0 - a))) / (1.0 + np.exp(-k * (coverage_p - a))))


def compute_tau(coverage_old: float, slope: float, intercept: float) -> float:
    """Adaptive purity threshold, affine in the pre-query coverage."""
    if not 0.0 <= coverage_old <= 1.0:
        raise ConfigError(f"coverage {coverage_old} outside [0, 1]")
    return slope * coverage_old + intercept


def delta_grid(resolution: float, delta_max: float) -> np.ndarray:
    """Positive multiples of the resolution up to delta_max."""
    steps = int(np.floor(delta_max / resolution + 1e-9))
    return resolution * np.arange(1, steps + 1)


def largest_passing_index(passes: np.ndarray) -> np.ndarray:
    """Per row of a boolean (rows, size) table, a binary search for its last passing index.

    Row r's search probes 0, then mid = (lo + hi + 1) // 2 on [lo, hi] =
    [0, size - 1], raising lo to mid on a pass and lowering hi to mid - 1 on
    a fail, and gives lo once lo == hi; -1 when index 0 fails. For a row
    that is true ... true false ... false that is the last true index. For
    any other row it is the index where this fixed probe sequence ends, not
    necessarily the last true one; expand_delta's radii depend on that
    sequence. All rows step together for the ceil(log2(size)) steps the
    longest search needs; a finished row re-probes its lo, which passes.
    """
    rows, size = passes.shape
    every = np.arange(rows)
    lo, hi = np.zeros(rows, dtype=np.int64), np.full(rows, size - 1)
    for _ in range((size - 1).bit_length()):
        mid = (lo + hi + 1) // 2
        ok = passes[every, mid]
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid - 1)
    return np.where(passes[:, 0], lo, -1)


def expand_delta(embedding_set, pool: PoolState, new_points, predicted_unlabeled,
                 coverage_old: float, config: DComConfig) -> list:
    """Append a radius for each newly labeled point.

    For each new point, binary search over the resolution grid finds the
    largest radius whose predicted-label purity still exceeds tau; if even the
    smallest grid radius fails, the radius falls back to the resolution.
    Purity at radius r is the share of the points other than the new point
    within exact distance r whose effective label, the true label on the
    labeled pool and the prediction elsewhere, is the new point's; an empty
    ball passes. new_points must be distinct members of pool.labeled,
    pool.deltas must hold a radius for each of its other points, and
    predicted_unlabeled must hold one label per point of pool.unlabeled.
    """
    n = embedding_set.count
    new_points = _indices("new_points", new_points, n)
    pool.check_range(n)
    labeled = np.asarray(pool.labeled, dtype=np.int64)
    unlabeled = np.asarray(pool.unlabeled, dtype=np.int64)
    if _distinct(new_points).size != new_points.size:
        raise PoolInvariantError("new_points must be distinct")
    outside = new_points[~np.isin(new_points, labeled)]
    if outside.size:
        raise PoolInvariantError(f"new point {outside[0]} is not in pool.labeled")
    if len(pool.deltas) + new_points.size != labeled.size:
        raise PoolInvariantError(f"{len(pool.deltas)} radii for {labeled.size - new_points.size} "
                                 f"labeled points besides new_points")
    predicted = np.asarray(predicted_unlabeled, dtype=np.int64)
    if predicted.shape != unlabeled.shape:
        raise PoolInvariantError(f"predicted_unlabeled holds {predicted.size} labels for "
                                 f"{unlabeled.size} unlabeled points")
    grid = delta_grid(config.delta_resolution, config.delta_max)
    tau = compute_tau(coverage_old, config.tau_slope, config.tau_intercept)
    # True labels on the labeled pool, predictions elsewhere.
    effective = np.full(n, -1, dtype=np.int64)
    effective[labeled] = embedding_set.labels[labeled]
    effective[unlabeled] = predicted

    deltas = list(pool.deltas)
    for total, same in _ball_counts(embedding_set, new_points, effective, grid):
        # same is 0 where total is; the divisor 1 there only spares a 0 / 0.
        passes = (total == 0) | (same / np.maximum(total, 1) > tau)
        deltas += grid[np.maximum(largest_passing_index(passes), 0)].tolist()
    return deltas


def _ball_counts(embedding_set, centers, labels, grid):
    """Per block of centers, (total, same): each center's ball counts at every grid radius.

    total[k, i] counts the points j other than c = centers[k] at exact float64
    distance _sq_dists(x_j, x_c) <= grid[i] * grid[i], and same[k, i] those
    of them with labels[j] == labels[c]; both are int64 of shape
    (block, len(grid)). grid must be positive and non-decreasing.

    The centers run through data._gram_pairs against every point in blocks of
    min(data._TILE_ROWS, _BALL_CELLS // (2 (len(grid) + 2))) centers, at
    least one, so a block meets each column tile in one GEMM. The hook bins
    a tile's rows in chunks of _BALL_CELLS // width, at least one. So a
    chunk's int64 slots, and a block's histograms of 2 (len(grid) + 2) slots
    per center, hold at most _BALL_CELLS cells unless one center or one row
    needs more. By the lemma of
    data._gram_inputs, a pair's refine sq is within T < s of sq' = -2 K, s
    the pass's slack. Call [g_i - s, g_i + s], g_i = grid[i]^2, radius i's
    band: a pair with sq' above it has sq > g_i, one below it sq < g_i.

    Keys are placed in B + 1 = _BUCKETS + 1 buckets of width
    w = (g_last + s) / (B - 4): p = fl(K * fl(-2 / w)), within 3.1 u |p|
    of sq' / w and of its sign, is clipped to [0, B] and truncated to the
    bucket b. So sq' lies in ((b - 1) w, (b + 2) w), as 3.1 u (B + 2) < 0.01,
    bucket 0 holding everything below 2 w and bucket B everything above
    (B - 1) w. The table
    marks b when some radius i has floor((g_i - s) / w) - 3 <= b <=
    floor((g_i + s) / w) + 3: these float64 quotients are off by under 0.01,
    so every bucket whose range meets a band is marked, and bucket B, past
    g_last + s by 3 buckets, never is. An unmarked bucket lies wholly above
    or below each band, so its pairs are outside exactly the radii whose
    marked range ends below it: beta of them, the first beta radii. A pair
    in an unmarked bucket is counted in its row's histogram at beta, with
    its label match; a pair in a marked one is marked, refined exactly with
    data._pair_sq_dists and lands at beta = searchsorted(g, sq, "left"), the
    radii i with g_i < sq. A cumulative sum over beta then counts each ball.
    The center itself, at exact distance 0 and of its own label, lands at
    beta = 0 either way, so one is taken off both counts.
    """
    inputs = _gram_inputs(embedding_set)
    dtype, slack = inputs[1].dtype, float(inputs[2])
    sq_radii = grid * grid  # the same products as _sq_dists(x_j, x_c) <= grid[i] * grid[i]
    size = sq_radii.size
    width = (sq_radii[-1] + slack) / (_BUCKETS - 4)
    first = np.clip(np.floor((sq_radii - slack) / width).astype(np.int64) - 3, 0, _BUCKETS)
    last = np.clip(np.floor((sq_radii + slack) / width).astype(np.int64) + 3, 0, _BUCKETS)
    # Both ends rise with i, so bucket b is marked iff radius beta's range starts by b.
    buckets = np.arange(_BUCKETS + 1)
    beta = np.searchsorted(last, buckets, "left")
    starts = np.append(first, _BUCKETS + 1)[beta]
    # Slot 2 beta + match of a row's histogram; slots from 2 (size + 1) take the marked pairs.
    table = np.where(starts <= buckets, 2 * (size + 1), 2 * beta)
    scale = dtype.type(-2.0 / width)
    slots = 2 * (size + 2)
    everything = np.arange(embedding_set.count)
    step = max(1, min(data._TILE_ROWS, _BALL_CELLS // slots))
    for lo in range(0, centers.size, step):
        block = centers[lo : lo + step]
        hist = np.zeros(block.size * slots, dtype=np.int64)

        def keep(at, part, c0, keys, mask):
            np.multiply(keys, scale, out=keys)
            np.clip(keys, 0, _BUCKETS, out=keys)
            col_labels = labels[c0 : c0 + keys.shape[1]]
            chunk = max(1, _BALL_CELLS // keys.shape[1])
            for r0 in range(0, part.size, chunk):
                rows = slice(r0, r0 + chunk)
                slot = table.take(keys[rows].astype(np.intp))
                np.equal(labels[part[rows]][:, None], col_labels, out=mask[rows])
                slot += mask[rows]
                np.greater_equal(slot, 2 * (size + 1), out=mask[rows])
                slot += slots * np.arange(at + r0, at + r0 + slot.shape[0])[:, None]
                hist[:] += np.bincount(slot.ravel(), minlength=hist.size)

        for k, c, j, _ in _gram_pairs(inputs, block, everything, keep):
            beta = np.searchsorted(sq_radii, _pair_sq_dists(inputs[0], c, j), "left")
            hist += np.bincount(slots * k + 2 * beta + (labels[j] == labels[c]),
                                minlength=hist.size)
        counts = hist.reshape(block.size, size + 2, 2)[:, :size].cumsum(axis=1)
        yield counts.sum(axis=2) - 1, counts[:, :, 1] - 1


def dcom_select(embedding_set: EmbeddingSet, pool: PoolState, margins, q: int,
                config: DComConfig) -> QueryResult:
    """Greedy selection of q points maximizing the competence-weighted score.

    margins, each in [0, 1], are the normalized top-two softmax gaps over the
    unlabeled pool (all 1 when the labeled pool is empty). Ties break to the lowest index.
    """
    pool.validate(embedding_set.count)
    _check_budget(pool, q)
    unlabeled = np.asarray(pool.unlabeled, dtype=np.int64)
    margins = np.asarray(margins, dtype=np.float64)
    if margins.shape != unlabeled.shape:
        raise PoolInvariantError("margins must align with the unlabeled pool")
    bad = np.flatnonzero(~((margins >= 0.0) & (margins <= 1.0)))  # NaN fails both
    if bad.size:
        raise PoolInvariantError(f"margins must lie in [0, 1]: margins[{bad[0]}] is "
                                 f"{margins[bad[0]]}")
    order = np.argsort(unlabeled)
    unlabeled, margins = unlabeled[order], margins[order]

    covered, coverage_before, competence, delta_avg = None, 0.0, 0.0, config.delta0
    if pool.labeled:
        covered = covered_set(embedding_set, pool.labeled, pool.deltas)
        coverage_before = float(covered.mean())
        competence = competence_score(coverage_before, config.logistic_a, config.logistic_k)
        delta_avg = float(np.mean(pool.deltas))

    selected = _greedy_select(embedding_set, unlabeled, covered, delta_avg, competence, margins, q)
    return QueryResult(selected, coverage_before, competence)


def _check_budget(pool, q):
    """Every selector's budget rule: an integer q, not a bool, in [1, len(pool.unlabeled)]."""
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
        raise PoolInvariantError(f"q must be an integer, got {q!r}")
    if not 1 <= q <= len(pool.unlabeled):
        raise PoolInvariantError(f"q={q} must lie in [1, {len(pool.unlabeled)}], "
                                 f"the unlabeled pool size")


def _greedy_select(embedding_set, unlabeled, covered, radius, competence, margins, q):
    """The greedy loop of dcom_select and select_probcover; returns the picks.

    Each step takes the highest competence * (1 - margin) + (1 - competence)
    * degree / max degree and covers its ball. Ties go to the first position,
    the lowest index, as both callers sort unlabeled (margins with it);
    unlabeled must be distinct.

    At competence 0 the picks are ordered exactly by integer degree, so that
    step reads no margins (margins may be None) and makes no float score.
    For a margin in [0, 1] the first term is 0.0 * (1 - margin) = +0.0. For
    integers 0 <= d1 < d2 <= top < 2^53 the quotients d1 / top and d2 / top
    differ by at least 1 / top, far more than an ulp of a value <= 1, so
    they round in the same order. The step also needs no gather of the
    degrees of unlabeled, as out_degree over all n points has the same
    maximum at the same lowest index:
    - the graph is built over unlabeled only, so every other point has
      degree 0;
    - a picked point covered all its uncovered neighbours, so its degree is 0.
    So while max(out_degree) > 0, argmax(out_degree) is an available point of
    unlabeled, the lowest index of those with the top degree, and, unlabeled
    being sorted, the lowest position too.

    The loop stops stepping once the top degree is 0, read off the argmax or
    max the step already makes. Degrees only fall, so it stays 0, and every
    later score is uncertainty + (1 - competence) * 0.0, exactly
    uncertainty = competence * (1 - margin) for competence in [0, 1]. A
    pick's ball is then empty, and an uncovered pick has no in-edge: any
    neighbour of it would count it, a degree above 0. So covering changes
    no degree, and each later step takes the highest uncertainty among the
    available positions, the lowest on ties: the rest of the picks are the
    available positions in one stable argsort of -uncertainty, which keeps
    position order at competence 0, where every uncertainty is 0.
    """
    # Only unlabeled points ever pick, and only uncovered ones count toward a degree.
    graph = build_radius_graph(embedding_set, radius, unlabeled, covered)
    degree = graph.out_degree
    uncertainty = competence * (1.0 - margins) if competence else np.zeros(unlabeled.size)
    available = np.ones(unlabeled.size, dtype=bool)
    picks = []
    for _ in range(q):
        if competence == 0:
            best = int(np.argmax(degree))  # argmax returns the lowest index on ties
            if not degree[best]:
                break
            pick_pos = int(np.searchsorted(unlabeled, best))
        else:
            degrees = degree[unlabeled].astype(np.float64)
            top = degrees.max()
            if not top:
                break
            scores = uncertainty + (1.0 - competence) * (degrees / top)
            pick_pos = int(np.argmax(np.where(available, scores, -np.inf)))
        pick = int(unlabeled[pick_pos])
        picks.append(pick)
        available[pick_pos] = False
        # The ball's uncovered members and the pick, if uncovered: distinct, so no re-check.
        ball = graph.ball_members(pick)
        graph._cover(ball if graph._covered[pick] else np.append(ball, pick))
    rest = np.flatnonzero(available)
    rest = rest[np.argsort(-uncertainty[rest], kind="stable")]
    return picks + unlabeled[rest[: q - len(picks)]].tolist()


def run_iteration(embedding_set: EmbeddingSet, pool: PoolState, learner_spec: LearnerSpec,
                  q: int, config: DComConfig, learner=None):
    """One full active-learning iteration: _query, then _label_step on the picks.

    Returns (QueryResult, updated pool, trained learner, metrics dict). If no
    learner is supplied and the labeled pool holds two classes, one is trained
    on the current labeled set to produce the margins.
    """
    result = _query(embedding_set, pool, learner_spec, q, config, learner)
    new_pool = pool.with_labeled(result.selected)
    learner, radii = _label_step(
        embedding_set, new_pool, result.selected, result.coverage_before, learner_spec, config
    )
    new_pool = PoolState(new_pool.labeled, new_pool.unlabeled, radii)
    deltas = np.asarray(radii)
    metrics = {
        "coverage": result.coverage_before,
        "competence": result.competence,
        "delta_mean": float(deltas.mean()),
        "delta_std": float(deltas.std()),
    }
    return result, new_pool, learner, metrics


def _query(embedding_set, pool, learner_spec, q, config, learner=None) -> QueryResult:
    """The query half of run_iteration: margins, then dcom_select. Reads no new label."""
    learner = _learner_or_none(embedding_set, pool.labeled, learner_spec, learner)
    if learner is None:
        # Cold start (empty or single-class labeled pool): margins default to 1.
        margins = np.ones(len(pool.unlabeled))
    else:
        probs = predict_softmax(learner, embedding_set, pool.unlabeled)
        margins = normalize_unit_interval(uncertainty_scores(probs, "margin"))
    return dcom_select(embedding_set, pool, margins, q, config)


def _label_step(embedding_set, pool, new_points, coverage_before, learner_spec, config):
    """The label half of run_iteration: fit on pool.labeled, predict, expand new_points.

    pool already holds new_points in its labeled list, whose order is the
    training order. Returns (learner or None, pool.deltas plus new_points' radii).
    """
    learner = _learner_or_none(embedding_set, pool.labeled, learner_spec)
    if learner is None:
        # Single observed class: predict it everywhere until a second appears.
        only = embedding_set.labels[pool.labeled[0]]
        predicted = np.full(len(pool.unlabeled), only, dtype=np.int64)
    else:
        predicted = predict_softmax(learner, embedding_set, pool.unlabeled).argmax(axis=1)
    radii = expand_delta(embedding_set, pool, new_points, predicted, coverage_before, config)
    return learner, radii


def _trains(embedding_set, labeled):
    """Whether a learner trains on the labeled points: two known classes, or a -1 to name."""
    if not len(labeled):
        return False
    if embedding_set.labels is None:
        raise ConfigError("labeled points need labels, and data.labels gives none")
    classes = np.unique(embedding_set.labels[labeled])
    return classes.size >= 2 or UNKNOWN_LABEL in classes  # train_learners names -1 points


def _learner_or_none(embedding_set, labeled, spec, learner=None):
    """learner, or one trained on the labeled points; None below two known classes.

    The batch of one of _learners_or_none.
    """
    if not _trains(embedding_set, labeled):
        return None
    return learner if learner is not None else train_learner(embedding_set, labeled, spec)


def _learners_or_none(embedding_set, labeled_sets, spec):
    """One learner per labeled set, all trained in one batch; None below two known classes.

    The sets must hold the same number of points.
    """
    learners = [None] * len(labeled_sets)
    batch = [i for i, labeled in enumerate(labeled_sets) if _trains(embedding_set, labeled)]
    trained = train_learners(embedding_set, [labeled_sets[i] for i in batch], spec)
    for i, learner in zip(batch, trained):
        learners[i] = learner
    return learners

"""Dynamic coverage-and-margin query selection and per-point radius expansion.

The selection loop greedily maximizes a competence-weighted mix of margin
uncertainty and out-degree rank over a radius graph; after annotation, each
new point receives the largest radius whose predicted-label purity still
clears an adaptive threshold. _greedy_select holds the package's only greedy
loop: ProbCover's max-coverage selection (baselines.select_probcover) is the
same loop at competence 0 with a uniform radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_LABEL, EmbeddingSet, _sq_dists
from .errors import ConfigError, PoolInvariantError
from .graph import build_radius_graph, covered_set
from .learners import (
    LearnerSpec,
    normalize_unit_interval,
    predict_softmax,
    train_learner,
    uncertainty_scores,
)


@dataclass
class PoolState:
    """Labeled/unlabeled index split plus per-labeled-point radii."""

    labeled: list
    unlabeled: list
    deltas: list

    def with_labeled(self, picks):
        """This pool with picks moved from unlabeled to labeled; radii are kept."""
        picked = set(picks)
        unlabeled = [i for i in self.unlabeled if i not in picked]
        return PoolState(list(self.labeled) + list(picks), unlabeled, list(self.deltas))

    def validate(self, n):
        if len(self.deltas) != len(self.labeled):
            raise PoolInvariantError(
                f"{len(self.deltas)} radii for {len(self.labeled)} labeled points"
            )
        everyone = set(self.labeled) | set(self.unlabeled)
        if len(self.labeled) + len(self.unlabeled) != n or everyone != set(range(n)):
            raise PoolInvariantError("labeled and unlabeled must hold each dataset index once")
        if not all(d > 0 for d in self.deltas):
            raise PoolInvariantError("all radii must be positive")


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
        if self.delta0 <= 0:
            raise ConfigError("delta0 must be positive")
        if self.delta_max is None:
            object.__setattr__(self, "delta_max", 2.0 * self.delta0)
        if self.delta0 > self.delta_max:
            raise ConfigError("delta0 must not exceed delta_max")
        if not 0 < self.delta_resolution <= self.delta_max:
            raise ConfigError("delta_resolution must lie in (0, delta_max]")
        if not 0 < self.logistic_a < 1:
            raise ConfigError("logistic_a must lie in (0, 1)")
        if self.logistic_k <= 0:
            raise ConfigError("logistic_k must be positive")


@dataclass(frozen=True)
class QueryResult:
    selected: list
    coverage_before: float
    competence: float


def competence_score(coverage_p: float, a: float, k: float) -> float:
    """Logistic growth in the coverage probability; equals 1 at full coverage."""
    if not 0.0 <= coverage_p <= 1.0:
        raise ConfigError(f"coverage {coverage_p} outside [0, 1]")
    if not 0 < a < 1 or k <= 0:
        raise ConfigError("require a in (0,1) and k > 0")
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


def largest_passing_index(size: int, predicate) -> int:
    """Binary search for the last index satisfying a monotone predicate.

    Assumes predicate(i) is non-increasing in i (true ... true false ... false).
    Returns -1 when even index 0 fails.
    """
    if not predicate(0):
        return -1
    lo, hi = 0, size - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def expand_delta(
    embedding_set,
    pool: PoolState,
    new_points,
    predicted_unlabeled,
    coverage_old: float,
    config: DComConfig,
) -> list:
    """Append a radius for each newly labeled point.

    For each new point, binary search over the resolution grid finds the
    largest radius whose predicted-label purity still exceeds tau; if even the
    smallest grid radius fails, the radius falls back to the resolution.
    The pool must already contain the new points in its labeled list.
    """
    grid = delta_grid(config.delta_resolution, config.delta_max)
    tau = compute_tau(coverage_old, config.tau_slope, config.tau_intercept)
    # True labels on the labeled pool, predictions elsewhere.
    effective = np.full(embedding_set.count, -1, dtype=np.int64)
    labeled = np.asarray(pool.labeled, dtype=np.int64)
    effective[labeled] = embedding_set.labels[labeled]
    unlabeled = np.asarray(pool.unlabeled, dtype=np.int64)
    effective[unlabeled] = np.asarray(predicted_unlabeled, dtype=np.int64)
    points = embedding_set.vectors.astype(np.float64)

    new_deltas = []
    for v in new_points:
        sq = _sq_dists(points, points[v])
        sq[v] = np.inf  # the center itself never votes

        def pure_enough(i):
            inside = sq <= grid[i] * grid[i]
            total = int(inside.sum())
            if total == 0:
                return True
            return (effective[inside] == effective[v]).sum() / total > tau

        best = largest_passing_index(len(grid), pure_enough)
        new_deltas.append(float(grid[best]) if best >= 0 else float(grid[0]))
    return list(pool.deltas) + new_deltas


def dcom_select(
    embedding_set: EmbeddingSet,
    pool: PoolState,
    margins,
    q: int,
    config: DComConfig,
) -> QueryResult:
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

    if pool.labeled:
        covered = covered_set(embedding_set, pool.labeled, pool.deltas)
        coverage_before = float(covered.mean())
        competence = competence_score(
            coverage_before, config.logistic_a, config.logistic_k
        )
        delta_avg = float(np.mean(pool.deltas))
    else:
        covered = None
        coverage_before = 0.0
        competence = 0.0
        delta_avg = config.delta0

    selected = _greedy_select(embedding_set, unlabeled, covered, delta_avg, competence, margins, q)
    return QueryResult(selected, coverage_before, competence)


def _check_budget(pool, q):
    """Every selector's budget rule: 1 <= q <= the unlabeled pool size."""
    if not 1 <= q <= len(pool.unlabeled):
        raise PoolInvariantError(
            f"q={q} must lie in [1, {len(pool.unlabeled)}], the unlabeled pool size"
        )


def _greedy_select(embedding_set, unlabeled, covered, radius, competence, margins, q):
    """The greedy loop of dcom_select and select_probcover; returns the picks.

    Each step takes the highest competence * (1 - margin) + (1 - competence)
    * degree / max degree and covers its ball. Ties go to the first position,
    the lowest index, as both callers sort unlabeled (margins with it). At
    competence 0 this orders picks exactly by integer degree.
    """
    # Only unlabeled points ever pick, and only uncovered ones count toward a degree.
    graph = build_radius_graph(embedding_set, radius, unlabeled, covered)

    uncertainty = competence * (1.0 - margins)
    available = np.ones(unlabeled.size, dtype=bool)
    picks = []
    for _ in range(q):
        degrees = graph._out_degree[unlabeled].astype(np.float64)
        top = degrees.max()
        odr = degrees / top if top > 0 else np.zeros_like(degrees)
        scores = uncertainty + (1.0 - competence) * odr
        masked = np.where(available, scores, -np.inf)
        pick_pos = int(np.argmax(masked))  # argmax returns the lowest index on ties
        pick = int(unlabeled[pick_pos])
        picks.append(pick)
        available[pick_pos] = False
        graph.prune_incoming(np.append(graph.ball_members(pick), pick))
    return picks


def run_iteration(
    embedding_set: EmbeddingSet,
    pool: PoolState,
    learner_spec: LearnerSpec,
    q: int,
    config: DComConfig,
    learner=None,
):
    """One full active-learning iteration: _query, then _label_step on the picks.

    Returns (QueryResult, updated pool, trained learner, metrics dict). If no
    learner is supplied and the labeled pool holds two classes, one is trained
    on the current labeled set to produce the margins.
    """
    result = _query(embedding_set, pool, learner_spec, q, config, learner)
    new_pool = pool.with_labeled(result.selected)
    learner, new_pool.deltas = _label_step(
        embedding_set, new_pool, result.selected, result.coverage_before, learner_spec, config
    )
    deltas = np.asarray(new_pool.deltas)
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


def _learner_or_none(embedding_set, labeled, spec, learner=None):
    """learner, or one trained on the labeled points; None below two known classes."""
    if not len(labeled):
        return None
    if embedding_set.labels is None:
        raise ConfigError("labeled points need labels, and data.labels gives none")
    classes = np.unique(embedding_set.labels[labeled])
    if classes.size < 2 and UNKNOWN_LABEL not in classes:  # train_learner names -1 points
        return None
    return learner if learner is not None else train_learner(embedding_set, labeled, spec)

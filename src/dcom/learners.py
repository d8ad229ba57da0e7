"""Desk-scale classifiers with softmax outputs and uncertainty scores.

Two learner kinds are provided: a multinomial logistic regression trained by
full-batch gradient descent (linear_probe) and a nearest-class-mean classifier
whose softmax is taken over negative distances scaled by a temperature.
Training computes only what prediction reads: no loss is kept. train_learners
fits several labeled sets of one size as one batch, the linear probes on
stacked arrays; train_learner is its batch of one.

Training and prediction share one softmax, computed classes-major: on a
(C, N) copy of the logits each step is a pass along N, not one short inner
loop per row. _row_sums adds each row in NumPy's own pairwise order, so the
result is bit-identical to the row-major softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_LABEL, EmbeddingSet, _sq_dists
from .errors import DimensionMismatch, SingleClass, UnknownLabel

LEARNER_KINDS = ("linear_probe", "nearest_class_mean")
UNCERTAINTY_KINDS = ("margin", "entropy", "maxprob")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str = "linear_probe"
    learning_rate: float = 0.1
    epochs: int = 300
    l2_penalty: float = 1e-4
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        # Each check is written so that NaN fails it, as "x <= 0" would let NaN through.
        for name in ("learning_rate", "temperature"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not self.epochs > 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not 0 <= self.l2_penalty < np.inf:
            raise ValueError(f"l2_penalty must be non-negative and finite, got {self.l2_penalty}")


@dataclass(frozen=True, eq=False)
class Learner:
    """Trained handle; immutable after construction."""

    spec: LearnerSpec
    dim: int
    class_count: int
    weights: np.ndarray = None  # (dim + 1, C) with bias row, linear probe only
    class_means: np.ndarray = None  # (C, dim), nearest-class-mean only


def _row_sums(columns):
    """x.sum(axis=1), bit-identical, from the (C, N) array columns = x.T.

    NumPy adds a row of C values in order for C < 8; for C up to 128 in eight
    accumulators strided by 8, combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the tail in order; above 128 as two halves
    split at a multiple of 8. Each step here is one pass along N.
    """
    count = columns.shape[0]
    if count < 8:
        return columns.sum(axis=0)
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _row_sums(columns[:half]) + _row_sums(columns[half:])
    body = count - count % 8
    acc = columns[:8]
    for start in range(8, body, 8):
        acc = acc + columns[start : start + 8]
    pairs = acc[0::2] + acc[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]
    for row in columns[body:]:
        total += row
    return total


def _softmax(logits):
    """Row softmax of (N, C) logits, returned as a contiguous (N, C) array.

    The max is an exact selection, the subtract, exp and divide are
    elementwise and _row_sums keeps NumPy's order, so computing on the
    (C, N) copy gives the row-major softmax's bits.
    """
    columns = logits.T.copy()
    columns -= columns.max(axis=0)
    np.exp(columns, out=columns)
    columns /= _row_sums(columns)
    return columns.T.copy()


def _probe_grad(features_bias, onehot, l2_penalty):
    """Gradient of the mean cross-entropy plus 0.5 * l2_penalty * |weights|^2.

    Returned as a function of the weights. features_bias is (m, d+1), or a
    stack (R, m, d+1), with the constant column appended; onehot is (m, C) or
    (R, m, C), and the weights (d+1, C) or (R, d+1, C) to match. The bias row
    of the weights is excluded from the penalty. The epoch loop's invariants,
    the transposed features and the penalty's zero bias row, are made once.
    """
    features_t = np.swapaxes(features_bias, -1, -2)
    m, class_count = features_bias.shape[-2], onehot.shape[-1]
    penalty = np.zeros((*features_t.shape[:-1], class_count))
    penalized_rows = penalty[..., :-1, :]

    def grad(weights):
        logits = features_bias @ weights
        probs = _softmax(logits.reshape(-1, class_count)).reshape(logits.shape)
        np.multiply(l2_penalty, weights[..., :-1, :], out=penalized_rows)
        return features_t @ (probs - onehot) / m + penalty

    return grad


def train_learner(embedding_set: EmbeddingSet, labeled, spec: LearnerSpec) -> Learner:
    """Fit on the labeled indices, in order, with their embedding_set labels; deterministic.

    The batch of one of train_learners.
    """
    return train_learners(embedding_set, [labeled], spec)[0]


def train_learners(embedding_set: EmbeddingSet, labeled_sets, spec: LearnerSpec) -> list:
    """One learner per labeled set, each fit as train_learner fits it alone.

    Every set must hold the same number of points. The linear probes descend
    together, one _probe_grad per epoch on (R, m, d+1) stacks, and each
    slice's weights equal those of its own fit; the nearest-class-mean kind
    fits set by set.
    """
    if not len(labeled_sets):
        return []
    if len({len(labeled) for labeled in labeled_sets}) > 1:
        raise ValueError("labeled sets must all hold the same number of points")
    indices = np.asarray(labeled_sets, dtype=np.int64)
    labels = embedding_set.labels[indices]
    for row, row_labels in zip(indices, labels):
        if (row_labels == UNKNOWN_LABEL).any():
            raise UnknownLabel(f"points {row[row_labels == UNKNOWN_LABEL].tolist()} have label -1")
        if np.unique(row_labels).size < 2:
            raise SingleClass("training requires at least two distinct labels")
    dim, class_count = embedding_set.dim, embedding_set.num_classes

    if spec.kind == "nearest_class_mean":
        learners = []
        for row, row_labels in zip(indices, labels):
            features = embedding_set.vectors[row].astype(np.float64)
            means = np.full((class_count, dim), np.nan)
            for c in np.unique(row_labels):
                means[c] = features[row_labels == c].mean(axis=0)
            learners.append(Learner(spec, dim, class_count, class_means=means))
        return learners

    # The float64 features with the constant column appended, built in place.
    features_bias = np.ones((*indices.shape, dim + 1))
    features_bias[..., :dim] = embedding_set.vectors[indices]
    onehot = np.eye(class_count)[labels]
    weights = np.zeros((len(indices), dim + 1, class_count))
    grad = _probe_grad(features_bias, onehot, spec.l2_penalty)
    for _ in range(spec.epochs):
        weights = weights - spec.learning_rate * grad(weights)
    return [Learner(spec, dim, class_count, weights=w) for w in weights]


def predict_softmax(learner: Learner, embedding_set, targets) -> np.ndarray:
    """The (len(targets), class_count) float64 softmax rows of the targets."""
    targets = np.asarray(targets, dtype=np.int64)
    if embedding_set.dim != learner.dim:
        raise DimensionMismatch(
            f"learner expects dim {learner.dim}, got {embedding_set.dim}"
        )
    if learner.spec.kind == "linear_probe":
        # One float64 array: the features with the constant column, built in place.
        features_bias = np.ones((targets.size, learner.dim + 1))
        features_bias[:, :-1] = embedding_set.vectors[targets]
        return _softmax(features_bias @ learner.weights)
    features = embedding_set.vectors[targets].astype(np.float64)
    logits = np.full((features.shape[0], learner.class_count), -np.inf)
    for c in range(learner.class_count):
        if not np.isnan(learner.class_means[c]).any():
            sq = _sq_dists(features, learner.class_means[c])
            logits[:, c] = -np.sqrt(sq) / learner.spec.temperature
    return _softmax(logits)


def uncertainty_scores(rows: np.ndarray, kind: str) -> np.ndarray:
    """Per-row uncertainty inputs of (m, C) softmax rows; interpretation depends on kind.

    margin: top-two probability gap (LOWER means more uncertain).
    entropy: -sum p ln p in nats (higher = more uncertain).
    maxprob: 1 - max p (higher = more uncertain).
    """
    if kind not in UNCERTAINTY_KINDS:
        raise ValueError(f"unknown uncertainty kind {kind!r}")
    if kind == "margin":
        top2 = np.sort(rows, axis=1)[:, -2:]
        return top2[:, 1] - top2[:, 0]
    if kind == "entropy":
        safe = np.where(rows > 0, rows, 1.0)
        return -(rows * np.log(safe)).sum(axis=1)
    return 1.0 - rows.max(axis=1)


def normalize_unit_interval(scores) -> np.ndarray:
    """Min-max map onto [0, 1]; constant input maps to all zeros."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)

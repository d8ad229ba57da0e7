import numpy as np
import pytest

import oracles
from dcom.data import EmbeddingSet, MixtureSpec, _sq_dists, gen_gaussian_mixture
from dcom.errors import DimensionMismatch, SingleClass, UnknownLabel
from dcom.learners import (
    LEARNER_KINDS,
    LearnerSpec,
    _probe_grad,
    _row_sums,
    _softmax,
    normalize_unit_interval,
    predict_softmax,
    train_learner,
    train_learners,
    uncertainty_scores,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec(kind="svm")
    with pytest.raises(ValueError):
        LearnerSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        LearnerSpec(l2_penalty=-1.0)


def test_single_class_rejected():
    s = EmbeddingSet([[0.0], [1.0]], labels=[0, 0])
    with pytest.raises(SingleClass):
        train_learner(s, [0, 1], LearnerSpec())


def test_unknown_label_rejected():
    s = EmbeddingSet([[0.0], [1.0], [2.0]], labels=[0, 1, -1])
    with pytest.raises(UnknownLabel, match=r"points \[2\] have label -1"):
        train_learner(s, [0, 1, 2], LearnerSpec())


def test_probe_separates_well_separated_classes():
    s = gen_gaussian_mixture(MixtureSpec(3, 30, 5, 8.0, 0.5, seed=0))
    learner = train_learner(s, range(s.count), LearnerSpec())
    probs = predict_softmax(learner, s, np.arange(s.count))
    assert (probs.argmax(axis=1) == s.labels).mean() == 1.0


def test_probe_loss_decreases():
    s = gen_gaussian_mixture(MixtureSpec(2, 20, 3, 3.0, 1.0, seed=1))
    _, h = oracles.train_probe(s, range(s.count), LearnerSpec(epochs=50))
    assert len(h) == 50 and h[-1] < h[0]
    assert all(b <= a + 1e-9 for a, b in zip(h, h[1:]))


@pytest.mark.parametrize("case", range(24))
def test_probe_weights_equal_loss_tracking_loop(case):
    # Dropping the per-epoch loss must leave every weight bit-identical.
    rng = np.random.default_rng(100 + case)
    m = (2, 3, 7, 32, 100, 512)[case % 6]
    d = (1, 2, 5, 16, 64)[case % 5]
    c = 2 + case % 9
    # Every third case labels only some classes; the rest stay absent from training.
    present = int(rng.integers(2, c + 1)) if case % 3 == 0 else c
    labels = np.concatenate((np.arange(2), rng.integers(0, present, size=m - 2)))
    vectors = rng.normal(scale=(0.1, 1.0, 5.0)[case % 3], size=(m + 5, d))
    # Five unlabeled points of class c - 1 make c the dataset's class count.
    s = EmbeddingSet(vectors, np.concatenate((labels, np.full(5, c - 1))))
    spec = LearnerSpec(
        learning_rate=(0.01, 0.1, 0.5, 2.0)[case % 4],
        epochs=(1, 2, 17, 300)[case // 2 % 4],
        l2_penalty=(0.0, 1e-4)[case % 2],
    )
    order = rng.permutation(m)
    weights, _ = oracles.train_probe(s, order, spec)
    assert np.array_equal(train_learner(s, order, spec).weights, weights)


def _training_error(embedding_set, labeled, spec):
    """The (type, message) train_learner raises on labeled, or None if it trains."""
    try:
        train_learner(embedding_set, labeled, spec)
    except (SingleClass, UnknownLabel) as error:
        return type(error), str(error)
    return None


def _logits(learner, embedding_set, targets):
    """The logits predict_softmax takes the softmax of, written out per learner kind."""
    features = embedding_set.vectors[targets].astype(np.float64)
    if learner.spec.kind == "linear_probe":
        return np.hstack((features, np.ones((len(targets), 1)))) @ learner.weights
    logits = np.full((len(targets), learner.class_count), -np.inf)
    for c, mean in enumerate(learner.class_means):
        if not np.isnan(mean).any():
            logits[:, c] = -np.sqrt(_sq_dists(features, mean)) / learner.spec.temperature
    return logits


@pytest.mark.parametrize("case", range(30))
def test_batched_trainer_equals_single_trainer_and_oracle(case):
    rng = np.random.default_rng(700 + case)
    # m is log-uniform on [2, 600], so small sets come up as often as large ones.
    r, m = int(rng.integers(1, 13)), int(2 * 300 ** rng.random())
    d, c = int(rng.integers(1, 65)), int(rng.integers(2, 11))
    # Cases 20-29 take class counts that run every branch of _row_sums (the
    # 8-accumulator body, its tail, the split above 128), with the three
    # classes below c - 1 drawn by no point, so no labeled set holds them.
    present = c
    if case >= 20:
        c = (8, 9, 16, 17, 129)[case % 5]
        present = c - 4
    # The first m points are all class 0, so a set drawn from them is
    # single-class; three of the rest are unknown (-1).
    n = 2 * m + 10
    labels = np.concatenate((np.zeros(m, dtype=np.int64), rng.integers(0, present, size=n - m)))
    labels[-1] = c - 1
    unknown = rng.choice(np.arange(m, n - 1), size=3, replace=False)
    labels[unknown] = -1
    s = EmbeddingSet(rng.normal(scale=(0.1, 1.0, 5.0)[case % 3], size=(n, d)), labels)
    known = np.flatnonzero(labels >= 0)
    sets = []
    for _ in range(r):
        draw = int(rng.integers(0, 6))
        if draw == 0:
            sets.append(rng.permutation(m).tolist())
        elif draw == 1:
            picks = rng.choice(known, size=m - 1, replace=False)
            sets.append(rng.permutation(np.append(picks, unknown[0])).tolist())
        else:
            sets.append(rng.choice(known, size=m, replace=False).tolist())
    kind = LEARNER_KINDS[case % 4 == 3 if case < 20 else case >= 25]
    spec = LearnerSpec(kind=kind, learning_rate=(0.05, 0.5, 2.0)[case % 3],
                       epochs=(1, 2, 30)[case // 3 % 3], l2_penalty=(0.0, 1e-4)[case % 2])

    errors = [_training_error(s, labeled, spec) for labeled in sets]
    # The messages stay as they were, the -1 point named.
    assert set(errors) <= {
        None,
        (SingleClass, "training requires at least two distinct labels"),
        (UnknownLabel, f"points [{unknown[0]}] have label -1"),
    }
    first = next((e for e in errors if e is not None), None)
    if first is not None:
        with pytest.raises(first[0]) as raised:
            train_learners(s, sets, spec)
        assert str(raised.value) == first[1]
    good = [labeled for labeled, e in zip(sets, errors) if e is None]
    batch = train_learners(s, good, spec)
    assert len(batch) == len(good)
    targets = np.arange(s.count)
    for labeled, learner in zip(good, batch):
        probs = predict_softmax(learner, s, targets)
        assert np.array_equal(probs, oracles.softmax(_logits(learner, s, targets)))
        alone = train_learner(s, labeled, spec)
        if kind == "nearest_class_mean":
            assert np.array_equal(learner.class_means, alone.class_means, equal_nan=True)
            continue
        assert np.array_equal(learner.weights, alone.weights)
        assert np.array_equal(learner.weights, oracles.train_probe(s, labeled, spec)[0])


@pytest.fixture(scope="module")
def mixed_rows():
    """(4096, 300) values whose row sums depend on the order of addition.

    Rows cycle through eight kinds: magnitudes log-uniform on 1e-300..1e300;
    one magnitude per row, drawn from the same range; positive values near
    1, as exp gives; half zeros of either sign; subnormals among values
    near the smallest normal; and one inf, one nan or one -inf among values
    of one magnitude.
    """
    rng = np.random.default_rng(28)
    n, c = 4096, 300
    signs = rng.choice((-1.0, 1.0), size=(n, c))
    rows = signs * 10.0 ** rng.uniform(-300, 300, size=(n, c))
    rows[1::8] = signs[1::8] * rng.random((n // 8, c)) * 10.0 ** rng.uniform(-300, 300, (n // 8, 1))
    rows[2::8] = rng.random((n // 8, c))
    rows[3::8] *= rng.random((n // 8, c)) < 0.5
    rows[4::8] = signs[4::8] * rng.random((n // 8, c)) * 1e-306
    rows[4::8, ::3] = signs[4::8, ::3] * rng.integers(1, 2**52, (n // 8, 100)) * 5e-324
    for kind, special in ((5, np.inf), (6, np.nan), (7, -np.inf)):
        rows[kind::8] = signs[kind::8] * rng.random((n // 8, c))
        rows[kind::8][np.arange(n // 8), rng.integers(0, c, n // 8)] = special
    return rows


@pytest.mark.parametrize("n", [0, 1, 7, 4096])
def test_row_sums_keep_numpys_order(mixed_rows, n):
    # C = 1-7 runs the sequential sum, 8-128 the eight accumulators and the
    # tail, and 129-300 the split. If NumPy's summation order changes, the
    # softmax's row sum must follow it: mend _row_sums, not this test.
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(1, 301):
            x = np.ascontiguousarray(mixed_rows[:n, :c])
            assert np.array_equal(_row_sums(x.T.copy()), x.sum(axis=1), equal_nan=True), c


@pytest.mark.parametrize("case", range(12))
def test_softmax_equals_oracle(case):
    rng = np.random.default_rng(1200 + case)
    # The (R*m, C) logits _probe_grad takes the softmax of; m is 0 in case 0.
    r, m = int(rng.integers(1, 13)), int(rng.integers(1, 300)) * (case > 0)
    d, c = int(rng.integers(1, 65)), (2, 3, 5, 7, 8, 9, 10, 16, 17, 33, 129, 300)[case]
    features = np.concatenate((rng.normal(size=(r, m, d)), np.ones((r, m, 1))), axis=-1)
    weights = rng.normal(scale=(0.1, 1.0, 10.0)[case % 3], size=(r, d + 1, c))
    logits = (features @ weights).reshape(-1, c)
    probs = _softmax(logits)
    assert probs.shape == logits.shape and probs.flags.c_contiguous
    assert np.array_equal(probs, oracles.softmax(logits))
    # A nearest-class-mean learner gives its absent classes -inf logits.
    logits[:, rng.choice(c, size=c // 2, replace=False)] = -np.inf
    assert np.array_equal(_softmax(logits), oracles.softmax(logits))


def test_predict_softmax_of_no_targets():
    s = EmbeddingSet([[0.0], [1.0], [2.0]], labels=[0, 1, 2])
    for kind in LEARNER_KINDS:
        learner = train_learner(s, [0, 1], LearnerSpec(kind=kind, epochs=3))
        probs = predict_softmax(learner, s, [])
        assert probs.shape == (0, 3) and probs.flags.c_contiguous


@pytest.mark.parametrize("seed", range(4))
def test_probe_softmax_equals_the_stacked_copies_expression(seed):
    # predict_softmax fills one float64 array in place; the probabilities must
    # be those of the float64 copy with a ones column stacked on.
    rng = np.random.default_rng(seed)
    s = gen_gaussian_mixture(MixtureSpec(3, 40, int(rng.integers(1, 40)), 3.0, 1.0, seed=seed))
    learner = train_learner(s, rng.permutation(s.count)[:30], LearnerSpec(epochs=40))
    for targets in (rng.permutation(s.count)[: int(rng.integers(1, s.count))], np.arange(s.count)):
        features = s.vectors[targets].astype(np.float64)
        stacked = np.hstack((features, np.ones((features.shape[0], 1))))
        assert np.array_equal(predict_softmax(learner, s, targets),
                              _softmax(stacked @ learner.weights))


def test_batched_trainer_error_messages():
    s = EmbeddingSet([[0.0], [1.0], [2.0], [3.0]], labels=[0, 1, -1, 0])
    spec = LearnerSpec(epochs=2)
    with pytest.raises(SingleClass) as single:
        train_learners(s, [[0, 1], [0, 3]], spec)
    assert str(single.value) == "training requires at least two distinct labels"
    with pytest.raises(UnknownLabel) as unknown:
        train_learners(s, [[0, 1, 3], [2, 0, 1]], spec)
    assert str(unknown.value) == "points [2] have label -1"
    with pytest.raises(ValueError, match="same number of points"):
        train_learners(s, [[0, 1], [0, 1, 3]], spec)
    assert train_learners(s, [], spec) == []


@pytest.mark.parametrize("case", range(6))
def test_stacked_probe_grad_matches_oracle_per_slice(case):
    rng = np.random.default_rng(900 + case)
    r, m = int(rng.integers(1, 13)), int(2 * 300 ** rng.random())
    d, c = int(rng.integers(1, 65)), int(rng.integers(2, 11))
    features = np.concatenate((rng.normal(size=(r, m, d)), np.ones((r, m, 1))), axis=-1)
    onehot = np.eye(c)[rng.integers(0, c, size=(r, m))]
    weights = rng.normal(scale=0.5, size=(r, d + 1, c))
    grad = _probe_grad(features, onehot, 1e-4)(weights)
    for i in range(r):
        _, expected = oracles.probe_loss_and_grad(weights[i], features[i], onehot[i], 1e-4)
        assert np.array_equal(grad[i], expected)


def test_probe_deterministic():
    s = gen_gaussian_mixture(MixtureSpec(2, 15, 4, 2.0, 1.0, seed=2))
    a = train_learner(s, range(s.count), LearnerSpec())
    b = train_learner(s, range(s.count), LearnerSpec())
    assert np.array_equal(a.weights, b.weights)


def test_probe_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    m, d, c = 12, 4, 3
    features = np.hstack((rng.normal(size=(m, d)), np.ones((m, 1))))
    onehot = np.zeros((m, c))
    onehot[np.arange(m), rng.integers(0, c, size=m)] = 1.0
    weights = rng.normal(scale=0.5, size=(d + 1, c))
    grad = _probe_grad(features, onehot, 1e-4)(weights)
    h = 1e-5
    numeric = np.zeros_like(weights)
    for i in range(d + 1):
        for j in range(c):
            wp, wm = weights.copy(), weights.copy()
            wp[i, j] += h
            wm[i, j] -= h
            lp, _ = oracles.probe_loss_and_grad(wp, features, onehot, 1e-4)
            lm, _ = oracles.probe_loss_and_grad(wm, features, onehot, 1e-4)
            numeric[i, j] = (lp - lm) / (2 * h)
    rel = np.abs(grad - numeric).max() / max(np.abs(numeric).max(), 1e-12)
    assert rel <= 1e-4


def test_nearest_class_mean_predictions():
    s = EmbeddingSet([[0.0], [0.2], [5.0], [5.2], [0.1], [5.1]], labels=[0, 0, 1, 1, 0, 1])
    learner = train_learner(s, [0, 1, 2, 3], LearnerSpec(kind="nearest_class_mean"))
    assert np.allclose(learner.class_means, [[0.1], [5.1]])
    probs = predict_softmax(learner, s, [4, 5])
    assert probs.argmax(axis=1).tolist() == [0, 1]


def test_ncm_absent_class_gets_zero_probability():
    s = EmbeddingSet([[0.0], [1.0], [2.0]], labels=[0, 2, 1])
    learner = train_learner(s, [0, 1], LearnerSpec(kind="nearest_class_mean"))
    probs = predict_softmax(learner, s, [2])
    assert probs[0, 1] == 0.0


def test_predict_dim_mismatch():
    s = EmbeddingSet([[0.0, 1.0], [1.0, 0.0]], labels=[0, 1])
    learner = train_learner(s, [0, 1], LearnerSpec(epochs=5))
    with pytest.raises(DimensionMismatch):
        predict_softmax(learner, EmbeddingSet([[1.0]]), [0])


def test_uncertainty_margin_entropy_maxprob():
    probs = np.array([[0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]])
    margin = uncertainty_scores(probs, "margin")
    assert margin[0] == pytest.approx(0.5)
    assert margin[1] == pytest.approx(0.0)
    entropy = uncertainty_scores(probs, "entropy")
    assert entropy[1] == pytest.approx(np.log(3))
    assert entropy[0] < entropy[1]
    maxprob = uncertainty_scores(probs, "maxprob")
    assert maxprob[0] == pytest.approx(0.3)
    assert maxprob[1] == pytest.approx(2 / 3)


def test_entropy_handles_exact_zeros():
    probs = np.array([[1.0, 0.0]])
    assert uncertainty_scores(probs, "entropy")[0] == 0.0


def test_unknown_uncertainty_kind():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        uncertainty_scores(probs, "variance")


def test_normalize_unit_interval():
    out = normalize_unit_interval([2.0, 4.0, 6.0])
    assert out.tolist() == [0.0, 0.5, 1.0]
    assert normalize_unit_interval([3.0, 3.0]).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        normalize_unit_interval([])
    with pytest.raises(ValueError):
        normalize_unit_interval([1.0, np.inf])


def test_nnn_classify_radius_weighting():
    s = EmbeddingSet([[0.0], [1.0], [0.4]], labels=[0, 1, -1])
    # Point 2 sits nearer to 0, but point 1 has a much larger radius:
    # d/delta is 0.4/0.5 = 0.8 for label 0, 0.6/2.0 = 0.3 for label 1.
    assert oracles.nnn_classify(s, [0, 1], [0.5, 2.0], query=2) == 1
    assert oracles.nnn_classify(s, [0, 1], [0.5, 0.5], query=2) == 0


def test_nnn_classify_tie_lowest_index():
    s = EmbeddingSet([[0.0], [2.0], [1.0]], labels=[7, 3, -1])
    assert oracles.nnn_classify(s, [0, 1], [1.0, 1.0], query=2) == 7
    with pytest.raises(ValueError):
        oracles.nnn_classify(s, [], [], query=2)

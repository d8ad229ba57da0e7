"""Brute-force reference oracles the tests compare the package against, and the Gram-pass cases."""

import math

import numpy as np

from dcom import data, harness, purity
from dcom.data import EmbeddingSet, _sq_dists
from dcom.errors import ZeroVector
from dcom.engine import PoolState, compute_tau, delta_grid
from dcom.graph import _indices, build_radius_graph
from dcom.learners import train_learner


def l2_normalize(embedding_set):
    """Reference for data.l2_normalize: one float64 copy of all rows, divided by its row norms."""
    vectors = embedding_set.vectors.astype(np.float64)
    norms = np.sqrt((vectors * vectors).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    return EmbeddingSet(vectors / norms[:, None], embedding_set.labels)


def gaussian_mixture(spec):
    """Reference for data.gen_gaussian_mixture: each class drawn at once into one float64 array."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_classes * spec.points_per_class
    points = np.empty((n, spec.dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for c in range(spec.num_classes):
        mean = np.zeros(spec.dim)
        mean[c % spec.dim] = spec.class_separation
        lo = c * spec.points_per_class
        hi = lo + spec.points_per_class
        points[lo:hi] = mean + spec.within_std * rng.standard_normal(
            (spec.points_per_class, spec.dim)
        )
        labels[lo:hi] = c
    return EmbeddingSet(points, labels)


def gram_inputs(embedding_set, extent=0.0):
    """Reference for data._gram_inputs's rows and slack, (gram, slack), from a float64 copy."""
    points = embedding_set.vectors.astype(np.float64)
    n, d = points.shape
    sq_norms = (points * points).sum(axis=1)
    bound = float(sq_norms.max(initial=0.0)) + extent
    dtype = np.float32 if d <= 2**20 and 4.0 * bound < 2.0**127 else np.float64
    gram = np.empty((n, d + 2), dtype=dtype)
    gram[:, :d], gram[:, d], gram[:, d + 1] = embedding_set.vectors, -0.5 * sq_norms, 1.0
    return gram, dtype(12 * (d + 4) * np.finfo(dtype).eps / 2 * (1.0 + bound))


def is_pure_ball(embedding_set, labels, center: int, delta: float) -> bool:
    """True iff every point within delta of the center shares its label."""
    labels = np.asarray(labels)
    points = embedding_set.vectors.astype(np.float64)
    inside = _sq_dists(points, points[center]) <= delta * delta
    return bool((labels[inside] == labels[center]).all())


def ball_purity_predicted(
    embedding_set, pool: PoolState, predicted_unlabeled, center: int, delta: float
) -> float:
    """Fraction of the center's ball (excluding the center) sharing its label.

    Labeled points contribute their true labels, unlabeled points the model's
    predictions. An empty ball counts as fully pure.
    """
    effective = np.full(embedding_set.count, -1, dtype=np.int64)
    labeled = np.asarray(pool.labeled, dtype=np.int64)
    effective[labeled] = embedding_set.labels[labeled]
    unlabeled = np.asarray(pool.unlabeled, dtype=np.int64)
    effective[unlabeled] = np.asarray(predicted_unlabeled, dtype=np.int64)
    points = embedding_set.vectors.astype(np.float64)
    inside = _sq_dists(points, points[center]) <= delta * delta
    inside[center] = False
    total = int(inside.sum())
    if total == 0:
        return 1.0
    matches = int((effective[inside] == effective[center]).sum())
    return matches / total


def pool_is_valid(labeled, unlabeled, deltas, n) -> bool:
    """Whether a pool partitions range(n) with one finite, positive radius per labeled point.

    The set-based check PoolState.validate made before PoolState checked its
    own indices, plus the index type rule that sets cannot see: 1.0 and True
    both equal 1.
    """
    indices = list(labeled) + list(unlabeled)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in indices):
        return False
    if len(deltas) != len(labeled):
        return False
    if len(indices) != n or set(indices) != set(range(n)):
        return False
    return all(math.isfinite(d) and d > 0 for d in deltas)


def kmeans_cluster(embedding_set, k, seed=0) -> np.ndarray:
    """Reference for purity.kmeans_cluster: k full float64 passes per Lloyd round.

    kmeans_seeds' centers, the same empty-cluster repair (each empty
    cluster takes the farthest point of a cluster of two or more) and
    centroid means; each round assigns every point by argmin over its exact
    distances to all k centroids, lowest index on ties.
    """
    n = embedding_set.count
    points = embedding_set.vectors.astype(np.float64)
    centroids = points[kmeans_seeds(embedding_set, k, seed)]

    labels = None
    for _ in range(purity._KMEANS_ITERS):
        sq = np.array([_sq_dists(points, c) for c in centroids])
        new_labels = sq.argmin(axis=0)
        assigned_sq = sq[new_labels, np.arange(n)]

        for c in range(k):
            if not (new_labels == c).any():
                donors = np.bincount(new_labels, minlength=k)[new_labels] >= 2
                worst = int(np.argmax(np.where(donors, assigned_sq, -np.inf)))
                new_labels[worst] = c

        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)

    return labels.astype(np.int64)


def kmeans_seeds(embedding_set, k, seed=0) -> list:
    """kmeans_cluster's seeding: a seeded random start, then farthest-first over every point.

    One exact pass over all n points per center. A chosen point stays a
    candidate at least distance 0, so once every point equals a center the
    seeding re-picks the lowest index, which purity._farthest_first, skipping
    chosen points, does not.
    """
    points = embedding_set.vectors.astype(np.float64)
    centers_idx = [int(np.random.default_rng(seed).integers(embedding_set.count))]
    min_sq = _sq_dists(points, points[centers_idx[-1]])
    for _ in range(1, k):
        nxt = int(np.argmax(min_sq))
        centers_idx.append(nxt)
        min_sq = np.minimum(min_sq, _sq_dists(points, points[nxt]))
    return centers_idx


def coreset(embedding_set, labeled, unlabeled, q) -> list:
    """Reference for baselines.select_coreset: brute-force k-center greedy.

    Each pick scans the unlabeled points in index order and keeps the first
    with the largest least exact distance to the labeled points and the
    earlier picks; with none of those, every distance is inf.
    """
    pts = embedding_set.vectors.astype(np.float64)
    chosen, picks = list(labeled), []
    for _ in range(q):
        best_u, best_d = None, -np.inf
        for u in sorted(unlabeled):
            if u in picks:
                continue
            d = ((pts[chosen] - pts[u]) ** 2).sum(axis=1).min(initial=np.inf)
            if d > best_d:
                best_u, best_d = u, d
        picks.append(best_u)
        chosen.append(best_u)
    return picks


def greedy_select(embedding_set, unlabeled, covered, radius, competence, margins, q):
    """Reference for engine._greedy_select: a float score for every unlabeled point per pick.

    Each pick takes the highest competence * (1 - margin) + (1 - competence)
    * degree / max degree among the available positions of unlabeled, sorted
    and distinct, lowest position on ties, then covers its ball through the
    checked prune_incoming below.
    """
    graph = build_radius_graph(embedding_set, radius, unlabeled, covered)
    uncertainty = competence * (1.0 - margins)
    available = np.ones(unlabeled.size, dtype=bool)
    picks = []
    for _ in range(q):
        degrees = graph.out_degree[unlabeled].astype(np.float64)
        top = degrees.max()
        odr = degrees / top if top > 0 else np.zeros_like(degrees)
        scores = uncertainty + (1.0 - competence) * odr
        pick_pos = int(np.argmax(np.where(available, scores, -np.inf)))
        pick = int(unlabeled[pick_pos])
        picks.append(pick)
        available[pick_pos] = False
        prune_incoming(graph, np.append(graph.ball_members(pick), pick))
    return picks


def prune_incoming(graph, targets):
    """Reference for RadiusGraph._cover: covers any targets, checked; repeats and covered allowed.

    Each target not yet covered is flagged and dropped from its neighbours'
    degrees, one neighbour list at a time, where _cover, which takes only
    distinct uncovered targets, drops all of them at once.
    """
    for t in np.unique(_indices("targets", targets, graph._covered.size)):
        if not graph._covered[t]:
            graph._covered[t] = True
            nbrs = graph._nbrs[graph._indptr[t] : graph._indptr[t + 1]]
            np.subtract.at(graph._out_degree, nbrs, 1)


def min_impure_distance(embedding_set, labels) -> np.ndarray:
    """Reference for purity.min_impure_distance: one full float64 pass per point."""
    labels = np.asarray(labels)
    points = embedding_set.vectors.astype(np.float64)
    out = np.empty(embedding_set.count)
    for c in range(embedding_set.count):
        sq = _sq_dists(points, points[c])
        other = labels != labels[c]
        out[c] = np.sqrt(sq[other].min()) if other.any() else np.inf
    return out


def edges(graph) -> np.ndarray:
    """A RadiusGraph's alive (point, uncovered neighbour) pairs in stored order.

    A built graph stores them sorted by (point, neighbour).
    """
    src = np.repeat(np.arange(graph._indptr.size - 1), np.diff(graph._indptr))
    alive = ~graph._covered[graph._nbrs]
    return np.column_stack((src[alive], graph._nbrs[alive]))


def radius_edges(embedding_set, delta, points, covered=None) -> np.ndarray:
    """Reference for graph.build_radius_graph: its alive edges, one exact pass per point.

    The (point, neighbour) pairs of points x (points minus covered) within
    delta, sorted, as an (m, 2) array, as edges gives them for the build.
    """
    pts = embedding_set.vectors.astype(np.float64)
    points = np.unique(points)
    targets = points if covered is None else points[~covered[points]]
    parts = [np.empty((0, 2), dtype=np.int64)]
    for u in points:
        near = targets[_sq_dists(pts[targets], pts[u]) <= delta * delta]
        near = near[near != u]
        parts.append(np.column_stack((np.full(near.size, u), near)))
    return np.concatenate(parts)


def covered_set(embedding_set, labeled, deltas) -> np.ndarray:
    """Reference for graph.covered_set: one full float64 pass per labeled point."""
    labeled = np.asarray(labeled, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    points = embedding_set.vectors.astype(np.float64)
    covered = np.zeros(embedding_set.count, dtype=bool)
    covered[labeled] = True
    for idx, radius in zip(labeled, deltas):
        covered |= _sq_dists(points, points[idx]) <= radius * radius
    return covered


def nnn_classify(embedding_set, labeled, deltas, query: int) -> int:
    """Label of argmin over labeled points of distance / radius (lowest index on ties).

    The nearest-ball rule behind ProbCover's error bound: a query takes the
    label of the labeled point whose ball it lies deepest inside.
    """
    if not len(labeled):
        raise ValueError("labeled set must be non-empty")
    deltas = np.asarray(deltas, dtype=np.float64)
    indices = np.asarray(labeled, dtype=np.int64)
    points = embedding_set.vectors.astype(np.float64)
    ratios = np.sqrt(_sq_dists(points[indices], points[query])) / deltas
    return int(embedding_set.labels[indices[int(np.argmin(ratios))]])


def softmax(logits):
    """Reference for learners._softmax: the row-major softmax of (N, C) logits."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def probe_loss_and_grad(weights, features_bias, onehot, l2_penalty):
    """Reference for learners._probe_grad: the loss it descends, and its gradient.

    Mean cross-entropy plus 0.5 * l2_penalty * |weights|^2, the bias row of
    the weights excluded, written out apart from learners. features_bias is
    (m, d+1) with the constant column appended.
    """
    probs = softmax(features_bias @ weights)
    penalized = weights.copy()
    penalized[-1] = 0.0
    grad = features_bias.T @ (probs - onehot) / features_bias.shape[0] + l2_penalty * penalized
    ce = -np.log(probs[np.arange(features_bias.shape[0]), onehot.argmax(axis=1)] + 1e-12).mean()
    return ce + 0.5 * l2_penalty * (penalized * penalized).sum(), grad


def train_probe(embedding_set, labeled, spec):
    """Reference for train_learner's linear probe: the loss at every epoch.

    Returns the final weights and the loss before each update, from
    probe_loss_and_grad on the features train_learner builds.
    """
    indices = np.asarray(labeled, dtype=np.int64)
    labels = embedding_set.labels[indices]
    class_count = embedding_set.num_classes
    features = embedding_set.vectors[indices].astype(np.float64)
    features_bias = np.hstack((features, np.ones((features.shape[0], 1))))
    onehot = np.zeros((features.shape[0], class_count))
    onehot[np.arange(features.shape[0]), labels] = 1.0
    weights = np.zeros((embedding_set.dim + 1, class_count))
    history = []
    for _ in range(spec.epochs):
        loss, grad = probe_loss_and_grad(weights, features_bias, onehot, spec.l2_penalty)
        history.append(loss)
        weights = weights - spec.learning_rate * grad
    return weights, history


def seeded_accuracies(config, seed):
    """Reference for one repetition of run_al_loop on a seeded kind: each iteration's accuracy.

    Picks with select_step and the run seed, fits train_learner on the labeled
    points alone, and scores it on the test split; while one class is
    labeled, the accuracy is that of predicting it everywhere.
    """
    dataset = harness.load_dataset(config["data"])
    split = config.get("split", {})
    train, test = harness.stratified_split(
        dataset, split.get("test_fraction", 0.25), split.get("seed", 0)
    )
    pool_set = EmbeddingSet(dataset.vectors[train], dataset.labels[train])
    test_set = EmbeddingSet(dataset.vectors[test], dataset.labels[test])
    kind, spec = config["strategy"]["kind"], harness.learner_spec(config)
    pool, learner, accuracies = PoolState([], list(range(pool_set.count)), []), None, []
    for iteration, q in enumerate(config["schedule"]):
        picks = harness.select_step(pool_set, pool, kind, q, None, spec, learner, seed + iteration)
        pool = pool.with_labeled(picks)
        labels = pool_set.labels[pool.labeled]
        if np.unique(labels).size < 2:
            learner = None
            accuracies.append(float((test_set.labels == labels[0]).mean()))
        else:
            learner = train_learner(pool_set, pool.labeled, spec)
            accuracies.append(
                harness.evaluate_accuracy(learner, test_set, np.arange(test_set.count))
            )
    return accuracies


def largest_passing_index(size: int, predicate) -> int:
    """Reference for engine.largest_passing_index: one row's search, probing predicate(i).

    It probes 0, then mid = (lo + hi + 1) // 2 on [lo, hi] = [0, size - 1],
    raising lo to mid on a pass and lowering hi to mid - 1 on a fail, and
    returns lo once lo == hi; -1 when index 0 fails.
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


def expand_delta(embedding_set, pool: PoolState, new_points, predicted_unlabeled,
                 coverage_old, config) -> list:
    """Reference for engine.expand_delta: one full float64 pass per new point.

    The same binary search probes a purity computed from scratch, so radii
    agree even where purity is not monotone in the radius.
    """
    grid = delta_grid(config.delta_resolution, config.delta_max)
    tau = compute_tau(coverage_old, config.tau_slope, config.tau_intercept)
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


def ball_counts(embedding_set, centers, labels, grid):
    """Reference for engine._ball_counts, all centers in one block: brute-force counts."""
    labels = np.asarray(labels)
    points = embedding_set.vectors.astype(np.float64)
    total = np.empty((len(centers), len(grid)), dtype=np.int64)
    same = np.empty_like(total)
    for k, c in enumerate(centers):
        sq = _sq_dists(points, points[c])
        sq[c] = np.inf
        inside = sq[None, :] <= (np.asarray(grid) * np.asarray(grid))[:, None]
        total[k] = inside.sum(axis=1)
        same[k] = (inside & (labels == labels[c])).sum(axis=1)
    return total, same


# The adversarial families that every client of the Gram pass (data._gram_pairs)
# runs: the radius graph, coverage, the ball counts and the purity pass.
GRAM_FAMILIES = ("lattice", "duplicates", "scale_1e20", "d4096", "partial_tiles", "shell")


def set_tile(monkeypatch, shape):
    """Run the Gram pass in tiles of shape = (rows, columns) for the rest of a test."""
    monkeypatch.setattr(data, "_TILE_ROWS", shape[0])
    monkeypatch.setattr(data, "_TILE_COLS", shape[1])


def gram_case(family, rng):
    """One case of a Gram-pass family: (embedding set, centres, radius).

    centres are distinct point indices. radius ties with exact distances:
    it is sqrt(k) on the integer lattice, the exact distance from centres[0]
    to some point in the random families, and in "shell" every centre has
    points at exact float64 squared distance radius^2 and at its float
    neighbours on both sides. "partial_tiles" has two or more row blocks of
    data._TILE_ROWS rows, read when the case is made, and a number of points
    that is a multiple of neither tile side above 1, so its last row block
    and its last column tile are partial.
    """
    if family == "shell":
        return _shell(rng)
    if family == "lattice":
        # Integer points and radii sqrt(k): many distances fall exactly on the radius.
        pts = rng.integers(-2, 3, size=(int(rng.integers(2, 60)), 3)).astype(np.float64)
        s = EmbeddingSet(pts)
        return s, _centres(rng, s.count), float(np.sqrt(rng.integers(1, 6)))
    if family == "d4096":
        pts = rng.choice([0.0, 1e2]) + rng.normal(size=(int(rng.integers(2, 14)), 4096))
    elif family == "partial_tiles":
        rows = data._TILE_ROWS
        n = 2 * rows + int(rng.integers(1, max(rows, 2)))
        while any(side > 1 and n % side == 0 for side in (rows, data._TILE_COLS)):
            n += 1
        pts = rng.normal(size=(n, 3))
    else:
        pts = rng.normal(size=(int(rng.integers(2, 50)), 4))
        if family == "scale_1e20":
            # |x|^2 overflows float32, so the keys are float64.
            pts *= 1e20
        else:
            # Copies of the first rows: zero distances and ties across row blocks and tiles.
            pts = np.concatenate([pts, pts[: len(pts) // 2]])
    s = EmbeddingSet(pts)
    centres = _centres(rng, s.count)
    exact = s.vectors.astype(np.float64)
    sq = _sq_dists(exact, exact[centres[0]])
    return s, centres, float(np.sqrt(np.quantile(sq, rng.uniform(0.1, 0.9), method="lower"))) or 1.0


def _centres(rng, n):
    return rng.choice(n, size=min(n, 4), replace=False)


def _shell(rng):
    """Three centres, far apart, each with points at squared distance r^2 and one float off it.

    Each shell point starts just inside the ball and is moved out along two
    coordinates in which every centre is 0, a coarse one and a fine one,
    each set to the least float32 that reaches its target: the previous
    float64 of r^2, r^2 itself or the next. Points that miss their target
    exactly are dropped.
    """
    d = 6
    scale = float(rng.choice([1.0, 1e20]))  # float32 keys, then float64 ones
    radius = float(rng.uniform(0.5, 2.0)) * scale
    sq = radius * radius
    centres = np.zeros((3, d), dtype=np.float32)
    centres[:, : d - 2] = (rng.normal(size=(3, d - 2)) + 10 * np.arange(3)[:, None]) * scale
    rows = [centres]
    for centre in centres:
        for target in np.repeat(np.nextafter(sq, [0.0, sq, np.inf]), 4):
            point = centre.copy()
            direction = rng.normal(size=d - 2)
            point[: d - 2] += direction * (radius * (1 - 1e-4) / np.linalg.norm(direction))
            # The coarse coordinate stops one float short of the target, the fine one reaches it.
            coarse = _least_float32_reaching(point, centre, d - 2, target)
            point[d - 2] = np.nextafter(coarse, np.float32(0))
            point[d - 1] = _least_float32_reaching(point, centre, d - 1, target)
            if _sq_dists(point.astype(np.float64), centre.astype(np.float64)) == target:
                rows.append(point[None])
    return EmbeddingSet(np.concatenate(rows)), np.arange(3), radius


def _least_float32_reaching(point, centre, k, target):
    """The least float32 point[k] >= 0 whose exact squared distance to centre is >= target."""
    trial, centre = point.copy(), centre.astype(np.float64)
    lo, hi = 0, int(np.float32(np.finfo(np.float32).max).view(np.int32))
    while lo < hi:  # non-negative float32 values order as their bit patterns
        mid = (lo + hi) // 2
        trial[k] = np.int32(mid).view(np.float32)
        if _sq_dists(trial.astype(np.float64), centre) >= target:
            hi = mid
        else:
            lo = mid + 1
    return np.int32(lo).view(np.float32)

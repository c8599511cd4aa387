import numpy as np
import pytest

from metricregions.errors import (
    InvalidConfig,
    InvalidDataset,
    KGridEmpty,
    KTooLarge,
    TooFewSamples,
)
from metricregions.metrics import (
    MetricKind,
    EuclideanVector,
    rowwise_distance,
)
from metricregions.regression import (
    ConstantMean,
    GlobalFrechetModel,
    LabeledDataset,
    LooKSelection,
    MeanSpec,
    SplitConfig,
    fit_global_frechet,
    fit_knn_frechet,
    fit_mean,
    loo_select_k,
    nearest_neighbors,
    select_global_k,
    split_dataset,
    split_three,
)
from metricregions import rng
from metricregions.metrics import trapezoid_weights
from scipy.spatial import cKDTree


# ---------------------------------------------------------------------------
# datasets and splits


def test_dataset_rejects_nan_predictors():
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.array([[0.0], [np.nan]]), np.array([[1.0], [2.0]]))


@pytest.mark.parametrize(
    "responses, grid, message",
    [
        ([[1.0, 2.0], [np.nan, 0.0]], None, "non-finite"),
        ([[0.0, 1.0], [1.0, 2.0]], [0.0, 0.5], "inside (0, 1)"),
        ([[0.0, 1.0], [1.0, 2.0]], [0.5, 0.5], "increase strictly"),
        ([[0.0, 1.0], [1.0, 2.0]], [0.25, 0.5, 0.75], "does not match response width"),
    ],
    ids=["nan-response", "grid-outside-unit", "grid-not-increasing", "grid-width"],
)
def test_dataset_rejects_bad_responses(responses, grid, message):
    with pytest.raises(InvalidDataset) as info:
        LabeledDataset(np.array([[0.0], [1.0]]), np.array(responses), grid)
    assert message in str(info.value)


def test_dataset_rejects_decreasing_quantile_rows():
    # the message names the offending row
    grid = np.array([0.25, 0.5, 0.75])
    responses = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 3.0]])
    with pytest.raises(InvalidDataset) as info:
        LabeledDataset(np.array([[0.0], [1.0]]), responses, grid)
    assert "response row 1 " in str(info.value)


def test_dataset_rejects_empty():
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.empty((0, 1)), np.empty((0, 1)))


def test_split_is_a_seeded_partition(rng_np):
    data = LabeledDataset(rng_np.normal(size=(20, 2)), rng_np.normal(size=(20, 1)))
    a1, b1 = split_dataset(data, SplitConfig(0.5, seed=9))
    a2, b2 = split_dataset(data, SplitConfig(0.5, seed=9))
    assert np.array_equal(a1.predictors, a2.predictors)
    assert np.array_equal(b1.response_values, b2.response_values)
    assert a1.n == 10 and b1.n == 10
    merged = np.vstack([a1.predictors, b1.predictors])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(data.predictors, axis=0))
    a3, _ = split_dataset(data, SplitConfig(0.5, seed=10))
    assert not np.array_equal(a1.predictors, a3.predictors)


def test_split_fraction_bounds(rng_np):
    data = LabeledDataset(rng_np.normal(size=(10, 1)), rng_np.normal(size=(10, 1)))
    with pytest.raises(InvalidConfig):
        split_dataset(data, SplitConfig(1.0, seed=0))
    # tiny fraction still leaves one training row
    a, b = split_dataset(data, SplitConfig(0.01, seed=0))
    assert a.n == 1 and b.n == 9


def test_split_three_sizes(rng_np):
    data = LabeledDataset(rng_np.normal(size=(10, 1)), rng_np.normal(size=(10, 1)))
    a, b, c = split_three(data, 0.5, 0.3, seed=4)
    assert (a.n, b.n, c.n) == (5, 3, 2)
    with pytest.raises(InvalidConfig):
        split_three(data, 0.7, 0.4, seed=4)


# ---------------------------------------------------------------------------
# kNN Fréchet means


def test_knn_mean_of_two_scalars_is_midpoint():
    data = LabeledDataset(np.array([[0.0], [0.1]]), np.array([[0.0], [2.0]]))
    model = fit_knn_frechet(data, k=2, fit_metric=MetricKind.EUCLIDEAN_L2)
    out = model.predict_values(np.array([0.0]))[0]
    assert np.array_equal(out, np.array([1.0]))


def test_knn_mean_k1_is_nearest_response(rng_np):
    data = LabeledDataset(rng_np.normal(size=(15, 1)), rng_np.normal(size=(15, 2)))
    model = fit_knn_frechet(data, k=1, fit_metric=MetricKind.EUCLIDEAN_L2)
    q = np.array([0.3])
    nearest = np.argmin(np.abs(data.predictors[:, 0] - q[0]))
    out = model.predict_values(q)[0]
    assert np.array_equal(out, data.response_values[nearest])


def _w2_objective(candidate, rows, grid, weights=None):
    # mean (or weighted sum) of squared Wasserstein distances to the rows
    n = rows.shape[0]
    w = np.ones(n) / n if weights is None else weights
    d = rowwise_distance(MetricKind.WASSERSTEIN2, rows, candidate, grid)
    return float(np.sum(w * d * d))


def test_knn_wasserstein_mean_is_pointwise_average():
    grid = np.array([0.25, 0.75])
    data = LabeledDataset(
        np.array([[0.0], [1.0], [2.0]]),
        np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
        grid,
    )
    model = fit_knn_frechet(data, k=3, fit_metric=MetricKind.WASSERSTEIN2)
    out = model.predict_values(np.array([1.0]))[0]
    assert np.array_equal(out, np.array([2.0, 3.0]))
    # grid-search oracle over monotone candidates confirms optimality
    best = np.inf
    span = np.arange(-1.0, 6.05, 0.05)
    for a in span:
        for b in span[span >= a]:
            val = _w2_objective(np.array([a, b]), data.response_values, grid)
            best = min(best, val)
    assert _w2_objective(out, data.response_values, grid) <= best + 1e-9


def test_knn_mean_with_k_equal_n_is_global_average(rng_np):
    data = LabeledDataset(rng_np.normal(size=(12, 1)), rng_np.normal(size=(12, 3)))
    model = fit_knn_frechet(data, k=12, fit_metric=MetricKind.EUCLIDEAN_L2)
    out = model.predict_values(np.array([0.0]))[0]
    np.testing.assert_allclose(out, data.response_values.mean(axis=0), atol=1e-12)


def test_knn_mean_beats_random_candidates(rng_np):
    data = LabeledDataset(rng_np.normal(size=(30, 2)), rng_np.normal(size=(30, 3)))
    k = 7
    model = fit_knn_frechet(data, k=k, fit_metric=MetricKind.EUCLIDEAN_L2)
    q = np.array([0.1, -0.2])
    out = model.predict_values(q)[0]
    d2 = ((data.predictors - q) ** 2).sum(axis=1)
    members = data.response_values[np.argsort(d2)[:k]]

    def objective(y):
        return float(((members - y) ** 2).sum(axis=1).mean())

    base = objective(out)
    candidates = rng_np.normal(scale=2.0, size=(1000, 3))
    assert all(base <= objective(c) + 1e-12 for c in candidates)


def test_knn_tie_break_is_seeded():
    # three training points equidistant from the query; k=2 must pick
    # deterministically under a fixed seed
    X = np.array([[1.0], [1.0], [1.0], [5.0]])
    Y = np.array([[10.0], [20.0], [30.0], [99.0]])
    data = LabeledDataset(X, Y)
    outs = set()
    for seed in range(6):
        model = fit_knn_frechet(data, k=2, fit_metric=MetricKind.EUCLIDEAN_L2, seed=seed)
        v1 = model.predict_values(np.array([0.0]))[0, 0]
        v2 = model.predict_values(np.array([0.0]))[0, 0]
        assert v1 == v2
        assert v1 in (15.0, 20.0, 25.0)  # mean of two of the tied responses
        outs.add(v1)
    assert len(outs) > 1  # different seeds can resolve the tie differently


def test_knn_k_out_of_range(rng_np):
    data = LabeledDataset(rng_np.normal(size=(5, 1)), rng_np.normal(size=(5, 1)))
    with pytest.raises(KTooLarge):
        fit_knn_frechet(data, k=6, fit_metric=MetricKind.EUCLIDEAN_L2)


# ---------------------------------------------------------------------------
# global Fréchet regression


def test_global_frechet_hand_covariance():
    data = LabeledDataset(np.array([[0.0], [1.0], [2.0]]), np.array([[5.0], [6.0], [7.0]]))
    model = fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)
    assert np.array_equal(model.mean_x, np.array([1.0]))
    assert np.array_equal(model.cov_inv, np.array([[1.0]]))


def test_global_frechet_needs_enough_rows():
    data = LabeledDataset(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]]), np.ones((3, 1)))
    with pytest.raises(TooFewSamples):
        fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)


def test_global_frechet_constant_column_gets_ridged(rng_np):
    X = np.column_stack([rng_np.normal(size=30), np.full(30, 2.0)])
    data = LabeledDataset(X, rng_np.normal(size=(30, 1)))
    model = fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)
    assert np.isfinite(model.cov_inv).all()
    pred = model.predict_values(np.array([[0.5, 2.0]]))
    assert np.isfinite(pred).all()


def test_global_frechet_constant_column_does_not_move_predictions(rng_np):
    # 0.1 is not the rounded mean of 200 copies of itself; an inexact
    # centring, times the ridged variance, would leak into the predictions
    x = rng_np.uniform(0.0, 5.0, 200)
    X = np.column_stack([x, np.full(200, 0.1)])
    model = fit_global_frechet(LabeledDataset(X, 2.0 * x + rng_np.normal(size=200)), MetricKind.EUCLIDEAN_L2)
    assert model.mean_x[1] == 0.1 and model.coef[1, 0] == 0.0
    assert model.cov_inv[0, 1] == 0.0 and model.cov_inv[1, 0] == 0.0
    queries = np.column_stack([rng_np.uniform(0.0, 5.0, 20), np.full(20, 0.1)])
    moved = queries.copy()
    moved[:, 1] = -50.0
    assert np.array_equal(model.predict_values(moved), model.predict_values(queries))


def test_global_frechet_cov_inverse_converges_to_identity(rng_np):
    X = rng_np.standard_normal((10000, 2))
    data = LabeledDataset(X, rng_np.normal(size=(10000, 1)))
    model = fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)
    assert np.abs(model.cov_inv - np.eye(2)).max() < 0.1


def test_global_frechet_noiseless_line_recovered():
    x = np.linspace(0.0, 4.0, 9)
    data = LabeledDataset(x, 2.0 + 3.0 * x)
    model = fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)
    queries = np.array([[-1.0], [0.37], [2.0], [10.0]])
    np.testing.assert_allclose(
        model.predict_values(queries)[:, 0], 2.0 + 3.0 * queries[:, 0], atol=1e-9
    )


def test_global_frechet_matches_least_squares(rng_np):
    X = rng_np.normal(size=(60, 2))
    Y = 1.0 + X @ np.array([2.0, -0.5]) + rng_np.normal(scale=0.3, size=60)
    data = LabeledDataset(X, Y)
    model = fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)
    design = np.column_stack([np.ones(60), X])
    beta, *_ = np.linalg.lstsq(design, Y, rcond=None)
    queries = rng_np.normal(size=(25, 2))
    expected = np.column_stack([np.ones(25), queries]) @ beta
    got = model.predict_values(queries)[:, 0]
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_global_frechet_weights_at_centroid_are_one(rng_np):
    X = rng_np.normal(size=(40, 3))
    data = LabeledDataset(X, rng_np.normal(size=(40, 2)))
    model = fit_global_frechet(data, MetricKind.EUCLIDEAN_L2)
    w = model.weights(X.mean(axis=0)[None, :])
    np.testing.assert_allclose(w, np.ones((1, 40)), atol=1e-12)
    pred = model.predict_values(X.mean(axis=0)[None, :])
    np.testing.assert_allclose(pred[0], data.response_values.mean(axis=0), atol=1e-12)


def test_global_frechet_translation_equivariance(rng_np):
    X = rng_np.normal(size=(50, 2))
    Y = rng_np.normal(size=(50, 3))
    shift = np.array([10.0, -4.0, 0.25])
    base = fit_global_frechet(LabeledDataset(X, Y), MetricKind.EUCLIDEAN_L2)
    shifted = fit_global_frechet(LabeledDataset(X, Y + shift), MetricKind.EUCLIDEAN_L2)
    queries = rng_np.normal(size=(10, 2))
    np.testing.assert_allclose(
        shifted.predict_values(queries),
        base.predict_values(queries) + shift,
        atol=1e-12,
    )


def test_global_frechet_wasserstein_projection_is_monotone_and_optimal():
    grid = np.array([0.2, 0.5, 0.8])
    # steeply crossing quantile rows so an extrapolating query produces a
    # non-monotone weighted average
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array(
        [
            [0.0, 5.0, 10.0],
            [0.0, 1.0, 2.0],
            [0.0, 0.5, 1.0],
            [0.0, 0.4, 0.8],
        ]
    )
    data = LabeledDataset(X, Y, grid)
    model = fit_global_frechet(data, MetricKind.WASSERSTEIN2)
    q = np.array([[6.0]])
    w = model.weights(q)[0]
    raw = w @ Y / w.sum()
    assert (np.diff(raw) < 0.0).any()  # unprojected average breaks monotonicity
    out = model.predict_values(q)[0]
    assert (np.diff(out) >= -1e-12).all()
    weights = w / w.sum()
    candidate = np.sort(raw)
    assert _w2_objective(out, Y, grid, weights) <= _w2_objective(
        candidate, Y, grid, weights
    ) + 1e-12


def _weighted_average(model, queries):
    # the estimator by its definition: the weights' average of the responses
    w = model.weights(queries)
    return (w @ model.training.response_values) / w.sum(axis=1)[:, None]


@pytest.mark.parametrize(
    "p, m, constant",
    [(1, 1, False), (1, 2, False), (3, 1, False), (3, 2, False), (3, 2, True)],
)
def test_global_frechet_closed_form_matches_weighted_average(rng_np, p, m, constant):
    # the reference divides by a weight sum that the rounding of mean_x
    # moves off n; that error grows with cov_inv, so column scales stay
    # within a factor of 6 of each other
    for _ in range(10):
        X = rng_np.normal(size=(40, p)) * rng_np.uniform(0.5, 3.0, size=p) + rng_np.normal(size=p)
        if constant:
            # a zero-variance column, so the covariance is ridged; 2.0 is its
            # own mean exactly, so the 1e8-scale ridged inverse multiplies an
            # exact zero rather than the rounding error of a centring
            X[:, 1] = 2.0
        Y = rng_np.normal(size=(40, m)) * rng_np.uniform(0.1, 10.0) + rng_np.normal()
        model = fit_global_frechet(LabeledDataset(X, Y), MetricKind.EUCLIDEAN_L2)
        spread = np.ptp(X, axis=0).max()
        queries = model.mean_x + rng_np.uniform(-30.0, 30.0, size=(50, p)) * spread
        ref = _weighted_average(model, queries)
        got = model.predict_values(queries)
        assert np.abs(got - ref).max() <= 1e-11 * (np.abs(Y).max() + np.abs(ref).max())


def test_global_frechet_prediction_is_bitwise_stable(rng_np):
    X = rng_np.normal(size=(50, 3))
    Y = rng_np.normal(size=(50, 2))
    model = fit_global_frechet(LabeledDataset(X, Y), MetricKind.EUCLIDEAN_L2)
    queries = 5.0 * rng_np.normal(size=(30, 3))
    batch = model.predict_values(queries)
    for r in range(queries.shape[0]):
        assert np.array_equal(model.predict_values(queries[r]), batch[r : r + 1])
    perm = rng_np.permutation(50)
    shuffled = fit_global_frechet(LabeledDataset(X[perm], Y[perm]), MetricKind.EUCLIDEAN_L2)
    assert np.array_equal(shuffled.predict_values(queries), batch)


# ---------------------------------------------------------------------------
# leave-one-out choice of k


def test_loo_two_rows_scores_zero():
    data = LabeledDataset(np.array([[0.0], [1.0]]), np.array([[4.0], [9.0]]))
    sel = loo_select_k(data, MetricKind.EUCLIDEAN_L2, [1])
    assert np.array_equal(sel.scores, np.zeros((2, 1)))
    assert np.array_equal(sel.k_star, np.array([1, 1]))


def test_loo_constant_responses_pick_smallest_k(rng_np):
    data = LabeledDataset(rng_np.normal(size=(25, 1)), np.full((25, 1), 3.5))
    sel = loo_select_k(data, MetricKind.EUCLIDEAN_L2, [2, 5, 9])
    assert np.array_equal(sel.scores, np.zeros((25, 3)))
    assert (sel.k_star == 2).all()
    assert select_global_k(sel) == 2


def test_loo_grid_validation(rng_np):
    data = LabeledDataset(rng_np.normal(size=(10, 1)), rng_np.normal(size=(10, 1)))
    with pytest.raises(KGridEmpty):
        loo_select_k(data, MetricKind.EUCLIDEAN_L2, [])
    with pytest.raises(KTooLarge):
        loo_select_k(data, MetricKind.EUCLIDEAN_L2, [10])  # max usable is n-1


def test_loo_scores_nonnegative_and_kstar_in_grid(rng_np):
    data = LabeledDataset(rng_np.normal(size=(40, 2)), rng_np.normal(size=(40, 2)))
    grid = (3, 7, 15)
    sel = loo_select_k(data, MetricKind.EUCLIDEAN_L2, grid)
    assert (sel.scores >= 0.0).all()
    assert set(np.unique(sel.k_star)) <= set(grid)


def test_loo_average_k_grows_with_noise_scale():
    # paired draws: same predictors and noise shape, noise variance doubled.
    # the selection should drift toward larger neighborhoods when the
    # signal-to-noise ratio drops; checked as a majority over 20 seeds.
    grid = (4, 8, 16, 32, 64, 128)

    def make(seed, scale):
        g = rng.stream(seed, "loo-noise-trend")
        x = g.uniform(0.0, 5.0, 500)
        eps = g.uniform(0.0, 5.0, 500)
        return LabeledDataset(x, x + scale * (eps - 2.5))

    ups = 0
    for b in range(20):
        lo = loo_select_k(make(b, 1.0), MetricKind.EUCLIDEAN_L2, grid)
        hi = loo_select_k(make(b, 2.0**0.5), MetricKind.EUCLIDEAN_L2, grid)
        ups += np.mean(hi.k_star) > np.mean(lo.k_star)
    assert ups > 10


def test_select_global_k_lower_median():
    sel = LooKSelection((4, 8, 16), np.zeros((4, 3)), np.array([4, 8, 16, 16]))
    assert select_global_k(sel) == 8
    sel2 = LooKSelection((4, 8), np.zeros((2, 2)), np.array([4, 8]))
    assert select_global_k(sel2) == 4


# ---------------------------------------------------------------------------
# mean-spec plumbing


def test_fit_mean_passthrough_and_dispatch(rng_np):
    data = LabeledDataset(rng_np.normal(size=(30, 1)), rng_np.normal(size=(30, 1)))
    const = ConstantMean(EuclideanVector([1.0]))
    assert fit_mean(data, const) is const
    knn = fit_mean(data, MeanSpec("knn", k=5))
    assert knn.k == 5
    glob = fit_mean(data, MeanSpec("global"))
    assert isinstance(glob, GlobalFrechetModel)
    with pytest.raises(InvalidConfig):
        fit_mean(data, MeanSpec("mystery"))


def test_fit_mean_auto_selects_k(rng_np):
    x = rng_np.uniform(0.0, 5.0, 120)
    data = LabeledDataset(x, x + rng_np.normal(size=120))
    model = fit_mean(data, MeanSpec("knn", k=None, k_grid=(2, 4, 8, 16)))
    assert model.k in (2, 4, 8, 16)


def test_constant_mean_predicts_same_point_everywhere():
    mean = ConstantMean(EuclideanVector([2.0, 7.0]))
    out = mean.predict_values(np.array([[0.0], [5.0], [9.0]]))
    assert np.array_equal(out, np.array([[2.0, 7.0]] * 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_means_reject_non_finite_queries(bad):
    x = np.linspace(0.0, 1.0, 20)
    data = LabeledDataset(x, 2.0 * x)
    models = (
        fit_knn_frechet(data, 3, MetricKind.EUCLIDEAN_L2),
        fit_global_frechet(data, MetricKind.EUCLIDEAN_L2),
        ConstantMean(EuclideanVector([1.0])),
    )
    for model in models:
        with pytest.raises(InvalidDataset, match="queries contain non-finite entries"):
            model.predict_values(np.array([[0.5], [bad]]))


# ---------------------------------------------------------------------------
# neighbor kernel against brute force


def _direct_sq_distances(points, q):
    # squared distances from coordinate differences, summed in coordinate order
    return sum((points[:, j] - q[j]) ** 2 for j in range(points.shape[1]))


def _brute_neighbors(points, queries, k, jitter=None):
    n = points.shape[0]
    out = []
    for q in queries:
        keys = (np.arange(n), _direct_sq_distances(points, q))
        if jitter is not None:
            keys = (np.arange(n), jitter(q), keys[1])
        out.append(np.lexsort(keys)[:k])
    return np.array(out)


def _predictors(lattice, p, n, seed):
    g = np.random.default_rng(seed)
    # an integer lattice of side 4 makes distance ties the rule
    return g.integers(0, 4, (n, p)).astype(float) if lattice else g.normal(size=(n, p))


def _kernel_layouts(lattice, p):
    """(points, queries) pairs; every query set ends with data points, so
    those rows have a k-th distance of 0 at small k."""
    if not lattice:
        points = _predictors(False, p, 40, seed=p)
        yield points, np.vstack([_predictors(False, p, 25, seed=p + 10), points[:5]])
        return
    points = _predictors(True, p, 40, seed=p)
    yield points, np.vstack([_predictors(True, p, 25, seed=p + 10), points[:5]])
    # a 0.01 lattice: at small k a row's tie shell is a small part of n
    g = np.random.default_rng(p + 40)
    points = np.round(g.uniform(0.0, 1.0, (400, p)), 2)
    yield points, np.vstack([np.round(g.uniform(0.0, 1.0, (20, p)), 2), points[:5]])
    # all-equal predictors: every row's tie shell is all n points
    points = np.full((30, p), 0.25)
    yield points, np.vstack([_predictors(False, p, 5, seed=p), points[:2]])


@pytest.mark.parametrize("lattice", [True, False])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("with_jitter", [False, True])
def test_kernel_matches_direct_distance_lexsort(lattice, p, with_jitter):
    for points, queries in _kernel_layouts(lattice, p):
        n = points.shape[0]
        jitter = (lambda q: rng.stream(rng.point_seed(5, q)).random(n)) if with_jitter else None
        tree = cKDTree(points)
        for k in (1, 3, n // 2, n - 1, n):
            got = nearest_neighbors(tree, queries, k, jitter)
            assert np.array_equal(got, _brute_neighbors(points, queries, k, jitter)), (n, k)


def test_kernel_calls_jitter_once_per_fallback_row():
    # points 0..9; the query 0.5 ties points 0 and 1, so it falls back at
    # k = 1 (1st and 2nd distances agree) and at k = 2 (a tie inside the
    # first k, which only matters given a jitter); the query 1.0 ties
    # points 0 and 2 in 2nd place, so it falls back at k = 2 only
    points = np.arange(10.0)[:, None]
    queries = np.array([[0.5], [0.3], [1.0], [7.2], [9.0]])
    seen = []

    def jitter(q):
        seen.append(float(q[0]))
        return rng.stream(rng.point_seed(5, q)).random(10)

    tree = cKDTree(points)
    for k, fallback in ((1, [0.5]), (2, [0.5, 1.0])):
        seen.clear()
        got = nearest_neighbors(tree, queries, k, jitter)
        assert seen == fallback, k
        assert np.array_equal(got, _brute_neighbors(points, queries, k, jitter)), k
    # a repeated tied query is one distinct row: its jitter is drawn once
    repeated = np.vstack([queries, [[0.5], [1.0], [0.5]]])
    for k, fallback in ((1, [0.5]), (2, [0.5, 1.0])):
        seen.clear()
        got = nearest_neighbors(tree, repeated, k, jitter)
        assert sorted(seen) == fallback, k
        assert np.array_equal(got, _brute_neighbors(points, repeated, k, jitter)), k


def test_kernel_reduce_sees_blocks_and_row_numbers(monkeypatch):
    import metricregions.regression as regression

    monkeypatch.setattr(regression, "_BLOCK_PAIRS", 13)  # blocks of two queries
    points = _predictors(True, 1, 30, seed=3)
    queries = _predictors(True, 1, 11, seed=4)
    blocks = []

    def reduce(idx, rows):
        blocks.append(rows)
        return np.c_[rows, idx]

    seen = nearest_neighbors(cKDTree(points), queries, 5, reduce=reduce)
    assert [len(rows) for rows in blocks] == [2, 2, 2, 2, 2, 1]
    assert np.array_equal(seen[:, 0], np.arange(11))
    assert np.array_equal(seen[:, 1:], _brute_neighbors(points, queries, 5))
    empty = nearest_neighbors(cKDTree(points), queries[:0], 5)
    assert empty.shape == (0, 5)
    with pytest.raises(KTooLarge):
        nearest_neighbors(cKDTree(points), queries, 31)


def _repeated_lattice_rows(g, distinct, n, p):
    """``n`` rows drawn at random from ``distinct`` 0.25-lattice rows,
    with about half of their zero coordinates written as ``-0.0``."""
    values = np.round(g.uniform(-1.0, 1.0, (distinct, p)) * 4) / 4
    rows = values[g.integers(0, distinct, n)]
    flip = (rows == 0.0) & (g.random(rows.shape) < 0.5)
    rows[flip] = -0.0
    return rows


@pytest.mark.parametrize("block_pairs", [40, 1 << 20], ids=["small-blocks", "one-block"])
@pytest.mark.parametrize("with_reduce", [False, True])
@pytest.mark.parametrize("with_jitter", [False, True])
def test_kernel_matches_brute_force_on_repeated_rows(monkeypatch, block_pairs, with_reduce, with_jitter):
    import metricregions.regression as regression

    # small blocks cut runs of equal rows across block boundaries
    monkeypatch.setattr(regression, "_BLOCK_PAIRS", block_pairs)
    g = np.random.default_rng(70)
    points = _repeated_lattice_rows(g, 12, 40, 2)
    queries = np.vstack([_repeated_lattice_rows(g, 8, 45, 2), [[0.0, 0.0], [-0.0, -0.0]]])
    assert (np.signbit(queries) & (queries == 0.0)).any()
    n = points.shape[0]
    jitter = (lambda q: rng.stream(rng.point_seed(5, q)).random(n)) if with_jitter else None
    reduce = (lambda idx, rows: np.c_[rows, idx]) if with_reduce else None
    tree = cKDTree(points)
    for k in (1, 3, n - 1, n):
        got = nearest_neighbors(tree, queries, k, jitter, reduce)
        empty = nearest_neighbors(tree, queries[:0], k, jitter, reduce)
        if with_reduce:
            assert np.array_equal(got[:, 0], np.arange(queries.shape[0])), k
            got = got[:, 1:]
            assert empty.shape == (0, k + 1), k
        else:
            assert empty.shape == (0, k), k
        assert np.array_equal(got, _brute_neighbors(points, queries, k, jitter)), k
        # +0.0 and -0.0 are the same query
        assert np.array_equal(got[-1], got[-2]), k


class _CountingTree:
    """A KD-tree that records the rows of every query it answers."""

    def __init__(self, points):
        self._tree = cKDTree(points)
        self.n, self.data = self._tree.n, self._tree.data
        self.queried = []

    def query(self, q, k):
        self.queried.append(q.copy())
        return self._tree.query(q, k)


def test_kernel_queries_each_distinct_row_once_per_block(monkeypatch):
    import metricregions.regression as regression

    k = 4
    monkeypatch.setattr(regression, "_BLOCK_PAIRS", 100 * (k + 1))  # blocks of 100 rows
    g = np.random.default_rng(71)
    points = np.round(g.uniform(0.0, 1.0, (60, 2)), 1)
    queries = np.round(g.uniform(0.0, 1.0, (40, 2)), 1)[g.integers(0, 40, 400)]
    tree = _CountingTree(points)
    got = nearest_neighbors(tree, queries, k)
    assert np.array_equal(got, _brute_neighbors(points, queries, k))
    assert len(tree.queried) == 4
    for start, seen in zip(range(0, 400, 100), tree.queried):
        distinct = np.unique(queries[start : start + 100], axis=0)
        assert len(seen) == len(distinct) < 100
        assert np.array_equal(np.unique(seen, axis=0), distinct)


def _brute_loo_scores(data, grid, qw=None):
    X, Y = data.predictors, data.response_values
    scores = np.empty((data.n, len(grid)))
    for i in range(data.n):
        d2 = _direct_sq_distances(X, X[i])
        d2[i] = np.inf
        order = np.lexsort((np.arange(data.n), d2))
        for j, k in enumerate(grid):
            members = Y[order[:k]]
            diff = members - members.mean(axis=0)
            sq = (diff**2).sum(axis=1) if qw is None else (diff**2) @ qw
            scores[i, j] = np.sqrt(sq).mean()
    return scores


@pytest.mark.parametrize("lattice", [True, False])
@pytest.mark.parametrize("p", [1, 3])
def test_loo_scores_match_brute_force(lattice, p):
    n = 40
    g = np.random.default_rng(p + 20)
    data = LabeledDataset(_predictors(lattice, p, n, seed=p + 30), g.normal(size=(n, 2)))
    grid = (1, n // 2, n - 1)
    sel = loo_select_k(data, MetricKind.EUCLIDEAN_L2, grid)
    np.testing.assert_allclose(sel.scores, _brute_loo_scores(data, grid), rtol=1e-12, atol=1e-15)


def test_loo_scores_match_brute_force_on_many_copies_of_a_row(monkeypatch):
    import metricregions.regression as regression

    # blocks of seven rows at k = max_k + 1 = 4; 15 copies of one row
    # exceed 4, so most copies are not among their own first four neighbours
    monkeypatch.setattr(regression, "_BLOCK_PAIRS", 7 * 5)
    g = np.random.default_rng(72)
    x = np.concatenate([np.full(15, 0.5), np.round(g.uniform(0.0, 1.0, 25), 1)])
    data = LabeledDataset(g.permutation(x), g.normal(size=(40, 2)))
    grid = (1, 2, 3)
    sel = loo_select_k(data, MetricKind.EUCLIDEAN_L2, grid)
    np.testing.assert_allclose(sel.scores, _brute_loo_scores(data, grid), rtol=1e-12, atol=1e-15)


def test_loo_wasserstein_scores_match_brute_force():
    n, grid_levels = 30, np.array([0.1, 0.4, 0.6, 0.9])
    g = np.random.default_rng(8)
    Y = np.sort(g.normal(size=(n, grid_levels.size)), axis=1)
    data = LabeledDataset(_predictors(True, 1, n, seed=9), Y, grid_levels)
    grid = (1, 7, n - 1)
    sel = loo_select_k(data, MetricKind.WASSERSTEIN2, grid)
    expected = _brute_loo_scores(data, grid, trapezoid_weights(grid_levels))
    np.testing.assert_allclose(sel.scores, expected, rtol=1e-12, atol=1e-15)


def test_single_candidate_grid_skips_loo(rng_np, monkeypatch):
    import metricregions.regression as regression

    data = LabeledDataset(rng_np.normal(size=(30, 1)), rng_np.normal(size=(30, 1)))
    monkeypatch.setattr(regression, "loo_select_k", None)  # must not be called
    assert fit_mean(data, MeanSpec("knn", k_grid=(6,))).k == 6
    with pytest.raises(KTooLarge):
        fit_mean(data, MeanSpec("knn", k_grid=(30,)))

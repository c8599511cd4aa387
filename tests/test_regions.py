import dataclasses
import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest

import metricregions
from metricregions import rng
from metricregions.errors import EmptyValues, InvalidConfig, InvalidDataset, KTooLarge
from metricregions.evaluate import coverage_indicators, evaluate_model
from metricregions.metrics import EuclideanVector, MetricKind, QuantileFunction
from metricregions.regions import (
    HomoscedasticRegionModel,
    empirical_quantile,
    fit_conformalized_hetero,
    fit_hetero_tuned,
    fit_heteroscedastic_knn,
    fit_homoscedastic,
    region_radii,
    tune_k_marginal,
)
from metricregions.regression import (
    ConstantMean,
    LabeledDataset,
    MeanSpec,
    SplitConfig,
    split_dataset,
    split_three,
)
from metricregions.simulate import Setting1, Setting4, generate
from metricregions.storage import read_models_json, write_models_json


def _scalar_dataset(generator, n, loc=0.0, scale=1.0):
    x = generator.uniform(0.0, 5.0, n)
    y = loc + scale * generator.normal(size=n)
    return LabeledDataset(x, y)


# ---------------------------------------------------------------------------
# empirical quantile convention


def test_quantile_is_high_order_statistic():
    assert empirical_quantile(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.8) == 5.0


def test_quantile_single_value():
    assert empirical_quantile(np.array([7.0]), 0.5) == 7.0


def test_quantile_overflows_to_infinity():
    assert empirical_quantile(np.array([1.0, 2.0, 3.0]), 0.99) == math.inf


def test_quantile_rejects_bad_inputs():
    with pytest.raises(EmptyValues):
        empirical_quantile(np.array([]), 0.5)
    with pytest.raises(InvalidConfig):
        empirical_quantile(np.array([1.0]), 1.0)
    with pytest.raises(InvalidConfig):
        empirical_quantile(np.array([1.0]), 0.0)


def test_quantile_matches_sort_oracle(rng_np):
    for _ in range(200):
        n = int(rng_np.integers(1, 60))
        values = rng_np.normal(size=n)
        level = float(rng_np.uniform(0.01, 0.99))
        j = math.ceil((n + 1) * level)
        expected = math.inf if j > n else float(np.sort(values)[j - 1])
        assert empirical_quantile(values, level) == expected


# ---------------------------------------------------------------------------
# regions and membership


def _ball_at_zero(radius: float) -> HomoscedasticRegionModel:
    return HomoscedasticRegionModel(
        ConstantMean(EuclideanVector([0.0])), radius, 0.2, MetricKind.EUCLIDEAN_L2
    )


def test_contains_closed_ball():
    responses = LabeledDataset(np.zeros(3), np.array([0.0, 3.0, 3.0000001]))
    # the boundary point is inside
    assert coverage_indicators(_ball_at_zero(3.0), responses).tolist() == [True, True, False]
    zero = coverage_indicators(_ball_at_zero(0.0), LabeledDataset([0.0, 0.0], [0.0, 1e-9]))
    assert zero.tolist() == [True, False]


def test_infinite_radius_contains_everything():
    far = LabeledDataset(np.zeros(2), np.array([1e300, -1e300]))
    assert coverage_indicators(_ball_at_zero(math.inf), far).all()


# ---------------------------------------------------------------------------
# homoscedastic regions


def test_noiseless_data_calibrates_zero_radius():
    data = LabeledDataset(np.linspace(0.0, 1.0, 8), np.full(8, 3.0))
    train, calib = split_dataset(data, SplitConfig(0.5, seed=1))
    model = fit_homoscedastic(
        train, calib, 0.2, ConstantMean(EuclideanVector([3.0])), MetricKind.EUCLIDEAN_L2
    )
    assert model.calibrated_radius == 0.0


def test_tiny_alpha_small_sample_gives_infinite_radius(rng_np):
    data = _scalar_dataset(rng_np, 8)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=1))
    model = fit_homoscedastic(
        train, calib, 0.001, MeanSpec("knn", k=2), MetricKind.EUCLIDEAN_L2
    )
    assert model.calibrated_radius == math.inf
    assert coverage_indicators(model, LabeledDataset([2.0], [1e12])).all()


def test_homoscedastic_radius_is_global(rng_np):
    data = _scalar_dataset(rng_np, 60)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=3))
    model = fit_homoscedastic(train, calib, 0.2, MeanSpec("knn", k=5), MetricKind.EUCLIDEAN_L2)
    radii = model.radii(np.array([[0.1], [2.2], [4.9]]))
    assert radii[0] == radii[1] == radii[2] == model.calibrated_radius


# ---------------------------------------------------------------------------
# heteroscedastic regions


def test_hetero_with_full_neighborhood_matches_homoscedastic(rng_np):
    data = _scalar_dataset(rng_np, 80)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=11))
    mean = MeanSpec("knn", k=7)
    homo = fit_homoscedastic(train, calib, 0.2, mean, MetricKind.EUCLIDEAN_L2, seed=21)
    hetero = fit_heteroscedastic_knn(
        train, calib, 0.2, calib.n, mean, MetricKind.EUCLIDEAN_L2, seed=21
    )
    queries = rng_np.uniform(0.0, 5.0, size=(25, 1))
    assert np.array_equal(hetero.radii(queries), np.full(25, homo.calibrated_radius))


def test_hetero_single_calibration_point(rng_np):
    train = _scalar_dataset(rng_np, 10)
    calib = LabeledDataset(np.array([2.0]), np.array([9.0]))
    model = fit_heteroscedastic_knn(
        train, calib, 0.5, 1, ConstantMean(EuclideanVector([0.0])), MetricKind.EUCLIDEAN_L2
    )
    assert model.calibration_residuals[0] == 9.0
    # ceil((1+1) * 0.5) = 1, so the lone residual is the radius everywhere
    assert np.array_equal(model.radii(np.array([[0.0], [5.0]])), np.array([9.0, 9.0]))
    tight = fit_heteroscedastic_knn(
        train, calib, 0.2, 1, ConstantMean(EuclideanVector([0.0])), MetricKind.EUCLIDEAN_L2
    )
    # ceil((1+1) * 0.8) = 2 > k: rank overflows, radius is vacuous
    assert np.all(np.isposinf(tight.radii(np.array([[2.0]]))))


def test_hetero_equal_residuals_give_constant_radius(rng_np):
    train = _scalar_dataset(rng_np, 10)
    calib = LabeledDataset(rng_np.uniform(0, 5, 40), np.full(40, 2.5))
    # k chosen so the quantile rank ceil((k+1) * 0.8) stays within k
    for k in (4, 7, 19, 40):
        model = fit_heteroscedastic_knn(
            train, calib, 0.2, k, ConstantMean(EuclideanVector([0.0])), MetricKind.EUCLIDEAN_L2
        )
        radii = model.radii(np.array([[0.3], [4.4]]))
        assert np.array_equal(radii, np.array([2.5, 2.5]))


def test_hetero_k_bounds(rng_np):
    data = _scalar_dataset(rng_np, 30)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=2))
    with pytest.raises(KTooLarge):
        fit_heteroscedastic_knn(
            train, calib, 0.2, calib.n + 1, MeanSpec("knn", k=3), MetricKind.EUCLIDEAN_L2
        )
    model = fit_heteroscedastic_knn(
        train, calib, 0.2, 5, MeanSpec("knn", k=3), MetricKind.EUCLIDEAN_L2
    )
    with pytest.raises(KTooLarge):
        tune_k_marginal(model, [0, 5], calib)
    with pytest.raises(KTooLarge):
        tune_k_marginal(model, [5, calib.n + 1], calib)


def test_hetero_tie_heavy_queries_are_deterministic(rng_np):
    train = _scalar_dataset(rng_np, 12)
    calib = LabeledDataset(np.full(9, 1.0), rng_np.normal(size=9))
    model = fit_heteroscedastic_knn(
        train, calib, 0.2, 3, ConstantMean(EuclideanVector([0.0])), MetricKind.EUCLIDEAN_L2, seed=77
    )
    # every calibration predictor is equidistant from these queries
    q = np.array([[0.0], [2.0], [0.0]])
    first = model.radii(q)
    second = model.radii(q)
    assert np.array_equal(first, second)
    assert first[0] == first[2]  # same query, same local quantile
    alone = model.radii(np.array([[2.0]]))  # batch composition cannot matter
    assert alone[0] == first[1]
    assert model.radii(np.array([0.0]))[0] == first[0]


def test_hetero_radius_tracks_heteroscedastic_truth():
    # linear scale-with-x noise: the local radius at x=4 should exceed the
    # radius at x=1 (true values 3.2 vs 0.8) in nearly every replicate
    wins = 0
    for b in range(50):
        seed = rng.derive_seed(314, "radius-trend", b)
        data = generate(Setting1(), 4000, seed)
        train, calib = split_dataset(data, SplitConfig(0.5, seed))
        fitted = fit_hetero_tuned(train, calib, 0.2, seed=seed)
        radii = fitted.model.radii(np.array([[1.0], [4.0]]))
        wins += radii[1] > radii[0]
    assert wins >= 45


# ---------------------------------------------------------------------------
# radius-k tuning


def test_tune_single_candidate_returned(rng_np):
    data = _scalar_dataset(rng_np, 40)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=5))
    model = fit_heteroscedastic_knn(
        train, calib, 0.2, 5, MeanSpec("knn", k=3), MetricKind.EUCLIDEAN_L2
    )
    result = tune_k_marginal(model, [9], calib)
    assert result.k_star == 9
    # the tuned model is the input model with k = k_star, on the same store
    assert result.model.k == 9 and model.k == 5
    assert result.model.calibration_residuals is model.calibration_residuals
    assert result.model.mean is model.mean


def test_tune_ties_resolve_to_smallest_k(rng_np):
    x = rng_np.uniform(0, 5, 30)
    noiseless = LabeledDataset(x, np.full(30, 1.0))
    train, calib = split_dataset(noiseless, SplitConfig(0.5, seed=5))
    model = fit_heteroscedastic_knn(
        train, calib, 0.2, 2, ConstantMean(EuclideanVector([1.0])), MetricKind.EUCLIDEAN_L2
    )
    result = tune_k_marginal(model, [2, 5, 11], calib)
    assert np.array_equal(result.coverage, np.ones(3))
    assert result.k_star == 2


def test_tuned_coverage_near_nominal_on_large_holdout():
    seed = 2718
    data = generate(Setting1(), 3000, seed)
    train, calib = split_dataset(data, SplitConfig(0.5, seed))
    fitted = fit_hetero_tuned(train, calib, 0.2, seed=seed)
    holdout = generate(Setting1(), 100_000, rng.derive_seed(seed, "holdout"))
    centers = fitted.model.center_values(holdout.predictors)
    resid = np.abs(holdout.response_values[:, 0] - centers[:, 0])
    coverage = float(np.mean(resid <= fitted.model.radii(holdout.predictors)))
    assert abs(coverage - 0.8) <= 0.03


# ---------------------------------------------------------------------------
# conformalized variant


def test_conformal_offset_small_when_base_radius_is_true_quantile(rng_np):
    # base model with every stored residual equal to the true conditional
    # 0.8-quantile of |Y| for Y ~ U(0,1): local radius is exactly 0.8
    # everywhere, so conformal scores are centered near quantile zero
    train = _scalar_dataset(rng_np, 20)
    calib = LabeledDataset(rng_np.uniform(0, 5, 200), np.full(200, 0.8))
    conformal = LabeledDataset(rng_np.uniform(0, 5, 999), rng_np.uniform(0.0, 1.0, 999))
    mean = ConstantMean(EuclideanVector([0.0]))
    base = fit_heteroscedastic_knn(train, calib, 0.2, 25, mean, MetricKind.EUCLIDEAN_L2)
    model = fit_conformalized_hetero(
        train, calib, conformal, 0.2, 25, mean, MetricKind.EUCLIDEAN_L2
    )
    # order-statistic fluctuation bound for the 0.8 empirical quantile
    bound = 4.0 * math.sqrt(0.2 * 0.8 / (999 + 2))
    assert abs(model.offset) <= bound
    assert np.allclose(model.radii(np.array([[1.0]])), 0.8 + model.offset)
    assert np.array_equal(base.radii(np.array([[1.0]])), np.array([0.8]))


def test_conformal_with_zero_base_matches_plain_calibration(rng_np):
    train = _scalar_dataset(rng_np, 15)
    calib = LabeledDataset(rng_np.uniform(0, 5, 30), np.zeros(30))
    conformal = _scalar_dataset(rng_np, 41, loc=2.0)
    mean = ConstantMean(EuclideanVector([0.0]))
    model = fit_conformalized_hetero(
        train, calib, conformal, 0.2, 30, mean, MetricKind.EUCLIDEAN_L2
    )
    resid = np.abs(conformal.response_values[:, 0])
    expected = empirical_quantile(resid, 0.8)
    assert model.offset == expected
    assert np.array_equal(model.radii(np.array([[1.0], [3.3]])), np.full(2, expected))


def test_conformal_radius_floors_at_zero(rng_np):
    train = _scalar_dataset(rng_np, 15)
    calib = LabeledDataset(rng_np.uniform(0, 5, 30), np.full(30, 5.0))
    conformal = LabeledDataset(rng_np.uniform(0, 5, 40), np.full(40, 0.25))
    mean = ConstantMean(EuclideanVector([0.0]))
    model = fit_conformalized_hetero(
        train, calib, conformal, 0.2, 10, mean, MetricKind.EUCLIDEAN_L2
    )
    assert model.offset < 0.0  # scores are 0.25 - 5.0 everywhere
    assert (model.radii(np.array([[1.0], [4.0]])) >= 0.0).all()
    floored = dataclasses.replace(model, offset=-1e9)
    assert np.array_equal(floored.radii(np.array([[1.0]])), np.array([0.0]))


def test_conformal_offset_is_scored_on_offset_free_radii(rng_np):
    import metricregions.regions as regions

    data = _scalar_dataset(rng_np, 150)
    train, calib, conformal = split_three(data, 0.4, 0.3, seed=8)
    mean, metric = MeanSpec("knn", k=5), MetricKind.EUCLIDEAN_L2
    fitted = [
        fit_conformalized_hetero(train, calib, conformal, a, 10, mean, metric) for a in (0.2, 0.1)
    ]
    assert fitted[0].offset != 0.0
    # recalibrating a model that already holds an offset ignores that offset
    again = regions._conformalize(fitted[0], conformal, [0.2, 0.1])
    assert [m.offset for m in again] == [m.offset for m in fitted]


def test_conformal_vacuous_radii_stay_infinite_without_warning():
    # alpha = 0.01 at k = 20 asks for the 21st of 20 neighbours: every local
    # radius is inf, every score -inf, and so is the offset
    data = generate(Setting1(), 600, 3)
    train, calib, conformal = split_three(data, 0.5, 0.25, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_conformalized_hetero(
            train, calib, conformal, 0.01, 20, MeanSpec("knn", k=10),
            MetricKind.EUCLIDEAN_L2, seed=3,
        )
        radii = model.radii(conformal.predictors)
    assert model.offset == -math.inf
    assert np.isposinf(radii).all()


def test_conformal_fresh_pair_coverage_floor():
    alpha = 0.2
    hits = 0
    B = 200
    for b in range(B):
        seed = rng.derive_seed(999, "conformal-floor", b)
        data = generate(Setting4(), 2501, seed)
        train, calib, conformal = split_three(data, 0.2, 0.4, seed)
        model = fit_conformalized_hetero(
            train, calib, conformal, alpha, 100, MeanSpec("knn", k=25),
            MetricKind.EUCLIDEAN_L2, seed=seed,
        )
        pair = generate(Setting4(), 1, rng.derive_seed(seed, "fresh"))
        center = model.center_values(pair.predictors)[0, 0]
        radius = model.radii(pair.predictors)[0]
        hits += abs(pair.response_values[0, 0] - center) <= radius
    se = math.sqrt(alpha * (1 - alpha) / B)
    assert hits / B >= 1 - alpha - 3 * se


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_radii_monotone_in_alpha(rng_np):
    data = _scalar_dataset(rng_np, 120)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=6))
    queries = rng_np.uniform(0.0, 5.0, size=(20, 1))
    mean = MeanSpec("knn", k=5)
    homo_tight = fit_homoscedastic(train, calib, 0.05, mean, MetricKind.EUCLIDEAN_L2, seed=9)
    homo_loose = fit_homoscedastic(train, calib, 0.2, mean, MetricKind.EUCLIDEAN_L2, seed=9)
    assert homo_tight.calibrated_radius >= homo_loose.calibrated_radius
    het_tight = fit_heteroscedastic_knn(train, calib, 0.05, 20, mean, MetricKind.EUCLIDEAN_L2, seed=9)
    het_loose = fit_heteroscedastic_knn(train, calib, 0.2, 20, mean, MetricKind.EUCLIDEAN_L2, seed=9)
    assert (het_tight.radii(queries) >= het_loose.radii(queries)).all()


def test_fitted_model_ignores_input_row_order(rng_np):
    data = _scalar_dataset(rng_np, 60)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=8))
    perm_t = rng_np.permutation(train.n)
    perm_c = rng_np.permutation(calib.n)
    shuffled_train = LabeledDataset(train.predictors[perm_t], train.response_values[perm_t])
    shuffled_calib = LabeledDataset(calib.predictors[perm_c], calib.response_values[perm_c])
    queries = rng_np.uniform(0.0, 5.0, size=(15, 1))
    for mean in (MeanSpec("knn", k=4), MeanSpec("global")):
        a = fit_heteroscedastic_knn(
            train, calib, 0.2, 7, mean, MetricKind.EUCLIDEAN_L2, seed=12
        )
        b = fit_heteroscedastic_knn(
            shuffled_train, shuffled_calib, 0.2, 7, mean,
            MetricKind.EUCLIDEAN_L2, seed=12,
        )
        assert np.array_equal(a.center_values(queries), b.center_values(queries))
        assert np.array_equal(a.radii(queries), b.radii(queries))


def test_radii_scale_with_response_units(rng_np):
    data = _scalar_dataset(rng_np, 80, loc=1.0, scale=0.7)
    doubled = LabeledDataset(data.predictors, 2.0 * data.response_values)
    queries = rng_np.uniform(0.0, 5.0, size=(12, 1))
    mean = MeanSpec("knn", k=6)
    a_train, a_calib = split_dataset(data, SplitConfig(0.5, seed=4))
    b_train, b_calib = split_dataset(doubled, SplitConfig(0.5, seed=4))
    a = fit_heteroscedastic_knn(a_train, a_calib, 0.2, 9, mean, MetricKind.EUCLIDEAN_L2, seed=2)
    b = fit_heteroscedastic_knn(b_train, b_calib, 0.2, 9, mean, MetricKind.EUCLIDEAN_L2, seed=2)
    assert np.array_equal(b.radii(queries), 2.0 * a.radii(queries))
    ah = fit_homoscedastic(a_train, a_calib, 0.1, mean, MetricKind.EUCLIDEAN_L2, seed=2)
    bh = fit_homoscedastic(b_train, b_calib, 0.1, mean, MetricKind.EUCLIDEAN_L2, seed=2)
    assert bh.calibrated_radius == 2.0 * ah.calibrated_radius



# ---------------------------------------------------------------------------
# local radii and tuning against brute force


def _brute_radii(model, queries, k):
    # the ceil((k+1)(1-alpha))-th smallest residual of the first k calibration
    # points in (direct squared distance, query-seeded jitter, index) order
    X, n = model.calibration_predictors, model.n_calibration
    j = math.ceil((k + 1) * (1.0 - model.alpha))
    out = np.full(queries.shape[0], np.inf)
    for r, q in enumerate(queries):
        if j > k:
            continue
        d2 = sum((X[:, c] - q[c]) ** 2 for c in range(X.shape[1]))
        jitter = rng.stream(rng.point_seed(model.seed, q), "neighbor-ties").random(n)
        near = np.lexsort((np.arange(n), jitter, d2))[:k]
        out[r] = np.sort(model.calibration_residuals[near])[j - 1]
    return out


@pytest.mark.parametrize("lattice", [True, False])
@pytest.mark.parametrize("p", [1, 3])
def test_tune_coverage_and_radii_match_brute_force(lattice, p):
    g = np.random.default_rng(40 + p)
    n = 120
    # an integer lattice of side 4 makes distance ties the rule
    x = g.integers(0, 4, (n, p)).astype(float) if lattice else g.normal(size=(n, p))
    data = LabeledDataset(x, x.sum(axis=1) + g.normal(size=n))
    train, calib = split_dataset(data, SplitConfig(0.5, seed=p))
    tune_set = LabeledDataset(
        g.integers(0, 4, (40, p)).astype(float) if lattice else g.normal(size=(40, p)),
        g.normal(size=40),
    )
    model = fit_heteroscedastic_knn(
        train, calib, 0.2, 7, MeanSpec("knn", k=5), MetricKind.EUCLIDEAN_L2, seed=p + 3
    )
    grid = (1, 4, calib.n // 2, calib.n - 1, calib.n)
    result = tune_k_marginal(model, grid, tune_set)
    centers = model.center_values(tune_set.predictors)
    residuals = np.abs(tune_set.response_values[:, 0] - centers[:, 0])
    for i, k in enumerate(grid):
        expected = _brute_radii(model, tune_set.predictors, k)
        assert result.coverage[i] == np.mean(residuals <= expected), k
        tuned = dataclasses.replace(model, k=k).radii(tune_set.predictors)
        assert np.array_equal(tuned, expected), k


def test_tuned_fit_draws_one_point_seed_per_distinct_fallback_query(monkeypatch):
    # the tie fallback draws one full-row jitter per distinct query, and only there
    import metricregions.regions as regions

    g = np.random.default_rng(44)
    x = np.round(g.uniform(0.0, 1.0, 400), 2)
    data = LabeledDataset(x, x + g.normal(size=400))
    train, calib = split_dataset(data, SplitConfig(0.5, seed=4))
    seeds, draws, searches = [], [], []
    real_seed, real_search = rng.point_seed, regions.nearest_neighbors

    def counting_seed(*args):
        seeds.append(args)
        return real_seed(*args)

    def counting_search(tree, queries, k, jitter, reduce):
        def drawing(query):
            draws.append((float(query[0]), jitter(query)))
            return draws[-1][1]

        searches.append((tree, queries.shape[0], k, jitter))
        return real_search(tree, queries, k, drawing, reduce)

    monkeypatch.setattr(rng, "point_seed", counting_seed)
    monkeypatch.setattr(regions, "nearest_neighbors", counting_search)
    result = fit_hetero_tuned(train, calib, 0.1, seed=3)
    # one tuning search over calib
    [(tree, rows, k, jitter)] = searches
    assert rows == calib.n
    assert len(draws) == len(seeds)
    assert all(d.shape == (result.model.n_calibration,) for _, d in draws)
    # the drawn queries are the distinct calibration values that fall
    # back when searched alone, each drawn once
    falls_back = []
    for value in np.unique(calib.predictors[:, 0]):
        calls = []
        real_search(tree, np.array([[value]]), k, lambda q: calls.append(q) or jitter(q))
        if calls:
            falls_back.append(value)
    assert sorted(v for v, _ in draws) == falls_back
    # on a 0.01 lattice most rows fall back, far more rows than draws
    fallback_rows = np.isin(calib.predictors[:, 0], falls_back).sum()
    assert calib.n // 2 < fallback_rows and len(draws) < fallback_rows


def test_signed_zero_queries_get_equal_radii():
    # -0.0 and 0.0 are the same point: the same distances and tie jitter
    assert rng.point_seed(7, np.array([-0.0, 1.0])) == rng.point_seed(7, np.array([0.0, 1.0]))
    g = np.random.default_rng(45)
    x = np.round(g.uniform(-1.0, 1.0, 400), 1)
    data = LabeledDataset(x, x + g.normal(size=400))
    train, calib = split_dataset(data, SplitConfig(0.5, seed=5))
    for seed in range(5):
        model = fit_heteroscedastic_knn(
            train, calib, 0.2, 30, MeanSpec("knn", k=5), MetricKind.EUCLIDEAN_L2, seed=seed
        )
        queries = np.array([[0.0], [-0.0]])
        radii, centers = model.radii(queries), model.center_values(queries)
        assert radii[0] == radii[1] and np.array_equal(centers[0], centers[1]), seed


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_region_models_reject_non_finite_queries(bad):
    g = np.random.default_rng(46)
    data = _scalar_dataset(g, 90)
    train, calib, conformal = split_three(data, 0.4, 0.3, seed=6)
    mean, metric = MeanSpec("knn", k=5), MetricKind.EUCLIDEAN_L2
    models = (
        fit_homoscedastic(train, calib, 0.2, mean, metric),
        fit_heteroscedastic_knn(train, calib, 0.2, 10, mean, metric),
        fit_conformalized_hetero(train, calib, conformal, 0.2, 10, mean, metric),
    )
    queries = np.array([[1.0], [bad]])
    for model in models:
        for answer in (model.radii, model.center_values):
            with pytest.raises(InvalidDataset, match="queries contain non-finite entries"):
                answer(queries)
    with pytest.raises(InvalidDataset, match="queries contain non-finite entries"):
        region_radii(models, queries)


def _grouped_models(p, lattice):
    """Models whose radii ``region_radii`` groups: three alphas and two
    conformal offsets on one store (and a by-value copy of it), the store
    under another seed and another k, and one homoscedastic model."""
    g = np.random.default_rng(60 + p)
    n = 120
    x = g.integers(0, 4, (n, p)).astype(float) if lattice else g.normal(size=(n, p))
    data = LabeledDataset(x, x.sum(axis=1) + g.normal(size=n))
    train, calib = split_dataset(data, SplitConfig(0.5, seed=p))
    metric = MetricKind.EUCLIDEAN_L2
    store = fit_heteroscedastic_knn(train, calib, 0.2, 7, MeanSpec("knn", k=5), metric, seed=p)
    # an equal store built apart: equal values in arrays of its own
    copy = dataclasses.replace(
        store,
        alpha=0.1,
        calibration_predictors=store.calibration_predictors.copy(),
        calibration_residuals=store.calibration_residuals.copy(),
    )
    return [
        store,
        dataclasses.replace(store, alpha=0.3, offset=0.25),
        dataclasses.replace(store, seed=p + 1),
        # ceil(8 * 0.95) = 8 passes k = 7: every radius is infinite
        dataclasses.replace(store, alpha=0.05),
        fit_homoscedastic(train, calib, 0.2, store.mean, metric),
        dataclasses.replace(store, k=12),
        copy,
        # a large negative offset floors the finite radii at zero
        dataclasses.replace(store, offset=-10.0),
    ]


def _oracle_radii(model, queries):
    if isinstance(model, HomoscedasticRegionModel):
        return np.full(queries.shape[0], model.calibrated_radius)
    radii = _brute_radii(model, queries, model.k)
    finite = np.isfinite(radii)
    radii[finite] = np.maximum(radii[finite] + model.offset, 0.0)
    return radii


@pytest.mark.parametrize("lattice", [True, False])
@pytest.mark.parametrize("p", [1, 3])
def test_region_radii_match_brute_force_and_single_models(lattice, p, monkeypatch):
    import metricregions.regions as regions

    models = _grouped_models(p, lattice)
    g = np.random.default_rng(70 + p)
    queries = g.integers(0, 4, (40, p)).astype(float) if lattice else g.normal(size=(40, p))
    searches = []
    real = regions.nearest_neighbors

    def counting(*args, **kwargs):
        searches.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "nearest_neighbors", counting)
    got = region_radii(models, queries)
    # one search for the shared store at its largest k (the other k
    # included), one for the other seed and one for the copy
    assert sorted(searches) == [7, 7, 12]
    assert np.isinf(got[3]).all() and (got[7] == 0.0).any()
    for i, model in enumerate(models):
        assert got[i].shape == (40,), i
        assert np.array_equal(got[i], _oracle_radii(model, queries)), i
        assert np.array_equal(got[i], model.radii(queries)), i
    for i in range(len(models)):
        for j in range(i):
            assert not np.shares_memory(got[i], got[j]), (i, j)
    for r in range(0, 40, 7):
        one = region_radii(models, queries[r])
        assert [a.shape for a in one] == [(1,)] * len(models)
        assert np.array_equal(np.concatenate(one), [a[r] for a in got]), r
    empty = region_radii(models, np.empty((0, p)))
    assert [a.shape for a in empty] == [(0,)] * len(models)


# ---------------------------------------------------------------------------
# query shapes


def _shape_models(p, tmp_path):
    g = np.random.default_rng(50 + p)
    x = g.uniform(0.0, 5.0, (80, p))
    data = LabeledDataset(x, x.sum(axis=1) + g.normal(size=80))
    train, calib, conformal = split_three(data, 0.4, 0.3, seed=p)
    metric = MetricKind.EUCLIDEAN_L2
    means = [MeanSpec("knn", k=5), MeanSpec("global"), ConstantMean(EuclideanVector([0.0]))]
    models = []
    for mean in means:
        models.append(fit_homoscedastic(train, calib, 0.2, mean, metric))
        models.append(fit_heteroscedastic_knn(train, calib, 0.2, 6, mean, metric))
        models.append(fit_conformalized_hetero(train, calib, conformal, 0.2, 6, mean, metric))
    # reloaded models take the same shapes as fitted ones
    write_models_json(tmp_path / "m.json", models)
    return models + read_models_json(tmp_path / "m.json")


@pytest.mark.parametrize(
    "p, queries, rows",
    [
        (1, 0.5, 1),
        (1, np.array([0.5, 1.5, 2.5]), 3),
        (1, np.array([[0.5], [1.5]]), 2),
        (3, np.array([0.5, 1.5, 2.5]), 1),
        (3, np.array([[0.5, 1.5, 2.5], [1.0, 1.0, 1.0]]), 2),
    ],
)
def test_centers_and_radii_agree_on_query_rows(p, queries, rows, tmp_path):
    for model in _shape_models(p, tmp_path):
        centers = model.center_values(queries)
        radii = model.radii(queries)
        constant_homoscedastic = isinstance(model, HomoscedasticRegionModel) and isinstance(
            model.mean, ConstantMean
        )
        # a constant mean under one global radius does not know the query
        # width, so it reads a 1-d array as a column of scalar queries
        expected = queries.size if constant_homoscedastic and np.ndim(queries) == 1 else rows
        assert centers.shape[0] == radii.shape[0] == expected, type(model).__name__


# ---------------------------------------------------------------------------
# plug-in means and public names


class _TrueSetting1Mean:
    """A user-supplied mean: only ``predict_values``, ``p`` and ``quantile_grid``."""

    p = 1
    quantile_grid = None

    def predict_values(self, queries):
        return 3.0 + np.asarray(queries, dtype=np.float64).reshape(-1, 1)


def test_plug_in_mean_needs_only_predict_values():
    data = generate(Setting1(), 600, seed=41)
    train, calib, conformal = split_three(data, 0.4, 0.3, seed=41)
    mean = _TrueSetting1Mean()
    metric = MetricKind.EUCLIDEAN_L2
    models = [
        fit_homoscedastic(train, calib, 0.2, mean, metric),
        fit_heteroscedastic_knn(train, calib, 0.2, 40, mean, metric),
        fit_conformalized_hetero(train, calib, conformal, 0.2, 40, mean, metric),
    ]
    eval_set = generate(Setting1(), 400, seed=42)
    expected = mean.predict_values(eval_set.predictors)
    for model in models:
        assert model.mean is mean
        assert np.array_equal(model.center_values(eval_set.predictors), expected)
        report = evaluate_model(model, eval_set, spec=Setting1(), mc_draws=2000)
        assert 0.6 <= report.marginal_coverage <= 1.0
        assert report.curve is not None and report.region_error is not None


_MODULES = ["metricregions"] + [
    f"metricregions.{info.name}"
    for info in pkgutil.iter_modules(metricregions.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []

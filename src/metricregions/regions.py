"""Distribution-free prediction regions as metric balls.

All regions share one shape: a ball ``B(center(x), radius(x))`` in the
chosen region metric, where the center is a fitted conditional Fréchet
mean.  Four radius rules are provided:

* homoscedastic: one global radius, the ``ceil((n2+1)(1-alpha))``-th
  smallest calibration residual (split-conformal; finite-sample marginal
  coverage at least ``1 - alpha`` and at most ``1 - alpha + 1/(n2+1)``
  up to ties);
* heteroscedastic: a query-local radius, the same empirical quantile
  taken over the residuals of the k calibration points whose predictors
  are nearest to the query;
* tuned two-stage: the kNN mean bandwidth is picked by a leave-one-out
  criterion on the training half, then the radius k is picked to bring
  marginal coverage on a tuning set closest to the nominal level;
* conformalized heteroscedastic: a third split calibrates an additive
  offset for the local radius, restoring a finite-sample marginal
  coverage guarantee.

Residuals are always distances in the region metric between observed
responses and the fitted mean, computed once per calibration point.

Every model answers arrays of queries: ``center_values(queries)`` gives
the (rows, m) centres and ``radii(queries)`` the (rows,) radii.
``region_radii(models, queries)`` is the one local-radius search: models
that hold one calibration store (the same arrays and seed, whatever
their k or alpha) share one neighbour search, and each takes its own
order statistic of its k-prefix of the same neighbour residuals.
A fitted mean is any object with ``predict_values(queries) -> (rows,
m)``, ``p`` and ``quantile_grid``; ``evaluate.coverage_indicators``
tests whether responses lie in their regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from . import rng
from .errors import (
    EmptyValues,
    IncompatibleMetric,
    InvalidConfig,
    InvalidDataset,
    KTooLarge,
)
from .metrics import MetricKind, rowwise_distance
from .regression import (
    LabeledDataset,
    MeanSpec,
    _as_query_matrix,
    canonical_order,
    fit_mean,
    nearest_neighbors,
)

__all__ = [
    "HomoscedasticRegionModel",
    "HeteroscedasticRegionModel",
    "ConformalizedHeteroModel",
    "KTuneResult",
    "empirical_quantile",
    "fit_homoscedastic",
    "fit_heteroscedastic_knn",
    "tune_k_marginal",
    "fit_hetero_tuned",
    "fit_conformalized_hetero",
    "default_radius_k_grid",
    "region_radii",
]


def empirical_quantile(values, level: float) -> float:
    """The ``ceil((n+1) * level)``-th smallest value, or +inf past the top.

    An order statistic does not depend on how tied entries are ranked,
    so ties need no breaking here.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyValues("empirical quantile of no values")
    if not 0.0 < level < 1.0:
        raise InvalidConfig(f"quantile level {level} outside (0, 1)")
    return float(_row_quantiles(v[None, :], level)[0])


def _row_quantiles(values: np.ndarray, level: float) -> np.ndarray:
    """Per row of a (rows, n) array, the ``ceil((n+1) * level)``-th
    smallest value, or +inf past the top."""
    n = values.shape[1]
    j = math.ceil((n + 1) * level)
    if j > n:
        return np.full(values.shape[0], np.inf)
    # a copy: a column view would keep the whole (rows, n) block alive
    return np.partition(values, j - 1, axis=1)[:, j - 1].copy()


def _check_region_metric(region_metric: MetricKind, data: LabeledDataset) -> None:
    if region_metric.is_quantile != (data.quantile_grid is not None):
        raise IncompatibleMetric(
            f"region metric {region_metric.value} does not match the response variant"
        )


def _calibration_residuals(mean, calib: LabeledDataset, region_metric: MetricKind) -> np.ndarray:
    centers = mean.predict_values(calib.predictors)
    return rowwise_distance(
        region_metric, calib.response_values, centers, calib.quantile_grid
    )


# ---------------------------------------------------------------------------
# homoscedastic (global-radius) regions


@dataclass(frozen=True, eq=False)
class HomoscedasticRegionModel:
    """Fitted mean plus one calibrated radius shared by every query."""

    mean: object
    calibrated_radius: float
    alpha: float
    region_metric: MetricKind

    def center_values(self, queries: np.ndarray) -> np.ndarray:
        return self.mean.predict_values(queries)

    def radii(self, queries: np.ndarray) -> np.ndarray:
        q = _as_query_matrix(queries, self.mean.p)
        return np.full(q.shape[0], self.calibrated_radius)


def fit_homoscedastic(
    train: LabeledDataset,
    calib: LabeledDataset,
    alpha: float,
    mean: MeanSpec | object,
    region_metric: MetricKind,
    *,
    seed: int = 0,
) -> HomoscedasticRegionModel:
    """Fit the mean on ``train`` and calibrate one global radius on ``calib``."""
    _validate_alpha(alpha)
    _check_region_metric(region_metric, calib)
    mean_est = fit_mean(train, mean, rng.derive_seed(seed, "mean"))
    residuals = _calibration_residuals(mean_est, calib, region_metric)
    radius = empirical_quantile(residuals, 1.0 - alpha)
    return HomoscedasticRegionModel(mean_est, radius, float(alpha), region_metric)


def _validate_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidConfig(f"miscoverage level alpha={alpha} outside (0, 1)")


# ---------------------------------------------------------------------------
# heteroscedastic (query-local radius) regions


@dataclass(frozen=True, eq=False)
class HeteroscedasticRegionModel:
    """Fitted mean plus a calibration store for query-local radii.

    ``calibration_predictors`` and ``calibration_residuals`` are kept in
    canonical row order; the radius at ``x`` is the empirical quantile
    of the residuals of the k nearest calibration predictors (Euclidean
    distance on predictors, distance ties broken by a jitter seeded from
    ``seed XOR hash(x)``).  The KD-tree over the calibration predictors
    is built on first use.
    """

    mean: object
    calibration_predictors: np.ndarray
    calibration_residuals: np.ndarray
    k: int
    alpha: float
    region_metric: MetricKind
    seed: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n_calibration:
            raise KTooLarge(f"radius k={self.k} outside 1..{self.n_calibration}")
        _validate_alpha(self.alpha)
        if self.calibration_residuals.shape != (self.n_calibration,):
            raise InvalidDataset(f"residuals do not match {self.n_calibration} calibration rows")

    @property
    def n_calibration(self) -> int:
        return self.calibration_predictors.shape[0]

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.calibration_predictors)

    def center_values(self, queries: np.ndarray) -> np.ndarray:
        p = self.calibration_predictors.shape[1]
        return self.mean.predict_values(_as_query_matrix(queries, p))

    def radii(self, queries: np.ndarray) -> np.ndarray:
        return region_radii([self], queries)[0]

    def _tie_jitter(self, query: np.ndarray) -> np.ndarray:
        local = rng.point_seed(self.seed, query)
        return rng.stream(local, "neighbor-ties").random(self.n_calibration)


def fit_heteroscedastic_knn(
    train: LabeledDataset,
    calib: LabeledDataset,
    alpha: float,
    k: int,
    mean: MeanSpec | object,
    region_metric: MetricKind,
    *,
    seed: int = 0,
) -> HeteroscedasticRegionModel:
    """Fit the mean on ``train``; store per-point residuals on ``calib``."""
    _check_region_metric(region_metric, calib)
    mean_est = fit_mean(train, mean, rng.derive_seed(seed, "mean"))
    residuals = _calibration_residuals(mean_est, calib, region_metric)
    order = canonical_order(calib)
    return HeteroscedasticRegionModel(
        mean_est,
        calib.predictors[order].copy(),
        residuals[order],
        int(k),
        float(alpha),
        region_metric,
        int(seed),
    )


# ---------------------------------------------------------------------------
# marginal-coverage tuning of the radius k


@dataclass(frozen=True, eq=False)
class KTuneResult:
    """The tuned model, coverage per candidate k and the pick closest to
    nominal; ``model`` is the input model with ``k = k_star``."""

    model: HeteroscedasticRegionModel
    k_grid: tuple[int, ...]
    coverage: np.ndarray
    k_star: int


def default_radius_k_grid(n_calibration: int) -> tuple[int, ...]:
    grid = tuple(k for k in (25, 50, 100, 200, 400) if k <= n_calibration)
    return grid if grid else (max(1, n_calibration // 2),)


def tune_k_marginal(
    model: HeteroscedasticRegionModel,
    k_grid: Sequence[int],
    tune_set: LabeledDataset,
) -> KTuneResult:
    """Pick the radius k whose marginal coverage on ``tune_set`` is closest
    to ``1 - model.alpha``; ties go to the smallest k.  The calibration
    store is shared with ``model``; only the neighbor count changes."""
    grid = sorted({int(k) for k in k_grid})
    if not grid:
        raise InvalidConfig("empty radius k grid")
    residuals = _calibration_residuals(model.mean, tune_set, model.region_metric)
    # every candidate shares the store, so one neighbour search serves the grid
    candidates = [replace(model, k=k) for k in grid]
    radii = region_radii(candidates, tune_set.predictors)
    coverage = np.array([(residuals <= r).mean() for r in radii])
    best = int(np.argmin(np.abs(coverage - (1.0 - model.alpha))))
    return KTuneResult(candidates[best], tuple(grid), coverage, grid[best])


def fit_hetero_tuned(
    train: LabeledDataset,
    calib: LabeledDataset,
    alpha: float,
    *,
    fit_metric: MetricKind = MetricKind.EUCLIDEAN_L2,
    region_metric: MetricKind = MetricKind.EUCLIDEAN_L2,
    seed: int = 0,
) -> KTuneResult:
    """Two-stage pipeline on the default grids: a kNN mean whose k is
    picked by leave-one-out, then a radius k tuned for marginal coverage
    on ``calib`` itself.  Other grids compose the same three steps:
    ``fit_mean``, ``fit_heteroscedastic_knn`` and ``tune_k_marginal``."""
    grid = default_radius_k_grid(calib.n)
    base = fit_heteroscedastic_knn(
        train, calib, alpha, grid[0], MeanSpec("knn", fit_metric), region_metric, seed=seed
    )
    return tune_k_marginal(base, grid, calib)


# ---------------------------------------------------------------------------
# conformalized heteroscedastic regions


@dataclass(frozen=True, eq=False)
class ConformalizedHeteroModel:
    """Local radii shifted by a conformal offset from a third split.

    The offset is the empirical ``1 - alpha`` quantile of the score
    ``residual - local_radius`` over the third split; final radii are
    clipped at zero.
    """

    base: HeteroscedasticRegionModel
    offset: float

    @property
    def alpha(self) -> float:
        return self.base.alpha

    @property
    def region_metric(self) -> MetricKind:
        return self.base.region_metric

    @property
    def mean(self):
        return self.base.mean

    def center_values(self, queries: np.ndarray) -> np.ndarray:
        return self.base.center_values(queries)

    def radii(self, queries: np.ndarray) -> np.ndarray:
        return region_radii([self], queries)[0]


def fit_conformalized_hetero(
    train: LabeledDataset,
    calib: LabeledDataset,
    conformal: LabeledDataset,
    alpha: float,
    k: int,
    mean: MeanSpec | object,
    region_metric: MetricKind,
    *,
    seed: int = 0,
) -> ConformalizedHeteroModel:
    """Three-split variant: mean on ``train``, local radii on ``calib``,
    conformal offset on ``conformal``."""
    base = fit_heteroscedastic_knn(train, calib, alpha, k, mean, region_metric, seed=seed)
    return _conformalize(base, conformal, [alpha])[0]


def _conformalize(store: HeteroscedasticRegionModel, conformal: LabeledDataset, alphas):
    """One conformalized model per alpha over copies of ``store``, whose
    scores on ``conformal`` share the residuals and one neighbour search."""
    residuals = _calibration_residuals(store.mean, conformal, store.region_metric)
    bases = [replace(store, alpha=float(a)) for a in alphas]
    # an infinite local radius yields a score of -inf, which sorts first:
    # that point is covered for any offset
    return [
        ConformalizedHeteroModel(base, empirical_quantile(residuals - radii, 1.0 - base.alpha))
        for base, radii in zip(bases, region_radii(bases, conformal.predictors))
    ]


# ---------------------------------------------------------------------------
# radii of several models at once


def _shared_search_radii(stores: Sequence[HeteroscedasticRegionModel], queries) -> np.ndarray:
    """(rows, len(stores)) local radii from one neighbour search of a
    shared store at the largest k: per model, the ``1 - alpha`` order
    statistic of the residuals of its first k neighbours."""
    store = stores[0]

    def quantiles(idx, rows):
        res = store.calibration_residuals[idx]
        return np.stack([_row_quantiles(res[:, :s.k], 1.0 - s.alpha) for s in stores], axis=1)

    q = _as_query_matrix(queries, store.calibration_predictors.shape[1])
    return nearest_neighbors(store._tree, q, max(s.k for s in stores), store._tie_jitter, quantiles)


def region_radii(models: Sequence, queries: np.ndarray) -> list[np.ndarray]:
    """The (rows,) radii of every model at ``queries``, in ``models`` order.

    Local-radius models (heteroscedastic, or conformalized over such a
    base) that hold one calibration store share one neighbour search:
    the same ``calibration_predictors`` and ``calibration_residuals``
    objects, as every fit and every loaded bundle shares them across
    alphas and k, and an equal seed.  Equal stores built apart search
    apart.  Each member takes its own ``1 - alpha`` order statistic of
    its k-prefix of the same neighbours, so the radii equal those of
    separate searches bitwise.  A conformalized member then adds its
    offset to its finite radii, floored at zero.  Any other model
    answers ``radii`` itself.  No two returned arrays share memory.
    """
    out = [None] * len(models)
    stores = [m.base if isinstance(m, ConformalizedHeteroModel) else m for m in models]
    # per store, its members' positions; ``models`` keeps the id()-keyed arrays alive
    groups = {}
    for i, store in enumerate(stores):
        if isinstance(store, HeteroscedasticRegionModel):
            key = (id(store.calibration_predictors), id(store.calibration_residuals), store.seed)
            groups.setdefault(key, []).append(i)
        else:
            out[i] = models[i].radii(queries)
    for members in groups.values():
        radii = _shared_search_radii([stores[i] for i in members], queries)
        # one column per member: disjoint views of one block
        for j, i in enumerate(members):
            out[i] = radii[:, j]
            if isinstance(models[i], ConformalizedHeteroModel):
                # a vacuous (infinite) local radius stays vacuous, whatever the offset
                finite = np.isfinite(out[i])
                out[i][finite] = np.maximum(out[i][finite] + models[i].offset, 0.0)
    return out

"""Coverage diagnostics for fitted region models.

Marginal coverage is the fraction of evaluation responses falling in
their regions.  Conditional coverage is estimated by smoothing the
coverage indicators against a scalar predictor with a Gaussian kernel
(Silverman's bandwidth), then summarized by the integrated squared
deviation from the nominal level.  When the generating scenario is
known, the symmetric-difference error measures the probability mass on
which the estimated and oracle regions disagree.

``evaluate_models`` scores a whole bundle in one pass over an
evaluation set: it computes centres once per distinct mean, residuals
once per (mean, region metric), radii through one neighbour search per
calibration store, and the smoothing kernel once, which every alpha's
indicators then reuse.  Nothing is kept between calls.  Each model's
report equals the one it would get evaluated on its own, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import EmptyEvalSet, InvalidConfig, MultivariateUnsupported
from .metrics import rowwise_distance
from .regions import region_radii
from .regression import LabeledDataset
from .simulate import ScenarioSpec, generate, oracle_contains, predictor_range

__all__ = [
    "CoverageCurve",
    "CoverageReport",
    "coverage_indicators",
    "marginal_coverage",
    "silverman_bandwidth",
    "smooth_indicators",
    "conditional_coverage_curve",
    "l2_integrated_error",
    "symmetric_difference_error",
    "evaluate_model",
    "evaluate_models",
]


@dataclass(frozen=True, eq=False)
class CoverageCurve:
    """Smoothed conditional coverage on a grid of predictor values."""

    x: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class CoverageReport:
    alpha: float
    n_eval: int
    marginal_coverage: float
    curve: Optional[CoverageCurve] = None
    l2_error: Optional[float] = None
    region_error: Optional[float] = None


def _bundle_indicators(models: Sequence, eval_set: LabeledDataset) -> list[np.ndarray]:
    """Boolean row-wise membership of the evaluation responses in every
    model's regions, in ``models`` order.  Models holding the same mean
    object share its centres, and those that also share a region metric
    share the residuals; local-radius models share neighbour searches
    as in ``region_radii``."""
    if eval_set.n < 1:
        raise EmptyEvalSet("evaluation set is empty")
    x = eval_set.predictors
    shared = []  # (mean, its centres, its residuals by region metric)
    out = []
    for model, radii in zip(models, region_radii(models, x)):
        # means are matched by identity; a model without one is its own
        # centre rule
        mean = getattr(model, "mean", model)
        entry = next((e for e in shared if e[0] is mean), None)
        if entry is None:
            entry = (mean, model.center_values(x), {})
            shared.append(entry)
        _, centers, residuals = entry
        if model.region_metric not in residuals:
            residuals[model.region_metric] = rowwise_distance(
                model.region_metric, eval_set.response_values, centers, eval_set.quantile_grid
            )
        out.append(residuals[model.region_metric] <= radii)
    return out


def coverage_indicators(model, eval_set: LabeledDataset) -> np.ndarray:
    """Boolean row-wise membership of evaluation responses in their regions."""
    return _bundle_indicators([model], eval_set)[0]


def marginal_coverage(model, eval_set: LabeledDataset) -> float:
    return float(coverage_indicators(model, eval_set).mean())


def silverman_bandwidth(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    sd = float(x.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    spread_candidates = [s for s in (sd, float(q75 - q25) / 1.34) if s > 0.0]
    if not spread_candidates:
        # degenerate sample; any positive width gives the constant smoother
        return max(1e-3, 1e-3 * abs(float(x[0])) if n else 1e-3)
    return 0.9 * min(spread_candidates) * n ** (-0.2)


def _kernel(x: np.ndarray, x_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (grid, n) Gaussian weights at Silverman's bandwidth and their
    row sums, which every smoothing over the predictors ``x`` reuses."""
    h = silverman_bandwidth(x)
    u = (x_grid[:, None] - x[None, :]) / h
    weights = np.exp(-0.5 * np.square(u))
    # same reduction path for both sums so constant indicators smooth to
    # exactly that constant
    return weights, weights @ np.ones(x.size)


def _smooth(kernel: tuple[np.ndarray, np.ndarray], indicators, x_grid: np.ndarray) -> CoverageCurve:
    """Nadaraya-Watson smoothing of ``indicators`` with a ``_kernel``
    built on ``x_grid``, clipped to [0, 1]."""
    weights, denom = kernel
    ind = np.asarray(indicators, dtype=np.float64).ravel()
    numer = weights @ ind
    values = np.full(x_grid.size, ind.mean())
    ok = denom > 0.0  # kernel can underflow to zero far from the data
    values[ok] = numer[ok] / denom[ok]
    return CoverageCurve(x_grid, np.clip(values, 0.0, 1.0))


def smooth_indicators(x: np.ndarray, indicators: np.ndarray, x_grid: np.ndarray) -> CoverageCurve:
    """Nadaraya-Watson smoothing of 0/1 indicators at Silverman's
    bandwidth, clipped to [0, 1]."""
    x = np.asarray(x, dtype=np.float64).ravel()
    x_grid = np.asarray(x_grid, dtype=np.float64).ravel()
    if x.size == 0:
        raise EmptyEvalSet("no indicators to smooth")
    return _smooth(_kernel(x, x_grid), indicators, x_grid)


def conditional_coverage_curve(
    model,
    eval_set: LabeledDataset,
    x_grid: Optional[np.ndarray] = None,
) -> CoverageCurve:
    """Smoothed coverage against a scalar predictor; the default grid is
    101 points across the evaluation predictors."""
    if eval_set.p != 1:
        raise MultivariateUnsupported(
            "conditional coverage curves need a one-dimensional predictor"
        )
    ind = coverage_indicators(model, eval_set)
    xs = eval_set.predictors[:, 0]
    if x_grid is None:
        x_grid = np.linspace(float(xs.min()), float(xs.max()), 101)
    return smooth_indicators(xs, ind, x_grid)


def l2_integrated_error(curve: CoverageCurve, alpha: float) -> float:
    """Trapezoid integral of the squared deviation from 1 - alpha."""
    dev = np.square(curve.values - (1.0 - alpha))
    return float(np.trapezoid(dev, curve.x))


def symmetric_difference_error(
    model,
    spec: ScenarioSpec,
    mc_draws: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte Carlo mass of the symmetric difference between the fitted
    region and the oracle region at the model's level ``model.alpha``,
    averaged over the predictor law.

    A fitted region with infinite radius disagrees with the oracle
    exactly on the oracle's complement, contributing its alpha mass.
    """
    data = generate(spec, mc_draws, rng.derive_seed(seed, "region-error"))
    est = coverage_indicators(model, data)
    truth = oracle_contains(spec, data.predictors, data.response_values, float(model.alpha))
    return float(np.mean(est != truth))


def evaluate_model(
    model,
    eval_set: LabeledDataset,
    grid_points: int = 101,
    spec: Optional[ScenarioSpec] = None,
    mc_draws: int = 0,
    seed: int = 0,
) -> CoverageReport:
    """One-stop report: marginal coverage always, the conditional curve
    and its integrated error for scalar predictors, and the Monte Carlo
    region error when a generating scenario is supplied and
    ``mc_draws > 0``.  The curve's ``grid_points`` span the scenario's
    predictor range, or the evaluation predictors without a scenario."""
    return evaluate_models([model], eval_set, grid_points, spec, mc_draws, seeds=[seed])[0]


def evaluate_models(
    models: Sequence,
    eval_set: LabeledDataset,
    grid_points: int = 101,
    spec: Optional[ScenarioSpec] = None,
    mc_draws: int = 0,
    seeds: Optional[Sequence[int]] = None,
) -> list[CoverageReport]:
    """The ``evaluate_model`` report of every model, in ``models`` order,
    from one pass over ``eval_set``.

    ``seeds`` holds each model's Monte Carlo seed (0 for every model
    when omitted); the region-error draws are each model's own.
    Everything else is shared where the models allow it: centres,
    residuals, neighbour searches and the smoothing kernel.
    """
    # the integrated error of a one-point curve is 0 whatever its coverage
    if grid_points < 2:
        raise InvalidConfig(f"grid_points={grid_points}: must be at least 2")
    models = list(models)
    seeds = [0] * len(models) if seeds is None else list(seeds)
    if len(seeds) != len(models):
        raise InvalidConfig(f"{len(seeds)} Monte Carlo seeds for {len(models)} models")
    if eval_set.n < 1:
        raise EmptyEvalSet("evaluation set is empty")
    kernel = None
    if eval_set.p == 1:
        xs = eval_set.predictors[:, 0]
        lo, hi = predictor_range(spec) if spec is not None else (float(xs.min()), float(xs.max()))
        x_grid = np.linspace(lo, hi, grid_points)
        # built before the searches, so the (grid, n) temporaries of its
        # construction do not stack on the memory the searches leave behind
        kernel = _kernel(xs, x_grid)
    indicators = _bundle_indicators(models, eval_set)
    # each report owns its grid
    curves = [None if kernel is None else _smooth(kernel, ind, x_grid.copy()) for ind in indicators]
    del kernel  # not held through the Monte Carlo draws
    reports = []
    for model, ind, curve, seed in zip(models, indicators, curves, seeds):
        region_error = None
        if spec is not None and mc_draws > 0:
            region_error = symmetric_difference_error(model, spec, mc_draws=mc_draws, seed=seed)
        reports.append(
            CoverageReport(
                alpha=float(model.alpha),
                n_eval=eval_set.n,
                marginal_coverage=float(ind.mean()),
                curve=curve,
                l2_error=None if curve is None else l2_integrated_error(curve, model.alpha),
                region_error=region_error,
            )
        )
    return reports

"""Synthetic scenarios with known conditional laws and oracle regions.

Four scalar-response settings on X ~ U(0, 5):

* setting1: Y = 3 + X + X·e,  e ~ U(-1, 1)
* setting2: Y = 3 + exp(X) + X·e,  e ~ U(-1, 1)
* setting3: Y = 3 + exp(X) + X·e,  e ~ N(0, 4)  (variance 4)
* setting4: Y = X + e,  e ~ U(0, 5)  (homoscedastic)

plus a multivariate Gaussian model Y | X=x ~ N_p(mu(x)·1, sigma(x)^2·I)
with mu(x) = 5 + sum(x), X ~ U(0,1)^d, sigma = 1 (homoscedastic) or
4 + sum(x) (heteroscedastic), and a distributional scenario whose
responses are empirical quantile curves of small Gaussian samples
centered at a linear function of the predictors.

Oracle regions follow the closed forms of the conditional laws.
``oracle_region`` returns them as arrays, centers (n, m) and radii (n,),
and ``oracle_contains`` tests responses against them under the sup-norm
(absolute error when m = 1).  The Gaussian-model oracle is the
hypercube with per-coordinate half-width
``sigma(x) * sqrt(chi2_quantile(p, 1 - alpha))`` exactly as printed in
the source experiment; its actual coverage is verified empirically
(it is exact for p = 1 and conservative above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaincinv, ndtri

from . import rng
from .errors import InvalidConfig, UnsupportedScenario
from .metrics import STANDARD_GRID
from .regression import LabeledDataset

__all__ = [
    "Setting1",
    "Setting2",
    "Setting3",
    "Setting4",
    "GaussianMulti",
    "WassersteinExample",
    "ScenarioSpec",
    "scenario_tag",
    "scenario_from_tag",
    "predictor_range",
    "generate",
    "sample_responses",
    "oracle_region",
    "oracle_contains",
    "chi_square_quantile",
    "normal_quantile",
    "noise_quantile_profile",
    "conditional_mean_quantiles",
]


@dataclass(frozen=True)
class Setting1:
    pass


@dataclass(frozen=True)
class Setting2:
    pass


@dataclass(frozen=True)
class Setting3:
    pass


@dataclass(frozen=True)
class Setting4:
    pass


@dataclass(frozen=True)
class GaussianMulti:
    response_dim: int = 1
    predictor_dim: int = 1
    heteroscedastic: bool = False

    def __post_init__(self):
        if self.response_dim < 1 or self.predictor_dim < 1:
            raise InvalidConfig("gaussian scenario needs positive dimensions")


@dataclass(frozen=True)
class WassersteinExample:
    """Distributional responses: each row is the empirical quantile curve
    (on the standard 101-level grid) of ``n_obs_per_curve`` draws from
    N(coefficients . x, noise_sd^2), with X ~ U(0,1)^d."""

    coefficients: tuple[float, ...] = (1.0,)
    n_obs_per_curve: int = 100
    noise_sd: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) < 1:
            raise InvalidConfig("wasserstein scenario needs at least one coefficient")
        if self.n_obs_per_curve < 1:
            raise InvalidConfig("n_obs_per_curve must be positive")
        if not self.noise_sd > 0:
            raise InvalidConfig("noise_sd must be positive")


ScenarioSpec = Union[Setting1, Setting2, Setting3, Setting4, GaussianMulti, WassersteinExample]

_TAGS = {
    Setting1: "setting1",
    Setting2: "setting2",
    Setting3: "setting3",
    Setting4: "setting4",
    GaussianMulti: "gaussian",
    WassersteinExample: "wasserstein",
}


def scenario_tag(spec: ScenarioSpec) -> str:
    return _TAGS[type(spec)]


def scenario_from_tag(tag: str, **options) -> ScenarioSpec:
    for cls, name in _TAGS.items():
        if name == tag:
            return cls(**options)
    raise InvalidConfig(f"unknown scenario {tag!r}")


def predictor_range(spec: ScenarioSpec) -> tuple[float, float]:
    """Support of each predictor coordinate."""
    if isinstance(spec, (Setting1, Setting2, Setting3, Setting4)):
        return (0.0, 5.0)
    return (0.0, 1.0)


# ---------------------------------------------------------------------------
# generation


def _gaussian_scale(spec: GaussianMulti, x_sum: np.ndarray):
    return (4.0 + x_sum) if spec.heteroscedastic else np.ones_like(x_sum)


def _empirical_quantile_rows(sorted_samples: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # inverse-CDF convention: Q(rho) is the ceil(n*rho)-th smallest sample
    n_obs = sorted_samples.shape[1]
    idx = np.ceil(n_obs * levels).astype(int) - 1
    np.clip(idx, 0, n_obs - 1, out=idx)
    return sorted_samples[:, idx]


def _draw_responses(spec: ScenarioSpec, x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One draw from the conditional law at each predictor row of the
    (n, p) array ``x``: the (n, m) stacked response values."""
    n = x.shape[0]
    if isinstance(spec, (Setting1, Setting2, Setting3)):
        s = x[:, 0]
        eps = gen.normal(0.0, 2.0, n) if isinstance(spec, Setting3) else gen.uniform(-1.0, 1.0, n)
        trend = s if isinstance(spec, Setting1) else np.exp(s)
        return (3.0 + trend + s * eps)[:, None]
    if isinstance(spec, Setting4):
        return (x[:, 0] + gen.uniform(0.0, 5.0, n))[:, None]
    if isinstance(spec, GaussianMulti):
        x_sum = x.sum(axis=1)
        z = gen.standard_normal((n, spec.response_dim))
        return (5.0 + x_sum)[:, None] + _gaussian_scale(spec, x_sum)[:, None] * z
    if isinstance(spec, WassersteinExample):
        noise = spec.noise_sd * gen.standard_normal((n, spec.n_obs_per_curve))
        samples = (x @ np.asarray(spec.coefficients))[:, None] + noise
        samples.sort(axis=1)
        return _empirical_quantile_rows(samples, np.asarray(STANDARD_GRID))
    raise UnsupportedScenario(f"cannot draw responses from {spec!r}")


def generate(spec: ScenarioSpec, n: int, seed: int = 0) -> LabeledDataset:
    """Draw an i.i.d. dataset of size ``n``; bit-identical for a given seed."""
    if n < 1:
        raise InvalidConfig("n must be at least 1")
    gen = rng.stream(seed, "simulate", scenario_tag(spec))
    if isinstance(spec, GaussianMulti):
        p = spec.predictor_dim
    elif isinstance(spec, WassersteinExample):
        p = len(spec.coefficients)
    else:
        p = 1
    # one stream: the predictors first, then the responses given them
    x = gen.uniform(*predictor_range(spec), (n, p))
    grid = np.asarray(STANDARD_GRID) if isinstance(spec, WassersteinExample) else None
    return LabeledDataset(x, _draw_responses(spec, x, gen), grid)


def sample_responses(spec: ScenarioSpec, x: np.ndarray, n_draws: int, seed: int = 0) -> np.ndarray:
    """Conditional draws of the stacked response values at a fixed x."""
    gen = rng.stream(seed, "conditional", scenario_tag(spec))
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return _draw_responses(spec, np.broadcast_to(x, (n_draws, x.size)), gen)


# ---------------------------------------------------------------------------
# oracles


def chi_square_quantile(df: int, level: float) -> float:
    """Quantile of the chi-square law: twice the inverse of the regularized
    lower incomplete gamma function at half the degrees of freedom."""
    if df < 1:
        raise InvalidConfig("degrees of freedom must be at least 1")
    if not 0.0 < level < 1.0:
        raise InvalidConfig(f"quantile level {level} outside (0, 1)")
    return 2.0 * float(gammaincinv(0.5 * df, level))


def normal_quantile(level: float) -> float:
    return float(ndtri(level))


def oracle_region(spec: ScenarioSpec, x: np.ndarray, alpha: float):
    """Closed-form oracle regions at predictor rows ``x``: centers (n, m)
    and radii (n,).

    Scalar settings give intervals (balls under absolute error, m = 1);
    the Gaussian model gives the hypercube as a sup-norm ball.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if isinstance(spec, Setting1):
        s = x[:, 0]
        return (3.0 + s)[:, None], s * (1.0 - alpha)
    if isinstance(spec, Setting2):
        s = x[:, 0]
        return (3.0 + np.exp(s))[:, None], s * (1.0 - alpha)
    if isinstance(spec, Setting3):
        s = x[:, 0]
        return (3.0 + np.exp(s))[:, None], s * 2.0 * normal_quantile(1.0 - alpha / 2.0)
    if isinstance(spec, Setting4):
        s = x[:, 0]
        return (s + 2.5)[:, None], np.full_like(s, 2.5 * (1.0 - alpha))
    if isinstance(spec, GaussianMulti):
        x_sum = x.sum(axis=1)
        half = _gaussian_scale(spec, x_sum) * math.sqrt(
            chi_square_quantile(spec.response_dim, 1.0 - alpha)
        )
        centers = np.repeat((5.0 + x_sum)[:, None], spec.response_dim, axis=1)
        return centers, half
    raise UnsupportedScenario(
        f"no closed-form oracle region for {scenario_tag(spec)!r}"
    )


def oracle_contains(
    spec: ScenarioSpec, x: np.ndarray, response_values: np.ndarray, alpha: float
) -> np.ndarray:
    """Vectorized membership of stacked responses in the oracle regions."""
    centers, radii = oracle_region(spec, x, alpha)
    # one response row per predictor row; a 1-d array holds scalar responses
    y = np.asarray(response_values, dtype=np.float64).reshape(centers.shape[0], -1)
    return np.abs(y - centers).max(axis=1) <= radii


# ---------------------------------------------------------------------------
# distributional-scenario conditional means


def noise_quantile_profile(
    spec: WassersteinExample, draws: int = 10_000, seed: int = 0
) -> np.ndarray:
    """Expected empirical quantile curve of the centered noise sample.

    There is no closed form for the expected order statistics, so the
    profile is averaged over ``draws`` simulated samples.
    """
    if not isinstance(spec, WassersteinExample):
        raise UnsupportedScenario("noise profiles exist only for the distributional scenario")
    gen = rng.stream(seed, "noise-profile")
    levels = np.asarray(STANDARD_GRID)
    total = np.zeros(levels.size)
    done = 0
    while done < draws:
        block = min(2000, draws - done)
        samples = spec.noise_sd * gen.standard_normal((block, spec.n_obs_per_curve))
        samples.sort(axis=1)
        total += _empirical_quantile_rows(samples, levels).sum(axis=0)
        done += block
    return total / draws


def conditional_mean_quantiles(
    spec: WassersteinExample, x: np.ndarray, profile: np.ndarray
) -> np.ndarray:
    """Conditional mean quantile curves at predictors ``x``: the linear
    trend plus the expected noise quantile profile."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    coef = np.asarray(spec.coefficients)
    return (x @ coef)[:, None] + profile[None, :]

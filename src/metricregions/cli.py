"""Batch command-line front end.

Five subcommands, all driven by an INI config file plus a few flags:

* ``simulate``  draw a synthetic dataset and write it as CSV
* ``fit``       fit region models (one per alpha) and save them as JSON
* ``predict``   load a model bundle and emit per-query regions as JSON
* ``evaluate``  score a saved bundle on evaluation data, write a report
* ``replicate`` run the full generate/fit/evaluate loop B times

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
Every command is deterministic given the same config and seed; reruns
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import (
    DimensionMismatch,
    EmptyEvalSet,
    EmptyValues,
    IncompatibleMetric,
    InvalidConfig,
    InvalidDataset,
    KGridEmpty,
    KTooLarge,
    MetricRegionsError,
    MultivariateUnsupported,
    NonMonotoneQuantile,
    SchemaError,
    TooFewSamples,
    UnsupportedScenario,
    VersionMismatch,
)
from .evaluate import evaluate_model
from .metrics import MetricKind
from .regions import (
    fit_conformalized_hetero,
    fit_hetero_tuned,
    fit_heteroscedastic_knn,
    fit_homoscedastic,
)
from .regression import (
    LabeledDataset,
    MeanSpec,
    SplitConfig,
    fit_mean,
    split_dataset,
    split_three,
)
from .simulate import (
    ScenarioSpec,
    generate,
    scenario_from_tag,
    scenario_tag,
)
from .storage import (
    RegionColumns,
    read_dataset_csv,
    read_models_json,
    read_queries_csv,
    write_curves_tsv,
    write_dataset_csv,
    write_models_json,
    write_regions_json,
    write_report_json,
)

__all__ = ["main"]

_CONFIG_KEYS = """\
config file reference (INI sections and keys; any other is a config error)

[data]
  scenario          setting1 | setting2 | setting3 | setting4 | gaussian | wasserstein
  n                 sample size for simulate / fit / replicate
  seed              base seed (overridden by --seed)
  input             dataset CSV path; alternative to scenario+n for fit
  response_dim      gaussian only: response dimension (default 1)
  predictor_dim     gaussian only: predictor dimension (default 1)
  heteroscedastic   gaussian only: true | false (default false)
  coefficients      wasserstein only: comma-separated trend coefficients
  n_obs_per_curve   wasserstein only: sample size behind each curve (default 100)
  noise_sd          wasserstein only: noise standard deviation (default 1.0)

[model]
  algorithm         homoscedastic | hetero-knn | hetero-tuned | conformal-hetero
  alpha             comma-separated miscoverage levels (default 0.2)
  mean              knn | global (default knn; hetero-tuned takes knn only)
  mean_k            auto | positive integer (default auto; hetero-tuned takes auto only)
  mean_k_grid       comma-separated candidate k values for mean selection
  k                 neighbor count for local radii (hetero-knn, conformal-hetero)
  k_grid            comma-separated radius k candidates (hetero-tuned)
  train_fraction    share of rows used to fit the mean (default 0.5)
  calib_fraction    conformal-hetero only: share for local radii (default 0.25)
  fit_metric        euclidean-l2 | wasserstein2 (default matches the data)
  region_metric     euclidean-l2 | euclidean-sup | wasserstein2 | quantile-sup

[predict]
  model             model bundle JSON path
  queries           CSV with x_1..x_p columns (extra response columns ignored)

[evaluate]
  model             model bundle JSON path
  eval_input        evaluation dataset CSV; or use [data] scenario with eval_n
  eval_n            evaluation draw size when using a scenario
  grid_points       conditional-coverage grid size (default 101)
  mc_draws          Monte Carlo draws for the region error (default 0 = skip)
  curves            optional TSV path for the coverage curves

[replicate]
  replicates        number of independent replicates B
  n                 per-replicate training size (default [data] n)
  eval_n            per-replicate evaluation size (default 2000)
  grid_points       conditional-coverage grid size (default 101)
  mc_draws          Monte Carlo draws for the region error (default 0 = skip)
  curves            optional TSV path for per-replicate coverage curves
"""


# section -> allowed keys, read off the indented lines of the reference
_ALLOWED_KEYS = {
    block.split("]")[0]: {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
    for block in _CONFIG_KEYS.split("\n[")[1:]
}
_REQUIRED = object()


class _Config:
    """Typed access to the INI file; failures name the section and key.
    A section or key the reference does not list is an error."""

    def __init__(self, path: str):
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise InvalidConfig(f"config file {path!r} not found or unreadable")
        if parser.defaults():
            raise InvalidConfig(f"[{parser.default_section}]: unknown section")
        for section in parser.sections():
            if section not in _ALLOWED_KEYS:
                raise InvalidConfig(f"[{section}]: unknown section")
            for key in parser.options(section):
                if key not in _ALLOWED_KEYS[section]:
                    raise InvalidConfig(f"[{section}] {key}: unknown key")
        self._parser = parser

    def has(self, section: str, key: str) -> bool:
        return self._parser.has_option(section, key)

    def _get(self, section: str, key: str, default, parse, what: str):
        if not self._parser.has_option(section, key):
            if default is _REQUIRED:
                raise InvalidConfig(f"[{section}] {key}: required key is missing")
            return default
        raw = self._parser.get(section, key).strip()
        try:
            return parse(raw)
        except (ValueError, KeyError):
            raise InvalidConfig(f"[{section}] {key}: {raw!r} is not {what}") from None

    def get_str(self, section: str, key: str, default=_REQUIRED) -> Optional[str]:
        return self._get(section, key, default, str, "a string")

    def get_int(self, section: str, key: str, default=_REQUIRED) -> Optional[int]:
        return self._get(section, key, default, int, "an integer")

    def get_float(self, section: str, key: str, default=_REQUIRED) -> Optional[float]:
        return self._get(section, key, default, float, "a number")

    def get_bool(self, section: str, key: str, default=_REQUIRED) -> Optional[bool]:
        return self._get(section, key, default, lambda raw: _BOOLS[raw.lower()], "a boolean")

    def get_floats(self, section: str, key: str, default=_REQUIRED):
        return self._get(section, key, default, _list_of(float), "a comma-separated number list")

    def get_ints(self, section: str, key: str, default=_REQUIRED):
        return self._get(section, key, default, _list_of(int), "a comma-separated integer list")


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _list_of(parse):
    return lambda raw: tuple(parse(tok) for tok in raw.split(",") if tok.strip() != "")


# ---------------------------------------------------------------------------
# config interpretation


def _scenario(cfg: _Config) -> ScenarioSpec:
    tag = cfg.get_str("data", "scenario")
    if tag == "gaussian":
        return scenario_from_tag(
            tag,
            response_dim=cfg.get_int("data", "response_dim", 1),
            predictor_dim=cfg.get_int("data", "predictor_dim", 1),
            heteroscedastic=cfg.get_bool("data", "heteroscedastic", False),
        )
    if tag == "wasserstein":
        return scenario_from_tag(
            tag,
            coefficients=cfg.get_floats("data", "coefficients", (1.0,)),
            n_obs_per_curve=cfg.get_int("data", "n_obs_per_curve", 100),
            noise_sd=cfg.get_float("data", "noise_sd", 1.0),
        )
    return scenario_from_tag(tag)


def _base_seed(cfg: _Config, args) -> int:
    if args.seed is not None:
        return args.seed
    return cfg.get_int("data", "seed", 0)


def _training_data(cfg: _Config, seed: int) -> LabeledDataset:
    if cfg.has("data", "input"):
        return read_dataset_csv(cfg.get_str("data", "input"))
    if cfg.has("data", "scenario"):
        return generate(_scenario(cfg), cfg.get_int("data", "n"), seed)
    raise InvalidConfig("[data]: either 'input' or 'scenario' (with 'n') is required")


def _metric(cfg: _Config, key: str, default: MetricKind) -> MetricKind:
    raw = cfg.get_str("model", key, None)
    if raw is None:
        return default
    try:
        return MetricKind(raw)
    except ValueError:
        raise InvalidConfig(f"[model] {key}: unknown metric {raw!r}") from None


def _alphas(cfg: _Config) -> tuple[float, ...]:
    values = cfg.get_floats("model", "alpha", (0.2,))
    if not values:
        raise InvalidConfig("[model] alpha: at least one level is required")
    out = []
    for a in values:
        if a not in out:
            out.append(float(a))
    return tuple(out)


def _mean_spec(cfg: _Config, fit_metric: MetricKind) -> MeanSpec:
    kind = cfg.get_str("model", "mean", "knn")
    if kind not in ("knn", "global"):
        raise InvalidConfig(f"[model] mean: unknown estimator {kind!r}")
    k = None
    raw_k = cfg.get_str("model", "mean_k", "auto")
    if raw_k != "auto":
        k = cfg.get_int("model", "mean_k")
        if k < 1:
            raise InvalidConfig("[model] mean_k: must be positive")
    grid = cfg.get_ints("model", "mean_k_grid", None)
    return MeanSpec(kind, fit_metric, k=k, k_grid=grid)


_ALGORITHMS = ("homoscedastic", "hetero-knn", "hetero-tuned", "conformal-hetero")


def _fit_models(cfg: _Config, data: LabeledDataset, seed: int) -> list:
    algorithm = cfg.get_str("model", "algorithm", "homoscedastic")
    if algorithm not in _ALGORITHMS:
        raise InvalidConfig(f"[model] algorithm: unknown algorithm {algorithm!r}")
    default_metric = (
        MetricKind.WASSERSTEIN2 if data.quantile_grid is not None else MetricKind.EUCLIDEAN_L2
    )
    fit_metric = _metric(cfg, "fit_metric", default_metric)
    region_metric = _metric(cfg, "region_metric", default_metric)
    alphas = _alphas(cfg)
    train_fraction = cfg.get_float("model", "train_fraction", 0.5)
    mean_spec = _mean_spec(cfg, fit_metric)
    if algorithm == "hetero-tuned":
        # the tuned pipeline always selects a kNN mean by leave-one-out
        if mean_spec.kind != "knn":
            raise InvalidConfig("[model] mean: hetero-tuned fits a knn mean only")
        if mean_spec.k is not None:
            raise InvalidConfig("[model] mean_k: hetero-tuned selects the mean k itself; use auto")
    if algorithm in ("hetero-knn", "conformal-hetero"):
        k = cfg.get_int("model", "k")

    if algorithm == "conformal-hetero":
        calib_fraction = cfg.get_float("model", "calib_fraction", 0.25)
        train, calib, conformal = split_three(data, train_fraction, calib_fraction, seed)
    else:
        train, calib = split_dataset(data, SplitConfig(train_fraction, seed))
    # hetero-tuned selects the same mean k here that it would select per alpha
    mean = fit_mean(train, mean_spec, rng.derive_seed(seed, "mean"))

    def fit(alpha: float):
        if algorithm == "homoscedastic":
            return fit_homoscedastic(train, calib, alpha, mean, region_metric, seed=seed)
        if algorithm == "hetero-knn":
            return fit_heteroscedastic_knn(
                train, calib, alpha, k, mean, region_metric, seed=seed
            )
        if algorithm == "conformal-hetero":
            return fit_conformalized_hetero(
                train, calib, conformal, alpha, k, mean, region_metric, seed=seed
            )
        return fit_hetero_tuned(
            train, calib, alpha,
            fit_metric=fit_metric,
            region_metric=region_metric,
            mean_k_grid=(mean.k,),
            radius_k_grid=cfg.get_ints("model", "k_grid", None),
            seed=seed,
        ).model

    return [fit(alpha) for alpha in alphas]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(cfg: _Config, args) -> None:
    seed = _base_seed(cfg, args)
    data = generate(_scenario(cfg), cfg.get_int("data", "n"), seed)
    write_dataset_csv(args.out, data)


def _cmd_fit(cfg: _Config, args) -> None:
    seed = _base_seed(cfg, args)
    data = _training_data(cfg, seed)
    write_models_json(args.out, _fit_models(cfg, data, seed))


def _cmd_predict(cfg: _Config, args) -> None:
    models = read_models_json(cfg.get_str("predict", "model"))
    queries = read_queries_csv(cfg.get_str("predict", "queries"))
    # larger alpha first, so per-query radii are nondecreasing down the file
    models = sorted(models, key=lambda m: -m.alpha)
    centers = {}  # models loaded with equal mean blocks share one mean
    for model in models:
        if id(model.mean) not in centers:
            centers[id(model.mean)] = model.center_values(queries)
    columns = [
        RegionColumns(
            model.alpha,
            model.region_metric,
            model.mean.quantile_grid,
            centers[id(model.mean)],
            model.radii(queries),
        )
        for model in models
    ]
    write_regions_json(args.out, queries, columns)


def _report_row(report) -> dict:
    return {
        "alpha": report.alpha,
        "n_eval": report.n_eval,
        "marginal_coverage": report.marginal_coverage,
        "l2_error": report.l2_error,
        "region_error": report.region_error,
    }


def _evaluate_models(models, eval_set, grid_points, spec, mc_draws, seed) -> list:
    return [
        evaluate_model(
            model, eval_set, grid_points=grid_points, spec=spec, mc_draws=mc_draws,
            seed=rng.derive_seed(seed, "mc", i),
        )
        for i, model in enumerate(models)
    ]


def _cmd_evaluate(cfg: _Config, args) -> None:
    seed = _base_seed(cfg, args)
    models = read_models_json(cfg.get_str("evaluate", "model"))
    spec = _scenario(cfg) if cfg.has("data", "scenario") else None
    if cfg.has("evaluate", "eval_input"):
        eval_set = read_dataset_csv(cfg.get_str("evaluate", "eval_input"))
    elif spec is not None:
        eval_set = generate(spec, cfg.get_int("evaluate", "eval_n"), rng.derive_seed(seed, "eval"))
    else:
        raise InvalidConfig("[evaluate]: need 'eval_input' or a [data] scenario with 'eval_n'")
    grid_points = cfg.get_int("evaluate", "grid_points", 101)
    mc_draws = cfg.get_int("evaluate", "mc_draws", 0)
    rows = []
    curves = {}
    for report in _evaluate_models(models, eval_set, grid_points, spec, mc_draws, seed):
        rows.append(_report_row(report))
        if report.curve is not None:
            curves[f"alpha_{report.alpha}"] = report.curve.values
    write_report_json(args.out, {"reports": rows})
    curves_path = cfg.get_str("evaluate", "curves", None)
    if curves_path and curves:
        # every report is smoothed on the same grid
        write_curves_tsv(curves_path, report.curve.x, curves)


def _aggregate(values: list) -> Optional[dict]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    arr = np.asarray(vals, dtype=np.float64)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "sd": sd, "values": arr}


def _cmd_replicate(cfg: _Config, args) -> None:
    seed = _base_seed(cfg, args)
    spec = _scenario(cfg)
    n = cfg.get_int("replicate", "n", None)
    if n is None:
        n = cfg.get_int("data", "n")
    b_total = cfg.get_int("replicate", "replicates")
    if b_total < 1:
        raise InvalidConfig("[replicate] replicates: must be at least 1")
    eval_n = cfg.get_int("replicate", "eval_n", 2000)
    grid_points = cfg.get_int("replicate", "grid_points", 101)
    mc_draws = cfg.get_int("replicate", "mc_draws", 0)

    def one(b: int):
        try:
            rep_seed = rng.derive_seed(seed, "replicate", b)
            data = generate(spec, n, rep_seed)
            models = _fit_models(cfg, data, rep_seed)
            eval_set = generate(spec, eval_n, rng.derive_seed(rep_seed, "eval"))
            return _evaluate_models(models, eval_set, grid_points, spec, mc_draws, rep_seed)
        except MetricRegionsError as exc:
            raise type(exc)(f"replicate {b}: {exc}") from exc

    threads = max(1, args.threads)
    if threads == 1:
        all_reports = [one(b) for b in range(b_total)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            all_reports = list(pool.map(one, range(b_total)))

    alphas = [r.alpha for r in all_reports[0]]
    per_alpha = []
    curves = {}
    for i, alpha in enumerate(alphas):
        reps = [reports[i] for reports in all_reports]
        per_alpha.append(
            {
                "alpha": alpha,
                "marginal_coverage": _aggregate([r.marginal_coverage for r in reps]),
                "l2_error": _aggregate([r.l2_error for r in reps]),
                "region_error": _aggregate([r.region_error for r in reps]),
            }
        )
        for b, r in enumerate(reps):
            if r.curve is not None:
                curves[f"alpha_{alpha}_rep_{b}"] = r.curve.values
    write_report_json(
        args.out,
        {
            "scenario": scenario_tag(spec),
            "replicates": b_total,
            "n": n,
            "eval_n": eval_n,
            "per_alpha": per_alpha,
        },
    )
    curves_path = cfg.get_str("replicate", "curves", None)
    if curves_path and curves:
        # every replicate draws its evaluation set from one scenario, so
        # every report is smoothed on the same grid
        write_curves_tsv(curves_path, all_reports[0][0].curve.x, curves)


# ---------------------------------------------------------------------------
# entry point

_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "replicate": _cmd_replicate,
}

_CONFIG_FAILURES = (
    InvalidConfig,
    KGridEmpty,
    KTooLarge,
    TooFewSamples,
    MultivariateUnsupported,
    UnsupportedScenario,
    EmptyValues,
    EmptyEvalSet,
    configparser.Error,
)
_DATA_FAILURES = (
    SchemaError,
    VersionMismatch,
    InvalidDataset,
    DimensionMismatch,
    IncompatibleMetric,
    NonMonotoneQuantile,
    OSError,
)
_NUMERIC_FAILURES = (FloatingPointError, np.linalg.LinAlgError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricregions",
        description="Distribution-free prediction regions for metric-space responses.",
        epilog=_CONFIG_KEYS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "draw a synthetic dataset and write CSV"),
        ("fit", "fit region models and write a JSON bundle"),
        ("predict", "emit per-query regions from a saved bundle"),
        ("evaluate", "score a saved bundle on evaluation data"),
        ("replicate", "run the generate/fit/evaluate loop B times"),
    ):
        p = sub.add_parser(
            name, help=help_text, epilog=_CONFIG_KEYS,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="INI config file path")
        p.add_argument("--seed", type=int, default=None, help="override the [data] seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads for replicate")
        p.add_argument("--out", required=True, help="primary output file path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _Config(args.config)
        _HANDLERS[args.command](cfg, args)
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except _CONFIG_FAILURES as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DATA_FAILURES as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MetricRegionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

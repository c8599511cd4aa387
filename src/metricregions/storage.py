"""File formats: CSV datasets, JSON model bundles and regions, TSV curves.

All numbers are written with their shortest exact decimal representation
(``repr``), so read-then-write round-trips are byte identical.  JSON
cannot carry IEEE infinities, so non-finite floats are stored as the
strings "inf", "-inf", and "nan" and decoded back on load.  Readers
skip keys they do not use, so older bundles of the same version that
still carry since-dropped fields load unchanged.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidDataset, SchemaError, VersionMismatch
from .metrics import MetricKind, QuantileFunction
from .regions import (
    ConformalizedHeteroModel,
    HeteroscedasticRegionModel,
    HomoscedasticRegionModel,
    PredictionRegion,
)
from .regression import (
    ConstantMean, GlobalFrechetModel, KnnFrechetModel, LabeledDataset, _wrap_values,
)

__all__ = [
    "write_dataset_csv",
    "read_dataset_csv",
    "read_queries_csv",
    "model_to_dict",
    "model_from_dict",
    "write_models_json",
    "read_models_json",
    "write_regions_json",
    "write_report_json",
    "write_curves_tsv",
]

MODELS_FORMAT = "metricregions-models"
REGIONS_FORMAT = "metricregions-regions"
REPORT_FORMAT = "metricregions-report"
FORMAT_VERSION = 1


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# datasets as CSV


def _dataset_header(data: LabeledDataset) -> list[str]:
    cols = [f"x_{j + 1}" for j in range(data.p)]
    if data.quantile_grid is not None:
        cols += [f"q_{_fmt(v)}" for v in data.quantile_grid]
    else:
        cols += [f"y_{j + 1}" for j in range(data.response_dim)]
    return cols


def write_dataset_csv(path, data: LabeledDataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_dataset_header(data))
        for xrow, yrow in zip(data.predictors, data.response_values):
            writer.writerow([_fmt(v) for v in xrow] + [_fmt(v) for v in yrow])


def _parse_header(header: Sequence[str]) -> tuple[int, int, Optional[np.ndarray]]:
    p = 0
    while p < len(header) and header[p] == f"x_{p + 1}":
        p += 1
    if p == 0:
        raise SchemaError("header row: first column must be 'x_1'")
    rest = header[p:]
    if not rest:
        raise SchemaError("header row: no response columns after the predictors")
    if rest[0].startswith("q_"):
        levels = []
        for j, name in enumerate(rest):
            if not name.startswith("q_"):
                raise SchemaError(f"header row, column {p + j + 1}: expected a 'q_' column, got {name!r}")
            try:
                levels.append(float(name[2:]))
            except ValueError:
                raise SchemaError(f"header row, column {p + j + 1}: bad quantile level in {name!r}") from None
        return p, len(levels), np.asarray(levels)
    for j, name in enumerate(rest):
        if name != f"y_{j + 1}":
            raise SchemaError(f"header row, column {p + j + 1}: expected 'y_{j + 1}', got {name!r}")
    return p, len(rest), None


def read_dataset_csv(path) -> LabeledDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row") from None
        p, m, grid = _parse_header(header)
        width = p + m
        xs: list[list[float]] = []
        ys: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != width:
                raise SchemaError(f"row {i}: expected {width} columns, found {len(row)}")
            vals = []
            for j, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise SchemaError(
                        f"row {i}, column {header[j]!r}: {cell!r} is not a number"
                    ) from None
            xs.append(vals[:p])
            ys.append(vals[p:])
    if not xs:
        raise SchemaError("no data rows after the header")
    try:
        return LabeledDataset(np.asarray(xs), np.asarray(ys), grid)
    except InvalidDataset as exc:
        raise SchemaError(str(exc)) from exc


def read_queries_csv(path) -> np.ndarray:
    """Predictor rows from a CSV with x_1..x_p columns; any response
    columns present (a full dataset file) are ignored."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row") from None
        p = 0
        while p < len(header) and header[p] == f"x_{p + 1}":
            p += 1
        if p == 0:
            raise SchemaError("header row: first column must be 'x_1'")
        if len(header) > p:
            _parse_header(header)  # anything after the predictors must be a valid response block
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"row {i}: expected {len(header)} columns, found {len(row)}")
            vals = []
            for j in range(p):
                try:
                    vals.append(float(row[j]))
                except ValueError:
                    raise SchemaError(
                        f"row {i}, column {header[j]!r}: {row[j]!r} is not a number"
                    ) from None
            rows.append(vals)
    if not rows:
        raise SchemaError("no data rows after the header")
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# JSON plumbing


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
    return obj


_SPECIALS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _float_in(v) -> float:
    if isinstance(v, str):
        if v in _SPECIALS:
            return _SPECIALS[v]
        raise SchemaError(f"expected a number, got {v!r}")
    return float(v)


def _dump_json(path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(_jsonify(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_json(path, expected_format: str) -> dict:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise SchemaError(f"file is not a {expected_format} document")
    if payload.get("version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"version {payload.get('version')!r} not supported (expected {FORMAT_VERSION})"
        )
    return payload


def _require(d: dict, key: str):
    if key not in d:
        raise SchemaError(f"missing field {key!r}")
    return d[key]


# ---------------------------------------------------------------------------
# model (de)serialization


def _dataset_to_dict(data: LabeledDataset) -> dict:
    return {
        "predictors": data.predictors,
        "response_values": data.response_values,
        "quantile_grid": data.quantile_grid,
    }


def _grid_in(d: dict) -> Optional[np.ndarray]:
    grid = d.get("quantile_grid")
    return None if grid is None else np.asarray(grid, dtype=np.float64)


def _dataset_from_dict(d: dict) -> LabeledDataset:
    return LabeledDataset(
        np.asarray(_require(d, "predictors"), dtype=np.float64),
        np.asarray(_require(d, "response_values"), dtype=np.float64),
        _grid_in(d),
    )


def _mean_to_dict(mean) -> dict:
    if isinstance(mean, KnnFrechetModel):
        return {
            "kind": "knn",
            "k": mean.k,
            "fit_metric": mean.fit_metric.value,
            "seed": mean.seed,
            "training": _dataset_to_dict(mean.training),
        }
    if isinstance(mean, GlobalFrechetModel):
        return {
            "kind": "global",
            "fit_metric": mean.fit_metric.value,
            "mean_x": mean.mean_x,
            "cov_inv": mean.cov_inv,
            "training": _dataset_to_dict(mean.training),
        }
    if isinstance(mean, ConstantMean):
        grid = mean.point.grid if isinstance(mean.point, QuantileFunction) else None
        return {"kind": "constant", "values": mean.point.values, "quantile_grid": grid}
    raise SchemaError(f"cannot serialize mean estimator of type {type(mean).__name__}")


def _mean_from_dict(d: dict):
    kind = _require(d, "kind")
    if kind == "knn":
        return KnnFrechetModel(
            training=_dataset_from_dict(_require(d, "training")),
            k=int(_require(d, "k")),
            fit_metric=MetricKind(_require(d, "fit_metric")),
            seed=int(_require(d, "seed")),
        )
    if kind == "global":
        return GlobalFrechetModel(
            training=_dataset_from_dict(_require(d, "training")),
            mean_x=np.asarray(_require(d, "mean_x"), dtype=np.float64),
            cov_inv=np.asarray(_require(d, "cov_inv"), dtype=np.float64),
            fit_metric=MetricKind(_require(d, "fit_metric")),
        )
    if kind == "constant":
        values = np.asarray(_require(d, "values"), dtype=np.float64)
        return ConstantMean(_wrap_values(values, _grid_in(d)))
    raise SchemaError(f"unknown mean estimator kind {kind!r}")


def model_to_dict(model) -> dict:
    if isinstance(model, HomoscedasticRegionModel):
        return {
            "algorithm": "homoscedastic",
            "alpha": model.alpha,
            "region_metric": model.region_metric.value,
            "calibrated_radius": model.calibrated_radius,
            "mean": _mean_to_dict(model.mean),
        }
    if isinstance(model, HeteroscedasticRegionModel):
        return {
            "algorithm": "heteroscedastic-knn",
            "alpha": model.alpha,
            "region_metric": model.region_metric.value,
            "seed": model.seed,
            "k": model.k,
            "calibration_predictors": model.calibration_predictors,
            "calibration_residuals": model.calibration_residuals,
            "mean": _mean_to_dict(model.mean),
        }
    if isinstance(model, ConformalizedHeteroModel):
        return {
            "algorithm": "conformalized",
            "offset": model.offset,
            "base": model_to_dict(model.base),
        }
    raise SchemaError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(d: dict, mean_from_dict=_mean_from_dict):
    algorithm = _require(d, "algorithm")
    if algorithm == "homoscedastic":
        return HomoscedasticRegionModel(
            mean=mean_from_dict(_require(d, "mean")),
            calibrated_radius=_float_in(_require(d, "calibrated_radius")),
            alpha=float(_require(d, "alpha")),
            region_metric=MetricKind(_require(d, "region_metric")),
        )
    if algorithm == "heteroscedastic-knn":
        return HeteroscedasticRegionModel(
            mean=mean_from_dict(_require(d, "mean")),
            calibration_predictors=np.asarray(
                _require(d, "calibration_predictors"), dtype=np.float64
            ),
            calibration_residuals=np.asarray(
                _require(d, "calibration_residuals"), dtype=np.float64
            ),
            k=int(_require(d, "k")),
            alpha=float(_require(d, "alpha")),
            region_metric=MetricKind(_require(d, "region_metric")),
            seed=int(_require(d, "seed")),
        )
    if algorithm == "conformalized":
        base = model_from_dict(_require(d, "base"), mean_from_dict)
        if not isinstance(base, HeteroscedasticRegionModel):
            raise SchemaError("conformalized model needs a heteroscedastic-knn base")
        return ConformalizedHeteroModel(base=base, offset=_float_in(_require(d, "offset")))
    raise SchemaError(f"unknown model algorithm {algorithm!r}")


def write_models_json(path, models: Sequence) -> None:
    payload = {
        "format": MODELS_FORMAT,
        "version": FORMAT_VERSION,
        "models": [model_to_dict(m) for m in models],
    }
    _dump_json(path, payload)


def read_models_json(path) -> list:
    payload = _load_json(path, MODELS_FORMAT)
    entries = _require(payload, "models")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("model bundle holds no models")
    loaded = []  # (mean block, mean) pairs: equal blocks share one mean

    def shared_mean(block: dict):
        for seen, mean in loaded:
            if seen == block:
                return mean
        loaded.append((block, _mean_from_dict(block)))
        return loaded[-1][1]

    return [model_from_dict(e, shared_mean) for e in entries]


# ---------------------------------------------------------------------------
# regions, reports, curves


def _center_to_dict(center) -> dict:
    if isinstance(center, QuantileFunction):
        return {"quantile_grid": center.grid, "values": center.values}
    return {"quantile_grid": None, "values": center.values}


def write_regions_json(path, entries: Sequence[dict]) -> None:
    """Entries carry ``query`` (predictor row), ``alpha``, and ``region``."""
    rows = []
    for e in entries:
        region: PredictionRegion = e["region"]
        rows.append(
            {
                "query": np.asarray(e["query"], dtype=np.float64),
                "alpha": float(e["alpha"]),
                "region_metric": region.region_metric.value,
                "center": _center_to_dict(region.center),
                "radius": region.radius,
            }
        )
    _dump_json(path, {"format": REGIONS_FORMAT, "version": FORMAT_VERSION, "regions": rows})


def write_report_json(path, report: dict) -> None:
    _dump_json(path, {"format": REPORT_FORMAT, "version": FORMAT_VERSION, **report})


def write_curves_tsv(path, x: np.ndarray, columns: dict) -> None:
    """One abscissa column followed by the named curves, tab separated."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=np.float64) for name in names]
    x = np.asarray(x, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        fh.write("\t".join(["x"] + names) + "\n")
        for i in range(x.size):
            cells = [_fmt(x[i])] + [_fmt(a[i]) for a in arrays]
            fh.write("\t".join(cells) + "\n")

"""File formats: CSV datasets, JSON model bundles and regions, TSV curves.

All numbers are written with their shortest exact decimal representation
(``repr``), so read-then-write round-trips are byte identical.  JSON
cannot carry IEEE infinities, so non-finite floats are stored as the
strings "inf", "-inf", and "nan" and decoded back on load.  Readers
skip keys they do not use, so older bundles of the same version that
still carry since-dropped fields load unchanged.  Input files are read
as UTF-8.

A model bundle (version 3; older bundles must be refitted) lists each
distinct fitted mean once under ``means`` and each distinct calibration
store once under ``calibrations``; its ``models`` refer to them by
index, and loaded models that refer to one entry share it.  Every
local-radius model carries its conformal ``offset`` (0 when it has
none).

Every JSON file (bundles, regions, reports) comes from one emitter with
a fixed byte layout: object keys sorted, each item on its own line
indented by one space per nesting level, "," between items and ": "
after keys, floats as ``repr``, integers as ``int`` text, the quoted
strings above for non-finite floats, ``null``/``true``/``false``, and a
final newline.  These are the bytes ``json.dump(..., indent=1,
sort_keys=True)`` gives for the same values.  ``write_regions_json``
writes its rows in blocks of queries straight from the arrays, and
formats a centre array that several models share (one fitted mean at
several alphas) once per block.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidDataset, MetricRegionsError, SchemaError, VersionMismatch
from .metrics import EuclideanVector, MetricKind, QuantileFunction
from .regions import HeteroscedasticRegionModel, HomoscedasticRegionModel
from .regression import (
    ConstantMean, GlobalFrechetModel, KnnFrechetModel, LabeledDataset,
)

__all__ = [
    "write_dataset_csv",
    "read_dataset_csv",
    "read_queries_csv",
    "write_models_json",
    "read_models_json",
    "RegionColumns",
    "write_regions_json",
    "write_report_json",
    "write_curves_tsv",
]

MODELS_FORMAT = "metricregions-models"
REGIONS_FORMAT = "metricregions-regions"
REPORT_FORMAT = "metricregions-report"
FORMAT_VERSION = 1  # regions and reports
_MODELS_VERSION = 3


# ---------------------------------------------------------------------------
# datasets as CSV


def _dataset_header(data: LabeledDataset) -> list[str]:
    cols = [f"x_{j + 1}" for j in range(data.p)]
    if data.quantile_grid is not None:
        cols += [f"q_{text}" for text in _float_texts(data.quantile_grid)]
    else:
        cols += [f"y_{j + 1}" for j in range(data.response_dim)]
    return cols


def write_dataset_csv(path, data: LabeledDataset) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_dataset_header(data)) + "\n")
        _write_rows(fh, np.hstack([data.predictors, data.response_values]), ",")


def _read_header(reader) -> tuple[list[str], int]:
    """The header row and its count (at least one) of predictor columns."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: missing header row") from None
    p = 0
    while p < len(header) and header[p] == f"x_{p + 1}":
        p += 1
    if p == 0:
        raise SchemaError("header row: first column must be 'x_1'")
    return header, p


def _parse_header(header: Sequence[str], p: int) -> tuple[int, Optional[np.ndarray]]:
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
        return len(levels), np.asarray(levels)
    for j, name in enumerate(rest):
        if name != f"y_{j + 1}":
            raise SchemaError(f"header row, column {p + j + 1}: expected 'y_{j + 1}', got {name!r}")
    return len(rest), None


def _parse_cells(reader, header: Sequence[str], width: int) -> np.ndarray:
    """The first ``width`` cells of every data row as a (rows, width) float
    matrix; every row must have one cell per header column."""
    values = array("d")  # row-major, without one list per row
    for i, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise SchemaError(f"row {i}: expected {len(header)} columns, found {len(row)}")
        for j in range(width):
            try:
                values.append(float(row[j]))
            except ValueError:
                raise SchemaError(
                    f"row {i}, column {header[j]!r}: {row[j]!r} is not a number"
                ) from None
    if not values:
        raise SchemaError("no data rows after the header")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def read_dataset_csv(path) -> LabeledDataset:
    with _text_in(path) as fh:
        reader = csv.reader(fh)
        header, p = _read_header(reader)
        m, grid = _parse_header(header, p)
        table = _parse_cells(reader, header, p + m)
    try:
        # C-contiguous copies, the layout every downstream product expects
        return LabeledDataset(
            np.ascontiguousarray(table[:, :p]), np.ascontiguousarray(table[:, p:]), grid
        )
    except InvalidDataset as exc:
        raise SchemaError(str(exc)) from exc


def read_queries_csv(path) -> np.ndarray:
    """Finite predictor rows from a CSV with x_1..x_p columns; any
    response columns present (a full dataset file) are ignored."""
    with _text_in(path) as fh:
        reader = csv.reader(fh)
        header, p = _read_header(reader)
        if len(header) > p:
            _parse_header(header, p)  # anything after the predictors must be a valid response block
        table = _parse_cells(reader, header, p)
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SchemaError(f"row {i + 2}, column {header[j]!r}: {table[i, j]} is not finite")
    return table


# ---------------------------------------------------------------------------
# JSON plumbing


# the byte layout is the one the module docstring states
_QUOTED = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _float_texts(a: np.ndarray) -> list[str]:
    """The text of every value of a float array, in C order."""
    texts = list(map(float.__repr__, a.ravel().tolist()))
    if not np.isfinite(a).all():
        texts = [_QUOTED.get(t, t) for t in texts]
    return texts


def _wrap(items: Sequence[str], level: int, opening: str = "[", closing: str = "]") -> str:
    """A JSON array (or object) at indent ``level`` around encoded items."""
    if not items:
        return opening + closing
    inner = "\n" + " " * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + " " * level + closing


def _array_rows(a: np.ndarray, level: int) -> list[str]:
    """Each row of a 2-d float array as a JSON array at indent ``level``."""
    texts = _float_texts(a)
    m = a.shape[1]
    if m == 0:
        return ["[]"] * a.shape[0]
    inner = "\n" + " " * (level + 1)
    opening, sep, closing = "[" + inner, "," + inner, "\n" + " " * level + "]"
    return [opening + sep.join(texts[i:i + m]) + closing for i in range(0, len(texts), m)]


def _encode_array(a: np.ndarray, level: int) -> str:
    if a.dtype.kind != "f" or a.ndim == 0:
        return _encode(a.tolist(), level)
    a = np.asarray(a, dtype=np.float64)
    # innermost rows first, then each outer axis groups the texts below it
    lists = _array_rows(a.reshape(math.prod(a.shape[:-1]), a.shape[-1]), level + a.ndim - 1)
    for axis in range(a.ndim - 2, -1, -1):
        size, depth = a.shape[axis], level + axis
        lists = [
            _wrap(lists[i * size:(i + 1) * size], depth)
            for i in range(math.prod(a.shape[:axis]))
        ]
    return lists[0]


def _encode(obj, level: int = 0) -> str:
    """``obj`` as JSON text whose first line sits at indent ``level``."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_texts(np.float64(obj))[0]
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _encode_array(obj, level)
    if isinstance(obj, (list, tuple)):
        return _wrap([_encode(v, level + 1) for v in obj], level)
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON object keys must be strings")
        items = [f"{json.dumps(k)}: {_encode(obj[k], level + 1)}" for k in sorted(obj)]
        return _wrap(items, level, "{", "}")
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


_SPECIALS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _dump_json(path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_encode(payload) + "\n")


@contextmanager
def _text_in(path):
    """``path`` open as UTF-8 text; undecodable bytes are a data error."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None


def _load_json(path, expected_format: str, version: int) -> dict:
    with _text_in(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise SchemaError(f"file is not a {expected_format} document")
    if payload.get("version") != version:
        raise VersionMismatch(
            f"version {payload.get('version')!r} not supported (expected {version})"
        )
    return payload


def _require(d: dict, key: str):
    if key not in d:
        raise SchemaError(f"missing field {key!r}")
    return d[key]


def _int_in(d: dict, key: str) -> int:
    v = _require(d, key)
    if type(v) is not int:  # a JSON float or a bool (an int subclass) is no integer
        raise SchemaError(f"field {key!r}: expected an integer, got {v!r}")
    return v


def _float_in(d: dict, key: str) -> float:
    v = _require(d, key)
    if isinstance(v, str) and v in _SPECIALS:
        return _SPECIALS[v]
    if type(v) not in (int, float):
        raise SchemaError(f"field {key!r}: expected a number, got {v!r}")
    return float(v)


def _entry_in(d: dict, key: str, table: list):
    """The ``table`` entry that field ``key`` refers to by index."""
    i = _int_in(d, key)
    if not 0 <= i < len(table):  # a negative index does not count from the end
        raise SchemaError(f"field {key!r}: no entry {i} among {len(table)}")
    return table[i]


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
            k=_int_in(d, "k"),
            fit_metric=MetricKind(_require(d, "fit_metric")),
            seed=_int_in(d, "seed"),
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
        grid = _grid_in(d)
        point = EuclideanVector(values) if grid is None else QuantileFunction(grid, values)
        return ConstantMean(point)
    raise SchemaError(f"unknown mean estimator kind {kind!r}")


def _model_to_dict(model, refer) -> dict:
    """A bundle entry; ``refer(table, key, block)`` gives the index in
    ``table`` of ``block``, built from the objects that ``key`` names."""
    if not isinstance(model, (HomoscedasticRegionModel, HeteroscedasticRegionModel)):
        raise SchemaError(f"cannot serialize model of type {type(model).__name__}")
    entry = {
        "alpha": model.alpha,
        "region_metric": model.region_metric.value,
        "mean": refer("means", id(model.mean), _mean_to_dict(model.mean)),
    }
    if isinstance(model, HomoscedasticRegionModel):
        return {**entry, "algorithm": "homoscedastic", "calibrated_radius": model.calibrated_radius}
    predictors, residuals = model.calibration_predictors, model.calibration_residuals
    store = {"predictors": predictors, "residuals": residuals, "seed": model.seed}
    calibration = refer("calibrations", (id(predictors), id(residuals), model.seed), store)
    return {
        **entry,
        "algorithm": "heteroscedastic-knn",
        "k": model.k,
        "calibration": calibration,
        "offset": model.offset,
    }


def _model_from_dict(d: dict, tables: dict):
    algorithm = _require(d, "algorithm")
    if algorithm not in ("homoscedastic", "heteroscedastic-knn"):
        raise SchemaError(f"unknown model algorithm {algorithm!r}")
    mean = _entry_in(d, "mean", tables["means"])
    alpha, region_metric = _float_in(d, "alpha"), MetricKind(_require(d, "region_metric"))
    if algorithm == "homoscedastic":
        return HomoscedasticRegionModel(mean, _float_in(d, "calibrated_radius"), alpha, region_metric)
    predictors, residuals, seed = _entry_in(d, "calibration", tables["calibrations"])
    k, offset = _int_in(d, "k"), _float_in(d, "offset")
    return HeteroscedasticRegionModel(
        mean, predictors, residuals, k, alpha, region_metric, seed, offset
    )


def _calibration_from_dict(d: dict) -> tuple:
    arrays = (np.asarray(_require(d, key), dtype=np.float64) for key in ("predictors", "residuals"))
    return (*arrays, _int_in(d, "seed"))


def write_models_json(path, models: Sequence) -> None:
    """Each distinct mean and calibration store is written once, in order
    of first use, and the models refer to it by index.  Entries match by
    their text, so the bytes depend on the models' values alone."""
    tables = {"calibrations": {}, "means": {}}  # per table, entry text -> index
    texts = {}  # per key of objects, their entry's text; ``models`` keeps them alive

    def refer(table: str, key, block: dict) -> int:
        if key not in texts:
            texts[key] = _encode(block, 2)
        return tables[table].setdefault(texts[key], len(tables[table]))

    entries = [_model_to_dict(m, refer) for m in models]
    document = {"format": MODELS_FORMAT, "version": _MODELS_VERSION, "models": entries}
    # keys sort as calibrations, format, means, models, version
    head, middle, tail = _encode({**document, **dict.fromkeys(tables, _HOLE)}).split(_encode(_HOLE))
    calibrations, means = (_wrap(list(table), 1) for table in tables.values())
    with open(path, "w", newline="") as fh:
        fh.write(head + calibrations + middle + means + tail + "\n")


def _named(name: str, build, *args):
    """``build(*args)``; a data error in it names the bundle entry."""
    try:
        return build(*args)
    except (MetricRegionsError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"{name}: {exc}") from exc


def read_models_json(path) -> list:
    """Models that refer to one table entry share its loaded objects."""
    payload = _load_json(path, MODELS_FORMAT, _MODELS_VERSION)
    if not all(isinstance(payload.get(t), list) for t in ("means", "calibrations", "models")):
        raise SchemaError("model bundle needs the lists 'means', 'calibrations' and 'models'")
    if not payload["models"]:
        raise SchemaError("model bundle holds no models")
    tables = {
        table: [_named(f"{table[:-1]} {i}", build, e) for i, e in enumerate(payload[table])]
        for table, build in (("means", _mean_from_dict), ("calibrations", _calibration_from_dict))
    }
    return [_named(f"model {i}", _model_from_dict, e, tables) for i, e in enumerate(payload["models"])]


# ---------------------------------------------------------------------------
# regions, reports, curves


class RegionColumns(NamedTuple):
    """One model's regions at every query row: ``centers`` is an (n, m)
    float array, ``radii`` an (n,) float array, and ``quantile_grid`` is
    None for vector responses."""

    alpha: float
    region_metric: MetricKind
    quantile_grid: Optional[np.ndarray]
    centers: np.ndarray
    radii: np.ndarray


# queries (JSON) or values (CSV, TSV) formatted per write; bounds the text held in memory
_ROW_BLOCK = 4096
# stands in for the per-row parts when a row's constant text is encoded
_HOLE = "\0"


def write_regions_json(path, queries: np.ndarray, columns: Sequence[RegionColumns]) -> None:
    """One region row per (query, model): query by query, and each
    query's rows in ``columns`` order.  ``queries`` is the (n, p) float
    array the columns were computed at.  Rows are formatted straight
    from the arrays, one block of queries at a time, and each block is
    written as soon as it is done; columns holding the same ``centers``
    object share its formatted text."""
    n = queries.shape[0] if columns else 0
    hole = _encode(_HOLE)
    document = {"format": REGIONS_FORMAT, "version": FORMAT_VERSION, "regions": [_HOLE] if n else []}
    head, *tail = _encode(document).split(hole)
    # the constant text of each model's rows; keys sort as alpha,
    # center {quantile_grid, values}, query, radius, region_metric, so
    # the holes split it around the centre values, the query and the radius
    templates = [
        _encode(
            {
                "alpha": float(c.alpha),
                "center": {"quantile_grid": c.quantile_grid, "values": _HOLE},
                "query": _HOLE,
                "radius": _HOLE,
                "region_metric": c.region_metric.value,
            },
            2,
        ).split(hole)
        for c in columns
    ]
    separator = ",\n  "  # between the items of the regions list
    # columns that share one centre array share its text
    distinct_centers = {id(c.centers): c.centers for c in columns}
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for start in range(0, n, _ROW_BLOCK):
            block = slice(start, min(start + _ROW_BLOCK, n))
            query_rows = _array_rows(queries[block], 3)
            center_rows = {key: _array_rows(a[block], 4) for key, a in distinct_centers.items()}
            per_model = [
                (t, center_rows[id(c.centers)], _float_texts(c.radii[block]))
                for t, c in zip(templates, columns)
            ]
            rows = [
                t[0] + values[i] + t[1] + query + t[2] + radii[i] + t[3]
                for i, query in enumerate(query_rows)
                for t, values, radii in per_model
            ]
            if start:
                fh.write(separator)
            fh.write(separator.join(rows))
        fh.write("".join(tail) + "\n")


def write_report_json(path, report: dict) -> None:
    _dump_json(path, {"format": REPORT_FORMAT, "version": FORMAT_VERSION, **report})


def write_curves_tsv(path, x: np.ndarray, columns: dict) -> None:
    """One abscissa column followed by the named curves, tab separated."""
    names = list(columns)
    table = np.array([x] + [columns[name] for name in names], dtype=np.float64).T
    with open(path, "w", newline="") as fh:
        fh.write("\t".join(["x"] + names) + "\n")
        _write_rows(fh, table, "\t")


def _write_rows(fh, table: np.ndarray, sep: str) -> None:
    """Each row of a 2-d float array as a ``sep``-separated line, in blocks of about ``_ROW_BLOCK`` values."""
    m = table.shape[1]
    step = max(1, _ROW_BLOCK // m)
    for start in range(0, table.shape[0], step):
        texts = _float_texts(table[start:start + step])
        fh.writelines(sep.join(texts[i:i + m]) + "\n" for i in range(0, len(texts), m))

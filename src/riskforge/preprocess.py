"""Preprocessing fitted once and replayed: impute, clip, one-hot encode, scale.

Each column is fitted in one pass on training data. A numeric column gets
its median (the imputation value), population mean and std (clip bounds at
mean +/- 3 std) and, after imputing and clipping, the mean and std it is
standardized with. A categorical column gets its mode (ties broken
lexicographically) and the sorted categories present, one 0/1 indicator
each. :func:`transform` replays those frozen values on any table matching
the fitted input schema, so held-out rows never leak into the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .tabular import ColumnKind, Table, lookup


@dataclass(frozen=True)
class FittedPipeline:
    medians: dict[str, float]  # numeric column -> imputation value
    modes: dict[str, str]  # categorical column -> imputation value
    bounds: dict[str, tuple[float, float, float, float]]  # (mean, std, lower, upper)
    vocabularies: dict[str, tuple[str, ...]]  # sorted categories seen at fit time
    scales: dict[str, tuple[float, float]]  # (mean, std) after imputing and clipping
    input_schema: tuple[tuple[str, str], ...]  # (name, kind) pairs
    feature_names: tuple[str, ...]


def _median(values: np.ndarray) -> float:
    ordered = np.sort(values, kind="stable").tolist()  # -0.0/0.0 ties keep row order
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _finite(name: str, values) -> None:
    if not np.isfinite(values).all():
        raise DataError(f"numeric column {name!r} has values too large for its mean and std")


def _mean_std(name: str, values: np.ndarray) -> tuple[float, float]:
    """Population mean and std of a non-empty column."""
    with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects inf and nan
        stats = float(values.mean()), float(values.std())
    _finite(name, stats)
    return stats


def _clip(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Python's min(max(v, lower), upper) per cell, signed zeros included."""
    values = np.where(values < lower, lower, values)
    return np.where(values > upper, upper, values)


def fit_pipeline(table: Table) -> FittedPipeline:
    """Fit every column of ``table``; a column with no present cell is an error."""
    medians, modes, bounds, vocabularies, scales = {}, {}, {}, {}, {}
    names: list[str] = []
    for col in table.columns:
        present = col.values[~col.missing]
        if not present.size:
            raise DataError(f"column {col.name!r} has no non-missing values to fit")
        if col.kind is ColumnKind.NUMERIC:
            median = medians[col.name] = _median(present)
            imputed = np.where(col.missing, median, col.values)
            mean, std = _mean_std(col.name, imputed)
            lower, upper = mean - 3 * std, mean + 3 * std
            _finite(col.name, (lower, upper))
            bounds[col.name] = (mean, std, lower, upper)
            scales[col.name] = _mean_std(col.name, _clip(imputed, lower, upper))
            names.append(col.name)
        else:
            # np.unique sorts str in code-point order, as sorted() does, so the
            # first top count is the lexicographic minimum.
            vocabulary, counts = np.unique(present, return_counts=True)
            modes[col.name] = vocabulary[int(np.argmax(counts))]
            vocabularies[col.name] = tuple(vocabulary.tolist())
            names.extend(f"{col.name}={cat}" for cat in vocabularies[col.name])
    schema = tuple((c.name, c.kind.value) for c in table.columns)
    return FittedPipeline(medians, modes, bounds, vocabularies, scales, schema, tuple(names))


def _schema_difference(got, fitted) -> str:
    """Name the first column where two (name, kind) schemas differ."""
    got_kinds = dict(got)
    for name, kind in fitted:
        if name not in got_kinds:
            return f"column {name!r} is missing"
        if got_kinds[name] != kind:
            return f"column {name!r} is {got_kinds[name]}, fitted as {kind}"
    fitted_names = {name for name, _ in fitted}
    for name, _ in got:
        if name not in fitted_names:
            return f"unexpected column {name!r}"
    return "the columns are in a different order"


def transform(pipeline: FittedPipeline, table: Table) -> np.ndarray:
    """The dense, missing-free float matrix of ``table``, one column per
    feature name. Categories unseen at fit time get all-zero indicators."""
    schema = tuple((c.name, c.kind.value) for c in table.columns)
    if schema != pipeline.input_schema:
        raise SchemaError(
            "table schema does not match the fitted pipeline: "
            + _schema_difference(schema, pipeline.input_schema)
        )
    matrix = np.empty((table.row_count, len(pipeline.feature_names)), dtype=np.float64)
    j = 0
    for col in table.columns:
        if col.kind is ColumnKind.NUMERIC:
            _, _, lower, upper = pipeline.bounds[col.name]
            mean, std = pipeline.scales[col.name]
            values = np.where(col.missing, pipeline.medians[col.name], col.values)
            values = _clip(values, lower, upper)
            with np.errstate(over="ignore"):  # _finite rejects a value that overflows
                matrix[:, j] = (values - mean) / (std if std > 0 else 1.0)
            _finite(col.name, matrix[:, j])
            j += 1
            continue
        vocabulary = pipeline.vocabularies[col.name]
        code = {cat: k for k, cat in enumerate(vocabulary)}
        code[None] = code.get(pipeline.modes[col.name], -1)  # a missing cell takes the mode
        codes = lookup(col, code, -1)
        for k in range(len(vocabulary)):
            matrix[:, j] = codes == k
            j += 1
    return matrix


PIPELINE_FORMAT = "riskforge.pipeline/1"
_BOUND_KEYS, _SCALE_KEYS = ("mean", "std", "lower", "upper"), ("mean", "std")


def pipeline_to_doc(p: FittedPipeline) -> dict:
    return {
        "format": PIPELINE_FORMAT,
        "stage_order": ["impute", "clip", "encode", "scale"],
        "imputer": {"medians": dict(p.medians), "modes": dict(p.modes)},
        "clipper": {name: dict(zip(_BOUND_KEYS, b)) for name, b in p.bounds.items()},
        "encoder": {name: list(vocab) for name, vocab in p.vocabularies.items()},
        "scaler": {name: dict(zip(_SCALE_KEYS, s)) for name, s in p.scales.items()},
        "input_schema": [{"name": n, "kind": k} for n, k in p.input_schema],
        "feature_names": list(p.feature_names),
    }


def pipeline_from_doc(doc: dict) -> FittedPipeline:
    if doc.get("format") != PIPELINE_FORMAT:
        raise SchemaError(f"unsupported pipeline format {doc.get('format')!r}")
    return FittedPipeline(
        dict(doc["imputer"]["medians"]),
        dict(doc["imputer"]["modes"]),
        {name: tuple(b[k] for k in _BOUND_KEYS) for name, b in doc["clipper"].items()},
        {name: tuple(v) for name, v in doc["encoder"].items()},
        {name: tuple(s[k] for k in _SCALE_KEYS) for name, s in doc["scaler"].items()},
        tuple((e["name"], e["kind"]) for e in doc["input_schema"]),
        tuple(doc["feature_names"]),
    )

"""Fit/transform preprocessing stages composed into a reproducible pipeline.

Stage order is fixed: impute (median/mode) -> clip (3-sigma winsorizing) ->
one-hot encode -> standardize. Each stage is fitted once on training data
and replayed with frozen parameters on any table matching the input schema,
so held-out rows never leak into the fitted statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .tabular import Column, ColumnKind, Table, recode

STAGE_ORDER = ("impute", "clip", "encode", "scale")


@dataclass(frozen=True)
class ImputerState:
    medians: dict[str, float]
    modes: dict[str, str]


@dataclass(frozen=True)
class ColumnBounds:
    mean: float
    std: float
    lower: float
    upper: float


@dataclass(frozen=True)
class ClipperState:
    bounds: dict[str, ColumnBounds]


@dataclass(frozen=True)
class EncoderState:
    #: per categorical column, the ordered (sorted) fit-time vocabulary
    vocabularies: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class ColumnScale:
    mean: float
    std: float


@dataclass(frozen=True)
class ScalerState:
    stats: dict[str, ColumnScale]


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray
    feature_names: tuple[str, ...]


@dataclass(frozen=True)
class FittedPipeline:
    imputer: ImputerState
    clipper: ClipperState
    encoder: EncoderState
    scaler: ScalerState
    input_schema: tuple[tuple[str, str], ...]  # (name, kind) pairs
    feature_names: tuple[str, ...]


def _median(values: np.ndarray) -> float:
    ordered = np.sort(values, kind="stable").tolist()  # -0.0/0.0 ties keep row order
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _complete(table: Table, kind: ColumnKind):
    """The table's columns of ``kind``, each of which must have no missing cell."""
    for col in table.columns:
        if col.kind is kind:
            if col.missing.any():
                raise DataError(f"column {col.name!r} still has missing cells; impute first")
            yield col


def _finite(name: str, *stats: float) -> tuple[float, ...]:
    if not all(np.isfinite(stats)):
        raise DataError(f"numeric column {name!r} has values too large for its mean and std")
    return stats


def _mean_std(table: Table) -> dict[str, tuple[float, float]]:
    """Population mean and std per numeric column; 0.0 for an empty column."""
    out = {}
    for col in _complete(table, ColumnKind.NUMERIC):
        v = col.values
        with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects inf and nan
            stats = (float(v.mean()), float(v.std())) if v.size else (0.0, 0.0)
        out[col.name] = _finite(col.name, *stats)
    return out


def fit_imputer(table: Table) -> ImputerState:
    """Median per numeric column, mode (ties lexicographic) per categorical."""
    medians: dict[str, float] = {}
    modes: dict[str, str] = {}
    for col in table.columns:
        present = col.values[~col.missing]
        if not present.size:
            raise DataError(f"column {col.name!r} has no non-missing values to fit")
        if col.kind is ColumnKind.NUMERIC:
            medians[col.name] = _median(present)
        else:
            # The vocabulary is sorted, so the first top count is the lexicographic minimum.
            counts = np.bincount(present, minlength=len(col.vocabulary))
            modes[col.name] = col.vocabulary[int(np.argmax(counts))]
    return ImputerState(medians, modes)


def apply_imputer(state: ImputerState, table: Table) -> Table:
    out = []
    for col in table.columns:
        fitted = state.medians if col.kind is ColumnKind.NUMERIC else state.modes
        if col.name not in fitted:
            raise SchemaError(f"column {col.name!r} was not seen at fit time")
        fill = fitted[col.name]
        if col.kind is ColumnKind.NUMERIC:
            out.append(Column(col.name, col.kind, np.where(col.missing, fill, col.values)))
            continue
        vocabulary = tuple(sorted({*col.vocabulary, fill}))
        codes = recode(col.values, col.vocabulary, vocabulary)
        codes[codes < 0] = vocabulary.index(fill)
        out.append(Column(col.name, col.kind, codes, vocabulary))
    return Table(tuple(out), table.name)


def fit_clipper(table: Table) -> ClipperState:
    """Population mean/std per numeric column; bounds at mean +/- 3 std."""
    return ClipperState(
        {
            n: ColumnBounds(m, s, *_finite(n, m - 3 * s, m + 3 * s))
            for n, (m, s) in _mean_std(table).items()
        }
    )


def apply_clipper(state: ClipperState, table: Table) -> Table:
    out = []
    for col in table.columns:
        if col.kind is not ColumnKind.NUMERIC:
            out.append(col)
            continue
        if col.name not in state.bounds:
            raise SchemaError(f"column {col.name!r} was not seen at fit time")
        b = state.bounds[col.name]
        # Python's min(max(v, lower), upper), signed zeros included.
        values = np.where(col.values < b.lower, b.lower, col.values)
        values = np.where(values > b.upper, b.upper, values)
        out.append(Column(col.name, col.kind, values))
    return Table(tuple(out), table.name)


def fit_encoder(table: Table) -> EncoderState:
    return EncoderState(
        {
            col.name: tuple(col.vocabulary[k] for k in np.unique(col.values))
            for col in _complete(table, ColumnKind.CATEGORICAL)
        }
    )


def apply_encoder(state: EncoderState, table: Table) -> Table:
    """Expand each categorical column into 0/1 indicator columns.

    Categories unseen at fit time yield an all-zero row rather than an
    error. Indicator columns are named ``<column>=<category>``.
    """
    out = []
    for col in table.columns:
        if col.kind is not ColumnKind.CATEGORICAL:
            out.append(col)
            continue
        if col.name not in state.vocabularies:
            raise SchemaError(f"column {col.name!r} was not seen at fit time")
        vocabulary = state.vocabularies[col.name]
        codes = recode(col.values, col.vocabulary, vocabulary)
        for k, cat in enumerate(vocabulary):
            out.append(Column(f"{col.name}={cat}", ColumnKind.NUMERIC, codes == k))
    return Table(tuple(out), table.name)


def fit_scaler(table: Table) -> ScalerState:
    """Population mean/std per numeric column; std 0 is stored as-is."""
    return ScalerState({name: ColumnScale(*stats) for name, stats in _mean_std(table).items()})


def apply_scaler(state: ScalerState, table: Table) -> Table:
    out = []
    for col in table.columns:
        if col.kind is not ColumnKind.NUMERIC or col.name not in state.stats:
            out.append(col)
            continue
        s = state.stats[col.name]
        denom = s.std if s.std > 0 else 1.0
        with np.errstate(over="ignore"):  # Column rejects a value that overflows
            values = (col.values - s.mean) / denom
        out.append(Column(col.name, col.kind, values))
    return Table(tuple(out), table.name)


def fit_pipeline(table: Table) -> FittedPipeline:
    """Fit all four stages in the fixed impute -> clip -> encode -> scale order.

    The scaler is fitted on the clipped numeric columns only; one-hot
    indicator columns stay 0/1 in the transformed matrix.
    """
    imputer = fit_imputer(table)
    imputed = apply_imputer(imputer, table)
    clipper = fit_clipper(imputed)
    clipped = apply_clipper(clipper, imputed)
    encoder = fit_encoder(clipped)
    scaler = fit_scaler(clipped)

    schema = tuple((c.name, c.kind.value) for c in table.columns)
    names: list[str] = []
    for col in table.columns:
        if col.kind is ColumnKind.NUMERIC:
            names.append(col.name)
        else:
            names.extend(f"{col.name}={cat}" for cat in encoder.vocabularies[col.name])
    return FittedPipeline(imputer, clipper, encoder, scaler, schema, tuple(names))


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


def transform(pipeline: FittedPipeline, table: Table) -> FeatureMatrix:
    """Replay the fitted stages; returns a dense, missing-free float matrix."""
    schema = tuple((c.name, c.kind.value) for c in table.columns)
    if schema != pipeline.input_schema:
        raise SchemaError(
            "table schema does not match the fitted pipeline: "
            + _schema_difference(schema, pipeline.input_schema)
        )
    staged = apply_imputer(pipeline.imputer, table)
    staged = apply_clipper(pipeline.clipper, staged)
    staged = apply_encoder(pipeline.encoder, staged)
    staged = apply_scaler(pipeline.scaler, staged)

    matrix = np.empty((staged.row_count, len(pipeline.feature_names)), dtype=np.float64)
    by_name = {c.name: c.values for c in staged.columns}
    for j, name in enumerate(pipeline.feature_names):
        matrix[:, j] = by_name[name]
    return FeatureMatrix(matrix, pipeline.feature_names)


PIPELINE_FORMAT = "riskforge.pipeline/1"


def pipeline_to_doc(p: FittedPipeline) -> dict:
    return {
        "format": PIPELINE_FORMAT,
        "stage_order": list(STAGE_ORDER),
        "imputer": {"medians": dict(p.imputer.medians), "modes": dict(p.imputer.modes)},
        "clipper": {
            name: {"mean": b.mean, "std": b.std, "lower": b.lower, "upper": b.upper}
            for name, b in p.clipper.bounds.items()
        },
        "encoder": {name: list(vocab) for name, vocab in p.encoder.vocabularies.items()},
        "scaler": {
            name: {"mean": s.mean, "std": s.std} for name, s in p.scaler.stats.items()
        },
        "input_schema": [{"name": n, "kind": k} for n, k in p.input_schema],
        "feature_names": list(p.feature_names),
    }


def pipeline_from_doc(doc: dict) -> FittedPipeline:
    if doc.get("format") != PIPELINE_FORMAT:
        raise SchemaError(f"unsupported pipeline format {doc.get('format')!r}")
    return FittedPipeline(
        ImputerState(dict(doc["imputer"]["medians"]), dict(doc["imputer"]["modes"])),
        ClipperState(
            {
                name: ColumnBounds(b["mean"], b["std"], b["lower"], b["upper"])
                for name, b in doc["clipper"].items()
            }
        ),
        EncoderState({name: tuple(v) for name, v in doc["encoder"].items()}),
        ScalerState(
            {name: ColumnScale(s["mean"], s["std"]) for name, s in doc["scaler"].items()}
        ),
        tuple((e["name"], e["kind"]) for e in doc["input_schema"]),
        tuple(doc["feature_names"]),
    )

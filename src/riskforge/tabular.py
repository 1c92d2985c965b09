"""Columnar in-memory tables with CSV ingestion and aggregation merging.

A :class:`Table` is an ordered list of named columns, each held as one
array. A Numeric column is a float64 array in which NaN marks a missing
cell; every other cell is finite (NaN/inf on ingest become missing). A
Categorical column is a sorted vocabulary of strings plus int64 codes into
it, with -1 marking a missing cell. Tables are treated as immutable after
construction: every operation returns a new table.

:func:`read_csv` streams its file: each column keeps one buffer, the packed
text of its chunks, and is built, numeric or categorical, at end of file.
:func:`aggregate_merge` matches rows on the text of a categorical key column
and computes each key's statistics with ``np.bincount`` in aux row order.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import CsvError, DataError, SchemaError

#: CSV fields that mean "missing".
MISSING_TOKENS = ("", "NA")


class ColumnKind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class Statistic(str, Enum):
    MEAN = "mean"
    MAX = "max"
    SUM = "sum"
    COUNT = "count"


@dataclass(frozen=True, eq=False)
class Column:
    """One named column: float64 values (NaN missing), or codes into
    ``vocabulary`` (-1 missing). The vocabulary is sorted and may hold
    categories that no row uses."""

    name: str
    kind: ColumnKind
    values: np.ndarray
    vocabulary: tuple[str, ...] = ()

    def __post_init__(self):
        numeric = self.kind is ColumnKind.NUMERIC
        values = np.ascontiguousarray(self.values, dtype=np.float64 if numeric else np.int64)
        object.__setattr__(self, "values", values)
        if numeric and np.isinf(values).any():
            bad = float(values[np.isinf(values)][0])
            raise DataError(f"numeric column {self.name!r} contains non-finite cell {bad!r}")
        if not numeric and values.size:
            if not -1 <= values.min() <= values.max() < len(self.vocabulary):
                raise DataError(f"categorical column {self.name!r} has out-of-range codes")

    @property
    def missing(self) -> np.ndarray:
        """Boolean mask of the missing cells."""
        if self.kind is ColumnKind.NUMERIC:
            return np.isnan(self.values)
        return self.values < 0

    def cell(self, i: int):
        """Row ``i`` as a Python float or string, None when missing."""
        v = self.values[i]
        if self.kind is ColumnKind.NUMERIC:
            return None if math.isnan(v) else float(v)
        return self.vocabulary[v] if v >= 0 else None

    def strings(self) -> list:
        """Each cell of a Categorical column as text, None where missing."""
        return np.array([*self.vocabulary, None], dtype=object)[self.values].tolist()


@dataclass(frozen=True)
class Table:
    columns: tuple[Column, ...]
    name: str = ""

    def __post_init__(self):
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(f"duplicate column name {col.name!r}")
            seen.add(col.name)
        lengths = {len(col.values) for col in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"unknown column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def with_columns(self, new: Iterable[Column]) -> "Table":
        return Table(self.columns + tuple(new), self.name)


@dataclass(frozen=True)
class AggregationSpec:
    """How to fold an auxiliary table into the base table, keyed by ID."""

    key_column: str
    value_columns: tuple[str, ...]
    statistics: tuple[Statistic, ...]

    def __post_init__(self):
        if not self.statistics:
            raise DataError("aggregation requires at least one statistic")
        if len(set(self.statistics)) != len(self.statistics):
            raise DataError("duplicate statistics in aggregation spec")


#: Missing tokens mapped to a text that ``float`` reads as NaN.
_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")


def _parse_numeric(fields: Sequence[str]) -> np.ndarray | None:
    """Fields parsed by Python ``float``, with missing tokens, NaN and inf as
    NaN; None when a field is not a number."""
    try:
        values = np.fromiter(map(float, map(_AS_NAN.get, fields, fields)), np.float64, len(fields))
    except ValueError:
        return None
    values[np.isinf(values)] = np.nan
    return values


#: Records that ``read_csv`` holds as Python strings at a time.
CHUNK_ROWS = 1024


def _pack(fields: Sequence[str]):
    """A chunk of one column's fields as one NUL-joined string, or as they
    are when a field holds a NUL itself."""
    text = "\0".join(fields)
    return text if text.count("\0") == len(fields) - 1 else fields


def _column(name: str, packs: list, categorical: bool) -> Column:
    """One column from its chunks' packed text, in file order: Numeric when
    ``categorical`` is false and every chunk parses as numbers, otherwise
    coded against the sorted vocabulary of all its chunks. No more than one
    chunk is unpacked at a time."""

    def chunks():
        return (p.split("\0") if isinstance(p, str) else p for p in packs)

    if not categorical:
        parsed = list(itertools.takewhile(lambda v: v is not None, map(_parse_numeric, chunks())))
        if len(parsed) == len(packs):
            return Column(name, ColumnKind.NUMERIC, np.concatenate([np.empty(0), *parsed]))
        del parsed  # a field is text: the numbers go before the text is coded
    present = set()
    for fields in chunks():
        present.update(fields)
    present.difference_update(MISSING_TOKENS)
    vocabulary = tuple(sorted(present))
    del present  # the set's table goes before the code dict is built
    code = {v: k for k, v in enumerate(vocabulary)}
    code.update(dict.fromkeys(MISSING_TOKENS, -1))
    codes = [np.fromiter(map(code.__getitem__, f), np.int64, len(f)) for f in chunks()]
    codes = np.concatenate([np.empty(0, dtype=np.int64), *codes])
    return Column(name, ColumnKind.CATEGORICAL, codes, vocabulary)


def read_csv(path: str | os.PathLike, categorical: Sequence[str] = ()) -> Table:
    """Read an RFC-4180 CSV file with a header row into a Table.

    Empty fields and the literal token ``NA`` are missing. A column is
    Numeric iff every non-missing field parses as a number and its name is
    not in ``categorical``, each of which must be in the header. Records are
    read ``CHUNK_ROWS`` at a time, so the file is never held as Python rows:
    each column keeps one buffer, its chunks' packed text, and its kind is
    decided at end of file, when the columns are built one at a time.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvError(f"{path}: empty file, header row required") from None
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise CsvError(f"{path}: duplicate header names {dupes}")
            packs = [[] for _ in header]  # per column, each chunk's fields as _pack gives them
            first_row = 2
            while rows := list(itertools.islice(reader, CHUNK_ROWS)):
                for i, row in enumerate(rows, first_row):
                    if len(row) != len(header):
                        raise CsvError(
                            f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
                        )
                for column, fields in zip(packs, zip(*rows)):
                    column.append(_pack(fields))
                first_row += len(rows)
                rows = row = fields = None  # this chunk's strings go before the next is read
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except csv.Error as exc:  # a field over the csv module's size limit
        raise CsvError(f"{path}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise CsvError(f"{path}: not UTF-8 text ({exc.reason}: byte 0x{byte:02x})") from exc

    for name in categorical:
        if name not in header:
            raise CsvError(f"{path}: categorical column {name!r} is not in the header")
    columns = []
    for j, name in enumerate(header):
        columns.append(_column(name, packs[j], name in categorical))
        packs[j] = None  # each column's text goes as soon as the column is built
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return Table(tuple(columns), name=stem)


def select_columns(table: Table, names: Sequence[str]) -> Table:
    """Project onto ``names``, preserving row order and the requested order."""
    return Table(tuple(table.column(n) for n in names), table.name)


def recode(codes: np.ndarray, vocabulary: Sequence, target: Sequence) -> np.ndarray:
    """Codes into ``vocabulary`` as codes into ``target``; -1 if missing or absent."""
    position = {v: k for k, v in enumerate(target)}
    return np.array([position.get(v, -1) for v in vocabulary] + [-1], dtype=np.int64)[codes]


def _per_key_statistics(keys, values, n_keys, statistics):
    """Each of ``statistics`` over ``values`` per key in ``range(n_keys)``.

    ``np.bincount`` adds each key's values left to right from 0.0, in the
    order given, as Python 3.11's ``sum()`` does (numpy's pairwise sums and
    the compensated ``sum()`` of Python 3.12+ round differently), so the
    bytes do not depend on the Python version. A key without values gets NaN,
    or 0 for COUNT.
    """
    count = np.bincount(keys, minlength=n_keys).astype(np.float64)
    with np.errstate(invalid="ignore"):  # 0 / 0 for an empty key
        total = np.bincount(keys, values, minlength=n_keys)
        mean = total / count
    out = []
    for stat in statistics:
        if stat is Statistic.COUNT:
            out.append(count)
        elif stat is Statistic.SUM:
            out.append(np.where(count > 0, total, np.nan))
        elif stat is Statistic.MEAN:
            out.append(mean)
        else:
            out.append(_max(keys, values, count))
    return out


def _max(keys, values, count):
    """Per-key MAX, equal to Python's ``max()`` in key order: that keeps the
    first of two equal values, and ``ufunc.at`` the later, which matters only
    for signed zeros. So a zero result takes the sign of the key's first
    zero."""
    out = np.full(len(count), -np.inf)
    np.maximum.at(out, keys, values)
    zero = np.flatnonzero(values == 0)
    zero_keys, first = np.unique(keys[zero], return_index=True)
    out[zero_keys] = np.where(out[zero_keys] == 0, values[zero[first]], out[zero_keys])
    return np.where(count > 0, out, np.nan)


def aggregate_merge(base: Table, aux: Table, spec: AggregationSpec) -> Table:
    """Fold per-key statistics of ``aux`` value columns into ``base``.

    Rows match on the text of the key column, which must be categorical in
    both tables. Adds one Numeric column per (value column, statistic) named
    ``<aux>_<col>_<STAT>``, where ``<aux>`` is the aux table's name. Rows
    without a matching aux key get missing cells, except Count which gets 0.
    Missing aux cells are ignored.
    """
    for table, which in ((base, "base"), (aux, "aux")):
        if not table.has_column(spec.key_column):
            raise SchemaError(f"key column {spec.key_column!r} absent from {which} table")
    base_key, aux_key = base.column(spec.key_column), aux.column(spec.key_column)
    if ColumnKind.NUMERIC in (base_key.kind, aux_key.kind):
        raise SchemaError(f"key column {spec.key_column!r} must be text in both tables")
    prefix = aux.name or "aux"

    value_cols = []
    for name in spec.value_columns:
        col = aux.column(name)
        if col.kind is not ColumnKind.NUMERIC:
            raise SchemaError(f"aux value column {name!r} is not numeric")
        value_cols.append(col)

    # Each aux row's group is the index of its key in the base vocabulary;
    # the last slot is for base rows whose key matches no group.
    group = recode(aux_key.values, aux_key.vocabulary, base_key.vocabulary)
    n_keys = len(base_key.vocabulary) + 1

    new_columns = []
    for col in value_cols:
        kept = np.flatnonzero((group >= 0) & ~col.missing)  # in aux row order
        per_key = _per_key_statistics(group[kept], col.values[kept], n_keys, spec.statistics)
        for stat, values in zip(spec.statistics, per_key):
            new_name = f"{prefix}_{col.name}_{stat.name}"
            if base.has_column(new_name):
                raise SchemaError(f"merged column {new_name!r} already exists")
            new_columns.append(Column(new_name, ColumnKind.NUMERIC, values[base_key.values]))

    return base.with_columns(new_columns)

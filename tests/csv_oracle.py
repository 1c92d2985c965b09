"""The whole-file CSV reader that ``tabular.read_csv`` replaced: it holds
every record as a list of strings before it parses a column. Tests compare
the streamed reader's tables and error messages against it."""

import csv
import os

import numpy as np
from tables import cat_col

from riskforge.errors import CsvError
from riskforge.tabular import MISSING_TOKENS, Column, ColumnKind, Table

_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")


def _parse_numeric(fields):
    try:
        values = np.fromiter(map(float, map(_AS_NAN.get, fields, fields)), np.float64, len(fields))
    except ValueError:
        return None
    values[np.isinf(values)] = np.nan
    return values


def read_csv_whole(path, categorical=()):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvError(f"{path}: empty file, header row required") from None
            rows = list(reader)
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc

    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise CsvError(f"{path}: duplicate header names {dupes}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvError(
                f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}"
            )

    for name in categorical:
        if name not in header:
            raise CsvError(f"{path}: categorical column {name!r} is not in the header")

    columns = []
    for name, fields in zip(header, zip(*rows) if rows else [()] * len(header)):
        values = None if name in categorical else _parse_numeric(fields)
        if values is not None:
            columns.append(Column(name, ColumnKind.NUMERIC, values))
        else:
            columns.append(cat_col(name, fields, missing=MISSING_TOKENS))

    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return Table(tuple(columns), name=stem)

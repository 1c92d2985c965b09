"""Small tables for tests, and the reverse: a column turned back into cells."""

import math

import numpy as np

from riskforge.tabular import Column, ColumnKind, Table


def num_col(name, values):
    """A Numeric column from floats, with None for missing."""
    return Column(name, ColumnKind.NUMERIC, [math.nan if v is None else v for v in values])


def cat_col(name, values, missing=(None,)):
    """A Categorical column from strings, with the cells in ``missing`` missing:
    codes into the sorted set of the other cells, made without ``read_csv``."""
    values = list(values)
    vocabulary = tuple(sorted(set(values).difference(missing)))
    code = {cell: k for k, cell in enumerate(vocabulary)} | dict.fromkeys(missing, -1)
    codes = np.fromiter(map(code.__getitem__, values), np.int64, len(values))
    return Column(name, ColumnKind.CATEGORICAL, codes, vocabulary)


def table(*cols, name=""):
    return Table(tuple(cols), name=name)


def cells(column):
    """The column's cells as a tuple of floats or strings, None for missing."""
    if column.kind is ColumnKind.NUMERIC:
        return tuple(None if math.isnan(v) else v for v in column.values.tolist())
    return tuple(None if k < 0 else column.vocabulary[k] for k in column.values.tolist())

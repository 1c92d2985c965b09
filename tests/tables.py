"""Small tables for tests, and the reverse: a column turned back into cells."""

import math

from riskforge.tabular import Column, ColumnKind, Table


def num_col(name, values):
    """A Numeric column from floats, with None for missing."""
    return Column(name, ColumnKind.NUMERIC, [math.nan if v is None else v for v in values])


def cat_col(name, values, missing=(None,)):
    """A Categorical column from strings, with the cells in ``missing`` missing,
    made without ``read_csv``."""
    return Column(name, ColumnKind.CATEGORICAL, [None if v in missing else v for v in values])


def table(*cols, name=""):
    return Table(tuple(cols), name=name)


def cells(column):
    """The column's cells as a tuple of floats or strings, None for missing."""
    if column.kind is ColumnKind.NUMERIC:
        return tuple(None if math.isnan(v) else v for v in column.values.tolist())
    return tuple(column.values.tolist())

"""Domain feature engineering on the merged raw table.

Recipes are applied in catalog order, so later recipes may consume the
outputs of earlier ones. All recipes are row-local: ratios, day-count to
year conversions, and threshold flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DataError, SchemaError
from .tabular import Column, ColumnKind, Table

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class Ratio:
    numerator: str
    denominator: str


@dataclass(frozen=True)
class DaysToYears:
    """Convert a negative day-offset column (source-data convention) to years."""

    source: str


@dataclass(frozen=True)
class Flag:
    """0/1 indicator: 1 when ``<source> <op> <value>`` holds."""

    source: str
    op: str  # one of gt, ge, lt, le, eq
    value: float

    def __post_init__(self):
        if self.op not in _FLAG_OPS:
            raise DataError(f"unknown flag op {self.op!r}, expected one of {list(_FLAG_OPS)}")


_FLAG_OPS = dict(
    gt=np.greater, ge=np.greater_equal, lt=np.less, le=np.less_equal, eq=np.equal
)

RecipeKind = Union[Ratio, DaysToYears, Flag]


@dataclass(frozen=True)
class FeatureRecipe:
    name: str
    kind: RecipeKind

    @property
    def inputs(self) -> tuple[str, ...]:
        if isinstance(self.kind, Ratio):
            return (self.kind.numerator, self.kind.denominator)
        return (self.kind.source,)


@dataclass(frozen=True)
class FeatureCatalog:
    recipes: tuple[FeatureRecipe, ...]


def _recipe_values(table: Table, recipe: FeatureRecipe) -> np.ndarray:
    for name in recipe.inputs:
        if not table.has_column(name):
            raise SchemaError(f"recipe {recipe.name!r} needs unknown column {name!r}")
        if table.column(name).kind is not ColumnKind.NUMERIC:
            raise SchemaError(f"recipe {recipe.name!r} input {name!r} is not numeric")

    # A missing (NaN) input gives a missing output.
    kind = recipe.kind
    if isinstance(kind, Ratio):
        num = table.column(kind.numerator).values
        den = table.column(kind.denominator).values
        with np.errstate(over="ignore"):  # Column rejects a ratio that overflows
            return np.divide(num, den, out=np.full(len(num), np.nan), where=den != 0)
    if isinstance(kind, DaysToYears):
        return -table.column(kind.source).values / DAYS_PER_YEAR
    src = table.column(kind.source).values  # a Flag, whose op was checked when it was built
    return np.where(np.isnan(src), np.nan, _FLAG_OPS[kind.op](src, kind.value))


def apply_recipes(table: Table, catalog: FeatureCatalog) -> Table:
    """Append one Numeric column per recipe; existing cells are untouched."""
    out = table
    for recipe in catalog.recipes:
        if out.has_column(recipe.name):
            raise SchemaError(f"recipe output {recipe.name!r} already exists")
        values = _recipe_values(out, recipe)
        out = out.with_columns([Column(recipe.name, ColumnKind.NUMERIC, values)])
    return out

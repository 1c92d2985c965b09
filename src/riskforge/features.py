"""Domain feature engineering on the merged raw table.

Recipes are applied in the order given, so later recipes may consume the
outputs of earlier ones. All recipes are row-local: ratios and day-count
to year conversions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .tabular import Column, ColumnKind, Table

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class Ratio:
    name: str
    numerator: str
    denominator: str


@dataclass(frozen=True)
class DaysToYears:
    """Convert a negative day-offset column (source-data convention) to years."""

    name: str
    source: str


def _recipe_values(table: Table, recipe: Ratio | DaysToYears) -> np.ndarray:
    ratio = isinstance(recipe, Ratio)
    for name in (recipe.numerator, recipe.denominator) if ratio else (recipe.source,):
        if not table.has_column(name):
            raise SchemaError(f"recipe {recipe.name!r} needs unknown column {name!r}")
        if table.column(name).kind is not ColumnKind.NUMERIC:
            raise SchemaError(f"recipe {recipe.name!r} input {name!r} is not numeric")

    # A missing (NaN) input gives a missing output.
    if ratio:
        num = table.column(recipe.numerator).values
        den = table.column(recipe.denominator).values
        with np.errstate(over="ignore"):  # Column rejects a ratio that overflows
            return np.divide(num, den, out=np.full(len(num), np.nan), where=den != 0)
    return -table.column(recipe.source).values / DAYS_PER_YEAR


def apply_recipes(table: Table, recipes: tuple[Ratio | DaysToYears, ...]) -> Table:
    """Append one Numeric column per recipe, named by it; existing cells are untouched."""
    out = table
    for recipe in recipes:
        if out.has_column(recipe.name):
            raise SchemaError(f"recipe output {recipe.name!r} already exists")
        values = _recipe_values(out, recipe)
        out = out.with_columns([Column(recipe.name, ColumnKind.NUMERIC, values)])
    return out

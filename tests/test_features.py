import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tables import cells, num_col, table

from riskforge.config import default_config_dict, parse_config
from riskforge.errors import SchemaError
from riskforge.features import DaysToYears, Ratio, apply_recipes


class TestRatio:
    def test_simple_division(self):
        t = table(num_col("credit", [200000.0]), num_col("goods", [100000.0]))
        out = apply_recipes(t, (Ratio("R", "credit", "goods"),))
        assert cells(out.column("R")) == (2.0,)

    def test_zero_denominator_gives_missing(self):
        t = table(num_col("credit", [200000.0]), num_col("goods", [0.0]))
        out = apply_recipes(t, (Ratio("R", "credit", "goods"),))
        assert cells(out.column("R"))[0] is None

    def test_missing_input_gives_missing(self):
        t = table(num_col("credit", [None]), num_col("goods", [10.0]))
        out = apply_recipes(t, (Ratio("R", "credit", "goods"),))
        assert cells(out.column("R"))[0] is None


class TestDaysToYears:
    def test_negated_days_over_year_length(self):
        # Oracle: -(-10957.5) / 365.25 == 30 exactly.
        t = table(num_col("days_birth", [-10957.5]))
        out = apply_recipes(t, (DaysToYears("AGE_YEARS", "days_birth"),))
        assert cells(out.column("AGE_YEARS"))[0] == pytest.approx(30.0, abs=1e-12)

    def test_missing_passes_through(self):
        t = table(num_col("d", [None]))
        out = apply_recipes(t, (DaysToYears("Y", "d"),))
        assert cells(out.column("Y"))[0] is None


class TestCatalog:
    def test_adds_exactly_catalog_columns_and_mutates_nothing(self):
        t = table(num_col("a", [1.0, 2.0]), num_col("b", [2.0, 4.0]))
        out = apply_recipes(t, (Ratio("r1", "a", "b"), Ratio("r2", "b", "a")))
        assert len(out.columns) == len(t.columns) + 2
        assert cells(out.column("a")) == cells(t.column("a"))
        assert cells(out.column("b")) == cells(t.column("b"))

    def test_later_recipe_consumes_earlier_output(self):
        t = table(num_col("a", [8.0]), num_col("b", [2.0]))
        out = apply_recipes(t, (Ratio("r1", "a", "b"), Ratio("r2", "r1", "b")))
        assert cells(out.column("r2")) == (2.0,)

    def test_unknown_input_rejected(self):
        t = table(num_col("a", [1.0]))
        with pytest.raises(SchemaError, match="ghost"):
            apply_recipes(t, (Ratio("r", "a", "ghost"),))

    def test_name_collision_rejected(self):
        t = table(num_col("a", [1.0]), num_col("b", [1.0]))
        with pytest.raises(SchemaError, match="already exists"):
            apply_recipes(t, (Ratio("a", "a", "b"),))

    def test_default_catalog_names(self):
        names = [r.name for r in parse_config(default_config_dict()).recipes]
        assert "CREDIT_TO_GOODS_RATIO" in names
        assert "AGE_YEARS" in names


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_self_ratio_is_one_for_nonzero(values):
    t = table(num_col("x", values))
    out = apply_recipes(t, (Ratio("r", "x", "x"),))
    for v, r in zip(values, cells(out.column("r"))):
        if v == 0:
            assert r is None
        else:
            assert r == 1.0


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(6))))
def test_row_order_independence(perm):
    base = [float(i) for i in range(6)]
    t1 = table(num_col("a", base), num_col("b", [2.0] * 6))
    t2 = table(
        num_col("a", [base[i] for i in perm]), num_col("b", [2.0] * 6)
    )
    recipes = (Ratio("r", "a", "b"),)
    out1 = cells(apply_recipes(t1, recipes).column("r"))
    out2 = cells(apply_recipes(t2, recipes).column("r"))
    assert [out2[perm.index(i)] for i in range(6)] == list(out1)

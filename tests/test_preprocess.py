from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tables import cat_col, cells, num_col, table

from riskforge.errors import DataError, SchemaError
from riskforge.preprocess import (
    STAGE_ORDER,
    apply_clipper,
    apply_encoder,
    apply_imputer,
    apply_scaler,
    fit_clipper,
    fit_encoder,
    fit_imputer,
    fit_pipeline,
    fit_scaler,
    pipeline_from_doc,
    pipeline_to_doc,
    transform,
)


class TestImputer:
    def test_median_of_two(self):
        state = fit_imputer(table(num_col("x", [1.0, None, 3.0])))
        assert state.medians["x"] == 2.0

    def test_median_is_outlier_robust(self):
        state = fit_imputer(table(num_col("x", [1.0, 2.0, 100.0])))
        assert state.medians["x"] == 2.0

    def test_mode_max_frequency(self):
        state = fit_imputer(table(cat_col("c", ["a", "b", "b", None])))
        assert state.modes["c"] == "b"

    def test_mode_tie_breaks_lexicographic(self):
        state = fit_imputer(table(cat_col("c", ["b", "a", "a", "b"])))
        assert state.modes["c"] == "a"

    def test_all_missing_column_rejected(self):
        with pytest.raises(DataError, match="'x'"):
            fit_imputer(table(num_col("x", [None, None])))

    def test_apply_fills_and_preserves(self):
        t = table(num_col("x", [1.0, None, 3.0]))
        out = apply_imputer(fit_imputer(t), t)
        assert cells(out.column("x")) == (1.0, 2.0, 3.0)

    def test_apply_identity_when_complete(self):
        t = table(num_col("x", [4.0, 5.0]))
        assert cells(apply_imputer(fit_imputer(t), t).column("x")) == (4.0, 5.0)

    def test_unseen_column_rejected(self):
        state = fit_imputer(table(num_col("x", [1.0])))
        with pytest.raises(SchemaError, match="'y'"):
            apply_imputer(state, table(num_col("y", [1.0])))


class TestClipper:
    def test_outlier_capped_at_three_sigma(self):
        # Oracle: population mean/std straight from numpy on the fit data.
        values = [0.0] * 100 + [1000.0]
        arr = np.array(values)
        upper = arr.mean() + 3 * arr.std()
        t = table(num_col("x", values))
        out = apply_clipper(fit_clipper(t), t)
        assert cells(out.column("x"))[-1] == pytest.approx(upper, rel=1e-12)
        assert cells(out.column("x"))[-1] == pytest.approx(306.930693, abs=1e-5)

    def test_constant_column_unchanged(self):
        t = table(num_col("x", [5.0, 5.0, 5.0]))
        assert cells(apply_clipper(fit_clipper(t), t).column("x")) == (5.0, 5.0, 5.0)

    def test_values_within_bounds_unchanged(self):
        t = table(num_col("x", [1.0, 2.0, 3.0]))
        assert cells(apply_clipper(fit_clipper(t), t).column("x")) == (1.0, 2.0, 3.0)

    def test_all_values_end_inside_fit_bounds(self):
        rng = np.random.default_rng(5)
        fit_vals = list(rng.normal(size=50))
        t = table(num_col("x", fit_vals))
        state = fit_clipper(t)
        fresh = table(num_col("x", list(rng.normal(scale=10, size=50))))
        out = apply_clipper(state, fresh)
        b = state.bounds["x"]
        assert all(b.lower <= v <= b.upper for v in cells(out.column("x")))

    def test_missing_cells_rejected(self):
        with pytest.raises(DataError, match="impute"):
            fit_clipper(table(num_col("x", [1.0, None])))


class TestEncoder:
    def test_indicator_for_seen_category(self):
        fit = table(cat_col("c", ["a", "b", "c"]))
        state = fit_encoder(fit)
        out = apply_encoder(state, table(cat_col("c", ["b"])))
        assert [cells(out.column(f"c={k}"))[0] for k in "abc"] == [0.0, 1.0, 0.0]

    def test_unseen_category_all_zero(self):
        state = fit_encoder(table(cat_col("c", ["a", "b", "c"])))
        out = apply_encoder(state, table(cat_col("c", ["z"])))
        assert [cells(out.column(f"c={k}"))[0] for k in "abc"] == [0.0, 0.0, 0.0]

    def test_output_width_is_additive(self):
        state = fit_encoder(
            table(cat_col("c1", ["a", "b", "a"]), cat_col("c2", ["x", "y", "z"]))
        )
        out = apply_encoder(state, table(cat_col("c1", ["a"]), cat_col("c2", ["x"])))
        assert len(out.columns) == 5

    def test_row_sum_one_for_seen(self):
        state = fit_encoder(table(cat_col("c", ["a", "b"])))
        out = apply_encoder(state, table(cat_col("c", ["a", "b", "a"])))
        for i in range(3):
            assert sum(cells(out.column(f"c={k}"))[i] for k in "ab") == 1.0


class TestScaler:
    def test_population_sigma(self):
        # Oracle: population std from numpy.
        vals = [2.0, 4.0, 6.0]
        sd = float(np.std(vals))
        t = table(num_col("x", vals))
        out = apply_scaler(fit_scaler(t), t)
        assert sd == pytest.approx(1.632993, abs=1e-6)
        expect = [(v - 4.0) / sd for v in vals]
        assert cells(out.column("x")) == pytest.approx(expect)
        assert cells(out.column("x"))[0] == pytest.approx(-1.224745, abs=1e-6)

    def test_constant_column_zeros(self):
        t = table(num_col("x", [7.0, 7.0]))
        assert cells(apply_scaler(fit_scaler(t), t).column("x")) == (0.0, 0.0)

    def test_refit_of_standardized_is_identity(self):
        t = table(num_col("x", [2.0, 4.0, 6.0]))
        once = apply_scaler(fit_scaler(t), t)
        twice = apply_scaler(fit_scaler(once), once)
        for a, b in zip(cells(once.column("x")), cells(twice.column("x"))):
            assert abs(a - b) < 1e-12


@settings(max_examples=60, deadline=None)
@example([0.0, -0.0])  # Python's max/min keep the first of equal signed zeros
@example([-0.0, 0.0] * 20 + [1.0])  # the median is the row-order-first of tied zeros
@given(
    st.lists(
        st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=30,
    ).filter(lambda vs: any(v is not None for v in vs))
)
def test_numeric_stages_match_per_cell_reference(values):
    """Impute, clip and scale equal Python's per-cell arithmetic bit for bit."""
    t = table(num_col("x", values))
    present = sorted(v for v in values if v is not None)
    mid = len(present) // 2
    median = present[mid] if len(present) % 2 else (present[mid - 1] + present[mid]) / 2.0
    imputer = fit_imputer(t)
    assert repr(imputer.medians["x"]) == repr(median)
    want = [median if v is None else v for v in values]
    imputed = apply_imputer(imputer, t)
    assert list(map(repr, cells(imputed.column("x")))) == list(map(repr, want))
    b = fit_clipper(imputed).bounds["x"]
    clipped = apply_clipper(fit_clipper(imputed), imputed)
    want = [min(max(v, b.lower), b.upper) for v in want]
    assert list(map(repr, cells(clipped.column("x")))) == list(map(repr, want))
    s = fit_scaler(clipped).stats["x"]
    scaled = apply_scaler(fit_scaler(clipped), clipped)
    want = [(v - s.mean) / (s.std if s.std > 0 else 1.0) for v in want]
    assert list(map(repr, cells(scaled.column("x")))) == list(map(repr, want))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.sampled_from(["b", "a", "c", "aa"])), min_size=1,
             max_size=20).filter(lambda vs: any(v is not None for v in vs)),
    st.lists(st.sampled_from(["a", "b", "c", "aa", "zz"]), max_size=5),
)
def test_categorical_stages_match_per_cell_reference(values, held_out):
    """The mode (ties lexicographic) and one-hot indicators, cell by cell."""
    t = table(cat_col("c", values))
    counts = Counter(v for v in values if v is not None)
    mode = min(c for c, n in counts.items() if n == max(counts.values()))
    imputer = fit_imputer(t)
    assert imputer.modes["c"] == mode
    imputed = apply_imputer(imputer, t)
    assert cells(imputed.column("c")) == tuple(mode if v is None else v for v in values)
    encoder = fit_encoder(imputed)
    vocabulary = tuple(sorted({mode if v is None else v for v in values}))
    assert encoder.vocabularies["c"] == vocabulary
    out = apply_encoder(encoder, apply_imputer(imputer, table(cat_col("c", held_out))))
    for cat in vocabulary:
        want = tuple(1.0 if v == cat else 0.0 for v in held_out)
        assert cells(out.column(f"c={cat}")) == want


def sample_table():
    return table(
        num_col("a", [1.0, 2.0, None, 4.0]),
        cat_col("c", ["x", None, "y", "x"]),
        num_col("b", [10.0, 20.0, 30.0, 1000.0]),
    )


class TestPipeline:
    def test_feature_names_order(self):
        p = fit_pipeline(sample_table())
        assert p.feature_names == ("a", "c=x", "c=y", "b")

    def test_transform_deterministic(self):
        t = sample_table()
        p = fit_pipeline(t)
        m1 = transform(p, t)
        m2 = transform(p, t)
        assert np.array_equal(m1.values, m2.values)

    def test_no_missing_and_fixed_width(self):
        t = sample_table()
        p = fit_pipeline(t)
        m = transform(p, t)
        assert m.values.shape == (4, 4)
        assert np.all(np.isfinite(m.values))

    def test_scaled_columns_have_unit_population_std(self):
        t = sample_table()
        p = fit_pipeline(t)
        m = transform(p, t)
        for j, name in enumerate(m.feature_names):
            col = m.values[:, j]
            if name in ("a", "b") and col.std() > 0:
                assert abs(col.mean()) < 1e-9
                assert abs(col.std() - 1.0) < 1e-9

    def test_one_hot_rows_still_binary_after_scale(self):
        t = sample_table()
        m = transform(fit_pipeline(t), t)
        onehot = m.values[:, [1, 2]]
        assert set(np.unique(onehot)) <= {0.0, 1.0}
        assert np.all(onehot.sum(axis=1) == 1.0)

    def test_held_out_rows_use_training_statistics(self):
        t = sample_table()
        p = fit_pipeline(t)
        held = table(
            num_col("a", [100.0]), cat_col("c", ["y"]), num_col("b", [-123.0])
        )
        m = transform(p, held)
        # 'a' is clipped to the training three-sigma bound, then scaled with
        # training mean/std; recompute the whole chain as an oracle.
        imputed = [1.0, 2.0, p.imputer.medians["a"], 4.0]
        arr = np.array(imputed)
        upper = arr.mean() + 3 * arr.std()
        clipped = np.clip(arr, arr.mean() - 3 * arr.std(), upper)
        want = (min(100.0, upper) - clipped.mean()) / clipped.std()
        assert m.values[0, 0] == pytest.approx(want, rel=1e-12)

    def test_empty_table_transforms_to_zero_rows(self):
        t = sample_table()
        p = fit_pipeline(t)
        empty = table(num_col("a", []), cat_col("c", []), num_col("b", []))
        m = transform(p, empty)
        assert m.values.shape == (0, 4)

    def test_schema_mismatch_rejected(self):
        p = fit_pipeline(sample_table())
        with pytest.raises(SchemaError, match="schema"):
            transform(p, table(num_col("a", [1.0])))

    @pytest.mark.parametrize(
        "cols, expected",
        [
            (
                (num_col("a", [1.0]), cat_col("c", ["x"]), cat_col("b", ["oops"])),
                "pipeline: column 'b' is categorical, fitted as numeric$",
            ),
            ((num_col("a", [1.0]), cat_col("c", ["x"])), "pipeline: column 'b' is missing$"),
            (
                (num_col("a", [1.0]), cat_col("c", ["x"]), num_col("b", [1.0]),
                 num_col("z", [1.0])),
                "pipeline: unexpected column 'z'$",
            ),
            (
                (cat_col("c", ["x"]), num_col("a", [1.0]), num_col("b", [1.0])),
                "pipeline: the columns are in a different order$",
            ),
        ],
    )
    def test_schema_mismatch_names_first_differing_column(self, cols, expected):
        p = fit_pipeline(sample_table())
        with pytest.raises(SchemaError, match=expected):
            transform(p, table(*cols))

    def test_json_round_trip(self):
        t = sample_table()
        p = fit_pipeline(t)
        back = pipeline_from_doc(pipeline_to_doc(p))
        assert back.feature_names == p.feature_names
        assert np.array_equal(transform(back, t).values, transform(p, t).values)

    def test_stage_order_recorded(self):
        doc = pipeline_to_doc(fit_pipeline(sample_table()))
        assert doc["stage_order"] == list(STAGE_ORDER)

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tables import cat_col, num_col, table

from riskforge.errors import DataError, SchemaError
from riskforge.preprocess import (
    FittedPipeline,
    fit_pipeline,
    pipeline_from_doc,
    pipeline_to_doc,
    transform,
)


def fit_transform(values, held_out=None):
    """The pipeline fitted on one numeric column ``x`` and the column it
    transforms ``held_out`` (default: the fit values) into."""
    p = fit_pipeline(table(num_col("x", values)))
    rows = values if held_out is None else held_out
    return p, transform(p, table(num_col("x", rows)))[:, 0].tolist()


class TestImputer:
    def test_median_of_two(self):
        assert fit_pipeline(table(num_col("x", [1.0, None, 3.0]))).medians["x"] == 2.0

    def test_median_is_outlier_robust(self):
        assert fit_pipeline(table(num_col("x", [1.0, 2.0, 100.0]))).medians["x"] == 2.0

    def test_mode_max_frequency(self):
        assert fit_pipeline(table(cat_col("c", ["a", "b", "b", None]))).modes["c"] == "b"

    def test_mode_tie_breaks_lexicographic(self):
        assert fit_pipeline(table(cat_col("c", ["b", "a", "a", "b"]))).modes["c"] == "a"

    def test_all_missing_column_rejected(self):
        with pytest.raises(DataError, match="'x'"):
            fit_pipeline(table(num_col("x", [None, None])))

    def test_apply_fills_and_preserves(self):
        p, out = fit_transform([1.0, None, 3.0])
        mean, std = p.scales["x"]
        assert out == [(v - mean) / std for v in (1.0, 2.0, 3.0)]

    def test_apply_identity_when_complete(self):
        p, out = fit_transform([4.0, 5.0])
        mean, std = p.scales["x"]
        assert out == [(v - mean) / std for v in (4.0, 5.0)]


class TestClipper:
    def test_outlier_capped_at_three_sigma(self):
        # Oracle: population mean/std straight from numpy on the fit data.
        arr = np.array([0.0] * 100 + [1000.0])
        upper = arr.mean() + 3 * arr.std()
        p, out = fit_transform(arr.tolist())
        mean, std = p.scales["x"]
        assert p.bounds["x"][3] == pytest.approx(upper, rel=1e-12)
        assert p.bounds["x"][3] == pytest.approx(306.930693, abs=1e-5)
        assert out[-1] == (p.bounds["x"][3] - mean) / std

    def test_constant_column_unchanged(self):
        p, out = fit_transform([5.0, 5.0, 5.0])
        assert p.bounds["x"] == (5.0, 0.0, 5.0, 5.0)
        assert p.scales["x"] == (5.0, 0.0)
        assert out == [0.0, 0.0, 0.0]

    def test_values_within_bounds_unchanged(self):
        p, out = fit_transform([1.0, 2.0, 3.0])
        assert p.scales["x"] == p.bounds["x"][:2]  # clipping moved no value
        mean, std = p.scales["x"]
        assert out == [(v - mean) / std for v in (1.0, 2.0, 3.0)]

    def test_all_values_end_inside_fit_bounds(self):
        rng = np.random.default_rng(5)
        fit_vals = list(rng.normal(size=50))
        p, out = fit_transform(fit_vals, list(rng.normal(scale=10, size=50)))
        _, _, lower, upper = p.bounds["x"]
        mean, std = p.scales["x"]
        # Standardizing is monotonic, so clipped values land inside the scaled bounds.
        assert all((lower - mean) / std <= v <= (upper - mean) / std for v in out)
        assert min(out) == (lower - mean) / std and max(out) == (upper - mean) / std


class TestEncoder:
    def test_indicator_for_seen_category(self):
        p = fit_pipeline(table(cat_col("c", ["a", "b", "c"])))
        assert transform(p, table(cat_col("c", ["b"]))).tolist() == [[0.0, 1.0, 0.0]]

    def test_unseen_category_all_zero(self):
        p = fit_pipeline(table(cat_col("c", ["a", "b", "c"])))
        assert transform(p, table(cat_col("c", ["z"]))).tolist() == [[0.0, 0.0, 0.0]]

    def test_output_width_is_additive(self):
        p = fit_pipeline(table(cat_col("c1", ["a", "b", "a"]), cat_col("c2", ["x", "y", "z"])))
        out = transform(p, table(cat_col("c1", ["a"]), cat_col("c2", ["x"])))
        assert out.shape == (1, 5)
        assert p.feature_names == ("c1=a", "c1=b", "c2=x", "c2=y", "c2=z")

    def test_row_sum_one_for_seen(self):
        p = fit_pipeline(table(cat_col("c", ["a", "b"])))
        out = transform(p, table(cat_col("c", ["a", "b", "a"])))
        assert out.sum(axis=1).tolist() == [1.0, 1.0, 1.0]


class TestScaler:
    def test_population_sigma(self):
        # Oracle: population std from numpy.
        vals = [2.0, 4.0, 6.0]
        sd = float(np.std(vals))
        p, out = fit_transform(vals)
        assert sd == pytest.approx(1.632993, abs=1e-6)
        assert p.scales["x"] == (4.0, sd)
        assert out == pytest.approx([(v - 4.0) / sd for v in vals])
        assert out[0] == pytest.approx(-1.224745, abs=1e-6)

    def test_constant_column_zeros(self):
        assert fit_transform([7.0, 7.0])[1] == [0.0, 0.0]

    def test_refit_of_standardized_is_identity(self):
        _, once = fit_transform([2.0, 4.0, 6.0])
        _, twice = fit_transform(once)
        for a, b in zip(once, twice):
            assert abs(a - b) < 1e-12

    def test_overflow_when_standardized_rejected(self):
        p = FittedPipeline(
            {"x": 0.0}, {}, {"x": (0.0, 1.0, -1e300, 1e300)}, {}, {"x": (0.0, 1e-300)},
            (("x", "numeric"),), ("x",),
        )
        with pytest.raises(DataError, match="'x' has values too large"):
            transform(p, table(num_col("x", [1e300])))


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
    present = sorted(v for v in values if v is not None)
    mid = len(present) // 2
    median = present[mid] if len(present) % 2 else (present[mid - 1] + present[mid]) / 2.0
    p, out = fit_transform(values)
    assert repr(p.medians["x"]) == repr(median)
    want = [median if v is None else v for v in values]
    mean, std, lower, upper = p.bounds["x"]
    assert repr((mean, std)) == repr((float(np.mean(want)), float(np.std(want))))
    assert repr((lower, upper)) == repr((mean - 3 * std, mean + 3 * std))
    want = [min(max(v, lower), upper) for v in want]
    assert repr(p.scales["x"]) == repr((float(np.mean(want)), float(np.std(want))))
    mean, std = p.scales["x"]
    want = [(v - mean) / (std if std > 0 else 1.0) for v in want]
    assert list(map(repr, out)) == list(map(repr, want))


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
    p = fit_pipeline(t)
    assert p.modes["c"] == mode
    imputed = [mode if v is None else v for v in values]
    vocabulary = tuple(sorted(set(imputed)))
    assert p.vocabularies["c"] == vocabulary
    assert p.feature_names == tuple(f"c={cat}" for cat in vocabulary)
    held = table(cat_col("c", held_out))
    for rows, out in ((imputed, transform(p, t)), (held_out, transform(p, held))):
        for j, cat in enumerate(vocabulary):
            want = [1.0 if v == cat else 0.0 for v in rows]
            assert list(map(repr, out[:, j].tolist())) == list(map(repr, want))


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
        assert np.array_equal(transform(p, t), transform(p, t))

    def test_no_missing_and_fixed_width(self):
        t = sample_table()
        m = transform(fit_pipeline(t), t)
        assert m.shape == (4, 4)
        assert np.all(np.isfinite(m))

    def test_scaled_columns_have_unit_population_std(self):
        t = sample_table()
        p = fit_pipeline(t)
        m = transform(p, t)
        for j, name in enumerate(p.feature_names):
            col = m[:, j]
            if name in ("a", "b") and col.std() > 0:
                assert abs(col.mean()) < 1e-9
                assert abs(col.std() - 1.0) < 1e-9

    def test_one_hot_rows_still_binary_after_scale(self):
        t = sample_table()
        m = transform(fit_pipeline(t), t)
        onehot = m[:, [1, 2]]
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
        imputed = [1.0, 2.0, p.medians["a"], 4.0]
        arr = np.array(imputed)
        upper = arr.mean() + 3 * arr.std()
        clipped = np.clip(arr, arr.mean() - 3 * arr.std(), upper)
        want = (min(100.0, upper) - clipped.mean()) / clipped.std()
        assert m[0, 0] == pytest.approx(want, rel=1e-12)

    def test_empty_table_transforms_to_zero_rows(self):
        t = sample_table()
        p = fit_pipeline(t)
        empty = table(num_col("a", []), cat_col("c", []), num_col("b", []))
        assert transform(p, empty).shape == (0, 4)

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
        assert back == p
        assert np.array_equal(transform(back, t), transform(p, t))

    def test_stage_order_recorded(self):
        doc = pipeline_to_doc(fit_pipeline(sample_table()))
        assert doc["stage_order"] == ["impute", "clip", "encode", "scale"]

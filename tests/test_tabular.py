import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tables import cat_col, cells, num_col, table

from riskforge.errors import CsvError, DataError, SchemaError
from riskforge.tabular import (
    AggregationSpec,
    Column,
    ColumnKind,
    Statistic,
    aggregate_merge,
    read_csv,
    select_columns,
    write_csv,
)


class TestReadCsv:
    def test_empty_field_is_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,amt\n1,10\n2,\n")
        t = read_csv(p)
        amt = t.column("amt")
        assert amt.kind is ColumnKind.NUMERIC
        assert cells(amt) == (10.0, None)
        assert t.column("id").kind is ColumnKind.NUMERIC

    def test_na_token_is_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x\nNA\n3\n")
        assert cells(read_csv(p).column("x")) == (None, 3.0)

    def test_non_numeric_forces_categorical(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,grade\n1,a\n2,b\n")
        col = read_csv(p).column("grade")
        assert col.kind is ColumnKind.CATEGORICAL
        assert set(cells(col)) - {None} == {"a", "b"}

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2,3\n")
        with pytest.raises(CsvError, match="row 2"):
            read_csv(p)

    def test_duplicate_header_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(CsvError, match="duplicate"):
            read_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvError, match="nope.csv"):
            read_csv(tmp_path / "nope.csv")

    def test_nan_and_inf_become_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x\nNaN\ninf\n1.5\n")
        col = read_csv(p).column("x")
        assert col.kind is ColumnKind.NUMERIC
        assert cells(col) == (None, None, 1.5)

    def test_schema_hint_forces_categorical(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id\n1\n2\n")
        col = read_csv(p, schema_hint={"id": ColumnKind.CATEGORICAL}).column("id")
        assert col.kind is ColumnKind.CATEGORICAL
        assert cells(col) == ("1", "2")

    def test_table_name_from_stem(self, tmp_path):
        p = tmp_path / "bureau.csv"
        p.write_text("x\n1\n")
        assert read_csv(p).name == "bureau"


num_cells = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
text_cells = st.one_of(st.none(), st.text(alphabet="abcxyz_0", min_size=1, max_size=6))


@settings(max_examples=40, deadline=None)
@given(
    nums=st.lists(num_cells, min_size=0, max_size=8),
    texts=st.lists(text_cells, min_size=0, max_size=8),
)
def test_write_read_round_trip(tmp_path_factory, nums, texts):
    n = max(len(nums), len(texts))
    nums = nums + [None] * (n - len(nums))
    texts = texts + [None] * (n - len(texts))
    t = table(num_col("n", nums), cat_col("c", texts))
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv(t, path)
    back = read_csv(
        path, schema_hint={"n": ColumnKind.NUMERIC, "c": ColumnKind.CATEGORICAL}
    )
    assert cells(back.column("n")) == cells(t.column("n"))
    assert cells(back.column("c")) == cells(t.column("c"))


class TestAggregateMerge:
    def spec(self, stats=None):
        return AggregationSpec(
            "id",
            ("amt",),
            tuple(stats or (
                Statistic.MEAN, Statistic.MAX, Statistic.MIN,
                Statistic.SUM, Statistic.COUNT, Statistic.STD,
            )),
        )

    def test_statistics_against_hand_oracle(self):
        # Oracle: plain python arithmetic over the matched values.
        values = [10.0, 30.0]
        base = table(num_col("id", [1.0]))
        aux = table(num_col("id", [1.0, 1.0]), num_col("amt", values), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        assert cells(out.column("aux_amt_MEAN"))[0] == sum(values) / 2
        assert cells(out.column("aux_amt_MAX"))[0] == max(values)
        assert cells(out.column("aux_amt_MIN"))[0] == min(values)
        assert cells(out.column("aux_amt_SUM"))[0] == sum(values)
        assert cells(out.column("aux_amt_COUNT"))[0] == 2.0
        assert cells(out.column("aux_amt_STD"))[0] == pytest.approx(
            statistics.stdev(values)  # sample std, n-1 divisor
        )
        assert cells(out.column("aux_amt_STD"))[0] == pytest.approx(14.1421, abs=1e-4)

    def test_no_match_gives_missing_and_zero_count(self):
        base = table(num_col("id", [7.0]))
        aux = table(num_col("id", [1.0]), num_col("amt", [5.0]), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        assert cells(out.column("aux_amt_MEAN"))[0] is None
        assert cells(out.column("aux_amt_COUNT"))[0] == 0.0

    def test_single_row_std_missing(self):
        base = table(num_col("id", [2.0]))
        aux = table(num_col("id", [2.0]), num_col("amt", [5.0]), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        for stat in ("MEAN", "MAX", "MIN", "SUM"):
            assert cells(out.column(f"aux_amt_{stat}"))[0] == 5.0
        assert cells(out.column("aux_amt_COUNT"))[0] == 1.0
        assert cells(out.column("aux_amt_STD"))[0] is None

    def test_missing_aux_cells_ignored(self):
        base = table(num_col("id", [1.0]))
        aux = table(num_col("id", [1.0, 1.0]), num_col("amt", [4.0, None]), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        assert cells(out.column("aux_amt_MEAN"))[0] == 4.0
        assert cells(out.column("aux_amt_COUNT"))[0] == 1.0

    def test_row_count_preserved_and_base_untouched(self):
        base = table(num_col("id", [1.0, 2.0, 3.0]), num_col("v", [9.0, 8.0, 7.0]))
        aux = table(num_col("id", [1.0]), num_col("amt", [5.0]), name="aux")
        out = aggregate_merge(base, aux, self.spec((Statistic.MEAN,)))
        assert out.row_count == 3
        assert cells(out.column("v")) == (9.0, 8.0, 7.0)
        assert base.column_names == ["id", "v"]

    def test_key_absent(self):
        base = table(num_col("other", [1.0]))
        aux = table(num_col("id", [1.0]), num_col("amt", [5.0]))
        with pytest.raises(SchemaError, match="key column"):
            aggregate_merge(base, aux, self.spec())

    def test_value_column_not_numeric(self):
        base = table(num_col("id", [1.0]))
        aux = table(num_col("id", [1.0]), cat_col("amt", ["x"]))
        with pytest.raises(SchemaError, match="not numeric"):
            aggregate_merge(base, aux, self.spec())

    def test_empty_statistics_rejected(self):
        with pytest.raises(DataError):
            AggregationSpec("id", ("amt",), ())


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.floats(-100, 100)), min_size=1, max_size=30
    ),
    st.randoms(use_true_random=False),
)
def test_merge_invariants(pairs, rnd):
    base = table(num_col("id", [0.0, 1.0, 2.0, 3.0, 4.0]))
    spec = AggregationSpec(
        "id", ("amt",), (Statistic.MEAN, Statistic.SUM, Statistic.COUNT)
    )
    aux_rows = list(pairs)
    out = aggregate_merge(
        base,
        table(
            num_col("id", [float(k) for k, _ in aux_rows]),
            num_col("amt", [v for _, v in aux_rows]),
            name="a",
        ),
        spec,
    )
    # Sum = Mean * Count wherever Count > 0 (1e-9 relative).
    for mean, total, count in zip(
        cells(out.column("a_amt_MEAN")),
        cells(out.column("a_amt_SUM")),
        cells(out.column("a_amt_COUNT")),
    ):
        if count > 0:
            assert total == pytest.approx(mean * count, rel=1e-9, abs=1e-9)
        else:
            assert mean is None and total is None
    # Row-order independence of the aux table.
    rnd.shuffle(aux_rows)
    out2 = aggregate_merge(
        base,
        table(
            num_col("id", [float(k) for k, _ in aux_rows]),
            num_col("amt", [v for _, v in aux_rows]),
            name="a",
        ),
        spec,
    )
    for name in ("a_amt_MEAN", "a_amt_SUM", "a_amt_COUNT"):
        got, want = cells(out2.column(name)), cells(out.column(name))
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g == pytest.approx(w, rel=1e-12)


def _merge_reference(base_keys, aux_keys, amounts, stat):
    """The per-cell merge: aux values listed per key in row order, Python statistics."""
    groups = {}
    for key, v in zip(aux_keys, amounts):
        if key is not None and v is not None:
            groups.setdefault(key, []).append(v)
    out = []
    for key in base_keys:
        vs = groups.get(key, []) if key is not None else []
        if stat is Statistic.COUNT:
            out.append(float(len(vs)))
        elif not vs or (stat is Statistic.STD and len(vs) < 2):
            out.append(None)
        elif stat is Statistic.STD:
            mean = sum(vs) / len(vs)
            out.append(math.sqrt(sum((v - mean) ** 2 for v in vs) / (len(vs) - 1)))
        else:
            fn = {Statistic.MEAN: lambda x: sum(x) / len(x), Statistic.MAX: max,
                  Statistic.MIN: min, Statistic.SUM: sum}[stat]
            out.append(fn(vs))
    return out


amounts = st.one_of(st.none(), st.sampled_from([0.0, -0.0]), st.floats(-1e9, 1e9))
_rng = random.Random(3)
LONG_GROUP = [_rng.uniform(-1e3, 1e3) for _ in range(20)]


@settings(max_examples=60, deadline=None)
@example(  # one long group: numpy's pairwise sum rounds differently from sum()
    base_keys=["a"], aux=[("a", v) for v in LONG_GROUP], numeric_keys=False
)
@given(
    base_keys=st.lists(st.one_of(st.none(), st.sampled_from("abcdef")), max_size=8),
    aux=st.lists(st.tuples(st.one_of(st.none(), st.sampled_from("abcdefg")), amounts),
                 max_size=40),
    numeric_keys=st.booleans(),
)
def test_merge_matches_per_cell_reference(base_keys, aux, numeric_keys):
    """Bit for bit, signed zeros included, for categorical and numeric keys."""
    key = (lambda k: None if k is None else float(ord(k))) if numeric_keys else (lambda k: k)
    key_col = num_col if numeric_keys else cat_col
    base = table(key_col("id", [key(k) for k in base_keys]))
    aux_table = table(
        key_col("id", [key(k) for k, _ in aux]), num_col("amt", [v for _, v in aux]), name="a"
    )
    out = aggregate_merge(base, aux_table, AggregationSpec("id", ("amt",), tuple(Statistic)))
    for stat in Statistic:
        want = _merge_reference(base_keys, [k for k, _ in aux], [v for _, v in aux], stat)
        got = cells(out.column(f"a_amt_{stat.name}"))
        assert list(map(repr, got)) == list(map(repr, want))


class TestSelectColumns:
    def test_projection(self):
        t = table(num_col("id", [1.0, 2.0]), num_col("v", [3.0, 4.0]))
        out = select_columns(t, ["id"])
        assert out.column_names == ["id"]
        assert out.row_count == 2

    def test_identity(self):
        t = table(num_col("id", [1.0]), num_col("v", [3.0]))
        out = select_columns(t, ["id", "v"])
        assert out.column_names == t.column_names
        assert cells(out.column("v")) == cells(t.column("v"))

    def test_reorder(self):
        t = table(num_col("id", [1.0]), num_col("v", [3.0]))
        assert select_columns(t, ["v", "id"]).column_names == ["v", "id"]

    def test_unknown_name(self):
        t = table(num_col("id", [1.0]))
        with pytest.raises(SchemaError, match="ghost"):
            select_columns(t, ["ghost"])


class TestTableInvariants:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            table(num_col("a", [1.0]), num_col("a", [2.0]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(SchemaError, match="length"):
            table(num_col("a", [1.0]), num_col("b", [1.0, 2.0]))

    def test_non_finite_cell_rejected(self):
        with pytest.raises(DataError):
            num_col("a", [math.inf])

    def test_categorical_cells_are_strings(self):
        with pytest.raises(DataError):
            cat_col("a", [1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_numeric_array_with_infinity_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            Column("a", ColumnKind.NUMERIC, np.array([1.0, bad]))

    def test_categorical_is_sorted_vocabulary_plus_codes(self):
        col = cat_col("c", ["b", None, "a", "b"])
        assert col.vocabulary == ("a", "b")
        assert col.values.tolist() == [1, -1, 0, 1]
        assert cells(col) == ("b", None, "a", "b")

    def test_categorical_code_out_of_range_rejected(self):
        with pytest.raises(DataError, match="out-of-range"):
            Column("c", ColumnKind.CATEGORICAL, np.array([0, 2]), ("a", "b"))

import csv
import math
import random
import tracemalloc

import numpy as np
import pytest
from csv_oracle import read_csv_whole
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tables import cat_col, cells, num_col, table

from riskforge import tabular
from riskforge.cli import read_matrix_csv
from riskforge.errors import CsvError, DataError, SchemaError
from riskforge.tabular import (
    AggregationSpec,
    Column,
    ColumnKind,
    Statistic,
    aggregate_merge,
    read_csv,
    select_columns,
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
        path = tmp_path / "nope.csv"
        with pytest.raises(CsvError) as exc:
            read_csv(path)
        assert str(exc.value) == f"cannot read {path}: No such file or directory"

    def test_nan_and_inf_become_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x\nNaN\ninf\n1.5\n")
        col = read_csv(p).column("x")
        assert col.kind is ColumnKind.NUMERIC
        assert cells(col) == (None, None, 1.5)

    def test_schema_hint_forces_categorical(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id\n1\n2\n")
        col = read_csv(p, categorical=["id"]).column("id")
        assert col.kind is ColumnKind.CATEGORICAL
        assert cells(col) == ("1", "2")

    def test_table_name_from_stem(self, tmp_path):
        p = tmp_path / "bureau.csv"
        p.write_text("x\n1\n")
        assert read_csv(p).name == "bureau"


#: ``CHUNK_ROWS`` in the tests of the streamed reader, so that a few rows span chunks.
CHUNK = 4


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(tabular, "CHUNK_ROWS", CHUNK)


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _outcome(read, path, categorical):
    """The table ``read`` returns, down to every value's bytes, or its error message."""
    try:
        t = read(path, categorical)
    except CsvError as exc:
        return f"CsvError: {exc}"
    return t.name, [
        (c.name, c.kind, c.values.dtype, c.values.tobytes(), c.vocabulary) for c in t.columns
    ]


def assert_same_as_whole_file(path, categorical=()):
    got = _outcome(read_csv, path, categorical)
    assert got == _outcome(read_csv_whole, path, categorical)
    return got


#: Fields a random file draws from: numbers (some that only Python's float
#: reads), missing and non-finite tokens, and text with quotes, commas,
#: newlines and a NUL, which the packed chunk text must survive.
NUMBER_FIELDS = ["0", "1", "-2.5", "1e3", " 7", "1_000", "3.0000000000000004", "1e308"]
TOKEN_FIELDS = ["", "NA", "NaN", "nan", "inf", "-inf", "Infinity"]
TEXT_FIELDS = ["a", "b", "b,c", "d\ne", 'q"t', "x\0y", "na", "\0", "é"]


@pytest.mark.usefixtures("small_chunks")
class TestStreamedReadCsv:
    """The chunked reader against the whole-file reader it replaced: the
    same table, bit for bit, or the same error message."""

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 5, 7, 8, 9, 12, 13])
    def test_row_counts_around_chunk_boundaries(self, tmp_path, n_rows):
        rows = [["id", "x", "grade"]] + [
            [str(i), NUMBER_FIELDS[i % 8], TEXT_FIELDS[i % 3]] for i in range(n_rows)
        ]
        name, columns = assert_same_as_whole_file(_write_rows(tmp_path / "t.csv", rows))
        assert name == "t" and len(columns) == 3

    @pytest.mark.parametrize("row", [0, 3, 4, 5, 8, 10])
    def test_first_text_in_later_chunk_makes_column_categorical(self, tmp_path, row):
        fields = [NUMBER_FIELDS[i % 8] for i in range(11)]
        fields[row] = "x\0y"  # packed chunks of this column hold no NUL before it
        path = _write_rows(tmp_path / "t.csv", [["v"]] + [[f] for f in fields])
        _, [(_, kind, _, _, vocabulary)] = assert_same_as_whole_file(path)
        assert kind is ColumnKind.CATEGORICAL and "x\0y" in vocabulary

    @pytest.mark.parametrize("row", [2, 5, 9])
    def test_ragged_row_in_later_chunk(self, tmp_path, row):
        rows = [["a", "b"]] + [[str(i), "x"] for i in range(10)]
        rows[row].append("extra")
        path = _write_rows(tmp_path / "t.csv", rows)
        # An unknown categorical name is reported after the ragged row.
        message = assert_same_as_whole_file(path, ["unknown"])
        assert message.endswith(f"row {row + 1} has 3 fields, expected 2")

    def test_quoted_commas_newlines_and_nul(self, tmp_path):
        rows = [["k", "t"]] + [[str(i), TEXT_FIELDS[i % len(TEXT_FIELDS)]] for i in range(11)]
        path = _write_rows(tmp_path / "t.csv", rows)
        _, columns = assert_same_as_whole_file(path, ["k"])
        assert set(TEXT_FIELDS) <= set(columns[1][4])

    def test_missing_and_nonfinite_tokens(self, tmp_path):
        rows = [["x"]] + [[TOKEN_FIELDS[i % 7]] for i in range(9)] + [["1.5"]]
        path = _write_rows(tmp_path / "t.csv", rows)
        _, [(_, kind, _, values, _)] = assert_same_as_whole_file(path)
        assert kind is ColumnKind.NUMERIC
        assert np.isnan(np.frombuffer(values)[:-1]).all()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_files_match_whole_file_reader(self, tmp_path, seed):
        rng = random.Random(seed)
        n_cols, n_rows = rng.randint(1, 4), rng.randint(0, 3 * CHUNK + 2)
        header = [f"c{j}" for j in range(n_cols)]
        if rng.random() < 0.1:
            header[-1] = header[0]
        pools = [NUMBER_FIELDS + TOKEN_FIELDS, TEXT_FIELDS + TOKEN_FIELDS]
        columns = []
        for _ in header:
            kind = rng.choice(["numeric", "text", "late-text"])
            column = [rng.choice(pools[kind == "text"]) for _ in range(n_rows)]
            if kind == "late-text" and n_rows:
                column[rng.randrange(n_rows)] = rng.choice(TEXT_FIELDS)
            columns.append(column)
        rows = [list(r) for r in zip(*columns)] if columns[0] else [[] for _ in range(n_rows)]
        if n_rows and rng.random() < 0.2:
            row = rows[rng.randrange(n_rows)]
            if rng.random() < 0.5:
                row.append("x")
            else:
                row.pop()
        categorical = [name for name in header if rng.random() < 0.3]
        if rng.random() < 0.1:
            categorical.append("unknown")
        path = _write_rows(tmp_path / "t.csv", [header] + rows)
        assert_same_as_whole_file(path, categorical)

    def test_header_only_and_empty_file(self, tmp_path):
        path = _write_rows(tmp_path / "t.csv", [["a", "b"]])
        _, columns = assert_same_as_whole_file(path, ["b"])
        assert [c[1] for c in columns] == [ColumnKind.NUMERIC, ColumnKind.CATEGORICAL]
        (tmp_path / "e.csv").write_text("")
        assert "empty file" in assert_same_as_whole_file(tmp_path / "e.csv")


def _traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    """No reader holds a whole file as Python strings (20,000 x 10 numbers)."""

    @pytest.fixture(scope="class")
    def numeric_csv(self, tmp_path_factory):
        x = np.random.default_rng(3).normal(size=(20_000, 10))
        path = tmp_path_factory.mktemp("mem") / "x.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f"f{j}" for j in range(10)) + "\r\n")
            fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in x)
        return path, x

    def test_read_matrix_csv_peak_under_twice_the_array(self, numeric_csv):
        path, x = numeric_csv
        (_, matrix), peak = _traced_peak(read_matrix_csv, path)
        assert np.array_equal(matrix, x)
        assert peak < 2 * matrix.nbytes

    def test_read_csv_peak_under_half_the_whole_file_reader(self, numeric_csv):
        path, _ = numeric_csv
        table, peak = _traced_peak(read_csv, path)
        _, whole_peak = _traced_peak(read_csv_whole, path)
        assert table.row_count == 20_000
        assert peak < whole_peak / 2


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
    with open(path, "w", encoding="utf-8", newline="") as fh:  # missing cells as empty fields
        writer = csv.writer(fh)
        writer.writerow(["n", "c"])
        writer.writerows([("" if v is None else v for v in row) for row in zip(nums, texts)])
    back = read_csv(path, categorical=["c"])
    assert cells(back.column("n")) == cells(t.column("n"))
    assert cells(back.column("c")) == cells(t.column("c"))


class TestAggregateMerge:
    def spec(self, stats=None):
        return AggregationSpec(
            "id",
            ("amt",),
            tuple(stats or (Statistic.MEAN, Statistic.MAX, Statistic.SUM, Statistic.COUNT)),
        )

    def test_statistics_against_hand_oracle(self):
        # Oracle: plain python arithmetic over the matched values.
        values = [10.0, 30.0]
        base = table(cat_col("id", ["1"]))
        aux = table(cat_col("id", ["1", "1"]), num_col("amt", values), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        assert cells(out.column("aux_amt_MEAN"))[0] == sum(values) / 2
        assert cells(out.column("aux_amt_MAX"))[0] == max(values)
        assert cells(out.column("aux_amt_SUM"))[0] == sum(values)
        assert cells(out.column("aux_amt_COUNT"))[0] == 2.0

    def test_no_match_gives_missing_and_zero_count(self):
        base = table(cat_col("id", ["7"]))
        aux = table(cat_col("id", ["1"]), num_col("amt", [5.0]), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        assert cells(out.column("aux_amt_MEAN"))[0] is None
        assert cells(out.column("aux_amt_COUNT"))[0] == 0.0

    def test_single_row(self):
        base = table(cat_col("id", ["2"]))
        aux = table(cat_col("id", ["2"]), num_col("amt", [5.0]), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        for stat in ("MEAN", "MAX", "SUM"):
            assert cells(out.column(f"aux_amt_{stat}"))[0] == 5.0
        assert cells(out.column("aux_amt_COUNT"))[0] == 1.0

    def test_missing_aux_cells_ignored(self):
        base = table(cat_col("id", ["1"]))
        aux = table(cat_col("id", ["1", "1"]), num_col("amt", [4.0, None]), name="aux")
        out = aggregate_merge(base, aux, self.spec())
        assert cells(out.column("aux_amt_MEAN"))[0] == 4.0
        assert cells(out.column("aux_amt_COUNT"))[0] == 1.0

    def test_row_count_preserved_and_base_untouched(self):
        base = table(cat_col("id", ["1", "2", "3"]), num_col("v", [9.0, 8.0, 7.0]))
        aux = table(cat_col("id", ["1"]), num_col("amt", [5.0]), name="aux")
        out = aggregate_merge(base, aux, self.spec((Statistic.MEAN,)))
        assert out.row_count == 3
        assert cells(out.column("v")) == (9.0, 8.0, 7.0)
        assert base.column_names == ["id", "v"]

    def test_key_absent(self):
        base = table(cat_col("other", ["1"]))
        aux = table(cat_col("id", ["1"]), num_col("amt", [5.0]))
        with pytest.raises(SchemaError, match="key column"):
            aggregate_merge(base, aux, self.spec())

    @pytest.mark.parametrize("numeric", ["base", "aux"])
    def test_numeric_key_rejected(self, numeric):
        key = {side: cat_col("id", ["1"]) for side in ("base", "aux")}
        key[numeric] = num_col("id", [1.0])
        base = table(key["base"])
        aux = table(key["aux"], num_col("amt", [5.0]))
        with pytest.raises(SchemaError, match="key column 'id' must be text"):
            aggregate_merge(base, aux, self.spec())

    def test_value_column_not_numeric(self):
        base = table(cat_col("id", ["1"]))
        aux = table(cat_col("id", ["1"]), cat_col("amt", ["x"]))
        with pytest.raises(SchemaError, match="not numeric"):
            aggregate_merge(base, aux, self.spec())

    def test_empty_statistics_rejected(self):
        with pytest.raises(DataError):
            AggregationSpec("id", ("amt",), ())

    def test_peak_memory_of_a_book_sized_merge(self):
        """28,000 aux rows, two value columns, into 12,000 base rows: no
        Python object per aux value."""
        rng = np.random.default_rng(5)
        ids = [str(100_000 + i) for i in range(14_000)]  # 2,000 aux keys match no base row
        keys = np.sort(rng.integers(0, len(ids), size=28_000))
        base = table(cat_col("id", ids[:12_000]))
        aux = table(
            cat_col("id", [ids[k] for k in keys]),
            num_col("a", rng.normal(size=28_000).tolist()),
            num_col("b", rng.normal(size=28_000).tolist()),
            name="bureau",
        )
        spec = AggregationSpec("id", ("a", "b"), (Statistic.MEAN, Statistic.MAX, Statistic.COUNT))
        out, peak = _traced_peak(aggregate_merge, base, aux, spec)
        assert out.row_count == 12_000
        assert peak < 2.5 * 2**20


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.floats(-100, 100)), min_size=1, max_size=30
    ),
    st.randoms(use_true_random=False),
)
def test_merge_invariants(pairs, rnd):
    base = table(cat_col("id", list("01234")))
    spec = AggregationSpec(
        "id", ("amt",), (Statistic.MEAN, Statistic.SUM, Statistic.COUNT)
    )
    aux_rows = list(pairs)
    out = aggregate_merge(
        base,
        table(
            cat_col("id", [str(k) for k, _ in aux_rows]),
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
            cat_col("id", [str(k) for k, _ in aux_rows]),
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
    """The per-cell merge: aux values listed per key in row order, added left
    to right from 0.0 in a plain loop (``sum()`` of floats is compensated on
    Python 3.12+), and Python's ``max``."""

    def total(vs):
        out = 0.0
        for v in vs:
            out += v
        return out

    groups = {}
    for key, v in zip(aux_keys, amounts):
        if key is not None and v is not None:
            groups.setdefault(key, []).append(v)
    out = []
    for key in base_keys:
        vs = groups.get(key, []) if key is not None else []
        if stat is Statistic.COUNT:
            out.append(float(len(vs)))
        elif not vs:
            out.append(None)
        else:
            fn = {Statistic.MEAN: lambda x: total(x) / len(x), Statistic.MAX: max,
                  Statistic.SUM: total}[stat]
            out.append(fn(vs))
    return out


amounts = st.one_of(st.none(), st.sampled_from([0.0, -0.0]), st.floats(-1e9, 1e9))
_rng = random.Random(3)
LONG_GROUP = [_rng.uniform(-1e3, 1e3) for _ in range(20)]


@settings(max_examples=60, deadline=None)
@example(  # one long group: numpy's pairwise sum rounds differently from sum()
    base_keys=["a"], aux=[("a", v) for v in LONG_GROUP],
)
# Equal signed zeros: max() keeps the first, ufunc.at the later.
@example(base_keys=["a"], aux=[("a", 0.0), ("a", -0.0)])
@example(base_keys=["a"], aux=[("a", -0.0), ("a", 0.0)])
@example(base_keys=["a", "b"], aux=[("b", -1.0), ("a", -0.0), ("b", 0.0), ("a", 0.0), ("b", -0.0)])
@given(
    base_keys=st.lists(st.one_of(st.none(), st.sampled_from("abcdef")), max_size=8),
    aux=st.lists(st.tuples(st.one_of(st.none(), st.sampled_from("abcdefg")), amounts),
                 max_size=40),
)
def test_merge_matches_per_cell_reference(base_keys, aux):
    """Bit for bit, signed zeros included."""
    base = table(cat_col("id", base_keys))
    aux_table = table(
        cat_col("id", [k for k, _ in aux]), num_col("amt", [v for _, v in aux]), name="a"
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

    def test_categorical_cells_are_strings(self, tmp_path):
        # A column read as categorical keeps each field's text, even where
        # the text is a number; an empty field is missing.
        p = tmp_path / "t.csv"
        p.write_text('id\n1.50\n007\n""\n')
        col = read_csv(p, categorical=["id"]).column("id")
        assert col.vocabulary == ("007", "1.50")
        assert col.strings() == ["1.50", "007", None]

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

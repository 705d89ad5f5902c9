import codecs
import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beveridge_accounting import (MonthDate, MonthlySeries, floatrepr, read_panel,
                                  write_panel)
from beveridge_accounting.cli import main
from beveridge_accounting.csvio import (SchemaError, _column_cells, _dates, _read_plain,
                                        require_columns, write_table)
from beveridge_accounting.floatrepr import _BLOCK, parse_floats

MIXED = {"x": np.array([np.nan, 0.1 + 0.2, -0.0, 1e-300]),
         "name": ["a", "b", "", "d"]}


def test_roundtrip_with_missing(tmp_path):
    path = tmp_path / "panel.csv"
    cols = {
        "u_rate": MonthlySeries(MonthDate(2000, 1), [0.05, np.nan, 0.061]),
        "v_rate": MonthlySeries(MonthDate(2000, 1), [0.03, 0.031, np.nan]),
    }
    n = write_panel(path, cols)
    assert n == 3
    back = read_panel(path)
    assert set(back) == {"u_rate", "v_rate"}
    for name in cols:
        assert back[name].start == MonthDate(2000, 1)
        np.testing.assert_array_equal(np.isnan(back[name].values),
                                      np.isnan(cols[name].values))
        ok = ~np.isnan(cols[name].values)
        np.testing.assert_array_equal(back[name].values[ok], cols[name].values[ok])


def test_json_panel_is_records_with_null_for_missing(tmp_path):
    path = tmp_path / "panel.json"
    cols = {
        "u_rate": MonthlySeries(MonthDate(2000, 1), [0.05, np.nan, 0.061]),
        "v_rate": MonthlySeries(MonthDate(2000, 1), [0.03, 0.031, np.nan]),
    }
    assert write_panel(path, cols) == 3
    assert json.loads(path.read_text()) == [
        {"date": "2000-01", "u_rate": 0.05, "v_rate": 0.03},
        {"date": "2000-02", "u_rate": None, "v_rate": 0.031},
        {"date": "2000-03", "u_rate": 0.061, "v_rate": None},
    ]


def test_non_contiguous_rejected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("date,u_rate\n2000-01,0.05\n2000-03,0.06\n")
    with pytest.raises(SchemaError, match="non-contiguous"):
        read_panel(path)


def test_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("month,u_rate\n2000-01,0.05\n")
    with pytest.raises(SchemaError, match="first column must be 'date'"):
        read_panel(path)


def test_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,u_rate\n2000-01,abc\n")
    with pytest.raises(SchemaError, match="non-numeric"):
        read_panel(path)


def test_duplicate_columns(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("date,u,u\n2000-01,1,2\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_panel(path)


def test_require_columns_names_missing(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,u_rate\n2000-01,0.05\n")
    panel = read_panel(path)
    with pytest.raises(SchemaError, match="v_rate, u_short"):
        require_columns(panel, "u_rate", "v_rate", "u_short")


def test_write_table_csv_keeps_column_order_and_round_trips_floats(tmp_path):
    path = tmp_path / "t.csv"
    assert write_table(path, MIXED) == 4
    assert path.read_bytes() == (b"x,name\r\n,a\r\n0.30000000000000004,b\r\n"
                                 b"-0.0,\r\n1e-300,d\r\n")


def test_write_table_json_is_sorted_records_with_null_for_nan(tmp_path):
    path = tmp_path / "t.json"
    assert write_table(path, {"x": list(MIXED["x"]), "name": MIXED["name"]}) == 4
    assert path.read_text() == """\
[
  {
    "name": "a",
    "x": null
  },
  {
    "name": "b",
    "x": 0.30000000000000004
  },
  {
    "name": "",
    "x": -0.0
  },
  {
    "name": "d",
    "x": 1e-300
  }
]
"""
    assert json.loads(path.read_text()) == [
        {"name": "a", "x": None}, {"name": "b", "x": 0.30000000000000004},
        {"name": "", "x": -0.0}, {"name": "d", "x": 1e-300}]


def test_write_table_json_keeps_integers_and_booleans(tmp_path):
    path = tmp_path / "t.json"
    write_table(path, {"n": [3, 4], "flag": [True, False]})
    assert path.read_text() == json.dumps([{"flag": True, "n": 3},
                                           {"flag": False, "n": 4}],
                                          indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_write_table_rejects_unequal_columns(tmp_path, suffix):
    path = tmp_path / f"t.{suffix}"
    with pytest.raises(ValueError, match="differ in length"):
        write_table(path, {"a": [1.0, 2.0], "b": [1.0]})
    assert not path.exists()


def test_write_table_zero_rows(tmp_path):
    assert write_table(tmp_path / "t.csv", {"a": [], "b": np.array([])}) == 0
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"
    assert write_table(tmp_path / "t.json", {"a": [], "b": np.array([])}) == 0
    assert (tmp_path / "t.json").read_text() == "[]\n"


def test_bom_prefixed_panel_reads_the_same(tmp_path, recession_sim):
    path = tmp_path / "panel.csv"
    panel = recession_sim.panel
    write_panel(path, {"u_rate": panel.U, "v_rate": panel.V, "u_short": panel.U_short})
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    want, got = read_panel(path), read_panel(bom)
    assert list(got) == list(want)
    for name in want:
        assert got[name].start == want[name].start
        assert got[name].values.tobytes() == want[name].values.tobytes()


def test_dates_cross_year_boundaries():
    assert _dates(MonthDate(1999, 11), 4).tolist() == ["1999-11", "1999-12", "2000-01",
                                                       "2000-02"]
    assert _dates(MonthDate(2000, 5), 0).tolist() == []
    for start, n in [(MonthDate(2000, 5), 30), (MonthDate(0, 1), 14), (MonthDate(9998, 2), 23)]:
        assert _dates(start, n).tolist() == [str(start.shift(t)) for t in range(n)]


def test_blank_rows_are_skipped_but_counted_in_line_numbers(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,u\n\n2000-01,1\n , \n2000-02,x\n")
    with pytest.raises(SchemaError, match=r"p.csv:5: non-numeric cell 'x' in column 'u'"):
        read_panel(path)
    path.write_text("date,u\n\n2000-01,1\n , \n2000-02, 2 \n\n")
    np.testing.assert_array_equal(read_panel(path)["u"].values, [1.0, 2.0])


# ---------------------------------------------------------------------------
# Reference implementations: the per-row reader and the csv/json writer that
# `read_panel` and `write_table` replaced.  The properties below require the
# columnar code to agree with them exactly.
# ---------------------------------------------------------------------------

def read_panel_rows(path):
    """Month-at-a-time panel reader."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = checked_rows(path, csv.reader(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if not header or header[0].strip() != "date":
            raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
        names = [h.strip() for h in header[1:]]
        if len(names) == 0:
            raise SchemaError(f"{path}: no value columns")
        if len(set(names)) != len(names):
            raise SchemaError(f"{path}: duplicate column names")

        months = []
        columns = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names) + 1:
                raise SchemaError(f"{path}:{lineno}: expected {len(names) + 1} cells, "
                                  f"got {len(row)}")
            try:
                month = MonthDate.parse(row[0])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if months and months[-1].months_until(month) != 1:
                raise SchemaError(f"{path}:{lineno}: non-contiguous month {month} "
                                  f"after {months[-1]}")
            months.append(month)
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    columns[j].append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: non-numeric cell {cell!r} "
                                      f"in column {names[j]!r}") from None
                if math.isinf(value):
                    raise SchemaError(f"{path}:{lineno}: non-finite cell {cell!r} "
                                      f"in column {names[j]!r}")
                columns[j].append(value)

    if not months:
        raise SchemaError(f"{path}: no data rows")
    start = months[0]
    return {name: MonthlySeries(start, col) for name, col in zip(names, columns)}


def checked_rows(path, reader):
    """The rows of a `csv.reader`, its errors as a SchemaError with the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def write_table_records(path, columns):
    """Table writer through `csv.writer` and `json.dumps` of record dicts."""
    arrays = [np.asarray(column) for column in columns.values()]
    cells = [np.where(a != a, None, a.astype(object)).tolist() for a in arrays]
    if path.suffix == ".json":
        records = [dict(zip(columns, row)) for row in zip(*cells)]
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    else:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(zip(*cells))


@pytest.fixture(scope="class")
def example_dir(tmp_path_factory):
    """One directory whose files each generated example overwrites."""
    return tmp_path_factory.mktemp("examples")


def outcome(fn, path):
    try:
        return "ok", fn(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# write_table against the record writer
# ---------------------------------------------------------------------------

# floats at the edges of repr's formats: the switch to exponent notation at
# 1e16 and below 1e-4, subnormals, signed zeros and the non-finite values
EDGE_FLOATS = [float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 5e-324,
               -2.225073858507201e-308, 1e16, 9999999999999998.0, 1e-5, 0.0001,
               1e-4 - 1e-20, 0.1 + 0.2, 1e300, -123456789.125]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# the text write_table accepts: printable ASCII that csv.writer writes
# unquoted and json.dumps unescaped
TEXT = st.one_of(
    st.sampled_from(["", " pad ", "%s", "100%", "-0.0", "nan", "True", "2000-01"]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                          blacklist_characters=',"\\'), max_size=6))
NAMES = st.one_of(st.sampled_from(["date", "u_rate", "", "%", "a b"]), TEXT)
# what csv.writer quotes or json.dumps escapes: write_table refuses a cell
# or a name that holds one
REFUSED_CHARS = [",", '"', "\r", "\n", "\\", "\x01", "\t", "\x1f", "\x7f", "\u00e9",
                 "\u65e5", "\U0001f600", "\0"]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 6))
    # a quarter of the tables repeat their drawn rows past one block of the
    # float kernel, which takes every float column in one call
    size = _BLOCK + n if n and draw(st.sampled_from([False, False, False, True])) else n
    names = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["float", "float_array", "float32", "int",
                                     "bool", "str", "str_array"]))
        if kind == "float":
            col = draw(st.lists(FLOATS, min_size=n, max_size=n))
        elif kind == "float_array":
            col = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)))
        elif kind == "float32":
            col = np.array(draw(st.lists(st.floats(width=32), min_size=n,
                                         max_size=n)), dtype=np.float32)
        elif kind == "int":
            col = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
        elif kind == "bool":
            col = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        elif kind == "str":
            col = draw(st.lists(TEXT, min_size=n, max_size=n))
        else:
            col = np.array(draw(st.lists(TEXT, min_size=n, max_size=n)), dtype=str)
        if size > n:
            col = (np.resize(col, size) if isinstance(col, np.ndarray)
                   else (col * (size // n + 1))[:size])
        columns[name] = col
    return columns


def stress_table():
    """24,000 rows past the writer's 1 MB row blocks: a date array, then
    seven float columns with NaN, -inf, subnormal and negative values."""
    rng = np.random.default_rng(24000)
    n = 24_000
    values = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-25, 25, (7, n))
    values[0, ::97] = np.nan
    values[1, ::101] = -np.inf
    values[2, ::89] = 5e-324 * rng.integers(1, 2 ** 52, n)[::89]
    values[3] = -np.abs(values[3])
    values[4] = np.round(values[4], 3)  # short reprs, and whole numbers
    values[5] = rng.uniform(0.04, 0.1, n)
    return {"date": _dates(MonthDate(1900, 1), n),
            **{f"v{k}": values[k] for k in range(7)}}


class TestWriteTableMatchesRecordWriter:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(columns=tables())
    def test_same_csv_bytes_and_json_text(self, example_dir, columns):
        tmp = example_dir
        for suffix in ("csv", "json"):
            got, want = tmp / f"got.{suffix}", tmp / f"want.{suffix}"
            n = write_table(got, columns)
            write_table_records(want, columns)
            assert got.read_bytes() == want.read_bytes()
            assert n == len(next(iter(columns.values())))

    @pytest.mark.parametrize("columns, refused", [
        ({"x": [float("nan"), 1.0]}, "x"),
        ({"s": ["a", ""]}, "s"),
        ({"": [1.0]}, ""),
        ({"x": []}, "x"),
        ({"x": [], "y": np.array([])}, None),
        ({"a": EDGE_FLOATS, "b": [str(x) for x in EDGE_FLOATS]}, None),
        ({"%": [1.0, 2.0], "%%": ["a", "b"], "%s": [3, 4]}, None),
        ({"x": [0.5], "name": ["one"], "flag": [True]}, None),
        ({"x": [0.1 * k for k in range(7)]}, "x"),
        ({"date": [f"{2000 + t // 12}-{t % 12 + 1:02d}" for t in range(500)],
          "u": np.linspace(0.04, 0.1, 500), "gap": np.arange(-1, 499),
          "v": np.where(np.arange(500) % 7 == 0, np.nan, np.arange(500) / 3)}, None),
        (stress_table(), None),
        ({"x": [float("-inf"), 0.5], "y": [1.0, 2.0]}, None),
        ({"x": [float("nan")]}, "x"),
        ({"date": [str(MonthDate(1999, 11).shift(t)) for t in range(14)],
          "x": np.arange(14.0)}, None),
        ({"date": _dates(MonthDate(1999, 11), 14), "x": np.arange(14.0)}, None),
        ({"s": np.array(["a,b", 'q"', "x\ny", "\r", "caf\u00e9", "", "ok", "a\\b",
                         "\x7f", "tab\t"]), "x": np.arange(10.0)}, "s"),
        ({"s": np.array(["", "a"]), "x": [1.0, 2.0]}, None),
    ], ids=["one-column-nan", "one-column-empty-string", "empty-name", "zero-rows",
            "zero-rows-two-columns", "edge-floats", "percent-keys", "one-row",
            "one-column", "500-rows", "24000-rows", "minus-infinity-beside-short",
            "lone-nan", "date-list", "date-array", "string-array-to-quote",
            "string-array-with-empty"])
    def test_named_cases(self, tmp_path, columns, refused):
        # a case that names a column is one write_table refuses, naming it
        for suffix in ("csv", "json"):
            got = tmp_path / f"got.{suffix}"
            if refused is not None:
                with pytest.raises(ValueError, match=re.escape(repr(refused))):
                    write_table(got, columns)
                assert not got.exists()
                continue
            write_table(got, columns)
            write_table_records(tmp_path / f"want.{suffix}", columns)
            assert got.read_bytes() == (tmp_path / f"want.{suffix}").read_bytes()

    @pytest.mark.parametrize("columns", [
        {"s": ["a\0", "a\0\0", "\0b", ""], "x": [0.5, 1.0, float("nan"), 2.0]},
        {"s": ["a\0", "b", "c", ""], "x": [0.5, 1.0, float("nan"), 2.0]},
        {"s": np.array(["a\0b", "c", "\0d", ""]), "x": [0.5, 1.0, float("nan"), 2.0]},
    ], ids=["list", "list-trailing", "string-array"])
    def test_nul_in_text_is_refused(self, tmp_path, columns):
        # numpy's string arrays drop trailing NULs, so a list's strings are
        # searched for them
        for suffix in ("csv", "json"):
            with pytest.raises(ValueError, match="column 's'"):
                write_table(tmp_path / f"t.{suffix}", columns)
            assert not (tmp_path / f"t.{suffix}").exists()

    @pytest.mark.parametrize("json_format, widths", [(False, [3, 19, 4, 0]),
                                                     (True, [3, 19, 9, 4])])
    def test_each_float_column_is_as_wide_as_its_longest_text(self, json_format,
                                                              widths):
        # nan, inf and -inf take their spelled lengths: CSV's empty cell,
        # JSON's null and -Infinity
        columns = {"a": [1.0, 2.5], "b": [0.1 + 0.2, 1.0], "c": [0.5, -math.inf],
                   "d": [math.nan, math.nan]}
        cells = _column_cells(columns, 2, json_format)
        assert [chars.shape[1] for chars in cells] == widths

    @pytest.mark.parametrize("columns", [{"x": [float("nan"), 2.0]}, {}],
                             ids=["one-column", "no-column"])
    def test_under_two_columns_refused(self, tmp_path, columns):
        # csv.writer would quote the empty cell of a one-column row
        for suffix in ("csv", "json"):
            with pytest.raises(ValueError, match=r"two or more columns, got "
                                                 + re.escape(str(list(columns)))):
                write_table(tmp_path / f"t.{suffix}", columns)
            assert not (tmp_path / f"t.{suffix}").exists()

    @pytest.mark.parametrize("char", REFUSED_CHARS, ids=ascii)
    @pytest.mark.parametrize("where", ["list", "array", "name"])
    def test_text_to_quote_or_escape_is_refused(self, tmp_path, char, where):
        if where == "name":
            columns, named = {"x": [1.0, 2.0], f"a{char}b": ["c", "d"]}, f"a{char}b"
        else:
            cells = ["ok", f"a{char}b"]
            columns = {"x": [1.0, 2.0],
                       "s": np.array(cells) if where == "array" else cells}
            named = "s"
        for suffix in ("csv", "json"):
            with pytest.raises(ValueError, match=re.escape(repr(named))):
                write_table(tmp_path / f"t.{suffix}", columns)
            assert not (tmp_path / f"t.{suffix}").exists()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(columns=tables(), data=st.data())
    def test_planted_cell_is_refused_naming_its_column(self, example_dir, columns, data):
        # one cell of an accepted table, made text holding a character that
        # csv.writer quotes or json.dumps escapes
        name = data.draw(st.sampled_from(sorted(columns)))
        column = [str(x) for x in np.asarray(columns[name]).tolist()] or [""]
        row = data.draw(st.integers(0, len(column) - 1))
        column[row] += data.draw(st.sampled_from(REFUSED_CHARS))
        columns = {k: np.resize(v, len(column)) if k != name else column
                   for k, v in columns.items()}
        for suffix in ("csv", "json"):
            path = example_dir / f"refused.{suffix}"
            path.unlink(missing_ok=True)
            with pytest.raises(ValueError, match=re.escape(f"column {name!r}")):
                write_table(path, columns)
            assert not path.exists()

    @pytest.mark.parametrize("column", [
        [None, 1.0], ["a", None], [True, None], np.array([1, 2], dtype=object),
        np.array([1 + 2j, 3.0]), np.array(["2000-01", "2000-02"], dtype="datetime64[M]"),
        [b"a", b"b"],
    ], ids=["none-beside-float", "none-beside-string", "none-beside-bool", "object-array",
            "complex", "datetime", "bytes"])
    def test_column_of_another_kind_is_refused(self, tmp_path, column):
        for suffix in ("csv", "json"):
            with pytest.raises(ValueError, match="column 'c': .* cells are not floats"):
                write_table(tmp_path / f"t.{suffix}", {"x": [1.0, 2.0], "c": column})
            assert not (tmp_path / f"t.{suffix}").exists()


# ---------------------------------------------------------------------------
# read_panel against the per-row reader
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(st.floats(allow_infinity=False).map(repr),
                    st.floats(allow_infinity=False).map("{:.17e}".format),
                    st.sampled_from(["1e5", ".5", "5.", "+1", "-0", "1_000", "nan",
                                     "-nan", "1E-3", "\u0661.5", "-2.5E+300",
                                     # midpoints between doubles, one wider
                                     # than the kernel's window
                                     "9007199254740992.5", "4503599627370496.75",
                                     "1.00000000000000011102230246251565404236316680908203125",
                                     # more digits than a word holds, and
                                     # leading zeros past the window
                                     "12345678901234567890123", "0.1234567890123456789",
                                     "0.000000000000000000000000001"]))
BLANKS = st.sampled_from(["", " ", "\t", "  "])
PADS = st.sampled_from(["", " ", "\t", "\u00a0"])
NOT_NUMBERS = st.sampled_from(["abc", "1.2.3", "1,5", "--1", "1 2", "0x10", "n/a"])
INFINITIES = st.sampled_from(["inf", "-inf", "+Infinity", "INF", "1e999", "-1E400"])
BAD_DATES = st.sampled_from(["2000-13", "2000-1", "200-01", "abcd-ef", "",
                             "2000/01", "\u0662\u0660\u0660\u0660-01",
                             "2000-01-01"])


@st.composite
def panel_texts(draw, quoting=True):
    """CSV text of a panel, with blank rows, padding, quoting and CRLF, and
    up to two planted faults.  Without `quoting` no cell is quoted, blank
    lines are rare and a whitespace-only cell is a planted fault, so that
    most texts are ones `read_panel` splits without `csv.reader`."""
    names = draw(st.lists(st.sampled_from(["u", "v", "s", "w"]), min_size=1,
                          max_size=3, unique=True))
    # months from the first, counted from 0000-01; near the top of the range
    # a panel runs past 9999-12, whose next month has a five-digit year
    first = 12 * draw(st.one_of(st.integers(1900, 2100), st.integers(9998, 9999))) \
        + draw(st.integers(0, 11))

    def month(t):
        return f"{(first + t) // 12:04d}-{(first + t) % 12 + 1:02d}"

    n = draw(st.integers(1, 12))
    blank = BLANKS if quoting else st.just("")
    cell = st.one_of(blank, st.tuples(PADS, NUMBERS, PADS).map("".join))
    rows = [[draw(PADS) + month(t) + draw(PADS)]
            + [draw(cell) for _ in names] for t in range(n)]
    header = ["date", *names]
    faults = ["width", "date", "gap", "number", "infinite"] * 2 + ["dupe", "header"]
    if not quoting:  # cells csv.reader's path reads as missing, float rejects,
        # and ragged lines whose cells add up to whole rows
        faults += ["spaces", "spaces", "ragged"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        fault = draw(st.sampled_from(faults))
        if fault == "dupe":
            header.append(" " + header[-1])
        elif fault == "header":
            header[0] = draw(st.sampled_from(["Date", "month", ""]))
        else:
            t = draw(st.integers(0, n - 1))
            row = rows[t]
            if fault == "width":
                if draw(st.booleans()):
                    row.append("1")
                else:
                    row.pop()
            elif fault == "date":
                row[0] = draw(BAD_DATES)
            elif fault == "gap":
                row[0] = month(t + draw(st.sampled_from([-1, 2, 13])))
            elif fault == "ragged":
                if t + 1 < n:
                    rows[t + 1].insert(0, row.pop())
            elif fault == "spaces":
                row[draw(st.integers(0, len(row) - 1))] = draw(
                    st.sampled_from([" ", "\t", "\x1c"]))
            elif len(row) > 1:
                bad = NOT_NUMBERS if fault == "number" else INFINITIES
                row[draw(st.integers(1, len(row) - 1))] = draw(bad)
    for _ in range(draw(st.integers(0, 3) if quoting else st.sampled_from([0, 0, 0, 1]))):
        blank = [draw(BLANKS) for _ in range(draw(st.integers(0, len(header))))]
        rows.insert(draw(st.integers(0, len(rows))), blank)

    def render(text):
        if not quoting:
            return text
        if any(c in text for c in ',"\r\n') or draw(st.integers(0, 9)) == 0:
            return '"' + text.replace('"', '""') + '"'
        return text

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(map(render, row)) for row in [header, *rows]]
    ends = ["", newline, newline * 2] if quoting else ["", newline, newline, newline * 2]
    return newline.join(lines) + draw(st.sampled_from(ends))


def assert_same_outcome(path):
    """read_panel gives the row reader's series, or its error and text."""
    got, want = outcome(read_panel, path), outcome(read_panel_rows, path)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    got, want = got[1], want[1]
    assert list(got) == list(want)
    for name in want:
        assert got[name].start == want[name].start
        np.testing.assert_array_equal(got[name].values, want[name].values,
                                      strict=True)
        assert got[name].values.tobytes() == want[name].values.tobytes()


def plain_path_reads(path):
    """Whether `read_panel` returns the unquoted fast path's panel."""
    return _read_plain(path, path.read_bytes().removeprefix(codecs.BOM_UTF8)) is not None


@pytest.fixture
def undecided_cells(monkeypatch):
    """How many non-blank cells each `parse_floats` call leaves for float."""
    counts = []

    def counted(data, starts, ends):
        values, undecided = parse_floats(data, starts, ends)
        counts.append(int((undecided & (starts != ends)).sum()))
        return values, undecided

    monkeypatch.setattr(floatrepr, "parse_floats", counted)
    return counts


class TestReadPanelMatchesRowReader:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(text=panel_texts())
    def test_same_series_or_same_error(self, example_dir, text):
        path = example_dir / "panel.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(path)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(text=panel_texts(quoting=False))
    def test_unquoted_same_series_or_same_error(self, example_dir, text):
        path = example_dir / "panel.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(path)

    @pytest.mark.parametrize("text, plain", [
        ("date,u,v\n2000-01,1,2\n2000-02,,4\n", True),
        ("date , u\r\n 2000-01 ,\u00a01.5 \r\n2000-02,2\r\n", False),
        ("date,u\n2000-01,1\n2000-02,2", False),
        # ragged lines whose cells add up to whole rows
        ("date,u,v\n2000-01,1,2,2000-02\n3,4\n", False),
        ("date,u\r2000-01,1\r2000-02,2\r", False),
        ("date,u\r\n2000-01,1\r2000-02,2\r\n", False),
        ("date,u\r\n2000-01,1\n2000-02,2\r\n", False),
        # a line end that the cell counts alone would not show
        ("date,u\r\n2000-01\r,1\r\n2000-02,2\r\n", False),
        ("date,u\r\n2000-01\n,1\r\n2000-02,2\r\n", False),
        ("date,u\n2000-01,1\n\n2000-02,2\n", False),
        ("\ndate,u\n2000-01,1\n", False),
        ("date,u,v\n2000-01, ,1\n2000-02,2,\t\n", False),
        ("date,u\n2000-01,1\n , \n", False),
        ('"date","u"\n2000-01,1\n', False),
        ('date,u\n2000-01,"1"\n', False),
        ("date,u\n2000-01,1\x00\n", False),
        ("date,u\x00\n2000-01,1\n", False),
        ("date,u\n2000-01,\x1c1\n", False),
        ("date,u\n", False),
        ("", False),
        ('date,u\n2000-01,1\n2000-02,"' + "1" * 140_001 + '"\n', False),
        # a fault on the line before a cell csv.reader cannot read
        ('date,u\n2000-01,x\n2000-02,"' + "1" * 140_001 + '"\n', False),
        ("date,u\n9999-11,1\n9999-12,2\n", True),
        # the month after 9999-12, which YYYY-MM cannot spell
        ("date,u\n9999-12,1\n10000-01,2\n", False),
        ("date,u\n 9999-12,1\n 10000-01 ,2\n", False),
        ('"date","u"\n"9999-12","1"\n"10000-01","2"\n', False),
    ], ids=["plain", "padded-crlf", "no-final-line-end", "ragged", "lone-cr",
            "lone-cr-in-crlf", "mixed-line-ends", "cr-in-date", "lf-in-crlf-line",
            "blank-line", "blank-header",
            "whitespace-cell", "whitespace-row", "quoted-header", "quoted-cell",
            "nul-cell", "nul-header", "padding-float-rejects", "header-only",
            "empty", "quoted-cell-over-field-limit", "fault-before-field-limit",
            "ends-at-9999-12", "past-9999-12", "padded-past-9999-12",
            "quoted-past-9999-12"])
    def test_named_cases(self, tmp_path, text, plain):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(path)
        assert plain_path_reads(path) == plain

    def test_simulated_panel_takes_the_plain_path(self, tmp_path, recession_sim):
        path = tmp_path / "panel.csv"
        panel = recession_sim.panel
        write_panel(path, {"u_rate": panel.U, "v_rate": panel.V,
                           "u_short": panel.U_short})
        assert plain_path_reads(path)
        assert_same_outcome(path)
        lf = tmp_path / "lf.csv"
        lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        assert plain_path_reads(lf)
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(b"\r\n".join(b",".join(b'"%s"' % c for c in line.split(b","))
                                         for line in lf.read_bytes().splitlines()))
        assert not plain_path_reads(quoted)
        for other in (lf, quoted):
            got, want = read_panel(other), read_panel(path)
            assert list(got) == list(want)
            for name in want:
                assert got[name].values.tobytes() == want[name].values.tobytes()

    @pytest.mark.parametrize("argv", [[], ["--three-state"]],
                             ids=["two-state", "three-state"])
    def test_simulate_panel_is_read_in_array_code(self, tmp_path, undecided_cells,
                                                  argv):
        assert main(["simulate", "--horizon", "240", "--output-dir", str(tmp_path),
                     *argv]) == 0
        path = tmp_path / "panel.csv"
        assert plain_path_reads(path)
        assert undecided_cells == [0]
        assert_same_outcome(path)

    def test_bench_shaped_panel_is_read_in_array_code(self, tmp_path, undecided_cells):
        # 24,000 months of three rates, CRLF line ends, the first cell of
        # u_short missing: the shape of the stress benchmark's panel
        n = 24_000
        rng = np.random.default_rng(24_000)
        wiggle = np.sin(2 * np.pi * np.arange(n) / 48)
        columns = {"u_rate": 0.05 + 0.002 * wiggle + 1e-4 * rng.standard_normal(n),
                   "v_rate": 0.03 - 0.001 * wiggle + 1e-4 * rng.standard_normal(n),
                   "u_short": 0.02 + 1e-4 * rng.standard_normal(n)}
        columns["u_short"][0] = np.nan
        path = tmp_path / "panel.csv"
        write_panel(path, {name: MonthlySeries(MonthDate(2000, 1), values)
                           for name, values in columns.items()})
        assert plain_path_reads(path)
        assert undecided_cells == [0]
        assert_same_outcome(path)

    @pytest.mark.parametrize("text, message", [
        ("date,u\n2000-01,1\n2000-02\n2000-04,x\n", "p.csv:3: expected 2 cells, got 1"),
        ("date,u\n2000-01,x\n2000-03,1\n", "p.csv:2: non-numeric cell 'x' in column 'u'"),
        ("date,u\n2000-01,1\n2000-03,x\n", "p.csv:3: non-contiguous month 2000-03 "
                                           "after 2000-01"),
        ("date,u\n2000-01,1\n2000-13,x\n", "p.csv:3: month must be in 1..12, got 13"),
        ("date,u,v\n2000-01,1,x\n2000-02,inf,1\n", "p.csv:2: non-numeric cell 'x' "
                                                   "in column 'v'"),
        ("date,u,v\n2000-01,-inf,x\n", "p.csv:2: non-finite cell '-inf' in column 'u'"),
        ("date,u\n2000-01,1\n2000-02, 1e999\n", "p.csv:3: non-finite cell '1e999' "
                                                "in column 'u'"),
        ("date,u\n\n \n", "p.csv: no data rows"),
        ("date,u,v\n2000-01,1,2,2000-02\n3,4\n", "p.csv:2: expected 3 cells, got 4"),
        pytest.param('date,u\n2000-01,x\n2000-02,"' + "1" * 140_001 + '"\n',
                     "p.csv:2: non-numeric cell 'x' in column 'u'",
                     id="fault-before-field-limit"),
        ("date,u\n9999-12,1\n10000-01,2\n", "p.csv:3: expected YYYY-MM, got '10000-01'"),
        ("date,u\n 9999-12,1\n 10000-01 ,2\n",
         "p.csv:3: expected YYYY-MM, got ' 10000-01 '"),
        ('"date","u"\n"9999-12","1"\n"10000-01","2"\n',
         "p.csv:3: expected YYYY-MM, got '10000-01'"),
    ])
    def test_earlier_fault_wins(self, tmp_path, text, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        for reader in (read_panel, read_panel_rows):
            with pytest.raises(SchemaError) as err:
                reader(path)
            assert str(err.value).endswith(message)

import json

import numpy as np
import pytest

from beveridge_accounting import MonthDate, MonthlySeries, read_panel, write_panel
from beveridge_accounting.csvio import SchemaError, require_columns, write_table

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

"""Metamorphic properties of the commands: a known change to the input
panel moves every output in a known way.

* Scaling every vacancy rate by c scales tightness by c, the efficiency
  path by c^-alpha and every vacancy level by c. Shifters, log-linear
  contributions and ordering shares stay the same, log vacancies move by
  ln c, and the estimated ln sigma_bar moves by -alpha ln c.
* Relabelling the months by k (the panel's dates and every month flag)
  moves every date by k and leaves every other cell byte-identical.
* Switching --format between csv and json changes no value: every command's
  tables carry the same cells, numbers compared as their text.
* Respelling the input changes no output byte: permuting its value
  columns, writing every value as %.17e, CRLF line ends and quoting every
  cell (which sends the file down the csv.reader path) leave every data
  file identical.

Each command runs in process on a noisy simulated panel of its model, with
every calendar default pinned by a flag, so that relabelling reaches it.
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beveridge_accounting import MonthDate
from beveridge_accounting.cli import main

WINDOW = ["--approx-window", "2008-01:2019-12"]
COMMANDS = {
    "estimate": ("two", ["--sample", "2000-01:2007-12", "--sample", "2008-01:2019-12"]),
    "shifters": ("two", [*WINDOW, "--reference", "2007-04"]),
    "decompose": ("two", [*WINDOW, "--down-start", "2007-04", "--down-end", "2009-06",
                          "--up-start", "2010-04"]),
    "three-state": ("three", [*WINDOW, "--reference", "2007-04"]),
}
DATE_COLUMNS = {"date", "month", "sample_start", "sample_end"}
DATE_NOTES = {"approx_window", "dropped_months"}
ALPHA = 0.3  # the default matching elasticity of the expansion commands
PROPERTY = settings(derandomize=True, database=None, max_examples=16, deadline=None)


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """A noisy two-state panel with an efficiency break, and a three-state
    panel with 0.1% seeded noise on its rates, so raking takes steps."""
    root = tmp_path_factory.mktemp("panels")
    assert run(["simulate", "--horizon", 240, "--du-amplitude", 0.0008, "--noise", 0.02,
                "--seed", 5, "--sigma-break-at", 100, "--output-dir", root / "two"]) == 0
    assert run(["simulate", "--three-state", "--horizon", 240,
                "--output-dir", root / "three-exact"]) == 0
    header, rows = read_panel_text(root / "three-exact" / "panel.csv")
    rng = np.random.default_rng(7)
    for name in ("eu", "en", "ue", "un", "ne", "nu"):
        noise = 1.0 + 1e-3 * rng.standard_normal(len(rows))
        k = header.index(name)
        for row, factor in zip(rows, noise):
            row[k] = repr(float(row[k]) * float(factor))
    write_panel_text(root / "three.csv", header, rows)
    return {"two": root / "two" / "panel.csv", "three": root / "three.csv"}


def read_panel_text(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def write_panel_text(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def outputs(command, panel, flags, fmt, tmp):
    """Run `command` and read back every data file as a list of records of
    raw cells (a missing value is None), plus the manifest's notes."""
    tables, manifest = run_and_read([command, "--input", panel, *flags], fmt,
                                    Path(tmp) / "out")
    return tables, manifest["notes"]


def run_and_read(argv, fmt, out):
    """Run `argv` writing to `out` in `fmt`, and read back every data file
    as a list of records of raw cells (a missing value is None), plus the
    manifest."""
    assert run([*argv, "--output-dir", out, "--format", fmt]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    tables = {}
    for name in manifest["outputs"]:
        path = out / name
        if path.suffix == ".json":
            tables[name] = json.loads(path.read_text(), parse_float=str, parse_int=str)
        else:
            with open(path, newline="") as fh:
                tables[name] = [{k: v or None for k, v in row.items()}
                                for row in csv.DictReader(fh)]
    return tables, manifest


def transformed(panels, command, fmt, edit_panel, edit_flags=lambda flags: flags):
    """Outputs of `command` on its panel and on the panel `edit_panel`
    rewrites (header, rows) in place, with its flags through `edit_flags`."""
    model, flags = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        base = outputs(command, panels[model], flags, fmt, Path(tmp) / "base")
        header, rows = read_panel_text(panels[model])
        edit_panel(header, rows)
        write_panel_text(Path(tmp) / "panel.csv", header, rows)
        moved = outputs(command, Path(tmp) / "panel.csv", edit_flags(flags), fmt,
                        Path(tmp) / "moved")
    return base, moved


def pairs(base, moved):
    """(table, column, row, base cell, moved cell) over every data cell."""
    assert base.keys() == moved.keys()
    for name in base:
        assert len(base[name]) == len(moved[name]) > 0
        for row, (a, b) in enumerate(zip(base[name], moved[name])):
            assert a.keys() == b.keys()
            for column in a:
                yield name, column, row, a[column], b[column]


def close(got, want, label):
    if want is None or got is None:
        assert got is want is None, label
    else:
        assert abs(float(got) - want) <= 1e-12, (label, got, want)


@PROPERTY
@given(command=st.sampled_from(sorted(COMMANDS)), fmt=st.sampled_from(["csv", "json"]),
       c=st.sampled_from([0.5, 2.0]) | st.floats(0.5, 2.0))
def test_scaling_vacancies(panels, command, fmt, c):
    def scale(header, rows):
        k = header.index("v_rate")
        for row in rows:
            row[k] = repr(float(row[k]) * c) if row[k] else ""

    (base, notes), (moved, moved_notes) = transformed(panels, command, fmt, scale)
    ln_c = math.log(c)
    estimates = {}  # estimated alpha per (table, row)
    for name, column, row, a, b in pairs(base, moved):
        label = (name, column, row)
        if column == "alpha":
            estimates[name, row] = float(a)
        if column.startswith("log_v_"):
            close(b, None if a is None else float(a) + ln_c, label)
        elif column in ("ln_sigma_bar", "sigma_bar"):
            continue  # checked below, with the row's estimated alpha
        elif column in ("se_ln_sigma", "p_ln_sigma", "stars_ln_sigma"):
            continue  # the intercept moves, and with it its standard error
        elif column in DATE_COLUMNS or column in ("ordering", "stars_alpha", "robust"):
            assert a == b, label
        else:
            close(b, None if a is None else float(a), label)
    for name, column, row, a, b in pairs(base, moved):
        if column == "ln_sigma_bar":
            close(b, float(a) - estimates[name, row] * ln_c, (name, column, row))
        elif column == "sigma_bar":
            assert float(b) == pytest.approx(float(a) * c ** -estimates[name, row],
                                              rel=1e-12)

    level = {"V_bar": c, "V_0": c, "sigma_bar": c ** -ALPHA, "sigma_0": c ** -ALPHA,
             "average_observed_shift_level": c}
    assert notes.keys() == moved_notes.keys()
    for key, value in notes.items():
        if key in level:
            assert moved_notes[key] == pytest.approx(value * level[key], rel=1e-12), key
        elif isinstance(value, float):
            assert moved_notes[key] == pytest.approx(value, rel=1e-12, abs=1e-300), key
        else:
            assert moved_notes[key] == value, key


def shift_months(text, k):
    """`text` with every YYYY-MM in it moved by k months."""
    return re.sub(r"\d{4}-\d{2}", lambda m: str(MonthDate.parse(m[0]).shift(k)), text)


@PROPERTY
@given(command=st.sampled_from(sorted(COMMANDS)), fmt=st.sampled_from(["csv", "json"]),
       k=st.integers(-120, 120))
def test_relabelling_months(panels, command, fmt, k):
    def relabel(header, rows):
        for row in rows:
            row[0] = shift_months(row[0], k)

    (base, notes), (moved, moved_notes) = transformed(
        panels, command, fmt, relabel, lambda flags: [shift_months(f, k) for f in flags])
    for name, column, row, a, b in pairs(base, moved):
        want = shift_months(a, k) if column in DATE_COLUMNS and a is not None else a
        assert b == want, (name, column, row)
    assert moved_notes == {key: json.loads(shift_months(json.dumps(value), k))
                           if key in DATE_NOTES else value
                           for key, value in notes.items()}


@pytest.mark.parametrize("command, smooth", [
    *((command, smooth) for command in [*COMMANDS, "efficiency"] for smooth in (1, 3)),
    ("simulate", 1), ("simulate --three-state", 1)])
def test_csv_and_json_carry_the_same_cells(panels, tmp_path, command, smooth):
    if command.startswith("simulate"):
        argv = [*command.split(), "--horizon", 240]
        if command == "simulate":
            argv += ["--du-amplitude", 0.0008, "--noise", 0.02, "--seed", 5]
    else:
        model, flags = COMMANDS.get(command, ("two", []))
        argv = [command, "--input", panels[model], "--smooth", smooth, *flags]
    (csv_tables, csv_manifest), (json_tables, json_manifest) = (
        run_and_read(argv, fmt, tmp_path / fmt) for fmt in ("csv", "json"))
    stems = {name.rsplit(".", 1)[0] for name in csv_tables if name.endswith(".csv")}
    assert stems and stems == {name.rsplit(".", 1)[0] for name in json_tables
                               if name.endswith(".json")} - {"matching_estimates_report"}
    missing = 0
    for stem in stems:
        rows, records = csv_tables[f"{stem}.csv"], json_tables[f"{stem}.json"]
        assert len(rows) == len(records) == csv_manifest["outputs"][f"{stem}.csv"] \
            == json_manifest["outputs"][f"{stem}.json"] > 0
        for row, record in zip(rows, records):
            assert list(record) == sorted(row), stem
            assert record == row, stem  # an empty cell and null both read None
            missing += sum(value is None for value in row.values())
    if smooth > 1 and command in ("shifters", "three-state", "efficiency"):
        assert missing > 0  # smoothing leaves the edge months missing


def data_files(argv, fmt, out):
    """Run `argv` writing to `out` in `fmt`; the bytes of each data file."""
    assert run([*argv, "--output-dir", out, "--format", fmt]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return {name: (out / name).read_bytes() for name in manifest["outputs"]}


def respell(source, target, order, sci, crlf, quote):
    """Write the panel at `source` to `target` with its value columns in
    `order`, and each value as %.17e, CRLF line ends or every cell quoted
    where asked."""
    header, rows = read_panel_text(source)
    lines = []
    for row in [header, *rows]:
        cells = [row[0], *(row[k] for k in order)]
        if sci and row is not header:
            cells[1:] = ["%.17e" % float(c) if c else "" for c in cells[1:]]
        if quote:
            cells = [f'"{c}"' for c in cells]
        lines.append(",".join(cells))
    eol = "\r\n" if crlf else "\n"
    with open(target, "w", newline="") as fh:
        fh.write(eol.join(lines) + eol)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(command=st.sampled_from([*sorted(COMMANDS), "efficiency"]),
       fmt=st.sampled_from(["csv", "json"]), data=st.data(),
       sci=st.booleans(), crlf=st.booleans(), quote=st.booleans())
def test_input_spelling_changes_no_output_byte(panels, command, fmt, data, sci, crlf,
                                               quote):
    model, flags = COMMANDS.get(command, ("two", []))
    header, _ = read_panel_text(panels[model])
    order = data.draw(st.permutations(range(1, len(header))), label="order")
    with tempfile.TemporaryDirectory() as tmp:
        respelled = Path(tmp) / "panel.csv"
        respell(panels[model], respelled, order, sci, crlf, quote)
        argv = [command, *flags]
        base = data_files([*argv, "--input", panels[model]], fmt, Path(tmp) / "base")
        moved = data_files([*argv, "--input", respelled], fmt, Path(tmp) / "moved")
    assert base.keys() == moved.keys()
    for name in base:
        assert moved[name] == base[name], name

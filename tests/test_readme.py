"""The README's "Library sketch" runs as written on a simulated panel, its
"Command line" table gives each flag's commands and default as the parser's
table does, and its "Output files" table names the files and columns each
command writes."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import beveridge_accounting as ba
from beveridge_accounting import MonthDate
from beveridge_accounting import cli
from beveridge_accounting.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def library_sketch() -> str:
    return re.search(r"```python\n(.*?)```", section("Library sketch"), re.S).group(1)


@pytest.fixture
def recession_panel(tmp_path, paper_sim):
    path = tmp_path / "cps_jolts.csv"
    ba.write_panel(path, {"u_rate": paper_sim.panel.U, "v_rate": paper_sim.panel.V,
                          "u_short": paper_sim.panel.U_short})
    return path


def test_library_sketch_runs(recession_panel, monkeypatch, tmp_path):
    monkeypatch.chdir(recession_panel.parent)

    scope: dict = {}
    exec(compile(library_sketch(), str(README), "exec"), scope)

    n = 240
    assert len(scope["panel"].U) == n
    assert abs(scope["est"].alpha - 0.3) < 1e-8  # planted, noise-free
    paths = scope["paths"]
    assert list(paths) == ["searcher_dynamics", "separations", "matching", "net"]
    ref = MonthDate(2007, 4)
    t = scope["panel"].U.index_of(ref)
    assert all(path[t] == 0.0 for path in paths.values())
    assert (tmp_path / "shifters.csv").is_file()
    assert scope["matching_shifts"].shape == (3, len(scope["samples"].down_index))
    assert len(scope["loglin"].months) > 0
    assert len(scope["table"].rows) == 6
    v = scope["panel"].V.values
    np.testing.assert_allclose(scope["identity"][:-1], v[:-1], rtol=1e-12)
    assert np.isnan(scope["identity"][-1])
    assert np.isfinite(scope["steady_state"]).all()


def output_table() -> dict[str, dict[str, list[str]]]:
    """The README output table: per command line, each file it writes and
    that file's columns in the order the table gives."""
    table: dict[str, dict[str, list[str]]] = {}
    for line in section("Output files").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        command, file, columns = (re.match(r"`([^`]*)`", cell).group(1)
                                  for cell in cells[:3])
        name = file if Path(file).suffix else f"{file}.csv"
        table.setdefault(command, {})[name] = columns.split(", ")
    return table


def test_output_table_matches_what_each_command_writes(recession_panel, tmp_path):
    # each command at its defaults, in CSV, on the simulated fixtures: the
    # files it writes and their columns in the order written
    assert main(["simulate", "--three-state", "--horizon", "240",
                 "--output-dir", str(tmp_path / "three")]) == 0
    panels = {"three-state": tmp_path / "three" / "panel.csv"}
    table = output_table()
    assert set(table) == {"estimate", "shifters", "decompose", "three-state",
                          "efficiency", "simulate", "simulate --three-state"}
    for command, files in table.items():
        out = tmp_path / command.replace(" ", "")
        argv = command.split()
        if argv[0] != "simulate":
            argv += ["--input", str(panels.get(command, recession_panel))]
        assert main([*argv, "--output-dir", str(out)]) == 0, command
        written = json.loads((out / "manifest.json").read_text())["outputs"]
        assert set(written) == set(files), command
        for name, columns in files.items():
            if name.endswith(".json"):
                header = list(json.loads((out / name).read_text())[0])
            else:
                with open(out / name, newline="") as fh:
                    header = next(csv.reader(fh))
            assert header == columns, (command, name)


def model_only(text: str) -> str | None:
    """The `simulate` model named by "(<model> only)" in a README cell or in
    the parser table's help text: the one model that reads the flag, which
    `simulate` refuses under the other."""
    match = re.search(r"\((\S+) only\)", text)
    return match and match.group(1)


def flag_table() -> list[tuple[str, frozenset, str | None, str]]:
    """The README flag table: per row, the flag, its commands, the one
    `simulate` model that alone reads it (or None) and its default cell."""
    rows = []
    for line in section("Command line").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`--"):
            continue
        rows.append((cells[0].strip("`"), frozenset(re.findall(r"`([^`]*)`", cells[1])),
                     model_only(cells[1]), cells[2]))
    return rows


def default_cell(kwargs: dict) -> str | None:
    """A flag's README default: "required", its default's text as code, or
    None where the command works it out (a None default, or off for a
    switch), which the README says in words."""
    default = kwargs.get("default")
    if kwargs.get("required"):
        return "required"
    return None if default is None or default is False else f"`{default}`"


def test_flag_table_matches_the_parser_table():
    # rows of the parser's table that differ only in help text are one row here
    expected: dict = {}
    for flag in cli._FLAGS:
        key = (flag.name, model_only(flag.kwargs.get("help", "")),
               default_cell(flag.kwargs))
        expected[key] = expected.get(key, frozenset()) | set(flag.commands)
    documented = {}
    for name, commands, model, cell in flag_table():
        words = cell != "required" and not cell.startswith("`")
        key = (name, model, None if words else cell)
        assert cell and key not in documented, (name, cell)
        documented[key] = commands
    assert documented == expected

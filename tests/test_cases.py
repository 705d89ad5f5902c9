"""The case table of `tools/cases.py`, run in process through `cli.main`,
with the checks of `tools/smoke.py` that no single case can make."""

import contextlib
import io
import json
import math
import os
import re
import traceback
import warnings
from pathlib import Path

import cases
import numpy as np
import pytest
import smoke
import sweep

from beveridge_accounting import cli

ROOT = Path(__file__).resolve().parents[1]


def run_in_process(argv, cwd):
    """`cli.main`'s exit code, or argparse's, and its stderr, with each
    warning raised written first, as the console script prints it.  A
    floating-point fault that no kernel handles raises, where the console
    script would print numpy's warning; like any exception that leaves
    `cli.main`, it exits 1 with its traceback, as the console script does,
    and so fails its case alone."""
    err, here = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(here)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, shown + err.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return smoke.run_table(cases.CASES, tmp_path_factory.mktemp("cases"), run_in_process)


@pytest.mark.parametrize("case", cases.CASES, ids=lambda case: case.id)
def test_case(runs, case):
    smoke.check_case(case, runs)


@pytest.mark.parametrize("check", smoke.CHECKS, ids=lambda check: check.__name__)
def test_check(runs, check):
    check(runs)


def test_rake_budget(runs):
    smoke.check_rake_budget(runs, run_in_process)


def test_every_command_writes_each_format():
    assert len({case.id for case in cases.CASES}) == len(cases.CASES)
    assert set(cases.OUTPUTS) == set(cli._COMMANDS)
    assert {(case.command, case.format) for case in cases.CASES if case.code == 0} == {
        (command, fmt) for command in cli._COMMANDS for fmt in ("csv", "json")}


def test_every_exit_code_of_the_readme_has_a_case():
    readme = (ROOT / "README.md").read_text()
    contract = re.search(r"Exit\s+codes: (.*?)\.\n", readme, re.S).group(1)
    codes = {int(code) for code in re.findall(r"\b(\d) ", contract)}
    assert codes == {0, 2, 3, 4}
    assert codes <= {case.code for case in cases.CASES}


def test_sweep_names_each_difference_but_the_paths(tmp_path):
    # two output trees one ulp apart in one cell and apart in one manifest
    # key beside the three path keys
    x = 0.1
    for tree, value, v_bar in (("a", x, 0.03), ("b", math.nextafter(x, 1.0), 0.031)):
        out = tmp_path / tree
        out.mkdir()
        (out / "shifters.csv").write_text(
            f"date,net,u_rate\n2000-01,0.5,0.06\n2000-02,{value!r},0.06\n")
        (out / "manifest.json").write_text(json.dumps({
            "config": {"input": f"{tree}.csv", "output_dir": tree, "smooth": 1},
            "input": {"path": f"{tree}.csv", "sha256": "0"}, "notes": {"V_bar": v_bar}}))
    assert sweep.diff_dirs(tmp_path / "a", tmp_path / "b") == {
        "shifters.csv": {"columns": {"net": {"max_abs": math.ulp(x),
                                             "max_rel": math.ulp(x) / math.nextafter(x, 1.0),
                                             "first_row": 1}}},
        "manifest.json": {"keys": {"notes.V_bar": [0.03, 0.031]}}}
    (tmp_path / "b" / "shifters.csv").write_bytes((tmp_path / "a" / "shifters.csv").read_bytes())
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    manifest["notes"]["V_bar"] = 0.03
    (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
    assert sweep.diff_dirs(tmp_path / "a", tmp_path / "b") == {}

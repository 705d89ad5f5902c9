"""Run the case table of `cases.py` through the `beveridge` console script,
then the checks that no single case can make.

    python tools/smoke.py

runs every case in a temporary directory and exits 1, naming each failure,
if a case or a check fails.  It needs `beveridge` on PATH (`pip install -e
.`).  `tests/test_cases.py` runs the same table and checks in process
through `cli.main`, and `tools/sweep.py` runs the table once per source
tree; all three run it with `run_table`.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from cases import CASES, PREFIX, Case


@dataclass
class Run:
    code: int
    stderr: str
    out: Path               # its --output-dir
    input: str | None       # its --input


def _expect(ok: bool, *what) -> None:
    if not ok:
        raise AssertionError(" ".join(map(str, what)))


def input_path(case: Case, panels: Path) -> Path | None:
    """The panel.csv that case `case.input` wrote under `panels`, or that
    panel through `case.transform`, written once there as `<case.id>.csv`."""
    if case.input is None:
        return None
    source = panels / case.input / "panel.csv"
    if case.transform is None:
        return source
    path = panels / f"{case.id}.csv"
    if not path.exists():
        path.write_text(case.transform(source.read_text()), newline="")
    return path


def run_table(table, workdir: Path, run, panels: Path | None = None) -> dict[str, Run]:
    """Each case of `table`, in order, run by `run(argv, cwd)`, which returns
    the exit code and stderr, in `workdir` with `--output-dir <case.id>`.
    Inputs come from the panel cases' outputs under `panels`, by default
    `workdir`, where the table's own panel cases write them."""
    runs = {}
    for case in table:
        path = input_path(case, panels or workdir)
        argv = [*case.argv.split(), *(["--input", str(path)] if path else []),
                "--output-dir", case.id]
        code, stderr = run(argv, workdir)
        runs[case.id] = Run(code, stderr, workdir / case.id, path and str(path))
    return runs


def check_case(case: Case, runs: dict[str, Run]) -> None:
    """The exit code, the stderr and the files of the case's run."""
    run = runs[case.id]
    _expect(run.code == case.code, f"exit {run.code}, want {case.code}; stderr:",
            run.stderr)
    want = case.stderr.replace("{input}", run.input or "")
    if want.startswith(("beveridge ", "beveridge:")):
        _expect(run.stderr.splitlines()[-1:] == [want], "stderr's last line is not",
                repr(want), "in", repr(run.stderr))
    else:
        want = PREFIX[case.code] + want + "\n" if case.code else want
        _expect(run.stderr == want, "stderr", repr(run.stderr), "want", repr(want))
    if case.code:
        _expect(not run.out.exists(), "a refusal wrote", run.out)
        return
    written = {p.name for p in run.out.iterdir()}
    _expect(written == case.files(), "wrote", sorted(written), "want", sorted(case.files()))
    manifest = json.loads((run.out / "manifest.json").read_text())
    _expect(set(manifest["outputs"]) == written - {"manifest.json"}, "manifest outputs",
            manifest["outputs"])
    if case.same_as:
        for name in written - {"manifest.json"}:
            _expect((run.out / name).read_bytes()
                    == (runs[case.same_as].out / name).read_bytes(),
                    name, "differs from", case.same_as)


# ---------------------------------------------------------------------------
# Checks over several runs' files
# ---------------------------------------------------------------------------

def _written(runs: dict[str, Run], pattern: str) -> list[Path]:
    return sorted(p for run in runs.values() if run.code == 0
                  for p in run.out.glob(pattern))


def read_records(path: Path, **load) -> list[dict]:
    with open(path, newline="") as fh:
        return (json.load(fh, **load) if path.suffix == ".json"
                else list(csv.DictReader(fh)))


def check_orderings(runs: dict[str, Run]) -> None:
    """Every ordering table: each row's percents sum to 100, and a margin's
    percent depends only on the set of margins switched on before it, so
    two orderings with the same set write the same text."""
    paths = _written(runs, "orderings.*")
    _expect(paths, "no ordering table written")
    for path in paths:
        rows, seen = read_records(path, parse_float=str), {}
        for row in rows:
            ordering = row["ordering"].split(" -> ")
            total = sum(float(row[f"{m}_pct"]) for m in ordering)
            _expect(abs(total - 100.0) <= 1e-9, path, row)
            for k, margin in enumerate(ordering):
                text = seen.setdefault((frozenset(ordering[:k]), margin), row[f"{margin}_pct"])
                _expect(row[f"{margin}_pct"] == text, path, ordering[:k], margin)
        _expect(len(rows) == 6 and len(seen) == 12, path, len(rows), len(seen))


def check_json_constants(runs: dict[str, Run]) -> None:
    """No JSON file written holds NaN, Infinity or -Infinity."""
    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    for path in _written(runs, "*.json"):
        with open(path) as fh:
            json.load(fh, parse_constant=reject)


def check_reprs(runs: dict[str, Run]) -> None:
    """Every number written is spelled as its float's repr, which the table
    writer's array formatter must reproduce byte for byte.  The one integer
    column, estimate's n_obs, is written as an int, as JSON writes it."""
    def check(token):
        _expect(repr(float(token)) == token, token)
        return float(token)

    cells = 0
    for path in _written(runs, "*.csv"):
        for row in read_records(path):
            for text in (text for column, text in row.items() if column != "n_obs"):
                try:
                    float(text)
                except ValueError:
                    continue  # a date, a label or a missing value
                check(text)
                cells += 1
    for path in _written(runs, "*.json"):
        with open(path) as fh:
            json.load(fh, parse_float=check)
    _expect(cells > 1000, "only", cells, "cells checked")


def check_steep_u_star(runs: dict[str, Run]) -> None:
    """u^400 underflows to zero, yet every steep u* is positive."""
    rows = read_records(runs["efficiency-steep"].out / "efficiency.csv")
    stars = [float(r["u_star_steep"]) for r in rows if r["u_star_steep"]]
    _expect(stars and min(stars) > 0.0, min(stars, default=None))


def check_noisy_raking(runs: dict[str, Run]) -> None:
    """Raking the noisy panel takes more than one Newton step somewhere and
    adjusts some month."""
    notes = json.loads((runs["three-state-noisy"].out / "manifest.json").read_text())["notes"]
    _expect(notes["raking_iterations"]["max"] > 1, notes["raking_iterations"])
    _expect(notes["raking_months_adjusted"] > 0, notes["raking_months_adjusted"])


def check_one_window(runs: dict[str, Run]) -> None:
    """On a panel that ends before 2008-01, estimate's default is one
    window, the whole panel."""
    rows = read_records(runs["estimate-one-window"].out / "matching_estimates.csv")
    _expect([(r["sample_start"], r["sample_end"]) for r in rows] == [("2000-01", "2004-12")],
            rows)


CHECKS = (check_orderings, check_json_constants, check_reprs, check_steep_u_star,
          check_noisy_raking, check_one_window)


def check_rake_budget(runs: dict[str, Run], run) -> None:
    """Each month-pair leaves at its own first converged Newton step: a
    budget of exactly the most steps any pair took gives the same bytes, and
    one step less fails, writing nothing."""
    noisy, workdir = runs["three-state-noisy"], runs["three-state-noisy"].out.parent
    most = json.loads((noisy.out / "manifest.json").read_text())["notes"][
        "raking_iterations"]["max"]
    argv = ["three-state", "--input", noisy.input, "--rake-max-iter"]
    code, stderr = run([*argv, str(most), "--output-dir", "budget-most"], workdir)
    table = "three_state_shifters.csv"
    _expect(code == 0 and (workdir / "budget-most" / table).read_bytes()
            == (noisy.out / table).read_bytes(), "--rake-max-iter", most, code, stderr)
    code, stderr = run([*argv, str(most - 1), "--output-dir", "budget-short"], workdir)
    _expect(code == 3 and f"did not converge within {most - 1} iterations" in stderr
            and not (workdir / "budget-short").exists(), "--rake-max-iter", most - 1, code,
            stderr)


def run_console(argv: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(["beveridge", *argv], cwd=cwd, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def main() -> int:
    if shutil.which("beveridge") is None:
        print("smoke: no `beveridge` on PATH; install the package (pip install -e .)",
              file=sys.stderr)
        return 2
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_table(CASES, Path(tmp), run_console)
        checks = [(case.id, lambda case=case: check_case(case, runs)) for case in CASES]
        checks += [(check.__name__, lambda check=check: check(runs)) for check in CHECKS]
        checks.append(("check_rake_budget", lambda: check_rake_budget(runs, run_console)))
        for name, check in checks:
            try:
                check()
            except AssertionError as exc:
                failures.append(f"{name}: {exc}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"smoke: {len(CASES)} cases and {len(CHECKS) + 1} checks, "
          f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

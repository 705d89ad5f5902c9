"""The exit contract: a refused input exits 2, 3 or 4 with its label, each
refusal has its type, and a fault of the program leaves `cli.main` as the
exception it is, so the console script exits 1 with a traceback."""

import csv
import errno
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beveridge_accounting as ba
from beveridge_accounting import cli
from beveridge_accounting.csvio import _month_start

START = ba.MonthDate(2000, 1)
SRC = Path(__file__).resolve().parents[1] / "src"

# the panels the runs read: each in both models, by its simulate flags
PANELS = {"cycle-60": "--horizon 60 --du-amplitude 0.001", "short-4": "--horizon 4",
          "noise-1e-13": "--horizon 120 --noise 1e-13 --seed 1",
          "paper-240": "--horizon 240 --du-amplitude 0.001"}


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """{(name, three_state): panel.csv path} for every panel of `PANELS`."""
    root, paths = tmp_path_factory.mktemp("panels"), {}
    for name, flags in PANELS.items():
        for three in (False, True):
            out = root / f"{name}{'-3' * three}"
            argv = ["simulate", *flags.split(), *["--three-state"] * three]
            assert cli.main([*argv, "--output-dir", str(out)]) == 0
            paths[name, three] = out / "panel.csv"
    return paths


def input_flags(panels, command, name="paper-240"):
    return [] if command == "simulate" else [
        "--input", str(panels[name, command == "three-state"])]


# ---------------------------------------------------------------------------
# Each refusal's type: a DataError where a panel file or a flag reaches it
# (`cli.main` reports it), a plain ValueError where only a library caller
# can (`cli.main` would let it through as a fault of the program)
# ---------------------------------------------------------------------------

def _series(*values):
    return ba.MonthlySeries(START, np.array(values, dtype=float))


def _write(path, text):
    path.write_bytes(text)
    return path


def _point(**fields):
    return ba.ApproximationPoint(**{"S_0": 0.06, "N_tilde_0": 0.0, "x_0": 0.02,
                                    "sigma_0": 0.36, "alpha": 0.3, **fields})


def _sim(**fields):
    return ba.simulate(ba.SimulationSpec(**{"alpha": 0.3, "u0": 0.06, "horizon": 12,
                                            "s_path": 0.02, "sigma_path": 0.36,
                                            **fields}))


def _nonsearchers_below_zero():
    # ne above ue makes xi_N above one, so N_tilde is negative
    sim = _sim(n0=0.3, rates={"en": 0.02, "ue": 0.25, "un": 0.03, "ne": 0.3, "nu": 0.02})
    theta = ba.tightness(sim.panel.S, sim.V)
    sigma = ba.matching_efficiency_path(sim.panel.f.values, theta.values, 0.3,
                                        start=START)
    ba.ApproximationPoint.from_panel(sim.panel, sigma, 0.3, (START, START.shift(10)))


def _sigma_off_the_grid():
    # an efficiency path one month short of the panel it is averaged with
    sim = _sim()
    ba.ApproximationPoint.from_panel(sim.panel, sim.sigma_true.values[:-1], 0.3,
                                     (START, START.shift(10)))


def _infinite_expansion():
    # an efficiency path infinite in one month, whose log is too
    sim = _sim()
    sigma = sim.sigma_true.values.copy()
    sigma[3] = np.inf
    ba.three_state_loglinear(sim.panel, sigma, _point())


def _negative_stayers():
    # E's exit rates sum to 1 + 1e-12, which raking admits, and the stayer
    # cell they leave at -5e-13 grows past -tol as E's column is scaled up
    stocks = (_series(0.5, 0.45), _series(0.25, 0.3), _series(0.25, 0.25))
    rates = {"eu": _series(0.5 + 5e-13, 0.1), "en": _series(0.5 + 5e-13, 0.1),
             "ue": _series(0.1, 0.1), "un": _series(0.1, 0.1), "ne": _series(0.04, 0.1),
             "nu": _series(0.1, 0.1)}
    ba.rake_transition_rates(stocks, rates)


def _unreadable(tmp):
    # a file whose mode forbids reading, which a root user would read anyway
    def refuse(path):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    with mock.patch.object(Path, "read_bytes", refuse):
        ba.read_panel(tmp / "p.csv")


REFUSALS = {
    # csvio: a header with no value columns, and three date columns that
    # fail the plain path's one word comparison, which then hands the file
    # to csv.reader (`_month_start`'s ValueError never leaves csvio; the
    # padded, past-9999-12 and non-contiguous cases of test_csvio.py read
    # such files)
    "no-value-columns": (ba.DataError, "no value columns", lambda tmp: ba.read_panel(
        _write(tmp / "p.csv", b"date\n2000-01\n"))),
    "not-utf-8": (ba.DataError, "can't decode byte 0xff", lambda tmp: ba.read_panel(
        _write(tmp / "p.csv", b"date,u\n2000-01,\xff\n"))),
    # a path that cannot be read, each named with its reason
    "missing-file": (ba.DataError, r"absent\.csv: No such file or directory$",
                     lambda tmp: ba.read_panel(tmp / "absent.csv")),
    "under-a-file": (ba.DataError, r"p\.csv/x\.csv: Not a directory$",
                     lambda tmp: ba.read_panel(_write(tmp / "p.csv", b"date,u\n") / "x.csv")),
    "not-permitted": (ba.DataError, r"p\.csv: Permission denied$", _unreadable),
    "bad-date-width": (ValueError, "bad date", lambda tmp: _month_start(
        b"2000-01x,1\n", np.array([0]), np.array([8]))),
    "bad-date-past-9999": (ValueError, "bad date", lambda tmp: _month_start(
        b"9999-12,1\n9999-13,1\n", np.array([0, 10]), np.array([7, 17]))),
    "bad-date-gap": (ValueError, "bad date", lambda tmp: _month_start(
        b"2000-01,1\n2000-03,1\n", np.array([0, 10]), np.array([7, 17]))),
    "nothing-to-write": (ValueError, "nothing to write",
                         lambda tmp: ba.write_panel(tmp / "p.csv", {})),
    # series: estimate reaches the first with a finding rate that overflows
    # (a u_rate cell of 1e-320)
    "infinite-value": (ba.DataError, r"^infinite value at 2000-02: inf$",
                       lambda tmp: _series(0.1, np.inf)),
    "two-dimensional": (ValueError, "one-dimensional",
                        lambda tmp: ba.MonthlySeries(START, np.zeros((2, 2)))),
    "empty-end": (ValueError, "no end month", lambda tmp: _series().end),
    "with-values-length": (ValueError, "match series length",
                           lambda tmp: _series(0.1, 0.2).with_values([0.1])),
    "alignment-name": (ValueError, "alignment must be",
                       lambda tmp: ba.moving_average(_series(0.1, 0.2), 1, "left")),
    "moving-average-empty": (ValueError, "empty input",
                             lambda tmp: ba.moving_average(_series(), 1)),
    "normalize-empty": (ValueError, "empty input", lambda tmp: ba.normalize_shares([])),
    # curve: both reached by three-state on a panel file (cases.py's
    # point-no-room reaches the second)
    "nonsearchers-below-zero": (ba.DataError, r"N_tilde_0 must be in \[0, 1\), got -",
                                lambda tmp: _nonsearchers_below_zero()),
    "no-room-for-employment": (ba.DataError, "must leave room for employment",
                               lambda tmp: _point(S_0=0.75, N_tilde_0=0.25)),
    "point-alpha": (ValueError, "alpha must be in", lambda tmp: _point(alpha=1.0)),
    # matching and curve: the kernel that computes a value refuses its
    # overflow by month; shifters reaches the first with a v_rate cell of
    # 1e-320 at --alpha 0.999999999, here the second path of an alpha column
    "efficiency-path-overflow": (
        ba.DataError, r"^infinite matching efficiency at 2000-03: inf$",
        lambda tmp: ba.matching_efficiency_path(
            np.full(4, 0.5), np.array([0.1, 0.1, 1e-320, 0.1]),
            np.array([[0.3], [0.999999999]]), start=START)),
    "expansion-overflow": (
        ba.DataError, r"^infinite log-linear matching at 2000-04: -inf$",
        lambda tmp: _infinite_expansion()),
    # flows_three_state
    "negative-stayer-mass": (ba.DataError, "negative stayer mass after adjustment",
                             lambda tmp: _negative_stayers()),
    # curve: an array that meets a calendar must lie on its grid; `cli`
    # computes sigma on the panel's
    "grid-mismatch": (ValueError, "calendar grid", lambda tmp: _sigma_off_the_grid()),
    # shift_decomposition: `cli` checks the bounds against the data first
    "up-end-outside": (ValueError, "do not cover bound 2000-07",
                       lambda tmp: ba.build_swing_samples(
                           _series(0.05, 0.06, 0.07, 0.06, 0.05),
                           _series(0.04, 0.03, 0.02, 0.03, 0.04),
                           ba.SwingBounds(START, START.shift(2), START.shift(3),
                                          START.shift(6)))),
    # simulate: the flags' parsers refuse these first
    "path-length": (ValueError, "length-12 path", lambda tmp: _sim(s_path=np.full(5, 0.02))),
    "simulate-alpha": (ValueError, "alpha must be in", lambda tmp: _sim(alpha=0.0)),
    "horizon-below-two": (ValueError, "at least 2 months", lambda tmp: _sim(horizon=1)),
}


@pytest.mark.parametrize("kind, match, call", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_has_its_type(tmp_path, kind, match, call):
    with pytest.raises(kind, match=match) as got:
        call(tmp_path)
    assert isinstance(got.value, ba.DataError) == issubclass(kind, ba.DataError)


def test_a_raking_error_is_still_a_runtime_error():
    # for library callers; the case table checks each class's code and label
    assert issubclass(ba.RakingError, ba.DataError)
    assert issubclass(ba.RakingError, RuntimeError)


# ---------------------------------------------------------------------------
# A fault of the program is not a data error
# ---------------------------------------------------------------------------

# one kernel per command, by the module attribute the command calls
KERNELS = {"estimate": "beveridge_accounting.cli.estimate_matching",
           "shifters": "beveridge_accounting.cli.three_state_loglinear",
           "decompose": "beveridge_accounting.cli.build_swing_samples",
           "three-state": "beveridge_accounting.flows_three_state.rake_transition_rates",
           "efficiency": "beveridge_accounting.cli.efficient_unemployment",
           "simulate": "beveridge_accounting.cli.simulate"}


@pytest.mark.parametrize("fault", [ValueError, KeyError, np.linalg.LinAlgError],
                         ids=lambda fault: fault.__name__)
@pytest.mark.parametrize("command", KERNELS)
def test_a_program_fault_leaves_main(panels, tmp_path, monkeypatch, capsys, command,
                                     fault):
    def broken(*args, **kwargs):
        raise fault("a bug")

    monkeypatch.setattr(KERNELS[command], broken)
    with pytest.raises(fault, match="a bug"):
        cli.main([command, *input_flags(panels, command),
                  "--output-dir", str(tmp_path / "out")])
    assert not any(line.startswith("data error:")
                   for line in capsys.readouterr().err.splitlines())


def test_a_program_fault_exits_one_with_a_traceback(panels, tmp_path):
    # the console script's body, `sys.exit(main())`, with a kernel that
    # raises what numpy's solver raised on a singular matrix
    script = ("import sys, numpy\n"
              "from beveridge_accounting import cli\n"
              "def broken(*args, **kwargs):\n"
              "    raise numpy.linalg.LinAlgError('Singular matrix')\n"
              "cli.estimate_matching = broken\n"
              "sys.exit(cli.main())\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "estimate", *input_flags(panels, "estimate"),
         "--output-dir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "LinAlgError: Singular matrix" in proc.stderr
    assert not any(line.startswith("data error:") for line in proc.stderr.splitlines())
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# The contract as a property: any command with edge flags exits 0, 2, 3 or
# 4, and what it writes reads back
# ---------------------------------------------------------------------------

def _months(n):
    """Months at a panel's ends: one before it, its first two and last two,
    and one after it."""
    return [str(START.shift(t)) for t in (-1, 0, 1, n - 2, n - 1, n)]


def _windows(n):
    """Windows of one to three months at either end of a panel."""
    return [f"{START.shift(t)}:{START.shift(t + k - 1)}"
            for k in (1, 2, 3) for t in (0, n - k)]


UNIT_EDGES = ("1e-09", "0.01", "0.99", "0.999999999")


def edge_flags(command, n):
    """The flags `command` takes, each with values from its edge set, on a
    panel of `n` months: each item is one draw, a pinned point or a swing
    three flags."""
    months, windows = _months(n), _windows(n)
    smooth = [f"--smooth {k}" for k in (1, 2, n)] + ["--smooth-align trailing"]
    expand = [*(f"--alpha {a}" for a in UNIT_EDGES),
              *(f"--approx-window {w}" for w in windows)]
    pinned = [f"--u-bar {u} --s-bar {s} --sigma-bar {g}"
              for u, s, g in (("1e-09", "0.02", "0.36"), ("0.999999999", "0.02", "0.36"),
                              ("0.06", "1e-09", "0.36"), ("0.06", "0.999999999", "0.36"),
                              ("0.06", "0.02", "1e-09"), ("0.06", "0.02", "1e+09"))]
    references = [f"--reference {m}" for m in months]
    swings = [f"--down-start {START.shift(a)} --down-end {START.shift(b)} "
              f"--up-start {START.shift(c)}"
              for a, b, c in ((0, n // 4, n // 4 + 1), (0, n - 3, n - 2), (1, 1, n - 1))]
    if command == "simulate":
        return [*(f"--horizon {h}" for h in (2, 3, 60)),
                *(f"--{flag} {v}" for flag in ("alpha", "u0", "s-bar") for v in UNIT_EDGES),
                "--sigma-bar 1e-09", "--sigma-bar 1e+09", "--du-amplitude 0.001",
                "--noise 1e-13", "--sigma-break-at 0", "--sigma-break-at 1",
                "--start 9999-11", "--three-state"]
    return smooth + {
        "estimate": [*(f"--sample {w}" for w in windows), "--robust"],
        "shifters": expand + pinned + references,
        "decompose": expand + pinned + swings + [
            f"--{bound} {m}" for bound in ("down-start", "down-end", "up-start", "up-end")
            for m in months],
        "three-state": expand + references + ["--rake-tol 1e-06", "--rake-max-iter 1"],
        "efficiency": [f"--{flag} {v}" for flag in (
            "ms-elasticity", "steep-elasticity", "vacancy-cost", "unemployment-cost")
            for v in ("1e-300", "1e+300")],
    }[command]


HORIZONS = {"cycle-60": 60, "short-4": 4, "noise-1e-13": 120}


@st.composite
def runs(draw):
    """A command, the panel it reads and up to three of its edge flags."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    panel = None if command == "simulate" else draw(st.sampled_from(sorted(HORIZONS)))
    flags = draw(st.lists(st.sampled_from(edge_flags(command, HORIZONS.get(panel, 120))),
                          max_size=3, unique=True))
    return command, panel, [word for flag in flags for word in flag.split()]


def _reads_back(path: Path) -> None:
    """A written CSV reads back: a dated panel through `read_panel`, any
    other table through csv, every row as wide as its header."""
    if path.read_text().startswith("date,"):
        ba.read_panel(path)
        return
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(row) == len(header) for row in rows), path


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(runs())
def test_edge_flags_exit_by_the_contract(panels, run):
    command, panel, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, *flags, "--output-dir", str(out)]
        if panel is not None:
            argv += ["--input", str(panels[panel, command == "three-state"])]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        assert code in (0, 2, 3, 4)
        if code == 0:
            for path in out.glob("*.csv"):
                _reads_back(path)
        else:
            assert not out.exists()


# ---------------------------------------------------------------------------
# Faults in the input's bytes: any command on a mutated panel file exits 0,
# 2, 3 or 4, and no exception leaves `cli.main`
# ---------------------------------------------------------------------------

def _lines(data: bytes, at: float) -> tuple[list[bytes], int]:
    """The file's lines, each with its end, and the index of a data line
    at the share `at` of them."""
    lines = data.splitlines(keepends=True)
    return lines, 1 + int(at * (len(lines) - 1))


def _truncated(data, at):
    lines, k = _lines(data, at)
    cut = sum(map(len, lines[:k])) + max(1, len(lines[k]) // 2)  # mid-row
    return data[:cut]


def _bom(data, at):
    return b"\xef\xbb\xbf" + data


def _duplicated_month(data, at):
    lines, k = _lines(data, at)
    return b"".join(lines[:k + 1] + lines[k:])


def _months_swapped(data, at):
    lines, k = _lines(data, at)
    k = min(k, len(lines) - 2)
    return b"".join(lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2:])


def _ends(line: bytes) -> tuple[bytes, bytes]:
    """A line's text and its end (CRLF, as the writer writes, or LF)."""
    text = line.rstrip(b"\r\n")
    return text, line[len(text):]


def _columns(data, make):
    """Each line's cells rewritten by `make(cells, line index)`, its end kept."""
    return b"".join(b",".join(make(text.split(b","), k)) + end
                    for k, (text, end) in enumerate(map(_ends, data.splitlines(True))))


def _extra_column(data, at):
    return _columns(data, lambda cells, k: [*cells, b"extra" if k == 0 else b"0.5"])


def _duplicated_column(data, at):
    # the value column at the share `at` of the header's, name and cells
    j = 1 + int(at * data.count(b",", 0, data.index(b"\n")))
    return _columns(data, lambda cells, k: [*cells, cells[j]])


def _nul(data, at):
    k = int(at * len(data))
    return data[:k] + b"\0" + data[k:]


def _mixed_line_ends(data, at):
    # the lines from the k-th on end in the other kind of line end
    lines, k = _lines(data, at)
    other = {b"\r\n": b"\n", b"\n": b"\r\n"}
    return b"".join(lines[:k] + [text + other[end]
                                 for text, end in map(_ends, lines[k:])])


def _lone_cr(data, at):
    lines, k = _lines(data, at)
    return b"".join(lines[:k] + [_ends(lines[k])[0] + b"\r"] + lines[k + 1:])


def _not_utf8(data, at):
    k = int(at * len(data))
    return data[:k] + b"\xff" + data[k:]


BYTE_FAULTS = (_truncated, _bom, _duplicated_month, _months_swapped, _extra_column,
               _duplicated_column, _nul, _mixed_line_ends, _lone_cr, _not_utf8)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fault=st.sampled_from(BYTE_FAULTS), at=st.floats(0.0, 0.999),
       command=st.sampled_from(("estimate", "shifters", "decompose", "efficiency",
                                "three-state")))
def test_input_byte_faults_exit_by_the_contract(panels, fault, at, command):
    source = panels["paper-240", command == "three-state"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_bytes(fault(source.read_bytes(), at))
        code = cli.main([command, "--input", str(path),
                         "--output-dir", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4)

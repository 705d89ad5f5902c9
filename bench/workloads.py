"""Seeded input panels and the op schedule of each benchmark workload.

Every input is generated from the benchmark seed through the package's own
simulators (`simulate_two_state`, `simulate_three_state`), so the planted
model identities hold exactly; `rake-240` then perturbs the six transition
rates with seeded multiplicative noise so raking has real work to do.  The
program under test sees only the CSV files written here.

The panel shapes are fixed and the seed moves only noise and wiggle phase,
so every seed asks the program for the same amount of work: run-to-run
spread then measures the machine, not the draw.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from beveridge_accounting.series import MonthDate
from beveridge_accounting.simulate import (SimulationSpec, ThreeStateSimulationSpec,
                                           simulate_three_state, simulate_two_state)

START = MonthDate(2000, 1)
ALPHA = 0.3
SMOOTH = ["--smooth", "3"]
TWO_STATE_COMMANDS = ("estimate", "shifters", "decompose", "efficiency")
RATE_NAMES = ("eu", "en", "ue", "un", "ne", "nu")

# rake-240: multiplicative noise on each published rate (0.1 percent), the
# size that makes IPF take about a hundred sweeps per month-pair.
RATE_NOISE = 1e-3

# stress-24k: one long recession loop inside a 24,000-month panel.  The loop
# is fixed in length (the swing scan is quadratic in it, so a seeded length
# would dominate run-to-run spread) and kept bounded because a full-panel
# swing would take minutes per op.
STRESS_MONTHS = 24_000
LOOP_START = 87            # 2007-04, the default downswing start
LOOP_DOWN = 1_200
LOOP_UP = 1_200
WIGGLE_PERIOD = 48
WIGGLE_AMPLITUDE = 0.002   # its slope exceeds the loop trend: non-monotone upswing


@dataclass
class Op:
    """One CLI invocation: command and options, less --output-dir."""

    command: str
    fmt: str
    argv: list[str]
    months: int            # input-panel months this op processes
    panel: str             # key into Workload.panels


@dataclass
class Workload:
    name: str
    in_process: bool
    ops: list[Op] = field(default_factory=list)
    panels: dict = field(default_factory=dict)   # key -> PanelFile
    simulate_s: float = 0.0


@dataclass
class PanelFile:
    path: Path
    columns: dict          # name -> np.ndarray (raw generated values)
    months: int
    bytes: int
    rake_tol: float | None = None


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> int:
    """Write a panel CSV (date column plus value columns); returns its size."""
    names = list(columns)
    n = len(columns[names[0]])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        for t in range(n):
            writer.writerow([str(START.shift(t))]
                            + ["" if math.isnan(columns[c][t]) else repr(float(columns[c][t]))
                               for c in names])
    return path.stat().st_size


def _knots(n: int, points: list[tuple[int, float]]) -> np.ndarray:
    xs, ys = zip(*points)
    return np.interp(np.arange(n), xs, ys)


def two_state_columns(n: int, u_knots, s_knots, sigma_knots, seed: int,
                      wiggle: float) -> tuple[dict, float]:
    """Simulated u_rate/v_rate/u_short plus the simulate call time."""
    rng = np.random.default_rng([seed, n])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n)
    u = _knots(n, u_knots) + wiggle * np.sin(2.0 * np.pi * t / WIGGLE_PERIOD + phase)
    spec = SimulationSpec(alpha=ALPHA, u0=float(u[0]), horizon=n,
                          s_path=_knots(n, s_knots), sigma_path=_knots(n, sigma_knots),
                          delta_u_path=np.diff(u), noise_std=0.02,
                          seed=int(rng.integers(2**31)), start=START)
    t0 = time.perf_counter()
    sim = simulate_two_state(spec)
    elapsed = time.perf_counter() - t0
    return {"u_rate": sim.panel.U.values, "v_rate": sim.panel.V.values,
            "u_short": sim.panel.U_short.values}, elapsed


def paper_two_state(seed: int) -> tuple[dict, float]:
    """240 months, 2000-01..2019-12: a 2007-04..2009-10 recession loop with
    higher separations on the way down and lower efficiency on the way up."""
    n = 240
    return two_state_columns(
        n, [(0, 0.052), (87, 0.045), (117, 0.100), (n - 1, 0.040)],
        [(0, 0.020), (87, 0.020), (117, 0.026), (140, 0.020), (n - 1, 0.019)],
        [(0, 0.36), (110, 0.36), (125, 0.30), (n - 1, 0.31)], seed, wiggle=0.0005)


def stress_two_state(seed: int) -> tuple[dict, float]:
    peak = LOOP_START + LOOP_DOWN
    trough = peak + LOOP_UP
    n = STRESS_MONTHS
    return two_state_columns(
        n, [(0, 0.050), (LOOP_START, 0.045), (peak, 0.100), (trough, 0.045),
            (n - 1, 0.050)],
        [(0, 0.020), (LOOP_START, 0.020), (peak, 0.026), (trough, 0.020),
         (n - 1, 0.020)],
        [(0, 0.36), (peak, 0.36), (peak + 200, 0.30), (trough, 0.30),
         (trough + 200, 0.36), (n - 1, 0.36)], seed, wiggle=WIGGLE_AMPLITUDE)


def _steady_stocks(rates: dict[str, float]) -> tuple[float, float]:
    """Stationary (U, N) shares of the monthly three-state chain."""
    p = np.array([[1 - rates["eu"] - rates["en"], rates["eu"], rates["en"]],
                  [rates["ue"], 1 - rates["ue"] - rates["un"], rates["un"]],
                  [rates["ne"], rates["nu"], 1 - rates["ne"] - rates["nu"]]])
    w, vecs = np.linalg.eig(p.T)
    pi = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
    pi = pi / pi.sum()
    return float(pi[1]), float(pi[2])


def paper_three_state(seed: int, noise: float) -> tuple[dict, float]:
    """240 stock-consistent months from `simulate_three_state`; with
    `noise` > 0 the six rates are perturbed afterwards, so they no longer
    reproduce the stocks and raking must reconcile them."""
    n = 240
    base = {"eu": 0.012, "en": 0.020, "ue": 0.25, "un": 0.030, "ne": 0.040, "nu": 0.020}
    u0, n0 = _steady_stocks(base)
    rates = {
        "eu": _knots(n, [(0, 0.012), (87, 0.012), (110, 0.017), (140, 0.012),
                         (n - 1, 0.012)]),
        "en": np.full(n, base["en"]),
        "ue": _knots(n, [(0, 0.25), (87, 0.25), (117, 0.17), (n - 1, 0.24)]),
        "un": np.full(n, base["un"]),
        "ne": _knots(n, [(0, 0.040), (87, 0.040), (117, 0.032), (n - 1, 0.039)]),
        "nu": np.full(n, base["nu"]),
    }
    rng = np.random.default_rng([seed, n, 3])
    sigma = 0.25 * np.exp(rng.normal(0.0, 0.02, n))
    spec = ThreeStateSimulationSpec(alpha=ALPHA, u0=u0, n0=n0, horizon=n,
                                    rates=rates, sigma_path=sigma, start=START)
    t0 = time.perf_counter()
    sim = simulate_three_state(spec)
    elapsed = time.perf_counter() - t0
    cols = {"e_stock": sim.panel.E.values, "u_stock": sim.panel.U.values,
            "n_stock": sim.panel.N.values}
    for name in RATE_NAMES:
        vals = getattr(sim.panel, name).values
        if noise > 0.0:
            vals = vals * (1.0 + noise * rng.standard_normal(n))
        cols[name] = vals
    cols["v_rate"] = sim.V.values
    return cols, elapsed


def _panel(workdir: Path, key: str, cols: dict, rake_tol: float | None = None
           ) -> PanelFile:
    path = workdir / f"{key}.csv"
    size = write_csv(path, cols)
    return PanelFile(path=path, columns=cols, months=len(next(iter(cols.values()))),
                     bytes=size, rake_tol=rake_tol)


def _two_state_ops(panel: PanelFile, formats: tuple[str, ...],
                   decompose_args: list[str]) -> list[Op]:
    ops = []
    for command in TWO_STATE_COMMANDS:
        for fmt in formats:
            argv = [command, "--input", str(panel.path), "--format", fmt, *SMOOTH]
            if command == "decompose":
                argv += decompose_args
            ops.append(Op(command, fmt, argv, panel.months, "two"))
    return ops


def _three_state_op(panel: PanelFile) -> Op:
    return Op("three-state", "csv",
              ["three-state", "--input", str(panel.path), "--format", "csv",
               "--rake-tol", repr(panel.rake_tol)], panel.months, "three")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's panels under `workdir` and list its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "cli-cold":
        two, t2 = paper_two_state(seed)
        three, t3 = paper_three_state(seed, noise=0.0)
        wl = Workload(name, in_process=False, simulate_s=t2 + t3)
        wl.panels = {"two": _panel(workdir, "two", two),
                     "three": _panel(workdir, "three", three, rake_tol=1e-12)}
        wl.ops = _two_state_ops(wl.panels["two"], ("csv",), [])
        wl.ops.append(_three_state_op(wl.panels["three"]))
    elif name == "rake-240":
        three, t3 = paper_three_state(seed, noise=RATE_NOISE)
        wl = Workload(name, in_process=True, simulate_s=t3)
        wl.panels = {"three": _panel(workdir, "three", three, rake_tol=1e-12)}
        wl.ops = [_three_state_op(wl.panels["three"])]
    elif name == "stress-24k":
        two, t2 = stress_two_state(seed)
        wl = Workload(name, in_process=True, simulate_s=t2)
        wl.panels = {"two": _panel(workdir, "two", two)}
        peak = LOOP_START + LOOP_DOWN
        bounds = ["--down-start", str(START.shift(LOOP_START)),
                  "--down-end", str(START.shift(peak - 1)),
                  "--up-start", str(START.shift(peak)),
                  "--up-end", str(START.shift(peak + LOOP_UP - 1))]
        wl.ops = _two_state_ops(wl.panels["two"], ("csv", "json"), bounds)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl

"""Command-line front end: ingestion, construction, estimation, decomposition
and flat-file emission.

Commands::

    beveridge estimate    matching-function estimates per sample window
    beveridge shifters    time paths of the Beveridge-curve shifters
    beveridge decompose   vertical-shift decomposition (log-linear + orderings)
    beveridge three-state three-state shifter paths
    beveridge efficiency  efficient unemployment under two slope calibrations
    beveridge simulate    synthetic panel generation

Outputs are plot-ready flat files (CSV by default, JSON optional) plus a
``manifest.json`` echoing the configuration, so every output is reproducible
from its manifest alone.  Exit codes: 0 success, 2 configuration error,
3 data error, 4 infeasibility with an empty result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import _json_safe, read_panel, require_columns, write_panel, write_table
from .curve import (ApproximationPoint, ThreeStateApproximationPoint, shifter_paths,
                    three_state_loglinear, two_state_loglinear)
from .efficiency import (EfficiencyCalibration, MS_ELASTICITY, MS_UNEMPLOYMENT_COST,
                         MS_VACANCY_COST, STEEP_ELASTICITY, efficient_unemployment,
                         unemployment_gap)
from .flows_three_state import RATE_NAMES, RakingError, build_three_state_panel
from .flows_two_state import build_two_state_panel
from .matching import (DEFAULT_ALPHA, estimate_matching, matching_efficiency_path,
                       searcher_finding_rate, tightness)
from .series import MonthDate, MonthlySeries, moving_average
from .shift_decomposition import (AllPairsInfeasibleError, SwingBounds,
                                  all_orderings_report, build_swing_samples,
                                  loglinear_shift_decomposition)
from .simulate import (SimulationSpec, ThreeStateSimulationSpec,
                       simulate_three_state, simulate_two_state)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


class ConfigError(Exception):
    """Invalid run configuration (bad windows, unparseable dates, ...)."""


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def _month(text: str) -> MonthDate:
    try:
        return MonthDate.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _window(text: str) -> tuple[MonthDate, MonthDate]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected START:END (YYYY-MM:YYYY-MM), got {text!r}")
    lo, hi = _month(parts[0]), _month(parts[1])
    if hi < lo:
        raise argparse.ArgumentTypeError(f"window end {hi} precedes start {lo}")
    return lo, hi


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _from_flags(cls, **fields):
    """``cls(**fields)`` for values given on the command line: a value that
    `cls` rejects is a configuration error, not a data error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_columns(args: argparse.Namespace, *names: str) -> dict[str, MonthlySeries]:
    panel = read_panel(args.input)
    require_columns(panel, *names)
    if args.smooth == 1:
        return {name: panel[name] for name in names}
    if args.smooth > len(panel[names[0]]):
        raise ConfigError(f"--smooth {args.smooth} is longer than the data")
    return {name: moving_average(panel[name], args.smooth, args.smooth_align)
            for name in names}


def _require_coverage(grid: MonthlySeries, what: str, *months: MonthDate) -> None:
    """ConfigError unless the data cover every month of a configured range."""
    if not all(grid.covers(m) for m in months):
        raise ConfigError(f"{what} outside data coverage [{grid.start}, {grid.end}]")


def _resolve_approx_window(args: argparse.Namespace,
                           grid: MonthlySeries) -> tuple[MonthDate, MonthDate]:
    """Default expansion window: the post-2007 months, else the full sample."""
    if args.approx_window is not None:
        lo, hi = args.approx_window
        _require_coverage(grid, f"approximation window [{lo}, {hi}]", lo, hi)
        return lo, hi
    post = MonthDate(2008, 1)
    if grid.covers(post):
        return post, grid.end
    return grid.start, grid.end


def _positive_finding_rate(f: MonthlySeries) -> tuple[MonthlySeries, int]:
    """Mask nonpositive finding-rate months (flagged, not usable in logs)."""
    bad = ~np.isnan(f.values) & (f.values <= 0.0)
    if bad.any():
        vals = f.values.copy()
        vals[bad] = np.nan
        return f.with_values(vals), int(bad.sum())
    return f, 0


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _output_path(args: argparse.Namespace, name: str) -> Path:
    """Path of the named data file in the configured format."""
    try:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # a file in the way
        raise ConfigError(f"--output-dir {args.output_dir}: not a directory") from None
    return Path(args.output_dir) / f"{name}.{args.format}"


def _write_manifest(args: argparse.Namespace, outputs: dict, notes: dict) -> None:
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {k: _echo_value(v) for k, v in sorted(vars(args).items())
                   if k not in ("func", "command")},
        "outputs": outputs,
    }
    if getattr(args, "input", None) is not None:  # simulate has no --input
        digest = hashlib.sha256(Path(args.input).read_bytes()).hexdigest()
        manifest["input"] = {"path": str(Path(args.input)), "sha256": digest}
    if notes:
        manifest["notes"] = {k: _json_safe(v) for k, v in sorted(notes.items())}
    path = Path(args.output_dir) / "manifest.json"  # made by _output_path
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _echo_value(value):
    if isinstance(value, MonthDate):
        return str(value)
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    if isinstance(value, list):
        return [_echo_value(v) for v in value]
    return _json_safe(value)


# ---------------------------------------------------------------------------
# Two-state pipeline shared by several commands
# ---------------------------------------------------------------------------

def _two_state_pipeline(args: argparse.Namespace):
    cols = _read_columns(args, "u_rate", "v_rate", "u_short")
    panel = build_two_state_panel(cols["u_rate"], cols["v_rate"], cols["u_short"])
    theta = tightness(panel.U, panel.V)
    f_pos, masked = _positive_finding_rate(panel.f)
    sigma = matching_efficiency_path(f_pos, theta, args.alpha)
    return panel, theta, f_pos, sigma, {"nonpositive_finding_months_masked": masked}


def _approx_point(args: argparse.Namespace, panel,
                  sigma) -> tuple[ApproximationPoint, dict]:
    overrides = (args.u_bar, args.s_bar, args.sigma_bar)
    if any(v is not None for v in overrides):
        if any(v is None for v in overrides):
            raise ConfigError("--u-bar, --s-bar and --sigma-bar must be "
                              "given together")
        point = _from_flags(ApproximationPoint, U_bar=args.u_bar, s_bar=args.s_bar,
                            sigma_bar=args.sigma_bar, alpha=args.alpha)
        info = {"approx_window": "overridden"}
    else:
        window = _resolve_approx_window(args, panel.U)
        point = ApproximationPoint.from_series(panel.U, panel.s, sigma,
                                               args.alpha, window)
        info = {"approx_window": f"{window[0]}:{window[1]}"}
    info.update({"U_bar": point.U_bar, "s_bar": point.s_bar,
                 "sigma_bar": point.sigma_bar, "V_bar": point.V_bar})
    return point, info


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_estimate(args: argparse.Namespace) -> int:
    panel, theta, f_pos, _, notes = _two_state_pipeline(args)

    if args.sample:
        windows = list(args.sample)
    else:
        split = MonthDate(2008, 1)
        if panel.U.covers(split) and split != panel.U.start:
            windows = [(panel.U.start, split.shift(-1)), (split, panel.U.end)]
        else:
            windows = [(panel.U.start, panel.U.end)]
    for lo, hi in windows:
        _require_coverage(panel.U, f"sample [{lo}, {hi}]", lo, hi)

    ests = [estimate_matching(f_pos, theta, sample=window, robust=args.robust)
            for window in windows]
    stars = [e.stars() for e in ests]
    path = _output_path(args, "matching_estimates")
    outputs = {path.name: write_table(path, {
        "sample_start": [str(lo) for lo, _ in windows],
        "sample_end": [str(hi) for _, hi in windows],
        "ln_sigma_bar": [e.ln_sigma_bar for e in ests],
        "se_ln_sigma": [e.se_ln_sigma for e in ests],
        "stars_ln_sigma": [star[0] for star in stars],
        "alpha": [e.alpha for e in ests], "se_alpha": [e.se_alpha for e in ests],
        "stars_alpha": [star[1] for star in stars],
        "sigma_bar": [e.sigma_bar for e in ests],
        "r_squared": [e.r_squared for e in ests],
        "n_obs": [float(e.n_obs) for e in ests]})}
    reports = [e.to_dict() for e in ests]
    report_path = Path(args.output_dir) / "matching_estimates_report.json"
    outputs[report_path.name] = write_table(
        report_path, {k: [r[k] for r in reports] for k in reports[0]})
    _write_manifest(args, outputs, notes)
    return EXIT_OK


def cmd_shifters(args: argparse.Namespace) -> int:
    panel, theta, f_pos, sigma, notes = _two_state_pipeline(args)
    point, info = _approx_point(args, panel, sigma)
    notes.update(info)

    _require_coverage(panel.U, f"reference month {args.reference}", args.reference)
    loglin = two_state_loglinear(panel.U, panel.s, sigma, point)
    paths = shifter_paths(loglin, args.reference,
                          ("searcher_dynamics", "separations", "matching"))
    with np.errstate(invalid="ignore", divide="ignore"):
        log_v = np.log(panel.V.values)

    path = _output_path(args, "shifters")
    outputs = {path.name: write_panel(path, {
        "u_rate": panel.U, "log_v_observed": panel.V.with_values(log_v),
        "log_v_loglinear": loglin.total, "dynamics": paths["searcher_dynamics"],
        "separations": paths["separations"], "matching": paths["matching"],
        "net": paths["net"]})}
    _write_manifest(args, outputs, notes)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    panel, theta, f_pos, sigma, notes = _two_state_pipeline(args)
    point, info = _approx_point(args, panel, sigma)
    notes.update(info)

    for m in (args.down_start, args.down_end, args.up_start, args.up_end):
        if m is not None:
            _require_coverage(panel.U, f"swing bound {m}", m)
    bounds = _from_flags(SwingBounds, down_start=args.down_start,
                         down_end=args.down_end, up_start=args.up_start,
                         up_end=args.up_end)
    samples = build_swing_samples(panel.U, panel.V, bounds)
    loglin = loglinear_shift_decomposition(panel.U, panel.V, panel.s, sigma, samples,
                                           point)
    table = all_orderings_report(panel.U, panel.V, panel.s, sigma, samples, point)

    path = _output_path(args, "vertical_shift_loglinear")
    outputs = {path.name: write_table(path, {
        "month": [str(month) for month in loglin.months], "u_rate": loglin.u,
        "observed_shift": loglin.observed, "total_loglinear": loglin.total,
        "dynamics": loglin.dynamics, "separations": loglin.separations,
        "matching": loglin.matching})}
    path = _output_path(args, "orderings")
    outputs[path.name] = write_table(path, {
        "ordering": [" -> ".join(row.ordering) for row in table.rows],
        "dynamics_pct": [row.dynamics_pct for row in table.rows],
        "separations_pct": [row.separations_pct for row in table.rows],
        "matching_pct": [row.matching_pct for row in table.rows]})

    notes.update({
        "dropped_months": [str(m) for m in table.dropped_months],
        "n_pairs": table.n_pairs,
        # vacancy-rate units: the nonlinear decomposition works in levels
        "average_observed_shift_level": table.average_observed_shift,
    })
    _write_manifest(args, outputs, notes)
    return EXIT_OK


def cmd_three_state(args: argparse.Namespace) -> int:
    cols = _read_columns(args, "e_stock", "u_stock", "n_stock", "v_rate",
                         *RATE_NAMES)
    panel, report = build_three_state_panel(
        cols["e_stock"], cols["u_stock"], cols["n_stock"],
        {name: cols[name] for name in RATE_NAMES},
        tol=args.rake_tol, max_iter=args.rake_max_iter)
    steps = report.iterations[report.iterations >= 0]
    notes = {"raking_worst_residual": report.worst_residual,
             "raking_max_adjustment": float(np.nanmax(report.max_adjustment))
             if np.isfinite(report.max_adjustment).any() else None,
             "raking_iterations": {"min": int(steps.min()),
                                   "median": float(np.median(steps)),
                                   "max": int(steps.max())} if steps.size else None,
             # rounding moves rates by ~1e-17 even on consistent months
             "raking_months_adjusted": int((report.max_adjustment
                                            > args.rake_tol).sum())}

    theta = tightness(panel.S, cols["v_rate"])
    f_rate, masked = _positive_finding_rate(searcher_finding_rate(panel))
    notes["nonpositive_finding_months_masked"] = masked
    sigma = matching_efficiency_path(f_rate, theta, args.alpha)

    window = _resolve_approx_window(args, panel.S)
    point = ThreeStateApproximationPoint.from_panel(panel, sigma, args.alpha, window)
    notes.update({"approx_window": f"{window[0]}:{window[1]}",
                  "S_0": point.S_0, "N_tilde_0": point.N_tilde_0,
                  "x_0": point.x_0, "sigma_0": point.sigma_0, "V_0": point.V_0})

    loglin = three_state_loglinear(panel, sigma, point)
    _require_coverage(panel.S, f"reference month {args.reference}", args.reference)
    paths = shifter_paths(loglin, args.reference)

    path = _output_path(args, "three_state_shifters")
    outputs = {path.name: write_panel(path, {
        "searchers": panel.S, "log_v_loglinear": loglin.total, **paths})}
    _write_manifest(args, outputs, notes)
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    cols = _read_columns(args, "u_rate", "v_rate")
    u, v = cols["u_rate"], cols["v_rate"]

    costs = {"vacancy_cost": args.vacancy_cost,
             "unemployment_cost": args.unemployment_cost}
    cal_ms = _from_flags(EfficiencyCalibration, beveridge_elasticity=args.ms_elasticity,
                         **costs)
    cal_steep = _from_flags(EfficiencyCalibration,
                            beveridge_elasticity=args.steep_elasticity, **costs)
    u_star_ms = efficient_unemployment(u, v, cal_ms)
    u_star_steep = efficient_unemployment(u, v, cal_steep)

    path = _output_path(args, "efficiency")
    outputs = {path.name: write_panel(path, {
        "u_rate": u, "u_star_ms": u_star_ms, "u_star_steep": u_star_steep,
        "gap_ms": unemployment_gap(u, u_star_ms),
        "gap_steep": unemployment_gap(u, u_star_steep)})}
    _write_manifest(args, outputs, {})
    return EXIT_OK


# simulate flags that only one of the two simulators reads, with their defaults
_TWO_STATE_ONLY = {"--du-amplitude": 0.0, "--du-period": 48.0, "--noise": 0.0,
                   "--seed": 0}
_THREE_STATE_ONLY = {"--n0": 0.30}


def _reject_given(args: argparse.Namespace, defaults: dict, model: str,
                  other: str) -> None:
    """ConfigError naming every flag of `defaults` set away from its default
    (NaN included): the `model` simulation never reads it."""
    given = [flag for flag, default in defaults.items()
             if getattr(args, flag[2:].replace("-", "_")) != default]
    if given:
        raise ConfigError(f"{', '.join(given)}: {model} only, not read {other}")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        columns = _simulated_columns(args)
    except ValueError as exc:
        # the panel comes from flags alone, so any value the simulation
        # rejects (a spec field or a path it implies) is a flag's fault
        raise ConfigError(str(exc)) from None
    path = _output_path(args, "panel")
    outputs = {path.name: write_panel(path, columns)}
    _write_manifest(args, outputs, {})
    return EXIT_OK


def _simulated_columns(args: argparse.Namespace) -> dict[str, MonthlySeries]:
    # a three-state panel that starts with no unemployed or no nonemployed
    # has no exit rates from that state after raking: `three-state` refuses it
    for flag in ("--u0", "--n0")[:1 + args.three_state]:
        value = getattr(args, flag[2:])
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{flag} must be in (0, 1), got {value}")
    if args.three_state:
        _reject_given(args, _TWO_STATE_ONLY, "two-state", "with --three-state")
        rates = {"eu": args.s_bar, "en": 0.02, "ue": 0.25, "un": 0.03,
                 "ne": 0.04, "nu": 0.02}
        sim = simulate_three_state(ThreeStateSimulationSpec(
            alpha=args.alpha, u0=args.u0, n0=args.n0, horizon=args.horizon,
            rates=rates, sigma_path=_sigma_path(args), start=args.start))
        return {"e_stock": sim.panel.E, "u_stock": sim.panel.U,
                "n_stock": sim.panel.N, "v_rate": sim.V, **sim.panel.rates()}
    _reject_given(args, _THREE_STATE_ONLY, "three-state", "without --three-state")
    sim = simulate_two_state(SimulationSpec(
        alpha=args.alpha, u0=args.u0, horizon=args.horizon, s_path=args.s_bar,
        sigma_path=_sigma_path(args), delta_u_path=_delta_u_path(args),
        noise_std=args.noise, seed=args.seed, start=args.start))
    return {"u_rate": sim.panel.U, "v_rate": sim.panel.V, "u_short": sim.panel.U_short}


def _sigma_path(args: argparse.Namespace) -> np.ndarray:
    path = np.full(args.horizon, args.sigma_bar)
    if args.sigma_break_at is not None:
        if not 0 <= args.sigma_break_at < args.horizon:
            raise ConfigError("--sigma-break-at outside the horizon")
        path[args.sigma_break_at:] *= args.sigma_break_factor
    return path


def _delta_u_path(args: argparse.Namespace) -> np.ndarray | None:
    if args.du_amplitude == 0.0:
        return None
    t = np.arange(args.horizon - 1)
    return args.du_amplitude * np.sin(2.0 * np.pi * t / args.du_period)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("--input", required=True, help="panel CSV path")
    sub.add_argument("--output-dir", required=True, help="directory for outputs")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--alpha", type=_unit_interval, default=DEFAULT_ALPHA,
                     help="matching elasticity (default %(default)s)")
    sub.add_argument("--smooth", type=_positive_int, default=1, metavar="N",
                     help="moving-average window applied to inputs (1 = none)")
    sub.add_argument("--smooth-align", choices=("centered", "trailing"),
                     default="centered")


def _add_approx(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--approx-window", type=_window, metavar="START:END",
                     help="expansion-point window (default: post-2007 months)")


def _add_point_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--u-bar", type=_unit_interval, default=None,
                     help="override the expansion-point unemployment share")
    sub.add_argument("--s-bar", type=_unit_interval, default=None,
                     help="override the expansion-point separation probability")
    sub.add_argument("--sigma-bar", type=_positive_float, default=None,
                     help="override the expansion-point matching efficiency")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="beveridge",
        description="Dynamic Beveridge-curve accounting toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", help="matching-function estimation")
    _add_common(p)
    p.add_argument("--sample", type=_window, action="append", metavar="START:END",
                   help="estimation window; repeatable (default: pre/post 2008)")
    p.add_argument("--robust", action="store_true",
                   help="HC1 heteroskedasticity-robust standard errors")
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("shifters", help="shifter time paths")
    _add_common(p)
    _add_approx(p)
    _add_point_overrides(p)
    p.add_argument("--reference", type=_month, default=MonthDate(2007, 4),
                   metavar="YYYY-MM", help="normalization month (default 2007-04)")
    p.set_defaults(func=cmd_shifters)

    p = subs.add_parser("decompose", help="vertical-shift decomposition")
    _add_common(p)
    _add_approx(p)
    _add_point_overrides(p)
    p.add_argument("--down-start", type=_month, default=MonthDate(2007, 4))
    p.add_argument("--down-end", type=_month, default=MonthDate(2009, 6))
    p.add_argument("--up-start", type=_month, default=MonthDate(2010, 4))
    p.add_argument("--up-end", type=_month, default=None,
                   help="optional upswing end (default: unemployment recovery)")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("three-state", help="three-state shifter paths")
    _add_common(p)
    _add_approx(p)
    p.add_argument("--reference", type=_month, default=MonthDate(2007, 4))
    p.add_argument("--rake-tol", type=_positive_float, default=1e-12)
    p.add_argument("--rake-max-iter", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_three_state)

    p = subs.add_parser("efficiency", help="efficient unemployment series")
    _add_common(p)
    p.add_argument("--ms-elasticity", type=_positive_float, default=MS_ELASTICITY)
    p.add_argument("--steep-elasticity", type=_positive_float,
                   default=STEEP_ELASTICITY)
    p.add_argument("--vacancy-cost", type=_positive_float, default=MS_VACANCY_COST)
    p.add_argument("--unemployment-cost", type=_positive_float,
                   default=MS_UNEMPLOYMENT_COST)
    p.set_defaults(func=cmd_efficiency)

    p = subs.add_parser("simulate", help="synthetic panel generation")
    _add_common(p, with_input=False)
    p.add_argument("--horizon", type=_positive_int, default=120)
    p.add_argument("--start", type=_month, default=MonthDate(2000, 1))
    p.add_argument("--u0", type=float, default=0.06)
    p.add_argument("--n0", type=float, default=_THREE_STATE_ONLY["--n0"],
                   help="initial nonemployment share (three-state only)")
    p.add_argument("--s-bar", type=_finite_float, default=0.02)
    p.add_argument("--sigma-bar", type=_finite_float, default=0.36)
    p.add_argument("--du-amplitude", type=_finite_float,
                   default=_TWO_STATE_ONLY["--du-amplitude"],
                   help="sinusoidal unemployment-change amplitude")
    p.add_argument("--du-period", type=_positive_float,
                   default=_TWO_STATE_ONLY["--du-period"])
    p.add_argument("--sigma-break-at", type=int, default=None, metavar="T",
                   help="month index at which efficiency jumps")
    p.add_argument("--sigma-break-factor", type=_positive_float, default=0.75)
    p.add_argument("--noise", type=_finite_float, default=_TWO_STATE_ONLY["--noise"],
                   help="lognormal noise std on the efficiency path")
    p.add_argument("--seed", type=int, default=_TWO_STATE_ONLY["--seed"])
    p.add_argument("--three-state", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AllPairsInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, RakingError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

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
3 data error, 4 infeasibility with an empty result (`series.Refusal`);
any other exception is a fault of the program and exits 1 with its
traceback.  A command wraps each array result it writes into a series
where it computes it; each kernel refuses the overflows it computes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import Panel, _dates, read_panel, require_columns, write_panel, write_table
from .curve import ApproximationPoint, shifter_paths, three_state_loglinear
from .efficiency import (EfficiencyCalibration, MS_ELASTICITY, MS_UNEMPLOYMENT_COST,
                         MS_VACANCY_COST, STEEP_ELASTICITY, efficient_unemployment,
                         unemployment_gap)
from .flows_three_state import RATE_NAMES, ThreeStatePanel, build_three_state_panel
from .flows_two_state import TwoStatePanel, build_two_state_panel
from .matching import (DEFAULT_ALPHA, MIN_MONTHS, estimate_matching,
                       matching_efficiency_path, tightness)
from .series import (ConfigError, DataError, MonthDate, MonthlySeries, Refusal,
                     moving_average)
from .shift_decomposition import (MARGINS, SwingBounds, all_orderings_report,
                                  build_swing_samples, loglinear_shift_decomposition)
from .simulate import SimulationSpec, simulate

# The default normalization month, and the first post-2007 month: where
# `estimate` splits its default samples and the default expansion window starts
_REFERENCE = MonthDate(2007, 4)
_POST_2007 = MonthDate(2008, 1)


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


def _number(kind, text: str):
    """int(text) or float(text), with argparse's message for text that is not one."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}") from None


def _int_at_least(least: int, text: str) -> int:
    value = _number(int, text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(1, text)


def _non_negative_int(text: str) -> int:
    """A seed, which numpy's generator takes from 0 up."""
    return _int_at_least(0, text)


def _horizon(text: str) -> int:
    """A simulated horizon: the two months of one transition or more."""
    return _int_at_least(2, text)


def _positive_float(text: str) -> float:
    value = _number(float, text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _rake_tol(text: str) -> float:
    """A raking tolerance: no finer than float64 rounding of the margins
    lets raking reach."""
    value = _positive_float(text)
    if value < sys.float_info.epsilon:
        raise argparse.ArgumentTypeError(
            f"must be at least {sys.float_info.epsilon} (float64 machine epsilon), "
            f"got {value}")
    return value


def _finite_float(text: str) -> float:
    value = _number(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _unit_interval(text: str) -> float:
    value = _number(float, text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _from_flags(make, *args, **fields):
    """``make(*args, **fields)`` for values given on the command line: a
    value that `make` refuses (a DataError) is a configuration error."""
    try:
        return make(*args, **fields)
    except DataError as exc:
        raise ConfigError(str(exc)) from None


def _read_columns(args: argparse.Namespace, panel: Panel,
                  *names: str) -> dict[str, MonthlySeries]:
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


def _require_reference(args: argparse.Namespace, grid: MonthlySeries,
                       ahead: int) -> None:
    """ConfigError unless --reference is a month of `grid` that can have a
    dynamics term: outside the edges --smooth blanks, and `ahead` months
    before the last (the next month's searchers, and in three states the
    month-pair that gives them)."""
    _require_coverage(grid, f"reference month {args.reference}", args.reference)
    lead = (args.smooth - 1) // 2 if args.smooth_align == "centered" else args.smooth - 1
    last = len(grid) + lead - args.smooth - ahead  # a grid index, as lead is
    if last < lead:
        raise ConfigError(f"--reference {args.reference}: no month of the data has a "
                          f"dynamics term at --smooth {args.smooth}")
    first, last = grid.start.shift(lead), grid.start.shift(last)
    if not first <= args.reference <= last:
        raise ConfigError(f"--reference {args.reference} outside [{first}, {last}], "
                          f"the months with a dynamics term at --smooth {args.smooth}")


def _resolve_approx_window(args: argparse.Namespace,
                           grid: MonthlySeries) -> tuple[MonthDate, MonthDate]:
    """Default expansion window: the post-2007 months, else the full sample."""
    if args.approx_window is not None:
        lo, hi = args.approx_window
        _require_coverage(grid, f"approximation window [{lo}, {hi}]", lo, hi)
        return lo, hi
    return (_POST_2007 if grid.covers(_POST_2007) else grid.start), grid.end


def _positive_finding_rate(f: MonthlySeries) -> tuple[MonthlySeries, int]:
    """Mask nonpositive finding-rate months (flagged, not usable in logs)."""
    bad = f.values <= 0.0
    return f.with_values(np.where(bad, np.nan, f.values)), int(bad.sum())


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _run(args: argparse.Namespace) -> None:
    """Read --input once, where the command takes it, and run and write."""
    source = read_panel(args.input) if args.command in _READERS else None
    _write(args, *args.func(args, source), source)


def _write(args: argparse.Namespace, tables: dict, notes: dict,
           source: Panel | None) -> None:
    """Make --output-dir and write each table there, as `<name>.<--format>`
    or, where the name carries its own suffix, as `name`; a table of series
    is a dated panel (`write_panel`).  The manifest is written last."""
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"--output-dir {args.output_dir}: {exc.strerror}") from None
    outputs = {}
    for name, columns in tables.items():
        path = out / (name if Path(name).suffix else f"{name}.{args.format}")
        dated = all(isinstance(c, MonthlySeries) for c in columns.values())
        outputs[path.name] = (write_panel if dated else write_table)(path, columns)
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {k: _echo_value(v) for k, v in sorted(vars(args).items())
                   if k not in ("func", "command")},
        "outputs": outputs,
    }
    if source is not None:  # simulate has no --input
        manifest["input"] = {"path": str(Path(args.input)), "sha256": source.sha256}
    if notes:
        manifest["notes"] = notes
    # every value is finite: a NaN here is a fault of the program
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                                  allow_nan=False) + "\n")


def _echo_value(value):
    if isinstance(value, MonthDate):
        return str(value)
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    if isinstance(value, list):
        return [_echo_value(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# One pipeline for both models
# ---------------------------------------------------------------------------

def _read_two_state(args: argparse.Namespace, source: Panel):
    """The two-state panel from its columns, its vacancies and no notes."""
    cols = _read_columns(args, source, "u_rate", "v_rate", "u_short")
    panel = build_two_state_panel(cols["u_rate"], cols["v_rate"], cols["u_short"])
    return panel, panel.V, {}


def _read_three_state(args: argparse.Namespace, source: Panel):
    """The raked three-state panel, its vacancies and the raking notes, by
    the module-global `build_three_state_panel`, which the benchmark swaps."""
    cols = _read_columns(args, source, "e_stock", "u_stock", "n_stock", "v_rate",
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
    return panel, cols["v_rate"], notes


def _pipeline(args: argparse.Namespace, source: Panel, read):
    """The panel that `read` (`_read_two_state` or `_read_three_state`, the
    one step that depends on the model) gives, then what both models share
    up to estimation: tightness V/S and the positive finding rate."""
    panel, V, notes = read(args, source)
    theta = tightness(panel.S, V)
    f_pos, notes["nonpositive_finding_months_masked"] = _positive_finding_rate(panel.f)
    return panel, V, theta, f_pos, notes


# The manifest's names for the point's fields, per model
_POINT_NOTES = {
    TwoStatePanel: {"S_0": "U_bar", "x_0": "s_bar", "sigma_0": "sigma_bar",
                    "V_0": "V_bar"},
    ThreeStatePanel: {n: n for n in ("S_0", "N_tilde_0", "x_0", "sigma_0", "V_0")}}


def _expansion(args: argparse.Namespace, source: Panel, read):
    """`_pipeline`, then the efficiency path, the expansion point (pinned by
    --u-bar, --s-bar and --sigma-bar where the command has them, else the
    window means) and the log-linear expansion there."""
    panel, V, theta, f_pos, notes = _pipeline(args, source, read)
    sigma = matching_efficiency_path(f_pos.values, theta.values, args.alpha,
                                     start=theta.start)
    pinned = [getattr(args, name, None) for name in ("u_bar", "s_bar", "sigma_bar")]
    if any(v is not None for v in pinned):
        if any(v is None for v in pinned):
            raise ConfigError("--u-bar, --s-bar and --sigma-bar must be "
                              "given together")
        point = _from_flags(ApproximationPoint, S_0=args.u_bar, N_tilde_0=0.0,
                            x_0=args.s_bar, sigma_0=args.sigma_bar, alpha=args.alpha)
        notes["approx_window"] = "overridden"
    else:
        window = _resolve_approx_window(args, panel.S)
        point = ApproximationPoint.from_panel(panel, sigma, args.alpha, window)
        notes["approx_window"] = f"{window[0]}:{window[1]}"
    notes.update({name: getattr(point, field)
                  for field, name in _POINT_NOTES[type(panel)].items()})
    expansion = three_state_loglinear(panel, sigma, point)
    return panel, V, sigma, point, expansion, notes


# ---------------------------------------------------------------------------
# Commands: each takes the panel read from --input, returns its tables, by
# file stem, and its manifest notes, and `_run` writes them (`_write`)
# ---------------------------------------------------------------------------

def cmd_estimate(args: argparse.Namespace, source: Panel) -> tuple[dict, dict]:
    panel, _, theta, f_pos, notes = _pipeline(args, source, _read_two_state)
    grid = panel.S

    if args.sample:
        windows = list(args.sample)
    elif grid.covers(_POST_2007) and _POST_2007 != grid.start:
        windows = [(grid.start, _POST_2007.shift(-1)), (_POST_2007, grid.end)]
    else:
        windows = [(grid.start, grid.end)]
    for lo, hi in windows:
        _require_coverage(grid, f"sample [{lo}, {hi}]", lo, hi)
        if lo.months_until(hi) + 1 < MIN_MONTHS:
            flag = "--sample" if args.sample else "default --sample"
            raise ConfigError(f"{flag} {lo}:{hi} is shorter than the {MIN_MONTHS} "
                              "months estimation needs")

    ests = [estimate_matching(f_pos, theta, sample=window, robust=args.robust)
            for window in windows]
    stars = [e.stars() for e in ests]
    reports = [e.to_dict() for e in ests]
    return {
        "matching_estimates": {
            "sample_start": [str(lo) for lo, _ in windows],
            "sample_end": [str(hi) for _, hi in windows],
            "ln_sigma_bar": [e.ln_sigma_bar for e in ests],
            "se_ln_sigma": [e.se_ln_sigma for e in ests],
            "stars_ln_sigma": [star[0] for star in stars],
            "alpha": [e.alpha for e in ests], "se_alpha": [e.se_alpha for e in ests],
            "stars_alpha": [star[1] for star in stars],
            "sigma_bar": [e.sigma_bar for e in ests],
            "r_squared": [e.r_squared for e in ests],
            "n_obs": [e.n_obs for e in ests]},
        # always JSON: the name carries its suffix
        "matching_estimates_report.json": {k: [r[k] for r in reports]
                                           for k in reports[0]}}, notes


def cmd_shifters(args: argparse.Namespace, source: Panel) -> tuple[dict, dict]:
    panel, V, _, _, expansion, notes = _expansion(args, source, _read_two_state)
    _require_reference(args, panel.U, ahead=1)
    paths = shifter_paths(expansion, panel.U.index_of(args.reference),
                          tuple(margin.term for margin in MARGINS.values()),
                          start=panel.U.start)
    return {"shifters": {
        "u_rate": panel.U, "log_v_observed": V.with_values(np.log(V.values)),
        "log_v_loglinear": panel.U.with_values(expansion.total),
        **{name: panel.U.with_values(paths[margin.term])
           for name, margin in MARGINS.items()},
        "net": panel.U.with_values(paths["net"])}}, notes


def cmd_decompose(args: argparse.Namespace, source: Panel) -> tuple[dict, dict]:
    panel, V, sigma, point, expansion, notes = _expansion(args, source, _read_two_state)
    for m in (args.down_start, args.down_end, args.up_start, args.up_end):
        if m is not None:
            _require_coverage(panel.U, f"swing bound {m}", m)
    bounds = _from_flags(SwingBounds, down_start=args.down_start,
                         down_end=args.down_end, up_start=args.up_start,
                         up_end=args.up_end)
    samples = build_swing_samples(panel.U, V, bounds)
    loglin = loglinear_shift_decomposition(panel.U.values, V.values, expansion, samples)
    table = all_orderings_report(panel, V.values, sigma, samples, point)
    dates = _dates(panel.U.start, len(panel.U))

    notes.update({
        "dropped_months": dates[table.dropped_months].tolist(),
        "n_pairs": table.n_pairs,
        # vacancy-rate units: the nonlinear decomposition works in levels
        "average_observed_shift_level": table.average_observed_shift,
    })
    return {
        "vertical_shift_loglinear": {
            "month": dates[loglin.months], "u_rate": loglin.u,
            "observed_shift": loglin.observed, "total_loglinear": loglin.total,
            **loglin.contributions},
        "orderings": {
            "ordering": [" -> ".join(row.ordering) for row in table.rows],
            **{f"{margin}_pct": [row.percent[margin] for row in table.rows]
               for margin in MARGINS}}}, notes


def cmd_three_state(args: argparse.Namespace, source: Panel) -> tuple[dict, dict]:
    panel, _, _, _, loglin, notes = _expansion(args, source, _read_three_state)
    _require_reference(args, panel.S, ahead=2)
    paths = shifter_paths(loglin, panel.S.index_of(args.reference), start=panel.S.start)
    return {"three_state_shifters": {
        "searchers": panel.S, "log_v_loglinear": panel.S.with_values(loglin.total),
        **{name: panel.S.with_values(path) for name, path in paths.items()}}}, notes


def cmd_efficiency(args: argparse.Namespace, source: Panel) -> tuple[dict, dict]:
    cols = _read_columns(args, source, "u_rate", "v_rate")
    u, v = cols["u_rate"], cols["v_rate"]

    costs = {"vacancy_cost": args.vacancy_cost,
             "unemployment_cost": args.unemployment_cost}
    cal_ms = _from_flags(EfficiencyCalibration, beveridge_elasticity=args.ms_elasticity,
                         **costs)
    cal_steep = _from_flags(EfficiencyCalibration,
                            beveridge_elasticity=args.steep_elasticity, **costs)
    u_star_ms = u.with_values(efficient_unemployment(u.values, v.values, cal_ms,
                                                     start=u.start))
    u_star_steep = u.with_values(efficient_unemployment(u.values, v.values, cal_steep,
                                                        start=u.start))

    return {"efficiency": {
        "u_rate": u, "u_star_ms": u_star_ms, "u_star_steep": u_star_steep,
        "gap_ms": u.with_values(unemployment_gap(u.values, u_star_ms.values)),
        "gap_steep": u.with_values(unemployment_gap(u.values, u_star_steep.values))}}, {}


# The planted three-state rates beside --s-bar's eu; ue is solved instead
# where --du-amplitude plants an unemployment cycle
_THREE_STATE_RATES = {"en": 0.02, "ue": 0.25, "un": 0.03, "ne": 0.04, "nu": 0.02}
_N0 = 0.30  # the initial nonemployment share planted where --n0 is not given


def cmd_simulate(args: argparse.Namespace, source: None) -> tuple[dict, dict]:
    if args.n0 is None:
        args.n0 = _N0  # and so the manifest echoes it
    elif not args.three_state:
        raise ConfigError("--n0: three-state only, not read without --three-state")
    # a three-state panel that starts with no unemployed or no nonemployed
    # has no exit rates from that state after raking: `three-state` refuses it
    for flag in ("--u0", "--n0")[:1 + args.three_state]:
        value = getattr(args, flag[2:])
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{flag} must be in (0, 1), got {value}")
    du = None if args.du_amplitude == 0.0 else args.du_amplitude * np.sin(
        2.0 * np.pi * np.arange(args.horizon - 1) / args.du_period)
    rates = {name: rate for name, rate in _THREE_STATE_RATES.items()
             if args.three_state and (du is None or name != "ue")}
    spec = _from_flags(
        SimulationSpec, alpha=args.alpha, u0=args.u0,
        n0=args.n0 if args.three_state else 0.0, horizon=args.horizon, s_path=args.s_bar,
        rates=rates, sigma_path=_sigma_path(args), delta_u_path=du, noise_std=args.noise,
        seed=args.seed, start=args.start)
    sim = _from_flags(simulate, spec)  # and so is a path that the flags imply
    panel = sim.panel
    return {"panel": {"e_stock": panel.E, "u_stock": panel.U, "n_stock": panel.N,
                      "v_rate": sim.V, **panel.rates()} if args.three_state else
            {"u_rate": panel.U, "v_rate": panel.V, "u_short": panel.U_short}}, {}


def _sigma_path(args: argparse.Namespace) -> np.ndarray:
    path = np.full(args.horizon, args.sigma_bar)
    if args.sigma_break_at is not None:
        if not 0 <= args.sigma_break_at < args.horizon:
            raise ConfigError(f"--sigma-break-at {args.sigma_break_at} outside the "
                              f"horizon [0, {args.horizon - 1}]")
        path[args.sigma_break_at:] *= args.sigma_break_factor
    return path


# ---------------------------------------------------------------------------
# Parser: one row per flag meaning
# ---------------------------------------------------------------------------

# A row of `_FLAGS`: a flag, the commands that take it and its `add_argument`
# keywords
_Flag = namedtuple("_Flag", "name commands kwargs")

_READERS = ("estimate", "shifters", "decompose", "three-state", "efficiency")
_ALL = (*_READERS, "simulate")
_EXPANDERS = ("shifters", "decompose", "three-state")
_SIM = ("simulate",)
_SWING = SwingBounds()

# Each command takes its rows in table order
_FLAGS = (
    _Flag("--input", _READERS, dict(required=True, help="panel CSV path")),
    _Flag("--smooth", _READERS, dict(
        type=_positive_int, default=1, metavar="N",
        help="moving-average window applied to inputs (1 = none)")),
    _Flag("--smooth-align", _READERS, dict(choices=("centered", "trailing"),
                                           default="centered")),
    _Flag("--output-dir", _ALL, dict(required=True, help="directory for outputs")),
    _Flag("--format", _ALL, dict(choices=("csv", "json"), default="csv")),
    _Flag("--alpha", (*_EXPANDERS, *_SIM), dict(
        type=_unit_interval, default=DEFAULT_ALPHA,
        help="matching elasticity (default %(default)s)")),
    _Flag("--sample", ("estimate",), dict(
        type=_window, action="append", metavar="START:END",
        help="estimation window; repeatable (default: pre/post 2008)")),
    _Flag("--robust", ("estimate",), dict(
        action="store_true", help="HC1 heteroskedasticity-robust standard errors")),
    _Flag("--approx-window", _EXPANDERS, dict(
        type=_window, metavar="START:END",
        help="expansion-point window (default: post-2007 months)")),
    _Flag("--u-bar", ("shifters", "decompose"), dict(
        type=_unit_interval, default=None,
        help="override the expansion-point unemployment share")),
    _Flag("--s-bar", ("shifters", "decompose"), dict(
        type=_unit_interval, default=None,
        help="override the expansion-point separation probability")),
    _Flag("--sigma-bar", ("shifters", "decompose"), dict(
        type=_positive_float, default=None,
        help="override the expansion-point matching efficiency")),
    _Flag("--reference", ("shifters",), dict(
        type=_month, default=_REFERENCE, metavar="YYYY-MM",
        help=f"normalization month (default {_REFERENCE})")),
    _Flag("--reference", ("three-state",), dict(type=_month, default=_REFERENCE)),
    _Flag("--down-start", ("decompose",), dict(type=_month, default=_SWING.down_start)),
    _Flag("--down-end", ("decompose",), dict(type=_month, default=_SWING.down_end)),
    _Flag("--up-start", ("decompose",), dict(type=_month, default=_SWING.up_start)),
    _Flag("--up-end", ("decompose",), dict(
        type=_month, default=_SWING.up_end,
        help="optional upswing end (default: unemployment recovery)")),
    _Flag("--rake-tol", ("three-state",), dict(type=_rake_tol, default=1e-12)),
    _Flag("--rake-max-iter", ("three-state",), dict(type=_positive_int, default=1000)),
    _Flag("--ms-elasticity", ("efficiency",), dict(type=_positive_float,
                                                   default=MS_ELASTICITY)),
    _Flag("--steep-elasticity", ("efficiency",), dict(type=_positive_float,
                                                      default=STEEP_ELASTICITY)),
    _Flag("--vacancy-cost", ("efficiency",), dict(type=_positive_float,
                                                  default=MS_VACANCY_COST)),
    _Flag("--unemployment-cost", ("efficiency",), dict(type=_positive_float,
                                                       default=MS_UNEMPLOYMENT_COST)),
    _Flag("--horizon", _SIM, dict(type=_horizon, default=120)),
    _Flag("--start", _SIM, dict(type=_month, default=MonthDate(2000, 1))),
    _Flag("--u0", _SIM, dict(type=float, default=0.06)),
    _Flag("--n0", _SIM, dict(type=float, default=None,
                             help=f"initial nonemployment share, {_N0} if not "
                                  "given (three-state only)")),
    _Flag("--s-bar", _SIM, dict(type=_finite_float, default=0.02)),
    _Flag("--sigma-bar", _SIM, dict(type=_finite_float, default=0.36)),
    _Flag("--du-amplitude", _SIM, dict(type=_finite_float, default=0.0,
                                       help="sinusoidal unemployment-change amplitude")),
    _Flag("--du-period", _SIM, dict(type=_positive_float, default=48.0)),
    _Flag("--sigma-break-at", _SIM, dict(type=int, default=None, metavar="T",
                                         help="month index at which efficiency jumps")),
    _Flag("--sigma-break-factor", _SIM, dict(type=_positive_float, default=0.75)),
    _Flag("--noise", _SIM, dict(type=_finite_float, default=0.0,
                                help="lognormal noise std on the efficiency path")),
    _Flag("--seed", _SIM, dict(type=_non_negative_int, default=0)),
    _Flag("--three-state", _SIM, dict(action="store_true")),
)

_COMMANDS = {
    "estimate": ("matching-function estimation", cmd_estimate),
    "shifters": ("shifter time paths", cmd_shifters),
    "decompose": ("vertical-shift decomposition", cmd_decompose),
    "three-state": ("three-state shifter paths", cmd_three_state),
    "efficiency": ("efficient unemployment series", cmd_efficiency),
    "simulate": ("synthetic panel generation", cmd_simulate),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from `_FLAGS` and
    `_COMMANDS` and shared by every `main` call (parsing leaves it
    unchanged).  It takes a flag only as spelled in full, so a new row
    cannot make a prefix that worked ambiguous."""
    parser = argparse.ArgumentParser(
        prog="beveridge", description="Dynamic Beveridge-curve accounting toolkit",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in _FLAGS:
            if command in flag.commands:
                p.add_argument(flag.name, **flag.kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command: 0 on success, and for a refused input its exit code
    (`Refusal`) after its label and message on stderr.  Any other
    exception is a fault of the program and propagates."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            _run(args)
    except Refusal as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import (SchemaError, _json_safe, read_panel, require_columns, write_panel,
                    write_table)
from .curve import (ApproximationPoint, ThreeStateApproximationPoint,
                    normalize_to_reference, shifter_paths, loglinear_vacancies,
                    three_state_loglinear)
from .efficiency import (EfficiencyCalibration, MS_ELASTICITY, MS_UNEMPLOYMENT_COST,
                         MS_VACANCY_COST, STEEP_ELASTICITY, efficient_unemployment,
                         unemployment_gap)
from .flows_three_state import RATE_NAMES, RakingError, build_three_state_panel
from .flows_two_state import build_two_state_panel
from .matching import (DEFAULT_ALPHA, estimate_matching, matching_efficiency_path,
                       searcher_finding_rate, three_state_tightness,
                       two_state_tightness)
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


@dataclass
class RunConfig:
    """Shared per-command configuration resolved from the parsed arguments."""

    input: Path | None
    output_dir: Path
    fmt: str
    alpha: float
    smooth: int
    smooth_align: str
    approx_window: tuple[MonthDate, MonthDate] | None


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        input=Path(args.input) if getattr(args, "input", None) else None,
        output_dir=Path(args.output_dir),
        fmt=args.format,
        alpha=getattr(args, "alpha", DEFAULT_ALPHA),
        smooth=getattr(args, "smooth", 1),
        smooth_align=getattr(args, "smooth_align", "centered"),
        approx_window=getattr(args, "approx_window", None),
    )


def _smooth(series: MonthlySeries, config: RunConfig) -> MonthlySeries:
    if config.smooth <= 1:
        return series
    return moving_average(series, config.smooth, config.smooth_align)


def _read_columns(config: RunConfig, *names: str) -> dict[str, MonthlySeries]:
    if config.input is None:
        raise ConfigError("--input is required")
    panel = read_panel(config.input)
    require_columns(panel, *names)
    return {name: _smooth(panel[name], config) for name in names}


def _require_coverage(grid: MonthlySeries, what: str, *months: MonthDate) -> None:
    """ConfigError unless the data cover every month of a configured range."""
    if not all(grid.covers(m) for m in months):
        raise ConfigError(f"{what} outside data coverage [{grid.start}, {grid.end}]")


def _resolve_approx_window(config: RunConfig,
                           grid: MonthlySeries) -> tuple[MonthDate, MonthDate]:
    """Default expansion window: the post-2007 months, else the full sample."""
    if config.approx_window is not None:
        lo, hi = config.approx_window
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

def _output_path(config: RunConfig, name: str) -> Path:
    """Path of the named data file in the configured format."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir / f"{name}.{config.fmt}"


def _write_manifest(config: RunConfig, command: str, settings: dict,
                    outputs: dict, notes: dict | None = None) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: _json_safe(v) for k, v in sorted(settings.items())},
        "outputs": outputs,
    }
    if config.input is not None:
        digest = hashlib.sha256(Path(config.input).read_bytes()).hexdigest()
        manifest["input"] = {"path": str(config.input), "sha256": digest}
    if notes:
        manifest["notes"] = {k: _json_safe(v) for k, v in sorted(notes.items())}
    path = config.output_dir / "manifest.json"
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _echo_value(value):
    if isinstance(value, MonthDate):
        return str(value)
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    if isinstance(value, list):
        return [_echo_value(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return _json_safe(value)


def _settings(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {key: _echo_value(value) for key, value in vars(args).items()
            if key not in skip}


# ---------------------------------------------------------------------------
# Two-state pipeline shared by several commands
# ---------------------------------------------------------------------------

def _two_state_pipeline(config: RunConfig):
    cols = _read_columns(config, "u_rate", "v_rate", "u_short")
    panel = build_two_state_panel(cols["u_rate"], cols["v_rate"], cols["u_short"])
    theta = two_state_tightness(panel.U, panel.V)
    f_pos, masked = _positive_finding_rate(panel.f)
    sigma = matching_efficiency_path(f_pos, theta, config.alpha)
    return panel, theta, f_pos, sigma, {"nonpositive_finding_months_masked": masked}


def _approx_point(config: RunConfig, panel, sigma,
                  args: argparse.Namespace) -> tuple[ApproximationPoint, dict]:
    overrides = (getattr(args, "u_bar", None), getattr(args, "s_bar", None),
                 getattr(args, "sigma_bar", None))
    if any(v is not None for v in overrides):
        if any(v is None for v in overrides):
            raise ConfigError("--u-bar, --s-bar and --sigma-bar must be "
                              "given together")
        point = ApproximationPoint(U_bar=overrides[0], s_bar=overrides[1],
                                   sigma_bar=overrides[2], alpha=config.alpha)
        info = {"approx_window": "overridden"}
    else:
        window = _resolve_approx_window(config, panel.U)
        point = ApproximationPoint.from_series(panel.U, panel.s, sigma,
                                               config.alpha, window)
        info = {"approx_window": f"{window[0]}:{window[1]}"}
    info.update({"U_bar": point.U_bar, "s_bar": point.s_bar,
                 "sigma_bar": point.sigma_bar, "V_bar": point.V_bar})
    return point, info


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_estimate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    panel, theta, f_pos, _, notes = _two_state_pipeline(config)

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

    header = ["sample_start", "sample_end", "ln_sigma_bar", "se_ln_sigma",
              "stars_ln_sigma", "alpha", "se_alpha", "stars_alpha",
              "sigma_bar", "r_squared", "n_obs"]
    rows = []
    reports = []
    for window in windows:
        est = estimate_matching(f_pos, theta, sample=window, robust=args.robust)
        stars = est.stars()
        rows.append([str(window[0]), str(window[1]), est.ln_sigma_bar,
                     est.se_ln_sigma, stars[0], est.alpha, est.se_alpha,
                     stars[1], est.sigma_bar, est.r_squared, float(est.n_obs)])
        reports.append(est.to_dict())

    path = _output_path(config, "matching_estimates")
    outputs = {path.name: write_table(path, header, rows)}
    report_path = config.output_dir / "matching_estimates_report.json"
    report_path.write_text(json.dumps([{k: _json_safe(v) for k, v in r.items()}
                                       for r in reports],
                                      indent=2, sort_keys=True) + "\n")
    outputs[report_path.name] = len(reports)
    _write_manifest(config, "estimate", _settings(args), outputs, notes)
    return EXIT_OK


def cmd_shifters(args: argparse.Namespace) -> int:
    config = _run_config(args)
    panel, theta, f_pos, sigma, notes = _two_state_pipeline(config)
    point, info = _approx_point(config, panel, sigma, args)
    notes.update(info)

    paths = shifter_paths(panel.U, panel.s, sigma, point, args.reference)
    loglin = loglinear_vacancies(panel.U, panel.s, sigma, point)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_v = np.log(panel.V.values)

    header = ["date", "u_rate", "log_v_observed", "log_v_loglinear",
              "dynamics", "separations", "matching", "net"]
    rows = []
    for t, month in enumerate(panel.U.months()):
        rows.append([str(month), panel.U.values[t], log_v[t], loglin.values[t],
                     paths.dynamics.values[t], paths.separations.values[t],
                     paths.matching.values[t], paths.net.values[t]])
    path = _output_path(config, "shifters")
    outputs = {path.name: write_table(path, header, rows)}
    _write_manifest(config, "shifters", _settings(args), outputs, notes)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    config = _run_config(args)
    panel, theta, f_pos, sigma, notes = _two_state_pipeline(config)
    point, info = _approx_point(config, panel, sigma, args)
    notes.update(info)

    bounds = SwingBounds(down_start=args.down_start, down_end=args.down_end,
                         up_start=args.up_start, up_end=args.up_end)
    for m in (bounds.down_start, bounds.down_end, bounds.up_start, bounds.up_end):
        if m is not None:
            _require_coverage(panel.U, f"swing bound {m}", m)
    samples = build_swing_samples(panel.U, panel.V, bounds)
    loglin = loglinear_shift_decomposition(samples, point, panel.U, panel.s, sigma)
    table = all_orderings_report(panel.U, panel.V, panel.s, sigma, samples, point)

    header = ["month", "u_rate", "observed_shift", "total_loglinear",
              "dynamics", "separations", "matching"]
    rows = []
    for k, month in enumerate(loglin.months):
        rows.append([str(month), loglin.u[k], loglin.observed[k], loglin.total[k],
                     loglin.dynamics[k], loglin.separations[k], loglin.matching[k]])
    path = _output_path(config, "vertical_shift_loglinear")
    outputs = {path.name: write_table(path, header, rows)}

    header2 = ["ordering", "dynamics_pct", "separations_pct", "matching_pct"]
    rows2 = [[" -> ".join(r.ordering), r.dynamics_pct, r.separations_pct,
              r.matching_pct] for r in table.rows]
    path = _output_path(config, "orderings")
    outputs[path.name] = write_table(path, header2, rows2)

    notes.update({
        "dropped_months": [str(m) for m in table.dropped_months],
        "n_pairs": table.n_pairs,
        # vacancy-rate units: the nonlinear decomposition works in levels
        "average_observed_shift_level": table.average_observed_shift,
    })
    _write_manifest(config, "decompose", _settings(args), outputs, notes)
    return EXIT_OK


def cmd_three_state(args: argparse.Namespace) -> int:
    config = _run_config(args)
    cols = _read_columns(config, "e_stock", "u_stock", "n_stock", "v_rate",
                         *RATE_NAMES)
    panel, report = build_three_state_panel(
        cols["e_stock"], cols["u_stock"], cols["n_stock"],
        {name: cols[name] for name in RATE_NAMES},
        tol=args.rake_tol, max_iter=args.rake_max_iter)
    sweeps = report.iterations[report.iterations >= 0]
    notes = {"raking_worst_residual": report.worst_residual,
             "raking_max_adjustment": float(np.nanmax(report.max_adjustment))
             if np.isfinite(report.max_adjustment).any() else None,
             "raking_iterations": {"min": int(sweeps.min()),
                                   "median": float(np.median(sweeps)),
                                   "max": int(sweeps.max())} if sweeps.size else None,
             # rounding moves rates by ~1e-17 even on consistent months
             "raking_months_adjusted": int((report.max_adjustment
                                            > args.rake_tol).sum())}

    theta = three_state_tightness(panel, cols["v_rate"])
    f_rate, masked = _positive_finding_rate(searcher_finding_rate(panel))
    notes["nonpositive_finding_months_masked"] = masked
    sigma = matching_efficiency_path(f_rate, theta, config.alpha)

    window = _resolve_approx_window(config, panel.S)
    point = ThreeStateApproximationPoint.from_panel(panel, sigma, config.alpha, window)
    notes.update({"approx_window": f"{window[0]}:{window[1]}",
                  "S_0": point.S_0, "N_tilde_0": point.N_tilde_0,
                  "x_0": point.x_0, "sigma_0": point.sigma_0, "V_0": point.V_0})

    loglin = three_state_loglinear(panel, sigma, point)
    terms = {name: normalize_to_reference(series, args.reference)
             for name, series in loglin.terms().items()}
    shifter_names = ["searcher_dynamics", "nonsearcher_level",
                     "nonsearcher_dynamics", "separations", "matching"]
    net = sum(terms[name].values for name in shifter_names)

    header = (["date", "searchers", "log_v_loglinear", "searcher_level"]
              + shifter_names + ["net"])
    rows = []
    for t, month in enumerate(panel.S.months()):
        rows.append([str(month), panel.S.values[t], loglin.total.values[t],
                     terms["searcher_level"].values[t]]
                    + [terms[name].values[t] for name in shifter_names]
                    + [net[t]])
    path = _output_path(config, "three_state_shifters")
    outputs = {path.name: write_table(path, header, rows)}
    _write_manifest(config, "three-state", _settings(args), outputs, notes)
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    config = _run_config(args)
    cols = _read_columns(config, "u_rate", "v_rate")
    u, v = cols["u_rate"], cols["v_rate"]

    cal_ms = EfficiencyCalibration(beveridge_elasticity=args.ms_elasticity,
                                   vacancy_cost=args.vacancy_cost,
                                   unemployment_cost=args.unemployment_cost)
    cal_steep = EfficiencyCalibration(beveridge_elasticity=args.steep_elasticity,
                                      vacancy_cost=args.vacancy_cost,
                                      unemployment_cost=args.unemployment_cost)
    u_star_ms = efficient_unemployment(u, v, cal_ms)
    u_star_steep = efficient_unemployment(u, v, cal_steep)
    gap_ms = unemployment_gap(u, u_star_ms)
    gap_steep = unemployment_gap(u, u_star_steep)

    header = ["date", "u_rate", "u_star_ms", "u_star_steep", "gap_ms", "gap_steep"]
    rows = []
    for t, month in enumerate(u.months()):
        rows.append([str(month), u.values[t], u_star_ms.values[t],
                     u_star_steep.values[t], gap_ms.values[t], gap_steep.values[t]])
    path = _output_path(config, "efficiency")
    outputs = {path.name: write_table(path, header, rows)}
    _write_manifest(config, "efficiency", _settings(args), outputs, {})
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    if args.three_state:
        rates = {"eu": args.s_bar, "en": 0.02, "ue": 0.25, "un": 0.03,
                 "ne": 0.04, "nu": 0.02}
        spec3 = ThreeStateSimulationSpec(
            alpha=args.alpha, u0=args.u0, n0=args.n0, horizon=args.horizon,
            rates=rates, sigma_path=_sigma_path(args), start=args.start)
        sim = simulate_three_state(spec3)
        columns = {"e_stock": sim.panel.E, "u_stock": sim.panel.U,
                   "n_stock": sim.panel.N, "v_rate": sim.V,
                   **sim.panel.rates()}
    else:
        spec = SimulationSpec(
            alpha=args.alpha, u0=args.u0, horizon=args.horizon,
            s_path=args.s_bar, sigma_path=_sigma_path(args),
            delta_u_path=_delta_u_path(args), noise_std=args.noise,
            seed=args.seed, start=args.start)
        sim = simulate_two_state(spec)
        columns = {"u_rate": sim.panel.U, "v_rate": sim.panel.V,
                   "u_short": sim.panel.U_short}
    path = _output_path(config, "panel")
    outputs = {path.name: write_panel(path, columns)}
    _write_manifest(config, "simulate", _settings(args), outputs, {})
    return EXIT_OK


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
    sub.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                     help="matching elasticity (default %(default)s)")
    sub.add_argument("--smooth", type=int, default=1, metavar="N",
                     help="moving-average window applied to inputs (1 = none)")
    sub.add_argument("--smooth-align", choices=("centered", "trailing"),
                     default="centered")


def _add_approx(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--approx-window", type=_window, metavar="START:END",
                     help="expansion-point window (default: post-2007 months)")


def _add_point_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--u-bar", type=float, default=None,
                     help="override the expansion-point unemployment share")
    sub.add_argument("--s-bar", type=float, default=None,
                     help="override the expansion-point separation probability")
    sub.add_argument("--sigma-bar", type=float, default=None,
                     help="override the expansion-point matching efficiency")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--rake-tol", type=float, default=1e-12)
    p.add_argument("--rake-max-iter", type=int, default=1000)
    p.set_defaults(func=cmd_three_state)

    p = subs.add_parser("efficiency", help="efficient unemployment series")
    _add_common(p)
    p.add_argument("--ms-elasticity", type=float, default=MS_ELASTICITY)
    p.add_argument("--steep-elasticity", type=float, default=STEEP_ELASTICITY)
    p.add_argument("--vacancy-cost", type=float, default=MS_VACANCY_COST)
    p.add_argument("--unemployment-cost", type=float, default=MS_UNEMPLOYMENT_COST)
    p.set_defaults(func=cmd_efficiency)

    p = subs.add_parser("simulate", help="synthetic panel generation")
    _add_common(p, with_input=False)
    p.add_argument("--horizon", type=int, default=120)
    p.add_argument("--start", type=_month, default=MonthDate(2000, 1))
    p.add_argument("--u0", type=float, default=0.06)
    p.add_argument("--n0", type=float, default=0.30,
                   help="initial nonemployment share (three-state only)")
    p.add_argument("--s-bar", type=float, default=0.02)
    p.add_argument("--sigma-bar", type=float, default=0.36)
    p.add_argument("--du-amplitude", type=float, default=0.0,
                   help="sinusoidal unemployment-change amplitude")
    p.add_argument("--du-period", type=float, default=48.0)
    p.add_argument("--sigma-break-at", type=int, default=None, metavar="T",
                   help="month index at which efficiency jumps")
    p.add_argument("--sigma-break-factor", type=float, default=0.75)
    p.add_argument("--noise", type=float, default=0.0,
                   help="lognormal noise std on the efficiency path")
    p.add_argument("--seed", type=int, default=0)
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
    except (SchemaError, RakingError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

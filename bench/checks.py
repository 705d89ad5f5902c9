"""Per-op output checks.

Each check tests a model invariant of the paper against the files an op
wrote, using the generated inputs and this file's own arithmetic, never the
program's intermediate numbers:

* every row of the six-ordering table sums to 100 (telescoping);
* shifter paths are zero at the reference month and `net` is their sum;
* `gap_* = u_rate - u_star_*`;
* raked flow matrices reproduce both adjacent stock vectors within
  `--rake-tol` (in-process ops hand over the raked panel; for a cold
  process on a stock-consistent panel raking must leave the searcher pool
  as the input rates imply);
* `n_obs`, the row counts and the manifest's row counts match the panel.

A value the model defines must be present: shifters on every usable month,
`u_star_*` and `gap_*` wherever the smoothed input `u_rate` exists, raked
rates on every month-pair.  Any failure makes the op count as failed.  `digest` fingerprints an op's
data files so two commits can be compared for byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import RATE_NAMES, START, Op, PanelFile

REFERENCE = "2007-04"
SPLIT = 96              # 2008-01: default estimate windows are [start, 2007-12], [2008-01, end]
EPS = np.finfo(float).eps


def _cell(x) -> float:
    if x is None or x == "":
        return math.nan
    return float(x)


def read_table(path: Path) -> dict[str, list]:
    """Columns of an output table (CSV or JSON records) with raw cell values.

    CSV is read row by row into columns, so no per-row object is kept.
    """
    if path.suffix == ".json":
        rows = json.loads(path.read_text())
        return {name: [r[name] for r in rows] for name in (rows[0] if rows else ())}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        cols: list[list] = [[] for _ in names]
        for row in reader:
            if len(row) != len(names):
                raise ValueError(f"{path.name}: row of {len(row)} cells, "
                                 f"header has {len(names)}")
            for col, cell in zip(cols, row):
                col.append(cell)
    return dict(zip(names, cols))


def n_rows(table: dict[str, list]) -> int:
    return len(next(iter(table.values()), ()))


def column(table: dict[str, list], name: str) -> np.ndarray:
    return np.array([_cell(x) for x in table[name]], dtype=float)


def _smooth3(x: np.ndarray) -> np.ndarray:
    """Centered 3-month mean; missing where the window is incomplete."""
    out = np.full(len(x), math.nan)
    out[1:-1] = (x[:-2] + x[1:-1] + x[2:]) / 3.0
    return out


def usable_months(cols: dict) -> np.ndarray:
    """Months where ln f and ln theta are finite, from the smoothed inputs."""
    u, v, us = (_smooth3(cols[c]) for c in ("u_rate", "v_rate", "u_short"))
    f = np.full(len(u), math.nan)
    f[:-1] = 1.0 - (u[1:] - us[1:]) / u[:-1]
    theta = v / u
    with np.errstate(invalid="ignore"):
        return (f > 0.0) & (theta > 0.0)


def expected_n_obs(cols: dict) -> list[int]:
    """Usable months per default estimate window."""
    usable = usable_months(cols)
    return [int(usable[:SPLIT].sum()), int(usable[SPLIT:].sum())]


def _close(a: np.ndarray, b: np.ndarray, tol, where: np.ndarray) -> bool:
    """a and b agree within tol on every month of `where`; a missing value
    there is a disagreement."""
    with np.errstate(invalid="ignore"):
        return bool((np.abs(a - b) <= tol)[where].all())


def _zero_at_reference(table: dict[str, list], names) -> bool:
    """The reference month is present and every named column is 0 there."""
    if REFERENCE not in table["date"]:
        return False
    t = table["date"].index(REFERENCE)
    return all(abs(_cell(table[c][t])) <= 1e-12 for c in names)


def _dates_match(table: dict[str, list], months: int) -> bool:
    return table["date"] == [str(START.shift(t)) for t in range(months)]


def rake_margin_error(cols: dict, raked: dict, tol: float) -> float:
    """Worst excess over `tol` of |flow column sums - next month's stocks|,
    NaN if any flow is missing.

    Row sums hold by construction (stayers are the residual mass), so the
    column sums carry the whole raking residual.
    """
    stocks = np.vstack([cols["e_stock"], cols["u_stock"], cols["n_stock"]])
    stocks = stocks / stocks.sum(axis=0)
    exits = {0: (("eu", 1), ("en", 2)), 1: (("ue", 0), ("un", 2)),
             2: (("ne", 0), ("nu", 1))}
    n = stocks.shape[1]
    flows = np.zeros((n - 1, 3, 3))
    for i, pairs in exits.items():
        out = np.zeros(n - 1)
        for name, j in pairs:
            rate = raked[name][:-1]
            flows[:, i, j] = stocks[i, :-1] * rate
            out += rate
        flows[:, i, i] = stocks[i, :-1] * (1.0 - out)
    if not np.isfinite(flows).all():
        return math.nan
    col_err = np.abs(flows.sum(axis=1) - stocks[:, 1:].T).max()
    row_err = np.abs(flows.sum(axis=2) - stocks[:, :-1].T).max()
    return max(col_err, row_err) - tol


def _searchers(cols: dict, rates: dict) -> np.ndarray:
    """S = U + (ne / ue) N from the normalized input stocks and the given
    rates; the last month has no successor to rake against, so it is
    missing."""
    total = cols["e_stock"] + cols["u_stock"] + cols["n_stock"]
    s = (cols["u_stock"] + rates["ne"] / rates["ue"] * cols["n_stock"]) / total
    s[-1] = math.nan
    return s


def check_op(op: Op, outdir: Path, panel: PanelFile, raked: dict | None) -> list[str]:
    """Failure messages for one op's outputs; empty when every check holds.

    Every comparison is written so that a missing (NaN) output fails it.
    """
    fails: list[str] = []
    manifest = json.loads((outdir / "manifest.json").read_text())
    tables = {name: read_table(outdir / name) for name in manifest["outputs"]}
    for name, table in tables.items():
        if n_rows(table) != manifest["outputs"][name]:
            fails.append(f"{name}: {n_rows(table)} rows, manifest says "
                         f"{manifest['outputs'][name]}")
    stem = lambda name: tables[f"{name}.{op.fmt}"]  # noqa: E731
    months = panel.months

    if op.command == "estimate":
        want = expected_n_obs(panel.columns)
        for name in (f"matching_estimates.{op.fmt}", "matching_estimates_report.json"):
            got = [_cell(x) for x in tables[name]["n_obs"]]
            if got != want:
                fails.append(f"{name}: n_obs {got}, panel has {want} usable months")
    elif op.command == "shifters":
        table = stem("shifters")
        if not _dates_match(table, months):
            return fails + [f"shifters: rows are not the panel's {months} months"]
        usable = usable_months(panel.columns)
        parts = [column(table, c) for c in ("dynamics", "separations", "matching")]
        net = column(table, "net")
        if not np.isfinite(np.vstack([*parts, net])[:, usable]).all():
            fails.append("shifters: missing on months the panel defines")
        if not _close(net, sum(parts), 8 * EPS * (1.0 + np.abs(net)), usable):
            fails.append("shifters: net is not the sum of the three shifters")
        if not _zero_at_reference(table, ("dynamics", "separations", "matching", "net")):
            fails.append(f"shifters: not zero at reference month {REFERENCE}")
    elif op.command == "decompose":
        table = stem("orderings")
        totals = sum(column(table, c) for c in ("dynamics_pct", "separations_pct",
                                                "matching_pct"))
        for ordering, total in zip(table["ordering"], totals):
            if not abs(total - 100.0) <= 1e-8:
                fails.append(f"orderings: {ordering} sums to {total!r}")
        if n_rows(table) != 6:
            fails.append("orderings: expected six rows")
        kept = n_rows(stem("vertical_shift_loglinear"))
        dropped = len(manifest["notes"]["dropped_months"])
        want = _down_months(op)
        if kept + dropped != want:
            fails.append(f"decompose: {kept} kept + {dropped} dropped pairs, "
                         f"downswing has {want} months")
    elif op.command == "efficiency":
        table = stem("efficiency")
        if not _dates_match(table, months):
            return fails + [f"efficiency: rows are not the panel's {months} months"]
        u_in = _smooth3(panel.columns["u_rate"])
        defined = np.isfinite(u_in)
        u = column(table, "u_rate")
        if not _close(u, u_in, 1e-12 * np.abs(u_in), defined):
            fails.append("efficiency: u_rate is not the 3-month mean of the input")
        for cal in ("ms", "steep"):
            gap, u_star = column(table, f"gap_{cal}"), column(table, f"u_star_{cal}")
            if not np.isfinite(u_star[defined]).all():
                fails.append(f"efficiency: u_star_{cal} missing where u_rate is defined")
            if not _close(gap, u - u_star, 2 * EPS * np.abs(u), defined):
                fails.append(f"efficiency: gap_{cal} != u_rate - u_star_{cal}")
    elif op.command == "three-state":
        table = stem("three_state_shifters")
        if not _dates_match(table, months):
            return fails + [f"three_state_shifters: rows are not the panel's "
                            f"{months} months"]
        shifters = ("searcher_level", "searcher_dynamics", "nonsearcher_level",
                    "nonsearcher_dynamics", "separations", "matching", "net")
        if not _zero_at_reference(table, shifters):
            fails.append(f"three-state: shifters not zero at {REFERENCE}")
        # the dynamics shifters use the flows of the next month-pair too, so
        # every month with two successors has all its shifters
        if not np.isfinite(np.vstack([column(table, c) for c in shifters])[:, :-2]).all():
            fails.append("three-state: shifters missing on a month with two successors")
        if raked is not None:
            excess = rake_margin_error(panel.columns, raked, panel.rake_tol)
            if not excess <= 8 * EPS:
                fails.append(f"three-state: raked flows miss the stocks by "
                             f"{excess:.3e} beyond --rake-tol")
            want = _searchers(panel.columns, raked)
            if not _close(column(table, "searchers"), want, 1e-12, np.isfinite(want)):
                fails.append("three-state: searchers are not U + (ne / ue) N "
                             "at the raked rates")
        else:
            want = _searchers(panel.columns, panel.columns)
            if not _close(column(table, "searchers"), want, panel.rake_tol,
                          np.isfinite(want)):
                fails.append("three-state: raking moved a stock-consistent panel")
    return fails


def _down_months(op: Op) -> int:
    """Downswing length in months from the op's bounds (defaults 2007-04..2009-06)."""
    def month(flag: str, default: str) -> int:
        text = op.argv[op.argv.index(flag) + 1] if flag in op.argv else default
        return int(text[:4]) * 12 + int(text[5:7])
    return month("--down-end", "2009-06") - month("--down-start", "2007-04") + 1


def consistent_input_error(cols: dict) -> float:
    """How far the generated rates miss the generated stocks (0 up to rounding)."""
    return rake_margin_error(cols, {n: cols[n] for n in RATE_NAMES}, 0.0)


def digest(outdir: Path) -> str:
    """SHA-256 over the op's data files (the manifest echoes paths, so it is left out)."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


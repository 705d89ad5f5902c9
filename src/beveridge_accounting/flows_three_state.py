"""Three-state panel: stocks, raked transition rates, and searcher aggregates.

States are employment (E), unemployment (U) and nonemployment (N), with six
monthly transition probabilities between them.  Published gross-flow rates
are not exactly consistent with the published stocks, so each month-pair's
3x3 flow matrix is raked by iterative proportional fitting until its row
sums reproduce this month's stocks and its column sums reproduce next
month's.  The searcher aggregates follow:

    S = U + xi_N * N        effective searchers
    N_tilde = (1 - xi_N) N  non-searchers
    x = eu + en             total separation probability

where xi_N = ne / ue is the relative search intensity of the nonemployed
under balanced matching.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .series import MonthDate, MonthlySeries, normalize_shares, require_aligned

RATE_NAMES = ("eu", "en", "ue", "un", "ne", "nu")

# Origin and destination state of each rate in RATE_NAMES order, in the
# monthly flow matrix whose rows and columns are ordered (E, U, N); the
# diagonal holds stayers as the residual mass.
_ORIGIN = np.array([0, 0, 1, 1, 2, 2])
_DEST = np.array([1, 2, 0, 2, 0, 1])
_STATES = np.arange(3)


class RakingError(RuntimeError):
    """Iterative proportional fitting failed for at least one month-pair."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class RakingReport:
    """Per-month-pair convergence diagnostics."""

    iterations: np.ndarray       # IPF sweeps used, -1 where inputs were missing
    residuals: np.ndarray        # worst marginal residual after fitting
    max_adjustment: np.ndarray   # largest absolute change applied to any rate

    @property
    def worst_residual(self) -> float:
        finite = self.residuals[~np.isnan(self.residuals)]
        return float(finite.max()) if finite.size else float("nan")


@dataclass(frozen=True)
class ThreeStatePanel:
    """Stocks, transition rates and (once derived) searcher aggregates."""

    E: MonthlySeries
    U: MonthlySeries
    N: MonthlySeries
    eu: MonthlySeries
    en: MonthlySeries
    ue: MonthlySeries
    un: MonthlySeries
    ne: MonthlySeries
    nu: MonthlySeries
    xi_N: MonthlySeries | None = None
    S: MonthlySeries | None = None
    N_tilde: MonthlySeries | None = None
    x: MonthlySeries | None = None

    def __post_init__(self) -> None:
        series = [self.E, self.U, self.N] + [getattr(self, r) for r in RATE_NAMES]
        series += [s for s in (self.xi_N, self.S, self.N_tilde, self.x) if s is not None]
        require_aligned(*series)
        total = self.E.values + self.U.values + self.N.values
        ok = np.isnan(total) | (np.abs(total - 1.0) < 1e-12)
        if not ok.all():
            t = int(np.flatnonzero(~ok)[0])
            raise ValueError(f"stocks do not sum to one at {self.E.start.shift(t)} "
                             f"(total {float(total[t])!r}); normalize first")
        for name in RATE_NAMES:
            v = getattr(self, name).values
            v = v[~np.isnan(v)]
            if v.size and ((v < 0.0) | (v > 1.0)).any():
                raise ValueError(f"transition rate {name} outside [0, 1]")

    def rates(self) -> dict[str, MonthlySeries]:
        return {name: getattr(self, name) for name in RATE_NAMES}

    def has_aggregates(self) -> bool:
        return None not in (self.xi_N, self.S, self.N_tilde, self.x)


def _flow_matrices(rows: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow cells (3, 3, T) from origin stocks (3, T) and rates (6, T).

    Cell (i, j) of month-pair t is ``flows[i, j, t]``: the nine cells are
    the rows of a (9, T) array, cell (i, j) at row 3 * i + j, with the
    month-pair axis contiguous.  Returns the cells and each state's exit
    total (3, T); stayers are the origin stock times one minus that total.
    """
    flows = np.zeros((3, 3, rows.shape[1]))
    flows[_ORIGIN, _DEST] = rows[_ORIGIN] * rates
    out = rates[0::2] + rates[1::2]
    flows[_STATES, _STATES] = rows * (1.0 - out)
    return flows, out


def _row_sums(m: np.ndarray) -> np.ndarray:
    # left to right, the order numpy's sum takes over a length-3 axis
    return (m[:, 0] + m[:, 1]) + m[:, 2]


def _col_sums(m: np.ndarray) -> np.ndarray:
    return (m[0] + m[1]) + m[2]


def _scaling(sums: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Scale factors targets / sums (3, T), 1 where a sum is not positive,
    which is never divided by; and per month-pair whether any of its three
    sums is zero with a positive target, or None when every sum is positive."""
    positive = sums > 0.0
    if positive.all():
        return targets / sums, None
    empty = (sums == 0.0) & (targets > 0.0)
    return (np.where(positive, targets / np.where(positive, sums, 1.0), 1.0),
            empty[0] | empty[1] | empty[2])


def _ipf_pairs(flows: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               tol: float, max_iter: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[str, float]]]:
    """Rake each month-pair's cells in `flows` (3, 3, T) to its own row and
    column targets (3, T).

    A sweep scales rows, then columns, of the pairs still active; a pair
    leaves the active set once its worst marginal residual is <= tol.  Each
    margin is two adds of whole month-pair vectors, left to right as numpy's
    sum over a length-3 axis adds, so each pair sees exactly the arithmetic
    it would see raked alone.  Returns the fitted cells, the sweeps and
    residuals per pair (NaN, -1 and NaN where the pair failed) and
    {pair index: (message, worst residual)} for failures.
    """
    n = flows.shape[2]
    fitted = np.full_like(flows, np.nan)
    sweeps = np.full(n, -1)
    residuals = np.full(n, np.nan)
    failed: dict[int, tuple[str, float]] = {}
    active = np.arange(n)
    m = flows.copy()
    residual = np.full(n, np.inf)
    rs = _row_sums(m)
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        scale, empty_row = _scaling(rs, rows)
        m *= scale[:, None]
        scale, empty_col = _scaling(_col_sums(m), cols)
        m *= scale[None]
        # these row sums are also the next sweep's, on the same cells
        rs = _row_sums(m)
        gap = np.maximum(np.abs(rs - rows), np.abs(_col_sums(m) - cols))
        residual = np.maximum(np.maximum(gap[0], gap[1]), gap[2])
        done = leave = residual <= tol
        # rows last, so a pair with an empty row and column reports the row
        for empty, margin in ((empty_col, "column"), (empty_row, "row")):
            if empty is not None:
                failed.update(dict.fromkeys(active[empty].tolist(), (
                    f"empty flow {margin} with positive target mass", np.inf)))
                done, leave = done & ~empty, leave | empty
        if done.any():
            finished = active[done]
            fitted[:, :, finished] = m[:, :, done]
            sweeps[finished] = it
            residuals[finished] = residual[done]
        if leave.any():
            keep = np.flatnonzero(~leave)
            active, residual = active[keep], residual[keep]
            m, rs, rows, cols = (a.take(keep, axis=-1) for a in (m, rs, rows, cols))
    for k, res in zip(active.tolist(), residual):
        failed[k] = (f"raking did not converge within {max_iter} iterations "
                     f"(worst residual {res:.3e})", res)
    return fitted, sweeps, residuals, failed


def rake_transition_rates(
    stocks: tuple[MonthlySeries, MonthlySeries, MonthlySeries],
    rates: Mapping[str, MonthlySeries],
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> tuple[dict[str, MonthlySeries], RakingReport]:
    """Adjust transition rates so each month-pair's flows match both stock vectors.

    For every month t the 3x3 flow matrix (origin stocks times rates, stayers
    as the diagonal residual) is raked so row sums equal the month-t stocks
    and column sums the month-(t+1) stocks, both within `tol`.  Raked rates
    are the adjusted off-diagonal flows divided by origin stocks.  Rates that
    are already stock-consistent pass through unchanged.  Month-pairs with a
    missing input stay missing.  All month-pairs are raked at once; when any
    fails, the error names the earliest failing month.
    """
    E, U, N = stocks
    require_aligned(E, U, N, *[rates[name] for name in RATE_NAMES])
    n = len(E)
    stock_mat = np.vstack([E.values, U.values, N.values])
    rate_mat = np.vstack([rates[name].values for name in RATE_NAMES])
    out = np.full((len(RATE_NAMES), n), np.nan)
    iterations = np.full(n - 1, -1, dtype=int)
    residuals = np.full(n - 1, np.nan)
    max_adjustment = np.full(n - 1, np.nan)

    inputs = np.vstack([stock_mat[:, :-1], stock_mat[:, 1:], rate_mat[:, :-1]])
    pairs = np.flatnonzero(~np.isnan(inputs).any(axis=0))
    rows, cols, r = stock_mat[:, pairs], stock_mat[:, pairs + 1], rate_mat[:, pairs]
    failures: dict[int, Exception] = {}  # month index -> its error

    def month(k: int) -> MonthDate:
        return E.start.shift(int(pairs[k]))

    row_total, col_total = rows.sum(axis=0), cols.sum(axis=0)
    gap = np.abs(row_total - col_total)
    mismatch = gap > max(100.0 * tol, 1e-10)
    for k in np.flatnonzero(mismatch):
        failures[pairs[k]] = RakingError(
            f"month {month(k)}: total population differs between adjacent "
            f"months ({float(row_total[k])!r} vs {float(col_total[k])!r}); "
            "normalize stocks to shares first", gap[k])
    flows, exits = _flow_matrices(rows, r)
    over = exits > 1.0 + 1e-12
    for k in np.flatnonzero(over.any(axis=0) & ~mismatch):
        i = int(np.argmax(over[:, k]))
        failures[pairs[k]] = ValueError(
            f"month {month(k)}: negative stayer probability in state {i}: "
            f"exit rates sum to {float(exits[i, k])!r}")

    ok = np.flatnonzero(~mismatch & ~over.any(axis=0))
    fitted, sweeps, res, ipf_failed = _ipf_pairs(flows[:, :, ok], rows[:, ok],
                                                 cols[:, ok], tol, max_iter)
    for j, (message, worst) in ipf_failed.items():
        failures[pairs[ok[j]]] = RakingError(f"month {month(ok[j])}: {message}", worst)
    negative = (fitted[_STATES, _STATES] < -tol).any(axis=0)
    for j in np.flatnonzero(negative):
        failures[pairs[ok[j]]] = RakingError(
            f"infeasible flow matrix at {month(ok[j])}: "
            "negative stayer mass after adjustment", res[j])
    if failures:
        raise failures[min(failures)]

    # no failure, so every pair was raked and `ok` covers all of them
    origin = rows[_ORIGIN]
    raked = np.where(origin > 0.0,
                     fitted[_ORIGIN, _DEST] / np.where(origin > 0.0, origin, 1.0),
                     0.0)
    out[:, pairs] = raked
    iterations[pairs] = sweeps
    residuals[pairs] = res
    max_adjustment[pairs] = np.abs(raked - r).max(axis=0)

    raked_series = {name: E.with_values(vals) for name, vals in zip(RATE_NAMES, out)}
    report = RakingReport(iterations=iterations, residuals=residuals,
                          max_adjustment=max_adjustment)
    return raked_series, report


def relative_search_intensity(ne: MonthlySeries, ue: MonthlySeries) -> MonthlySeries:
    """Search intensity of the nonemployed relative to the unemployed: ne / ue."""
    require_aligned(ne, ue)
    defined = ~np.isnan(ne.values) & ~np.isnan(ue.values)
    if (defined & (ue.values == 0.0)).any():
        t = int(np.flatnonzero(defined & (ue.values == 0.0))[0])
        raise ValueError(f"undefined intensity at {ne.start.shift(t)}: "
                         "zero unemployment-to-employment rate")
    with np.errstate(invalid="ignore"):
        return ne.with_values(ne.values / ue.values)


def derive_aggregates(panel: ThreeStatePanel) -> ThreeStatePanel:
    """Fill the searcher aggregates xi_N, S, N_tilde and x from stocks and rates."""
    xi = relative_search_intensity(panel.ne, panel.ue)
    s_vals = panel.U.values + xi.values * panel.N.values
    ntilde = (1.0 - xi.values) * panel.N.values
    x_vals = panel.eu.values + panel.en.values
    return dataclasses.replace(
        panel,
        xi_N=xi,
        S=panel.U.with_values(s_vals),
        N_tilde=panel.N.with_values(ntilde),
        x=panel.eu.with_values(x_vals),
    )


def total_hires(panel: ThreeStatePanel) -> MonthlySeries:
    """Total hires H = U*ue + N*ne.

    On a stock-flow-consistent (raked) panel this equals the hires implied by
    the summed laws of motion, E*x - dU - dN, up to the raking tolerance.
    """
    return panel.U.with_values(panel.U.values * panel.ue.values
                               + panel.N.values * panel.ne.values)


def build_three_state_panel(
    E: MonthlySeries, U: MonthlySeries, N: MonthlySeries,
    rates: Mapping[str, MonthlySeries],
    tol: float = 1e-12,
    max_iter: int = 1000,
) -> tuple[ThreeStatePanel, RakingReport]:
    """Normalize stocks, rake the rates against them, and derive aggregates."""
    E, U, N = normalize_shares([E, U, N])
    raked, report = rake_transition_rates((E, U, N), rates, tol=tol, max_iter=max_iter)
    panel = ThreeStatePanel(E=E, U=U, N=N, **raked)
    return derive_aggregates(panel), report

"""Three-state panel: stocks, raked transition rates, and searcher aggregates.

States are employment (E), unemployment (U) and nonemployment (N), with six
monthly transition probabilities between them.  Published gross-flow rates
are not exactly consistent with the published stocks, so each month-pair's
3x3 flow matrix is raked by iterative proportional fitting until its row
sums reproduce this month's stocks and its column sums reproduce next
month's.  Every panel derives its searcher aggregates from its stocks and
rates, on first use:

    S = U + xi_N * N        effective searchers
    N_tilde = (1 - xi_N) N  non-searchers
    x = eu + en             total separation probability

where xi_N = ne / ue is the relative search intensity of the nonemployed
under balanced matching.  A panel with no nonemployment (N = 0) has S = U,
N_tilde = 0 and, with en = 0, x = eu: the two-state model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

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
    """Stocks and transition rates; the searcher aggregates xi_N, S, N_tilde
    and x are derived from them when first read (a panel whose aggregates
    are undefined, such as one with ue = 0, still builds)."""

    E: MonthlySeries
    U: MonthlySeries
    N: MonthlySeries
    eu: MonthlySeries
    en: MonthlySeries
    ue: MonthlySeries
    un: MonthlySeries
    ne: MonthlySeries
    nu: MonthlySeries

    def __post_init__(self) -> None:
        require_aligned(self.E, self.U, self.N, *(getattr(self, r) for r in RATE_NAMES))
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

    @cached_property
    def xi_N(self) -> MonthlySeries:
        """Relative search intensity of the nonemployed, ne / ue."""
        return relative_search_intensity(self.ne, self.ue)

    @cached_property
    def S(self) -> MonthlySeries:
        """Effective searchers U + xi_N N."""
        return self.U.with_values(self.U.values + self.xi_N.values * self.N.values)

    @cached_property
    def N_tilde(self) -> MonthlySeries:
        """Non-searchers (1 - xi_N) N."""
        return self.N.with_values((1.0 - self.xi_N.values) * self.N.values)

    @cached_property
    def x(self) -> MonthlySeries:
        """Total separation probability eu + en."""
        return self.eu.with_values(self.eu.values + self.en.values)


def _stayer_faults(rates: np.ndarray,
                   month: Callable[[int], MonthDate]) -> dict[int, str]:
    """{column: message naming ``month(column)``}, in column order, for the
    columns of `rates` (6, T, in RATE_NAMES order) in which a state's exit
    rates sum above one beyond rounding, leaving it a negative stayer
    probability.  Raking and the three-state simulator both refuse them."""
    exits = rates[0::2] + rates[1::2]
    over = exits > 1.0 + 1e-12
    bad = np.flatnonzero(over.any(axis=0))
    return {k: f"month {month(k)}: negative stayer probability in state {i}: "
               f"exit rates sum to {float(exits[i, k])!r}"
            for k, i in zip(bad.tolist(), over[:, bad].argmax(axis=0).tolist())}


def _flow_matrices(rows: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Flow cells (3, 3, T) from origin stocks (3, T) and rates (6, T).

    Cell (i, j) of month-pair t is ``flows[i, j, t]``: the nine cells are
    the rows of a (9, T) array, cell (i, j) at row 3 * i + j, with the
    month-pair axis contiguous.  Stayers are the origin stock times one
    minus the state's exit probability.
    """
    flows = np.zeros((3, 3, rows.shape[1]))
    flows[_ORIGIN, _DEST] = rows[_ORIGIN] * rates
    flows[_STATES, _STATES] = rows * (1.0 - (rates[0::2] + rates[1::2]))
    return flows


# Sweeps between convergence checks, and month-pairs raked at a time: the
# per-sweep cells and sums kept for a check hold _BATCH * _BLOCK pairs.
_BATCH = 8
_BLOCK = 4096


def _scaling(targets: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Scale factors targets / sums, 1 where a sum is not positive, which is
    never divided by."""
    positive = sums > 0.0
    return np.where(positive, targets / np.where(positive, sums, 1.0), 1.0)


def _sweeps(m: np.ndarray, rows: np.ndarray, cols: np.ndarray, rsum: np.ndarray,
            csum: np.ndarray, cells: np.ndarray, scaling) -> None:
    """Sweep len(cells) times from cells m (3, 3, A), whose row sums are in
    rsum[0].  Sweep k writes its column sums before division to csum[k], its
    cells to cells[k] and their row sums, the next sweep's, to rsum[k + 1]."""
    for k, out in enumerate(cells):
        m = m * scaling(rows, rsum[k])[:, None]
        np.add.reduce(m, axis=0, out=csum[k])
        np.multiply(m, scaling(cols, csum[k])[None], out=out)
        m = out
        np.add.reduce(m, axis=1, out=rsum[k + 1])


def _worst_gap(sums: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Largest |sums - targets| over the three states (axis -2)."""
    gap = sums - targets
    return np.maximum.reduce(np.abs(gap, out=gap), axis=-2)


def _ipf_block(m: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               tol: float, max_iter: int, active: np.ndarray, kept: tuple,
               fitted: np.ndarray, sweeps: np.ndarray, residuals: np.ndarray,
               failed: dict[int, tuple[str, float]]) -> None:
    """Rake the cells m of one block of month-pairs, numbered `active`, into
    the outputs of `_ipf_pairs`."""
    rs = np.add.reduce(m, axis=1)
    it = 0
    while active.size and it < max_iter:
        b, a = min(_BATCH, max_iter - it), active.size
        cells = kept[0][:b * 9 * a].reshape(b, 3, 3, a)
        rsum = kept[1][:(b + 1) * 3 * a].reshape(b + 1, 3, a)
        csum = kept[2][:b * 3 * a].reshape(b, 3, a)
        rsum[0] = rs
        with np.errstate(divide="ignore", invalid="ignore"):
            _sweeps(m, rows, cols, rsum, csum, cells, np.divide)
        # a sum that is not positive, or NaN, was divided by: sweep again
        guarded = not (rsum[:b].min() > 0.0 and csum.min() > 0.0)
        if guarded:
            _sweeps(m, rows, cols, rsum, csum, cells, _scaling)
        # a pair can converge only where its rows are within tol, so only
        # those pairs have their columns summed
        residual = _worst_gap(rsum[1:], rows)
        near = np.flatnonzero((residual <= tol).any(axis=0))
        if near.size:
            residual[:, near] = np.maximum(residual[:, near], _worst_gap(
                np.add.reduce(cells.take(near, axis=-1), axis=1), cols.take(near, axis=-1)))
        event = residual <= tol
        if guarded:
            empty_row = ((rsum[:b] == 0.0) & (rows > 0.0)).any(axis=1)
            empty_col = ((csum == 0.0) & (cols > 0.0)).any(axis=1)
            event |= empty_row | empty_col
        hit = event.any(axis=0)
        if hit.any():
            # each pair leaves at its first sweep that converged or met an
            # empty margin, as it would if checked after every sweep
            left = np.flatnonzero(hit)
            k = event[:, left].argmax(axis=0)
            if guarded:
                # rows last, so a pair with an empty row and column reports the row
                for empty, margin in ((empty_col, "column"), (empty_row, "row")):
                    failed.update(dict.fromkeys(active[left[empty[k, left]]].tolist(), (
                        f"empty flow {margin} with positive target mass", np.inf)))
                ok = ~(empty_row[k, left] | empty_col[k, left])
                k, left = k[ok], left[ok]
            fitted[:, :, active[left]] = cells[k, :, :, left].transpose(1, 2, 0)
            sweeps[active[left]] = it + 1 + k
            residuals[active[left]] = residual[k, left]
            stay = np.flatnonzero(~hit)
            active, rows, cols = (x.take(stay, axis=-1) for x in (active, rows, cols))
            # copies, as the next batch overwrites the kept arrays
            m, rs = cells[-1].take(stay, axis=-1), rsum[-1].take(stay, axis=-1)
        else:
            m, rs = cells[-1].copy(), rsum[-1].copy()
        it += b
    if active.size:  # these did not converge: their last sweep's residual
        residual = (np.maximum(_worst_gap(rs, rows), _worst_gap(np.add.reduce(m, axis=0), cols))
                    if it else np.full(active.size, np.inf))
        for j, res in zip(active.tolist(), residual):
            failed[j] = (f"raking did not converge within {max_iter} iterations "
                         f"(worst residual {res:.3e})", res)


def _ipf_pairs(flows: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               tol: float, max_iter: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[str, float]]]:
    """Rake each month-pair's cells in `flows` (3, 3, T) to its own row and
    column targets (3, T).

    A sweep scales rows, then columns, of the pairs still active; a pair
    leaves the active set at its first sweep whose worst marginal residual
    is <= tol.  Returns the fitted cells, the sweeps and residuals per pair
    (NaN, -1 and NaN where the pair failed) and {pair index: (message,
    worst residual)} for failures.  Each pair sees exactly the arithmetic
    it would see raked alone: a margin is one `np.add.reduce` over a
    length-3 axis, which adds left to right.

    A sweep is only its arithmetic.  Sweeps run _BATCH at a time, with
    plain division, and keep each sweep's cells and its sums before and
    after division; the batch's residuals are then read at once from the
    kept sums.  Column sums after a sweep are taken only for the pairs
    whose rows came within tol, the only ones that can have converged.  A
    batch that divided by a sum that is not positive (or NaN) is swept
    again from its starting cells through `_scaling`, and its empty margins
    are read from the kept sums.  Pairs are raked _BLOCK at a time, so the
    kept arrays stay small however long the panel.  On 240 noisy month-pairs
    a sweep costs 23-34 us (2 vCPU Xeon, numpy 2.4), against 39-60 us when
    each sweep checked convergence.
    """
    n = flows.shape[2]
    fitted = np.full_like(flows, np.nan)
    sweeps = np.full(n, -1)
    residuals = np.full(n, np.nan)
    failed: dict[int, tuple[str, float]] = {}
    size = min(n, _BLOCK)
    kept = (np.empty(_BATCH * 9 * size), np.empty((_BATCH + 1) * 3 * size),
            np.empty(_BATCH * 3 * size))
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        _ipf_block(flows[:, :, block], rows[:, block], cols[:, block], tol, max_iter,
                   np.arange(start, min(start + _BLOCK, n)), kept,
                   fitted, sweeps, residuals, failed)
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
    usable = ~mismatch
    for k, message in _stayer_faults(r, month).items():
        if usable[k]:
            failures[pairs[k]] = ValueError(message)
        usable[k] = False

    ok = np.flatnonzero(usable)
    flows = _flow_matrices(rows, r)
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
    """Normalize stocks and rake the rates against them."""
    E, U, N = normalize_shares([E, U, N])
    raked, report = rake_transition_rates((E, U, N), rates, tol=tol, max_iter=max_iter)
    return ThreeStatePanel(E=E, U=U, N=N, **raked), report

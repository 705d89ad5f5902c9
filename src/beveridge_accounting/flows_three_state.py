"""Three-state panel: stocks, raked transition rates, and searcher aggregates.

States are employment (E), unemployment (U) and nonemployment (N), with six
monthly transition probabilities between them.  Published gross-flow rates
are not exactly consistent with the published stocks, so each month-pair's
3x3 flow matrix is raked: scaled by row and column factors, by Newton's
method, to the fit of least I-divergence whose row sums reproduce this
month's stocks and column sums next month's; a month with a negative rate
is refused before any step, and a rate in a month that starts no pair is
held to the panel's rule, [0, 1].  Every panel derives its searcher
aggregates from its stocks and rates, on first use:

    S = U + xi_N * N        effective searchers
    N_tilde = (1 - xi_N) N  non-searchers
    x = eu + en             total separation probability
    f = H / S = ue          finding rate: hires H = U ue + N ne per searcher

where xi_N = ne / ue is the relative search intensity of the nonemployed
under balanced matching, so S = H / ue.  A panel with no nonemployment
(N = 0) has S = U, N_tilde = 0 and, with en = 0, x = eu: the two-state model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .series import (DataError, MonthDate, MonthlySeries, _reject_first,
                     normalize_shares, require_aligned)

RATE_NAMES = ("eu", "en", "ue", "un", "ne", "nu")

# Origin and destination state of each rate in RATE_NAMES order, in the
# monthly flow matrix whose rows and columns are ordered (E, U, N); the
# diagonal holds stayers as the residual mass.
_ORIGIN = np.array([0, 0, 1, 1, 2, 2])
_DEST = np.array([1, 2, 0, 2, 0, 1])
_STATES = np.arange(3)


class RakingError(DataError, RuntimeError):
    """Raking found no fit for at least one month-pair: a data error, and a
    RuntimeError to library callers."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class RakingReport:
    """Per-month-pair convergence diagnostics."""

    iterations: np.ndarray       # Newton steps taken, -1 where inputs were missing
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
    are undefined, such as one with ue = 0, still builds), and f is ue."""

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
        _reject_first(~(np.isnan(total) | (np.abs(total - 1.0) < 1e-12)), self.E.start,
                      "stocks do not sum to one at {month} (total {value!r}); "
                      "normalize first", total)
        _reject_nonprobabilities(self.rates())

    def rates(self) -> dict[str, MonthlySeries]:
        return {name: getattr(self, name) for name in RATE_NAMES}

    @cached_property
    def xi_N(self) -> MonthlySeries:
        """Relative search intensity of the nonemployed, ne / ue; DataError
        naming the first month where ue is zero and ne is observed."""
        ne, ue = self.ne.values, self.ue.values
        _reject_first(~np.isnan(ne) & (ue == 0.0), self.ne.start,
                      "undefined intensity at {month}: "
                      "zero unemployment-to-employment rate")
        with np.errstate(invalid="ignore"):
            return self.ne.with_values(ne / ue)

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

    @property
    def f(self) -> MonthlySeries:
        """Finding rate: hires per effective searcher, H / S, which is ue."""
        return self.ue


def _reject_nonprobabilities(rates: Mapping[str, MonthlySeries],
                             where: np.ndarray | bool = True) -> None:
    """DataError naming the first rate, in RATE_NAMES order, outside [0, 1]
    in a month where `where` holds, its first such month and the value."""
    for name in RATE_NAMES:
        v = rates[name]
        _reject_first(where & ((v.values < 0.0) | (v.values > 1.0)), v.start,
                      f"transition rate {name} outside [0, 1] at {{month}}: {{value!r}}",
                      v.values)


def _rate_faults(rates: np.ndarray,
                 month: Callable[[int], MonthDate]) -> dict[int, str]:
    """{column: message naming ``month(column)``}, in column order, for the
    columns of `rates` (6, T, in RATE_NAMES order) that hold a negative
    rate, or in which a state's exit rates sum above one beyond rounding,
    leaving it a negative stayer probability.  Raking and the simulator
    both refuse them."""
    exits = rates[0::2] + rates[1::2]
    # rows 0-5 a negative rate, rows 6-8 a state's exits: the first named
    faults = np.vstack([rates < 0.0, exits > 1.0 + 1e-12])
    bad = np.flatnonzero(faults.any(axis=0))
    return {k: f"month {month(k)}: " + (
                f"negative transition rate {RATE_NAMES[i]}: {float(rates[i, k])!r}"
                if i < 6 else f"negative stayer probability in state {i - 6}: "
                f"exit rates sum to {float(exits[i - 6, k])!r}")
            for k, i in zip(bad.tolist(), faults[:, bad].argmax(axis=0).tolist())}


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


# Armijo's share: a step must lower the dual potential by this share of the
# decrease its slope predicts.
_ARMIJO = 1e-4


def _margins(f: np.ndarray, r: np.ndarray, c: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column sums (3, A) of the cells f (3, 3, A), and each pair's
    worst marginal residual against the targets r and c."""
    R, C = np.add.reduce(f, axis=1), np.add.reduce(f, axis=0)
    return R, C, np.maximum.reduce(np.abs(np.concatenate([R - r, C - c])), axis=0)


def _cell_sums(x: np.ndarray) -> np.ndarray:
    """Sum of the nine cells of each pair in x (3, 3, A), added in order."""
    return np.add.reduce(x.reshape(9, -1), axis=0)


def _newton_direction(f: np.ndarray, R: np.ndarray, C: np.ndarray,
                      r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Newton direction d[i, j] = da[i] + db[j] (3, 3, A) of the log factors
    of the cells f, whose margins R and C should reach r and c.

    The Hessian of the dual potential is [[diag(R), f], [f^T, diag(C)]],
    with db[2] = 0.  Eliminating the row factors leaves the 2x2 Schur
    complement [[w01 + w02, -w01], [-w01, w01 + w12]], where
    w_jk = sum_i f_ij f_ik / R_i, solved by Cramer's rule.  Its determinant
    w01 w02 + w01 w12 + w02 w12 cannot cancel, and it is zero just where
    the columns fall apart into pieces; each piece then keeps its last
    column's factor.  A row with no flow keeps its factor.
    """
    inv = np.divide(1.0, R, out=np.zeros_like(R), where=R > 0.0)
    share = f * inv[:, None]
    w01 = np.add.reduce(f[:, 0] * share[:, 1], axis=0)
    w02 = np.add.reduce(f[:, 0] * share[:, 2], axis=0)
    w12 = np.add.reduce(f[:, 1] * share[:, 2], axis=0)
    gap = (R - r) * inv
    rhs0 = np.add.reduce(f[:, 0] * gap, axis=0) - (C[0] - c[0])
    rhs1 = np.add.reduce(f[:, 1] * gap, axis=0) - (C[1] - c[1])
    det = w01 * w02 + w01 * w12 + w02 * w12
    db = np.zeros_like(R)
    with np.errstate(divide="ignore", invalid="ignore"):
        db[0] = (rhs0 * (w01 + w12) + w01 * rhs1) / det
        db[1] = (rhs1 * (w01 + w02) + w01 * rhs0) / det
        apart = ~(det > 0.0)
        if apart.any():
            for j, (rhs, w) in enumerate(((rhs0, w01 + w02), (rhs1, w12))):
                db[j] = np.where(apart, np.where(w > 0.0, rhs / w, 0.0), db[j])
    da = -gap - share[:, 0] * db[0] - share[:, 1] * db[1]
    return da[:, None] + db[None]


def _newton_update(f: np.ndarray, R: np.ndarray, C: np.ndarray,
                   r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The cells f (3, 3, A) after one Newton step on each pair, halved
    until the dual potential falls by _ARMIJO of the predicted decrease.

    Along t d the potential changes by t g.d + sum f (e^(t d) - 1 - t d),
    and g.d = -sum f d^2, so the test compares two sums of positive terms,
    which do not cancel however small the step.
    """
    d = _newton_direction(f, R, C, r, c)
    fd = f * d
    slope = _cell_sums(fd * d)
    with np.errstate(over="ignore", invalid="ignore"):
        grow = f * np.expm1(d)
        short = np.flatnonzero(~(_cell_sums(grow - fd) <= (1.0 - _ARMIJO) * slope))
        t = 1.0
        while short.size and t > 1e-18:  # then the pair takes no step
            t *= 0.5
            g = f[..., short] * np.expm1(t * d[..., short])
            ok = _cell_sums(g - t * fd[..., short]) <= (1.0 - _ARMIJO) * t * slope[short]
            grow[..., short] = np.where(ok, g, 0.0)
            short = short[~ok]
    return f + grow


# The seven nonempty subsets of the three states, one per row, as 0/1.
_SUBSETS = np.vstack([np.eye(3), 1.0 - np.eye(3), np.ones(3)])


def _shortfall(m: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each pair's largest shortfall g (A,) of the cells m (3, 3, A) against
    the targets r and c (3, A): over the nonempty subsets of rows (columns),
    their targets less those of the columns (rows) their cells reach; for
    all three rows (columns), that is the gap between the two totals.
    Scaling keeps zero cells zero, so in every fit the residuals of those at
    most six margins sum to at least g, and the worst is at least g / 6."""
    support, n = m > 0.0, m.shape[2]
    reach = (_SUBSETS @ support.reshape(3, -1)).reshape(7, 3, n) > 0.0
    come = (_SUBSETS @ support.transpose(1, 0, 2).reshape(3, -1)).reshape(7, 3, n) > 0.0
    out = _SUBSETS @ r - np.add.reduce(np.where(reach, c, 0.0), axis=1)
    into = _SUBSETS @ c - np.add.reduce(np.where(come, r, 0.0), axis=1)
    return np.maximum(out.max(axis=0), into.max(axis=0))


def _rake_pairs(flows: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                tol: float, max_iter: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[str, float]]]:
    """Rake each month-pair's cells in `flows` (3, 3, T) to its own row and
    column targets (3, T).

    The fit scales cell (i, j) by e^(a_i + b_j), where (a, b) minimises the
    dual potential sum m_ij e^(a_i + b_j) - rows . a - cols . b.  All pairs
    take Newton steps at once, and each leaves at its first step (from 0)
    whose worst marginal residual is <= tol, with that step's cells.  A
    column whose target is zero is emptied first.  A pair fails where a
    margin with positive target has no flow to fill it, where its shortfall
    (`_shortfall`) rules out a fit within tol, or when it is still above tol
    after max_iter steps.  Returns the fitted cells, the steps and
    residuals per pair (NaN, -1 and NaN where the pair failed) and
    {pair index: (message, worst residual)} for failures.
    """
    fitted = np.full_like(flows, np.nan)
    steps, residuals = np.full(flows.shape[2], -1), np.full(flows.shape[2], np.nan)
    m = np.where(cols[None] == 0.0, 0.0, flows)
    R, C, res = _margins(m, rows, cols)
    # the first of three empty margins, in the order row-then-column
    # scaling meets them: a row with no flow, a column with no flow, a row
    # whose flow went only to emptied columns
    row = ((np.add.reduce(flows, axis=1) == 0.0) & (rows > 0.0)).any(axis=0)
    col = ((np.add.reduce(flows, axis=0) == 0.0) & (cols > 0.0)).any(axis=0) & ~row
    row |= ((R == 0.0) & (rows > 0.0)).any(axis=0) & ~col
    failed = {j: (f"empty flow {margin} with positive target mass", np.inf)
              for margin, empty in (("column", col), ("row", row))
              for j in np.flatnonzero(empty).tolist()}
    # a pair whose worst residual stays above tol in every fit, whatever
    # the rounding of its sums, fails before the first step
    gap = _shortfall(m, rows, cols)
    stuck = (gap > 6.0 * tol + 1e-14 * np.add.reduce(rows, axis=0)) & ~(row | col)
    for j, g in zip(np.flatnonzero(stuck).tolist(), gap[stuck].tolist()):
        failed[j] = (f"raking cannot converge: some margins' targets exceed "
                     f"by {g:.3e} those of the margins that hold all their flow",
                     np.inf)
    act = np.flatnonzero(~(row | col | stuck))
    f, R, C, r, c, res = (x[..., act] for x in (m, R, C, rows, cols, res))
    for k in range(max_iter + 1):
        done = res <= tol
        if done.any():
            fitted[:, :, act[done]] = f[..., done]
            steps[act[done]] = k
            residuals[act[done]] = res[done]
            act, f, R, C, r, c = (x[..., ~done] for x in (act, f, R, C, r, c))
        if not act.size or k == max_iter:
            break
        f = _newton_update(f, R, C, r, c)
        R, C, res = _margins(f, r, c)
    for j, worst in zip(act.tolist(), res.tolist()):
        failed[j] = (f"raking did not converge within {max_iter} iterations "
                     f"(worst residual {worst:.3e})", worst)
    return fitted, steps, residuals, failed


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
    are already stock-consistent take no step and pass through up to
    rounding.  `max_iter` caps the Newton steps of each month-pair.
    Month-pairs with a missing input stay missing.  All month-pairs are
    raked at once; when any fails, the error names the earliest failing
    month.
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
    for k, message in _rate_faults(r, month).items():
        if usable[k]:
            failures[pairs[k]] = DataError(message)
        usable[k] = False

    ok = np.flatnonzero(usable)
    fitted, steps, res, rake_failed = _rake_pairs(
        _flow_matrices(rows[:, ok], r[:, ok]), rows[:, ok], cols[:, ok], tol, max_iter)
    for j, (message, worst) in rake_failed.items():
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
    iterations[pairs] = steps
    residuals[pairs] = res
    max_adjustment[pairs] = np.abs(raked - r).max(axis=0)

    raked_series = {name: E.with_values(vals) for name, vals in zip(RATE_NAMES, out)}
    report = RakingReport(iterations=iterations, residuals=residuals,
                          max_adjustment=max_adjustment)
    return raked_series, report


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
    """Normalize stocks and rake the rates against them; the rates of the
    months that start no month-pair, which raking leaves missing, are held
    to the panel's rule."""
    E, U, N = normalize_shares([E, U, N])
    raked, report = rake_transition_rates((E, U, N), rates, tol=tol, max_iter=max_iter)
    _reject_nonprobabilities(rates, np.isnan(raked["eu"].values))
    return ThreeStatePanel(E=E, U=U, N=N, **raked), report

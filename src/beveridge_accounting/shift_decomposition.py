"""Decomposition of the vertical Beveridge-curve shift between a downswing
and an upswing sample.

Each downswing month is matched to the point on the upswing with the same
unemployment rate (linear interpolation in the level of U, first temporal
crossing; every series is interpolated with the same weights).  The vertical
shift at that unemployment rate is then split into contributions from
out-of-steady-state dynamics, the separation probability, and matching
efficiency, two ways:

* log-linear: additive first-order contributions in log-vacancy units,
  coefficient times the up-down difference of each shifter coordinate;
* nonlinear: starting from the steady-state curve (which cannot shift),
  margins are set to their observed values one at a time, in each of the
  six orders; each margin's contribution is the change in the up-down shift
  of the vacancy *level* when it is switched on.  Contributions telescope to
  the observed level shift for every ordering, and a margin's contribution
  depends only on the set of margins switched on before it, so the whole
  table follows from the shifts with each subset of margins held constant.
  (Levels matter: in logs the efficiency margin would separate additively
  and its contribution could not depend on the preceding margins at all.)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, compress, permutations

import numpy as np

from .curve import (ApproximationPoint, dynamics_coefficient, matching_coefficient,
                    separations_coefficient, _vacancy_identity)
from .series import MonthDate, MonthlySeries, delta, delta_log, require_aligned

MARGIN_DYNAMICS = "dynamics"
MARGIN_SEPARATIONS = "separations"
MARGIN_MATCHING = "matching"
MARGINS = (MARGIN_DYNAMICS, MARGIN_SEPARATIONS, MARGIN_MATCHING)


class IdentityMismatchWarning(UserWarning):
    """Observed vacancies differ from the all-margins-observed identity.

    Happens when (V, s, sigma) were not constructed jointly from the same
    matching function; contributions then telescope to the identity-implied
    shift rather than the raw observed one.
    """


class AllPairsInfeasibleError(ValueError):
    """Every matched pair hit an infeasible counterfactual; no result."""


# Downswing points per matching block: the (block, n_up - 1) mask stays a few
# hundred KiB on a 1,200-month upswing, however long the downswing is.
_BLOCK = 256


def _first_crossings(x: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First consecutive pair of `x` (in order) that brackets each of `x0`.

    Returns (left, lam): the pair's left index and the weight lam in [0, 1]
    with ``x0 = x[i] + lam * (x[i+1] - x[i])``; left is -1 and lam NaN where
    nothing brackets.  A pair with equal values brackets only an equal x0,
    with lam = 0, and so does a one-point `x`.  Pairs containing NaN never
    bracket.
    """
    a, b = (x, x) if len(x) == 1 else (x[:-1], x[1:])
    nan = np.isnan(a) | np.isnan(b)
    lo = np.where(nan, np.inf, np.minimum(a, b))
    hi = np.where(nan, -np.inf, np.maximum(a, b))
    left = np.full(len(x0), -1)
    for k in range(0, len(x0), _BLOCK):
        point = x0[k:k + _BLOCK, None]
        mask = (lo <= point) & (point <= hi)
        left[k:k + _BLOCK] = np.where(mask.any(axis=1), mask.argmax(axis=1), -1)
    hit = left >= 0
    i = left[hit]
    lam = np.full(len(left), np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam[hit] = np.where(a[i] == b[i], 0.0, (x0[hit] - a[i]) / (b[i] - a[i]))
    return left, lam


def _interp_at_pairs(up: np.ndarray, left: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``up[i] + lam * (up[i+1] - up[i])`` per pair; exactly ``up[i]`` where
    lam is 0, even when ``up[i+1]`` is missing or does not exist."""
    right = np.minimum(left + 1, len(up) - 1)
    return np.where(lam == 0.0, up[left], up[left] + lam * (up[right] - up[left]))


@dataclass(frozen=True)
class SwingBounds:
    """Date bounds for the downswing and upswing samples.

    With `up_end` unset, the upswing runs until unemployment first falls
    below the downswing minimum (that month is included so the downswing
    range stays bracketable) or the series ends.
    """

    down_start: MonthDate = MonthDate(2007, 4)
    down_end: MonthDate = MonthDate(2009, 6)
    up_start: MonthDate = MonthDate(2010, 4)
    up_end: MonthDate | None = None


@dataclass(frozen=True)
class SwingSamples:
    """Matched downswing/upswing samples on a fixed calendar grid.

    The samples hold month indices and matching weights only; values are
    taken from any grid-length array.  `pair_left[k]` and `pair_lam[k]` give
    the interpolation weights on the upswing for downswing point k, from the
    first upswing pair in time that brackets its unemployment rate (see
    `_first_crossings`): interpolated values are
    ``up[i] + lam * (up[i+1] - up[i])``.
    """

    grid_start: MonthDate
    grid_len: int
    down_index: np.ndarray
    up_index: np.ndarray
    pair_left: np.ndarray
    pair_lam: np.ndarray
    dropped_months: tuple[MonthDate, ...]

    @property
    def down_months(self) -> tuple[MonthDate, ...]:
        """The kept downswing months, one per matched point."""
        return tuple(self.grid_start.shift(int(t)) for t in self.down_index)

    @property
    def up_months(self) -> tuple[MonthDate, ...]:
        return tuple(self.grid_start.shift(int(t)) for t in self.up_index)

    def _check_grid(self, series: MonthlySeries) -> None:
        if series.start != self.grid_start or len(series) != self.grid_len:
            raise ValueError("series is not on the samples' calendar grid")

    def at_down(self, values: np.ndarray) -> np.ndarray:
        """Grid-length value array sampled at the kept downswing months."""
        return np.asarray(values, dtype=float)[self.down_index]

    def at_up(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float)[self.up_index]

    def interp_up(self, values: np.ndarray) -> np.ndarray:
        """Interpolate a grid-length value array on the upswing at each
        matched downswing point, using the frozen first-crossing weights."""
        return _interp_at_pairs(self.at_up(values), self.pair_left, self.pair_lam)

    def vertical_shift(self, values: np.ndarray) -> np.ndarray:
        """Up-down shift of a grid-length value array at each matched point."""
        return self.interp_up(values) - self.at_down(values)


def build_swing_samples(U: MonthlySeries, V: MonthlySeries,
                        bounds: SwingBounds = SwingBounds()) -> SwingSamples:
    """Select the downswing and upswing samples and freeze the matching weights.

    Downswing points whose unemployment rate is not bracketable on the
    upswing are dropped and recorded in `dropped_months`.
    """
    require_aligned(U, V)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_v = np.log(V.values)

    for m in (bounds.down_start, bounds.down_end, bounds.up_start):
        if not U.covers(m):
            raise ValueError(f"series do not cover bound {m}")
    if bounds.up_end is not None and not U.covers(bounds.up_end):
        raise ValueError(f"series do not cover bound {bounds.up_end}")

    usable = ~(np.isnan(U.values) | np.isnan(log_v))
    lo, hi = U.index_of(bounds.down_start), U.index_of(bounds.down_end)
    down_idx = lo + np.flatnonzero(usable[lo:hi + 1])
    if not down_idx.size:
        raise ValueError("empty downswing sample")

    start = U.index_of(bounds.up_start)
    stop = U.index_of(bounds.up_end) if bounds.up_end is not None else len(U) - 1
    up_arr = start + np.flatnonzero(usable[start:stop + 1])
    if bounds.up_end is None:
        below = np.flatnonzero(U.values[up_arr] < U.values[down_idx].min())
        if below.size:
            up_arr = up_arr[:below[0] + 1]
    if not up_arr.size:
        raise ValueError("empty upswing sample")

    left, lam = _first_crossings(U.values[up_arr], U.values[down_idx])
    hit = left >= 0
    if not hit.any():
        raise ValueError("no downswing point is bracketable on the upswing")

    return SwingSamples(
        grid_start=U.start,
        grid_len=len(U),
        down_index=down_idx[hit],
        up_index=up_arr,
        pair_left=left[hit],
        pair_lam=lam[hit],
        dropped_months=tuple(U.start.shift(int(t)) for t in down_idx[~hit]),
    )


@dataclass(frozen=True)
class ShiftDecomposition:
    """Per-point log-linear contributions to the vertical Beveridge-curve
    shift, in log-vacancy units (first-order contributions)."""

    months: tuple[MonthDate, ...]
    u: np.ndarray
    observed: np.ndarray
    dynamics: np.ndarray
    separations: np.ndarray
    matching: np.ndarray
    dropped_months: tuple[MonthDate, ...] = ()

    @property
    def total(self) -> np.ndarray:
        """Sum of the three contributions (the decomposed shift)."""
        return self.dynamics + self.separations + self.matching


def loglinear_shift_decomposition(
    U: MonthlySeries, V: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
    samples: SwingSamples, point: ApproximationPoint,
) -> ShiftDecomposition:
    """First-order additive decomposition of the vertical shift.

    Each contribution is the shifter coefficient times the up-down
    difference of its coordinate; matched pairs with a missing coordinate
    are dropped and reported.
    """
    require_aligned(U, V, s, sigma)
    samples._check_grid(U)
    with np.errstate(invalid="ignore", divide="ignore"):
        coords = {
            MARGIN_DYNAMICS: delta_log(U).values,
            MARGIN_SEPARATIONS: np.log(s.values),
            MARGIN_MATCHING: np.log(sigma.values),
        }
        log_v = np.log(V.values)
    coefs = {
        MARGIN_DYNAMICS: dynamics_coefficient(point),
        MARGIN_SEPARATIONS: separations_coefficient(point),
        MARGIN_MATCHING: matching_coefficient(point),
    }
    contrib = {name: coefs[name] * samples.vertical_shift(values)
               for name, values in coords.items()}
    ok = ~np.isnan(np.vstack(list(contrib.values()))).any(axis=0)
    months = samples.down_months
    return ShiftDecomposition(
        months=tuple(compress(months, ok)),
        u=samples.at_down(U.values)[ok],
        observed=samples.vertical_shift(log_v)[ok],
        dynamics=contrib[MARGIN_DYNAMICS][ok],
        separations=contrib[MARGIN_SEPARATIONS][ok],
        matching=contrib[MARGIN_MATCHING][ok],
        dropped_months=samples.dropped_months + tuple(compress(months, ~ok)),
    )


@dataclass(frozen=True)
class OrderingRow:
    ordering: tuple[str, str, str]
    dynamics_pct: float
    separations_pct: float
    matching_pct: float


@dataclass(frozen=True)
class OrderingTable:
    """Percent contributions for all six margin orderings."""

    rows: tuple[OrderingRow, ...]
    average_observed_shift: float
    n_pairs: int
    dropped_months: tuple[MonthDate, ...]


def all_orderings_report(
    U: MonthlySeries, V: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
    samples: SwingSamples, point: ApproximationPoint,
) -> OrderingTable:
    """Exact (nonlinear) decomposition for every ordering of the margins.

    Starting from the steady-state curve, margins are set to their observed
    values in each order; a margin's contribution is the resulting change in
    the up-down vacancy-level shift, averaged over matched points and
    reported as a percent of the averaged observed shift.  A held margin
    takes the point's constant (dynamics: dU = 0).  Holding all three gives
    the steady-state curve, a function of U alone, so its shift at matched
    unemployment is zero by construction.  Matched pairs infeasible under
    any held subset are dropped (the same pairs in every ordering) and
    reported.
    """
    require_aligned(U, V, s, sigma)
    samples._check_grid(U)
    n = len(U)
    observed = {MARGIN_DYNAMICS: delta(U).values, MARGIN_SEPARATIONS: s.values,
                MARGIN_MATCHING: sigma.values}
    constant = {MARGIN_DYNAMICS: np.zeros(n),
                MARGIN_SEPARATIONS: np.full(n, point.s_bar),
                MARGIN_MATCHING: np.full(n, point.sigma_bar)}
    shifts = {frozenset(MARGINS): np.zeros(len(samples.down_index))}
    for k in range(3):
        for held in map(frozenset, combinations(MARGINS, k)):
            x = {m: constant[m] if m in held else observed[m] for m in MARGINS}
            v = _vacancy_identity(U.values, 0.0, x[MARGIN_SEPARATIONS],
                                  x[MARGIN_DYNAMICS], 0.0, x[MARGIN_MATCHING],
                                  point.alpha)
            shifts[held] = samples.vertical_shift(v)
    mask = ~np.isnan(np.vstack(list(shifts.values()))).any(axis=0)
    if not mask.any():
        raise AllPairsInfeasibleError(
            "all matched pairs infeasible under some counterfactual")
    identity = shifts[frozenset()]
    gap = np.abs(identity[mask] - samples.vertical_shift(V.values)[mask])
    if gap.max() > 1e-8:
        warnings.warn(
            f"observed vacancies deviate from the vacancy identity by up to "
            f"{gap.max():.2e}; contributions telescope to the identity-implied "
            "shift", IdentityMismatchWarning, stacklevel=2)

    denom = float(identity[mask].mean())
    rows = []
    for ordering in permutations(MARGINS):
        held = frozenset(MARGINS)
        percent = {}
        for margin in ordering:
            before, held = held, held - {margin}
            percent[margin] = (
                100.0 * float((shifts[held] - shifts[before])[mask].mean()) / denom
                if denom != 0.0 else float("nan"))
        rows.append(OrderingRow(ordering=ordering,
                                dynamics_pct=percent[MARGIN_DYNAMICS],
                                separations_pct=percent[MARGIN_SEPARATIONS],
                                matching_pct=percent[MARGIN_MATCHING]))
    return OrderingTable(
        rows=tuple(rows),
        average_observed_shift=denom,
        n_pairs=int(mask.sum()),
        dropped_months=samples.dropped_months
        + tuple(compress(samples.down_months, ~mask)),
    )

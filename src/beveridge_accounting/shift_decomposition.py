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
  margins are set to their observed values one at a time in a chosen order;
  each margin's contribution is the change in the up-down shift of the
  vacancy *level* when it is switched on.  Contributions telescope to the
  observed level shift for every one of the six orderings, and a margin's
  contribution depends only on the set of margins switched on before it.
  (Levels matter: in logs the efficiency margin would separate additively
  and its contribution could not depend on the preceding margins at all.)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .curve import (ApproximationPoint, dynamics_coefficient, matching_coefficient,
                    separations_coefficient, _vacancy_identity, _warn_infeasible)
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

    `pair_left[k]` and `pair_lam[k]` give the interpolation weights on the
    upswing for downswing point k, from the first upswing pair in time that
    brackets its unemployment rate (see `_first_crossings`): interpolated
    values are ``up[i] + lam * (up[i+1] - up[i])``.
    """

    grid_start: MonthDate
    grid_len: int
    down_months: tuple[MonthDate, ...]
    down_index: np.ndarray
    down_u: np.ndarray
    down_v: np.ndarray
    down_log_v: np.ndarray
    up_months: tuple[MonthDate, ...]
    up_index: np.ndarray
    up_u: np.ndarray
    up_v: np.ndarray
    up_log_v: np.ndarray
    pair_left: np.ndarray
    pair_lam: np.ndarray
    dropped_months: tuple[MonthDate, ...]

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

    up_u = U.values[up_arr]
    left, lam = _first_crossings(up_u, U.values[down_idx])
    hit = left >= 0
    if not hit.any():
        raise ValueError("no downswing point is bracketable on the upswing")

    kept_arr = down_idx[hit]
    return SwingSamples(
        grid_start=U.start,
        grid_len=len(U),
        down_months=tuple(U.start.shift(int(t)) for t in kept_arr),
        down_index=kept_arr,
        down_u=U.values[kept_arr],
        down_v=V.values[kept_arr],
        down_log_v=log_v[kept_arr],
        up_months=tuple(U.start.shift(int(t)) for t in up_arr),
        up_index=up_arr,
        up_u=up_u,
        up_v=V.values[up_arr],
        up_log_v=log_v[up_arr],
        pair_left=left[hit],
        pair_lam=lam[hit],
        dropped_months=tuple(U.start.shift(int(t)) for t in down_idx[~hit]),
    )


def _observed_shift(samples: SwingSamples) -> np.ndarray:
    interp = _interp_at_pairs(samples.up_log_v, samples.pair_left,
                              samples.pair_lam)
    return interp - samples.down_log_v


@dataclass(frozen=True)
class ShiftDecomposition:
    """Per-point contributions to the vertical Beveridge-curve shift.

    Log-linear rows are in log-vacancy units (first-order contributions);
    nonlinear rows are in vacancy-rate levels, the units of the exact
    telescoping identity.  For the nonlinear method `percent` holds each
    margin's averaged contribution as a percent of the averaged observed
    shift, and `ordering` records the order in which margins were set to
    their observed values.
    """

    method: str
    months: tuple[MonthDate, ...]
    u: np.ndarray
    observed: np.ndarray
    dynamics: np.ndarray
    separations: np.ndarray
    matching: np.ndarray
    ordering: tuple[str, str, str] | None = None
    percent: dict[str, float] | None = None
    average_observed_shift: float | None = None
    dropped_months: tuple[MonthDate, ...] = ()

    @property
    def total(self) -> np.ndarray:
        """Sum of the three contributions (the decomposed shift)."""
        return self.dynamics + self.separations + self.matching


def loglinear_shift_decomposition(
    samples: SwingSamples,
    point: ApproximationPoint,
    U: MonthlySeries,
    s: MonthlySeries,
    sigma: MonthlySeries,
) -> ShiftDecomposition:
    """First-order additive decomposition of the vertical shift.

    Each contribution is the shifter coefficient times the up-down
    difference of its coordinate; matched pairs with a missing coordinate
    are dropped and reported.
    """
    require_aligned(U, s, sigma)
    samples._check_grid(U)
    with np.errstate(invalid="ignore", divide="ignore"):
        coords = {
            MARGIN_DYNAMICS: delta_log(U).values,
            MARGIN_SEPARATIONS: np.log(s.values),
            MARGIN_MATCHING: np.log(sigma.values),
        }
    coefs = {
        MARGIN_DYNAMICS: dynamics_coefficient(point),
        MARGIN_SEPARATIONS: separations_coefficient(point),
        MARGIN_MATCHING: matching_coefficient(point),
    }
    contrib = {}
    for name, values in coords.items():
        contrib[name] = coefs[name] * (samples.interp_up(values)
                                       - samples.at_down(values))
    observed = _observed_shift(samples)
    ok = ~np.isnan(np.vstack(list(contrib.values()))).any(axis=0)
    months = np.asarray(samples.down_months, dtype=object)
    return ShiftDecomposition(
        method="loglinear",
        months=tuple(months[ok]),
        u=samples.down_u[ok],
        observed=observed[ok],
        dynamics=contrib[MARGIN_DYNAMICS][ok],
        separations=contrib[MARGIN_SEPARATIONS][ok],
        matching=contrib[MARGIN_MATCHING][ok],
        dropped_months=samples.dropped_months + tuple(months[~ok]),
    )


# ---------------------------------------------------------------------------
# Nonlinear (exact-identity) decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterfactualSpec:
    """Which margins to hold constant, and at what values.

    Holding `dynamics` sets the unemployment change to zero; holding
    `separations` or `matching` replaces the series with its constant.
    """

    held_constant: frozenset = field(default_factory=frozenset)
    s_bar: float = float("nan")
    sigma_bar: float = float("nan")
    alpha: float = 0.3

    def __post_init__(self) -> None:
        unknown = set(self.held_constant) - set(MARGINS)
        if unknown:
            raise ValueError(f"unknown margins: {sorted(unknown)}")
        if MARGIN_SEPARATIONS in self.held_constant and np.isnan(self.s_bar):
            raise ValueError("holding separations constant requires s_bar")
        if MARGIN_MATCHING in self.held_constant and np.isnan(self.sigma_bar):
            raise ValueError("holding matching constant requires sigma_bar")

    @classmethod
    def from_point(cls, held_constant, point: ApproximationPoint) -> "CounterfactualSpec":
        return cls(held_constant=frozenset(held_constant), s_bar=point.s_bar,
                   sigma_bar=point.sigma_bar, alpha=point.alpha)


def counterfactual_vacancies(U: MonthlySeries, s: MonthlySeries,
                             sigma: MonthlySeries, spec: CounterfactualSpec,
                             warn: bool = True) -> MonthlySeries:
    """Exact vacancy identity with the held-constant margins replaced.

    Holding nothing reproduces the exact identity (and hence observed
    vacancies when the inputs were constructed jointly); holding all three
    gives the steady-state curve.  Infeasible months are missing.
    """
    require_aligned(U, s, sigma)
    n = len(U)
    held = spec.held_constant
    s_used = np.full(n, spec.s_bar) if MARGIN_SEPARATIONS in held else s.values
    sig_used = np.full(n, spec.sigma_bar) if MARGIN_MATCHING in held else sigma.values
    du = np.zeros(n) if MARGIN_DYNAMICS in held else delta(U).values
    out = _vacancy_identity(U.values, 0.0, s_used, du, 0.0, sig_used, spec.alpha)
    if warn:
        _warn_infeasible(U.start, out, U.values, s_used, du, sig_used)
    return U.with_values(out)


def _subset_shifts(U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                   samples: SwingSamples,
                   point: ApproximationPoint) -> dict[frozenset, np.ndarray]:
    """Up-down vacancy-level shift per matched point, for every held subset.

    The all-held subset is the steady-state curve, a function of U alone, so
    its shift at matched unemployment is identically zero by construction.
    """
    shifts: dict[frozenset, np.ndarray] = {
        frozenset(MARGINS): np.zeros(len(samples.down_index))}
    for k in range(3):
        for held in combinations(MARGINS, k):
            spec = CounterfactualSpec.from_point(held, point)
            v = counterfactual_vacancies(U, s, sigma, spec, warn=False).values
            shifts[frozenset(held)] = samples.interp_up(v) - samples.at_down(v)
    return shifts


def _ordering_from_shifts(shifts: dict[frozenset, np.ndarray],
                          mask: np.ndarray, samples: SwingSamples,
                          ordering: tuple[str, str, str]) -> ShiftDecomposition:
    held = set(MARGINS)
    contrib: dict[str, np.ndarray] = {}
    for margin in ordering:
        prev = frozenset(held)
        held.remove(margin)
        contrib[margin] = shifts[frozenset(held)] - shifts[prev]
    observed = shifts[frozenset()]
    denom = float(observed[mask].mean())
    percent = {m: 100.0 * float(contrib[m][mask].mean()) / denom if denom != 0.0
               else float("nan") for m in MARGINS}
    months = np.asarray(samples.down_months, dtype=object)
    return ShiftDecomposition(
        method="nonlinear",
        months=tuple(months[mask]),
        u=samples.down_u[mask],
        observed=observed[mask],
        dynamics=contrib[MARGIN_DYNAMICS][mask],
        separations=contrib[MARGIN_SEPARATIONS][mask],
        matching=contrib[MARGIN_MATCHING][mask],
        ordering=ordering,
        percent=percent,
        average_observed_shift=denom,
        dropped_months=samples.dropped_months + tuple(months[~mask]),
    )


def _observed_level_shift(samples: SwingSamples) -> np.ndarray:
    interp = _interp_at_pairs(samples.up_v, samples.pair_left, samples.pair_lam)
    return interp - samples.down_v


def _check_identity(shifts: dict[frozenset, np.ndarray], samples: SwingSamples,
                    mask: np.ndarray) -> None:
    gap = np.abs(shifts[frozenset()][mask] - _observed_level_shift(samples)[mask])
    if gap.size and gap.max() > 1e-8:
        warnings.warn(
            f"observed vacancies deviate from the vacancy identity by up to "
            f"{gap.max():.2e}; contributions telescope to the identity-implied "
            "shift", IdentityMismatchWarning, stacklevel=4)


def _feasible_shifts(U: MonthlySeries, V: MonthlySeries, s: MonthlySeries,
                     sigma: MonthlySeries, samples: SwingSamples,
                     point: ApproximationPoint) -> tuple[dict, np.ndarray]:
    """Subset shifts and the mask of pairs feasible in every counterfactual.

    Raises AllPairsInfeasibleError when no pair is; warns when observed
    vacancies depart from the identity on the feasible pairs.
    """
    require_aligned(U, V, s, sigma)
    samples._check_grid(U)
    shifts = _subset_shifts(U, s, sigma, samples, point)
    mask = ~np.isnan(np.vstack(list(shifts.values()))).any(axis=0)
    if not mask.any():
        raise AllPairsInfeasibleError(
            "all matched pairs infeasible under some counterfactual")
    _check_identity(shifts, samples, mask)
    return shifts, mask


def nonlinear_ordering_decomposition(
    U: MonthlySeries, V: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
    samples: SwingSamples, point: ApproximationPoint,
    ordering: tuple[str, str, str],
) -> ShiftDecomposition:
    """Exact decomposition for one ordering of the three margins.

    Starting from the steady-state curve, margins are set to observed values
    in the given order; a margin's contribution is the resulting change in
    the up-down shift, averaged over matched points and reported as a
    percent of the averaged observed shift.  Matched pairs infeasible in any
    counterfactual are dropped (consistently across orderings) and reported.
    """
    if sorted(ordering) != sorted(MARGINS):
        raise ValueError(f"ordering must be a permutation of {MARGINS}, "
                         f"got {ordering}")
    shifts, mask = _feasible_shifts(U, V, s, sigma, samples, point)
    return _ordering_from_shifts(shifts, mask, samples, tuple(ordering))


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
    """Run the nonlinear decomposition for every ordering of the margins."""
    shifts, mask = _feasible_shifts(U, V, s, sigma, samples, point)
    rows = []
    for ordering in permutations(MARGINS):
        dec = _ordering_from_shifts(shifts, mask, samples, ordering)
        rows.append(OrderingRow(
            ordering=ordering,
            dynamics_pct=dec.percent[MARGIN_DYNAMICS],
            separations_pct=dec.percent[MARGIN_SEPARATIONS],
            matching_pct=dec.percent[MARGIN_MATCHING],
        ))
    dec_any = _ordering_from_shifts(shifts, mask, samples, MARGINS)
    return OrderingTable(
        rows=tuple(rows),
        average_observed_shift=dec_any.average_observed_shift,
        n_pairs=int(mask.sum()),
        dropped_months=dec_any.dropped_months,
    )

"""Decomposition of the vertical Beveridge-curve shift between a downswing
and an upswing sample.

Each downswing month is matched to the point on the upswing with the same
unemployment rate (linear interpolation in the level of U, first temporal
crossing; every series is interpolated with the same weights).  The vertical
shift at that unemployment rate is then split into contributions from the
margins in `MARGINS` (out-of-steady-state dynamics, the separation
probability and matching efficiency), two ways:

* log-linear: additive first-order contributions in log-vacancy units, the
  up-down shift of each margin's term of the log-linear expansion
  (`curve.three_state_loglinear` on the two-state panel, the terms
  `shifters` writes);
* nonlinear: starting from the steady-state curve (which cannot shift),
  margins are set to their observed values one at a time, in every order;
  each margin's contribution is the change in the up-down shift of the
  vacancy *level* when it is switched on.  Contributions telescope to the
  observed level shift for every ordering, and a margin's contribution
  depends only on the set of margins switched on before it, so the whole
  table follows from the shifts with each subset of margins held at the
  point, which `counterfactual_vacancies` gives as vacancy paths.
  (Levels matter: in logs the efficiency margin would separate additively
  and its contribution could not depend on the preceding margins at all.)

`counterfactual_vacancies` also gives the identity on the data (no margin
held) and the steady-state curve (every margin held).

Months are int arrays of indices on the panel's calendar grid, never one
`MonthDate` each; the CLI spells them with `csvio._dates`.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .curve import ApproximationPoint, ThreeStateLoglinear, _vacancy_identity
from .flows_three_state import ThreeStatePanel
from .flows_two_state import TwoStatePanel
from .series import (DataError, InfeasibleError, MonthDate, MonthlySeries, _reject_first,
                     delta, require_aligned)


@dataclass(frozen=True)
class Margin:
    """A margin of the decomposition: its term of the log-linear expansion
    (a key of `curve.ThreeStateLoglinear.terms`) and the inputs of the vacancy
    identity (`curve._vacancy_identity`) that holding it fixes at their
    values at the expansion point, where dS' = dN_tilde' = 0."""

    term: str
    inputs: tuple[str, ...]


# The margins, in the order of every table.
MARGINS = {"dynamics": Margin("searcher_dynamics", ("dS_next", "dN_next")),
           "separations": Margin("separations", ("x",)),
           "matching": Margin("matching", ("sigma",))}
MARGIN_DYNAMICS, MARGIN_SEPARATIONS, MARGIN_MATCHING = MARGINS


class IdentityMismatchWarning(UserWarning):
    """Observed vacancies differ from the all-margins-observed identity.

    Happens when (V, s, sigma) were not constructed jointly from the same
    matching function; contributions then telescope to the identity-implied
    shift rather than the raw observed one.
    """


class AllPairsInfeasibleError(InfeasibleError):
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

    def __post_init__(self) -> None:
        if self.down_end < self.down_start:
            raise DataError(f"downswing end {self.down_end} precedes start "
                            f"{self.down_start}")
        if self.up_end is not None and self.up_end < self.up_start:
            raise DataError(f"upswing end {self.up_end} precedes start "
                            f"{self.up_start}")


@dataclass(frozen=True)
class SwingSamples:
    """Matched downswing/upswing samples on a fixed calendar grid.

    The samples hold month indices (`dropped_months` those of the downswing
    no upswing pair brackets) and matching weights only; values are taken
    from any grid-length array.  `pair_left[k]` and `pair_lam[k]` give the
    interpolation weights on the upswing for downswing point k, from the
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
    dropped_months: np.ndarray

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
    upswing are dropped and their grid indices recorded in `dropped_months`.
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
        raise DataError("empty downswing sample")

    start = U.index_of(bounds.up_start)
    stop = U.index_of(bounds.up_end) if bounds.up_end is not None else len(U) - 1
    up_arr = start + np.flatnonzero(usable[start:stop + 1])
    if bounds.up_end is None:
        below = np.flatnonzero(U.values[up_arr] < U.values[down_idx].min())
        if below.size:
            up_arr = up_arr[:below[0] + 1]
    if not up_arr.size:
        raise DataError("empty upswing sample")

    left, lam = _first_crossings(U.values[up_arr], U.values[down_idx])
    hit = left >= 0
    if not hit.any():
        raise DataError("no downswing point is bracketable on the upswing")

    return SwingSamples(
        grid_start=U.start,
        grid_len=len(U),
        down_index=down_idx[hit],
        up_index=up_arr,
        pair_left=left[hit],
        pair_lam=lam[hit],
        dropped_months=down_idx[~hit],
    )


@dataclass(frozen=True)
class ShiftDecomposition:
    """Per-point log-linear contributions to the vertical Beveridge-curve
    shift, in log-vacancy units (first-order contributions)."""

    months: np.ndarray  # grid indices of the kept points' downswing months
    u: np.ndarray
    observed: np.ndarray
    contributions: dict[str, np.ndarray]  # per margin, in `MARGINS` order
    dropped_months: np.ndarray  # the swing's, then those with a term missing

    @property
    def total(self) -> np.ndarray:
        """Sum of the contributions in `MARGINS` order (the decomposed shift)."""
        first, *rest = (self.contributions[margin] for margin in MARGINS)
        return sum(rest, first)


def loglinear_shift_decomposition(
    U: MonthlySeries, V: MonthlySeries, expansion: ThreeStateLoglinear,
    samples: SwingSamples,
) -> ShiftDecomposition:
    """First-order additive decomposition of the vertical shift: each
    margin's contribution is the up-down shift of its term (`MARGINS`) of
    the two-state expansion (`curve.three_state_loglinear`).  Matched
    pairs where a term is missing are dropped and reported."""
    require_aligned(U, V, expansion.total)
    samples._check_grid(U)
    contrib = np.vstack([samples.vertical_shift(expansion.terms[margin.term].values)
                         for margin in MARGINS.values()])
    ok = ~np.isnan(contrib).any(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        observed = samples.vertical_shift(np.log(V.values))
    months = samples.down_index
    return ShiftDecomposition(
        months=months[ok], u=samples.at_down(U.values)[ok],
        observed=observed[ok], contributions=dict(zip(MARGINS, contrib[:, ok])),
        dropped_months=np.concatenate([samples.dropped_months, months[~ok]]))


def counterfactual_vacancies(
    panel: TwoStatePanel | ThreeStatePanel, sigma: MonthlySeries,
    point: ApproximationPoint, subsets: Iterable[Iterable[str]],
) -> dict[frozenset[str], np.ndarray]:
    """The vacancy identity with each subset of margins held: one vacancy
    path on the panel's calendar grid per subset, keyed by the subset as a
    frozenset.

    The identity's inputs are the panel's S, N_tilde and x, their next-month
    changes dS' and dN_tilde', and sigma; a held margin fixes its inputs
    (`MARGINS`) at the point's values.  Holding nothing gives the identity
    on the data, missing at the last month (no successor); holding every
    margin gives the steady-state curve at the panel's S.  A month is
    missing where an input is, or where the identity's numerator is
    nonpositive (an infeasible counterfactual).
    """
    S, N_tilde, x = panel.S, panel.N_tilde, panel.x
    require_aligned(S, N_tilde, x, sigma)
    observed = {"S": S.values, "N_tilde": N_tilde.values, "x": x.values,
                "dS_next": delta(S).values, "dN_next": delta(N_tilde).values,
                "sigma": sigma.values}
    at_point = {"dS_next": 0.0, "dN_next": 0.0, "x": point.x_0,
                "sigma": point.sigma_0}
    paths = {}
    for subset in subsets:
        held = frozenset(subset)
        if not held <= MARGINS.keys():
            raise ValueError(f"unknown margins {sorted(held - MARGINS.keys())}; "
                             f"the margins are {list(MARGINS)}")
        inputs = {**observed, **{name: at_point[name]
                                 for margin in held for name in MARGINS[margin].inputs}}
        paths[held] = _vacancy_identity(**inputs, alpha=point.alpha)
    return paths


@dataclass(frozen=True)
class OrderingRow:
    ordering: tuple[str, ...]
    percent: dict[str, float]  # per margin, in `MARGINS` order


@dataclass(frozen=True)
class OrderingTable:
    """Percent contributions for every ordering of the margins."""

    rows: tuple[OrderingRow, ...]
    average_observed_shift: float
    n_pairs: int
    dropped_months: np.ndarray  # grid indices: the swing's, then the infeasible


def all_orderings_report(
    panel: TwoStatePanel | ThreeStatePanel, V: MonthlySeries, sigma: MonthlySeries,
    samples: SwingSamples, point: ApproximationPoint,
) -> OrderingTable:
    """Exact (nonlinear) decomposition for every ordering of the margins.

    Starting from the steady-state curve, margins are set to their observed
    values in each order; a margin's contribution is the resulting change in
    the up-down vacancy-level shift, averaged over matched points and
    reported as a percent of the averaged observed shift.  The shifts come
    from `counterfactual_vacancies`, one per proper subset of held margins.
    Holding every margin gives the steady-state curve, a function of S
    alone when N_tilde = 0, so its shift at matched unemployment is zero by
    construction: the panel and the point must have no non-searchers.
    Matched pairs infeasible under any held subset are dropped (the same
    pairs in every ordering) and reported.
    """
    require_aligned(panel.S, V)
    samples._check_grid(panel.S)
    if point.N_tilde_0 != 0.0:
        raise ValueError(f"two-state point needs N_tilde_0 = 0, got {point.N_tilde_0}")
    _reject_first(panel.N_tilde.values != 0.0, panel.S.start,
                  "two-state panel needs N_tilde = 0, got {value} at {month}",
                  panel.N_tilde.values)
    subsets = [held for k in range(len(MARGINS)) for held in combinations(MARGINS, k)]
    shifts = {held: samples.vertical_shift(v) for held, v in
              counterfactual_vacancies(panel, sigma, point, subsets).items()}
    shifts[frozenset(MARGINS)] = np.zeros(len(samples.down_index))
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
                                percent={margin: percent[margin] for margin in MARGINS}))
    return OrderingTable(
        rows=tuple(rows),
        average_observed_shift=denom,
        n_pairs=int(mask.sum()),
        dropped_months=np.concatenate([samples.dropped_months,
                                       samples.down_index[~mask]]),
    )

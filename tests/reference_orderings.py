"""The ordering table and the exact identity with the three margins spelled
out one by one, the reference that the tests hold the generic loop over
`MARGINS` (`all_orderings_report`, `counterfactual_vacancies`) to.

`all_orderings_report` here takes the two-state series (U, V, s) and the
efficiency path sigma, an array, and holds each margin at a grid-length
constant: dynamics at dU = 0,
separations at x_0 and matching at sigma_0.  `exact_vacancies` is the
identity month by month on those inputs, with an InfeasibleMonthWarning
naming the months whose inputs are all observed but whose numerator is
nonpositive.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from beveridge_accounting import (MARGIN_DYNAMICS, MARGIN_MATCHING, MARGIN_SEPARATIONS,
                                  MARGINS, delta, require_aligned)
from beveridge_accounting.curve import _vacancy_identity
from beveridge_accounting.shift_decomposition import (AllPairsInfeasibleError,
                                                      IdentityMismatchWarning)


class InfeasibleMonthWarning(UserWarning):
    """The vacancy identity had a nonpositive numerator in some months."""


def _exact_vacancies(S, N_tilde, x, sigma, alpha):
    """The identity month by month, as an array; the last month is missing.
    Months whose inputs are all observed but whose numerator is nonpositive
    are missing too, and named in an InfeasibleMonthWarning."""
    require_aligned(S, N_tilde, x)
    ds, dnt = delta(S.values), delta(N_tilde.values)
    out = _vacancy_identity(S.values, N_tilde.values, x.values, ds, dnt, sigma, alpha)
    inputs = (S.values, N_tilde.values, x.values, ds, dnt, sigma)
    infeasible = ~np.isnan(np.vstack(inputs)).any(axis=0) & np.isnan(out)
    if infeasible.any():
        months = ", ".join(str(S.start.shift(int(t)))
                           for t in np.flatnonzero(infeasible))
        warnings.warn(f"infeasible counterfactual (nonpositive numerator) "
                      f"at {months}", InfeasibleMonthWarning, stacklevel=3)
    return out


def exact_vacancies(U, s, sigma, alpha) -> np.ndarray:
    """Exact vacancy identity month by month: the three-state identity at
    N_tilde = 0, S = U, x = s.  The last month is missing."""
    return _exact_vacancies(U, U.with_values(np.zeros(len(U))), s, sigma, alpha)


@dataclass(frozen=True)
class OrderingRow:
    ordering: tuple[str, str, str]
    dynamics_pct: float
    separations_pct: float
    matching_pct: float


@dataclass(frozen=True)
class OrderingTable:
    rows: tuple[OrderingRow, ...]
    average_observed_shift: float
    n_pairs: int
    dropped_months: np.ndarray  # grid indices


def all_orderings_report(U, V, s, sigma, samples, point) -> OrderingTable:
    """Exact (nonlinear) decomposition for every ordering of the three
    margins, each held at the point's constant in turn."""
    require_aligned(U, V, s)
    if point.N_tilde_0 != 0.0:
        raise ValueError(f"two-state point needs N_tilde_0 = 0, got {point.N_tilde_0}")
    n = len(U)
    observed = {MARGIN_DYNAMICS: delta(U.values), MARGIN_SEPARATIONS: s.values,
                MARGIN_MATCHING: sigma}
    constant = {MARGIN_DYNAMICS: np.zeros(n),
                MARGIN_SEPARATIONS: np.full(n, point.x_0),
                MARGIN_MATCHING: np.full(n, point.sigma_0)}
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
        dropped_months=np.concatenate([samples.dropped_months,
                                       samples.down_index[~mask]]),
    )

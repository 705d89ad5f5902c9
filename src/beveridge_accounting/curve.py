"""The Beveridge-curve core: the exact vacancy identity, the expansion
point, log-linearization with shifter terms, and the slope, for both models.

The exact identity inverts the matching function and the law of motion to
give the vacancy rate consistent with the observed stocks, the separation
probability, and matching efficiency.  In the three-state model, with
effective searchers S, the non-searcher pool N_tilde and the total
separation probability x = eu + en,

    V_t = [ ((1 - S_t - N_tilde_t) x_t - dS_{t+1} - dN_tilde_{t+1})
            / (sigma_t S_t^(1-alpha)) ]^(1/alpha)

The two-state model is the case N_tilde = 0, S = U, x = s:

    V_t = [ (s_t (1 - U_t) - dU_{t+1}) / (sigma_t U_t^(1-alpha)) ]^(1/alpha)

so both are computed by one kernel (`_vacancy_identity`).  A `TwoStatePanel`
carries S = U, N_tilde = 0 and x = s, so the models also share one
expansion point (`ApproximationPoint`, with N_tilde_0 = 0 in two states),
one first-order expansion (`three_state_loglinear`, on either panel) and
one normalisation of its terms (`shifter_paths`).  With s_t taken from the
data and sigma_t chosen to fit the matching function, the identity
reproduces observed vacancies exactly.  The identity on a panel, with any
set of margins held at the point, is
`shift_decomposition.counterfactual_vacancies`: holding none gives the
identity on the data, holding all (x, sigma at the point, dS = 0) the
steady-state curve.  First-order expansion around the point splits log
vacancies into a slope term plus additive shifters (dynamics, separations,
matching efficiency, and in three states the non-searcher pool).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flows_three_state import ThreeStatePanel
from .flows_two_state import TwoStatePanel
from .series import (MonthDate, MonthlySeries, _reject_first, delta_log,
                     require_aligned)


# ---------------------------------------------------------------------------
# Approximation points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationPoint:
    """Expansion point (S_0, N_tilde_0, x_0, sigma_0, alpha) with
    dS = dN_tilde = 0, for either model: the two-state point has
    N_tilde_0 = 0, S_0 = U_bar and x_0 = s_bar.

    V_0 is implied: the exact identity evaluated at the point.
    """

    S_0: float
    N_tilde_0: float
    x_0: float
    sigma_0: float
    alpha: float
    V_0: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.S_0 < 1.0:
            raise ValueError(f"S_0 must be in (0, 1), got {self.S_0}")
        if not 0.0 <= self.N_tilde_0 < 1.0:
            raise ValueError(f"N_tilde_0 must be in [0, 1), got {self.N_tilde_0}")
        if self.S_0 + self.N_tilde_0 >= 1.0:
            raise ValueError("searchers plus non-searchers must leave room "
                             "for employment")
        for name in ("x_0", "sigma_0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        # the identity at the point; it overflows to inf or underflows to 0
        # at extreme points, whose logs the expansion needs
        with np.errstate(over="ignore"):
            v = float(_vacancy_identity(self.S_0, self.N_tilde_0, self.x_0, 0.0, 0.0,
                                        self.sigma_0, self.alpha))
        if not 0.0 < v < math.inf:
            raise ValueError(f"implied V_0 must be positive and finite, got {v}")
        object.__setattr__(self, "V_0", v)

    @classmethod
    def from_panel(cls, panel: TwoStatePanel | ThreeStatePanel, sigma: MonthlySeries,
                   alpha: float, window: tuple[MonthDate, MonthDate]) -> ApproximationPoint:
        """Point at the sample means of either panel's S, N_tilde and x and
        of sigma over `window` (months where all four are observed)."""
        s0, n0, x0, sg0 = _window_means(window, panel.S, panel.N_tilde, panel.x,
                                        sigma)
        return cls(S_0=s0, N_tilde_0=n0, x_0=x0, sigma_0=sg0, alpha=alpha)

    @classmethod
    def from_series(cls, U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                    alpha: float, window: tuple[MonthDate, MonthDate]) -> ApproximationPoint:
        """The two-state point at the window means of U, s and sigma.  The
        benchmark's tracer times this method by name (`bench/spans.py`)."""
        u, sv, sg = _window_means(window, U, s, sigma)
        return cls(S_0=u, N_tilde_0=0.0, x_0=sv, sigma_0=sg, alpha=alpha)


# The one point class under its former three-state name, which the
# benchmark's tracer wraps methods of (`bench/spans.py`).
ThreeStateApproximationPoint = ApproximationPoint


def _window_means(window: tuple[MonthDate, MonthDate],
                  *series: MonthlySeries) -> list[float]:
    """Mean of each series over the months of `window` where all are observed."""
    require_aligned(*series)
    lo, hi = series[0].index_of(window[0]), series[0].index_of(window[1])
    cols = np.vstack([x.values[lo:hi + 1] for x in series])
    ok = ~np.isnan(cols).any(axis=0)
    if not ok.any():
        raise ValueError(f"no jointly observed months in window "
                         f"[{window[0]}, {window[1]}]")
    return [float(c[ok].mean()) for c in cols]


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------

def _vacancy_identity(S, N_tilde, x, dS_next, dN_next, sigma, alpha):
    """Vacancy rate from the inverted matching function and laws of motion;
    NaN where the numerator is nonpositive.  Two-state callers pass zero
    for N_tilde and dN_next, which leaves the arithmetic of
    ``s (1 - U) - dU`` unchanged bit for bit."""
    # array semantics keep negative**fractional at NaN even for scalar input
    numerator = np.asarray((1.0 - S - N_tilde) * x - dS_next - dN_next, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(numerator > 0.0,
                        (numerator / (sigma * S ** (1.0 - alpha))) ** (1.0 / alpha),
                        np.nan)


# ---------------------------------------------------------------------------
# Log-linearization
# ---------------------------------------------------------------------------
#
# First-order expansion of the exact identity in
# (ln S, dln S', ln N_tilde, dln N_tilde', ln x, ln sigma) around the point
# (S_0, N_tilde_0, x_0, sigma_0), with e_0 = 1 - S_0 - N_tilde_0:
#
#   ln V  =  ln V_0
#          - (S_0/(alpha e_0) + (1-alpha)/alpha) (ln S - ln S_0)   along the curve
#          - S_0/(alpha x_0 e_0) dln S'                            searcher dynamics
#          - N_tilde_0/(alpha e_0) (ln N_tilde - ln N_tilde_0)     non-searcher level
#          - N_tilde_0/(alpha x_0 e_0) dln N_tilde'                non-searcher dynamics
#          + (1/alpha) (ln x - ln x_0)                             separations
#          - (1/alpha) (ln sigma - ln sigma_0)                     matching efficiency
#
# At N_tilde_0 = 0 (S = U, x = s) the non-searcher terms vanish and this is
# the two-state expansion around (U_bar, s_bar, sigma_bar, 0).

def _expansion_coefficients(point: ApproximationPoint) -> tuple[float, ...]:
    """Coefficients on (ln S, dln S', ln N_tilde, dln N_tilde', ln x, ln sigma)."""
    a, s0, n0, x0 = point.alpha, point.S_0, point.N_tilde_0, point.x_0
    e0 = 1.0 - s0 - n0
    return (-(s0 / (a * e0) + (1.0 - a) / a),
            -s0 / (a * x0 * e0),
            -n0 / (a * e0),
            -n0 / (a * x0 * e0),
            1.0 / a,
            -1.0 / a)


def loglinear_slope(point: ApproximationPoint) -> float:
    """Slope of the log-linear curve in (ln S, ln V) space: (ln U, ln V) in
    two states."""
    return _expansion_coefficients(point)[0]


@dataclass(frozen=True)
class ThreeStateLoglinear:
    """Log vacancies from the three-state expansion, term by term.

    total = intercept ln V_0 plus the six terms (`TERMS`), exactly
    (additivity by construction).  `shifter_paths` normalises them to a
    reference month for shifter plots.
    """

    total: MonthlySeries
    searcher_level: MonthlySeries
    searcher_dynamics: MonthlySeries
    nonsearcher_level: MonthlySeries
    nonsearcher_dynamics: MonthlySeries
    separations: MonthlySeries
    matching: MonthlySeries


# The expansion's terms, in the order of its fields.  searcher_level is the
# movement along the curve; the other five shift it.
TERMS = ("searcher_level", "searcher_dynamics", "nonsearcher_level",
         "nonsearcher_dynamics", "separations", "matching")


def three_state_loglinear(panel: TwoStatePanel | ThreeStatePanel, sigma: MonthlySeries,
                          point: ApproximationPoint) -> ThreeStateLoglinear:
    """First-order expansion of the searcher-based identity, on either panel.

    Coefficients are the tangent of the identity at the point; the intercept
    ln V_0 (the expansion-point level) is included so the expression equals
    ln V_t at the point.  Each term is missing where its inputs (or the
    successor month) are missing.  When N_tilde_0 = 0 the non-searcher terms
    are zero, missing at the last month like every dynamics term; a zero
    non-searcher pool with N_tilde_0 > 0 is an error.
    """
    S, N_tilde, x = panel.S, panel.N_tilde, panel.x
    require_aligned(S, N_tilde, x, sigma)
    c_level, c_dyn, c_n_level, c_n_dyn, c_sep, c_mat = _expansion_coefficients(point)
    with np.errstate(invalid="ignore", divide="ignore"):
        searcher_level = c_level * (np.log(S.values) - np.log(point.S_0))
        searcher_dynamics = c_dyn * delta_log(S).values
        separations = c_sep * (np.log(x.values) - np.log(point.x_0))
        matching = c_mat * (np.log(sigma.values) - np.log(point.sigma_0))

    if point.N_tilde_0 > 0.0:
        _reject_first(N_tilde.values == 0.0, S.start,
                      "log of zero non-searcher pool at {month}")
        with np.errstate(invalid="ignore", divide="ignore"):
            nonsearcher_level = c_n_level * (np.log(N_tilde.values)
                                             - np.log(point.N_tilde_0))
            nonsearcher_dynamics = c_n_dyn * delta_log(N_tilde).values
    else:
        nonsearcher_level = np.zeros(len(S))
        nonsearcher_dynamics = np.zeros(len(S))
        nonsearcher_dynamics[-1] = np.nan

    total = (np.log(point.V_0) + searcher_level + searcher_dynamics
             + nonsearcher_level + nonsearcher_dynamics + separations + matching)
    mk = S.with_values
    return ThreeStateLoglinear(
        total=mk(total),
        searcher_level=mk(searcher_level),
        searcher_dynamics=mk(searcher_dynamics),
        nonsearcher_level=mk(nonsearcher_level),
        nonsearcher_dynamics=mk(nonsearcher_dynamics),
        separations=mk(separations),
        matching=mk(matching),
    )


def shifter_paths(expansion: ThreeStateLoglinear, reference_month: MonthDate,
                  terms: tuple[str, ...] = TERMS) -> dict[str, MonthlySeries]:
    """The expansion's `terms`, each shifted to zero at the reference month,
    plus `net`, the sum of those shifted terms that shift the curve (all but
    searcher_level).  `shift_decomposition.MARGINS` names the two-state
    shifters' terms.
    """
    if not set(terms) <= set(TERMS) or set(terms) <= {"searcher_level"}:
        raise ValueError(f"terms must name at least one shifter of {TERMS}, "
                         f"got {terms}")
    ref = expansion.total.index_of(reference_month)
    values = {name: getattr(expansion, name).values for name in terms}
    if any(np.isnan(v[ref]) for v in values.values()):
        raise ValueError(f"shifters undefined at reference month {reference_month}")
    values = {name: v - v[ref] for name, v in values.items()}
    shifts = [v for name, v in values.items() if name != "searcher_level"]
    values["net"] = sum(shifts[1:], shifts[0])
    return {name: expansion.total.with_values(v) for name, v in values.items()}

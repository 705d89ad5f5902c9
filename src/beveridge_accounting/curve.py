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
matching efficiency, and in three states the non-searcher pool), each
term and its coefficient keyed by its name in `TERMS`.  Only the point's
window means select months; the rest is array code that broadcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flows_three_state import ThreeStatePanel
from .flows_two_state import TwoStatePanel
from .series import (DataError, MonthDate, MonthlySeries, _reject_first, delta_log,
                     require_aligned)


# ---------------------------------------------------------------------------
# Approximation points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationPoint:
    """Expansion point (S_0, N_tilde_0, x_0, sigma_0, alpha) with
    dS = dN_tilde = 0, for either model: the two-state point has
    N_tilde_0 = 0, S_0 = U_bar and x_0 = s_bar.

    V_0 is implied: the exact identity evaluated at the point.  A point
    that window means or flags can give is refused with a DataError, an
    alpha outside (0, 1) with a ValueError.
    """

    S_0: float
    N_tilde_0: float
    x_0: float
    sigma_0: float
    alpha: float
    V_0: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.S_0 < 1.0:
            raise DataError(f"S_0 must be in (0, 1), got {self.S_0}")
        if not 0.0 <= self.N_tilde_0 < 1.0:
            raise DataError(f"N_tilde_0 must be in [0, 1), got {self.N_tilde_0}")
        if self.S_0 + self.N_tilde_0 >= 1.0:
            raise DataError("searchers plus non-searchers must leave room "
                            "for employment")
        for name in ("x_0", "sigma_0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DataError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        # inf or 0 at extreme points, whose logs the expansion would need
        v = float(_vacancy_identity(self.S_0, self.N_tilde_0, self.x_0, 0.0, 0.0,
                                    self.sigma_0, self.alpha))
        if not 0.0 < v < math.inf:
            raise DataError(f"implied V_0 must be positive and finite, got {v}")
        object.__setattr__(self, "V_0", v)

    @classmethod
    def from_panel(cls, panel: TwoStatePanel | ThreeStatePanel, sigma: np.ndarray,
                   alpha: float, window: tuple[MonthDate, MonthDate]) -> ApproximationPoint:
        """Point at the sample means of either panel's S, N_tilde and x and
        of the array sigma over `window` (months where all four are observed)."""
        s0, n0, x0, sg0 = _window_means(window, sigma, panel.S, panel.N_tilde, panel.x)
        return cls(S_0=s0, N_tilde_0=n0, x_0=x0, sigma_0=sg0, alpha=alpha)

    @classmethod
    def from_series(cls, U: MonthlySeries, s: MonthlySeries, sigma: np.ndarray,
                    alpha: float, window: tuple[MonthDate, MonthDate]) -> ApproximationPoint:
        """The two-state point at the window means of U, s and the array
        sigma.  The benchmark's tracer times it by name (`bench/spans.py`)."""
        u, sv, sg = _window_means(window, sigma, U, s)
        return cls(S_0=u, N_tilde_0=0.0, x_0=sv, sigma_0=sg, alpha=alpha)


# The one point class under its former three-state name, which the
# benchmark's tracer wraps methods of (`bench/spans.py`).
ThreeStateApproximationPoint = ApproximationPoint


def _window_means(window: tuple[MonthDate, MonthDate], sigma: np.ndarray,
                  *series: MonthlySeries) -> list[float]:
    """Mean of each series, then of sigma, over the months of `window` where
    all are observed."""
    require_aligned(*series)
    if np.shape(sigma) != series[0].values.shape:
        raise ValueError(f"sigma is not on the series' calendar grid: {np.shape(sigma)}")
    lo, hi = series[0].index_of(window[0]), series[0].index_of(window[1])
    cols = np.vstack([*(x.values[lo:hi + 1] for x in series), sigma[lo:hi + 1]])
    ok = ~np.isnan(cols).any(axis=0)
    if not ok.any():
        raise DataError(f"no jointly observed months in window "
                        f"[{window[0]}, {window[1]}]")
    return [float(c[ok].mean()) for c in cols]


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------

def _vacancy_identity(S, N_tilde, x, dS_next, dN_next, sigma, alpha):
    """Vacancy rate from the inverted matching function and laws of motion;
    NaN where the numerator is nonpositive, inf where the rate overflows.
    Two-state callers pass zero for N_tilde and dN_next, which leaves the
    arithmetic of ``s (1 - U) - dU`` unchanged bit for bit."""
    # array semantics keep negative**fractional at NaN even for scalar input
    numerator = np.asarray((1.0 - S - N_tilde) * x - dS_next - dN_next, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
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

# The expansion's terms, in the order they are summed.  searcher_level is
# the movement along the curve; the other five shift it.
TERMS = ("searcher_level", "searcher_dynamics", "nonsearcher_level",
         "nonsearcher_dynamics", "separations", "matching")


def _expansion_coefficients(point: ApproximationPoint) -> dict[str, float]:
    """Each term's coefficient, by name (`TERMS`), on its input: ln S,
    dln S', ln N_tilde, dln N_tilde', ln x and ln sigma."""
    a, s0, n0, x0 = point.alpha, point.S_0, point.N_tilde_0, point.x_0
    e0 = 1.0 - s0 - n0
    return {"searcher_level": -(s0 / (a * e0) + (1.0 - a) / a),
            "searcher_dynamics": -s0 / (a * x0 * e0),
            "nonsearcher_level": -n0 / (a * e0),
            "nonsearcher_dynamics": -n0 / (a * x0 * e0),
            "separations": 1.0 / a,
            "matching": -1.0 / a}


def loglinear_slope(point: ApproximationPoint) -> float:
    """Slope of the log-linear curve in (ln S, ln V) space: (ln U, ln V) in
    two states."""
    return _expansion_coefficients(point)["searcher_level"]


@dataclass(frozen=True)
class ThreeStateLoglinear:
    """Log vacancies from the three-state expansion, term by term.

    total = intercept ln V_0 plus the six `terms`, keyed by `TERMS` in its
    order, exactly (additivity by construction), each an array shaped by
    its inputs.  `shifter_paths` normalises them to a reference month.
    """

    total: np.ndarray
    terms: dict[str, np.ndarray]


def three_state_loglinear(panel: TwoStatePanel | ThreeStatePanel, sigma: np.ndarray,
                          point: ApproximationPoint) -> ThreeStateLoglinear:
    """First-order expansion of the searcher-based identity, on either panel.

    Coefficients are the tangent of the identity at the point; the intercept
    ln V_0 (the expansion-point level) is included so the expression equals
    ln V_t at the point.  Each term is missing where its inputs (or the
    successor month) are missing.  When N_tilde_0 = 0 the non-searcher terms
    are zero, missing at the last month like every dynamics term; a zero
    non-searcher pool with N_tilde_0 > 0, or an infinite term or total, is
    a DataError naming its month.
    """
    S, N_tilde, x = panel.S.values, panel.N_tilde.values, panel.x.values
    # each term's input: a log gap from the point or a log change ahead
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = {"searcher_level": np.log(S) - np.log(point.S_0),
                "searcher_dynamics": delta_log(S),
                "separations": np.log(x) - np.log(point.x_0),
                "matching": np.log(sigma) - np.log(point.sigma_0)}
        if point.N_tilde_0 > 0.0:
            _reject_first(N_tilde == 0.0, panel.S.start,
                          "log of zero non-searcher pool at {month}")
            gaps["nonsearcher_level"] = np.log(N_tilde) - np.log(point.N_tilde_0)
            gaps["nonsearcher_dynamics"] = delta_log(N_tilde)
    # with no non-searchers at the point, their terms are exact zeros (not
    # -0.0 times a log), and the dynamics term is missing at the last month
    n = S.shape[-1]
    absent = {"nonsearcher_level": np.zeros(n),
              "nonsearcher_dynamics": np.where(np.arange(n) < n - 1, 0.0, np.nan)}
    coefficients = _expansion_coefficients(point)
    terms = {name: coefficients[name] * gaps[name] if name in gaps else absent[name]
             for name in TERMS}

    total = sum(terms.values(), np.log(point.V_0))
    for name, values in (*terms.items(), ("total", total)):
        _reject_first(np.isinf(values), panel.S.start,
                      f"infinite log-linear {name} at {{month}}: {{value!r}}", values)
    return ThreeStateLoglinear(total=total, terms=terms)


def shifter_paths(expansion: ThreeStateLoglinear, reference: int,
                  terms: tuple[str, ...] = TERMS, *,
                  start: MonthDate) -> dict[str, np.ndarray]:
    """The expansion's `terms`, each shifted to zero at the grid index
    `reference` (month `start` is index 0), plus `net`, the sum of those
    shifted terms that shift the curve (all but searcher_level).
    `shift_decomposition.MARGINS` names the two-state shifters' terms.
    """
    if not set(terms) <= set(TERMS) or set(terms) <= {"searcher_level"}:
        raise ValueError(f"terms must name at least one shifter of {TERMS}, "
                         f"got {terms}")
    n = expansion.total.shape[-1]
    if not 0 <= reference < n:  # a month may not exist there: name the index
        raise KeyError(f"grid index {reference} outside series coverage "
                       f"[{start}, {start.shift(n - 1)}]")
    values = {name: expansion.terms[name] for name in terms}
    if any(np.isnan(v[..., reference]).any() for v in values.values()):
        raise DataError(f"shifters undefined at reference month "
                        f"{start.shift(reference)}")
    values = {name: v - v[..., reference, None] for name, v in values.items()}
    shifts = [v for name, v in values.items() if name != "searcher_level"]
    values["net"] = sum(shifts[1:], shifts[0])
    return values

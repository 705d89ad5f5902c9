"""The Beveridge-curve core: exact vacancy identity, steady-state curve,
log-linearization with shifter terms, slope, and the three-state analogues.

The exact identity inverts the matching function and the law of motion to
give the vacancy rate consistent with the observed stocks, the separation
probability, and matching efficiency.  In the three-state model, with
effective searchers S, the non-searcher pool N_tilde and the total
separation probability x = eu + en,

    V_t = [ ((1 - S_t - N_tilde_t) x_t - dS_{t+1} - dN_tilde_{t+1})
            / (sigma_t S_t^(1-alpha)) ]^(1/alpha)

The two-state model is the case N_tilde = 0, S = U, x = s:

    V_t = [ (s_t (1 - U_t) - dU_{t+1}) / (sigma_t U_t^(1-alpha)) ]^(1/alpha)

so both are computed by one kernel, and both log-linearizations by one
first-order expansion.  With s_t taken from the data and sigma_t chosen to
fit the matching function, the identity reproduces observed vacancies
exactly.  Freezing s, sigma and setting dU = 0 gives the steady-state curve;
first-order expansion around a reference point splits log vacancies into a
slope term plus additive shifters (dynamics, separations, matching
efficiency, and in three states the non-searcher pool).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .flows_three_state import ThreeStatePanel
from .series import MonthDate, MonthlySeries, delta, delta_log, require_aligned


class InfeasibleMonthWarning(UserWarning):
    """The vacancy identity had a nonpositive numerator in some months.

    Those months are reported as missing; counterfactual exercises
    legitimately visit infeasible regions, so the run continues.
    """


# ---------------------------------------------------------------------------
# Approximation points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationPoint:
    """Expansion point (U_bar, s_bar, sigma_bar, alpha) with dU = 0.

    V_bar is implied: the exact identity evaluated at the point.
    """

    U_bar: float
    s_bar: float
    sigma_bar: float
    alpha: float
    V_bar: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.U_bar < 1.0:
            raise ValueError(f"U_bar must be in (0, 1), got {self.U_bar}")
        if not 0.0 < self.s_bar < 1.0:
            raise ValueError(f"s_bar must be in (0, 1), got {self.s_bar}")
        if self.sigma_bar <= 0.0:
            raise ValueError(f"sigma_bar must be positive, got {self.sigma_bar}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        v = _vacancy_identity(self.U_bar, 0.0, self.s_bar, 0.0, 0.0,
                              self.sigma_bar, self.alpha)
        object.__setattr__(self, "V_bar", float(v))

    @classmethod
    def from_series(cls, U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                    alpha: float, window: tuple[MonthDate, MonthDate]) -> "ApproximationPoint":
        """Point at the sample means over `window` (months where all three
        series are observed)."""
        require_aligned(U, s, sigma)
        lo, hi = U.index_of(window[0]), U.index_of(window[1])
        u, sv, sg = (x.values[lo:hi + 1] for x in (U, s, sigma))
        ok = ~np.isnan(u) & ~np.isnan(sv) & ~np.isnan(sg)
        if not ok.any():
            raise ValueError(f"no jointly observed months in window "
                             f"[{window[0]}, {window[1]}]")
        return cls(U_bar=float(u[ok].mean()), s_bar=float(sv[ok].mean()),
                   sigma_bar=float(sg[ok].mean()), alpha=alpha)


@dataclass(frozen=True)
class ThreeStateApproximationPoint:
    """Three-state expansion point (S_0, N_tilde_0, x_0, sigma_0, alpha)."""

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
        if self.x_0 <= 0.0 or self.sigma_0 <= 0.0:
            raise ValueError("x_0 and sigma_0 must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        v = _vacancy_identity(self.S_0, self.N_tilde_0, self.x_0, 0.0, 0.0,
                              self.sigma_0, self.alpha)
        object.__setattr__(self, "V_0", float(v))

    @classmethod
    def from_panel(cls, panel: ThreeStatePanel, sigma: MonthlySeries, alpha: float,
                   window: tuple[MonthDate, MonthDate]) -> "ThreeStateApproximationPoint":
        if not panel.has_aggregates():
            raise ValueError("panel lacks searcher aggregates; run derive_aggregates")
        require_aligned(panel.S, sigma)
        lo, hi = panel.S.index_of(window[0]), panel.S.index_of(window[1])
        cols = [x.values[lo:hi + 1]
                for x in (panel.S, panel.N_tilde, panel.x, sigma)]
        ok = ~np.isnan(np.vstack(cols)).any(axis=0)
        if not ok.any():
            raise ValueError(f"no jointly observed months in window "
                             f"[{window[0]}, {window[1]}]")
        s0, n0, x0, sg0 = (float(c[ok].mean()) for c in cols)
        return cls(S_0=s0, N_tilde_0=n0, x_0=x0, sigma_0=sg0, alpha=alpha)


def _as_three_state(point: ApproximationPoint) -> ThreeStateApproximationPoint:
    """The two-state point as the three-state point with no non-searchers."""
    return ThreeStateApproximationPoint(S_0=point.U_bar, N_tilde_0=0.0,
                                        x_0=point.s_bar, sigma_0=point.sigma_bar,
                                        alpha=point.alpha)


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


def _warn_infeasible(start: MonthDate, vacancies: np.ndarray,
                     *inputs: np.ndarray) -> None:
    """InfeasibleMonthWarning naming the months whose inputs are all
    observed but whose vacancy identity is missing."""
    observed = ~np.isnan(np.vstack(inputs)).any(axis=0)
    infeasible = observed & np.isnan(vacancies)
    if infeasible.any():
        months = ", ".join(str(start.shift(int(t))) for t in np.flatnonzero(infeasible))
        warnings.warn(f"infeasible counterfactual (nonpositive numerator) "
                      f"at {months}", InfeasibleMonthWarning, stacklevel=3)


def exact_vacancies(U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                    alpha: float, warn: bool = True) -> MonthlySeries:
    """Exact vacancy identity month by month; the last month is missing.

    Months with a nonpositive numerator are marked missing (and flagged with
    InfeasibleMonthWarning when `warn`); all other months are computed.
    """
    require_aligned(U, s, sigma)
    du_next = delta(U).values
    out = _vacancy_identity(U.values, 0.0, s.values, du_next, 0.0, sigma.values, alpha)
    if warn:
        _warn_infeasible(U.start, out, U.values, s.values, du_next, sigma.values)
    return U.with_values(out)


def steady_state_curve(u_grid, point: ApproximationPoint) -> list[tuple[float, float]]:
    """The steady-state locus V(U) at the point's (s_bar, sigma_bar, alpha)."""
    out = []
    for u in np.asarray(u_grid, dtype=float):
        if not 0.0 < u < 1.0:
            raise ValueError(f"grid value {u} outside (0, 1)")
        v = _vacancy_identity(u, 0.0, point.s_bar, 0.0, 0.0, point.sigma_bar,
                              point.alpha)
        out.append((float(u), float(v)))
    return out


def three_state_exact_vacancies(panel: ThreeStatePanel, alpha: float,
                                sigma: MonthlySeries,
                                warn: bool = True) -> MonthlySeries:
    """Searcher-based exact vacancy identity:

        V_t = [ ((1-S-N_tilde) x - dS' - dN_tilde') / (sigma S^(1-alpha)) ]^(1/alpha)
    """
    if not panel.has_aggregates():
        raise ValueError("panel lacks searcher aggregates; run derive_aggregates")
    S, Nt, x = panel.S, panel.N_tilde, panel.x
    require_aligned(S, Nt, x, sigma)
    ds, dnt = delta(S).values, delta(Nt).values
    out = _vacancy_identity(S.values, Nt.values, x.values, ds, dnt, sigma.values, alpha)
    if warn:
        _warn_infeasible(S.start, out, S.values, Nt.values, x.values, ds, dnt,
                         sigma.values)
    return S.with_values(out)


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

def _expansion_coefficients(point: ThreeStateApproximationPoint) -> tuple[float, ...]:
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
    """Slope of the log-linear curve in (ln U, ln V) space."""
    return _expansion_coefficients(_as_three_state(point))[0]


def dynamics_coefficient(point: ApproximationPoint) -> float:
    """Coefficient on the month-ahead change in log unemployment."""
    return _expansion_coefficients(_as_three_state(point))[1]


def separations_coefficient(point: ApproximationPoint) -> float:
    """Coefficient on the log separation-probability deviation."""
    return _expansion_coefficients(_as_three_state(point))[4]


def matching_coefficient(point: ApproximationPoint) -> float:
    """Coefficient on the log matching-efficiency deviation."""
    return _expansion_coefficients(_as_three_state(point))[5]


@dataclass(frozen=True)
class ThreeStateLoglinear:
    """Log vacancies from the three-state expansion, term by term.

    total = intercept ln V_0 plus the six terms, exactly (additivity by
    construction).  Terms are suitable for shifter plots after
    normalization to a reference month.
    """

    total: MonthlySeries
    searcher_level: MonthlySeries
    searcher_dynamics: MonthlySeries
    nonsearcher_level: MonthlySeries
    nonsearcher_dynamics: MonthlySeries
    separations: MonthlySeries
    matching: MonthlySeries

    def terms(self) -> dict[str, MonthlySeries]:
        return {
            "searcher_level": self.searcher_level,
            "searcher_dynamics": self.searcher_dynamics,
            "nonsearcher_level": self.nonsearcher_level,
            "nonsearcher_dynamics": self.nonsearcher_dynamics,
            "separations": self.separations,
            "matching": self.matching,
        }


def _loglinear_expansion(S: MonthlySeries, N_tilde: MonthlySeries, x: MonthlySeries,
                         sigma: MonthlySeries,
                         point: ThreeStateApproximationPoint) -> ThreeStateLoglinear:
    """The expansion above, term by term; each term is missing where its
    inputs (or the successor month) are missing."""
    require_aligned(S, N_tilde, x, sigma)
    c_level, c_dyn, c_n_level, c_n_dyn, c_sep, c_mat = _expansion_coefficients(point)
    with np.errstate(invalid="ignore", divide="ignore"):
        searcher_level = c_level * (np.log(S.values) - np.log(point.S_0))
        searcher_dynamics = c_dyn * delta_log(S).values
        separations = c_sep * (np.log(x.values) - np.log(point.x_0))
        matching = c_mat * (np.log(sigma.values) - np.log(point.sigma_0))

    if point.N_tilde_0 > 0.0:
        zero = N_tilde.values == 0.0
        if zero.any():
            t = int(np.flatnonzero(zero)[0])
            raise ValueError(f"log of zero non-searcher pool at {S.start.shift(t)}")
        with np.errstate(invalid="ignore", divide="ignore"):
            nonsearcher_level = c_n_level * (np.log(N_tilde.values)
                                             - np.log(point.N_tilde_0))
            nonsearcher_dynamics = c_n_dyn * delta_log(N_tilde).values
    else:
        nonsearcher_level = np.zeros(len(S))
        nonsearcher_dynamics = np.zeros(len(S))
        # dynamics must still be missing at the last month, like every term
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


def _two_state_expansion(U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                         point: ApproximationPoint) -> ThreeStateLoglinear:
    """The expansion at N_tilde = 0, S = U, x = s."""
    return _loglinear_expansion(U, U.with_values(np.zeros(len(U))), s, sigma,
                                _as_three_state(point))


def loglinear_vacancies(U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                        point: ApproximationPoint) -> MonthlySeries:
    """Log vacancy rate from the first-order expansion; missing where any
    input (or the successor month) is missing."""
    return _two_state_expansion(U, s, sigma, point).total


@dataclass(frozen=True)
class ShifterPath:
    """The three shifter terms, normalized to zero at the reference month."""

    dynamics: MonthlySeries
    separations: MonthlySeries
    matching: MonthlySeries
    net: MonthlySeries
    reference_month: MonthDate

    def __post_init__(self) -> None:
        require_aligned(self.dynamics, self.separations, self.matching, self.net)


def shifter_paths(U: MonthlySeries, s: MonthlySeries, sigma: MonthlySeries,
                  point: ApproximationPoint,
                  reference_month: MonthDate) -> ShifterPath:
    """Time paths of the three shifters, each zero at the reference month."""
    terms = _two_state_expansion(U, s, sigma, point)
    dyn, sep, mat = (terms.searcher_dynamics.values, terms.separations.values,
                     terms.matching.values)
    ref = U.index_of(reference_month)
    refs = (dyn[ref], sep[ref], mat[ref])
    if any(np.isnan(r) for r in refs):
        raise ValueError(f"shifters undefined at reference month {reference_month}")
    dyn, sep, mat = dyn - refs[0], sep - refs[1], mat - refs[2]
    return ShifterPath(
        dynamics=U.with_values(dyn),
        separations=U.with_values(sep),
        matching=U.with_values(mat),
        net=U.with_values(dyn + sep + mat),
        reference_month=reference_month,
    )


def three_state_loglinear(panel: ThreeStatePanel, sigma: MonthlySeries,
                          point: ThreeStateApproximationPoint) -> ThreeStateLoglinear:
    """First-order expansion of the searcher-based identity.

    Coefficients are the tangent of the identity at the point; the intercept
    ln V_0 (the expansion-point level) is included so the expression equals
    ln V_t at the point.  When N_tilde_0 = 0 the non-searcher terms vanish
    identically; a zero non-searcher pool with N_tilde_0 > 0 is an error.
    """
    if not panel.has_aggregates():
        raise ValueError("panel lacks searcher aggregates; run derive_aggregates")
    return _loglinear_expansion(panel.S, panel.N_tilde, panel.x, sigma, point)


def normalize_to_reference(series: MonthlySeries, month: MonthDate) -> MonthlySeries:
    """Shift a series so its value at `month` is zero."""
    ref = series.at(month)
    if np.isnan(ref):
        raise ValueError(f"series undefined at reference month {month}")
    return series.with_values(series.values - ref)

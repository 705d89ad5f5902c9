"""Matching-function estimation and the matching-efficiency path.

The hiring technology is Cobb-Douglas in searchers and vacancies, so the log
job-finding probability is linear in log labor-market tightness:

    ln f_t = ln sigma_bar + alpha * ln(theta_t) + e_t

Ordinary least squares on that equation identifies the elasticity alpha and
average efficiency sigma_bar; the residuals identify the month-by-month
efficiency path sigma_t = f_t * theta_t^(-alpha).  Both models pass their
panel's aggregates: the finding rate `panel.f` (in three states hires per
effective searcher, H / S, which is ue) and tightness V / S (S = U in two
states), where every command reads V and refuses it outside (0, 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .series import (DataError, MonthDate, MonthlySeries, _reject_first,
                     _reject_nonshares, require_aligned)

DEFAULT_ALPHA = 0.3
# Usable months a regression of two coefficients needs
MIN_MONTHS = 3


@dataclass(frozen=True)
class MatchingEstimate:
    """OLS estimate of the matching function over one sample window."""

    alpha: float
    ln_sigma_bar: float
    se_alpha: float
    se_ln_sigma: float
    sample: tuple[MonthDate, MonthDate]
    residuals: MonthlySeries
    r_squared: float
    n_obs: int
    robust: bool = False

    @property
    def sigma_bar(self) -> float:
        return float(np.exp(self.ln_sigma_bar))

    def p_values(self) -> tuple[float, float]:
        """Two-sided p-values for (ln_sigma_bar, alpha) against zero.

        A zero standard error gives 0.0, and NaN on a zero coefficient, whose
        t is 0 / 0; a NaN coefficient or standard error gives NaN.
        """
        dof = self.n_obs - 2
        ps = []
        for coef, se in ((self.ln_sigma_bar, self.se_ln_sigma),
                         (self.alpha, self.se_alpha)):
            ps.append(_t_two_sided_p(coef / se, dof) if se != 0
                      else 0.0 if coef != 0 else math.nan)
        return ps[0], ps[1]

    def stars(self) -> tuple[str, str]:
        """Significance stars at the 10/5/1 percent two-sided levels."""
        return tuple(_stars(p) for p in self.p_values())  # type: ignore[return-value]

    def to_dict(self) -> dict:
        p_sigma, p_alpha = self.p_values()
        return {
            "ln_sigma_bar": self.ln_sigma_bar,
            "se_ln_sigma": self.se_ln_sigma,
            "p_ln_sigma": p_sigma,
            "alpha": self.alpha,
            "se_alpha": self.se_alpha,
            "p_alpha": p_alpha,
            "sigma_bar": self.sigma_bar,
            "r_squared": self.r_squared,
            "n_obs": self.n_obs,
            "sample_start": str(self.sample[0]),
            "sample_end": str(self.sample[1]),
            "robust": self.robust,
        }


def _t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for T Student-t with `dof` degrees of freedom.

    The two-sided p-value is the regularised incomplete beta I_x(dof/2, 1/2)
    at x = dof / (dof + t^2).  Where the continued fraction for I_x converges
    slowly, x >= (a+1)/(a+b+2), it is 1 - I_y(1/2, dof/2) at y = 1 - x,
    which is formed from t^2 directly.  In the tail the p-value is the
    fraction itself, never a difference from 1, so it keeps its relative
    accuracy down to the smallest normal float; below that it is 0.0.
    """
    if math.isnan(t):
        return math.nan
    z = t * t / dof
    if z == 0.0:
        return 1.0
    a, b = 0.5 * dof, 0.5
    # x^a y^b / B(a, b), with log x = -log1p(z) and log y = -log1p(1/z)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * math.log1p(z) - b * math.log1p(1.0 / z))
    x = 1.0 / (1.0 + z)
    if x < (a + 1.0) / (a + b + 2.0):
        p = front * _beta_fraction(x, a, b) / a
        return p if p >= sys.float_info.min else 0.0
    return 1.0 - front * _beta_fraction(1.0 / (1.0 + 1.0 / z), b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny, eps = 1e-300, 1e-15
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta fraction did not converge "
                          f"(x={x!r}, a={a!r}, b={b!r})")


def _stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def estimate_matching(
    f: MonthlySeries,
    tightness: MonthlySeries,
    sample: tuple[MonthDate, MonthDate] | None = None,
    robust: bool = False,
) -> MatchingEstimate:
    """Regress ln f on a constant and ln tightness over the sample window.

    Months with missing or nonpositive values are unusable and dropped;
    fewer than three usable months is a DataError, as is a regressor with
    no variance.  The fit is taken on the centered regressor, so a
    regressor with a small spread about a large mean keeps its slope.
    Standard errors are conventional homoskedastic OLS by default; `robust`
    switches to HC1 heteroskedasticity-robust errors.  R^2 is NaN where
    ln f takes one value in the window.
    """
    require_aligned(f, tightness)
    if sample is None:
        sample = (f.start, f.end)
    lo, hi = f.index_of(sample[0]), f.index_of(sample[1])
    mask = np.zeros(len(f), dtype=bool)
    mask[lo:hi + 1] = True
    fv, tv = f.values, tightness.values
    usable = mask & ~np.isnan(fv) & ~np.isnan(tv) & (fv > 0.0) & (tv > 0.0)
    n = int(usable.sum())
    if n < MIN_MONTHS:
        raise DataError(f"only {n} usable months in sample "
                        f"[{sample[0]}, {sample[1]}]; need at least {MIN_MONTHS}")

    y = np.log(fv[usable])
    x = np.log(tv[usable])
    if np.ptp(x) == 0.0:
        raise DataError("degenerate design: log tightness has zero variance")

    x_bar, y_bar = x.mean(), y.mean()
    z, y_dev = x - x_bar, y - y_bar
    s_zz = float(z @ z)
    alpha = float(z @ y_dev) / s_zz
    resid = y_dev - alpha * z
    rss = float(resid @ resid)
    # where ln f takes one value, its total sum of squares is rounding alone
    tss = float(y_dev @ y_dev) if np.ptp(y) > 0.0 else math.nan
    # ln sigma_bar and alpha are each a weighted sum of y over the months,
    # so each variance is its squared weights against the error variances
    sq_weights = np.vstack([1.0 / n - x_bar * z / s_zz, z / s_zz]) ** 2
    if robust:
        var = sq_weights @ resid ** 2 * (n / (n - 2))
    else:
        var = sq_weights.sum(axis=1) * (rss / (n - 2))
    se = np.sqrt(var)

    resid_series = np.full(len(f), np.nan)
    resid_series[usable] = resid
    return MatchingEstimate(
        alpha=alpha,
        ln_sigma_bar=float(y_bar - alpha * x_bar),
        se_alpha=float(se[1]),
        se_ln_sigma=float(se[0]),
        sample=sample,
        residuals=f.with_values(resid_series),
        r_squared=1.0 - rss / tss,
        n_obs=n,
        robust=robust,
    )


def matching_efficiency_path(f: MonthlySeries, tightness: MonthlySeries,
                             alpha: float) -> MonthlySeries:
    """Month-by-month matching efficiency sigma_t = f_t * tightness_t^(-alpha).

    Composing with the matching function returns f exactly:
    sigma_t * tightness_t^alpha = f_t.
    """
    require_aligned(f, tightness)
    fv, tv = f.values, tightness.values
    defined = ~np.isnan(fv) & ~np.isnan(tv)
    _reject_first(defined & ((fv <= 0.0) | (tv <= 0.0)), f.start, "nonpositive finding "
                  "rate or tightness at {month}; efficiency path undefined")
    with np.errstate(invalid="ignore"):
        return f.with_values(fv * tv ** (-alpha))


def tightness(searchers: MonthlySeries, V: MonthlySeries) -> MonthlySeries:
    """Vacancies per searcher, theta = V / S, for either panel's searchers S;
    DataError names the first month whose vacancy rate is outside (0, 1)."""
    require_aligned(searchers, V)
    _reject_nonshares("vacancy rate", V.values, V.start)
    _reject_first((searchers.values == 0.0) & ~np.isnan(V.values), searchers.start,
                  "zero searcher pool at {month}; tightness undefined")
    with np.errstate(invalid="ignore"):
        return searchers.with_values(V.values / searchers.values)


"""Efficient unemployment from the Beveridge tradeoff.

A planner facing an isoelastic Beveridge curve through the observed (u, v)
point equates the marginal social cost of unemployment to the social value
of the vacancies saved by letting unemployment rise.  With Beveridge
elasticity eps (the absolute log-log slope) and per-vacancy and
per-unemployed social costs, the first-order condition gives the
sufficient-statistic formula

    u* = ( eps * (vacancy_cost / unemployment_cost) * v * u^eps )^(1 / (1 + eps))

which depends on the costs only through their ratio and returns the observed
u when the observed point already satisfies the planner's condition.  A
steeper curve (larger eps) makes low unemployment costlier in vacancies and
raises u*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MonthlySeries, require_aligned

# Calibrated statistics transcribed from the sufficient-statistic welfare
# literature: recruiting cost per vacancy and net social cost per unemployed
# worker (one minus the value of nonwork), both in units of labor
# productivity, plus the two slope calibrations compared in the text.
MS_VACANCY_COST = 0.92
MS_UNEMPLOYMENT_COST = 0.74
MS_ELASTICITY = 0.9
STEEP_ELASTICITY = 2.33


@dataclass(frozen=True)
class EfficiencyCalibration:
    """Beveridge elasticity and the social costs of vacancies and unemployment."""

    beveridge_elasticity: float
    vacancy_cost: float = MS_VACANCY_COST
    unemployment_cost: float = MS_UNEMPLOYMENT_COST

    def __post_init__(self) -> None:
        if not self.beveridge_elasticity > 0.0:
            raise ValueError("beveridge_elasticity must be positive")
        if not (self.vacancy_cost > 0.0 and self.unemployment_cost > 0.0):
            raise ValueError("costs must be positive")


def ms_calibration() -> EfficiencyCalibration:
    """The flatter-curve calibration (elasticity 0.9)."""
    return EfficiencyCalibration(beveridge_elasticity=MS_ELASTICITY)


def steep_calibration() -> EfficiencyCalibration:
    """The steeper-curve calibration (elasticity 2.33, i.e. (1-alpha)/alpha
    at alpha = 0.3)."""
    return EfficiencyCalibration(beveridge_elasticity=STEEP_ELASTICITY)


def efficient_unemployment(u: MonthlySeries, v: MonthlySeries,
                           cal: EfficiencyCalibration) -> MonthlySeries:
    """Per-month efficient unemployment rate u* (the formula above)."""
    require_aligned(u, v)
    uu, vv = u.values, v.values
    defined = ~np.isnan(uu) & ~np.isnan(vv)
    if ((uu[defined] <= 0.0) | (vv[defined] <= 0.0)).any():
        raise ValueError("unemployment and vacancy rates must be positive")
    eps, cost_ratio = cal.beveridge_elasticity, cal.vacancy_cost / cal.unemployment_cost
    with np.errstate(invalid="ignore"):
        out = (eps * cost_ratio * vv * uu ** eps) ** (1.0 / (1.0 + eps))
    return u.with_values(out)


def unemployment_gap(u: MonthlySeries, u_star: MonthlySeries) -> MonthlySeries:
    """Observed minus efficient unemployment."""
    require_aligned(u, u_star)
    return u.with_values(u.values - u_star.values)

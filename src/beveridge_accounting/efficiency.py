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
raises u*.  Both functions take and give arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import DataError, MonthDate, _reject_nonshares

# Calibrated statistics transcribed from the sufficient-statistic welfare
# literature: recruiting cost per vacancy and net social cost per unemployed
# worker (one minus the value of nonwork), both in units of labor
# productivity, plus the two slope calibrations compared in the text.
MS_VACANCY_COST = 0.92
MS_UNEMPLOYMENT_COST = 0.74
MS_ELASTICITY = 0.9
STEEP_ELASTICITY = 2.33  # (1 - alpha) / alpha at alpha = 0.3


@dataclass(frozen=True)
class EfficiencyCalibration:
    """Beveridge elasticity and the social costs of vacancies and unemployment."""

    beveridge_elasticity: float
    vacancy_cost: float = MS_VACANCY_COST
    unemployment_cost: float = MS_UNEMPLOYMENT_COST

    def __post_init__(self) -> None:
        for name in ("beveridge_elasticity", "vacancy_cost", "unemployment_cost"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # u* is (scale * v u^eps)^(1 / (1 + eps)) with v u^eps <= 1 and scale
        # computed as here: an infinite or zero scale gives that u* every month
        scale = self.beveridge_elasticity * (self.vacancy_cost / self.unemployment_cost)
        if not 0.0 < scale < math.inf:  # flags within their domain can give it
            raise DataError(
                "beveridge_elasticity * (vacancy_cost / unemployment_cost) must be "
                f"positive and finite, got {self.beveridge_elasticity} * "
                f"({self.vacancy_cost} / {self.unemployment_cost}) = {scale}")


def efficient_unemployment(u: np.ndarray, v: np.ndarray, cal: EfficiencyCalibration,
                           *, start: MonthDate) -> np.ndarray:
    """Per-month efficient unemployment rate u* (the formula above)."""
    _reject_nonshares("unemployment rate", u, start)
    _reject_nonshares("vacancy rate", v, start)
    eps, cost_ratio = cal.beveridge_elasticity, cal.vacancy_cost / cal.unemployment_cost
    with np.errstate(invalid="ignore", over="ignore"):
        out = (eps * cost_ratio * v * u ** eps) ** (1.0 / (1.0 + eps))
    # in logs where the power under- or overflows, as on a steep curve
    lost, share = (out == 0.0) | (out == np.inf), 1.0 / (1.0 + eps)
    out[lost] = np.exp(share * (math.log(eps * cost_ratio) + np.log(v[lost]))
                       + eps * share * np.log(u[lost]))
    return out


def unemployment_gap(u: np.ndarray, u_star: np.ndarray) -> np.ndarray:
    """Observed minus efficient unemployment."""
    return u - u_star

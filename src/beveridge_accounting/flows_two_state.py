"""Two-state flow probabilities from observed stocks.

The monthly job-finding probability comes from short-term unemployment
(workers unemployed less than one month next month are the new inflows), and
the separation probability is then the unique value making the unemployment
law of motion hold exactly.  Both constructions are identities: feeding the
resulting (f, s, U_0) through the law of motion regenerates the observed
unemployment path to machine precision.

The two-state model is the three-state one with no non-searchers, so a
`TwoStatePanel` also carries the searcher aggregates of a `ThreeStatePanel`:
S = U, N_tilde = 0 and x = s, which every later step reads in both models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .series import MonthlySeries, _reject_first, _reject_nonshares, require_aligned


class ProbabilityRangeWarning(UserWarning):
    """A constructed flow probability landed outside [0, 1].

    Values are reported as-is (never clamped): the construction is an
    identity and clamping would break the law-of-motion round trip.
    """


@dataclass(frozen=True)
class TwoStatePanel:
    """Aligned unemployment, vacancy and short-term-unemployment shares, the
    job-finding (f) and separation (s) probabilities derived from U and
    U_short once both are checked to be shares (V is checked where it is
    read, by `tightness`), and the searcher aggregates at no non-searchers."""

    U: MonthlySeries
    V: MonthlySeries
    U_short: MonthlySeries
    f: MonthlySeries = field(init=False)
    s: MonthlySeries = field(init=False)

    def __post_init__(self) -> None:
        require_aligned(self.U, self.V, self.U_short)
        _reject_nonshares("unemployment rate", self.U.values, self.U.start)
        _reject_nonshares("short-term unemployment", self.U_short.values, self.U_short.start)
        f = job_finding_probability(self.U, self.U_short)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s", implied_separation_probability(self.U, f))
        both = ~np.isnan(self.U.values) & ~np.isnan(self.U_short.values)
        if (self.U_short.values[both] > self.U.values[both]).any():
            warnings.warn("short-term unemployment exceeds total unemployment "
                          "in some months", ProbabilityRangeWarning, stacklevel=2)

    @property
    def S(self) -> MonthlySeries:
        """Searchers: the unemployed."""
        return self.U

    @cached_property
    def N_tilde(self) -> MonthlySeries:
        """Non-searchers: none."""
        return self.U.with_values(np.zeros(len(self.U)))

    @property
    def x(self) -> MonthlySeries:
        """Separation probability: s."""
        return self.s


def job_finding_probability(U: MonthlySeries, U_short: MonthlySeries) -> MonthlySeries:
    """Monthly probability an unemployed worker finds a job by next month.

    f_t = 1 - (U_{t+1} - U_short_{t+1}) / U_t.  The last month is missing
    (no successor).  Out-of-range results are flagged, not clamped.
    """
    require_aligned(U, U_short)
    u, us = U.values, U_short.values
    out = np.full(len(u), np.nan)
    if len(u) >= 2:
        u_t = u[:-1]
        defined = ~np.isnan(u_t) & ~np.isnan(u[1:]) & ~np.isnan(us[1:])
        _reject_first(defined & (u_t == 0.0), U.start,
                      "division by zero unemployment at {month}")
        with np.errstate(invalid="ignore", over="ignore"):
            out[:-1] = 1.0 - (u[1:] - us[1:]) / u_t
    f = U.with_values(out)  # refuses an overflow before any month is flagged
    _warn_out_of_range(out, U, "job-finding probability")
    return f


def implied_separation_probability(U: MonthlySeries, f: MonthlySeries) -> MonthlySeries:
    """Separation probability making the law of motion hold exactly.

    s_t = (U_{t+1} - U_t + f_t U_t) / (1 - U_t).  Negative results indicate
    inconsistent inputs and are flagged, not clamped.
    """
    require_aligned(U, f)
    u = U.values
    out = np.full(len(u), np.nan)
    if len(u) >= 2:
        u_t = u[:-1]
        defined = ~np.isnan(u_t) & ~np.isnan(u[1:]) & ~np.isnan(f.values[:-1])
        _reject_first(defined & (u_t >= 1.0), U.start,
                      "unemployment share at or above one at {month}")
        with np.errstate(invalid="ignore"):
            out[:-1] = (u[1:] - u_t + f.values[:-1] * u_t) / (1.0 - u_t)
    _warn_out_of_range(out, U, "separation probability")
    return U.with_values(out)


def _warn_out_of_range(values: np.ndarray, grid: MonthlySeries, what: str) -> None:
    bad = ~np.isnan(values) & ((values < 0.0) | (values > 1.0))
    if bad.any():
        months = ", ".join(str(grid.start.shift(int(t))) for t in np.flatnonzero(bad))
        warnings.warn(f"{what} outside [0, 1] at {months}",
                      ProbabilityRangeWarning, stacklevel=3)


def build_two_state_panel(U: MonthlySeries, V: MonthlySeries,
                          U_short: MonthlySeries) -> TwoStatePanel:
    """Construct the full panel: derives f and s from the observed stocks."""
    return TwoStatePanel(U=U, V=V, U_short=U_short)

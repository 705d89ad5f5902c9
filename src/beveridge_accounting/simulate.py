"""Synthetic labor-market panels with planted ground truth.

Panels are generated directly from the model's law of motion and matching
function, so every pipeline stage has an exact oracle: flow construction
recovers the planted probabilities, the matching regression recovers the
planted elasticity, raking leaves planted three-state rates unchanged, and
the vacancy identities reproduce the planted vacancy path to machine
precision.  Short-term unemployment is emitted as the gross inflow
s_t * (1 - U_t), which is exactly the accounting the job-finding
construction presumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve import _vacancy_identity
from .flows_three_state import RATE_NAMES, ThreeStatePanel, _stayer_faults
from .flows_two_state import TwoStatePanel, build_two_state_panel
from .series import MonthDate, MonthlySeries, _reject_first


def _as_path(value, horizon: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(horizon, float(arr))
    if arr.shape != (horizon,):
        raise ValueError(f"{name} must be a scalar or length-{horizon} path")
    if (arr <= 0.0).any() and name in ("s_path", "sigma_path"):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def _require_calendar(start: MonthDate, horizon: int) -> None:
    """Raise ValueError unless `horizon` months from `start` all have a
    YYYY-MM date (none past 9999-12)."""
    try:
        start.shift(horizon - 1)
    except ValueError:
        raise ValueError(f"{horizon} months from {start} run past 9999-12") from None


def _require_unit_vacancies(v: np.ndarray, start: MonthDate) -> None:
    """Raise ValueError naming the first month whose planted vacancy rate
    is outside (0, 1); a missing month is not checked."""
    _reject_first((v <= 0.0) | (v >= 1.0), start,
                  "planted vacancies left (0, 1) at {month}: {value!r}", v)


@dataclass(frozen=True)
class SimulationSpec:
    """Planted two-state configuration.

    `delta_u_path` (length horizon - 1, zero by default) drives the
    dynamics: unemployment is u0 plus its running sum, and vacancies are
    chosen from the identity.  Optional lognormal noise multiplies the
    planted efficiency path so the matching regression has mean-zero log
    residuals by construction.
    """

    alpha: float
    u0: float
    horizon: int
    s_path: np.ndarray | float
    sigma_path: np.ndarray | float
    delta_u_path: np.ndarray | None = None
    noise_std: float = 0.0
    seed: int = 0
    start: MonthDate = field(default_factory=lambda: MonthDate(2000, 1))

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.u0 < 1.0:
            raise ValueError("u0 must be in (0, 1)")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 months")
        _require_calendar(self.start, self.horizon)
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std must be non-negative")


@dataclass(frozen=True)
class TwoStateSimulation:
    """Panel built through the production constructors plus planted truths."""

    panel: TwoStatePanel
    f_true: MonthlySeries
    s_true: MonthlySeries
    sigma_true: MonthlySeries
    alpha: float


def simulate_two_state(spec: SimulationSpec) -> TwoStateSimulation:
    """Generate a two-state panel consistent with the model by construction;
    ValueError names the first month where U or the planted V is invalid."""
    n = spec.horizon
    s = _as_path(spec.s_path, n, "s_path")
    sigma = _as_path(spec.sigma_path, n, "sigma_path")
    if spec.noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        sigma = sigma * np.exp(rng.normal(0.0, spec.noise_std, size=n))

    du = spec.delta_u_path
    du = np.zeros(n - 1) if du is None else np.asarray(du, dtype=float)
    if du.shape != (n - 1,):
        raise ValueError(f"delta_u_path must have length {n - 1}")
    # added in month order, as a loop would; past the first month outside
    # (0, 1) the sum may overflow, and only that month is reported
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.add.accumulate(np.append(spec.u0, du))
        outside = ~((u > 0.0) & (u < 1.0))
    _reject_first(outside, spec.start, "unemployment left (0, 1) at {month}: {value!r}",
                  u)
    du_next = np.append(du, 0.0)  # last month: steady-state continuation
    v = _vacancy_identity(u, 0.0, s, du_next, 0.0, sigma, spec.alpha)
    _reject_first(np.isnan(v), spec.start, "infeasible planted paths at {month}: "
                  "separation inflow cannot cover the unemployment change")
    f = sigma * (v / u) ** spec.alpha

    _require_unit_vacancies(v, spec.start)

    # Gross inflow into unemployment observed as short-term unemployed next
    # month; the first month has no predecessor and is missing.
    u_short = np.empty(n)
    u_short[0] = np.nan
    u_short[1:] = s[:-1] * (1.0 - u[:-1])

    mk = lambda vals: MonthlySeries(spec.start, vals)  # noqa: E731
    panel = build_two_state_panel(mk(u), mk(v), mk(u_short))
    f_true, s_true = f.copy(), s.copy()
    # constructions cannot identify the last month (no successor observed)
    f_true[-1] = np.nan
    s_true[-1] = np.nan
    return TwoStateSimulation(panel=panel, f_true=mk(f_true), s_true=mk(s_true),
                              sigma_true=mk(sigma), alpha=spec.alpha)


@dataclass(frozen=True)
class ThreeStateSimulationSpec:
    """Planted three-state configuration: initial stocks, six rate paths and
    an efficiency path; stocks evolve by the laws of motion so the rates are
    exactly stock-consistent and raking is a no-op."""

    alpha: float
    u0: float
    n0: float
    horizon: int
    rates: dict  # name -> scalar or length-horizon path, keys RATE_NAMES
    sigma_path: np.ndarray | float = 1.0
    start: MonthDate = field(default_factory=lambda: MonthDate(2000, 1))

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not (self.u0 >= 0.0 and self.n0 >= 0.0 and self.u0 + self.n0 < 1.0):
            raise ValueError("initial stocks must be nonnegative with room "
                             "for employment")
        missing = set(RATE_NAMES) - set(self.rates)
        if missing:
            raise ValueError(f"missing rate paths: {sorted(missing)}")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 months")
        _require_calendar(self.start, self.horizon)


@dataclass(frozen=True)
class ThreeStateSimulation:
    panel: ThreeStatePanel
    V: MonthlySeries
    sigma_true: MonthlySeries
    alpha: float


def _law_of_motion(u0: float, n0: float, rates: dict) -> tuple[np.ndarray, np.ndarray]:
    """U and N from (u0, n0), month t + 1 from month t's stocks and rates
    (the last month's go unused).  Python floats keep numpy's float64
    arithmetic bit for bit; a path leaving the simplex runs on unchecked.
    The two-state law is n0 = 0 with en, un, ne, nu = 0, eu = s, ue = f."""
    eu, en, ue, un, ne, nu = (rates[name][:-1].tolist() for name in RATE_NAMES)
    u, n = float(u0), float(n0)
    U, N = [u], [n]
    for eu_t, en_t, ue_t, un_t, ne_t, nu_t in zip(eu, en, ue, un, ne, nu):
        e = 1.0 - u - n
        u, n = (u + (e * eu_t + n * nu_t - u * un_t - u * ue_t),
                n + (e * en_t + u * un_t - n * ne_t - n * nu_t))
        U.append(u)
        N.append(n)
    return np.array(U), np.array(N)


def simulate_three_state(spec: ThreeStateSimulationSpec) -> ThreeStateSimulation:
    """Generate a stock-consistent three-state panel with planted vacancies;
    ValueError names the first month whose exit rates raking would reject,
    whose stocks leave the simplex, whose U -> E flow rounds to zero, or
    whose planted V is invalid."""
    n = spec.horizon
    rates = {name: _as_path(spec.rates[name], n, name) for name in RATE_NAMES}
    sigma = _as_path(spec.sigma_path, n, "sigma_path")

    faults = _stayer_faults(np.vstack([rates[name][:-1] for name in RATE_NAMES]),
                            spec.start.shift)
    if faults:
        raise ValueError(next(iter(faults.values())))
    U, N = _law_of_motion(spec.u0, spec.n0, rates)
    with np.errstate(over="ignore", invalid="ignore"):
        outside = (U < 0.0) | (N < 0.0) | (U + N >= 1.0)
    _reject_first(outside, spec.start, "stocks left the simplex at {month}")
    # raking scales each flow, so a flow that rounds to zero stays zero: no
    # job finding would be left for the month
    ue = rates["ue"][:-1]
    _reject_first((U[:-1] * ue == 0.0) & (ue > 0.0), spec.start,
                  "unemployment-to-employment flow U * ue rounds to zero at {month}: "
                  "U = {value!r}", U)
    E = 1.0 - U - N

    mk = lambda vals: MonthlySeries(spec.start, vals)  # noqa: E731
    panel = ThreeStatePanel(E=mk(E), U=mk(U), N=mk(N),
                            **{name: mk(rates[name]) for name in RATE_NAMES})

    S, Nt, x = panel.S.values, panel.N_tilde.values, panel.x.values
    v = np.full(n, np.nan)
    v[:-1] = _vacancy_identity(S[:-1], Nt[:-1], x[:-1], S[1:] - S[:-1],
                               Nt[1:] - Nt[:-1], sigma[:-1], spec.alpha)
    _reject_first(np.isnan(v[:-1]), spec.start, "infeasible planted paths at {month}: "
                  "hires implied by the flows are nonpositive")
    _require_unit_vacancies(v[:-1], spec.start)
    return ThreeStateSimulation(panel=panel, V=mk(v), sigma_true=mk(sigma),
                                alpha=spec.alpha)

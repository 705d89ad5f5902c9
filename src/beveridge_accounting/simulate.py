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
from .flows_three_state import (RATE_NAMES, ThreeStatePanel, derive_aggregates)
from .flows_two_state import TwoStatePanel, build_two_state_panel
from .series import MonthDate, MonthlySeries


def _as_path(value, horizon: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(horizon, float(arr))
    if arr.shape != (horizon,):
        raise ValueError(f"{name} must be a scalar or length-{horizon} path")
    if (arr <= 0.0).any() and name in ("s_path", "sigma_path"):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def _require_unit_vacancies(v: np.ndarray, start: MonthDate) -> None:
    """Raise ValueError naming the first month whose planted vacancy rate
    is outside (0, 1); a missing month is not checked."""
    outside = (v <= 0.0) | (v >= 1.0)
    if outside.any():
        t = int(np.flatnonzero(outside)[0])
        raise ValueError(f"planted vacancies left (0, 1) at {start.shift(t)}: "
                         f"{float(v[t])!r}")


@dataclass(frozen=True)
class SimulationSpec:
    """Planted two-state configuration.

    Either `delta_u_path` (length horizon - 1; vacancies chosen from the
    identity) or `v_path` (length horizon; unemployment evolved by the law
    of motion) drives the dynamics; a zero delta-u path is the default.
    Optional lognormal noise multiplies the planted efficiency path so the
    matching regression has mean-zero log residuals by construction.
    """

    alpha: float
    u0: float
    horizon: int
    s_path: np.ndarray | float
    sigma_path: np.ndarray | float
    delta_u_path: np.ndarray | None = None
    v_path: np.ndarray | None = None
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
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.delta_u_path is not None and self.v_path is not None:
            raise ValueError("specify delta_u_path or v_path, not both")


@dataclass(frozen=True)
class TwoStateSimulation:
    """Panel built through the production constructors plus planted truths."""

    panel: TwoStatePanel
    f_true: MonthlySeries
    s_true: MonthlySeries
    sigma_true: MonthlySeries
    alpha: float


def simulate_two_state(spec: SimulationSpec) -> TwoStateSimulation:
    """Generate a two-state panel consistent with the model by construction."""
    n = spec.horizon
    s = _as_path(spec.s_path, n, "s_path")
    sigma = _as_path(spec.sigma_path, n, "sigma_path")
    if spec.noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        sigma = sigma * np.exp(rng.normal(0.0, spec.noise_std, size=n))

    u = np.empty(n)
    v = np.empty(n)
    f = np.empty(n)
    u[0] = spec.u0
    if spec.v_path is not None:
        v = _as_path(spec.v_path, n, "v_path")
        for t in range(n):
            f[t] = sigma[t] * (v[t] / u[t]) ** spec.alpha
            if t < n - 1:
                u[t + 1] = u[t] + s[t] * (1.0 - u[t]) - f[t] * u[t]
                if not 0.0 < u[t + 1] < 1.0:
                    raise ValueError(f"unemployment left (0, 1) at "
                                     f"{spec.start.shift(t + 1)}: {float(u[t + 1])!r}")
    else:
        du = spec.delta_u_path
        du = np.zeros(n - 1) if du is None else np.asarray(du, dtype=float)
        if du.shape != (n - 1,):
            raise ValueError(f"delta_u_path must have length {n - 1}")
        for t in range(n - 1):
            u[t + 1] = u[t] + du[t]
            if not 0.0 < u[t + 1] < 1.0:
                raise ValueError(f"unemployment left (0, 1) at "
                                 f"{spec.start.shift(t + 1)}: {float(u[t + 1])!r}")
        du_next = np.append(du, 0.0)  # last month: steady-state continuation
        v = _vacancy_identity(u, 0.0, s, du_next, 0.0, sigma, spec.alpha)
        if np.isnan(v).any():
            t = int(np.flatnonzero(np.isnan(v))[0])
            raise ValueError(f"infeasible planted paths at {spec.start.shift(t)}: "
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


@dataclass(frozen=True)
class ThreeStateSimulation:
    panel: ThreeStatePanel
    V: MonthlySeries
    sigma_true: MonthlySeries
    alpha: float


def simulate_three_state(spec: ThreeStateSimulationSpec) -> ThreeStateSimulation:
    """Generate a stock-consistent three-state panel with planted vacancies."""
    n = spec.horizon
    rates = {name: _as_path(spec.rates[name], n, name) for name in RATE_NAMES}
    sigma = _as_path(spec.sigma_path, n, "sigma_path")

    U = np.empty(n)
    N = np.empty(n)
    U[0], N[0] = spec.u0, spec.n0
    for t in range(n - 1):
        E_t = 1.0 - U[t] - N[t]
        dU = (E_t * rates["eu"][t] + N[t] * rates["nu"][t]
              - U[t] * rates["un"][t] - U[t] * rates["ue"][t])
        dN = (E_t * rates["en"][t] + U[t] * rates["un"][t]
              - N[t] * rates["ne"][t] - N[t] * rates["nu"][t])
        U[t + 1] = U[t] + dU
        N[t + 1] = N[t] + dN
        if U[t + 1] < 0.0 or N[t + 1] < 0.0 or U[t + 1] + N[t + 1] >= 1.0:
            raise ValueError(f"stocks left the simplex at {spec.start.shift(t + 1)}")
    E = 1.0 - U - N

    mk = lambda vals: MonthlySeries(spec.start, vals)  # noqa: E731
    panel = derive_aggregates(ThreeStatePanel(
        E=mk(E), U=mk(U), N=mk(N),
        **{name: mk(rates[name]) for name in RATE_NAMES}))

    S, Nt, x = panel.S.values, panel.N_tilde.values, panel.x.values
    v = np.full(n, np.nan)
    v[:-1] = _vacancy_identity(S[:-1], Nt[:-1], x[:-1], S[1:] - S[:-1],
                               Nt[1:] - Nt[:-1], sigma[:-1], spec.alpha)
    if np.isnan(v[:-1]).any():
        t = int(np.flatnonzero(np.isnan(v[:-1]))[0])
        raise ValueError(f"infeasible planted paths at {spec.start.shift(t)}: "
                         "hires implied by the flows are nonpositive")
    _require_unit_vacancies(v[:-1], spec.start)
    return ThreeStateSimulation(panel=panel, V=mk(v), sigma_true=mk(sigma),
                                alpha=spec.alpha)

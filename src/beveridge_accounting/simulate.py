"""Synthetic labor-market panels with planted ground truth.

One spec, one generator (`simulate`) and one result serve both models: two
states are the three-state case N = 0, with en = un = ne = nu = 0 and
eu = s.  Panels come from the laws of motion and the vacancy identity, so
every pipeline stage has an exact oracle.  A two-state panel's short-term
unemployment is the gross inflow s_t (1 - U_t), the accounting the
job-finding construction presumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .curve import _vacancy_identity
from .flows_three_state import RATE_NAMES, ThreeStatePanel, _rate_faults
from .flows_two_state import TwoStatePanel, build_two_state_panel
from .series import MonthDate, MonthlySeries, _reject_first, _reject_nonshares


def _as_path(value, horizon: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:  # a read-only view, which takes no memory per month
        arr = np.broadcast_to(arr, horizon)
    if arr.shape != (horizon,):
        raise ValueError(f"{name} must be a scalar or length-{horizon} path")
    if (arr <= 0.0).any() and name in ("s_path", "sigma_path"):
        raise ValueError(f"{name} must be strictly positive")
    return arr


@dataclass(frozen=True)
class SimulationSpec:
    """Planted configuration of either model.

    `s_path` is eu, the separation probability s in two states; `rates`
    gives any of en, ue, un, ne and nu, each a scalar or a length-horizon
    path, and a missing one is zero.  With n0 = 0 and en = un = ne = nu = 0
    the panel is two-state.  Where `rates` gives no ue, ue is solved so
    that U moves by `delta_u_path` (length horizon - 1, zero by default).
    Lognormal noise multiplies the efficiency path, so the matching
    regression has mean-zero log residuals by construction.
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
    n0: float = 0.0
    rates: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not (self.u0 >= 0.0 and self.n0 >= 0.0 and self.u0 + self.n0 < 1.0):
            raise ValueError("initial stocks must be nonnegative with room "
                             "for employment")
        if set(self.rates) - set(RATE_NAMES[1:]):
            raise ValueError(f"rates takes {', '.join(RATE_NAMES[1:])}, not "
                             f"{sorted(self.rates)} (eu is s_path)")
        if "ue" in self.rates and self.delta_u_path is not None:
            raise ValueError("delta_u_path is met by solving for ue, "
                             "so rates cannot give ue as well")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 months")
        try:  # every month must have a YYYY-MM date
            self.start.shift(self.horizon - 1)
        except ValueError:
            raise ValueError(f"{self.horizon} months from {self.start} run past "
                             "9999-12") from None
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std must be non-negative")


@dataclass(frozen=True)
class Simulation:
    """The panel (a `TwoStatePanel` where N = 0, else a `ThreeStatePanel`)
    and the planted truths: vacancies, efficiency and the model's rates,
    planted or solved (eu and ue in two states, all six in three)."""

    panel: TwoStatePanel | ThreeStatePanel
    V: MonthlySeries
    rates: dict[str, MonthlySeries]
    sigma_true: MonthlySeries
    alpha: float


def _law_of_motion(u0: float, n0: float, rates: dict,
                   du: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """U and N from (u0, n0), month t + 1 from month t's stocks and rates
    (the last month's go unused), U by the planted change `du` where given.
    Python floats keep numpy's float64 arithmetic bit for bit; a path
    leaving the simplex runs on unchecked."""
    eu, en, ue, un, ne, nu = (rates[name][:-1].tolist() for name in RATE_NAMES)
    steps = [None] * len(eu) if du is None else du.tolist()
    u, n = float(u0), float(n0)
    U, N = [u], [n]
    for eu_t, en_t, ue_t, un_t, ne_t, nu_t, du_t in zip(eu, en, ue, un, ne, nu, steps):
        e = 1.0 - u - n
        u, n = (u + (e * eu_t + n * nu_t - u * un_t - u * ue_t) if du_t is None
                else u + du_t, n + (e * en_t + u * un_t - n * ne_t - n * nu_t))
        U.append(u)
        N.append(n)
    return np.array(U), np.array(N)


def _planted_stocks(spec: SimulationSpec, rates: dict,
                    two_state: bool) -> tuple[np.ndarray, ...]:
    """U (u0 plus the running sum of the planted change dU), N and dU, with
    ue_t = (E_t eu_t + N_t nu_t - U_t un_t - dU_t) / U_t solved into `rates`,
    the last month's at E constant.  ValueError names the first month where
    U leaves (0, 1) or a solved ue that starts a month-pair is not positive."""
    n = spec.horizon
    du = _as_path(0.0 if spec.delta_u_path is None else spec.delta_u_path, n - 1,
                  "delta_u_path")
    # N = 0 in two states: U is a running sum in month order, as the loop adds
    # it.  Only the first month outside (0, 1) is reported; later ones may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        U, N = ((np.add.accumulate(np.append(spec.u0, du)), np.zeros(n)) if two_state
                else _law_of_motion(spec.u0, spec.n0, rates, du))
        outside = ~((U > 0.0) & (U < 1.0))
    _reject_first(outside, spec.start, "unemployment left (0, 1) at {month}: {value!r}",
                  U)
    E, (eu, en, _, un, ne, nu) = 1.0 - U - N, (rates[name] for name in RATE_NAMES)
    with np.errstate(over="ignore", invalid="ignore"):
        rates["ue"] = ue = (E * eu + N * nu - U * un - np.append(du, 0.0)) / U
        # the last month continues in steady state: hires U ue + N ne = E x
        ue[-1] = (E[-1] * (eu[-1] + en[-1]) - N[-1] * ne[-1]) / U[-1]
    _reject_first(~(ue[:-1] > 0.0), spec.start, "infeasible planted paths at {month}: "
                  "the inflow cannot cover the unemployment change (solved ue = "
                  "{value!r})", ue)
    return U, N, du


def simulate(spec: SimulationSpec) -> Simulation:
    """A panel of either model, consistent with it by construction: V from
    the vacancy identity, the last month in steady state (dS' = dN_tilde' =
    0).  ValueError names the first month whose stocks leave their bounds,
    whose rates raking would refuse, whose U -> E flow rounds to zero, or
    whose V is infeasible or outside (0, 1), skipping the last month's
    rates (they start no month-pair)."""
    n, start = spec.horizon, spec.start
    rates = {"eu": _as_path(spec.s_path, n, "s_path"),
             **{name: _as_path(spec.rates.get(name, 0.0), n, name)
                for name in RATE_NAMES[1:]}}
    two_state = spec.n0 == 0.0 and not any(rates[name].any()
                                           for name in ("en", "un", "ne", "nu"))
    sigma = _as_path(spec.sigma_path, n, "sigma_path")
    if spec.noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        sigma = sigma * np.exp(rng.normal(0.0, spec.noise_std, size=n))

    if "ue" in spec.rates:
        (U, N), du = _law_of_motion(spec.u0, spec.n0, rates), None
    else:
        U, N, du = _planted_stocks(spec, rates, two_state)
    faults = _rate_faults(np.vstack([rates[name][:-1] for name in RATE_NAMES]),
                          start.shift)
    if faults:
        raise ValueError(next(iter(faults.values())))
    with np.errstate(over="ignore", invalid="ignore"):
        outside = (U < 0.0) | (N < 0.0) | (U + N >= 1.0)
    _reject_first(outside, start, "stocks left the simplex at {month}")
    # raking scales each flow, so a flow that rounds to zero stays zero: no
    # job finding would be left for the month
    ue = rates["ue"][:-1]
    _reject_first((U[:-1] * ue == 0.0) & (ue > 0.0), start,
                  "unemployment-to-employment flow U * ue rounds to zero at {month}: "
                  "U = {value!r}", U)

    mk = lambda vals: MonthlySeries(start, vals)  # noqa: E731
    if two_state:  # N = 0: the searchers S = U + xi_N N are U, and N_tilde is N
        S, Nt, x, searching = U, N, rates["eu"], N
    else:
        panel = ThreeStatePanel(E=mk(1.0 - U - N), U=mk(U), N=mk(N),
                                **{name: mk(rates[name]) for name in RATE_NAMES})
        S, Nt, x = panel.S.values, panel.N_tilde.values, panel.x.values
        searching = panel.xi_N.values * N
    # a planted change is met as planted: S-differences would round it anew
    dS = np.diff(S) if du is None else du + np.diff(searching)
    v = _vacancy_identity(S, Nt, x, np.append(dS, 0.0), np.append(np.diff(Nt), 0.0),
                          sigma, spec.alpha)
    _reject_first(np.isnan(v), start, "infeasible planted paths at {month}: "
                  "hires implied by the flows are nonpositive")
    _reject_nonshares("planted vacancy rate", v, start)  # as `tightness` reads it
    V, sigma = mk(v), mk(sigma)
    if not two_state:
        return Simulation(panel, V, panel.rates(), sigma, spec.alpha)
    # the gross inflow into unemployment, observed as short-term unemployed
    # next month; the first month has no predecessor
    u_short = np.append(np.nan, rates["eu"][:-1] * (1.0 - U[:-1]))
    return Simulation(build_two_state_panel(mk(U), V, mk(u_short)), V,
                      {name: mk(rates[name]) for name in ("eu", "ue")}, sigma, spec.alpha)


# The former two-model API, kept only because `bench/workloads.py` builds
# its panels with it; drop it once the benchmark calls `simulate`.  Each
# name is its own function, so that a trace tells the two models apart.
def simulate_two_state(spec: SimulationSpec) -> Simulation:
    return simulate(spec)


def simulate_three_state(spec: SimulationSpec) -> Simulation:
    return simulate(spec)


def ThreeStateSimulationSpec(*, rates: dict, sigma_path=1.0, **kwargs) -> SimulationSpec:
    return SimulationSpec(s_path=rates["eu"], sigma_path=sigma_path, **kwargs,
                          rates={name: rates[name] for name in RATE_NAMES[1:]})

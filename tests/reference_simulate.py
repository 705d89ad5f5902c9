"""The two simulators that `simulate` replaced, one per model, the reference
that the tests hold the one generator to.

`simulate_two_state` plants a change in U and solves V from the two-state
identity; its finding rate `f_true` is sigma (V / U)^alpha, and its last
month's `f_true` and `s_true` are missing.  `simulate_three_state` plants
six rates, evolves the stocks by the laws of motion and solves V from the
three-state identity with S-differences; its last month's V is missing.
"""

from types import SimpleNamespace

import numpy as np

from beveridge_accounting import MonthDate, MonthlySeries, ThreeStatePanel
from beveridge_accounting.curve import _vacancy_identity
from beveridge_accounting.flows_three_state import RATE_NAMES, _rate_faults
from beveridge_accounting.flows_two_state import build_two_state_panel
from beveridge_accounting.series import _reject_first
from beveridge_accounting.simulate import _as_path, _law_of_motion

START = MonthDate(2000, 1)


def _require_unit_vacancies(v, start):
    _reject_first((v <= 0.0) | (v >= 1.0), start,
                  "planted vacancies left (0, 1) at {month}: {value!r}", v)


def simulate_two_state(alpha, u0, horizon, s_path, sigma_path, delta_u_path=None,
                       noise_std=0.0, seed=0, start=START):
    n = horizon
    s = _as_path(s_path, n, "s_path")
    sigma = _as_path(sigma_path, n, "sigma_path")
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        sigma = sigma * np.exp(rng.normal(0.0, noise_std, size=n))

    du = np.zeros(n - 1) if delta_u_path is None else np.asarray(delta_u_path, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.add.accumulate(np.append(u0, du))
        outside = ~((u > 0.0) & (u < 1.0))
    _reject_first(outside, start, "unemployment left (0, 1) at {month}: {value!r}", u)
    du_next = np.append(du, 0.0)  # last month: steady-state continuation
    v = _vacancy_identity(u, 0.0, s, du_next, 0.0, sigma, alpha)
    _reject_first(np.isnan(v), start, "infeasible planted paths at {month}: "
                  "separation inflow cannot cover the unemployment change")
    f = sigma * (v / u) ** alpha
    _require_unit_vacancies(v, start)

    u_short = np.empty(n)
    u_short[0] = np.nan
    u_short[1:] = s[:-1] * (1.0 - u[:-1])

    mk = lambda vals: MonthlySeries(start, vals)  # noqa: E731
    panel = build_two_state_panel(mk(u), mk(v), mk(u_short))
    f_true, s_true = f.copy(), s.copy()
    f_true[-1] = np.nan
    s_true[-1] = np.nan
    return SimpleNamespace(panel=panel, f_true=mk(f_true), s_true=mk(s_true),
                           sigma_true=mk(sigma), alpha=alpha)


def simulate_three_state(alpha, u0, n0, horizon, rates, sigma_path=1.0, start=START):
    n = horizon
    rates = {name: _as_path(rates[name], n, name) for name in RATE_NAMES}
    sigma = _as_path(sigma_path, n, "sigma_path")

    faults = _rate_faults(np.vstack([rates[name][:-1] for name in RATE_NAMES]),
                          start.shift)
    if faults:
        raise ValueError(next(iter(faults.values())))
    U, N = _law_of_motion(u0, n0, rates)
    with np.errstate(over="ignore", invalid="ignore"):
        outside = (U < 0.0) | (N < 0.0) | (U + N >= 1.0)
    _reject_first(outside, start, "stocks left the simplex at {month}")
    ue = rates["ue"][:-1]
    _reject_first((U[:-1] * ue == 0.0) & (ue > 0.0), start,
                  "unemployment-to-employment flow U * ue rounds to zero at {month}: "
                  "U = {value!r}", U)
    E = 1.0 - U - N

    mk = lambda vals: MonthlySeries(start, vals)  # noqa: E731
    panel = ThreeStatePanel(E=mk(E), U=mk(U), N=mk(N),
                            **{name: mk(rates[name]) for name in RATE_NAMES})

    S, Nt, x = panel.S.values, panel.N_tilde.values, panel.x.values
    v = np.full(n, np.nan)
    v[:-1] = _vacancy_identity(S[:-1], Nt[:-1], x[:-1], S[1:] - S[:-1],
                               Nt[1:] - Nt[:-1], sigma[:-1], alpha)
    _reject_first(np.isnan(v[:-1]), start, "infeasible planted paths at {month}: "
                  "hires implied by the flows are nonpositive")
    _require_unit_vacancies(v[:-1], start)
    return SimpleNamespace(panel=panel, V=mk(v), sigma_true=mk(sigma), alpha=alpha)

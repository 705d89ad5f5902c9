"""Shared synthetic fixtures.

The recession fixture plants a hump-shaped unemployment path, a separations
spike and a permanent matching-efficiency drop, giving a Beveridge loop with
downswing and upswing samples that bracket each other.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import beveridge_accounting as ba
from beveridge_accounting import MonthDate

# the case table and its runners, which tests import as `cases`, `smoke`
# and `sweep`
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))


def two_state(U, s):
    """What the one point and expansion read of a two-state panel (S = U,
    N_tilde = 0, x = s, as `TwoStatePanel` gives them), from bare series."""
    return SimpleNamespace(S=U, N_tilde=U.with_values(np.zeros(len(U))), x=s)


def identity(panel, sigma, alpha):
    """The vacancy identity on either panel's data, month by month, as an
    array: no margin held, so the point gives only alpha."""
    point = ba.ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.36,
                                  alpha=alpha)
    (path,) = ba.counterfactual_vacancies(panel, sigma, point, [()]).values()
    return path


@pytest.fixture(scope="session")
def recession_sim():
    n = 180
    du = np.zeros(n - 1)
    du[90:114] += 0.0012   # 2007-07..2009-06: unemployment rises
    du[120:168] -= 0.0006  # 2010-01..2013-12: recovery
    s_path = 0.02 * np.ones(n)
    s_path[96:112] *= 1.15  # separations spike during the recession
    sigma_path = 0.36 * np.ones(n)
    sigma_path[96:] *= 0.8  # permanent efficiency drop from 2008-01
    # calibrated so the upswing curve sits above the downswing on net: the
    # efficiency drop dominates the partially offsetting separations spike
    spec = ba.SimulationSpec(alpha=0.3, u0=0.055, horizon=n, s_path=s_path,
                             sigma_path=sigma_path, delta_u_path=du,
                             start=MonthDate(2000, 1))
    return ba.simulate(spec)


@pytest.fixture(scope="session")
def paper_sim():
    """240 months, 2000-01 to 2019-12, the paper's span, with a recession
    loop around the default swing bounds: unemployment rises through 2009-06
    and recovers, and efficiency drops for good from 2008-01."""
    n = 240
    du = np.zeros(n - 1)
    du[90:114] += 0.0012
    du[120:168] -= 0.0006
    sigma_path = np.full(n, 0.36)
    sigma_path[96:] *= 0.8
    return ba.simulate(ba.SimulationSpec(
        alpha=0.3, u0=0.055, horizon=n, s_path=0.02, sigma_path=sigma_path,
        delta_u_path=du, start=MonthDate(2000, 1)))


@pytest.fixture(scope="session")
def recession_pipeline(recession_sim):
    """Panel plus constructed tightness/efficiency, point, and swing samples."""
    panel = recession_sim.panel
    theta = ba.tightness(panel.U, panel.V)
    sigma_hat = ba.matching_efficiency_path(panel.f.values, theta.values, alpha=0.3,
                                            start=panel.U.start)
    point = ba.ApproximationPoint(S_0=0.068, N_tilde_0=0.0, x_0=0.020, sigma_0=0.30,
                                  alpha=0.3)
    bounds = ba.SwingBounds(down_start=MonthDate(2007, 7),
                            down_end=MonthDate(2009, 6),
                            up_start=MonthDate(2010, 1))
    samples = ba.build_swing_samples(panel.U, panel.V, bounds)
    return {
        "sim": recession_sim,
        "panel": panel,
        "theta": theta,
        "sigma_hat": sigma_hat,
        "point": point,
        "bounds": bounds,
        "samples": samples,
    }


def make_three_state_steady(horizon=24, ue=0.25, eu=0.015, en=0.02,
                            u0=0.05, n0=0.30, un=0.03, sigma=0.36,
                            start=MonthDate(2000, 1)):
    """A stock-consistent steady-state three-state simulation.

    ne is set so hires equal separations (E*x = H) and nu closes the
    unemployment law of motion, so stocks are exactly constant.
    """
    e0 = 1.0 - u0 - n0
    x = eu + en
    ne = (e0 * x - u0 * ue) / n0
    nu = (u0 * un + u0 * ue - e0 * eu) / n0
    rates = {"en": en, "ue": ue, "un": un, "ne": ne, "nu": nu}
    return ba.simulate(ba.SimulationSpec(alpha=0.3, u0=u0, n0=n0, horizon=horizon,
                                         s_path=eu, sigma_path=sigma, rates=rates,
                                         start=start))

"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-6 and 10 run unconditionally on synthetic fixtures.  Criteria
7-9 reproduce published magnitudes and need the real monthly series; they
run when BEVERIDGE_DATA_CSV points to a panel CSV with columns
`u_rate,v_rate,u_short` (rates as labor-force shares) covering 2000-2019,
and are skipped otherwise.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import time

import numpy as np
import pytest

import beveridge_accounting as ba
from beveridge_accounting import (ApproximationPoint, EfficiencyCalibration,
                                  MonthDate, SwingBounds)
from conftest import identity

DATA_ENV = "BEVERIDGE_DATA_CSV"

needs_data = pytest.mark.skipif(
    DATA_ENV not in os.environ,
    reason=f"set {DATA_ENV} to a CPS/JOLTS panel CSV to run this reproduction")


def ok(n, message):
    print(f"[criterion {n:2d}] PASS - {message}")


def test_criterion_1_two_state_identity_roundtrip(recession_sim):
    started = time.perf_counter()
    panel = recession_sim.panel
    theta = ba.tightness(panel.U, panel.V)
    sigma = ba.matching_efficiency_path(panel.f.values, theta.values, alpha=0.3,
                                        start=theta.start)
    v_hat = identity(panel, sigma, alpha=0.3)
    elapsed = time.perf_counter() - started

    defined = ~np.isnan(v_hat)
    rel = np.abs(v_hat[defined] / panel.V.values[defined] - 1.0)
    assert rel.max() < 1e-12
    assert elapsed < 1.0

    # a second, rougher panel: noisy efficiency and a separations spike
    spec = ba.SimulationSpec(alpha=0.42, u0=0.08, horizon=90,
                             s_path=0.025 * np.ones(90), sigma_path=0.5,
                             delta_u_path=0.002 * np.sin(np.arange(89) / 4.0),
                             noise_std=0.05, seed=3)
    sim2 = ba.simulate(spec)
    theta2 = ba.tightness(sim2.panel.U, sim2.panel.V)
    sigma2 = ba.matching_efficiency_path(sim2.panel.f.values, theta2.values, alpha=0.42,
                                         start=theta2.start)
    v2 = identity(sim2.panel, sigma2, alpha=0.42)
    defined2 = ~np.isnan(v2)
    rel2 = np.abs(v2[defined2] / sim2.panel.V.values[defined2] - 1.0)
    assert rel2.max() < 1e-12
    ok(1, f"two-state identity max rel err {max(rel.max(), rel2.max()):.2e} "
          f"in {elapsed * 1e3:.0f} ms")


def test_criterion_2_three_state_identity_roundtrip():
    from conftest import make_three_state_steady

    started = time.perf_counter()
    sim = make_three_state_steady(horizon=60)
    got = identity(sim.panel, sim.sigma_true.values, sim.alpha)
    defined = ~np.isnan(sim.V.values) & ~np.isnan(got)
    rel_sim = np.abs(got[defined] / sim.V.values[defined] - 1.0).max()
    assert rel_sim < 1e-10

    # raked variant: perturb the rates, rake them back against the stocks,
    # re-derive efficiency from the raked panel, and invert again
    rng = np.random.default_rng(11)
    noisy = {name: sim.panel.rates()[name].with_values(
        sim.panel.rates()[name].values * (1 + 5e-4 * rng.standard_normal(60)))
        for name in ("eu", "en", "ue", "un", "ne", "nu")}
    panel, report = ba.build_three_state_panel(sim.panel.E, sim.panel.U,
                                               sim.panel.N, noisy, tol=1e-13)
    theta = ba.tightness(panel.S, sim.V)
    sigma = ba.matching_efficiency_path(panel.f.values, theta.values, alpha=sim.alpha,
                                        start=theta.start)
    v_hat = identity(panel, sigma, sim.alpha)
    defined = ~np.isnan(v_hat) & ~np.isnan(sim.V.values)
    rel_raked = np.abs(v_hat[defined] / sim.V.values[defined] - 1.0).max()
    elapsed = time.perf_counter() - started
    assert rel_raked < 1e-10
    assert elapsed < 1.0
    ok(2, f"three-state identity max rel err {max(rel_sim, rel_raked):.2e} "
          f"(raked residual {report.worst_residual:.1e}) in {elapsed * 1e3:.0f} ms")


def test_criterion_3_planted_parameter_recovery():
    # alpha and the efficiency/separation paths, zero noise
    du = 0.0015 * np.sin(2 * np.pi * np.arange(119) / 40)
    s_path = 0.02 * (1 + 0.15 * np.sin(2 * np.pi * np.arange(120) / 31))
    spec = ba.SimulationSpec(alpha=0.3, u0=0.06, horizon=120, s_path=s_path,
                             sigma_path=0.36, delta_u_path=du)
    sim = ba.simulate(spec)
    theta = ba.tightness(sim.panel.U, sim.panel.V)
    est = ba.estimate_matching(sim.panel.f, theta)
    assert abs(est.alpha - 0.3) < 1e-10
    sigma = ba.matching_efficiency_path(sim.panel.f.values, theta.values, alpha=0.3,
                                        start=theta.start)
    assert np.nanmax(np.abs(sigma[:-1] - 0.36)) < 1e-12
    assert np.nanmax(np.abs(sim.panel.s.values - sim.rates["eu"].values)) < 1e-12

    # single-margin shifts: full attribution for all six orderings
    worst = 0.0
    for margin in ("matching", "separations"):
        sigma_path = np.full(40, 0.36)
        sp = np.full(40, 0.02)
        if margin == "matching":
            sigma_path[20:] *= 0.75
        else:
            sp[20:] *= 1.3
        sim1 = ba.simulate(ba.SimulationSpec(
            alpha=0.3, u0=0.06, horizon=40, s_path=sp, sigma_path=sigma_path))
        theta1 = ba.tightness(sim1.panel.U, sim1.panel.V)
        sigma1 = ba.matching_efficiency_path(sim1.panel.f.values, theta1.values, 0.3,
                                             start=theta1.start)
        point = ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.36,
                                   alpha=0.3)
        start = sim1.panel.U.start
        bounds = SwingBounds(down_start=start.shift(5), down_end=start.shift(10),
                             up_start=start.shift(25), up_end=start.shift(30))
        samples = ba.build_swing_samples(sim1.panel.U, sim1.panel.V, bounds)
        table = ba.all_orderings_report(sim1.panel, sim1.panel.V.values, sigma1,
                                        samples, point)
        for row in table.rows:
            for name, value in row.percent.items():
                want = 100.0 if name == margin else 0.0
                assert abs(value - want) < 1e-9, (margin, row.ordering, name)
                worst = max(worst, abs(value - want))
    ok(3, f"alpha/sigma/s recovered; single-margin attribution off by "
          f"at most {worst:.1e} percentage points")


def test_criterion_4_telescoping_and_first_margin_invariance(recession_pipeline):
    panel = recession_pipeline["panel"]
    table = ba.all_orderings_report(panel, panel.V.values,
                                    recession_pipeline["sigma_hat"],
                                    recession_pipeline["samples"],
                                    recession_pipeline["point"])
    worst = 0.0
    for row in table.rows:
        total = sum(row.percent.values())
        assert abs(total - 100.0) < 1e-9
        worst = max(worst, abs(total - 100.0))
    rows = {r.ordering: r for r in table.rows}
    d, s, m = "dynamics", "separations", "matching"
    assert rows[(d, s, m)].percent[d] == rows[(d, m, s)].percent[d]
    assert rows[(s, d, m)].percent[s] == rows[(s, m, d)].percent[s]
    assert rows[(m, d, s)].percent[m] == rows[(m, s, d)].percent[m]
    ok(4, f"six orderings telescope to 100% (worst gap {worst:.1e}); "
          "first-margin contributions repeat exactly")


def test_criterion_5_taylor_accuracy():
    import sys
    sys.path.insert(0, os.path.dirname(__file__))
    from test_curve import max_taylor_error

    point = ApproximationPoint(S_0=0.068, N_tilde_0=0.0, x_0=0.020, sigma_0=0.359,
                               alpha=0.3)
    # levels within the band; month-over-month log changes capped at band/20
    # (the identity's curvature in the dynamics coordinate is ~57, so a full
    # 1% monthly change lies outside any tangent plane's 1e-3 reach)
    tight = max(max_taylor_error(point, 0.01, 0.01 / 20, seed)
                for seed in range(8))
    wide = max(max_taylor_error(point, 0.10, 0.10 / 20, seed)
               for seed in range(8))
    assert tight < 1e-3
    assert wide < 5e-2
    ok(5, f"log-linear vs exact: {tight:.1e} within 1%, {wide:.1e} within 10%")


def test_criterion_6_slope_consistency():
    point = ApproximationPoint(S_0=0.068, N_tilde_0=0.0, x_0=0.020, sigma_0=0.359,
                               alpha=0.3)

    def log_v_of_log_u(lu):
        u = math.exp(lu)
        num = point.x_0 * (1.0 - u)
        return (math.log(num) - math.log(point.sigma_0)
                - (1 - point.alpha) * math.log(u)) / point.alpha

    h = 1e-5
    lu = math.log(point.S_0)
    fd = (log_v_of_log_u(lu + h) - log_v_of_log_u(lu - h)) / (2 * h)
    slope = ba.loglinear_slope(point)
    assert abs(slope / fd - 1.0) < 1e-6

    small_273 = ApproximationPoint(S_0=1e-9, N_tilde_0=0.0, x_0=0.02, sigma_0=0.359,
                                   alpha=0.273)
    small_300 = ApproximationPoint(S_0=1e-9, N_tilde_0=0.0, x_0=0.02, sigma_0=0.359,
                                   alpha=0.300)
    assert round(ba.loglinear_slope(small_273), 2) == -2.66
    assert round(ba.loglinear_slope(small_300), 2) == -2.33
    ok(6, f"slope {slope:.6f} matches finite difference "
          f"(rel gap {abs(slope / fd - 1):.1e}); limits -2.66 / -2.33")


def _load_real_panel():
    panel = ba.read_panel(os.environ[DATA_ENV])
    ba.require_columns(panel, "u_rate", "v_rate", "u_short")
    return panel


# Criteria 7-9's call chains, from a panel's u_rate, v_rate and u_short
# columns: the real-data tests assert the published magnitudes on them, and
# `test_criteria_7_to_9_run_on_a_simulated_panel` runs them in every tier-1
# run, so an API change that breaks them shows there

def matching_table(cols):
    """Criterion 7: the pre-2008 and post-2007 estimates, and the post-2007
    expansion point."""
    panel = ba.build_two_state_panel(cols["u_rate"], cols["v_rate"], cols["u_short"])
    theta = ba.tightness(panel.U, panel.V)
    pre = ba.estimate_matching(panel.f, theta,
                               sample=(panel.U.start, MonthDate(2007, 12)))
    post = ba.estimate_matching(panel.f, theta,
                                sample=(MonthDate(2008, 1), panel.U.end))
    sigma = ba.matching_efficiency_path(panel.f.values, theta.values, alpha=0.3,
                                        start=theta.start)
    point = ApproximationPoint.from_panel(panel, sigma, 0.3,
                                          (MonthDate(2008, 1), panel.U.end))
    return pre, post, point


def ordering_table(cols):
    """Criterion 8: the six-ordering table on 3-month averages."""
    smoothed = {k: ba.moving_average(v, 3) for k, v in cols.items()}
    panel = ba.build_two_state_panel(smoothed["u_rate"], smoothed["v_rate"],
                                     smoothed["u_short"])
    theta = ba.tightness(panel.U, panel.V)
    sigma = ba.matching_efficiency_path(panel.f.values, theta.values, alpha=0.3,
                                        start=theta.start)
    point = ApproximationPoint.from_panel(panel, sigma, 0.3,
                                          (MonthDate(2008, 1), panel.U.end))
    samples = ba.build_swing_samples(panel.U, panel.V, SwingBounds())
    return ba.all_orderings_report(panel, panel.V.values, sigma, samples, point)


def efficiency_exercise(cols):
    """Criterion 9: u on 3-month averages, and u* under the flat and the
    steep slope."""
    u = ba.moving_average(cols["u_rate"], 3)
    v = ba.moving_average(cols["v_rate"], 3)
    flat, steep = (ba.efficient_unemployment(
        u.values, v.values, ba.EfficiencyCalibration(beveridge_elasticity=eps),
        start=u.start) for eps in (ba.MS_ELASTICITY, ba.STEEP_ELASTICITY))
    return u.values, flat, steep


def test_criteria_7_to_9_run_on_a_simulated_panel(paper_sim):
    panel = paper_sim.panel
    cols = {"u_rate": panel.U, "v_rate": panel.V, "u_short": panel.U_short}
    pre, post, point = matching_table(cols)
    assert pre.n_obs > 0 and post.n_obs > 0 and point.N_tilde_0 == 0.0
    assert len(ordering_table(cols).rows) == 6
    assert all(len(series) == len(panel.U) for series in efficiency_exercise(cols))


@needs_data
def test_criterion_7_matching_table_reproduction():
    pre, post, point = matching_table(_load_real_panel())
    assert abs(pre.ln_sigma_bar - (-0.77)) <= 0.02
    assert abs(pre.alpha - 0.27) <= 0.03
    assert abs(post.ln_sigma_bar - (-1.00)) <= 0.02
    assert abs(post.alpha - 0.34) <= 0.03
    assert abs(point.S_0 - 0.068) <= 0.002
    assert abs(point.x_0 - 0.020) <= 0.002
    assert abs(point.sigma_0 - 0.359) <= 0.002
    ok(7, f"pre ({pre.ln_sigma_bar:.2f}, {pre.alpha:.2f}), "
          f"post ({post.ln_sigma_bar:.2f}, {post.alpha:.2f}), "
          f"point ({point.S_0:.3f}, {point.x_0:.3f}, {point.sigma_0:.3f})")


@needs_data
def test_criterion_8_ordering_table_reproduction():
    table = ordering_table(_load_real_panel())
    printed = {
        ("dynamics", "separations", "matching"): (115.26, -177.18, 161.92),
        ("dynamics", "matching", "separations"): (115.26, -444.82, 429.55),
        ("separations", "dynamics", "matching"): (121.46, -183.38, 161.92),
        ("separations", "matching", "dynamics"): (213.19, -183.38, 70.19),
        ("matching", "dynamics", "separations"): (205.80, -444.82, 339.01),
        ("matching", "separations", "dynamics"): (213.19, -452.21, 339.01),
    }
    rows = {r.ordering: r for r in table.rows}
    for ordering, want in printed.items():
        got = tuple(rows[ordering].percent.values())
        for g, w in zip(got, want):
            assert abs(g - w) <= 1.0, (ordering, got, want)
        assert got[0] > 0 and got[1] < 0 and got[2] > 0
    ok(8, "six-ordering table within +-1pp of the printed values")


@needs_data
def test_criterion_9_efficiency_exercise():
    u, flat, steep = efficiency_exercise(_load_real_panel())
    defined = ~np.isnan(flat)
    assert (steep[defined] > flat[defined]).all()
    assert steep[defined].min() > 0.035
    assert steep[defined].max() < 0.065
    gap_flat = np.abs(u[defined] - flat[defined]).mean()
    gap_steep = np.abs(u[defined] - steep[defined]).mean()
    ratio = gap_steep / gap_flat
    assert abs(ratio - 0.5) <= 0.125
    ok(9, f"u* in [{steep[defined].min():.3f}, "
          f"{steep[defined].max():.3f}]; gap ratio {ratio:.2f}")


def test_criterion_10_efficiency_property_grid():
    grid_eps = np.linspace(0.5, 2.5, 10)
    grid_cost = np.linspace(0.5, 1.5, 10)
    u, v = np.array([0.06]), np.array([0.03])
    violations = 0

    def u_star(eps, cv, cu):
        cal = EfficiencyCalibration(beveridge_elasticity=eps, vacancy_cost=cv,
                                    unemployment_cost=cu)
        return float(ba.efficient_unemployment(u, v, cal, start=MonthDate(2000, 1))[0])

    for cv in grid_cost:
        stars = [u_star(e, cv, 0.74) for e in grid_eps]
        violations += sum(not a < b for a, b in zip(stars, stars[1:]))
    for e in grid_eps:
        in_cv = [u_star(e, cv, 0.74) for cv in grid_cost]
        violations += sum(not a < b for a, b in zip(in_cv, in_cv[1:]))
        in_cu = [u_star(e, 0.92, cu) for cu in grid_cost]
        violations += sum(not a > b for a, b in zip(in_cu, in_cu[1:]))
        for lam in (0.5, 3.0):
            base = u_star(e, 0.92, 0.74)
            scaled = u_star(e, 0.92 * lam, 0.74 * lam)
            violations += abs(scaled / base - 1.0) > 1e-13
    assert violations == 0
    ok(10, "monotonicity and cost-ratio homogeneity: zero violations "
           "over the 10x10 grid")

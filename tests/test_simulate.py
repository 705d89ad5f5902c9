import math

import numpy as np
import pytest

import beveridge_accounting as ba
from beveridge_accounting import (MonthDate, SimulationSpec, exact_vacancies,
                                  rake_transition_rates, simulate_two_state,
                                  three_state_exact_vacancies)
from beveridge_accounting.flows_three_state import RATE_NAMES
from conftest import make_three_state_steady

START = MonthDate(2000, 1)


class TestTwoStateSimulation:
    def test_steady_state_is_constant(self):
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=24, s_path=0.02,
                              sigma_path=0.36)
        sim = simulate_two_state(spec)
        np.testing.assert_allclose(sim.panel.U.values, 0.06, rtol=1e-14)
        v = sim.panel.V.values
        np.testing.assert_allclose(v, v[0], rtol=1e-14)
        # the constant point lies on the steady-state curve
        point = ba.ApproximationPoint(U_bar=0.06, s_bar=0.02, sigma_bar=0.36,
                                      alpha=0.3)
        (_, v_ss), = ba.steady_state_curve([0.06], point)
        assert v[0] == pytest.approx(v_ss, rel=1e-13)

    def test_pipeline_recovers_planted_truths(self, recession_sim):
        panel = recession_sim.panel
        np.testing.assert_allclose(panel.f.values[:-1],
                                   recession_sim.f_true.values[:-1], atol=1e-12)
        np.testing.assert_allclose(panel.s.values[:-1],
                                   recession_sim.s_true.values[:-1], atol=1e-12)
        theta = ba.two_state_tightness(panel.U, panel.V)
        sigma = ba.matching_efficiency_path(panel.f, theta, 0.3)
        np.testing.assert_allclose(sigma.values[:-1],
                                   recession_sim.sigma_true.values[:-1],
                                   atol=1e-12)

    def test_alpha_recovered_exactly_without_noise(self):
        rng = np.random.default_rng(0)
        du = 0.0015 * np.sin(2 * np.pi * np.arange(119) / 40)
        s_path = 0.02 * (1 + 0.15 * np.sin(2 * np.pi * np.arange(120) / 31))
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=120, s_path=s_path,
                              sigma_path=0.36, delta_u_path=du)
        sim = simulate_two_state(spec)
        theta = ba.two_state_tightness(sim.panel.U, sim.panel.V)
        est = ba.estimate_matching(sim.panel.f, theta)
        assert est.alpha == pytest.approx(0.3, abs=1e-10)
        assert est.ln_sigma_bar == pytest.approx(math.log(0.36), abs=1e-10)

    def test_planted_v_path_mode(self):
        v_path = np.linspace(0.028, 0.035, 36)
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=36, s_path=0.02,
                              sigma_path=0.36, v_path=v_path)
        sim = simulate_two_state(spec)
        np.testing.assert_array_equal(sim.panel.V.values, v_path)
        np.testing.assert_allclose(sim.panel.f.values[:-1],
                                   sim.f_true.values[:-1], atol=1e-14)

    def test_efficiency_break_moves_matching_shifter(self):
        n = 60
        sigma_path = np.full(n, 0.36)
        sigma_path[30:] *= 0.75
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=n, s_path=0.02,
                              sigma_path=sigma_path)
        sim = simulate_two_state(spec)
        theta = ba.two_state_tightness(sim.panel.U, sim.panel.V)
        sigma_hat = ba.matching_efficiency_path(sim.panel.f, theta, 0.3)
        point = ba.ApproximationPoint(U_bar=0.06, s_bar=0.02, sigma_bar=0.36,
                                      alpha=0.3)
        paths = ba.shifter_paths(sim.panel.U, sim.panel.s, sigma_hat, point,
                                 START.shift(5))
        jump = paths.matching.values[40] - paths.matching.values[10]
        assert jump == pytest.approx(-(1 / 0.3) * math.log(0.75), rel=1e-10)

    def test_noise_is_seeded_and_reproducible(self):
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=40, s_path=0.02,
                              sigma_path=0.36, noise_std=0.02, seed=42)
        a = simulate_two_state(spec)
        b = simulate_two_state(spec)
        np.testing.assert_array_equal(a.panel.V.values, b.panel.V.values)
        c = simulate_two_state(SimulationSpec(alpha=0.3, u0=0.06, horizon=40,
                                              s_path=0.02, sigma_path=0.36,
                                              noise_std=0.02, seed=43))
        assert not np.array_equal(a.panel.V.values, c.panel.V.values)

    def test_bounds_violation_reported_with_month(self):
        du = np.full(23, 0.05)
        spec = SimulationSpec(alpha=0.3, u0=0.9, horizon=24, s_path=0.02,
                              sigma_path=0.36, delta_u_path=du)
        with pytest.raises(ValueError, match=r"left \(0, 1\) at 2000-0[0-9]"):
            simulate_two_state(spec)
        # both driving modes name the month and print the value as a plain float
        with pytest.raises(ValueError, match=r"left \(0, 1\) at 2000-02: -0\.0") as exc:
            simulate_two_state(SimulationSpec(alpha=0.3, u0=0.05, horizon=3, s_path=0.02,
                                              sigma_path=0.36,
                                              delta_u_path=np.array([-0.06, 0.0])))
        assert "np.float64" not in str(exc.value)
        with pytest.raises(ValueError, match=r"left \(0, 1\) at 2000-02: -") as exc:
            simulate_two_state(SimulationSpec(alpha=0.3, u0=0.05, horizon=3, s_path=0.02,
                                              sigma_path=5.0, v_path=np.full(3, 0.5)))
        assert "np.float64" not in str(exc.value)

    def test_vacancies_outside_unit_interval_rejected(self):
        # a low efficiency from 2000-07 on needs a vacancy rate above one
        # to produce the hires that hold unemployment steady
        sigma = np.r_[np.full(6, 0.36), np.full(18, 0.01)]
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=24, s_path=0.02,
                              sigma_path=sigma)
        with pytest.raises(ValueError, match=r"planted vacancies left \(0, 1\) "
                           r"at 2000-07: \d") as exc:
            simulate_two_state(spec)
        assert "np.float64" not in str(exc.value)
        # both driving modes: a planted vacancy path of zero from 2000-02 on
        with pytest.raises(ValueError, match=r"planted vacancies left \(0, 1\) "
                           r"at 2000-02: 0\.0$"):
            simulate_two_state(SimulationSpec(alpha=0.3, u0=0.05, horizon=3, s_path=0.02,
                                              sigma_path=0.36,
                                              v_path=np.array([0.03, 0.0, 0.0])))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="not both"):
            SimulationSpec(alpha=0.3, u0=0.06, horizon=12, s_path=0.02,
                           sigma_path=0.36, delta_u_path=np.zeros(11),
                           v_path=np.full(12, 0.03))
        for noise in (-0.1, np.nan):
            with pytest.raises(ValueError, match="noise_std"):
                SimulationSpec(alpha=0.3, u0=0.06, horizon=12, s_path=0.02,
                               sigma_path=0.36, noise_std=noise)
        with pytest.raises(ValueError, match="positive"):
            simulate_two_state(SimulationSpec(alpha=0.3, u0=0.06, horizon=12,
                                              s_path=-0.02, sigma_path=0.36))
        # NaN initial stocks fail the comparisons, so they are rejected too
        for u0, n0 in ((np.nan, 0.3), (0.06, np.nan)):
            with pytest.raises(ValueError, match="initial stocks"):
                ba.ThreeStateSimulationSpec(alpha=0.3, u0=u0, n0=n0, horizon=12,
                                            rates={})


class TestThreeStateSimulation:
    def test_raking_is_a_noop_on_consistent_rates(self):
        sim = make_three_state_steady(horizon=12)
        raked, report = rake_transition_rates(
            (sim.panel.E, sim.panel.U, sim.panel.N), sim.panel.rates())
        for name in RATE_NAMES:
            np.testing.assert_allclose(raked[name].values[:-1],
                                       sim.panel.rates()[name].values[:-1],
                                       atol=1e-12)
        assert report.worst_residual < 1e-12

    def test_identity_reproduces_planted_vacancies(self):
        sim = make_three_state_steady(horizon=12)
        got = three_state_exact_vacancies(sim.panel, sim.alpha, sim.sigma_true)
        ok = ~np.isnan(sim.V.values)
        np.testing.assert_allclose(got.values[ok], sim.V.values[ok], rtol=1e-12)

    def test_reduction_to_two_state(self):
        # no nonemployment: the three-state panel runs through the two-state
        # machinery and reproduces the same vacancies and flows
        rates = {"eu": 0.02, "en": 0.0, "ue": 0.25, "un": 0.0, "ne": 0.0,
                 "nu": 0.0}
        spec = ba.ThreeStateSimulationSpec(alpha=0.3, u0=0.06, n0=0.0,
                                           horizon=24, rates=rates,
                                           sigma_path=0.36)
        sim = ba.simulate_three_state(spec)
        np.testing.assert_array_equal(sim.panel.N.values, 0.0)
        np.testing.assert_allclose(sim.panel.x.values, 0.02, rtol=1e-15)

        u_short = np.empty(24)
        u_short[0] = np.nan
        u_short[1:] = 0.02 * (1 - sim.panel.U.values[:-1])
        two = ba.build_two_state_panel(
            sim.panel.U, sim.V.with_values(np.nan_to_num(sim.V.values, nan=0.03)),
            sim.panel.U.with_values(u_short))
        np.testing.assert_allclose(two.f.values[:-1], 0.25, rtol=1e-12)
        np.testing.assert_allclose(two.s.values[:-1], 0.02, rtol=1e-12)

        sigma = sim.sigma_true
        v2 = exact_vacancies(sim.panel.U, two.s, sigma, 0.3, warn=False)
        np.testing.assert_allclose(v2.values[:-1], sim.V.values[:-1], rtol=1e-12)

    def test_vacancies_outside_unit_interval_rejected(self):
        # a low efficiency from 2000-07 on needs a vacancy rate above one
        # to produce the planted hires
        sigma = np.r_[np.full(6, 0.36), np.full(18, 0.01)]
        with pytest.raises(ValueError, match=r"planted vacancies left \(0, 1\) "
                           r"at 2000-07: \d") as exc:
            make_three_state_steady(horizon=24, sigma=sigma)
        assert "np.float64" not in str(exc.value)
        assert (make_three_state_steady(horizon=24).V.values[:-1] < 1.0).all()

    def test_degenerate_paths_rejected(self):
        # total separation of the whole workforce empties employment
        rates = {"eu": 0.5, "en": 0.5, "ue": 0.0, "un": 0.0, "ne": 0.0,
                 "nu": 0.0}
        spec = ba.ThreeStateSimulationSpec(alpha=0.3, u0=0.05, n0=0.05,
                                           horizon=12, rates=rates,
                                           sigma_path=0.36)
        with pytest.raises(ValueError, match="simplex"):
            ba.simulate_three_state(spec)


def test_csv_roundtrip_fidelity(tmp_path, recession_sim):
    panel = recession_sim.panel
    path = tmp_path / "panel.csv"
    ba.write_panel(path, {"u_rate": panel.U, "v_rate": panel.V,
                          "u_short": panel.U_short})
    back = ba.read_panel(path)
    for name, want in (("u_rate", panel.U), ("v_rate", panel.V),
                       ("u_short", panel.U_short)):
        np.testing.assert_array_equal(np.isnan(back[name].values),
                                      np.isnan(want.values))
        ok = ~np.isnan(want.values)
        np.testing.assert_array_equal(back[name].values[ok], want.values[ok])

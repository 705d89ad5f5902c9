import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beveridge_accounting as ba
from beveridge_accounting import (MonthDate, SimulationSpec, rake_transition_rates,
                                  simulate_two_state)
from beveridge_accounting.flows_three_state import RATE_NAMES
from beveridge_accounting.simulate import _law_of_motion
from conftest import identity, make_three_state_steady

START = MonthDate(2000, 1)


def loop_unemployment(u0, du, start):
    """U by the law of motion, one month at a time; ValueError naming the
    first month outside (0, 1), as `simulate_two_state` reports it."""
    u = np.empty(len(du) + 1)
    u[0] = u0
    for t in range(len(du)):
        u[t + 1] = u[t] + du[t]
        if not 0.0 < u[t + 1] < 1.0:
            raise ValueError(f"unemployment left (0, 1) at {start.shift(t + 1)}: "
                             f"{float(u[t + 1])!r}")
    return u


SMALL_STEPS = st.floats(-1e-3, 1e-3)
# each of these leaves (0, 1) from any u in it, or is nan
LEAVING_STEPS = st.one_of(st.sampled_from([1.0, -1.0, 1e308, -1e308, np.inf, -np.inf,
                                           np.nan]),
                          st.floats(1.0, 1e308).flatmap(lambda x: st.sampled_from([x, -x])))


@st.composite
def unemployment_paths(draw):
    """(u0, delta-u path, whether it leaves (0, 1)).  A kept path stays in
    [0.05, 0.55]; a leaving one has a step that leaves (0, 1) wherever U is,
    after steps that may leave first and before steps that may overflow."""
    if draw(st.booleans()):
        return (draw(st.floats(0.2, 0.4)),
                draw(st.lists(SMALL_STEPS, min_size=1, max_size=150)), False)
    u0 = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    before = draw(st.lists(st.one_of(SMALL_STEPS, st.floats(-2.0, 2.0)), max_size=40))
    after = draw(st.lists(st.one_of(SMALL_STEPS, LEAVING_STEPS), max_size=40))
    return u0, [*before, draw(LEAVING_STEPS), *after], True


def loop_stocks(u0, n0, rates, start):
    """U and N by the laws of motion, one month at a time on numpy scalars;
    ValueError naming the first month that leaves the simplex, as
    `simulate_three_state` reports it."""
    n = len(rates["eu"])
    U = np.empty(n)
    N = np.empty(n)
    U[0], N[0] = u0, n0
    for t in range(n - 1):
        E_t = 1.0 - U[t] - N[t]
        dU = (E_t * rates["eu"][t] + N[t] * rates["nu"][t]
              - U[t] * rates["un"][t] - U[t] * rates["ue"][t])
        dN = (E_t * rates["en"][t] + U[t] * rates["un"][t]
              - N[t] * rates["ne"][t] - N[t] * rates["nu"][t])
        U[t + 1] = U[t] + dU
        N[t + 1] = N[t] + dN
        if U[t + 1] < 0.0 or N[t + 1] < 0.0 or U[t + 1] + N[t + 1] >= 1.0:
            raise ValueError(f"stocks left the simplex at {start.shift(t + 1)}")
    return U, N


TAME_RATES = st.floats(0.0, 0.5)
# negative, above one, or huge, so the stocks may leave the simplex; a huge
# pair (x, -x) overflows in the months after they leave
WILD_RATES = st.one_of(st.floats(-2.0, 2.0),
                       st.floats(1.0, 1e300).flatmap(lambda x: st.sampled_from([x, -x])))


@st.composite
def three_state_paths(draw):
    """(u0, n0, {rate name: path}), the paths all tame, which keep the stocks
    in the simplex up to rounding, or all wild.  Where a state's two exit rates sum
    above one, the second is the first negated, so the simulator's stayer
    check passes every month."""
    months = draw(st.integers(2, 30))
    rates = np.array(draw(st.lists(TAME_RATES if draw(st.booleans()) else WILD_RATES,
                                   min_size=6 * months, max_size=6 * months)))
    exits = rates.reshape(months, 3, 2)
    over = exits.sum(axis=2) > 1.0
    exits[over, 1] = -exits[over, 0]
    return (draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.45)),
            dict(zip(RATE_NAMES, rates.reshape(months, 6).T.copy())))


class TestTwoStateSimulation:
    def test_steady_state_is_constant(self):
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=24, s_path=0.02,
                              sigma_path=0.36)
        sim = simulate_two_state(spec)
        np.testing.assert_allclose(sim.panel.U.values, 0.06, rtol=1e-14)
        v = sim.panel.V.values
        np.testing.assert_allclose(v, v[0], rtol=1e-14)
        # the constant point lies on the steady-state curve
        point = ba.ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.36,
                                      alpha=0.3)
        v_ss, = ba.counterfactual_vacancies(sim.panel, sim.sigma_true, point,
                                            [ba.MARGINS]).values()
        np.testing.assert_allclose(v, v_ss, rtol=1e-13)

    def test_pipeline_recovers_planted_truths(self, recession_sim):
        panel = recession_sim.panel
        np.testing.assert_allclose(panel.f.values[:-1],
                                   recession_sim.f_true.values[:-1], atol=1e-12)
        np.testing.assert_allclose(panel.s.values[:-1],
                                   recession_sim.s_true.values[:-1], atol=1e-12)
        theta = ba.tightness(panel.U, panel.V)
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
        theta = ba.tightness(sim.panel.U, sim.panel.V)
        est = ba.estimate_matching(sim.panel.f, theta)
        assert est.alpha == pytest.approx(0.3, abs=1e-10)
        assert est.ln_sigma_bar == pytest.approx(math.log(0.36), abs=1e-10)

    def test_efficiency_break_moves_matching_shifter(self):
        n = 60
        sigma_path = np.full(n, 0.36)
        sigma_path[30:] *= 0.75
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=n, s_path=0.02,
                              sigma_path=sigma_path)
        sim = simulate_two_state(spec)
        theta = ba.tightness(sim.panel.U, sim.panel.V)
        sigma_hat = ba.matching_efficiency_path(sim.panel.f, theta, 0.3)
        point = ba.ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.36,
                                      alpha=0.3)
        paths = ba.shifter_paths(
            ba.three_state_loglinear(sim.panel, sigma_hat, point),
            START.shift(5))
        jump = paths["matching"].values[40] - paths["matching"].values[10]
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
        # the month is named and the value printed as a plain float
        with pytest.raises(ValueError, match=r"left \(0, 1\) at 2000-02: -0\.0") as exc:
            simulate_two_state(SimulationSpec(alpha=0.3, u0=0.05, horizon=3, s_path=0.02,
                                              sigma_path=0.36,
                                              delta_u_path=np.array([-0.06, 0.0])))
        assert "np.float64" not in str(exc.value)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(unemployment_paths())
    def test_unemployment_path_matches_per_month_loop(self, drawn):
        # bit for bit where U stays in (0, 1), the same text where it leaves,
        # and no RuntimeWarning from the months past the first one outside
        u0, du, leaves = drawn
        spec = SimulationSpec(alpha=0.3, u0=u0, horizon=len(du) + 1, s_path=0.02,
                              sigma_path=1000.0, delta_u_path=np.array(du))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if leaves:
                with pytest.raises(ValueError) as want:
                    loop_unemployment(u0, du, START)
                with pytest.raises(ValueError) as got:
                    simulate_two_state(spec)
                assert str(got.value) == str(want.value)
            else:
                got = simulate_two_state(spec).panel.U.values
                want = loop_unemployment(u0, du, START)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

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

    def test_spec_validation(self):
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
        # every month must have a YYYY-MM date: 9999-01 plus 12 is the last
        SimulationSpec(alpha=0.3, u0=0.06, horizon=12, s_path=0.02, sigma_path=0.36,
                       start=MonthDate(9999, 1))
        with pytest.raises(ValueError, match="13 months from 9999-01 run past 9999-12"):
            SimulationSpec(alpha=0.3, u0=0.06, horizon=13, s_path=0.02,
                           sigma_path=0.36, start=MonthDate(9999, 1))
        with pytest.raises(ValueError, match="13 months from 9999-01 run past 9999-12"):
            ba.ThreeStateSimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=13,
                                        rates=dict.fromkeys(RATE_NAMES, 0.02),
                                        start=MonthDate(9999, 1))


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
        got = identity(sim.panel, sim.sigma_true, sim.alpha)
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
        v2 = identity(two, sigma, 0.3)
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

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(three_state_paths())
    def test_law_of_motion_matches_per_month_loop(self, drawn):
        # bit for bit where the stocks stay in the simplex, the same text
        # where they leave, and no RuntimeWarning from the months after
        u0, n0, rates = drawn
        spec = ba.ThreeStateSimulationSpec(alpha=0.3, u0=u0, n0=n0,
                                           horizon=len(rates["eu"]), rates=rates)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                want = loop_stocks(u0, n0, rates, START)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    ba.simulate_three_state(spec)
                assert str(got.value) == str(exc)
            else:
                for got, path in zip(_law_of_motion(u0, n0, rates), want):
                    assert got.view(np.uint64).tolist() == path.view(np.uint64).tolist()

    def test_exit_rates_raking_refuses_are_refused(self):
        # the first month-pair whose exits from a state sum above one; the
        # last month's rates start no pair, and raking does not read them
        def spec(*months):
            un = np.full(12, 0.03)
            un[list(months)] = 0.8
            rates = {"eu": 0.02, "en": 0.02, "ue": 0.25, "un": un, "ne": 0.04,
                     "nu": 0.02}
            return ba.ThreeStateSimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=12,
                                               rates=rates, sigma_path=0.36)
        with pytest.raises(ValueError, match=r"^month 2000-06: negative stayer "
                           r"probability in state 1: exit rates sum to 1\.05$"):
            ba.simulate_three_state(spec(5, 8))
        sim = ba.simulate_three_state(spec(11))
        rake_transition_rates((sim.panel.E, sim.panel.U, sim.panel.N), sim.panel.rates())

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

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beveridge_accounting as ba
from beveridge_accounting import (MonthDate, SimulationSpec, build_three_state_panel,
                                  rake_transition_rates, simulate)
from beveridge_accounting.flows_three_state import RATE_NAMES
from beveridge_accounting.simulate import _law_of_motion
from conftest import identity, make_three_state_steady
import reference_simulate

START = MonthDate(2000, 1)


def loop_unemployment(u0, du, start):
    """U by the law of motion, one month at a time; ValueError naming the
    first month outside (0, 1), as `simulate` reports it."""
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
    ValueError naming the first month that starts a month-pair with a
    negative rate, else the first month that leaves the simplex, as
    `simulate` reports them."""
    n = len(rates["eu"])
    for t in range(n - 1):
        for name in RATE_NAMES:
            if rates[name][t] < 0.0:
                raise ValueError(f"month {start.shift(t)}: negative transition rate "
                                 f"{name}: {float(rates[name][t])!r}")
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
    in the simplex up to rounding, or all wild but eu, which stays positive.
    Where a state's two exit rates sum above one, the second is the first
    negated, so such a month fails as a negative rate, not as a stayer."""
    months = draw(st.integers(2, 30))
    tame = draw(st.booleans())
    rates = np.array(draw(st.lists(TAME_RATES if tame else WILD_RATES,
                                   min_size=6 * months, max_size=6 * months)))
    # eu is the spec's s_path, which must be positive; huge, it still overflows
    rates[::6] = draw(st.lists(st.floats(0.0, 0.5 if tame else 1e300, exclude_min=True),
                               min_size=months, max_size=months))
    exits = rates.reshape(months, 3, 2)
    over = exits.sum(axis=2) > 1.0
    exits[over, 1] = -exits[over, 0]
    return (draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.45)),
            dict(zip(RATE_NAMES, rates.reshape(months, 6).T.copy())))


class TestTwoStateSimulation:
    def test_steady_state_is_constant(self):
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=24, s_path=0.02,
                              sigma_path=0.36)
        sim = simulate(spec)
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
                                   recession_sim.rates["ue"].values[:-1], atol=1e-12)
        np.testing.assert_allclose(panel.s.values[:-1],
                                   recession_sim.rates["eu"].values[:-1], atol=1e-12)
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
        sim = simulate(spec)
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
        sim = simulate(spec)
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
        a = simulate(spec)
        b = simulate(spec)
        np.testing.assert_array_equal(a.panel.V.values, b.panel.V.values)
        c = simulate(SimulationSpec(alpha=0.3, u0=0.06, horizon=40,
                                              s_path=0.02, sigma_path=0.36,
                                              noise_std=0.02, seed=43))
        assert not np.array_equal(a.panel.V.values, c.panel.V.values)

    def test_bounds_violation_reported_with_month(self):
        du = np.full(23, 0.05)
        spec = SimulationSpec(alpha=0.3, u0=0.9, horizon=24, s_path=0.02,
                              sigma_path=0.36, delta_u_path=du)
        with pytest.raises(ValueError, match=r"left \(0, 1\) at 2000-0[0-9]"):
            simulate(spec)
        # the month is named and the value printed as a plain float
        with pytest.raises(ValueError, match=r"left \(0, 1\) at 2000-02: -0\.0") as exc:
            simulate(SimulationSpec(alpha=0.3, u0=0.05, horizon=3, s_path=0.02,
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
                    simulate(spec)
                assert str(got.value) == str(want.value)
            else:
                got = simulate(spec).panel.U.values
                want = loop_unemployment(u0, du, START)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_vacancies_outside_unit_interval_rejected(self):
        # a low efficiency from 2000-07 on needs a vacancy rate above one
        # to produce the hires that hold unemployment steady
        sigma = np.r_[np.full(6, 0.36), np.full(18, 0.01)]
        spec = SimulationSpec(alpha=0.3, u0=0.06, horizon=24, s_path=0.02,
                              sigma_path=sigma)
        with pytest.raises(ValueError, match=r"planted vacancy rate outside \(0, 1\) "
                           r"at 2000-07: \d") as exc:
            simulate(spec)
        assert "np.float64" not in str(exc.value)

    def test_spec_validation(self):
        for noise in (-0.1, np.nan):
            with pytest.raises(ValueError, match="noise_std"):
                SimulationSpec(alpha=0.3, u0=0.06, horizon=12, s_path=0.02,
                               sigma_path=0.36, noise_std=noise)
        with pytest.raises(ValueError, match="positive"):
            simulate(SimulationSpec(alpha=0.3, u0=0.06, horizon=12,
                                              s_path=-0.02, sigma_path=0.36))
        # NaN initial stocks fail the comparisons, so they are rejected too
        for u0, n0 in ((np.nan, 0.3), (0.06, np.nan)):
            with pytest.raises(ValueError, match="initial stocks"):
                SimulationSpec(alpha=0.3, u0=u0, n0=n0, horizon=12, s_path=0.02,
                               sigma_path=0.36)
        # every month must have a YYYY-MM date: 9999-01 plus 12 is the last
        SimulationSpec(alpha=0.3, u0=0.06, horizon=12, s_path=0.02, sigma_path=0.36,
                       start=MonthDate(9999, 1))
        with pytest.raises(ValueError, match="13 months from 9999-01 run past 9999-12"):
            SimulationSpec(alpha=0.3, u0=0.06, horizon=13, s_path=0.02,
                           sigma_path=0.36, start=MonthDate(9999, 1))
        with pytest.raises(ValueError, match="13 months from 9999-01 run past 9999-12"):
            SimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=13, s_path=0.02,
                           sigma_path=0.36, rates=dict.fromkeys(RATE_NAMES[1:], 0.02),
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
        # the identity has no next month at the panel's last; the planted V
        # continues there in steady state
        sim = make_three_state_steady(horizon=12)
        got = identity(sim.panel, sim.sigma_true, sim.alpha)
        np.testing.assert_allclose(got.values[:-1], sim.V.values[:-1], rtol=1e-12)
        assert np.isnan(got.values[-1]) and 0.0 < sim.V.values[-1] < 1.0

    def test_no_nonemployment_gives_the_two_state_panel(self):
        # N = 0 with en = un = ne = nu = 0: the two-state panel, whose
        # constructed flows and identity recover the planted rates and V
        sim = simulate(SimulationSpec(
            alpha=0.3, u0=0.06, n0=0.0, horizon=24, s_path=0.02, sigma_path=0.36,
            rates={"en": 0.0, "ue": 0.25, "un": 0.0, "ne": 0.0, "nu": 0.0}))
        assert isinstance(sim.panel, ba.TwoStatePanel)
        assert sim.panel.V is sim.V
        np.testing.assert_allclose(sim.panel.f.values[:-1], 0.25, rtol=1e-12)
        np.testing.assert_allclose(sim.panel.s.values[:-1], 0.02, rtol=1e-12)
        v2 = identity(sim.panel, sim.sigma_true, 0.3)
        np.testing.assert_allclose(v2.values[:-1], sim.V.values[:-1], rtol=1e-12)
        # any nonemployment makes it a three-state panel
        for n0, rates in ((0.1, {}), (0.0, {"un": 0.01}), (0.0, {"nu": 0.01})):
            sim = simulate(SimulationSpec(alpha=0.3, u0=0.06, n0=n0, horizon=12,
                                          s_path=0.02, sigma_path=0.36, rates=rates))
            assert isinstance(sim.panel, ba.ThreeStatePanel)

    def test_vacancies_outside_unit_interval_rejected(self):
        # a low efficiency from 2000-07 on needs a vacancy rate above one
        # to produce the planted hires
        sigma = np.r_[np.full(6, 0.36), np.full(18, 0.01)]
        with pytest.raises(ValueError, match=r"planted vacancy rate outside \(0, 1\) "
                           r"at 2000-07: \d") as exc:
            make_three_state_steady(horizon=24, sigma=sigma)
        assert "np.float64" not in str(exc.value)
        assert (make_three_state_steady(horizon=24).V.values < 1.0).all()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(three_state_paths())
    def test_law_of_motion_matches_per_month_loop(self, drawn):
        # bit for bit where the stocks stay in the simplex, the same text
        # where a rate is negative or they leave, and no RuntimeWarning from
        # the months after
        u0, n0, rates = drawn
        spec = SimulationSpec(alpha=0.3, u0=u0, n0=n0, horizon=len(rates["eu"]),
                              s_path=rates["eu"], sigma_path=1.0,
                              rates={name: rates[name] for name in RATE_NAMES[1:]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                want = loop_stocks(u0, n0, rates, START)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    simulate(spec)
                assert str(got.value) == str(exc)
            else:
                for got, path in zip(_law_of_motion(u0, n0, rates), want):
                    assert got.view(np.uint64).tolist() == path.view(np.uint64).tolist()

    def test_eu_not_positive_is_refused(self):
        # eu is the spec's s_path, in three states as in two, in every month
        for eu in (0.0, -0.02, np.r_[np.full(11, 0.02), 0.0]):
            with pytest.raises(ValueError, match="^s_path must be strictly positive$"):
                simulate(SimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=12,
                                        s_path=eu, sigma_path=0.36, rates=CYCLE_RATES))

    def test_exit_rates_raking_refuses_are_refused(self):
        # the first month-pair whose exits from a state sum above one; the
        # last month's rates start no pair, and raking does not read them,
        # nor does the panel's rule that each rate lies in [0, 1] refuse them
        def spec(*months):
            un = np.full(12, 0.03)
            un[list(months)] = 0.8
            return SimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=12, s_path=0.02,
                                  sigma_path=0.36, rates={"en": 0.02, "ue": 0.25,
                                                          "un": un, "ne": 0.04, "nu": 0.02})
        with pytest.raises(ValueError, match=r"^month 2000-06: negative stayer "
                           r"probability in state 1: exit rates sum to 1\.05$"):
            simulate(spec(5, 8))
        sim = simulate(spec(11))
        rake_transition_rates((sim.panel.E, sim.panel.U, sim.panel.N), sim.panel.rates())
        build_three_state_panel(sim.panel.E, sim.panel.U, sim.panel.N, sim.panel.rates())

    def test_degenerate_paths_rejected(self):
        # total separation of the whole workforce empties employment
        rates = {"en": 0.5, "ue": 0.0, "un": 0.0, "ne": 0.0, "nu": 0.0}
        with pytest.raises(ValueError, match="simplex"):
            simulate(SimulationSpec(alpha=0.3, u0=0.05, n0=0.05, horizon=12, s_path=0.5,
                                    sigma_path=0.36, rates=rates))


# ---------------------------------------------------------------------------
# A planted unemployment change in three states: ue solved month by month
# ---------------------------------------------------------------------------

CYCLE_RATES = {"en": 0.02, "un": 0.03, "ne": 0.04, "nu": 0.02}


def cycle_spec(horizon=240, amplitude=0.001, **kwargs):
    du = amplitude * np.sin(2.0 * np.pi * np.arange(horizon - 1) / 48.0)
    return SimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=horizon, s_path=0.02,
                          sigma_path=0.36, rates=CYCLE_RATES, delta_u_path=du, **kwargs)


class TestPlantedChange:
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_planted_change_is_met_exactly(self, noise):
        spec = cycle_spec(noise_std=noise, seed=5)
        sim = simulate(spec)
        want = np.add.accumulate(np.append(0.06, spec.delta_u_path))
        assert sim.panel.U.values.view(np.uint64).tolist() == \
            want.view(np.uint64).tolist()
        # and by the solved rates, through the law of motion, to rounding
        U, N = _law_of_motion(0.06, 0.3, {k: v.values for k, v in sim.rates.items()})
        np.testing.assert_allclose(U, sim.panel.U.values, rtol=0, atol=1e-15)
        np.testing.assert_allclose(N, sim.panel.N.values, rtol=0, atol=1e-15)

    def test_raking_is_a_noop_on_the_planted_panel(self):
        sim = simulate(cycle_spec(noise_std=0.02, seed=5))
        raked, report = rake_transition_rates(
            (sim.panel.E, sim.panel.U, sim.panel.N), sim.panel.rates())
        assert np.nanmax(report.max_adjustment) <= 1e-15
        assert (report.iterations == 0).all()

    def test_identity_reproduces_planted_vacancies(self):
        sim = simulate(cycle_spec(noise_std=0.02, seed=5))
        got = identity(sim.panel, sim.sigma_true, sim.alpha)
        np.testing.assert_allclose(got.values[:-1], sim.V.values[:-1], rtol=1e-12)
        # the searcher finding rate is sigma (V / S)^alpha, as planted, in
        # every month: the last month's ue keeps E constant, as its V does
        theta = ba.tightness(sim.panel.S, sim.V)
        np.testing.assert_allclose(ba.matching_efficiency_path(sim.panel.f, theta,
                                                               0.3).values,
                                   sim.sigma_true.values, rtol=1e-12)

    def test_the_cycle_moves_the_searcher_finding_rate(self):
        # so ln(H/S) on ln(V/S) has variation to fit, and alpha is recovered
        sim = simulate(cycle_spec())
        f = sim.panel.f
        assert np.nanstd(np.log(f.values)) > 0.01
        # the last month too: its ue keeps E constant, as its V does
        est = ba.estimate_matching(f, ba.tightness(sim.panel.S, sim.V))
        assert est.alpha == pytest.approx(0.3, abs=1e-10)

    @pytest.mark.parametrize("solved", [False, True], ids=["ue-planted", "ue-solved"])
    def test_negative_rate_is_refused_as_raking_refuses_it(self, solved):
        # the stocks left the simplex some months later, and raking took
        # 1,000 Newton steps on the same rates
        en = np.full(48, 0.02)
        en[16] = -0.1
        rates = {**CYCLE_RATES, "en": en, **({} if solved else {"ue": 0.25})}
        spec = SimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=48, s_path=0.02,
                              sigma_path=0.36, rates=rates,
                              delta_u_path=np.zeros(47) if solved else None)
        message = "month 2001-05: negative transition rate en: -0.1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate(spec)
        panel = simulate(replace(spec, rates={**rates, "en": 0.02})).panel
        with pytest.raises(ValueError, match=f"^{message}$"):
            rake_transition_rates((panel.E, panel.U, panel.N),
                                  {**panel.rates(), "en": panel.en.with_values(en)})

    def test_solved_rate_not_positive_is_infeasible(self):
        du = np.zeros(11)
        du[4] = 0.05  # more than the month's whole inflow into unemployment
        for n0, rates in ((0.0, {}), (0.3, CYCLE_RATES)):
            spec = SimulationSpec(alpha=0.3, u0=0.06, n0=n0, horizon=12, s_path=0.02,
                                  sigma_path=0.36, rates=rates, delta_u_path=du)
            with pytest.raises(ValueError, match=r"^infeasible planted paths at 2000-05: "
                               r"the inflow cannot cover the unemployment change "
                               r"\(solved ue = -0\.\d+\)$"):
                simulate(spec)

    def test_solved_rate_raking_refuses_is_refused(self):
        # a fall in U larger than U itself asks for ue above one
        du = np.zeros(11)
        du[2] = -0.059
        spec = SimulationSpec(alpha=0.3, u0=0.06, n0=0.3, horizon=12, s_path=0.02,
                              sigma_path=0.36, rates=CYCLE_RATES, delta_u_path=du)
        with pytest.raises(ValueError, match=r"^month 2000-03: negative stayer "
                           r"probability in state 1: exit rates sum to 1\.\d+$"):
            simulate(spec)

    def test_spec_refuses_a_change_beside_ue_and_unknown_rates(self):
        base = dict(alpha=0.3, u0=0.06, horizon=12, s_path=0.02, sigma_path=0.36)
        with pytest.raises(ValueError, match="cannot give ue as well"):
            SimulationSpec(**base, rates={"ue": 0.25}, delta_u_path=np.zeros(11))
        for rates in ({"eu": 0.02}, {"xx": 0.1}):
            with pytest.raises(ValueError, match=r"rates takes en, ue, un, ne, nu, not"):
                SimulationSpec(**base, rates=rates)


# ---------------------------------------------------------------------------
# The one generator against the two it replaced (`reference_simulate`)
# ---------------------------------------------------------------------------

def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@st.composite
def two_state_specs(draw):
    """Keywords of a two-state spec: a drawn U cycle, separation and
    efficiency paths, and noise, each a scalar or a path."""
    n = draw(st.integers(2, 60))
    path = lambda lo, hi: st.one_of(  # noqa: E731
        st.floats(lo, hi), st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array))
    du = draw(st.one_of(st.none(), st.lists(st.floats(-2e-3, 2e-3), min_size=n - 1,
                                            max_size=n - 1).map(np.array)))
    return dict(alpha=draw(st.floats(0.1, 0.9)), u0=draw(st.floats(0.03, 0.2)),
                horizon=n, s_path=draw(path(0.005, 0.05)),
                sigma_path=draw(path(0.2, 0.8)), delta_u_path=du,
                noise_std=draw(st.sampled_from([0.0, 0.02])),
                seed=draw(st.integers(0, 2**32 - 1)))


@pytest.mark.filterwarnings("ignore::beveridge_accounting.ProbabilityRangeWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(two_state_specs())
def test_two_state_equals_the_former_generator(kwargs):
    # every field bit for bit, where the former generator builds a panel;
    # its finding rate sigma (V / U)^alpha is the solved ue to rounding
    try:
        want = reference_simulate.simulate_two_state(**kwargs)
    except ValueError:
        with pytest.raises(ValueError):
            simulate(SimulationSpec(**kwargs))
        return
    try:
        got = simulate(SimulationSpec(**kwargs))
    except ValueError as exc:
        # the former generator wrote a finding probability above one
        assert "negative stayer probability in state 1" in str(exc)
        assert np.nanmax(want.f_true.values) > 1.0
        return
    for name in ("U", "V", "U_short", "f", "s"):
        assert bits(getattr(got.panel, name).values) == \
            bits(getattr(want.panel, name).values), name
    assert bits(got.V.values) == bits(want.panel.V.values)
    assert bits(got.sigma_true.values) == bits(want.sigma_true.values)
    assert bits(got.rates["eu"].values[:-1]) == bits(want.s_true.values[:-1])
    np.testing.assert_allclose(got.rates["ue"].values[:-1], want.f_true.values[:-1],
                               rtol=0, atol=4.5e-16)
    assert list(got.rates) == ["eu", "ue"]
    assert got.alpha == want.alpha


@st.composite
def three_state_specs(draw):
    """(u0, n0, six rates, sigma) of a planted three-state panel near the
    US flows, each rate a scalar or a path."""
    n = draw(st.integers(2, 60))
    centres = {"eu": 0.015, "en": 0.02, "ue": 0.25, "un": 0.03, "ne": 0.04, "nu": 0.02}
    rates = {name: draw(st.one_of(
        st.floats(0.5 * c, 1.5 * c),
        st.lists(st.floats(0.5 * c, 1.5 * c), min_size=n, max_size=n).map(np.array)))
        for name, c in centres.items()}
    return (draw(st.floats(0.03, 0.1)), draw(st.floats(0.2, 0.4)), n, rates,
            draw(st.floats(0.2, 0.8)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(three_state_specs())
def test_three_state_equals_the_former_generator(drawn):
    # stocks, rates and V bit for bit over every month the former generator
    # planted a V for; its last month's V was missing
    u0, n0, n, rates, sigma = drawn
    spec = SimulationSpec(alpha=0.3, u0=u0, n0=n0, horizon=n, s_path=rates["eu"],
                          sigma_path=sigma,
                          rates={name: rates[name] for name in RATE_NAMES[1:]})
    try:
        want = reference_simulate.simulate_three_state(
            alpha=0.3, u0=u0, n0=n0, horizon=n, rates=rates, sigma_path=sigma)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            simulate(spec)
        assert str(refused.value) == str(exc)
        return
    got = simulate(spec)
    for name in ("E", "U", "N", *RATE_NAMES):
        assert bits(getattr(got.panel, name).values) == \
            bits(getattr(want.panel, name).values), name
        if name in RATE_NAMES:
            assert bits(got.rates[name].values) == bits(getattr(want.panel, name).values)
    assert bits(got.V.values[:-1]) == bits(want.V.values[:-1])
    assert np.isnan(want.V.values[-1]) and 0.0 < got.V.values[-1] < 1.0
    assert bits(got.sigma_true.values) == bits(want.sigma_true.values)


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

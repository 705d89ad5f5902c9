import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beveridge_accounting import (ApproximationPoint, MonthDate, MonthlySeries,
                                  ThreeStateApproximationPoint, ThreeStatePanel,
                                  derive_aggregates, exact_vacancies,
                                  loglinear_slope, loglinear_vacancies,
                                  shifter_paths, steady_state_curve,
                                  three_state_exact_vacancies,
                                  three_state_loglinear)
from beveridge_accounting.curve import (InfeasibleMonthWarning,
                                        dynamics_coefficient,
                                        matching_coefficient,
                                        separations_coefficient)

START = MonthDate(2000, 1)
POINT = ApproximationPoint(U_bar=0.068, s_bar=0.020, sigma_bar=0.359, alpha=0.3)


@st.composite
def two_state_worlds(draw):
    """(U path, constant s, sigma path, alpha): U wanders by up to 2% a
    month from a level in [2%, 15%]."""
    n = draw(st.integers(3, 40))
    steps = draw(arrays(float, n - 1, elements=st.floats(-0.02, 0.02)))
    u = draw(st.floats(0.02, 0.15)) * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    s = draw(st.floats(0.005, 0.1))
    sigma = draw(arrays(float, n, elements=st.floats(0.1, 2.0)))
    return u, s, sigma, draw(st.floats(0.1, 0.9))


def series(values):
    return MonthlySeries(START, values)


def exact_log_v(u, s, sigma, du_next, alpha):
    """Scalar oracle for the log of the vacancy identity."""
    num = s * (1.0 - u) - du_next
    return (math.log(num) - math.log(sigma) - (1.0 - alpha) * math.log(u)) / alpha


def bisect_vacancies(u, s, sigma, alpha, lo=1e-12, hi=10.0, tol=1e-14):
    """Root-finding oracle: sigma V^alpha u^(1-alpha) = s (1-u)."""
    target = s * (1.0 - u)

    def hires(v):
        return sigma * v ** alpha * u ** (1.0 - alpha)

    assert hires(lo) < target < hires(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hires(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * mid:
            break
    return 0.5 * (lo + hi)


class TestApproximationPoint:
    def test_v_bar_matches_bisection_oracle(self):
        oracle = bisect_vacancies(0.068, 0.020, 0.359, 0.3)
        assert POINT.V_bar == pytest.approx(oracle, rel=1e-10)

    def test_from_series_means(self):
        u = series(np.array([0.06, 0.07, 0.08]))
        s = series(np.array([0.019, 0.020, 0.021]))
        sg = series(np.array([0.35, 0.36, np.nan]))
        point = ApproximationPoint.from_series(u, s, sg, 0.3,
                                               (START, START.shift(2)))
        assert point.U_bar == pytest.approx(0.065)   # joint months only
        assert point.sigma_bar == pytest.approx(0.355)

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximationPoint(U_bar=0.0, s_bar=0.02, sigma_bar=0.3, alpha=0.3)
        with pytest.raises(ValueError):
            ApproximationPoint(U_bar=0.06, s_bar=0.02, sigma_bar=0.3, alpha=1.2)


class TestExactVacancies:
    def test_constant_inputs_match_bisection(self):
        u, s, sg, a = 0.05, 0.02, 0.359, 0.3
        got = exact_vacancies(series(np.full(3, u)), series(np.full(3, s)),
                              series(np.full(3, sg)), a)
        oracle = bisect_vacancies(u, s, sg, a)
        np.testing.assert_allclose(got.values[:-1], oracle, rtol=1e-10)
        assert np.isnan(got.values[-1])

    def test_sigma_homogeneity(self):
        u = series(np.array([0.05, 0.052, 0.051, 0.05]))
        s = series(np.full(4, 0.02))
        sg = series(np.full(4, 0.36))
        base = exact_vacancies(u, s, sg, 0.3)
        doubled = exact_vacancies(u, s, sg.with_values(2 * sg.values), 0.3)
        np.testing.assert_allclose(doubled.values[:-1],
                                   base.values[:-1] * 2.0 ** (-1 / 0.3),
                                   rtol=1e-12)

    def test_infeasible_month_flagged(self):
        u = series(np.array([0.05, 0.10, 0.10]))  # jump bigger than inflows
        s = series(np.full(3, 0.02))
        sg = series(np.full(3, 0.36))
        with pytest.warns(InfeasibleMonthWarning, match="2000-01") as record:
            got = exact_vacancies(u, s, sg, 0.3)
        assert record[0].filename == __file__  # attributed to the caller
        assert np.isnan(got.values[0])
        assert not np.isnan(got.values[1])

    def test_sign_structure(self):
        base = exact_log_v(0.068, 0.020, 0.359, 0.0, 0.3)
        assert exact_log_v(0.068, 0.022, 0.359, 0.0, 0.3) > base      # s up
        assert exact_log_v(0.068, 0.020, 0.395, 0.0, 0.3) < base      # sigma up
        assert exact_log_v(0.068, 0.020, 0.359, 0.0005, 0.3) < base   # dU > 0


class TestSteadyStateCurve:
    def test_passes_through_point(self):
        (u0, v0), = steady_state_curve([POINT.U_bar], POINT)
        assert v0 == pytest.approx(POINT.V_bar, rel=1e-14)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.02, 0.15, 40)
        vs = [v for _, v in steady_state_curve(grid, POINT)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_matches_identity_at_zero_change(self):
        u = 0.081
        (_, v), = steady_state_curve([u], POINT)
        got = exact_vacancies(series(np.full(2, u)),
                              series(np.full(2, POINT.s_bar)),
                              series(np.full(2, POINT.sigma_bar)), POINT.alpha)
        assert got.values[0] == pytest.approx(v, rel=1e-14)


class TestCoefficients:
    """Every linearization coefficient must equal a centered finite
    difference of the exact identity in its own coordinate."""

    H = 1e-6

    def fd(self, g):
        return (g(self.H) - g(-self.H)) / (2 * self.H)

    def test_slope(self):
        got = self.fd(lambda h: exact_log_v(POINT.U_bar * math.exp(h), POINT.s_bar,
                                            POINT.sigma_bar, 0.0, POINT.alpha))
        assert loglinear_slope(POINT) == pytest.approx(got, rel=1e-6)

    def test_dynamics(self):
        got = self.fd(lambda h: exact_log_v(POINT.U_bar, POINT.s_bar,
                                            POINT.sigma_bar,
                                            POINT.U_bar * math.expm1(h),
                                            POINT.alpha))
        assert dynamics_coefficient(POINT) == pytest.approx(got, rel=1e-6)

    def test_separations(self):
        got = self.fd(lambda h: exact_log_v(POINT.U_bar, POINT.s_bar * math.exp(h),
                                            POINT.sigma_bar, 0.0, POINT.alpha))
        assert separations_coefficient(POINT) == pytest.approx(got, rel=1e-6)
        assert separations_coefficient(POINT) == pytest.approx(1 / 0.3, rel=1e-14)

    def test_matching(self):
        got = self.fd(lambda h: exact_log_v(POINT.U_bar, POINT.s_bar,
                                            POINT.sigma_bar * math.exp(h), 0.0,
                                            POINT.alpha))
        assert matching_coefficient(POINT) == pytest.approx(got, rel=1e-6)

    def test_frozen_values_at_standard_point(self):
        p = ApproximationPoint(U_bar=0.068, s_bar=0.020, sigma_bar=0.359, alpha=0.3)
        assert dynamics_coefficient(p) == pytest.approx(
            -0.068 / (0.3 * 0.020 * (1 - 0.068)), rel=1e-14)
        assert dynamics_coefficient(p) == pytest.approx(-12.160229, abs=5e-7)
        assert separations_coefficient(p) == pytest.approx(10 / 3, rel=1e-14)
        assert matching_coefficient(p) == pytest.approx(-10 / 3, rel=1e-14)


def taylor_paths(point, level_band, step_band, n=160, seed=0):
    """Paths whose levels stay within +-level_band (relative) of the point
    and whose month-over-month log changes stay within step_band."""
    rng = np.random.default_rng(seed)
    cap = math.log1p(level_band)
    t = np.arange(n)

    def wiggle():
        offset = rng.uniform(-0.55 * cap, 0.55 * cap)
        amp = rng.uniform(0.1, 0.4) * cap
        period = max(2 * math.pi * amp / step_band, 8.0)
        phase = rng.uniform(0, 2 * math.pi)
        return offset + amp * np.sin(2 * math.pi * t / period + phase)

    u = series(point.U_bar * np.exp(wiggle()))
    s = series(point.s_bar * np.exp(wiggle()))
    sg = series(point.sigma_bar * np.exp(wiggle()))
    return u, s, sg


def max_taylor_error(point, level_band, step_band, seed):
    u, s, sg = taylor_paths(point, level_band, step_band, seed=seed)
    exact = exact_vacancies(u, s, sg, point.alpha, warn=False)
    approx = loglinear_vacancies(u, s, sg, point)
    with np.errstate(invalid="ignore"):
        gap = np.abs(np.log(exact.values) - approx.values)
    return np.nanmax(gap)


class TestTaylorAccuracy:
    def test_expansion_point_exact(self):
        u = series(np.full(3, POINT.U_bar))
        s = series(np.full(3, POINT.s_bar))
        sg = series(np.full(3, POINT.sigma_bar))
        approx = loglinear_vacancies(u, s, sg, POINT)
        np.testing.assert_allclose(approx.values[:-1], math.log(POINT.V_bar),
                                   rtol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_percent_band(self, seed):
        # dynamics coordinate scaled down: the identity's curvature in
        # d ln U is ~57, so a full 1% month-over-month change is outside
        # any tangent plane's 1e-3 reach
        assert max_taylor_error(POINT, 0.01, 0.01 / 20, seed) < 1e-3

    @pytest.mark.parametrize("seed", range(6))
    def test_ten_percent_band(self, seed):
        assert max_taylor_error(POINT, 0.10, 0.10 / 20, seed) < 5e-2


class TestShifterPaths:
    def test_constant_inputs_give_zero_shifters(self):
        n = 6
        u = series(np.full(n, POINT.U_bar))
        s = series(np.full(n, POINT.s_bar))
        sg = series(np.full(n, POINT.sigma_bar))
        paths = shifter_paths(u, s, sg, POINT, START.shift(1))
        for term in (paths.dynamics, paths.separations, paths.matching, paths.net):
            np.testing.assert_array_equal(term.values[:-1], 0.0)

    def test_zero_at_reference_and_additive(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        sigma = recession_pipeline["sigma_hat"]
        point = recession_pipeline["point"]
        ref = MonthDate(2007, 4)
        paths = shifter_paths(panel.U, panel.s, sigma, point, ref)
        assert paths.dynamics.at(ref) == 0.0
        assert paths.separations.at(ref) == 0.0
        assert paths.matching.at(ref) == 0.0
        total = (paths.dynamics.values + paths.separations.values
                 + paths.matching.values)
        np.testing.assert_array_equal(paths.net.values, total)

    def test_missing_reference_rejected(self):
        u = series(np.full(4, POINT.U_bar))
        s = series(np.full(4, POINT.s_bar))
        sg = series(np.full(4, POINT.sigma_bar))
        with pytest.raises(ValueError, match="reference month"):
            shifter_paths(u, s, sg, POINT, START.shift(3))  # last month: no dU

    def test_recession_sign_pattern(self, recession_pipeline):
        # planted recession: separations spike while unemployment rises, and
        # efficiency drops permanently; the shifters must reflect that
        panel = recession_pipeline["panel"]
        paths = shifter_paths(panel.U, panel.s, recession_pipeline["sigma_hat"],
                              recession_pipeline["point"], MonthDate(2007, 4))
        spike = slice(panel.U.index_of(MonthDate(2008, 1)),
                      panel.U.index_of(MonthDate(2009, 3)))
        rising = slice(panel.U.index_of(MonthDate(2007, 8)),
                       panel.U.index_of(MonthDate(2009, 6)))
        post = slice(panel.U.index_of(MonthDate(2010, 1)),
                     panel.U.index_of(MonthDate(2013, 1)))
        assert (paths.separations.values[spike] > 0).all()
        assert (paths.dynamics.values[rising] < 0).all()
        assert (paths.matching.values[post] > 0).all()

    def test_net_tracks_deviation_from_steady_curve(self, recession_pipeline):
        # net shift equals (loglinear lnV minus the steady-curve component),
        # renormalized to the reference month
        panel = recession_pipeline["panel"]
        sigma = recession_pipeline["sigma_hat"]
        point = recession_pipeline["point"]
        ref = MonthDate(2007, 4)
        paths = shifter_paths(panel.U, panel.s, sigma, point, ref)
        loglin = loglinear_vacancies(panel.U, panel.s, sigma, point)
        curve_part = (math.log(point.V_bar) + loglinear_slope(point)
                      * (np.log(panel.U.values) - math.log(point.U_bar)))
        raw_net = loglin.values - curve_part
        ref_idx = panel.U.index_of(ref)
        np.testing.assert_allclose(paths.net.values,
                                   raw_net - raw_net[ref_idx], atol=1e-12)


class TestSlopeValues:
    def test_limit_small_u(self):
        tiny = ApproximationPoint(U_bar=1e-9, s_bar=0.02, sigma_bar=0.359,
                                  alpha=0.273)
        assert loglinear_slope(tiny) == pytest.approx(-(1 - 0.273) / 0.273,
                                                      rel=1e-6)
        assert round(loglinear_slope(tiny), 2) == -2.66

    def test_alpha_point_three(self):
        tiny = ApproximationPoint(U_bar=1e-9, s_bar=0.02, sigma_bar=0.359,
                                  alpha=0.3)
        assert round(loglinear_slope(tiny), 2) == -2.33

    def test_matches_finite_difference_of_identity(self):
        h = 1e-5
        g = lambda lh: exact_log_v(POINT.U_bar * math.exp(lh), POINT.s_bar,  # noqa: E731
                                   POINT.sigma_bar, 0.0, POINT.alpha)
        fd = (g(h) - g(-h)) / (2 * h)
        assert loglinear_slope(POINT) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# Three-state analogues
# ---------------------------------------------------------------------------

def constant_aggregate_panel(s_star, nt_star, x_star, n=6, xi=0.1, ue=0.25,
                             u_path=None):
    """Panel whose searcher aggregates hit the requested constants.

    With `u_path`, unemployment (and hence S) varies while N stays fixed.
    """
    big_n = nt_star / (1.0 - xi)
    u0 = s_star - xi * big_n
    assert u0 > 0
    u = np.full(n, u0) if u_path is None else np.asarray(u_path)
    nn = np.full(n, big_n)
    e = 1.0 - u - nn
    mk = series
    rates = {"eu": x_star / 2, "en": x_star / 2, "ue": ue, "un": 0.02,
             "ne": xi * ue, "nu": 0.01}
    panel = ThreeStatePanel(E=mk(e), U=mk(u), N=mk(nn),
                            **{k: mk(np.full(n, v)) for k, v in rates.items()})
    return derive_aggregates(panel)


THREE_POINT = ThreeStateApproximationPoint(S_0=0.091, N_tilde_0=0.259,
                                           x_0=0.035, sigma_0=0.36, alpha=0.3)


class TestThreeState:
    def test_expansion_point_value(self):
        panel = constant_aggregate_panel(THREE_POINT.S_0, THREE_POINT.N_tilde_0,
                                         THREE_POINT.x_0)
        sigma = series(np.full(6, THREE_POINT.sigma_0))
        out = three_state_loglinear(panel, sigma, THREE_POINT)
        np.testing.assert_allclose(out.total.values[:-1],
                                   math.log(THREE_POINT.V_0), rtol=1e-12)
        exact = three_state_exact_vacancies(panel, 0.3, sigma)
        np.testing.assert_allclose(exact.values[:-1], THREE_POINT.V_0, rtol=1e-12)

    def test_term_additivity_exact(self):
        panel = constant_aggregate_panel(0.095, 0.25, 0.037)
        sigma = series(np.full(6, 0.34))
        out = three_state_loglinear(panel, sigma, THREE_POINT)
        total = math.log(THREE_POINT.V_0) + sum(t.values for t in
                                                out.terms().values())
        np.testing.assert_array_equal(out.total.values, total)

    @pytest.mark.parametrize("seed", range(4))
    def test_second_order_agreement(self, seed):
        rng = np.random.default_rng(seed)
        scale = np.exp(rng.uniform(-0.00995, 0.00995, 4))
        panel = constant_aggregate_panel(THREE_POINT.S_0 * scale[0],
                                         THREE_POINT.N_tilde_0 * scale[1],
                                         THREE_POINT.x_0 * scale[2])
        sigma = series(np.full(6, THREE_POINT.sigma_0 * scale[3]))
        approx = three_state_loglinear(panel, sigma, THREE_POINT).total
        exact = three_state_exact_vacancies(panel, THREE_POINT.alpha, sigma)
        gap = np.abs(approx.values[:-1] - np.log(exact.values[:-1]))
        assert gap.max() < 1e-3

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(two_state_worlds())
    def test_reduction_to_two_state(self, world):
        # no nonemployment at all (N = 0, so S = U and x = s): both models
        # agree, exactly and log-linearly, to 1e-12; infeasible months are
        # missing in both
        u, s, sigma_path, alpha = world
        n = len(u)
        zeros = series(np.zeros(n))
        panel = derive_aggregates(ThreeStatePanel(
            E=series(1.0 - u), U=series(u), N=zeros, eu=series(np.full(n, s)),
            en=zeros, ue=series(np.full(n, 0.25)), un=zeros, ne=zeros, nu=zeros))
        sigma = series(sigma_path)

        exact3 = three_state_exact_vacancies(panel, alpha, sigma, warn=False)
        exact2 = exact_vacancies(series(u), series(np.full(n, s)), sigma, alpha,
                                 warn=False)
        np.testing.assert_allclose(exact3.values, exact2.values, rtol=1e-12)

        u_bar, sigma_bar = float(u.mean()), float(sigma_path.mean())
        p3 = ThreeStateApproximationPoint(S_0=u_bar, N_tilde_0=0.0, x_0=s,
                                          sigma_0=sigma_bar, alpha=alpha)
        p2 = ApproximationPoint(U_bar=u_bar, s_bar=s, sigma_bar=sigma_bar,
                                alpha=alpha)
        assert p3.V_0 == pytest.approx(p2.V_bar, rel=1e-12)
        ll3 = three_state_loglinear(panel, sigma, p3).total
        ll2 = loglinear_vacancies(series(u), series(np.full(n, s)), sigma, p2)
        assert not np.isnan(ll2.values[:-1]).any()
        np.testing.assert_allclose(ll3.values, ll2.values, rtol=1e-12)

    def test_zero_nonsearcher_pool_error(self):
        panel = constant_aggregate_panel(0.091, 0.259, 0.035)
        # force one month's non-searcher pool to zero
        nt = panel.N_tilde.values.copy()
        nt[2] = 0.0
        import dataclasses
        broken = dataclasses.replace(panel, N_tilde=panel.N_tilde.with_values(nt))
        sigma = series(np.full(6, 0.36))
        with pytest.raises(ValueError, match="non-searcher pool"):
            three_state_loglinear(broken, sigma, THREE_POINT)

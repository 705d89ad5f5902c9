import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beveridge_accounting import (MARGINS, ApproximationPoint, MonthDate,
                                  MonthlySeries, ThreeStatePanel,
                                  counterfactual_vacancies, loglinear_slope,
                                  shifter_paths, three_state_loglinear, tightness)
from beveridge_accounting.curve import TERMS, _expansion_coefficients
from conftest import identity, two_state

START = MonthDate(2000, 1)
POINT = ApproximationPoint(S_0=0.068, N_tilde_0=0.0, x_0=0.020, sigma_0=0.359,
                           alpha=0.3)


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


def exact_vacancies(U, s, sigma, alpha):
    """The identity on two-state series (S = U, N_tilde = 0, x = s)."""
    return identity(two_state(U, s), sigma, alpha)


def steady_state_curve(u_grid, point):
    """The steady-state curve V(U) at `point` over `u_grid`: every margin
    held, so the observed s and sigma (missing here) are never read."""
    u = series(np.asarray(u_grid, dtype=float))
    unread = series(np.full(len(u), np.nan))
    (v,) = counterfactual_vacancies(two_state(u, unread), unread, point,
                                    [MARGINS]).values()
    return v


def dynamics_coefficient(point):
    """Coefficient on the month-ahead change in log unemployment."""
    return _expansion_coefficients(point)["searcher_dynamics"]


def separations_coefficient(point):
    return _expansion_coefficients(point)["separations"]


def matching_coefficient(point):
    return _expansion_coefficients(point)["matching"]


def two_state_shifters(U, s, sigma, point, reference):
    """The two-state shifters dynamics, separations and matching, plus net."""
    return shifter_paths(three_state_loglinear(two_state(U, s), sigma, point), reference,
                         ("searcher_dynamics", "separations", "matching"))


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
        assert POINT.V_0 == pytest.approx(oracle, rel=1e-10)

    def test_from_series_means(self):
        u = series(np.array([0.06, 0.07, 0.08]))
        s = series(np.array([0.019, 0.020, 0.021]))
        sg = series(np.array([0.35, 0.36, np.nan]))
        point = ApproximationPoint.from_series(u, s, sg, 0.3,
                                               (START, START.shift(2)))
        assert point.S_0 == pytest.approx(0.065)   # joint months only
        assert point.sigma_0 == pytest.approx(0.355)
        assert point == ApproximationPoint.from_panel(two_state(u, s), sg, 0.3,
                                                      (START, START.shift(2)))

    def test_from_panel_on_a_two_state_panel(self, recession_pipeline):
        panel, sigma = recession_pipeline["panel"], recession_pipeline["sigma_hat"]
        window = (MonthDate(2008, 1), panel.U.end)
        point = ApproximationPoint.from_panel(panel, sigma, 0.3, window)
        assert point.N_tilde_0 == 0.0
        assert point == ApproximationPoint.from_series(panel.U, panel.s, sigma, 0.3,
                                                       window)
        got = three_state_loglinear(panel, sigma, point)
        want = three_state_loglinear(two_state(panel.U, panel.s), sigma, point)
        np.testing.assert_array_equal(got.total.values, want.total.values)
        for name in TERMS:
            np.testing.assert_array_equal(got.terms[name].values,
                                          want.terms[name].values)

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximationPoint(S_0=0.0, N_tilde_0=0.0, x_0=0.02, sigma_0=0.3, alpha=0.3)
        with pytest.raises(ValueError):
            ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.3, alpha=1.2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_sigma_bar_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^sigma_0 must be positive and "
                                             f"finite, got {bad}$"):
            ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=bad, alpha=0.3)

    @pytest.mark.parametrize("name", ["x_0", "sigma_0"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_three_state_non_finite_rejected(self, name, bad):
        fields = {"S_0": 0.091, "N_tilde_0": 0.259, "x_0": 0.035, "sigma_0": 0.36,
                  "alpha": 0.3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                             f"finite, got {bad}$"):
            ApproximationPoint(**fields)

    @pytest.mark.parametrize("fields, v", [
        ({"sigma_0": 5e-324}, "inf"), ({"sigma_0": 1e308}, "0.0"),
        ({"alpha": 1e-300}, "inf"),
    ], ids=["sigma-tiny", "sigma-huge", "alpha-tiny"])
    def test_implied_vacancies_must_be_positive_and_finite(self, fields, v):
        # overflow and underflow of the identity, with no RuntimeWarning
        # at a two-state point and at one with non-searchers
        two = {"S_0": 0.05, "N_tilde_0": 0.0, "x_0": 0.02, "sigma_0": 0.36, "alpha": 0.3,
               **fields}
        three = {**two, "N_tilde_0": 0.1, "x_0": 0.03}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for point in (two, three):
                with pytest.raises(ValueError, match=f"^implied V_0 must be positive "
                                                     f"and finite, got {v}$"):
                    ApproximationPoint(**point)


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
        got = exact_vacancies(u, s, sg, 0.3)
        assert np.isnan(got.values[0])
        assert not np.isnan(got.values[1])

    def test_sign_structure(self):
        base = exact_log_v(0.068, 0.020, 0.359, 0.0, 0.3)
        assert exact_log_v(0.068, 0.022, 0.359, 0.0, 0.3) > base      # s up
        assert exact_log_v(0.068, 0.020, 0.395, 0.0, 0.3) < base      # sigma up
        assert exact_log_v(0.068, 0.020, 0.359, 0.0005, 0.3) < base   # dU > 0


class TestSteadyStateCurve:
    def test_passes_through_point(self):
        v0, = steady_state_curve([POINT.S_0], POINT)
        assert v0 == pytest.approx(POINT.V_0, rel=1e-14)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.02, 0.15, 40)
        vs = steady_state_curve(grid, POINT)
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_matches_identity_at_zero_change(self):
        u = 0.081
        v, = steady_state_curve([u], POINT)
        got = exact_vacancies(series(np.full(2, u)),
                              series(np.full(2, POINT.x_0)),
                              series(np.full(2, POINT.sigma_0)), POINT.alpha)
        assert got.values[0] == pytest.approx(v, rel=1e-14)


class TestCoefficients:
    """Every linearization coefficient must equal a centered finite
    difference of the exact identity in its own coordinate."""

    H = 1e-6

    def fd(self, g):
        return (g(self.H) - g(-self.H)) / (2 * self.H)

    def test_slope(self):
        got = self.fd(lambda h: exact_log_v(POINT.S_0 * math.exp(h), POINT.x_0,
                                            POINT.sigma_0, 0.0, POINT.alpha))
        assert loglinear_slope(POINT) == pytest.approx(got, rel=1e-6)

    def test_dynamics(self):
        got = self.fd(lambda h: exact_log_v(POINT.S_0, POINT.x_0,
                                            POINT.sigma_0,
                                            POINT.S_0 * math.expm1(h),
                                            POINT.alpha))
        assert dynamics_coefficient(POINT) == pytest.approx(got, rel=1e-6)

    def test_separations(self):
        got = self.fd(lambda h: exact_log_v(POINT.S_0, POINT.x_0 * math.exp(h),
                                            POINT.sigma_0, 0.0, POINT.alpha))
        assert separations_coefficient(POINT) == pytest.approx(got, rel=1e-6)
        assert separations_coefficient(POINT) == pytest.approx(1 / 0.3, rel=1e-14)

    def test_matching(self):
        got = self.fd(lambda h: exact_log_v(POINT.S_0, POINT.x_0,
                                            POINT.sigma_0 * math.exp(h), 0.0,
                                            POINT.alpha))
        assert matching_coefficient(POINT) == pytest.approx(got, rel=1e-6)

    def test_frozen_values_at_standard_point(self):
        p = ApproximationPoint(S_0=0.068, N_tilde_0=0.0, x_0=0.020, sigma_0=0.359,
                               alpha=0.3)
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

    u = series(point.S_0 * np.exp(wiggle()))
    s = series(point.x_0 * np.exp(wiggle()))
    sg = series(point.sigma_0 * np.exp(wiggle()))
    return u, s, sg


def max_taylor_error(point, level_band, step_band, seed):
    u, s, sg = taylor_paths(point, level_band, step_band, seed=seed)
    exact = exact_vacancies(u, s, sg, point.alpha)
    approx = three_state_loglinear(two_state(u, s), sg, point).total
    with np.errstate(invalid="ignore"):
        gap = np.abs(np.log(exact.values) - approx.values)
    return np.nanmax(gap)


class TestTaylorAccuracy:
    def test_expansion_point_exact(self):
        u = series(np.full(3, POINT.S_0))
        s = series(np.full(3, POINT.x_0))
        sg = series(np.full(3, POINT.sigma_0))
        approx = three_state_loglinear(two_state(u, s), sg, POINT).total
        np.testing.assert_allclose(approx.values[:-1], math.log(POINT.V_0),
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
        u = series(np.full(n, POINT.S_0))
        s = series(np.full(n, POINT.x_0))
        sg = series(np.full(n, POINT.sigma_0))
        paths = two_state_shifters(u, s, sg, POINT, START.shift(1))
        assert list(paths) == ["searcher_dynamics", "separations", "matching", "net"]
        for term in paths.values():
            np.testing.assert_array_equal(term.values[:-1], 0.0)

    def test_zero_at_reference_and_additive(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        sigma = recession_pipeline["sigma_hat"]
        point = recession_pipeline["point"]
        ref = MonthDate(2007, 4)
        paths = two_state_shifters(panel.U, panel.s, sigma, point, ref)
        t = panel.U.index_of(ref)
        assert paths["searcher_dynamics"].values[t] == 0.0
        assert paths["separations"].values[t] == 0.0
        assert paths["matching"].values[t] == 0.0
        total = (paths["searcher_dynamics"].values + paths["separations"].values
                 + paths["matching"].values)
        np.testing.assert_array_equal(paths["net"].values, total)

    def test_missing_reference_rejected(self):
        u = series(np.full(4, POINT.S_0))
        s = series(np.full(4, POINT.x_0))
        sg = series(np.full(4, POINT.sigma_0))
        with pytest.raises(ValueError, match="reference month"):
            two_state_shifters(u, s, sg, POINT, START.shift(3))  # last month: no dU

    @pytest.mark.parametrize("terms", [(), ("searcher_level",), ("total",),
                                       ("matching", "net")])
    def test_terms_must_name_a_shifter(self, terms):
        n = 4
        expansion = three_state_loglinear(two_state(series(np.full(n, POINT.S_0)),
                                                    series(np.full(n, POINT.x_0))),
                                          series(np.full(n, POINT.sigma_0)), POINT)
        with pytest.raises(ValueError, match="must name at least one shifter"):
            shifter_paths(expansion, START, terms)

    def test_recession_sign_pattern(self, recession_pipeline):
        # planted recession: separations spike while unemployment rises, and
        # efficiency drops permanently; the shifters must reflect that
        panel = recession_pipeline["panel"]
        paths = two_state_shifters(panel.U, panel.s, recession_pipeline["sigma_hat"],
                                   recession_pipeline["point"], MonthDate(2007, 4))
        spike = slice(panel.U.index_of(MonthDate(2008, 1)),
                      panel.U.index_of(MonthDate(2009, 3)))
        rising = slice(panel.U.index_of(MonthDate(2007, 8)),
                       panel.U.index_of(MonthDate(2009, 6)))
        post = slice(panel.U.index_of(MonthDate(2010, 1)),
                     panel.U.index_of(MonthDate(2013, 1)))
        assert (paths["separations"].values[spike] > 0).all()
        assert (paths["searcher_dynamics"].values[rising] < 0).all()
        assert (paths["matching"].values[post] > 0).all()

    def test_net_tracks_deviation_from_steady_curve(self, recession_pipeline):
        # net shift equals (loglinear lnV minus the steady-curve component),
        # renormalized to the reference month
        panel = recession_pipeline["panel"]
        sigma = recession_pipeline["sigma_hat"]
        point = recession_pipeline["point"]
        ref = MonthDate(2007, 4)
        paths = two_state_shifters(panel.U, panel.s, sigma, point, ref)
        loglin = three_state_loglinear(panel, sigma, point).total
        curve_part = (math.log(point.V_0) + loglinear_slope(point)
                      * (np.log(panel.U.values) - math.log(point.S_0)))
        raw_net = loglin.values - curve_part
        ref_idx = panel.U.index_of(ref)
        np.testing.assert_allclose(paths["net"].values,
                                   raw_net - raw_net[ref_idx], atol=1e-12)


class TestSlopeValues:
    def test_limit_small_u(self):
        tiny = ApproximationPoint(S_0=1e-9, N_tilde_0=0.0, x_0=0.02, sigma_0=0.359,
                                  alpha=0.273)
        assert loglinear_slope(tiny) == pytest.approx(-(1 - 0.273) / 0.273,
                                                      rel=1e-6)
        assert round(loglinear_slope(tiny), 2) == -2.66

    def test_alpha_point_three(self):
        tiny = ApproximationPoint(S_0=1e-9, N_tilde_0=0.0, x_0=0.02, sigma_0=0.359,
                                  alpha=0.3)
        assert round(loglinear_slope(tiny), 2) == -2.33

    def test_matches_finite_difference_of_identity(self):
        h = 1e-5
        g = lambda lh: exact_log_v(POINT.S_0 * math.exp(lh), POINT.x_0,  # noqa: E731
                                   POINT.sigma_0, 0.0, POINT.alpha)
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
    return ThreeStatePanel(E=mk(e), U=mk(u), N=mk(nn),
                           **{k: mk(np.full(n, v)) for k, v in rates.items()})


THREE_POINT = ApproximationPoint(S_0=0.091, N_tilde_0=0.259, x_0=0.035, sigma_0=0.36,
                                 alpha=0.3)


class TestThreeState:
    def test_expansion_point_value(self):
        panel = constant_aggregate_panel(THREE_POINT.S_0, THREE_POINT.N_tilde_0,
                                         THREE_POINT.x_0)
        sigma = series(np.full(6, THREE_POINT.sigma_0))
        out = three_state_loglinear(panel, sigma, THREE_POINT)
        np.testing.assert_allclose(out.total.values[:-1],
                                   math.log(THREE_POINT.V_0), rtol=1e-12)
        exact = identity(panel, sigma, 0.3)
        np.testing.assert_allclose(exact.values[:-1], THREE_POINT.V_0, rtol=1e-12)

    def test_term_additivity_exact(self):
        panel = constant_aggregate_panel(0.095, 0.25, 0.037)
        sigma = series(np.full(6, 0.34))
        out = three_state_loglinear(panel, sigma, THREE_POINT)
        total = math.log(THREE_POINT.V_0) + sum(out.terms[name].values
                                                for name in TERMS)
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
        exact = identity(panel, sigma, THREE_POINT.alpha)
        gap = np.abs(approx.values[:-1] - np.log(exact.values[:-1]))
        assert gap.max() < 1e-3

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(two_state_worlds())
    def test_reduction_to_two_state(self, world):
        # no nonemployment at all (N = 0, so S = U and x = s): both models
        # agree, exactly and log-linearly, bit for bit; infeasible months are
        # missing in both.  ue stays positive: xi_N = ne / ue needs it.
        u, s, sigma_path, alpha = world
        n = len(u)
        zeros = series(np.zeros(n))
        panel = ThreeStatePanel(
            E=series(1.0 - u), U=series(u), N=zeros, eu=series(np.full(n, s)),
            en=zeros, ue=series(np.full(n, 0.25)), un=zeros, ne=zeros, nu=zeros)
        sigma = series(sigma_path)

        exact3 = identity(panel, sigma, alpha)
        exact2 = exact_vacancies(series(u), series(np.full(n, s)), sigma, alpha)
        np.testing.assert_allclose(exact3.values, exact2.values, rtol=1e-12)

        u_bar, sigma_bar = float(u.mean()), float(sigma_path.mean())
        point = ApproximationPoint(S_0=u_bar, N_tilde_0=0.0, x_0=s, sigma_0=sigma_bar,
                                   alpha=alpha)
        ll3 = three_state_loglinear(panel, sigma, point).total
        ll2 = three_state_loglinear(two_state(series(u), series(np.full(n, s))), sigma,
                                    point).total
        assert not np.isnan(ll2.values[:-1]).any()
        np.testing.assert_allclose(ll3.values, ll2.values, rtol=1e-12)

        # the same steps through the public API, equal bit for bit
        U, s_series = series(u), series(np.full(n, s))
        window = (START, START.shift(n - 1))
        np.testing.assert_array_equal(exact3.values, exact2.values)
        point3 = ApproximationPoint.from_panel(panel, sigma, alpha, window)
        point2 = ApproximationPoint.from_series(U, s_series, sigma, alpha, window)
        np.testing.assert_array_equal(
            [point3.S_0, point3.N_tilde_0, point3.x_0, point3.sigma_0,
             point3.alpha, point3.V_0],
            [point2.S_0, 0.0, point2.x_0, point2.sigma_0, point2.alpha,
             point2.V_0])
        # identity vacancies at or above one are refused alike by both
        outcomes = []
        for searchers in (panel.S, U):
            try:
                outcomes.append(tightness(searchers, exact2).values)
            except ValueError as exc:
                outcomes.append(str(exc))
        np.testing.assert_array_equal(*outcomes)
        exp3 = three_state_loglinear(panel, sigma, point3)
        exp2 = three_state_loglinear(two_state(U, s_series), sigma, point2)
        np.testing.assert_array_equal(exp3.total.values, exp2.total.values)
        for name in TERMS:
            np.testing.assert_array_equal(exp3.terms[name].values,
                                          exp2.terms[name].values)
        for terms in (TERMS, ("searcher_dynamics", "separations", "matching")):
            paths3 = shifter_paths(exp3, START, terms)
            paths2 = shifter_paths(exp2, START, terms)
            assert list(paths3) == list(paths2) == [*terms, "net"]
            for name in paths3:
                np.testing.assert_array_equal(paths3[name].values,
                                              paths2[name].values)

    @pytest.mark.parametrize("model", ["two-state", "three-state"])
    def test_terms_are_data_keyed_by_name(self, recession_pipeline, model):
        # the expansion is its total and one mapping of terms in TERMS
        # order; the coefficients and every margin's term read by name
        if model == "two-state":
            panel, sigma = recession_pipeline["panel"], recession_pipeline["sigma_hat"]
            point = recession_pipeline["point"]
        else:
            panel = constant_aggregate_panel(0.095, 0.25, 0.037)
            sigma, point = series(np.full(6, 0.34)), THREE_POINT
        out = three_state_loglinear(panel, sigma, point)
        assert [f.name for f in dataclasses.fields(out)] == ["total", "terms"]
        assert tuple(out.terms) == TERMS == tuple(_expansion_coefficients(point))
        assert {margin.term for margin in MARGINS.values()} <= out.terms.keys()

    def test_zero_nonsearcher_pool_error(self):
        panel = constant_aggregate_panel(0.091, 0.259, 0.035)
        # plant one month's non-searcher pool at zero: with ne = ue the
        # nonemployed search as hard as the unemployed (xi_N = 1)
        ne = panel.ne.values.copy()
        ne[2] = panel.ue.values[2]
        broken = dataclasses.replace(panel, ne=panel.ne.with_values(ne))
        assert broken.N_tilde.values[2] == 0.0
        sigma = series(np.full(6, 0.36))
        with pytest.raises(ValueError, match="non-searcher pool"):
            three_state_loglinear(broken, sigma, THREE_POINT)

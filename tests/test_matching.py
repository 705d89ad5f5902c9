import decimal
import math
from dataclasses import replace

import numpy as np
import pytest

from beveridge_accounting import (MonthDate, MonthlySeries, ThreeStatePanel,
                                  estimate_matching, matching_efficiency_path,
                                  tightness)
from beveridge_accounting.matching import _stars, _t_two_sided_p

START = MonthDate(2000, 1)


def series(values):
    return MonthlySeries(START, values)


def planted_regression(n=90, ln_sigma=-0.77, alpha=0.27, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    theta = np.exp(rng.uniform(np.log(0.3), np.log(1.2), n))
    eps = noise * rng.standard_normal(n) if noise else np.zeros(n)
    f = np.exp(ln_sigma + alpha * np.log(theta) + eps)
    return series(f), series(theta)


class TestEstimate:
    def test_noiseless_recovery(self):
        f, theta = planted_regression()
        est = estimate_matching(f, theta)
        assert est.ln_sigma_bar == pytest.approx(-0.77, abs=1e-12)
        assert est.alpha == pytest.approx(0.27, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert est.n_obs == 90

    def test_residuals_mean_zero_and_orthogonal(self):
        f, theta = planted_regression(noise=0.05, seed=3)
        est = estimate_matching(f, theta)
        resid = est.residuals.values[~np.isnan(est.residuals.values)]
        assert abs(resid.mean()) < 1e-12
        x = np.log(theta.values)
        assert abs(resid @ x) < 1e-10

    def test_sample_window_isolated(self):
        f, theta = planted_regression(n=60)
        # corrupt the months outside the window; estimate must not move
        f2 = f.values.copy()
        f2[40:] *= 3.0
        est = estimate_matching(series(f2), theta,
                                sample=(START, START.shift(39)))
        assert est.alpha == pytest.approx(0.27, abs=1e-12)
        assert est.n_obs == 40

    def test_unusable_months_dropped(self):
        f, theta = planted_regression(n=30)
        fv = f.values.copy()
        fv[0] = np.nan
        fv[1] = -0.1
        est = estimate_matching(series(fv), theta)
        assert est.n_obs == 28

    def test_too_few_months(self):
        f, theta = planted_regression(n=5)
        fv = f.values.copy()
        fv[:3] = np.nan
        with pytest.raises(ValueError, match="usable months"):
            estimate_matching(series(fv), theta)

    def test_degenerate_design(self):
        f = series(np.full(10, 0.4))
        theta = series(np.full(10, 0.7))
        with pytest.raises(ValueError, match="degenerate design"):
            estimate_matching(f, theta)

    def test_standard_errors_and_stars(self):
        f, theta = planted_regression(noise=0.02, seed=5)
        est = estimate_matching(f, theta)
        assert est.se_alpha > 0 and est.se_ln_sigma > 0
        assert est.stars() == ("***", "***")
        robust = estimate_matching(f, theta, robust=True)
        assert robust.se_alpha > 0
        assert robust.alpha == est.alpha  # point estimates unchanged

    def test_errors_match_the_normal_equations_where_those_are_well_conditioned(self):
        f, theta = planted_regression(noise=0.05, seed=3)
        y, x = np.log(f.values), np.log(theta.values)
        X = np.column_stack([np.ones(len(x)), x])
        inv = np.linalg.inv(X.T @ X)
        beta = inv @ (X.T @ y)
        e, n = y - X @ beta, len(y)
        meat = X.T @ (X * (e ** 2)[:, None])
        for robust, cov in ((False, inv * (e @ e) / (n - 2)),
                            (True, inv @ meat @ inv * (n / (n - 2)))):
            est = estimate_matching(f, theta, robust=robust)
            assert [est.ln_sigma_bar, est.alpha] == pytest.approx(beta, rel=1e-12)
            assert [est.se_ln_sigma, est.se_alpha] == pytest.approx(
                np.sqrt(np.diag(cov)), rel=1e-10)

    def test_a_regressor_with_a_small_spread_keeps_its_slope(self):
        # ln theta = c (1 + 1e-6 z): X'X's condition number is near 1e12,
        # and its normal equations missed the slope by about 1e-3
        z = np.random.default_rng(0).uniform(-1.0, 1.0, 60)
        for c in (1.0, -2.0, 0.5):
            x = c * (1.0 + 1e-6 * z)
            est = estimate_matching(series(np.exp(-1.0 + 0.3 * x)), series(np.exp(x)))
            assert est.alpha == pytest.approx(0.3, abs=1e-9)
            assert est.ln_sigma_bar == pytest.approx(-1.0, abs=1e-9)
            assert est.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_r_squared_is_missing_where_ln_f_takes_one_value(self):
        # its total sum of squares is then rounding of the mean alone
        theta = planted_regression(seed=2)[1]
        est = estimate_matching(series(np.full(len(theta), 0.3)), theta)
        assert math.isnan(est.r_squared)
        assert abs(est.alpha) < 1e-12 and est.stars()[1] == ""

    def test_report_dict(self):
        f, theta = planted_regression()
        d = estimate_matching(f, theta).to_dict()
        assert d["sample_start"] == "2000-01"
        assert d["n_obs"] == 90
        assert d["sigma_bar"] == pytest.approx(np.exp(-0.77))


T_GRID = np.concatenate([np.logspace(-3, 4, 141), np.linspace(0.5, 60.0, 120)])


class TestPValues:
    def test_one_dof_closed_form(self):
        # 1 - (2/pi) atan|t|, written without the cancellation at large |t|
        for t in T_GRID:
            expected = 2.0 / math.pi * math.atan(1.0 / t)
            assert _t_two_sided_p(t, 1) == pytest.approx(expected, rel=1e-13)
            assert _t_two_sided_p(-t, 1) == _t_two_sided_p(t, 1)

    def test_two_dof_closed_form(self):
        # 1 - |t| / sqrt(2 + t^2), written without the cancellation
        for t in T_GRID:
            root = math.sqrt(2.0 + t * t)
            expected = 2.0 / (root * (root + t))
            assert _t_two_sided_p(t, 2) == pytest.approx(expected, rel=1e-13)

    def test_matches_scipy_over_grid(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in (1, 2, 3, 4, 5, 7, 10, 30, 88, 238, 1000, 2398, 11998,
                    23998, 24000):
            reference = 2.0 * stats.t.sf(T_GRID, dof)
            for t, ref in zip(T_GRID, reference):
                if ref >= 1e-300:
                    got = _t_two_sided_p(float(t), dof)
                    assert got == pytest.approx(ref, rel=1e-10), (dof, t)

    def test_deep_tail_against_exact_series(self):
        # even dof: p = 1 - sin(th) sum_k c_k cos(th)^(2k) (A&S 26.7.3), summed
        # in 400-digit decimals so that the complement keeps its digits; on
        # 240-month panels |t| is 25-45 and p far below double epsilon
        def exact(t, dof):
            with decimal.localcontext() as ctx:
                ctx.prec = 400
                t, nu = decimal.Decimal(t), decimal.Decimal(dof)
                cos2 = nu / (nu + t * t)
                term = total = decimal.Decimal(1)
                for k in range(1, dof // 2):
                    term *= cos2 * (2 * k - 1) / (2 * k)
                    total += term
                return float(1 - t / (nu + t * t).sqrt() * total)

        for dof in (2, 10, 94, 238, 1000, 2398):
            for t in (0.3, 2.0, 25.0, 35.0):
                assert _t_two_sided_p(t, dof) == pytest.approx(exact(t, dof),
                                                               rel=1e-12), (dof, t)

    def test_edge_values(self):
        f, theta = planted_regression(noise=0.02, seed=5)
        est = estimate_matching(f, theta)
        assert replace(est, alpha=0.0).p_values()[1] == 1.0
        assert _t_two_sided_p(0.0, 1) == 1.0
        assert replace(est, se_alpha=0.0).p_values()[1] == 0.0
        assert math.isnan(replace(est, alpha=0.0, se_alpha=0.0).p_values()[1])
        p_sigma, p_alpha = replace(est, alpha=float("nan")).p_values()
        assert math.isnan(p_alpha) and not math.isnan(p_sigma)
        assert replace(est, alpha=float("nan")).stars()[1] == ""
        assert math.isnan(replace(est, se_alpha=float("nan")).p_values()[1])
        # a 24,000-month panel with t ~ 360 underflows, as scipy does
        huge = replace(est, n_obs=23903, alpha=360 * est.se_alpha)
        assert huge.p_values()[1] == 0.0
        assert _t_two_sided_p(float("inf"), 10) == 0.0

    def test_star_boundaries(self):
        assert _stars(0.0) == "***"
        assert _stars(np.nextafter(0.01, 0)) == "***"
        assert _stars(0.01) == "**"
        assert _stars(np.nextafter(0.05, 0)) == "**"
        assert _stars(0.05) == "*"
        assert _stars(np.nextafter(0.1, 0)) == "*"
        assert _stars(0.1) == ""
        assert _stars(1.0) == ""
        assert _stars(float("nan")) == ""


class TestEfficiencyPath:
    def test_unit_efficiency(self):
        theta = np.linspace(0.4, 0.8, 12)
        f = theta ** 0.3
        sigma = matching_efficiency_path(f, theta, alpha=0.3, start=START)
        np.testing.assert_allclose(sigma, 1.0, rtol=1e-14)

    def test_hand_value(self):
        sigma = matching_efficiency_path(np.array([0.3]), np.array([0.5]), alpha=0.3,
                                         start=START)
        assert sigma[0] == pytest.approx(0.3 * 0.5 ** -0.3, rel=1e-15)
        assert sigma[0] == pytest.approx(0.3693433, abs=5e-8)

    def test_composition_roundtrip(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(0.3, 1.0, 50)
        f = rng.uniform(0.2, 0.5, 50)
        sigma = matching_efficiency_path(f, theta, alpha=0.42, start=START)
        np.testing.assert_allclose(sigma * theta ** 0.42, f, rtol=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="^nonpositive finding rate or tightness "
                                             "at 2000-02; efficiency path undefined$"):
            matching_efficiency_path(np.array([0.3, 0.0]), np.array([0.5, 0.5]),
                                     alpha=0.3, start=START)
        # a month missing either input is missing, not refused
        sigma = matching_efficiency_path(np.array([0.3, 0.0]), np.array([0.5, np.nan]),
                                         0.3, start=START)
        assert np.isnan(sigma[1])
        # with a leading axis, the month named is the bad entry's last index
        with pytest.raises(ValueError, match="^nonpositive finding rate or tightness "
                                             "at 2000-03; efficiency path undefined$"):
            matching_efficiency_path(np.array([[0.3, 0.3, 0.3], [0.3, 0.3, -0.1]]),
                                     np.full(3, 0.5), 0.3, start=START)


def three_state_panel(u=0.05, n=0.30, ue=0.25, ne=0.025):
    e = 1.0 - u - n
    vals = {"eu": 0.015, "en": 0.025, "ue": ue, "un": 0.03, "ne": ne, "nu": 0.02}
    return ThreeStatePanel(
        E=series([e, e]), U=series([u, u]), N=series([n, n]),
        **{k: series([v, v]) for k, v in vals.items()})


class TestThreeStateTightness:
    def test_reduces_to_two_state_when_no_nonemployed_search(self):
        panel = three_state_panel(ne=0.0)
        v = series([0.03, 0.03])
        np.testing.assert_allclose(tightness(panel.S, v).values,
                                   tightness(panel.U, v).values,
                                   rtol=1e-14)

    def test_hand_value(self):
        panel = three_state_panel()  # xi = 0.1, S = 0.08
        theta = tightness(panel.S, series([0.03, 0.03]))
        assert theta.values[0] == pytest.approx(0.375, rel=1e-14)

    def test_more_search_weakly_lowers_tightness(self):
        v = series([0.03, 0.03])
        low = tightness(three_state_panel(ne=0.025).S, v)
        high = tightness(three_state_panel(ne=0.05).S, v)
        assert (high.values <= low.values).all()

    def test_refusals_name_the_month(self):
        v = series([0.03, 1.5])
        with pytest.raises(ValueError, match=r"^vacancy rate outside \(0, 1\) at "
                                             r"2000-02: 1\.5$"):
            tightness(series([0.05, 0.05]), v)
        with pytest.raises(ValueError, match="^zero searcher pool at 2000-02; "
                                             "tightness undefined$"):
            tightness(series([0.05, 0.0]), series([0.03, 0.03]))

    def test_searcher_finding_rate(self):
        panel = three_state_panel()
        hires = 0.05 * 0.25 + 0.30 * 0.025
        assert panel.f.values[0] == pytest.approx(hires / 0.08, rel=1e-14)

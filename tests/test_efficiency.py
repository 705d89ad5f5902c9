import numpy as np
import pytest

from beveridge_accounting import (EfficiencyCalibration, MonthDate, MonthlySeries,
                                  efficient_unemployment, ms_calibration,
                                  steep_calibration, unemployment_gap)

START = MonthDate(2000, 1)


def series(values):
    return MonthlySeries(START, values)


def u_star_scalar(u, v, cal):
    out = efficient_unemployment(series([u]), series([v]), cal)
    return float(out.values[0])


class TestFormulaContract:
    def test_fixed_point_at_planner_condition(self):
        # observed point already on the planner's first-order condition:
        # elasticity * v / u = unemployment_cost / vacancy_cost
        for eps in (0.9, 1.7, 2.33):
            cal = EfficiencyCalibration(beveridge_elasticity=eps,
                                        vacancy_cost=0.92,
                                        unemployment_cost=0.74)
            u = 0.06
            v = u * cal.unemployment_cost / (eps * cal.vacancy_cost)
            assert u_star_scalar(u, v, cal) == pytest.approx(u, rel=1e-12)

    def test_monotone_in_elasticity_grid(self):
        grid_eps = np.linspace(0.5, 2.5, 10)
        grid_cost = np.linspace(0.5, 1.5, 10)
        u, v = 0.06, 0.03
        for cv in grid_cost:
            stars = [u_star_scalar(u, v, EfficiencyCalibration(e, cv, 0.74))
                     for e in grid_eps]
            assert all(a < b for a, b in zip(stars, stars[1:]))

    def test_monotone_in_costs_grid(self):
        grid_eps = np.linspace(0.5, 2.5, 10)
        grid_cost = np.linspace(0.5, 1.5, 10)
        u, v = 0.06, 0.03
        for e in grid_eps:
            in_cv = [u_star_scalar(u, v, EfficiencyCalibration(e, cv, 0.74))
                     for cv in grid_cost]
            assert all(a < b for a, b in zip(in_cv, in_cv[1:]))
            in_cu = [u_star_scalar(u, v, EfficiencyCalibration(e, 0.92, cu))
                     for cu in grid_cost]
            assert all(a > b for a, b in zip(in_cu, in_cu[1:]))

    def test_cost_ratio_homogeneity(self):
        u, v = 0.055, 0.035
        for lam in (0.5, 2.0, 7.5):
            base = u_star_scalar(u, v, EfficiencyCalibration(1.2, 0.92, 0.74))
            scaled = u_star_scalar(u, v, EfficiencyCalibration(1.2, 0.92 * lam,
                                                               0.74 * lam))
            assert scaled == pytest.approx(base, rel=1e-14)

    def test_steeper_curve_raises_u_star(self):
        rng = np.random.default_rng(1)
        u = series(rng.uniform(0.035, 0.10, 60))
        v = series(rng.uniform(0.02, 0.05, 60))
        flat = efficient_unemployment(u, v, ms_calibration())
        steep = efficient_unemployment(u, v, steep_calibration())
        assert (steep.values > flat.values).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyCalibration(beveridge_elasticity=-1.0)
        with pytest.raises(ValueError):
            EfficiencyCalibration(beveridge_elasticity=1.0, vacancy_cost=0.0)
        for bad in ({"beveridge_elasticity": np.nan},
                    {"beveridge_elasticity": 1.0, "vacancy_cost": np.nan},
                    {"beveridge_elasticity": 1.0, "unemployment_cost": np.nan}):
            with pytest.raises(ValueError, match="positive"):
                EfficiencyCalibration(**bad)
        with pytest.raises(ValueError, match="positive"):
            efficient_unemployment(series([0.0]), series([0.03]),
                                   ms_calibration())


class TestGap:
    def test_zero_gap_when_equal(self):
        u = series([0.05, 0.06])
        gap = unemployment_gap(u, u)
        np.testing.assert_array_equal(gap.values, 0.0)

    def test_gap_decreasing_in_elasticity(self):
        u = series(np.full(5, 0.07))
        v = series(np.full(5, 0.03))
        gap_flat = unemployment_gap(u, efficient_unemployment(u, v,
                                                              ms_calibration()))
        gap_steep = unemployment_gap(u, efficient_unemployment(u, v,
                                                               steep_calibration()))
        assert (gap_steep.values < gap_flat.values).all()

    def test_nan_propagates(self):
        u = series([0.05, np.nan])
        v = series([0.03, 0.03])
        out = efficient_unemployment(u, v, ms_calibration())
        assert np.isnan(out.values[1]) and not np.isnan(out.values[0])

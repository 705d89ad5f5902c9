import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beveridge_accounting import (MS_ELASTICITY, STEEP_ELASTICITY, EfficiencyCalibration,
                                  MonthDate, MonthlySeries, efficient_unemployment,
                                  unemployment_gap)

START = MonthDate(2000, 1)
FLAT = EfficiencyCalibration(beveridge_elasticity=MS_ELASTICITY)
STEEP = EfficiencyCalibration(beveridge_elasticity=STEEP_ELASTICITY)


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
        flat = efficient_unemployment(u, v, FLAT)
        steep = efficient_unemployment(u, v, STEEP)
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
            efficient_unemployment(series([0.0]), series([0.03]), FLAT)

    @pytest.mark.parametrize("name", ["beveridge_elasticity", "vacancy_cost",
                                      "unemployment_cost"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, name, bad):
        fields = {"beveridge_elasticity": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                             f"finite, got {bad}$"):
            EfficiencyCalibration(**fields)

    @pytest.mark.parametrize("costs, product", [
        ({"vacancy_cost": 1e308}, "2.33 * (1e+308 / 0.74) = inf"),
        ({"unemployment_cost": 5e-324}, "2.33 * (0.92 / 5e-324) = inf"),
        ({"vacancy_cost": 5e-324, "unemployment_cost": 1e308},
         "2.33 * (5e-324 / 1e+308) = 0.0"),
    ], ids=["inf", "inf-cost", "zero"])
    def test_u_star_scale_must_be_positive_and_finite(self, costs, product):
        with pytest.raises(ValueError) as exc:
            EfficiencyCalibration(beveridge_elasticity=2.33, **costs)
        assert str(exc.value) == ("beveridge_elasticity * (vacancy_cost / "
                                  "unemployment_cost) must be positive and finite, "
                                  f"got {product}")


    def test_steep_elasticity_computed_in_logs(self):
        # 0.001^150 and 0.06^400 underflow to zero, which made u* zero
        cal = EfficiencyCalibration(beveridge_elasticity=150.0)
        u, v = np.array([0.06, 0.001]), np.array([0.03, 0.04])
        out = efficient_unemployment(series(u), series(v), cal).values
        scale = 150.0 * (cal.vacancy_cost / cal.unemployment_cost)
        # a month whose direct power stays positive keeps its bits
        assert out[0] == (scale * v[0] * u[0] ** 150.0) ** (1.0 / 151.0)
        assert out[1] == pytest.approx(math.exp(
            (math.log(scale) + math.log(0.04) + 150.0 * math.log(0.001)) / 151.0),
            rel=1e-13)
        steep = u_star_scalar(0.06, 0.03, EfficiencyCalibration(400.0))
        assert steep == pytest.approx(math.exp(
            (math.log(400.0 * 0.92 / 0.74) + math.log(0.03) + 400.0 * math.log(0.06))
            / 401.0), rel=1e-13)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(costs=st.tuples(*[st.floats(min_value=0.0, exclude_min=True,
                                       allow_infinity=False)] * 3),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           v=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_u_star_positive_and_finite(self, costs, u, v):
        """Any accepted calibration and any 0 < u, v < 1 give 0 < u* < inf,
        wherever the exact u* is a float: with a tiny elasticity and a tiny
        scale * v it can lie below the smallest one."""
        try:
            cal = EfficiencyCalibration(*costs)
        except ValueError:
            assume(False)
        eps = cal.beveridge_elasticity
        share = 1.0 / (1.0 + eps)
        scale = eps * (cal.vacancy_cost / cal.unemployment_cost)
        assume(share * (math.log(scale) + math.log(v))
               + (1.0 - share) * math.log(u) > -740.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_star = u_star_scalar(u, v, cal)
        assert 0.0 < u_star < math.inf


class TestGap:
    def test_zero_gap_when_equal(self):
        u = series([0.05, 0.06])
        gap = unemployment_gap(u, u)
        np.testing.assert_array_equal(gap.values, 0.0)

    def test_gap_decreasing_in_elasticity(self):
        u = series(np.full(5, 0.07))
        v = series(np.full(5, 0.03))
        gap_flat = unemployment_gap(u, efficient_unemployment(u, v, FLAT))
        gap_steep = unemployment_gap(u, efficient_unemployment(u, v, STEEP))
        assert (gap_steep.values < gap_flat.values).all()

    def test_nan_propagates(self):
        u = series([0.05, np.nan])
        v = series([0.03, 0.03])
        out = efficient_unemployment(u, v, FLAT)
        assert np.isnan(out.values[1]) and not np.isnan(out.values[0])

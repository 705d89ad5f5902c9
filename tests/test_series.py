import numpy as np
import pytest

from beveridge_accounting import (MonthDate, MonthlySeries, delta, moving_average,
                                  normalize_shares)
from beveridge_accounting.shift_decomposition import _first_crossings


def series(values, start=MonthDate(2000, 1)):
    return MonthlySeries(start, values)


def first_crossing(x, x0):
    """`_first_crossings` for one point: (i, lam), or None if nothing brackets."""
    left, lam = _first_crossings(np.asarray(x, dtype=float), np.array([x0]))
    return None if left[0] < 0 else (int(left[0]), float(lam[0]))


class TestMonthDate:
    def test_ordering_and_successor(self):
        assert MonthDate(2007, 12).shift(1) == MonthDate(2008, 1)
        assert MonthDate(2008, 1).shift(-1) == MonthDate(2007, 12)
        assert MonthDate(2007, 4) < MonthDate(2007, 5) < MonthDate(2008, 1)
        assert MonthDate(2000, 1).shift(25) == MonthDate(2002, 2)

    def test_months_until(self):
        assert MonthDate(2007, 4).months_until(MonthDate(2009, 6)) == 26
        assert MonthDate(2009, 6).months_until(MonthDate(2007, 4)) == -26

    def test_parse_roundtrip(self):
        assert MonthDate.parse("2010-04") == MonthDate(2010, 4)
        assert str(MonthDate(2010, 4)) == "2010-04"
        with pytest.raises(ValueError):
            MonthDate.parse("2010-13")
        with pytest.raises(ValueError):
            MonthDate(2010, 0)

    def test_years_are_those_yyyy_spells(self):
        # parse reads four digits, so every month it can return, and no other,
        # is a MonthDate; a shift past either end raises
        assert MonthDate.parse("0000-01") == MonthDate(0, 1)
        assert MonthDate(9999, 11).shift(1) == MonthDate.parse("9999-12")
        assert str(MonthDate(0, 1)) == "0000-01"
        for year in (-1, 10000):
            with pytest.raises(ValueError, match=f"year must be in 0..9999, got {year}"):
                MonthDate(year, 1)
        with pytest.raises(ValueError, match="got 10000"):
            MonthDate(9999, 12).shift(1)
        with pytest.raises(ValueError, match="got -1"):
            MonthDate(0, 1).shift(-1)
        with pytest.raises(ValueError, match="expected YYYY-MM"):
            MonthDate.parse("10000-01")

    def test_parse_takes_ascii_digits_only(self):
        # a valid cell is then exactly its month's str(), which read_panel relies on
        assert MonthDate.parse(" 2010-04\t") == MonthDate(2010, 4)
        with pytest.raises(ValueError, match="expected YYYY-MM"):
            MonthDate.parse("\uff12\uff10\uff11\uff10-\uff10\uff14")  # full-width digits

    def test_series_infinity_rejected(self):
        with pytest.raises(ValueError):
            series([1.0, np.inf])

    def test_series_ends_by_9999_12(self):
        # so write_panel never spells a year past 9999
        assert MonthlySeries(MonthDate(9999, 12), [0.1]).end == MonthDate(9999, 12)
        with pytest.raises(ValueError, match="2 months from 9999-12 run past 9999-12"):
            MonthlySeries(MonthDate(9999, 12), [0.1, 0.2])


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        s = series([5.0] * 10)
        out = moving_average(s, 3)
        assert np.array_equal(out.values[1:-1], np.full(8, 5.0))
        assert np.isnan(out.values[0]) and np.isnan(out.values[-1])

    def test_window_one_is_identity(self):
        s = series([1.0, 4.0, 9.0])
        assert np.array_equal(moving_average(s, 1).values, s.values)

    def test_centered_hand_case(self):
        out = moving_average(series([1.0, 2.0, 3.0, 4.0]), 3, "centered")
        assert np.isnan(out.values[0]) and np.isnan(out.values[3])
        assert out.values[1] == pytest.approx(2.0, abs=1e-15)
        assert out.values[2] == pytest.approx(3.0, abs=1e-15)

    def test_trailing_hand_case(self):
        out = moving_average(series([1.0, 2.0, 3.0, 4.0]), 3, "trailing")
        assert np.isnan(out.values[0]) and np.isnan(out.values[1])
        assert out.values[2] == pytest.approx(2.0, abs=1e-15)
        assert out.values[3] == pytest.approx(3.0, abs=1e-15)

    def test_even_window_takes_extra_month_after(self):
        out = moving_average(series([1.0, 2.0, 3.0, 4.0, 5.0]), 4, "centered")
        # window at t covers t-1..t+2
        assert out.values[1] == pytest.approx(2.5, abs=1e-15)
        assert out.values[2] == pytest.approx(3.5, abs=1e-15)
        assert np.isnan(out.values[0]) and np.isnan(out.values[3])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a, b = 2.5, -1.25
        s1 = series(rng.uniform(1, 2, 40))
        s2 = series(rng.uniform(1, 2, 40))
        combo = series(a * s1.values + b * s2.values)
        lhs = moving_average(combo, 5).values
        rhs = a * moving_average(s1, 5).values + b * moving_average(s2, 5).values
        np.testing.assert_allclose(lhs[2:-2], rhs[2:-2], rtol=1e-12)

    def test_missing_propagates(self):
        out = moving_average(series([1.0, np.nan, 3.0, 4.0, 5.0]), 3)
        assert np.isnan(out.values[1]) and np.isnan(out.values[2])
        assert out.values[3] == pytest.approx(4.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            moving_average(series([]), 3)
        with pytest.raises(ValueError):
            moving_average(series([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            moving_average(series([1.0, 2.0]), 0)


class TestInterpolateAt:
    """Interpolation at a point through the weights swing matching freezes:
    ``y[i] + lam * (y[i+1] - y[i])`` on the first pair that brackets."""

    def test_midpoint(self):
        assert first_crossing([0.0, 1.0], 0.5) == (0, 0.5)

    def test_knot_exact(self):
        # a knot is hit exactly: lam is 0 at the first knot, 1 at the others
        x = [0.2, 0.4, 0.9]
        assert first_crossing(x, 0.2) == (0, 0.0)
        assert first_crossing(x, 0.4) == (0, 1.0)
        assert first_crossing(x, 0.9) == (1, 1.0)

    def test_first_crossing_rule(self):
        # non-monotone x: the first bracketing pair (0.06, 0.08) wins over
        # the later (0.08, 0.07)
        i, lam = first_crossing([0.06, 0.08, 0.07], 0.075)
        assert i == 0
        assert lam == pytest.approx(0.75, abs=1e-14)

    def test_monotone_between_knots(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 1, 10))
        for x0 in rng.uniform(x[0], x[-1], 50):
            i, lam = first_crossing(x, x0)
            assert i == np.searchsorted(x, x0) - 1
            assert 0.0 <= lam <= 1.0
            assert x[i] + lam * (x[i + 1] - x[i]) == pytest.approx(x0, abs=1e-15)

    def test_missing_gap_cannot_bracket(self):
        assert first_crossing([0.0, np.nan, 10.0], 5.0) is None
        # pairs touching the gap are skipped, a later clean pair still counts
        assert first_crossing([0.0, np.nan, 10.0, 0.0], 5.0) == (2, 0.5)
        # a knot next to the gap is matched by a clean pair only
        assert first_crossing([0.0, np.nan, 10.0], 0.0) is None
        assert first_crossing([0.0, np.nan, 10.0, 0.0], 10.0) == (2, 0.0)

    def test_constant_x_matches_first(self):
        assert first_crossing([0.06, 0.06, 0.06], 0.06) == (0, 0.0)
        assert first_crossing([0.06, 0.06], 0.06) == (0, 0.0)
        assert first_crossing([0.06, 0.06], 0.07) is None
        # a one-point x brackets only an equal value
        assert first_crossing([0.06], 0.06) == (0, 0.0)
        assert first_crossing([0.06], 0.07) is None
        assert first_crossing([np.nan], 0.06) is None


class TestNormalizeShares:
    def test_already_normalized(self):
        stocks = [series([0.6, 0.5]), series([0.4, 0.5])]
        out = normalize_shares(stocks)
        for got, want in zip(out, stocks):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-15)

    def test_hand_case(self):
        stocks = [series([90.0]), series([6.0]), series([24.0])]
        out = normalize_shares(stocks)
        assert [o.values[0] for o in out] == pytest.approx([0.75, 0.05, 0.20])

    def test_single_stock(self):
        out = normalize_shares([series([7.0, 3.0])])
        np.testing.assert_array_equal(out[0].values, [1.0, 1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        stocks = [series(rng.uniform(10, 100, 30)) for _ in range(3)]
        out = normalize_shares(stocks)
        totals = sum(o.values for o in out)
        np.testing.assert_allclose(totals, 1.0, atol=1e-14)

    def test_zero_total(self):
        with pytest.raises(ValueError, match="empty population month"):
            normalize_shares([series([1.0, 0.0]), series([1.0, 0.0])])

    def test_negative_stock(self):
        # the first month with a negative stock and its least stock, a
        # missing stock beside it or not
        with pytest.raises(ValueError, match=r"^negative stock value at 2000-02: -0\.5$"):
            normalize_shares([series([1.0, -0.5, -2.0]), series([1.0, 1.0, 1.0])])
        with pytest.raises(ValueError, match=r"^negative stock value at 2000-02: -0\.5$"):
            normalize_shares([series([1.0, np.nan]), series([1.0, -0.5]),
                              series([np.nan, -0.25])])


def test_delta_forward_difference():
    out = delta(series([1.0, 4.0, 9.0]))
    assert out.values[0] == 3.0 and out.values[1] == 5.0
    assert np.isnan(out.values[2])


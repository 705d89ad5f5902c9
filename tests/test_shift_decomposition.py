import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beveridge_accounting as ba
from beveridge_accounting import (ApproximationPoint, MARGIN_DYNAMICS, MARGINS,
                                  MARGIN_MATCHING, MARGIN_SEPARATIONS, MonthDate,
                                  MonthlySeries, SwingBounds,
                                  all_orderings_report, build_swing_samples,
                                  counterfactual_vacancies,
                                  loglinear_shift_decomposition, three_state_loglinear)
from beveridge_accounting.shift_decomposition import (AllPairsInfeasibleError,
                                                      IdentityMismatchWarning,
                                                      _BLOCK, _first_crossings,
                                                      _interp_at_pairs)
import reference_orderings
from conftest import identity, two_state
from reference_loglinear import reference_decomposition

START = MonthDate(2000, 1)


def series(values):
    return MonthlySeries(START, values)


def assert_months(got, want):
    """`got` is an int array of the grid indices `want`."""
    assert isinstance(got, np.ndarray) and got.dtype.kind == "i", got
    assert got.tolist() == list(want)


def hump(offset=0.0):
    """U rises then falls through the same range; ln V is linear in U so
    interpolation on the upswing is exact.  `offset` lifts upswing log V.
    Returns the swing samples and ln V."""
    u = np.array([0.050, 0.060, 0.070, 0.080, 0.085, 0.065, 0.055, 0.045])
    log_v = -1.0 - 10.0 * u
    log_v[4:] += offset
    bounds = SwingBounds(down_start=START, down_end=START.shift(3),
                         up_start=START.shift(4))
    return build_swing_samples(series(u), series(np.exp(log_v)), bounds), log_v


class TestSwingSamples:
    def test_membership_and_stop_rule(self):
        samples, _ = hump()
        assert_months(samples.down_index, [0, 1, 2, 3])  # 2000-01 to 2000-04
        assert_months(samples.dropped_months, [])
        # upswing stops at the first month below the downswing minimum (0.050)
        assert samples.up_index.tolist() == [4, 5, 6, 7]  # 2000-05 to 2000-08

    def test_unbracketable_point_dropped(self):
        u = np.array([0.060, 0.090, 0.070, 0.065, 0.055])
        v = np.full(5, 0.03)
        bounds = SwingBounds(down_start=START, down_end=START.shift(1),
                             up_start=START.shift(2))
        samples = build_swing_samples(series(u), series(v), bounds)
        assert_months(samples.dropped_months, [1])  # 2000-02
        assert_months(samples.down_index, [0])  # 2000-01

    def test_bounds_must_be_covered(self):
        u = series(np.full(6, 0.06))
        with pytest.raises(ValueError, match="cover"):
            build_swing_samples(u, u, SwingBounds(down_start=MonthDate(1990, 1),
                                                  down_end=START,
                                                  up_start=START.shift(3)))

    def test_explicit_up_end(self):
        u = np.array([0.050, 0.060, 0.070, 0.080, 0.075, 0.065, 0.055, 0.045])
        bounds = SwingBounds(down_start=START, down_end=START.shift(3),
                             up_start=START.shift(4), up_end=START.shift(5))
        samples = build_swing_samples(series(u), series(np.full(8, 0.03)), bounds)
        assert samples.up_index.tolist() == [4, 5]  # 2000-05 and 2000-06

    def test_first_crossing_on_non_monotone_upswing(self):
        # 0.075 lies in the upswing pairs (0.060, 0.080), (0.080, 0.070) and
        # (0.070, 0.078); the first in time carries the match
        u = np.array([0.075, 0.060, 0.080, 0.070, 0.078])
        v = np.array([0.030, 0.010, 0.030, 0.050, 0.070])
        bounds = SwingBounds(down_start=START, down_end=START,
                             up_start=START.shift(1), up_end=START.shift(4))
        samples = build_swing_samples(series(u), series(v), bounds)
        assert samples.pair_left.tolist() == [0]
        assert samples.pair_lam[0] == pytest.approx(0.75, abs=1e-12)
        assert samples.interp_up(v)[0] == pytest.approx(0.025, abs=1e-12)


def first_bracket(x, x0):
    """Reference: the scalar first-crossing scan the array matcher replaced."""
    xs = np.asarray(x, dtype=float)
    if len(xs) == 1:
        return (0, 0.0) if xs[0] == x0 else None
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if min(a, b) <= x0 <= max(a, b):
            if a == b:
                return i, 0.0
            return i, (x0 - a) / (b - a)
    return None


def loop_swing(u, v, bounds):
    """Reference: month selection and matching one month at a time.

    Returns (kept, dropped, up, left, lam) index lists, or the message of the
    error `build_swing_samples` must raise.
    """
    usable = ~(np.isnan(u) | np.isnan(v))
    lo, hi = START.months_until(bounds.down_start), START.months_until(bounds.down_end)
    down = [t for t in range(lo, hi + 1) if usable[t]]
    if not down:
        return "empty downswing sample"
    up = []
    stop = len(u) - 1 if bounds.up_end is None else START.months_until(bounds.up_end)
    for t in range(START.months_until(bounds.up_start), stop + 1):
        if not usable[t]:
            continue
        up.append(t)
        if bounds.up_end is None and u[t] < min(u[down]):
            break
    if not up:
        return "empty upswing sample"
    kept, dropped, left, lam = [], [], [], []
    for t in down:
        hit = first_bracket(u[up], u[t])
        if hit is None:
            dropped.append(t)
        else:
            kept.append(t)
            left.append(hit[0])
            lam.append(hit[1])
    if not kept:
        return "no downswing point is bracketable"
    return kept, dropped, up, left, lam


GRID = (0.04, 0.05, 0.06, 0.07, 0.08)
RATES = st.one_of(st.sampled_from(GRID), st.floats(0.03, 0.10), st.just(np.nan))


@st.composite
def swings(draw):
    """Unemployment and vacancy rates for a downswing followed by an upswing.

    The upswing has NaN gaps, repeated values (equal pairs) and wiggles, and
    may be one month long.  Downswing rates are drawn from the upswing's own
    values, the grid, fresh values and NaN, so knots are hit exactly; some
    downswings are longer than two matching blocks.
    """
    up = draw(st.lists(RATES, min_size=1, max_size=30))
    n_down = draw(st.one_of(st.integers(1, 40),
                            st.integers(2 * _BLOCK + 1, 3 * _BLOCK)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate([up, GRID, rng.uniform(0.03, 0.10, 5), [np.nan]])
    u = np.concatenate([rng.choice(pool, n_down), up])
    v = np.where(rng.random(len(u)) < 0.05, np.nan, 0.03)
    up_end = START.shift(len(u) - 1) if draw(st.booleans()) else None
    bounds = SwingBounds(down_start=START, down_end=START.shift(n_down - 1),
                         up_start=START.shift(n_down), up_end=up_end)
    return u, v, bounds


class TestSwingMatchingProperties:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(swing=swings())
    def test_matches_scalar_first_bracket(self, swing):
        u, v, bounds = swing
        want = loop_swing(u, v, bounds)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                build_swing_samples(series(u), series(v), bounds)
            return
        kept, dropped, up, left, lam = want
        got = build_swing_samples(series(u), series(v), bounds)
        assert np.array_equal(got.down_index, kept)
        assert_months(got.dropped_months, dropped)
        assert np.array_equal(got.up_index, up)
        assert np.array_equal(got.pair_left, left)
        assert np.array_equal(got.pair_lam, lam)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(x=st.lists(RATES, min_size=1, max_size=30), seed=st.integers(0, 2**32 - 1))
    def test_nan_pairs_never_bracket(self, x, seed):
        # NaN months never reach the upswing, so test the scan on NaN directly
        rng = np.random.default_rng(seed)
        x0 = rng.choice(np.concatenate([x, GRID, rng.uniform(0.03, 0.10, 5)]),
                        2 * _BLOCK + 7)
        left, lam = _first_crossings(np.array(x), x0)
        want = [first_bracket(x, p) or (-1, np.nan) for p in x0]
        assert np.array_equal(left, [i for i, _ in want])
        assert np.array_equal(lam, [w for _, w in want], equal_nan=True)


def loop_interp(up, left, lam):
    """Reference: the pair-at-a-time interpolation `_interp_at_pairs` replaced."""
    out = np.empty(len(left))
    for k, (i, w) in enumerate(zip(left, lam)):
        out[k] = up[i] if w == 0.0 else up[i] + w * (up[i + 1] - up[i])
    return out


class TestInterpAtPairs:
    def test_matches_pair_at_a_time_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        up = rng.uniform(-3.0, -1.0, 40)
        up[[7, 20, 21]] = np.nan
        left = rng.integers(0, 39, 300)
        lam = np.where(rng.random(300) < 0.3, 0.0, rng.random(300))
        # lam = 0 next to a missing right knot keeps the left knot's value
        left[:3], lam[:3] = [6, 19, 20], 0.0
        got = _interp_at_pairs(up, left, lam)
        assert np.array_equal(got, loop_interp(up, left, lam), equal_nan=True)
        assert not np.isnan(got[:2]).any()

    def test_one_point_upswing(self):
        up, left, lam = np.array([-2.5]), np.array([0, 0]), np.array([0.0, 0.0])
        assert np.array_equal(_interp_at_pairs(up, left, lam), loop_interp(up, left, lam))


class TestVerticalShift:
    def test_identical_curves_zero_shift(self):
        samples, log_v = hump(offset=0.0)
        shifts = samples.vertical_shift(log_v)
        assert len(shifts) == 4
        np.testing.assert_allclose(shifts, 0.0, atol=1e-12)

    def test_uniform_offset_recovered(self):
        samples, log_v = hump(offset=0.2)
        shifts = samples.vertical_shift(log_v)
        assert len(shifts) == 4
        np.testing.assert_allclose(shifts, 0.2, atol=1e-12)


def loglinear(U, V, s, sigma, samples, point):
    """The log-linear decomposition from the expansion at `point`, of the
    series U, V and s and the array sigma."""
    expansion = three_state_loglinear(two_state(U, s), sigma, point)
    return loglinear_shift_decomposition(U.values, V.values, expansion, samples)


class TestLoglinearDecomposition:
    POINT = ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.36, alpha=0.3)

    def test_self_matching_gives_zero(self):
        # upswing sample equal to the downswing months: every point matches
        # itself, so every contribution vanishes
        u = np.array([0.050, 0.060, 0.070, 0.080])
        v = np.exp(-1.0 - 10.0 * u)
        s = series(np.full(4, 0.02))
        sg = np.full(4, 0.36)
        bounds = SwingBounds(down_start=START, down_end=START.shift(2),
                             up_start=START, up_end=START.shift(3))
        samples = build_swing_samples(series(u), series(v), bounds)
        dec = loglinear(series(u), series(v), s, sg, samples, self.POINT)
        for margin in MARGINS:
            np.testing.assert_allclose(dec.contributions[margin], 0.0, atol=1e-15)

    def test_halved_efficiency_hand_value(self):
        # constant everything except matching efficiency, which halves in the
        # upswing: contribution is +(1/alpha) ln 2
        n = 10
        u = np.full(n, 0.06)
        v = np.full(n, 0.03)
        s = series(np.full(n, 0.02))
        sigma = np.full(n, 0.36)
        sigma[5:] = 0.18
        bounds = SwingBounds(down_start=START, down_end=START.shift(3),
                             up_start=START.shift(5), up_end=START.shift(8))
        samples = build_swing_samples(series(u), series(v), bounds)
        dec = loglinear(series(u), series(v), s, sigma, samples, self.POINT)
        expected = (1 / 0.3) * math.log(2.0)
        np.testing.assert_allclose(dec.contributions[MARGIN_MATCHING], expected,
                                   rtol=1e-12)
        assert expected == pytest.approx(2.3105, abs=5e-5)
        np.testing.assert_allclose(dec.contributions[MARGIN_DYNAMICS], 0.0, atol=1e-15)
        np.testing.assert_allclose(dec.contributions[MARGIN_SEPARATIONS], 0.0,
                                   atol=1e-15)

    def test_additivity_and_method_tag(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        samples = recession_pipeline["samples"]
        dec = loglinear(panel.U, panel.V, panel.s, recession_pipeline["sigma_hat"],
                        samples, recession_pipeline["point"])
        # the observed column is the up-down shift of ln V at the kept pairs
        kept = np.isin(samples.down_index, dec.months)
        np.testing.assert_array_equal(
            dec.observed, samples.vertical_shift(np.log(panel.V.values))[kept])
        contrib = dec.contributions
        np.testing.assert_allclose(
            dec.total, contrib[MARGIN_DYNAMICS] + contrib[MARGIN_SEPARATIONS]
            + contrib[MARGIN_MATCHING], atol=1e-15)
        # first-order decomposition tracks the observed shift closely
        assert np.corrcoef(dec.total, dec.observed)[0, 1] > 0.99


@st.composite
def noisy_swings(draw):
    """A simulated two-state panel on a cycle, with lognormal noise on the
    efficiency path and a drawn alpha, optionally smoothed (which leaves the
    edge months missing), run through the CLI's pipeline: panel, separations
    and constructed efficiency, each with a few more months missing on its
    own, the expansion point at the sample means, and swing samples on
    bounds drawn inside the panel."""
    n = draw(st.integers(40, 160))
    alpha = draw(st.floats(0.1, 0.9))
    t = np.arange(n - 1)
    du = draw(st.floats(2e-4, 1.5e-3)) * np.sin(
        2.0 * np.pi * (t / draw(st.floats(12.0, 60.0)) + draw(st.floats(0.0, 1.0))))
    try:
        sim = ba.simulate(ba.SimulationSpec(
            alpha=alpha, u0=0.06, horizon=n, s_path=draw(st.floats(0.015, 0.025)),
            sigma_path=draw(st.floats(0.5, 0.8)), delta_u_path=du,
            noise_std=draw(st.floats(0.0, 0.05)),
            seed=draw(st.integers(0, 2**32 - 1)), start=START))
    except ValueError:  # a planted vacancy rate left (0, 1)
        assume(False)
    raw = sim.panel
    window = draw(st.sampled_from([1, 3, 4]))
    align = draw(st.sampled_from(["centered", "trailing"]))
    cols = [ba.moving_average(x, window, align) for x in (raw.U, raw.V, raw.U_short)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ba.ProbabilityRangeWarning)
        panel = ba.build_two_state_panel(*cols)
    theta = ba.tightness(panel.U, panel.V)
    sigma = ba.matching_efficiency_path(panel.f.values, theta.values, alpha, start=START)

    def holed(values):
        values = values.copy()
        values[draw(st.lists(st.integers(0, n - 1), max_size=4))] = np.nan
        return values

    s, sigma = panel.s.with_values(holed(panel.s.values)), holed(sigma)
    point = ApproximationPoint.from_series(panel.U, s, sigma, alpha,
                                           (START, START.shift(n - 1)))
    down_start = draw(st.integers(0, n - 3))
    down_end = draw(st.integers(down_start, n - 2))
    up_start = draw(st.integers(down_end + 1, n - 1))
    up_end = draw(st.one_of(st.none(), st.integers(up_start, n - 1)))
    bounds = SwingBounds(down_start=START.shift(down_start),
                         down_end=START.shift(down_end), up_start=START.shift(up_start),
                         up_end=None if up_end is None else START.shift(up_end))
    try:
        samples = build_swing_samples(panel.U, panel.V, bounds)
    except ValueError:  # no usable or bracketable downswing month
        assume(False)
    return panel, s, sigma, point, samples


class TestLoglinearMatchesReference:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(case=noisy_swings())
    def test_terms_shift_as_coefficient_times_coordinate(self, case):
        panel, s, sigma, point, samples = case
        got = loglinear(panel.U, panel.V, s, sigma, samples, point)
        want = reference_decomposition(panel.U, panel.V, s, sigma, samples, point)
        assert_months(got.months, want.months)
        assert_months(got.dropped_months, want.dropped_months)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.observed, want.observed)
        for margin in MARGINS:
            np.testing.assert_allclose(got.contributions[margin],
                                       want.contributions[margin],
                                       rtol=0, atol=1e-14, err_msg=margin)


def kept_pairs(samples, table):
    """Mask of the matched points the ordering table kept."""
    return ~np.isin(samples.down_index, table.dropped_months)


def held_percent(U, s, sigma, samples, point, table, margin):
    """Percent of the last-placed `margin`: the mean gap between the identity
    shift and the shift with `margin`'s series replaced by the point's
    constant, both through the identity with nothing held."""
    observed = identity(two_state(U, s), sigma, point.alpha)
    if margin == MARGIN_MATCHING:
        sigma = np.full(len(U), point.sigma_0)
    else:
        s = U.with_values(np.full(len(U), point.x_0))
    held = identity(two_state(U, s), sigma, point.alpha)
    gap = samples.vertical_shift(observed) - samples.vertical_shift(held)
    return 100.0 * float(gap[kept_pairs(samples, table)].mean()) \
        / table.average_observed_shift


class TestMonthIndices:
    """Months are int arrays of grid indices (2007-07 is 90), the empty ones
    too: the unbracketable downswing months, then the points a result drops
    itself."""

    @pytest.mark.parametrize("up_start, hole, unbracketable", [
        (MonthDate(2010, 1), None, []),
        # 2009-04..2009-06 lie above the upswing from 2010-09, and a missing
        # efficiency month at 2007-09 drops that point from both results
        (MonthDate(2010, 9), 92, [111, 112, 113])])
    def test_month_fields_are_int_grid_indices(self, recession_pipeline, up_start,
                                               hole, unbracketable):
        panel = recession_pipeline["panel"]
        sigma = recession_pipeline["sigma_hat"]
        point = recession_pipeline["point"]
        if hole is not None:
            sigma = sigma.copy()
            sigma[hole] = np.nan
        bounds = SwingBounds(down_start=MonthDate(2007, 7), down_end=MonthDate(2009, 6),
                             up_start=up_start)
        samples = build_swing_samples(panel.U, panel.V, bounds)
        assert_months(samples.dropped_months, unbracketable)
        assert_months(samples.down_index,
                      [t for t in range(90, 114) if t not in unbracketable])
        dropped = unbracketable + ([] if hole is None else [hole])
        kept = [t for t in range(90, 114) if t not in dropped]
        dec = loglinear(panel.U, panel.V, panel.s, sigma, samples, point)
        assert_months(dec.months, kept)
        assert_months(dec.dropped_months, dropped)
        table = all_orderings_report(panel, panel.V.values, sigma, samples, point)
        assert_months(table.dropped_months, dropped)
        assert table.n_pairs == len(kept)


class TestCounterfactuals:
    def test_point_with_non_searchers_rejected(self, recession_pipeline):
        # the table holds two-state margins, at a point with N_tilde_0 = 0
        panel = recession_pipeline["panel"]
        point = ApproximationPoint(S_0=0.068, N_tilde_0=0.2, x_0=0.02, sigma_0=0.3,
                                   alpha=0.3)
        with pytest.raises(ValueError, match="^two-state point needs N_tilde_0 = 0, "
                                             "got 0.2$"):
            all_orderings_report(panel, panel.V.values, recession_pipeline["sigma_hat"],
                                 recession_pipeline["samples"], point)

    def test_panel_with_non_searchers_rejected(self, recession_pipeline):
        # holding every margin leaves N_tilde observed, so the all-held shift
        # is zero only on a panel without non-searchers
        panel = recession_pipeline["panel"]
        n_tilde = np.zeros(len(panel.U))
        n_tilde[100] = 0.25
        with_pool = SimpleNamespace(S=panel.U, N_tilde=panel.U.with_values(n_tilde),
                                    x=panel.s)
        with pytest.raises(ValueError, match=r"^two-state panel needs N_tilde = 0, "
                                             r"got 0\.25 at 2008-05$"):
            all_orderings_report(with_pool, panel.V.values,
                                 recession_pipeline["sigma_hat"],
                                 recession_pipeline["samples"],
                                 recession_pipeline["point"])

    def test_batched_sigma_rejected_by_both_reports(self, recession_pipeline):
        # the reports pool matched pairs: a leading axis would mix paths
        panel, point = recession_pipeline["panel"], recession_pipeline["point"]
        samples = recession_pipeline["samples"]
        rows = np.stack([recession_pipeline["sigma_hat"]] * 2)
        expansion = three_state_loglinear(panel, rows, point)
        with pytest.raises(ValueError, match="^one path per report: arrays must be 1-D"):
            loglinear_shift_decomposition(panel.U.values, panel.V.values, expansion,
                                          samples)
        with pytest.raises(ValueError, match="^one path per report: arrays must be 1-D"):
            all_orderings_report(panel, panel.V.values, rows, samples, point)

    def test_unknown_margin_rejected(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        with pytest.raises(ValueError, match=r"^unknown margins \['slope'\]"):
            counterfactual_vacancies(panel, recession_pipeline["sigma_hat"],
                                     recession_pipeline["point"],
                                     [(), ("matching", "slope")])

    def test_holding_nothing_is_the_exact_identity(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        sigma = recession_pipeline["sigma_hat"]
        point = recession_pipeline["point"]
        samples = recession_pipeline["samples"]
        table = all_orderings_report(panel, panel.V.values, sigma, samples, point)
        ev = counterfactual_vacancies(panel, sigma, point, [()])[frozenset()]
        shift = samples.interp_up(ev) - samples.at_down(ev)
        kept = kept_pairs(samples, table)
        # the empty-held subset shift is the exact identity's shift, bit for bit
        assert table.average_observed_shift == float(shift[kept].mean())
        # and the identity reproduces observed vacancies, with the last
        # month missing (it has no successor)
        assert np.isnan(ev[-1])
        ok = ~np.isnan(ev)
        np.testing.assert_allclose(ev[ok], panel.V.values[ok], rtol=1e-12)

    def test_holding_everything_is_the_steady_state_curve(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        point = recession_pipeline["point"]
        u = panel.U.values
        (got,) = counterfactual_vacancies(panel, recession_pipeline["sigma_hat"], point,
                                          [MARGINS]).values()
        want = (point.x_0 * (1 - u) /
                (point.sigma_0 * u ** (1 - point.alpha))) ** (1 / point.alpha)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_one_path_per_subset_on_the_panel_grid(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        subsets = [(), (MARGIN_MATCHING,), (MARGIN_SEPARATIONS, MARGIN_DYNAMICS),
                   (MARGIN_DYNAMICS, MARGIN_SEPARATIONS)]
        paths = counterfactual_vacancies(panel, recession_pipeline["sigma_hat"],
                                         recession_pipeline["point"], subsets)
        assert list(paths) == [frozenset(), frozenset({MARGIN_MATCHING}),
                               frozenset({MARGIN_SEPARATIONS, MARGIN_DYNAMICS})]
        for path in paths.values():
            assert path.shape == panel.U.values.shape


def single_margin_sim(which, n=40):
    """Panel where only one margin differs between the two halves."""
    sigma_path = np.full(n, 0.36)
    s_path = np.full(n, 0.02)
    if which == "matching":
        sigma_path[n // 2:] *= 0.75
    elif which == "separations":
        s_path[n // 2:] *= 1.3
    spec = ba.SimulationSpec(alpha=0.3, u0=0.06, horizon=n, s_path=s_path,
                             sigma_path=sigma_path, start=START)
    sim = ba.simulate(spec)
    panel = sim.panel
    theta = ba.tightness(panel.U, panel.V)
    sigma_hat = ba.matching_efficiency_path(panel.f.values, theta.values, 0.3,
                                            start=START)
    point = ApproximationPoint(S_0=0.06, N_tilde_0=0.0, x_0=0.02, sigma_0=0.36, alpha=0.3)
    bounds = SwingBounds(down_start=START.shift(5), down_end=START.shift(10),
                         up_start=START.shift(n // 2 + 5),
                         up_end=START.shift(n // 2 + 10))
    samples = build_swing_samples(panel.U, panel.V, bounds)
    return panel, sigma_hat, point, samples


class TestNonlinearDecomposition:
    def test_single_margin_full_attribution(self):
        for margin in (MARGIN_MATCHING, MARGIN_SEPARATIONS):
            panel, sigma_hat, point, samples = single_margin_sim(margin)
            table = all_orderings_report(panel, panel.V.values, sigma_hat, samples,
                                         point)
            for row in table.rows:
                assert list(row.percent) == list(MARGINS)
                for name, value in row.percent.items():
                    want = 100.0 if name == margin else 0.0
                    assert value == pytest.approx(want, abs=1e-9), \
                        f"{margin}-only sim, ordering {row.ordering}, {name}"

    def test_telescoping_all_orderings(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        table = all_orderings_report(panel, panel.V.values,
                                     recession_pipeline["sigma_hat"],
                                     recession_pipeline["samples"],
                                     recession_pipeline["point"])
        for row in table.rows:
            assert sum(row.percent.values()) == pytest.approx(100.0, abs=1e-9)

    def test_recession_fixture_sign_pattern(self, recession_pipeline):
        # net shift up; dynamics and matching push the curve up between the
        # swings while separations push it down, in every ordering
        panel = recession_pipeline["panel"]
        table = ba.all_orderings_report(panel, panel.V.values,
                                        recession_pipeline["sigma_hat"],
                                        recession_pipeline["samples"],
                                        recession_pipeline["point"])
        assert table.average_observed_shift > 0
        for row in table.rows:
            assert row.percent[MARGIN_DYNAMICS] > 0, row
            assert row.percent[MARGIN_SEPARATIONS] < 0, row
            assert row.percent[MARGIN_MATCHING] > 0, row

    def test_margin_first_and_prefix_set_invariance(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        table = all_orderings_report(panel, panel.V.values,
                                     recession_pipeline["sigma_hat"],
                                     recession_pipeline["samples"],
                                     recession_pipeline["point"])
        rows = {r.ordering: r for r in table.rows}
        d, s, m = MARGIN_DYNAMICS, MARGIN_SEPARATIONS, MARGIN_MATCHING
        # a margin placed first gets the same contribution in both orderings
        assert rows[(d, s, m)].percent[d] == rows[(d, m, s)].percent[d]
        assert rows[(s, d, m)].percent[s] == rows[(s, m, d)].percent[s]
        assert rows[(m, d, s)].percent[m] == rows[(m, s, d)].percent[m]
        # more generally, only the preceding *set* matters
        assert rows[(d, s, m)].percent[m] == rows[(s, d, m)].percent[m]
        assert rows[(d, m, s)].percent[s] == rows[(m, d, s)].percent[s]
        assert rows[(s, m, d)].percent[d] == rows[(m, s, d)].percent[d]

    def test_last_margin_is_difference_from_held_counterfactual(
            self, recession_pipeline):
        # adding matching last: its contribution equals the gap between the
        # observed shift and the shift with efficiency held constant
        panel = recession_pipeline["panel"]
        samples = recession_pipeline["samples"]
        point = recession_pipeline["point"]
        sigma_hat = recession_pipeline["sigma_hat"]
        table = all_orderings_report(panel, panel.V.values, sigma_hat, samples, point)
        rows = {r.ordering: r for r in table.rows}
        want = held_percent(panel.U, panel.s, sigma_hat, samples, point, table,
                            MARGIN_MATCHING)
        row = rows[(MARGIN_DYNAMICS, MARGIN_SEPARATIONS, MARGIN_MATCHING)]
        assert row.percent[MARGIN_MATCHING] == want

    def test_sign_agreement_with_loglinear(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        rest = (recession_pipeline["sigma_hat"], recession_pipeline["samples"],
                recession_pipeline["point"])
        table = all_orderings_report(panel, panel.V.values, *rest)
        ll = loglinear(panel.U, panel.V, panel.s, *rest)
        row = {r.ordering: r for r in table.rows}[
            (MARGIN_DYNAMICS, MARGIN_SEPARATIONS, MARGIN_MATCHING)]
        for name in MARGINS:
            # the percent's sign times the observed shift's sign is the sign
            # of the mean level contribution
            level = row.percent[name] * table.average_observed_shift
            assert np.sign(level) == np.sign(np.mean(ll.contributions[name])), name

    def test_partial_infeasibility_drops_and_reports(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        sigma_hat = recession_pipeline["sigma_hat"]
        samples = recession_pipeline["samples"]
        # a tiny held separation rate cannot cover the downswing's rising
        # unemployment, so those matched pairs become infeasible
        point = ApproximationPoint(S_0=0.068, N_tilde_0=0.0, x_0=1e-6, sigma_0=0.30,
                                   alpha=0.3)
        with pytest.raises(AllPairsInfeasibleError):
            all_orderings_report(panel, panel.V.values, sigma_hat, samples, point)

    def test_overflowed_pair_is_dropped_like_a_missing_one(self, recession_pipeline):
        # an efficiency of 1e-300 at 2007-12 (grid index 95) makes the
        # identity's vacancy rate overflow there, so that pair is dropped and
        # reported as it is where sigma is missing, with no warning
        panel, samples, point = (recession_pipeline[k] for k in ("panel", "samples",
                                                                 "point"))

        def table(value):
            sigma = recession_pipeline["sigma_hat"].copy()
            sigma[95] = value
            return sigma, all_orderings_report(panel, panel.V.values, sigma, samples,
                                               point)

        sigma, overflowed = table(1e-300)
        assert np.isinf(counterfactual_vacancies(panel, sigma, point, [()])[frozenset()][95])
        _, missing = table(np.nan)
        assert_months(overflowed.dropped_months, [95])
        assert overflowed.rows == missing.rows
        assert all(np.isfinite(list(row.percent.values())).all() for row in overflowed.rows)
        assert (overflowed.n_pairs, overflowed.average_observed_shift) == (
            missing.n_pairs, missing.average_observed_shift)

    def test_identity_mismatch_warns(self, recession_pipeline):
        panel = recession_pipeline["panel"]
        scaled_v = panel.V.with_values(panel.V.values * 1.01)
        samples = ba.build_swing_samples(panel.U, scaled_v,
                                         recession_pipeline["bounds"])
        with pytest.warns(IdentityMismatchWarning,
                          match="deviate from the vacancy identity") as record:
            all_orderings_report(panel, scaled_v.values,
                                 recession_pipeline["sigma_hat"], samples,
                                 recession_pipeline["point"])
        assert record[0].filename == __file__  # attributed to the caller


@st.composite
def recession_panels(draw):
    """A simulated two-state recession with planted breaks.

    Unemployment is flat, rises over a 24-month downswing and falls over the
    upswing, with month-to-month noise on the change; the separation and
    efficiency paths each get a level break at a drawn month.  Returns the
    pipeline the CLI builds: panel, constructed efficiency, expansion point
    and swing samples.
    """
    n, flat, rise = 72, 12, 24
    alpha = draw(st.floats(0.3, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    du = np.zeros(n - 1)
    du[flat:flat + rise] = draw(st.floats(3e-4, 1.5e-3))
    du[flat + rise:] = -draw(st.floats(2e-4, 5e-4))
    du += draw(st.floats(0.0, 3e-4)) * rng.uniform(-1.0, 1.0, n - 1)
    s_path = np.full(n, 0.02)
    s_path[draw(st.integers(1, n - 1)):] *= draw(st.floats(0.85, 1.2))
    sigma_path = np.full(n, 0.36)
    sigma_path[draw(st.integers(1, n - 1)):] *= draw(st.floats(0.75, 1.3))
    sim = ba.simulate(ba.SimulationSpec(
        alpha=alpha, u0=0.05, horizon=n, s_path=s_path, sigma_path=sigma_path,
        delta_u_path=du, start=START))
    panel = sim.panel
    sigma_hat = ba.matching_efficiency_path(
        panel.f.values, ba.tightness(panel.U, panel.V).values, alpha, start=START)
    point = ApproximationPoint(S_0=draw(st.floats(0.04, 0.09)), N_tilde_0=0.0,
                               x_0=draw(st.floats(0.015, 0.025)),
                               sigma_0=draw(st.floats(0.25, 0.45)), alpha=alpha)
    bounds = SwingBounds(down_start=START.shift(flat),
                         down_end=START.shift(flat + rise - 1),
                         up_start=START.shift(flat + rise))
    samples = build_swing_samples(panel.U, panel.V, bounds)
    return panel, sigma_hat, point, samples


class TestOrderingTableProperties:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=recession_panels())
    def test_telescoping_prefix_sets_and_last_margin(self, case):
        panel, sigma_hat, point, samples = case
        table = all_orderings_report(panel, panel.V.values, sigma_hat, samples, point)
        rows = {r.ordering: r for r in table.rows}
        assert len(rows) == 6
        for row in table.rows:
            assert sum(row.percent.values()) == pytest.approx(100.0, abs=1e-9), row

        # a margin's percent depends only on the set switched on before it
        pct = {(frozenset(o[:k]), m): rows[o].percent[m]
               for o in rows for k, m in enumerate(o)}
        for o in rows:
            for k, m in enumerate(o):
                assert rows[o].percent[m] == pct[frozenset(o[:k]), m]

        for margin in (MARGIN_SEPARATIONS, MARGIN_MATCHING):
            want = held_percent(panel.U, panel.s, sigma_hat, samples, point,
                                table, margin)
            for o, row in rows.items():
                if o[-1] == margin:
                    assert row.percent[margin] == want, o


def outcome(report, *args):
    """What `report(*args)` gives: its table or its ValueError's type and
    text, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = report(*args)
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def same_float(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestOrderingTableMatchesReference:
    """The loop over `MARGINS` gives the table of the margins spelled out
    one by one (`reference_orderings`), bit for bit, on the recession
    panels and on noisy, smoothed swings with missing months."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(case=st.one_of(
        recession_panels().map(lambda c: (c[0].U, c[0].V, c[0].s, *c[1:])),
        noisy_swings().map(lambda c: (c[0].U, c[0].V, c[1], c[2], c[3], c[4]))))
    def test_same_table_bit_for_bit(self, case):
        U, V, s, sigma, point, samples = case
        got, got_warnings = outcome(all_orderings_report, two_state(U, s), V.values,
                                    sigma, samples, point)
        want, want_warnings = outcome(reference_orderings.all_orderings_report,
                                      U, V, s, sigma, samples, point)
        assert got_warnings == want_warnings
        if isinstance(want, tuple):
            assert got == want
            return
        assert same_float(got.average_observed_shift, want.average_observed_shift)
        assert got.n_pairs == want.n_pairs
        assert_months(got.dropped_months, want.dropped_months)
        assert [row.ordering for row in got.rows] == [row.ordering for row in want.rows]
        for g, w in zip(got.rows, want.rows):
            assert list(g.percent) == list(MARGINS)
            assert same_float([g.percent[m] for m in MARGINS],
                              [w.dynamics_pct, w.separations_pct, w.matching_pct])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", reference_orderings.InfeasibleMonthWarning)
            exact = reference_orderings.exact_vacancies(U, s, sigma, point.alpha)
        assert same_float(identity(two_state(U, s), sigma, point.alpha), exact)


# ---------------------------------------------------------------------------
# The abstract's pattern on planted recessions
# ---------------------------------------------------------------------------

# One 44-year panel with three recessions, each 18 months of rising and 36 of
# falling unemployment: the first with a separations spike on the way up,
# the second with its dynamics alone, the third with the spike and a
# permanent 20% fall in matching efficiency from its peak on
RECESSION_START = MonthDate(1970, 1)
RECESSION_DOWN, RECESSION_UP = 18, 36
RECESSIONS = {"separations": 60, "dynamics": 220, "matching": 380}


@pytest.fixture(scope="module")
def planted_recessions():
    n = 44 * 12
    du, s, sigma = np.zeros(n - 1), np.full(n, 0.02), np.full(n, 0.36)
    for kind, start in RECESSIONS.items():
        peak = start + RECESSION_DOWN
        du[start:peak] = 0.002
        du[peak:peak + RECESSION_UP] = -0.001
        if kind != "dynamics":
            s[start:peak] *= 1.3
        if kind == "matching":
            sigma[peak:] *= 0.8
    sim = ba.simulate(ba.SimulationSpec(alpha=0.3, u0=0.05, horizon=n, s_path=s,
                                        sigma_path=sigma, delta_u_path=du,
                                        start=RECESSION_START))
    panel = sim.panel
    theta = ba.tightness(panel.U, panel.V)
    sigma_hat = ba.matching_efficiency_path(panel.f.values, theta.values, 0.3,
                                            start=RECESSION_START)
    tables = {}
    for kind, start in RECESSIONS.items():
        # each recession with its own swing bounds and its own expansion point
        month = RECESSION_START.shift
        peak = start + RECESSION_DOWN
        bounds = SwingBounds(down_start=month(start), down_end=month(peak - 1),
                             up_start=month(peak), up_end=month(peak + RECESSION_UP - 1))
        point = ApproximationPoint.from_panel(panel, sigma_hat, 0.3,
                                              (bounds.down_start, bounds.up_end))
        samples = build_swing_samples(panel.U, panel.V, bounds)
        tables[kind] = all_orderings_report(panel, panel.V.values, sigma_hat, samples,
                                            point)
    return tables


def test_planted_recessions_show_the_abstracts_pattern(planted_recessions):
    # matching matters only where efficiency fell; where it did not,
    # separations and dynamics do the work and offset each other in part
    shares = {kind: {margin: [row.percent[margin] for row in table.rows]
                     for margin in MARGINS}
              for kind, table in planted_recessions.items()}
    for kind in ("separations", "dynamics"):
        assert max(map(abs, shares[kind]["matching"])) < 1e-9, kind
    assert min(shares["separations"]["separations"]) > 100.0
    assert max(shares["separations"]["dynamics"]) < 0.0
    assert shares["dynamics"]["dynamics"] == pytest.approx([100.0] * 6, abs=1e-9)
    assert max(map(abs, shares["dynamics"]["separations"])) < 1e-9
    assert min(shares["matching"]["matching"]) > 0.0
    assert max(shares["matching"]["separations"]) < 0.0
    # in every ordering the three shares add up to the observed shift
    for table in planted_recessions.values():
        assert table.n_pairs > 0
        for row in table.rows:
            assert sum(row.percent.values()) == pytest.approx(100.0, abs=1e-9)

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beveridge_accounting import (MonthDate, MonthlySeries, RakingError,
                                  SimulationSpec, ThreeStatePanel, rake_transition_rates,
                                  simulate, total_hires)
from beveridge_accounting.flows_three_state import RATE_NAMES
from reference_ipf import reference_rake
from conftest import make_three_state_steady

START = MonthDate(2000, 1)


def series(values):
    return MonthlySeries(START, values)


def consistent_two_month_example():
    """Stocks at t, rates at t, and the implied stocks at t+1."""
    e0, u0, n0 = 0.75, 0.05, 0.20
    rates = {"eu": 0.015, "en": 0.02, "ue": 0.25, "un": 0.03,
             "ne": 0.04, "nu": 0.02}
    du = e0 * rates["eu"] + n0 * rates["nu"] - u0 * rates["un"] - u0 * rates["ue"]
    dn = e0 * rates["en"] + u0 * rates["un"] - n0 * rates["ne"] - n0 * rates["nu"]
    u1, n1 = u0 + du, n0 + dn
    e1 = 1.0 - u1 - n1
    stocks = (series([e0, e1]), series([u0, u1]), series([n0, n1]))
    rate_series = {k: series([v, np.nan]) for k, v in rates.items()}
    return stocks, rate_series, rates


def flow_matrix(stocks, rates):
    e, u, n = stocks
    return np.array([
        [e * (1 - rates["eu"] - rates["en"]), e * rates["eu"], e * rates["en"]],
        [u * rates["ue"], u * (1 - rates["ue"] - rates["un"]), u * rates["un"]],
        [n * rates["ne"], n * rates["nu"], n * (1 - rates["ne"] - rates["nu"])],
    ])


def assert_matches_reference(args, got, want, tol=1e-12):
    """`rake_transition_rates(*args)` output `got` agrees with
    `reference_rake(*args)` output `want`: the same month-pairs raked, both
    within tol of their margins, and the raked flows (origin stock times
    rate) within 1e-9 relative or 10 tol absolute.  Each fit stops within
    tol of the exact one, so two fits can differ by about tol, whatever the
    size of the flow."""
    (raked, report), (ref, ref_report) = got, want
    origin = dict(zip(RATE_NAMES, (args[0][k].values for k in (0, 0, 1, 1, 2, 2))))
    for name in RATE_NAMES:
        np.testing.assert_allclose(origin[name] * raked[name].values,
                                   origin[name] * ref[name].values, rtol=1e-9,
                                   atol=10 * tol, equal_nan=True, err_msg=name)
    assert np.array_equal(report.iterations < 0, ref_report.iterations < 0)
    done = report.iterations >= 0
    assert (report.residuals[done] <= tol).all()
    assert (ref_report.residuals[done] <= tol).all()


def noisy_inputs(horizon, noise=1e-3, seed=9, quiet_months=0):
    """Constant stocks and their steady rates with multiplicative noise on
    every rate from month `quiet_months` on, so those month-pairs need raking."""
    sim = make_three_state_steady(horizon=horizon)
    rng = np.random.default_rng(seed)
    rates = {}
    for name in RATE_NAMES:
        vals = sim.panel.rates()[name].values.copy()
        vals[quiet_months:] *= 1 + noise * rng.standard_normal(horizon - quiet_months)
        rates[name] = vals
    stocks = {"E": sim.panel.E.values.copy(), "U": sim.panel.U.values.copy(),
              "N": sim.panel.N.values.copy()}
    return stocks, rates


def as_series(stocks, rates):
    return (tuple(series(stocks[k]) for k in "EUN"),
            {name: series(vals) for name, vals in rates.items()})


RATE_RANGES = {"eu": (0.005, 0.03), "en": (0.005, 0.04), "ue": (0.1, 0.5),
               "un": (0.01, 0.1), "ne": (0.01, 0.1), "nu": (0.005, 0.05)}


@st.composite
def consistent_panels(draw):
    """Stock-consistent panels from `simulate`: generated rate
    paths of up to 24 months from generated initial stocks.  Raking does
    not read V, so the efficiency is set high enough that every month's
    planted vacancy rate stays inside (0, 1) (below 0.25 on these ranges)."""
    n = draw(st.integers(2, 24))
    rates = {name: draw(arrays(float, n, elements=st.floats(lo, hi)))
             for name, (lo, hi) in RATE_RANGES.items()}
    spec = SimulationSpec(alpha=0.3, u0=draw(st.floats(0.02, 0.15)),
                          n0=draw(st.floats(0.1, 0.4)), horizon=n, s_path=rates.pop("eu"),
                          sigma_path=2.0, rates=rates)
    return simulate(spec).panel


class TestRaking:
    def test_consistent_rates_unchanged(self):
        stocks, rate_series, rates = consistent_two_month_example()
        raked, report = rake_transition_rates(stocks, rate_series)
        for name in RATE_NAMES:
            assert raked[name].values[0] == pytest.approx(rates[name], abs=1e-13)
        assert report.worst_residual < 1e-12

    def test_perturbed_rate_matches_oracle(self):
        stocks, rate_series, rates = consistent_two_month_example()
        bumped = dict(rates)
        bumped["ue"] = rates["ue"] + 1e-4
        bumped_series = {k: series([v, np.nan]) for k, v in bumped.items()}
        raked, report = rake_transition_rates(stocks, bumped_series)
        oracle, _ = reference_rake(stocks, bumped_series, tol=1e-13)
        for name in RATE_NAMES:
            assert raked[name].values[0] == pytest.approx(oracle[name].values[0], abs=1e-10)
        # small perturbation, small adjustment: stays near the consistent rates
        for name in RATE_NAMES:
            assert abs(raked[name].values[0] - rates[name]) < 2e-4
        assert report.max_adjustment[0] < 2e-4

    def test_adjustment_scales_linearly_with_inconsistency(self):
        # raking projects onto the margin-consistent manifold, so its
        # distance from the original rates is of the perturbation's order
        stocks, _, rates = consistent_two_month_example()
        distances = []
        for bump in (1e-4, 1e-5, 1e-6):
            bumped = dict(rates)
            bumped["ue"] = rates["ue"] + bump
            bumped_series = {k: series([v, np.nan]) for k, v in bumped.items()}
            raked, _ = rake_transition_rates(stocks, bumped_series)
            distances.append(max(abs(raked[n].values[0] - rates[n])
                                 for n in RATE_NAMES))
        assert distances[0] == pytest.approx(10 * distances[1], rel=1e-3)
        assert distances[1] == pytest.approx(10 * distances[2], rel=1e-3)

    def test_marginals_reproduced(self):
        stocks, rate_series, rates = consistent_two_month_example()
        bumped = {k: series([v * 1.02, np.nan]) for k, v in rates.items()}
        raked, _ = rake_transition_rates(stocks, bumped, tol=1e-12)
        rows = np.array([s.values[0] for s in stocks])
        cols = np.array([s.values[1] for s in stocks])
        fitted = flow_matrix(rows, {k: raked[k].values[0] for k in RATE_NAMES})
        np.testing.assert_allclose(fitted.sum(axis=1), rows, atol=1e-11)
        np.testing.assert_allclose(fitted.sum(axis=0), cols, atol=1e-11)

    def test_symmetric_consistent_case(self):
        third = 1.0 / 3.0
        stocks = (series([third, third]), series([third, third]),
                  series([third, third]))
        rates = {k: series([0.1, np.nan]) for k in RATE_NAMES}
        raked, _ = rake_transition_rates(stocks, rates)
        vals = [raked[k].values[0] for k in RATE_NAMES]
        np.testing.assert_allclose(vals, 0.1, atol=1e-13)

    def test_total_mismatch_rejected(self):
        stocks, rate_series, _ = consistent_two_month_example()
        e, u, n = stocks
        bad_u = series([u.values[0], u.values[1] + 0.001])
        with pytest.raises(RakingError, match="total population differs"):
            rake_transition_rates((e, bad_u, n), rate_series)

    def test_negative_stayer_rejected(self):
        stocks, rate_series, rates = consistent_two_month_example()
        bad = dict(rates)
        bad["ue"], bad["un"] = 0.7, 0.5  # exits exceed one
        bad_series = {k: series([v, np.nan]) for k, v in bad.items()}
        with pytest.raises(ValueError, match="negative stayer"):
            rake_transition_rates(stocks, bad_series)


class TestPanelRaking:
    """Every month-pair is raked at once; each must still come out as it
    would alone, and the earliest failing month names the error."""

    def test_matches_reference_ipf(self):
        stocks, rates = noisy_inputs(60)
        rates["ne"][[10, 11]] = np.nan
        stocks["N"][40] = np.nan
        args = as_series(stocks, rates)
        iterations = assert_rakes_like_reference(args)[1].iterations
        assert np.flatnonzero(iterations < 0).tolist() == [10, 11, 39, 40]
        # the noise makes IPF sweep many times, and Newton's method step twice
        assert reference_rake(*args)[1].iterations.max() > 10
        assert iterations.max() == 2

    def test_earliest_failing_month_wins(self):
        stocks, rates = noisy_inputs(96)
        stocks["U"][71] += 1e-3  # population mismatch at 2005-11 and 2005-12
        with pytest.raises(RakingError, match="month 2005-11: total population"):
            rake_transition_rates(*as_series(stocks, rates))
        rates["ue"][30], rates["un"][30] = 0.7, 0.5
        with pytest.raises(ValueError, match="month 2002-07: negative stayer"):
            rake_transition_rates(*as_series(stocks, rates))

    def test_earliest_unconverged_month_and_residual(self):
        stocks, rates = noisy_inputs(96, quiet_months=40)
        args = as_series(stocks, rates)
        steps = rake_transition_rates(*args)[1].iterations
        assert (steps[:40] == 0).all() and (steps[40:] == 2).all()
        with pytest.raises(RakingError) as got:
            rake_transition_rates(*args, max_iter=1)
        # the residual after one step, as month-pair 2003-05 raked alone has it
        alone = as_series({k: v[40:42] for k, v in stocks.items()},
                          {k: v[40:42] for k, v in rates.items()})
        with pytest.raises(RakingError) as single:
            rake_transition_rates(*alone, max_iter=1)
        worst = got.value.worst_residual
        assert worst == single.value.worst_residual > 1e-12
        assert str(got.value) == (f"month {START.shift(40)}: raking did not converge "
                                  f"within 1 iterations (worst residual {worst:.3e})")
        with pytest.raises(RakingError) as want:
            reference_rake(*args, max_iter=1)
        assert str(want.value).startswith(f"month {START.shift(40)}: raking did not "
                                          "converge within 1 iterations")

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(panel=consistent_panels(),
           noise=arrays(float, (len(RATE_NAMES), 24), elements=st.floats(-0.2, 0.2)),
           gaps=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 23)), max_size=4),
           # in the first four months, so that they meet each other
           zero_stocks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                                max_size=3),
           zero_rates=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                               max_size=4),
           empty=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 22),
                                    st.sampled_from(["row", "column"])), max_size=2),
           fault=st.sampled_from([None, None, None, None, "overfull", "mismatch"]),
           fault_month=st.integers(0, 23),
           tol=st.sampled_from([1e-9, 1e-12, 1e-14]))
    def test_property_matches_reference_ipf(self, panel, noise, gaps, zero_stocks,
                                            zero_rates, empty, fault, fault_month, tol):
        n = len(panel.E)
        stocks = {k: getattr(panel, k).values.copy() for k in "EUN"}
        rates = {name: getattr(panel, name).values * (1.0 + noise[k, :n])
                 for k, name in enumerate(RATE_NAMES)}

        def no_one_in(state, t):  # the state's people move to the next state
            stocks["EUN"[(state + 1) % 3]][t] += stocks["EUN"[state]][t]
            stocks["EUN"[state]][t] = 0.0

        for state, t in zero_stocks:
            if t < n:
                no_one_in(state, t)
        for k, t in zero_rates:
            if t < n:
                rates[RATE_NAMES[k]][t] = 0.0
        for state, t, margin in empty:
            if t + 1 < n:
                # an empty column: no one in the state and no one entering
                # it; an empty row: no one leaves it, and next month no one is in it
                no_one_in(state, t + (margin == "row"))
                for name in RATE_NAMES:
                    if name[margin == "column"] == "eun"[state]:
                        rates[name][t] = 0.0
        if fault == "overfull":  # with un > 0, exits sum above one
            rates["ue"][fault_month % (n - 1)] = 1.0
        if fault == "mismatch":
            stocks["U"][fault_month % n] += 1e-6
        cells = [stocks[k] for k in "EUN"] + [rates[name] for name in RATE_NAMES]
        for row, t in gaps:
            if t < n:
                cells[row][t] = np.nan
        args = as_series(stocks, rates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(args, rake_transition_rates, tol=tol)
            want = outcome(args, reference_rake, tol=tol)
        if not isinstance(want, Exception):
            assert not isinstance(got, Exception), got
            assert_matches_reference(args, got, want, tol)
        elif "did not converge" not in str(want):
            # a population mismatch, a negative stayer or an empty margin
            assert type(got) is type(want), got
            assert str(got) == str(want)
            assert (getattr(got, "worst_residual", None)
                    == getattr(want, "worst_residual", None))

    def test_zero_origin_stock_rakes_without_warnings(self):
        # no one is unemployed in 2002-07, though the rates out of
        # unemployment are not zero: every row factor meets a zero
        stocks, rates = noisy_inputs(96, quiet_months=30)
        stocks["E"][30] += stocks["U"][30]
        stocks["U"][30] = 0.0
        assert rates["ue"][30] > 0.0 and rates["un"][30] > 0.0
        raked, report = assert_rakes_like_reference(as_series(stocks, rates))
        assert raked["ue"].values[30] == raked["un"].values[30] == 0.0
        assert raked["eu"].values[29] == raked["nu"].values[29] == 0.0
        assert (report.iterations[29:31] >= 1).all()

    def test_empty_column_raises_loop_error_without_warnings(self):
        stocks, rates = noisy_inputs(96, quiet_months=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RakingError) as got:
                self._empty_column(stocks, rates)
        err = assert_rakes_like_reference(as_series(stocks, rates))
        assert str(got.value) == str(err)
        assert str(err) == "month 2002-07: empty flow column with positive target mass"
        assert err.worst_residual == np.inf

    @staticmethod
    def _mismatch(stocks, rates):
        stocks["U"][31] += 1e-3
        rake_transition_rates(*as_series(stocks, rates))

    @staticmethod
    def _negative_stayer(stocks, rates):
        rates["ue"][30], rates["un"][30] = 0.7, 0.5
        rake_transition_rates(*as_series(stocks, rates))

    @staticmethod
    def _not_converged(stocks, rates):
        rake_transition_rates(*as_series(stocks, rates), max_iter=1)

    @staticmethod
    def _empty_column(stocks, rates):
        # no one is unemployed in 2002-07, and no one enters unemployment
        stocks["E"][30] += stocks["U"][30]
        stocks["U"][30] = 0.0
        rates["eu"][30] = rates["nu"][30] = 0.0
        rake_transition_rates(*as_series(stocks, rates))

    @staticmethod
    def _stocks_off_simplex(stocks, rates):
        stocks["E"][30] += 1e-3
        ThreeStatePanel(*(series(stocks[k]) for k in "EUN"),
                        **{name: series(vals) for name, vals in rates.items()})

    @pytest.mark.parametrize("plant", ["_mismatch", "_negative_stayer",
                                       "_not_converged", "_empty_column",
                                       "_stocks_off_simplex"])
    def test_error_names_month_with_plain_floats(self, plant):
        # the rates are consistent before 2002-07, so every fault is first there
        stocks, rates = noisy_inputs(96, quiet_months=30)
        with pytest.raises((ValueError, RakingError)) as exc:
            getattr(self, plant)(stocks, rates)
        assert "2002-07" in str(exc.value)
        assert "np.float64" not in str(exc.value)


def outcome(args, rake, **kwargs):
    """`rake`'s result, or the error it raised."""
    try:
        return rake(*args, **kwargs)
    except (ValueError, RakingError) as exc:
        return exc


def assert_rakes_like_reference(args, **kwargs):
    """`rake_transition_rates` on `args` agrees with `reference_rake`
    (`assert_matches_reference`), or raises the same error with the same
    worst residual, without a warning.  Returns Newton's outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(args, rake_transition_rates, **kwargs)
        want = outcome(args, reference_rake, **kwargs)
    if isinstance(want, Exception):
        assert type(got) is type(want), got
        assert str(got) == str(want)
        assert (getattr(got, "worst_residual", None)
                == getattr(want, "worst_residual", None))
    else:
        assert not isinstance(got, Exception), got
        assert_matches_reference(args, got, want, kwargs.get("tol", 1e-12))
    return got


def assert_same_raking(got, want):
    """Two `rake_transition_rates` results are equal bit for bit."""
    for name in RATE_NAMES:
        assert np.array_equal(got[0][name].values, want[0][name].values,
                              equal_nan=True), name
    for field in ("iterations", "residuals", "max_adjustment"):
        assert np.array_equal(getattr(got[1], field), getattr(want[1], field),
                              equal_nan=True), field


def plant_underflow(stocks, rates, t, column, exits):
    """At month-pair t, give the unemployment column the cells `column`
    (from E, U and N), the unemployed the exit rates `exits` (ue, un) and
    next month's unemployment the stock 5e-324.  IPF's first column scaling
    then rounds every cell under about half the column sum to zero, so it
    meets an empty column, or with no exits an empty unemployed row, at its
    second sweep.  The pairs before and after are left out."""
    e_u, u_u, n_u = column
    rates["ue"][t], rates["un"][t] = exits
    stocks["E"][t] += stocks["U"][t]
    stocks["U"][t] = u_u / (1.0 - sum(exits))
    stocks["E"][t] -= stocks["U"][t]
    rates["eu"][t], rates["nu"][t] = e_u / stocks["E"][t], n_u / stocks["N"][t]
    stocks["E"][t + 1] += stocks["U"][t + 1]
    stocks["U"][t + 1] = 5e-324
    for name in RATE_NAMES:
        rates[name][[t - 1, t + 1]] = np.nan


def growing_noise_inputs():
    """48 months of `noisy_inputs` whose rate noise grows month by month from
    month 8 to 20% in the last, so the pairs need 0 to 4 Newton steps."""
    stocks, rates = noisy_inputs(48, quiet_months=8)
    calm = noisy_inputs(48, quiet_months=48)[1]
    scale = 200.0 * np.geomspace(1e-6, 1.0, 48)
    for name in RATE_NAMES:
        rates[name] = calm[name] + scale * (rates[name] - calm[name])
    return stocks, rates


class TestRakingEdges:
    """Step budgets, pairs that leave at different steps, and panels with
    margins that are empty or next to empty: every month-pair raked with
    the others must leave at its own first converged step, or fail on its
    own."""

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4])
    @pytest.mark.parametrize("tol", [1e-4, 1e-5, 1e-6, 1e-8, 1e-12])
    def test_step_budget_at_each_tolerance(self, max_iter, tol):
        # the pairs need up to 2 steps at 1e-4 to 1e-6 and up to 3 at 1e-8
        # and 1e-12: a budget at least the most steps any pair needs changes
        # nothing; a smaller one names the first pair that needs more
        args = as_series(*growing_noise_inputs())
        full = assert_rakes_like_reference(args, tol=tol)
        steps = full[1].iterations
        got = outcome(args, rake_transition_rates, tol=tol, max_iter=max_iter)
        if steps.max() <= max_iter:
            assert_same_raking(got, full)
        else:
            first = int(np.flatnonzero(steps > max_iter)[0])
            assert str(got).startswith(f"month {START.shift(first)}: raking did not "
                                       f"converge within {max_iter} iterations")

    def test_pairs_converge_at_different_steps(self):
        # noise that grows month by month: the pairs need 0 to 4 steps, and
        # each comes out as it does raked alone
        stocks, rates = growing_noise_inputs()
        args = as_series(stocks, rates)
        raked, report = assert_rakes_like_reference(args)
        steps = report.iterations
        assert len(set(steps.tolist())) >= 4
        for t in np.flatnonzero(np.diff(steps, prepend=-1)).tolist():
            alone = rake_transition_rates(
                *as_series({k: v[t:t + 2] for k, v in stocks.items()},
                           {k: v[t:t + 2] for k, v in rates.items()}))
            assert alone[1].iterations[0] == steps[t]
            for name in RATE_NAMES:
                assert alone[0][name].values[0] == raked[name].values[t]

    @pytest.mark.parametrize("column, exits, margin", [
        ((0.01, 0.01, 0.005), (0.5, 0.3), "column"),
        ((0.01, 1e-4, 0.001), (0.0, 0.0), "row"),
        # both at the same sweep: the row is reported
        ((0.003, 0.003, 0.003), (0.0, 0.0), "row"),
    ], ids=["column", "row", "row-and-column"])
    def test_reference_meets_an_empty_margin(self, column, exits, margin):
        # IPF's empty margin comes from underflow.  Newton's method never
        # rounds a cell to zero: it rakes the column plant; the unemployed
        # with no exits cannot fit a column of 5e-324, so their row's whole
        # target is short, and the pair fails before its first step
        stocks, rates = noisy_inputs(96, quiet_months=30)
        plant_underflow(stocks, rates, 40, column, exits)
        rows = np.array([stocks[k][40] for k in "EUN"])
        cols = np.array([stocks[k][41] for k in "EUN"])
        m = flow_matrix(rows, {name: rates[name][40] for name in RATE_NAMES})
        # no margin is empty before raking
        assert (m.sum(axis=1) > 0).all() and (m.sum(axis=0) > 0).all()
        assert (rows > 0).all() and (cols > 0).all()
        args = as_series(stocks, rates)
        with pytest.raises(RakingError) as want:
            reference_rake(*args)
        assert str(want.value) == f"month 2003-05: empty flow {margin} with positive target mass"
        got = outcome(args, rake_transition_rates, max_iter=100)
        if exits == (0.0, 0.0):
            assert str(got) == (f"month 2003-05: raking cannot converge: some "
                                f"margins' targets exceed by {rows[1] - cols[1]:.3e} "
                                "those of the margins that hold all their flow")
            assert got.worst_residual == np.inf
            return
        raked, report = got
        assert 2 < report.iterations[40] <= 100
        fitted = flow_matrix(rows, {name: raked[name].values[40] for name in RATE_NAMES})
        np.testing.assert_allclose(fitted.sum(axis=1), rows, rtol=0, atol=2e-12)
        np.testing.assert_allclose(fitted.sum(axis=0), cols, rtol=0, atol=2e-12)

    @pytest.mark.parametrize("exits", [(0.0, 0.0), (0.0, 0.5)], ids=["none", "un"])
    def test_infeasible_pair_fails_alike_at_any_budget(self, exits):
        # with no exits the unemployed reach only next month's 5e-324
        # unemployed: a budget of one step or a thousand gives the same
        # error.  With un > 0 they reach the nonemployed too, whose target
        # has room: that pair rakes, in more than one step, and is not refused
        stocks, rates = noisy_inputs(96, quiet_months=96)
        plant_underflow(stocks, rates, 40, (0.01, 1e-4, 0.001), exits)
        args = as_series(stocks, rates)
        short, full = (outcome(args, rake_transition_rates, max_iter=max_iter)
                       for max_iter in (1, 1000))
        if exits == (0.0, 0.0):
            assert str(short) == str(full)
            assert str(full).startswith("month 2003-05: raking cannot converge: "
                                        "some margins' targets exceed by 1.000e-04")
            return
        assert str(short).startswith("month 2003-05: raking did not converge within 1")
        assert full[1].iterations[40] > 1

    @pytest.mark.parametrize("case", ["column", "population"])
    def test_shortfall_inside_the_population_check(self, case):
        if case == "column":
            # no one enters unemployment, yet it grows by 1e-11 while the
            # population grows by 5.5e-12: the unemployed column's target
            # exceeds the row that alone feeds it, and no set of rows is short
            stocks = (series([0.75, 0.75 - 4.5e-12]), series([0.05, 0.05 + 1e-11]),
                      series([0.20, 0.20]))
            rates = {"eu": 0.0, "en": 0.02, "ue": 0.25, "un": 0.03, "ne": 0.04,
                     "nu": 0.0}
            rates = {name: series([v, np.nan]) for name, v in rates.items()}
            gap = "1.000e-11"
        else:
            # every cell has flow, and next month's population is 5e-11
            # larger, which the population check allows
            (E, U, N), rates, _ = consistent_two_month_example()
            stocks = (E, U.with_values(U.values + [0.0, 5e-11]), N)
            gap = "5.000e-11"
        short, full = (outcome((stocks, rates), rake_transition_rates, max_iter=max_iter)
                       for max_iter in (1, 1000))
        assert str(short) == str(full) == (
            f"month 2000-01: raking cannot converge: some margins' targets exceed "
            f"by {gap} those of the margins that hold all their flow")

    @pytest.mark.parametrize("max_iter", [2, 1000])
    def test_zero_next_month_stock_takes_more_steps(self, max_iter):
        # no one is unemployed next month: the column is emptied before the
        # first step, and this pair needs more steps than the others
        stocks, rates = noisy_inputs(96, quiet_months=40)
        stocks["E"][41] += stocks["U"][41]
        stocks["U"][41] = 0.0
        for name in RATE_NAMES:
            rates[name][41] = np.nan
        args = as_series(stocks, rates)
        got = outcome(args, rake_transition_rates, max_iter=max_iter)
        if max_iter == 2:
            assert str(got).startswith("month 2003-05: raking did not converge within 2")
            return
        raked, report = assert_rakes_like_reference(args)
        assert report.iterations[40] > report.iterations[42] == 2
        assert raked["eu"].values[40] == raked["nu"].values[40] == 0.0

    def test_earliest_failure_at_each_budget(self):
        # the underflow plant at 2003-10 rakes in more steps than the others;
        # a budget of one step fails first at 2000-03, as IPF's does
        stocks, rates = noisy_inputs(60, quiet_months=2)
        plant_underflow(stocks, rates, 45, (0.01, 0.01, 0.005), (0.5, 0.3))
        args = as_series(stocks, rates)
        steps = rake_transition_rates(*args)[1].iterations
        assert steps[45] > 2 and (np.delete(steps, [44, 45, 46])[2:] == 2).all()
        err = outcome(args, rake_transition_rates, max_iter=2)
        assert str(err).startswith("month 2003-10: raking did not converge within 2")
        for rake in (rake_transition_rates, reference_rake):
            err = outcome(args, rake, max_iter=1)
            assert str(err).startswith("month 2000-03: raking did not converge within 1")

    def test_no_rakeable_pair(self):
        stocks, rates = noisy_inputs(12)
        rates["ue"][:] = np.nan
        iterations = assert_rakes_like_reference(as_series(stocks, rates))[1].iterations
        assert (iterations == -1).all()

    def test_single_pair(self):
        stocks, rates = noisy_inputs(2)
        iterations = assert_rakes_like_reference(as_series(stocks, rates))[1].iterations
        assert iterations[0] >= 1

    @pytest.mark.parametrize("tiny, rest, residual", [
        ("E", "N", "6.056e-01"), ("U", "N", "4.608e-02"), ("N", "E", "2.795e-01")])
    def test_pair_that_cannot_step_fails_at_once(self, tiny, rest, residual):
        # a subnormal stock, the rest of it moved to another state: 1 / R
        # overflows on its row, the Newton direction is not finite and no
        # step lowers the potential, so a budget of one step or a thousand
        # gives the same error, with the residual the pair started from.
        # The pair into that month is left out
        stocks, rates = noisy_inputs(24, quiet_months=24)
        stocks[rest][10] += stocks[tiny][10] - 1e-320
        stocks[tiny][10] = 1e-320
        for name in RATE_NAMES:
            rates[name][9] = np.nan
        args = as_series(stocks, rates)
        short, full = (outcome(args, rake_transition_rates, max_iter=max_iter)
                       for max_iter in (1, 1000))
        assert str(short) == str(full) == (
            "month 2000-11: raking cannot converge: no Newton step lowers its "
            f"potential after 0 steps (worst residual {residual})")
        assert short.worst_residual == full.worst_residual


class TestNewtonSteps:
    """Edges of the step count itself."""

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_budget_of_one_and_two_steps(self, max_iter):
        # a pair with 1e-8 noise needs one step, a pair with 1e-3 noise two
        stocks, rates = noisy_inputs(24, quiet_months=24)
        for name, noisy in noisy_inputs(24, noise=1e-3)[1].items():
            rates[name][12] += 1e-5 * (noisy[12] - rates[name][12])
            rates[name][16] = noisy[16]
        args = as_series(stocks, rates)
        full = rake_transition_rates(*args)
        steps = full[1].iterations
        assert steps[12] == 1 and steps[16] == 2
        assert (np.delete(steps, [12, 16]) == 0).all()
        got = outcome(args, rake_transition_rates, max_iter=max_iter)
        if max_iter == 1:
            assert str(got).startswith("month 2001-05: raking did not converge within 1")
        else:
            assert_same_raking(got, full)

    @pytest.mark.parametrize("when", ["t", "t+1", "both"])
    def test_zero_stock_at_t_or_next_month(self, when):
        stocks, rates = noisy_inputs(24, quiet_months=0)
        for t in {"t": [10], "t+1": [11], "both": [10, 11]}[when]:
            stocks["E"][t] += stocks["N"][t]
            stocks["N"][t] = 0.0
        raked, report = assert_rakes_like_reference(as_series(stocks, rates))
        assert (report.iterations[9:12] >= 1).all()
        if when != "t+1":  # no one leaves an empty state
            assert raked["ne"].values[10] == raked["nu"].values[10] == 0.0
        if when != "t":  # and no one enters one
            assert raked["en"].values[10] == raked["un"].values[10] == 0.0


class TestRakingProperties:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(panel=consistent_panels(),
           noise=arrays(float, (len(RATE_NAMES), 24), elements=st.floats(-0.01, 0.01)))
    def test_raked_flows_reproduce_both_stock_vectors(self, panel, noise):
        n = len(panel.E)
        noisy = {name: getattr(panel, name).with_values(
            getattr(panel, name).values * (1.0 + noise[k, :n]))
            for k, name in enumerate(RATE_NAMES)}
        tol = 1e-12
        raked, report = rake_transition_rates((panel.E, panel.U, panel.N), noisy, tol=tol)
        # a pair takes no Newton step only where the published rates already fit
        assert (report.iterations >= 0).all()
        assert (report.max_adjustment[report.iterations == 0] <= 1e-15).all()
        stocks = np.vstack([panel.E.values, panel.U.values, panel.N.values])
        for t in range(n - 1):
            m = flow_matrix(stocks[:, t], {k: raked[k].values[t] for k in RATE_NAMES})
            # rebuilding the flows from rates adds float rounding to the margins
            np.testing.assert_allclose(m.sum(axis=1), stocks[:, t], rtol=0,
                                       atol=tol + 1e-15)
            np.testing.assert_allclose(m.sum(axis=0), stocks[:, t + 1], rtol=0,
                                       atol=tol + 1e-15)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(panel=consistent_panels())
    def test_noop_on_consistent_rates(self, panel):
        raked, report = rake_transition_rates((panel.E, panel.U, panel.N),
                                              panel.rates())
        for name in RATE_NAMES:
            np.testing.assert_allclose(raked[name].values[:-1],
                                       getattr(panel, name).values[:-1],
                                       rtol=0, atol=1e-13)
        assert report.max_adjustment.max() <= 1e-13


class TestIntensityAndAggregates:
    def make_panel(self, ue=0.25, ne=0.025, u=0.05, n=0.30):
        e = 1.0 - u - n
        cols = {"eu": 0.015, "en": 0.025, "ue": ue, "un": 0.03,
                "ne": ne, "nu": 0.02}
        return ThreeStatePanel(
            E=series([e, e]), U=series([u, u]), N=series([n, n]),
            **{k: series([v, v]) for k, v in cols.items()})

    def test_equal_exit_rates(self):
        xi = self.make_panel(ue=0.25, ne=0.25).xi_N
        np.testing.assert_allclose(xi.values, 1.0)

    def test_hand_division(self):
        xi = self.make_panel(ue=0.25, ne=0.02).xi_N
        assert xi.values[0] == pytest.approx(0.08, rel=1e-15)

    def test_zero_rate_errors(self):
        with pytest.raises(ValueError, match="undefined intensity at 2000-01"):
            self.make_panel(ue=0.0).xi_N

    def test_aggregates_hand_case(self):
        panel = self.make_panel()
        assert panel.xi_N.values[0] == pytest.approx(0.1, rel=1e-14)
        assert panel.S.values[0] == pytest.approx(0.08, rel=1e-14)
        assert panel.N_tilde.values[0] == pytest.approx(0.27, rel=1e-14)
        assert panel.x.values[0] == pytest.approx(0.04, rel=1e-14)

    def test_no_search_from_nonemployment(self):
        panel = self.make_panel(ne=0.0)
        np.testing.assert_allclose(panel.xi_N.values, 0.0)
        np.testing.assert_allclose(panel.N_tilde.values, panel.N.values)

    def test_balanced_matching_share(self):
        # hires from unemployment equal the unemployed share of effective
        # searchers times total hires, as an identity of the aggregates
        panel = self.make_panel()
        hires = total_hires(panel)
        from_u = panel.U.values * panel.ue.values
        np.testing.assert_allclose(from_u,
                                   hires.values * panel.U.values / panel.S.values,
                                   rtol=1e-13)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(consistent_panels())
    def test_finding_rate_is_ue(self, panel):
        # xi_N = ne / ue makes S = H / ue, so hires per searcher are ue,
        # which H / S reproduces only up to rounding
        assert panel.f is panel.ue
        np.testing.assert_allclose(total_hires(panel).values / panel.S.values,
                                   panel.ue.values, rtol=1e-15)

    @pytest.mark.parametrize("name", RATE_NAMES)
    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_rate_outside_unit_interval_names_rate_month_and_value(self, name, value):
        panel = self.make_panel()
        rates = panel.rates()
        rates[name] = rates[name].with_values([rates[name].values[0], value])
        with pytest.raises(ValueError, match=rf"^transition rate {name} outside "
                                             rf"\[0, 1\] at 2000-02: {value}$"):
            ThreeStatePanel(E=panel.E, U=panel.U, N=panel.N, **rates)

    def test_total_hires_cases(self):
        panel = self.make_panel(ue=0.25, ne=0.02)
        assert total_hires(panel).values[0] == pytest.approx(0.0185, rel=1e-14)
        # hires need no searcher aggregates; a frozen market has none to derive
        zero = self.make_panel(ue=0.0, ne=0.0)
        np.testing.assert_allclose(total_hires(zero).values, 0.0)
        with pytest.raises(ValueError, match="undefined intensity at 2000-01"):
            zero.S


@pytest.mark.parametrize("gap", ["last month", "next month's stocks missing"])
def test_rates_of_months_that_start_no_pair_are_held_to_the_unit_interval(gap):
    # raking reads no rate of a month that starts no month-pair; such a
    # rate above one was accepted, and now the panel's own rule refuses it
    from beveridge_accounting import build_three_state_panel

    sim = make_three_state_steady(horizon=12)
    stocks = [sim.panel.E, sim.panel.U, sim.panel.N]
    month = 11 if gap == "last month" else 6
    if gap != "last month":
        stocks = [x.with_values(np.where(np.arange(12) == 7, np.nan, x.values))
                  for x in stocks]
    rates = sim.panel.rates()
    ue = rates["ue"].values.copy()
    ue[month] = 1.5
    with pytest.raises(ValueError, match=rf"^transition rate ue outside \[0, 1\] "
                                         rf"at {START.shift(month)}: 1\.5$"):
        build_three_state_panel(*stocks, {**rates, "ue": rates["ue"].with_values(ue)})
    # each rate inside [0, 1] but exits that sum above one: raking would
    # refuse them in a month that starts a pair, and the rule here does not
    un = rates["un"].values.copy()
    un[month] = 0.8
    panel, _ = build_three_state_panel(*stocks, {**rates, "un": rates["un"].with_values(un)})
    assert np.isnan(panel.un.values[month])


def test_raked_panel_hires_identity():
    """On a raked panel, H equals E*x - dU - dN within the raking tolerance."""
    from beveridge_accounting import build_three_state_panel

    sim = make_three_state_steady(horizon=18)
    rng = np.random.default_rng(9)
    noisy = {name: sim.panel.rates()[name].with_values(
        sim.panel.rates()[name].values * (1 + 1e-3 * rng.standard_normal(18)))
        for name in RATE_NAMES}
    panel, report = build_three_state_panel(sim.panel.E, sim.panel.U, sim.panel.N,
                                            noisy, tol=1e-13)
    assert report.worst_residual < 1e-12
    hires = total_hires(panel).values[:-1]
    du = np.diff(panel.U.values)
    dn = np.diff(panel.N.values)
    implied = panel.E.values[:-1] * panel.x.values[:-1] - du - dn
    np.testing.assert_allclose(hires, implied, atol=1e-10)

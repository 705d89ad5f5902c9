import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beveridge_accounting import (MonthDate, MonthlySeries, RakingError,
                                  ThreeStatePanel, ThreeStateSimulationSpec,
                                  rake_transition_rates,
                                  relative_search_intensity, simulate_three_state,
                                  total_hires)
from beveridge_accounting import flows_three_state
from beveridge_accounting.flows_three_state import _BATCH, _BLOCK, RATE_NAMES
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


def oracle_ipf(matrix, rows, cols, tol=1e-13, max_iter=5000):
    """Independent alternating-scaling oracle for the tests."""
    m = np.array(matrix, dtype=float)
    for _ in range(max_iter):
        for i in range(3):
            rs = m[i].sum()
            if rs > 0:
                m[i] = m[i] * (rows[i] / rs)
        for j in range(3):
            cs = m[:, j].sum()
            if cs > 0:
                m[:, j] = m[:, j] * (cols[j] / cs)
        worst = max(abs(m.sum(axis=1) - rows).max(), abs(m.sum(axis=0) - cols).max())
        if worst <= tol:
            return m
    raise AssertionError("oracle IPF did not converge")


def flow_matrix(stocks, rates):
    e, u, n = stocks
    return np.array([
        [e * (1 - rates["eu"] - rates["en"]), e * rates["eu"], e * rates["en"]],
        [u * rates["ue"], u * (1 - rates["ue"] - rates["un"]), u * rates["un"]],
        [n * rates["ne"], n * rates["nu"], n * (1 - rates["ne"] - rates["nu"])],
    ])


# The per-month raking loop that the batched sweeps replaced, kept as the
# reference they must reproduce bit for bit: same flow-matrix arithmetic,
# same sweep, same first-failing-month error.
LOOP_EXITS = {0: [("eu", 1), ("en", 2)], 1: [("ue", 0), ("un", 2)],
              2: [("ne", 0), ("nu", 1)]}


def loop_flow_matrix(stocks_t, rates_t):
    m = np.zeros((3, 3))
    for i, exits in LOOP_EXITS.items():
        out = 0.0
        for name, j in exits:
            m[i, j] = stocks_t[i] * rates_t[name]
            out += rates_t[name]
        if out > 1.0 + 1e-12:
            raise ValueError(f"negative stayer probability in state {i}: "
                             f"exit rates sum to {float(out)!r}")
        m[i, i] = stocks_t[i] * (1.0 - out)
    return m


def loop_ipf(matrix, rows, cols, tol, max_iter):
    m = matrix.copy()
    residual = np.inf
    for it in range(1, max_iter + 1):
        rs = m.sum(axis=1)
        scale = np.where(rs > 0.0, rows / np.where(rs > 0.0, rs, 1.0), 1.0)
        if ((rs == 0.0) & (rows > 0.0)).any():
            raise RakingError("empty flow row with positive target mass", np.inf)
        m *= scale[:, None]
        cs = m.sum(axis=0)
        if ((cs == 0.0) & (cols > 0.0)).any():
            raise RakingError("empty flow column with positive target mass", np.inf)
        scale = np.where(cs > 0.0, cols / np.where(cs > 0.0, cs, 1.0), 1.0)
        m *= scale[None, :]
        residual = max(np.abs(m.sum(axis=1) - rows).max(),
                       np.abs(m.sum(axis=0) - cols).max())
        if residual <= tol:
            return m, it, residual
    raise RakingError(f"raking did not converge within {max_iter} iterations "
                      f"(worst residual {residual:.3e})", residual)


def loop_rake(stocks, rates, tol=1e-12, max_iter=1000):
    """(raked rate arrays, iterations, residuals, max_adjustment), month by month."""
    E, U, N = stocks
    n = len(E)
    stock_mat = np.vstack([E.values, U.values, N.values])
    out = {name: np.full(n, np.nan) for name in RATE_NAMES}
    iterations = np.full(n - 1, -1, dtype=int)
    residuals = np.full(n - 1, np.nan)
    max_adjustment = np.full(n - 1, np.nan)
    for t in range(n - 1):
        rates_t = {name: rates[name].values[t] for name in RATE_NAMES}
        cells = np.concatenate([stock_mat[:, t], stock_mat[:, t + 1],
                                list(rates_t.values())])
        if np.isnan(cells).any():
            continue
        rows, cols = stock_mat[:, t], stock_mat[:, t + 1]
        month = E.start.shift(t)
        if abs(rows.sum() - cols.sum()) > max(100.0 * tol, 1e-10):
            raise RakingError(
                f"month {month}: total population differs between adjacent "
                f"months ({float(rows.sum())!r} vs {float(cols.sum())!r}); "
                "normalize stocks to shares first", abs(rows.sum() - cols.sum()))
        try:
            m = loop_flow_matrix(rows, rates_t)
        except ValueError as exc:
            raise ValueError(f"month {month}: {exc}") from None
        try:
            fitted, its, res = loop_ipf(m, rows, cols, tol, max_iter)
        except RakingError as exc:
            raise RakingError(f"month {month}: {exc}", exc.worst_residual) from None
        if (np.diag(fitted) < -tol).any():
            raise RakingError(f"infeasible flow matrix at {month}: "
                              "negative stayer mass after adjustment", res)
        iterations[t] = its
        residuals[t] = res
        worst = 0.0
        for i, exits in LOOP_EXITS.items():
            for name, j in exits:
                raked = fitted[i, j] / rows[i] if rows[i] > 0.0 else 0.0
                out[name][t] = raked
                worst = max(worst, abs(raked - rates_t[name]))
        max_adjustment[t] = worst
    return out, iterations, residuals, max_adjustment


def assert_same_as_loop(got, want):
    """`rake_transition_rates` output equals `loop_rake` output bit for bit."""
    raked, report = got
    out, iterations, residuals, max_adjustment = want
    for name in RATE_NAMES:
        assert np.array_equal(raked[name].values, out[name], equal_nan=True), name
    assert np.array_equal(report.iterations, iterations)
    assert np.array_equal(report.residuals, residuals, equal_nan=True)
    assert np.array_equal(report.max_adjustment, max_adjustment, equal_nan=True)


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
    """Stock-consistent panels from `simulate_three_state`: generated rate
    paths of up to 24 months from generated initial stocks."""
    n = draw(st.integers(2, 24))
    rates = {name: draw(arrays(float, n, elements=st.floats(lo, hi)))
             for name, (lo, hi) in RATE_RANGES.items()}
    spec = ThreeStateSimulationSpec(alpha=0.3, u0=draw(st.floats(0.02, 0.15)),
                                    n0=draw(st.floats(0.1, 0.4)), horizon=n,
                                    rates=rates, sigma_path=0.36)
    return simulate_three_state(spec).panel


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

        rows = np.array([s.values[0] for s in stocks])
        cols = np.array([s.values[1] for s in stocks])
        fitted = oracle_ipf(flow_matrix(rows, bumped), rows, cols)
        oracle_rates = {
            "eu": fitted[0, 1] / rows[0], "en": fitted[0, 2] / rows[0],
            "ue": fitted[1, 0] / rows[1], "un": fitted[1, 2] / rows[1],
            "ne": fitted[2, 0] / rows[2], "nu": fitted[2, 1] / rows[2],
        }
        for name in RATE_NAMES:
            assert raked[name].values[0] == pytest.approx(oracle_rates[name],
                                                          abs=1e-10)
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


class TestBatchedRaking:
    def test_matches_month_by_month_loop_bit_for_bit(self):
        stocks, rates = noisy_inputs(60)
        rates["ne"][[10, 11]] = np.nan
        stocks["N"][40] = np.nan
        args = as_series(stocks, rates)
        want = loop_rake(*args)
        assert_same_as_loop(rake_transition_rates(*args), want)
        iterations = want[1]
        assert np.flatnonzero(iterations < 0).tolist() == [10, 11, 39, 40]
        assert iterations.max() > 10  # the noise makes raking sweep many times

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
        sweeps = loop_rake(*args)[1]
        max_iter = int(np.median(sweeps[40:]))
        first = 40 + int(np.flatnonzero(sweeps[40:] > max_iter)[0])
        with pytest.raises(RakingError) as want:
            loop_rake(*args, max_iter=max_iter)
        with pytest.raises(RakingError) as got:
            rake_transition_rates(*args, max_iter=max_iter)
        assert str(got.value).startswith(f"month {START.shift(first)}: raking did not "
                                         f"converge within {max_iter} iterations")
        assert str(got.value) == str(want.value)
        assert got.value.worst_residual == want.value.worst_residual

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(panel=consistent_panels(),
           noise=arrays(float, (len(RATE_NAMES), 24), elements=st.floats(-0.01, 0.01)),
           gaps=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 23)), max_size=4),
           tol=st.sampled_from([1e-9, 1e-12, 1e-14]),
           budget=st.floats(0.2, 1.5))
    def test_property_bit_identical_to_loop(self, panel, noise, gaps, tol, budget):
        n = len(panel.E)
        stocks = {k: getattr(panel, k).values.copy() for k in "EUN"}
        rates = {name: getattr(panel, name).values * (1.0 + noise[k, :n])
                 for k, name in enumerate(RATE_NAMES)}
        cells = [stocks[k] for k in "EUN"] + [rates[name] for name in RATE_NAMES]
        for row, t in gaps:
            if t < n:
                cells[row][t] = np.nan
        args = as_series(stocks, rates)
        # a sweep budget both below and above what the slowest pair needs
        try:
            needed = loop_rake(*args, tol=tol)[1].max()
        except RakingError:  # a pair that needs more than the default budget
            needed = 1000
        max_iter = max(1, round(budget * needed))

        def outcome(rake):
            try:
                return rake(*args, tol=tol, max_iter=max_iter)
            except (ValueError, RakingError) as exc:
                return exc

        got, want = outcome(rake_transition_rates), outcome(loop_rake)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert (getattr(got, "worst_residual", None)
                    == getattr(want, "worst_residual", None))
            return
        assert not isinstance(got, Exception), got
        assert_same_as_loop(got, want)

    def test_zero_origin_stock_rakes_without_warnings(self):
        # no one is unemployed in 2002-07, though the rates out of
        # unemployment are not zero: every guarded division meets a zero
        stocks, rates = noisy_inputs(96, quiet_months=30)
        stocks["E"][30] += stocks["U"][30]
        stocks["U"][30] = 0.0
        assert rates["ue"][30] > 0.0 and rates["un"][30] > 0.0
        args = as_series(stocks, rates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raked, report = rake_transition_rates(*args)
            assert_same_as_loop((raked, report), loop_rake(*args))
        assert raked["ue"].values[30] == raked["un"].values[30] == 0.0
        assert raked["eu"].values[29] == raked["nu"].values[29] == 0.0
        assert (report.iterations[29:31] >= 1).all()

    def test_empty_column_raises_loop_error_without_warnings(self):
        stocks, rates = noisy_inputs(96, quiet_months=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RakingError) as got:
                self._empty_column(stocks, rates)
            with pytest.raises(RakingError) as want:
                loop_rake(*as_series(stocks, rates))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("month 2002-07: empty flow column")
        assert got.value.worst_residual == want.value.worst_residual

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
        rake_transition_rates(*as_series(stocks, rates), max_iter=2)

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


def assert_rakes_like_loop(args, **kwargs):
    """`rake_transition_rates` on `args` matches `loop_rake` bit for bit, or
    raises the same error with the same worst residual, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(args, rake_transition_rates, **kwargs)
        want = outcome(args, loop_rake, **kwargs)
    if isinstance(want, Exception):
        assert type(got) is type(want), got
        assert str(got) == str(want)
        assert (getattr(got, "worst_residual", None)
                == getattr(want, "worst_residual", None))
    else:
        assert not isinstance(got, Exception), got
        assert_same_as_loop(got, want)
    return want


def plant_underflow(stocks, rates, t, column, exits):
    """At month-pair t, give the unemployment column the cells `column`
    (from E, U and N), the unemployed the exit rates `exits` (ue, un) and
    next month's unemployment the stock 5e-324.  The first column scaling
    then rounds every cell under about half the column sum to zero, so an
    empty column, or with no exits an empty unemployed row, is met only at
    the second sweep.  The pairs before and after are left out."""
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


class TestBatchEdges:
    """Sweeps run _BATCH at a time and pairs _BLOCK at a time; each pair must
    still leave at its own first converged (or failing) sweep."""

    @pytest.mark.parametrize("max_iter", sorted({1, _BATCH - 1, _BATCH, _BATCH + 1,
                                                 2 * _BATCH + 1}))
    @pytest.mark.parametrize("tol", [1e-4, 1e-5, 1e-6, 1e-12])
    def test_sweep_budget_around_batch_edges(self, max_iter, tol):
        stocks, rates = noisy_inputs(48, quiet_months=20)
        assert_rakes_like_loop(as_series(stocks, rates), tol=tol, max_iter=max_iter)

    def test_pairs_converge_at_different_sweeps_of_one_batch(self):
        stocks, rates = noisy_inputs(48, quiet_months=20)
        iterations = assert_rakes_like_loop(as_series(stocks, rates), tol=1e-5)[1]
        batch = (iterations[20:] - 1) // _BATCH
        # at least three different sweeps inside the first batch, and more after it
        assert len(set(iterations[20:][batch == 0].tolist())) >= 3
        assert (batch > 0).any()

    @pytest.mark.parametrize("column, exits, margin", [
        ((0.01, 0.01, 0.005), (0.5, 0.3), "column"),
        ((0.01, 1e-4, 0.001), (0.0, 0.0), "row"),
        # both at the same sweep: the row is reported
        ((0.003, 0.003, 0.003), (0.0, 0.0), "row"),
    ], ids=["column", "row", "row-and-column"])
    def test_margin_first_empty_mid_batch(self, column, exits, margin):
        stocks, rates = noisy_inputs(96, quiet_months=30)
        plant_underflow(stocks, rates, 40, column, exits)
        rows = np.array([stocks[k][40] for k in "EUN"])
        cols = np.array([stocks[k][41] for k in "EUN"])
        m = loop_flow_matrix(rows, {name: rates[name][40] for name in RATE_NAMES})
        # no margin is empty before the first sweep
        assert (m.sum(axis=1) > 0).all() and (m.sum(axis=0) > 0).all()
        assert (rows > 0).all() and (cols > 0).all()
        err = assert_rakes_like_loop(as_series(stocks, rates))
        assert str(err) == f"month 2003-05: empty flow {margin} with positive target mass"

    @pytest.mark.parametrize("max_iter", [2, 1000])
    def test_zero_next_month_stock_first_met_at_second_sweep(self, max_iter):
        # the first column scaling zeroes the column, which then has zero
        # sum and zero target: scale one from the second sweep on, also
        # where that sweep is the batch's last
        stocks, rates = noisy_inputs(96, quiet_months=40)
        stocks["E"][41] += stocks["U"][41]
        stocks["U"][41] = 0.0
        for name in RATE_NAMES:
            rates[name][41] = np.nan
        want = assert_rakes_like_loop(as_series(stocks, rates), max_iter=max_iter)
        if max_iter == 2:
            assert str(want).startswith("month 2003-05: raking did not converge")
        else:
            assert want[1][40] > _BATCH

    def test_zero_origin_stock_in_later_batches_and_blocks(self, monkeypatch):
        # blocks of 7 pairs: the zero stock's pair sits in the fifth block
        # and needs many batches, each one of them swept again with guards
        monkeypatch.setattr(flows_three_state, "_BLOCK", 7)
        stocks, rates = noisy_inputs(60, quiet_months=2)
        stocks["E"][30] += stocks["U"][30]
        stocks["U"][30] = 0.0
        iterations = assert_rakes_like_loop(as_series(stocks, rates))[1]
        assert iterations[30] > 2 * _BATCH

    def test_earliest_failure_across_blocks(self, monkeypatch):
        monkeypatch.setattr(flows_three_state, "_BLOCK", 7)
        stocks, rates = noisy_inputs(60, quiet_months=2)
        plant_underflow(stocks, rates, 45, (0.01, 0.01, 0.005), (0.5, 0.3))
        assert_rakes_like_loop(as_series(stocks, rates))
        # a pair of an earlier block that cannot converge in time comes first
        err = assert_rakes_like_loop(as_series(stocks, rates), max_iter=2 * _BATCH + 3)
        assert str(err).startswith("month 2000-03: raking did not converge")

    def test_no_rakeable_pair(self):
        stocks, rates = noisy_inputs(12)
        rates["ue"][:] = np.nan
        iterations = assert_rakes_like_loop(as_series(stocks, rates))[1]
        assert (iterations == -1).all()

    def test_single_pair(self):
        stocks, rates = noisy_inputs(2)
        iterations = assert_rakes_like_loop(as_series(stocks, rates))[1]
        assert iterations[0] > _BATCH

    def test_more_pairs_than_one_block(self):
        # consistent months converge at the first sweep; noise on the months
        # around the block edge and at the start makes those sweep on
        horizon = _BLOCK + 40
        stocks, rates = noisy_inputs(horizon)
        calm = np.ones(horizon, dtype=bool)
        calm[np.r_[:10, _BLOCK - 10:_BLOCK + 10]] = False
        consistent = noisy_inputs(horizon, quiet_months=horizon)[1]
        for name in RATE_NAMES:
            rates[name][calm] = consistent[name][calm]
        stocks["U"][_BLOCK + 20] = np.nan
        iterations = assert_rakes_like_loop(as_series(stocks, rates))[1]
        assert iterations[_BLOCK - 1] > _BATCH and iterations[_BLOCK] > _BATCH
        assert (iterations[_BLOCK + 19:_BLOCK + 21] == -1).all()


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
        assert (report.iterations >= 1).all()
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
        xi = relative_search_intensity(series([0.25, 0.25]), series([0.25, 0.25]))
        np.testing.assert_allclose(xi.values, 1.0)

    def test_hand_division(self):
        xi = relative_search_intensity(series([0.02]), series([0.25]))
        assert xi.values[0] == pytest.approx(0.08, rel=1e-15)

    def test_zero_rate_errors(self):
        with pytest.raises(ValueError, match="undefined intensity"):
            relative_search_intensity(series([0.02]), series([0.0]))

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

    def test_total_hires_cases(self):
        panel = self.make_panel(ue=0.25, ne=0.02)
        assert total_hires(panel).values[0] == pytest.approx(0.0185, rel=1e-14)
        # hires need no searcher aggregates; a frozen market has none to derive
        zero = self.make_panel(ue=0.0, ne=0.0)
        np.testing.assert_allclose(total_hires(zero).values, 0.0)
        with pytest.raises(ValueError, match="undefined intensity at 2000-01"):
            zero.S


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

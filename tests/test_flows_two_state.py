import numpy as np
import pytest

from beveridge_accounting import (MonthDate, MonthlySeries,
                                  build_two_state_panel,
                                  implied_separation_probability,
                                  job_finding_probability)
from beveridge_accounting.flows_two_state import ProbabilityRangeWarning
from beveridge_accounting.simulate import _law_of_motion


def series(values):
    return MonthlySeries(MonthDate(2000, 1), values)


class TestJobFinding:
    def test_all_unemployed_are_new_entrants(self):
        # U_{t+1} equals short-term unemployment: everyone from t found a job
        f = job_finding_probability(series([0.05, 0.04]), series([np.nan, 0.04]))
        assert f.values[0] == pytest.approx(1.0)
        assert np.isnan(f.values[1])

    def test_hand_case(self):
        f = job_finding_probability(series([0.06, 0.058]), series([np.nan, 0.012]))
        expected = 1.0 - (0.058 - 0.012) / 0.06
        assert f.values[0] == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.23333, abs=5e-6)

    def test_frozen_market(self):
        # no inflows and unchanged unemployment: nobody found a job
        f = job_finding_probability(series([0.06, 0.06]), series([np.nan, 0.0]))
        assert f.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_unemployment_errors(self):
        with pytest.raises(ValueError, match="division by zero unemployment"):
            job_finding_probability(series([0.0, 0.05]), series([np.nan, 0.01]))

    def test_out_of_range_flagged_not_clamped(self):
        with pytest.warns(ProbabilityRangeWarning):
            f = job_finding_probability(series([0.05, 0.20]), series([np.nan, 0.01]))
        assert f.values[0] < 0.0  # reported as-is


class TestImpliedSeparation:
    def test_steady_state_balance(self):
        u, fv = 0.06, 0.3
        f = series([fv, fv])
        s = implied_separation_probability(series([u, u]), f)
        assert s.values[0] == pytest.approx(fv * u / (1 - u), rel=1e-14)

    def test_hand_case(self):
        s = implied_separation_probability(series([0.06, 0.058]),
                                           series([0.23333, np.nan]))
        expected = (-0.002 + 0.23333 * 0.06) / (1 - 0.06)
        assert s.values[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0127659, abs=5e-7)

    def test_frozen_market(self):
        s = implied_separation_probability(series([0.06, 0.06]),
                                           series([0.0, np.nan]))
        assert s.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_negative_flagged(self):
        with pytest.warns(ProbabilityRangeWarning):
            s = implied_separation_probability(series([0.06, 0.02]),
                                               series([0.1, np.nan]))
        assert s.values[0] < 0.0


class TestRoundTrip:
    # random draws occasionally give f slightly outside [0, 1]; the identity
    # must hold regardless, which is exactly why values are never clamped
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_law_of_motion_holds_exactly(self):
        rng = np.random.default_rng(2)
        n = 60
        u = 0.05 + 0.02 * rng.random(n)
        u_short = u * rng.uniform(0.1, 0.4, n)
        U, Us = series(u), series(u_short)
        f = job_finding_probability(U, Us)
        s = implied_separation_probability(U, f)
        lhs = u[1:]
        rhs = u[:-1] + s.values[:-1] * (1 - u[:-1]) - f.values[:-1] * u[:-1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_forward_simulation_regenerates_path(self):
        rng = np.random.default_rng(4)
        n = 80
        u = 0.05 + 0.02 * rng.random(n)
        u_short = u * rng.uniform(0.1, 0.4, n)
        U, Us = series(u), series(u_short)
        f = job_finding_probability(U, Us)
        s = implied_separation_probability(U, f)
        # the three-state law of motion with no nonemployment
        zero = np.zeros(n)
        regen, _ = _law_of_motion(u[0], 0.0, {"eu": s.values, "en": zero, "ue": f.values,
                                              "un": zero, "ne": zero, "nu": zero})
        np.testing.assert_allclose(regen, u, atol=1e-12)


def test_panel_construction_and_validation():
    u = np.array([0.06, 0.058, 0.057])
    us = np.array([np.nan, 0.012, 0.011])
    v = np.array([0.03, 0.031, 0.032])
    panel = build_two_state_panel(series(u), series(v), series(us))
    assert np.isnan(panel.f.values[-1]) and np.isnan(panel.s.values[-1])
    # each share is checked before f and s are derived from it
    with pytest.raises(ValueError, match=r"^unemployment rate outside \(0, 1\) at "
                                         r"2000-01: 1\.5$"):
        build_two_state_panel(series(np.array([1.5, 0.058, 0.057])),
                              series(v), series(us))
    with pytest.raises(ValueError, match=r"^short-term unemployment outside \(0, 1\) "
                                         r"at 2000-02: 0\.0$"):
        build_two_state_panel(series(u), series(v), series(np.array([np.nan, 0.0, 0.011])))
    with pytest.raises(ValueError, match="misalignment"):
        build_two_state_panel(series(u), series(v),
                              MonthlySeries(MonthDate(2001, 1), us))


def test_searcher_aggregates_at_no_nonsearchers(recession_sim):
    # the two-state panel as the three-state one with N_tilde = 0: S = U, x = s
    panel = recession_sim.panel
    assert panel.S is panel.U
    assert panel.x is panel.s
    assert (panel.N_tilde.start, len(panel.N_tilde)) == (panel.U.start, len(panel.U))
    np.testing.assert_array_equal(panel.N_tilde.values, 0.0)


def test_non_searchers_built_once(recession_sim):
    # every read is the same read-only all-zero series on the panel's grid
    panel = recession_sim.panel
    first = panel.N_tilde
    assert panel.N_tilde is first
    assert (first.start, len(first)) == (panel.U.start, len(panel.U))
    np.testing.assert_array_equal(first.values, 0.0)
    assert not first.values.flags.writeable

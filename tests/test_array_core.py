"""The numerical core is array code, months on the last axis: a kernel
called with leading axes gives, bit for bit, what the loop over those axes
gives.  Each property draws a simulated panel of either model, its
efficiency path, a point at its means and a stack of perturbed paths."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import beveridge_accounting as ba
from beveridge_accounting.curve import TERMS

START = ba.MonthDate(2000, 1)
# the three-state rates beside eu = s_path; ue is solved to meet the cycle
RATES = {"en": 0.02, "un": 0.03, "ne": 0.04, "nu": 0.02}


@st.composite
def worlds(draw):
    """(panel, f, theta, sigma, point, samples, rng) on a cycle of either
    model, with a drawn alpha; rng draws the leading axes."""
    n = draw(st.integers(24, 96))
    alpha = draw(st.floats(0.1, 0.9))
    three = draw(st.booleans())
    t = np.arange(n - 1)
    du = draw(st.floats(2e-4, 1.5e-3)) * np.sin(2.0 * np.pi * t
                                                / draw(st.floats(12.0, 48.0)))
    sim = ba.simulate(ba.SimulationSpec(
        alpha=alpha, u0=0.06, n0=0.3 if three else 0.0, horizon=n, s_path=0.02,
        rates=RATES if three else {}, sigma_path=draw(st.floats(0.3, 0.6)),
        delta_u_path=du, noise_std=0.02, seed=draw(st.integers(0, 2**32 - 1)),
        start=START))
    panel = sim.panel
    theta = ba.tightness(panel.S, sim.V)
    sigma = ba.matching_efficiency_path(panel.f.values, theta.values, alpha, start=START)
    point = ba.ApproximationPoint.from_panel(panel, sigma, alpha,
                                             (START, START.shift(n - 1)))
    # an upswing over the whole panel brackets every downswing month
    samples = ba.build_swing_samples(panel.S, sim.V, ba.SwingBounds(
        down_start=START, down_end=START.shift(n // 2 - 1), up_start=START,
        up_end=START.shift(n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return panel, panel.f.values, theta.values, sigma, point, samples, rng


def sigmas(sigma, rng, k):
    """k perturbed copies of the path (k, T), a few months missing."""
    out = sigma * np.exp(0.05 * rng.standard_normal((k, sigma.size)))
    out[rng.random(out.shape) < 0.05] = np.nan
    return out


def assert_bits(got, want):
    """Equal arrays, NaN where NaN, bit for bit."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@PROPERTY
@given(worlds(), st.integers(1, 6))
def test_efficiency_path_over_a_column_of_alphas(world, k):
    panel, f, theta, sigma, point, samples, rng = world
    alphas = rng.uniform(0.05, 0.95, k)
    got = ba.matching_efficiency_path(f, theta, alphas[:, None], start=START)
    want = np.stack([ba.matching_efficiency_path(f, theta, float(a), start=START)
                     for a in alphas])
    assert_bits(got, want)


@PROPERTY
@given(worlds(), st.integers(1, 6))
def test_expansion_and_counterfactuals_over_sigma_rows(world, k):
    panel, f, theta, sigma, point, samples, rng = world
    rows = sigmas(sigma, rng, k)
    got = ba.three_state_loglinear(panel, rows, point)
    want = [ba.three_state_loglinear(panel, row, point) for row in rows]
    assert_bits(got.total, np.stack([w.total for w in want]))
    for name in TERMS:
        assert_bits(np.broadcast_to(got.terms[name], rows.shape),
                    np.stack([w.terms[name] for w in want]))
    reference = int(np.flatnonzero(~np.isnan(got.total).any(axis=0))[0])
    paths = ba.shifter_paths(got, reference, start=START)
    for name, path in paths.items():
        assert_bits(np.broadcast_to(path, rows.shape),
                    np.stack([ba.shifter_paths(w, reference, start=START)[name]
                              for w in want]))

    subsets = [held for size in range(4) for held in combinations(ba.MARGINS, size)]
    got = ba.counterfactual_vacancies(panel, rows, point, subsets)
    want = [ba.counterfactual_vacancies(panel, row, point, subsets) for row in rows]
    for held, path in got.items():
        assert_bits(np.broadcast_to(path, rows.shape),
                    np.stack([w[held] for w in want]))


@PROPERTY
@given(worlds(), st.integers(1, 4), st.integers(1, 4))
def test_vertical_shift_over_two_leading_axes(world, j, k):
    panel, f, theta, sigma, point, samples, rng = world
    values = np.log(sigmas(sigma, rng, j * k)).reshape(j, k, -1)
    assert_bits(samples.vertical_shift(values[0]),
                np.stack([samples.vertical_shift(row) for row in values[0]]))
    assert_bits(samples.vertical_shift(values),
                np.stack([[samples.vertical_shift(row) for row in block]
                          for block in values]))

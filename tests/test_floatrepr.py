"""`float_reprs` against ``float.__repr__``, value by value."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beveridge_accounting.floatrepr import _BLOCK, float_reprs


def tokens(values) -> list[str]:
    """Each row of `float_reprs`, its NUL slots dropped, as text."""
    chars = float_reprs(values)
    text = chars[chars != 0].tobytes().decode("ascii")
    ends = np.cumsum(np.count_nonzero(chars, axis=1)).tolist()
    return [text[start:end] for start, end in zip([0, *ends], ends)]


def assert_same_as_repr(values):
    want = list(map(repr, np.asarray(values).tolist()))
    got = tokens(values)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want)
    assert not bad, f"{len(bad)} of {len(want)} differ, first {bad[:5]}"


WIDTHS = {16: np.float16, 32: np.float32, 64: np.float64}
# doubles where the digit search is exact or the layout switches
EXACT_OR_SWITCHING = st.one_of(
    # quarters near 1e15, whose 16 shortest digits can tie: ...2.25 -> ...2.2
    st.integers(2 ** 50, 2 ** 53).map(lambda k: k / 4),
    st.integers(-1074, 1023).map(lambda k: 2.0 ** k),  # a closer lower neighbour
    st.floats(1e-6, 1e-3), st.floats(1e14, 1e18))  # around 1e-4 and 1e16


@st.composite
def float_arrays(draw):
    """Drawn floats of one width, repeated past a block boundary."""
    width = draw(st.sampled_from(sorted(WIDTHS)))
    floats = st.floats(width=width)
    if width == 64:
        floats = st.one_of(floats, EXACT_OR_SWITCHING)
    values = draw(st.lists(floats, min_size=1, max_size=40))
    return np.resize(np.array(values, dtype=WIDTHS[width]), _BLOCK + 7)


class TestFloatReprs:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(values=float_arrays())
    def test_same_as_repr(self, values):
        assert_same_as_repr(values)

    def test_sweep(self):
        powers = 2.0 ** np.arange(-1074, 1024)
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        edges = np.concatenate([powers, tens]) * np.array([[1.0], [-1.0]])
        near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                               np.nextafter(edges, -np.inf)], axis=None)
        integers = [float(2 ** 53 - 1), float(2 ** 53 + 1),
                    *(float(10 ** k - 1) for k in range(1, 24))]
        rng = np.random.default_rng(20181)
        bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
        assert_same_as_repr(np.concatenate([near, integers, bits.view(np.float64)]))

    def test_layout_switches(self):
        # fixed notation for -4 < decpt <= 16, the exponent outside it
        assert tokens([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
                       0.0, -0.0, 5e-324, 1e22, 123.0, 0.5]) == [
            "1e+16", "9999999999999998.0", "0.0001", "9.999999999999999e-05",
            "0.0", "-0.0", "5e-324", "1e+22", "123.0", "0.5"]

    def test_non_finite_and_empty(self):
        assert tokens([np.nan, -np.nan, np.inf, -np.inf]) == ["nan", "nan", "inf", "-inf"]
        assert float_reprs(np.array([])).shape[0] == 0

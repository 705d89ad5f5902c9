"""`float_reprs` against ``float.__repr__``, and `parse_floats` against
``float``, value by value."""

import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beveridge_accounting.floatrepr import (_BLOCK, _CELLS, _FIELD_MAX, _FIELD_MIN,
                                            _tables, float_reprs, parse_floats)


def tokens(values) -> list[str]:
    """Each row of `float_reprs`, its NUL slots dropped, as text."""
    chars, lengths = float_reprs(values)
    text = chars[chars != 0].tobytes().decode("ascii")
    ends = np.cumsum(lengths).tolist()
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
    # subnormals whose shortest may be one digit less than s, as in the sweep
    st.integers(1, 4095).map(lambda t: t * 5e-324),
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

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(values=float_arrays())
    def test_rows_are_packed(self, values):
        # each row is its text from the first byte, then NULs, the length
        # returned is the text's, and the matrix is as wide as the longest
        chars, lengths = float_reprs(values)
        assert ((chars != 0) == (np.arange(chars.shape[1]) < lengths[:, None])).all()
        assert chars.shape[1] == lengths.max()

    def test_sweep(self):
        powers = 2.0 ** np.arange(-1074, 1024)
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        edges = np.concatenate([powers, tens]) * np.array([[1.0], [-1.0]])
        near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                               np.nextafter(edges, -np.inf)], axis=None)
        integers = [float(2 ** 53 - 1), float(2 ** 53 + 1),
                    *(float(10 ** k - 1) for k in range(1, 24))]
        # every subnormal of mantissa field below 2^12: s of one to five
        # digits, every s of two digits among them, where repr may take the
        # multiple of ten one digit shorter (6e-323, not 5.9e-323)
        tiny = np.arange(1, 2 ** 12, dtype=np.uint64).view(np.float64)
        rng = np.random.default_rng(20181)
        bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
        assert_same_as_repr(np.concatenate([near, integers, tiny, -tiny,
                                            bits.view(np.float64)]))

    def test_layout_switches(self):
        # fixed notation for -4 < decpt <= 16, the exponent outside it
        assert tokens([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
                       0.0, -0.0, 5e-324, 1e22, 123.0, 0.5]) == [
            "1e+16", "9999999999999998.0", "0.0001", "9.999999999999999e-05",
            "0.0", "-0.0", "5e-324", "1e+22", "123.0", "0.5"]

    def test_edges_of_the_kept_range(self):
        # the tables cover the exponent fields of 1e-4 <= |v| < 1e16; every
        # other field is clipped into them and its text written over
        def field(e, last):
            """The first or last double of biased exponent field e."""
            return np.uint64(e << 52 | (1 << 52) - 1 if last else e << 52).view(np.float64)

        assert [field(e, last) for e, last in ((1009, False), (1076, True))] == [
            2.0 ** -14, 2.0 ** 54 - 2.0]
        edges = np.array([
            1e-4, np.nextafter(1e-4, 0), np.nextafter(1e16, 0), 1e16,
            *(field(e, last) for e in (1008, 1009, 1076, 1077) for last in (False, True)),
            *2.0 ** np.arange(-15, 55),  # a closer lower neighbour, each
            0.0, 5e-324, 2.2250738585072014e-308 / 3, np.inf, np.nan])
        assert_same_as_repr(np.concatenate([edges, -edges]))
        assert tokens([1e-4, -0.0, -np.inf]) == ["0.0001", "-0.0", "-inf"]

    def test_tables_hold_the_kept_fields_only(self):
        fields = (np.array([1e-4, np.nextafter(1e16, 0)]).view(np.uint64) >> 52).tolist()
        assert fields == [_FIELD_MIN, _FIELD_MAX]
        t = _tables()
        rows = _FIELD_MAX - _FIELD_MIN + 1  # one per field, none for a closer neighbour
        assert [len(x) for x in (t.g1, t.g0, t.centre, t.k)] == [rows] * 4
        assert sorted(set(t.k.tolist())) == list(range(-20, 1))

    def test_non_finite_and_empty(self):
        assert tokens([np.nan, -np.nan, np.inf, -np.inf]) == ["nan", "nan", "inf", "-inf"]
        chars, lengths = float_reprs(np.array([]))
        assert chars.shape[0] == lengths.size == 0


# ---------------------------------------------------------------------------
# parse_floats against float
# ---------------------------------------------------------------------------

def parse(texts):
    """`parse_floats` over the texts as comma-separated cells."""
    cells = [text.encode() for text in texts]
    lengths = np.array([len(cell) for cell in cells], dtype=np.int64)
    ends = np.cumsum(lengths + 1) - 1
    return parse_floats(b",".join(cells), ends - lengths, ends)


# the kernel's grammar, in ASCII: sign, then digits with at most one point
GRAMMAR = re.compile(r"[+-]?([0-9]*)\.?([0-9]*)")


def why_undecided(text):
    """The reason `parse_floats` may leave `text` undecided, by its
    docstring, or None where it must decide it."""
    match = GRAMMAR.fullmatch(text)
    if len(text.encode()) > 24 or match is None or not (match[1] or match[2]):
        return "grammar"
    w = int(match[1] + match[2])
    if w >= 10 ** 19:
        return "more than 19 digits"
    if w == 0:
        return None
    exact = w * Fraction(10) ** -len(match[2])
    # ambiguous: on the grid of 54-bit mantissas (a double or a midpoint)
    # to within far less than the rounding needs
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    scaled = exact / Fraction(2) ** (e - 54)
    if abs(scaled - round(scaled)) < Fraction(1, 2 ** 40):
        return "ambiguous"
    return None


def assert_same_as_float(texts):
    """Every decided value is float's, bit for bit, and every undecided
    cell is one the docstring allows."""
    values, undecided = parse(texts)
    assert values.shape == undecided.shape == (len(texts),)
    wrong = [(text, value) for text, value, skip
             in zip(texts, values.tolist(), undecided.tolist())
             if not skip and struct.pack("<d", float(text)) != struct.pack("<d", value)]
    assert not wrong, f"{len(wrong)} of {len(texts)} differ, first {wrong[:5]}"
    unexplained = [text for text, skip in zip(texts, undecided.tolist())
                   if skip and why_undecided(text) is None]
    assert not unexplained, f"undecided without cause: {unexplained[:5]}"
    return undecided


def midpoint(m, e):
    """The exact decimal of m * 2^e + 2^(e - 1), halfway between two doubles."""
    exact = Decimal(2 * m + 1) * Decimal(2) ** (e - 1) if e >= 1 else \
        Decimal(2 * m + 1) / Decimal(2) ** (1 - e)
    return format(exact, "f")


DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(1, 2 ** 52 - 1).map(lambda k: float(np.int64(k).view(np.float64))),
    st.integers(-1074, 1023).map(lambda k: 2.0 ** k),
    st.floats(1e-6, 1e-3), st.floats(1e14, 1e18),  # around 1e-4 and 1e16
    st.sampled_from([0.0, -0.0]))
DECIMALS = st.one_of(
    st.builds(midpoint, st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-3, 11)),
    st.builds(midpoint, st.integers(1, 2 ** 20), st.integers(-20, 40)),
    # 19 and 20 digits, the point anywhere or nowhere
    st.builds(lambda d, p, e: f"{str(d)[:p]}.{str(d)[p:]}e{e}",
              st.integers(10 ** 18, 10 ** 20 - 1), st.integers(0, 20),
              st.integers(-30, 30)),
    st.builds(lambda d, z: "0." + "0" * z + str(d),
              st.integers(1, 10 ** 17), st.integers(0, 22)),  # leading zeros
    st.builds(lambda d, e: f"{d}e{e}", st.integers(1, 10 ** 19 - 1),
              st.sampled_from([-343, -342, -341, -325, -324, -308, -307, 290, 308, 309])
              | st.integers(-360, 330)),
    # just below a power of two, which w rounds up to as a double
    st.builds(lambda k, d, e: f"{2 ** k - d}e{e}", st.integers(54, 63),
              st.integers(1, 1024), st.integers(-30, 30)),
    st.builds(lambda x: f"{x:.17e}", st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(lambda x, n: f"{x:.{n}f}", st.floats(-1e6, 1e6), st.integers(0, 20)),
    st.builds(lambda s, d, e: f"{s}{d}E{e:+d}", st.sampled_from(["", "+", "-"]),
              st.integers(0, 999), st.integers(-99999999, 99999999)),
    st.sampled_from(["0", "-0", "0e999", "-0.0e-999", ".5", "5.", "-.5", "+5.e-1",
                     "1.7976931348623157e308", "1.7976931348623158e308",
                     "1.7976931348623159e308", "2.2250738585072014e-308",
                     "2.2250738585072011e-308", "4.9406564584124654e-324",
                     "9007199254740993", "9007199254740992.5", "1e23", "8.5e-5"]))


class TestParseFloats:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(values=st.lists(DOUBLES, min_size=1, max_size=40))
    def test_reprs_parse_to_their_bits(self, values):
        values = np.resize(np.array(values), _CELLS + 7)
        texts = tokens(values)
        parsed, undecided = parse(texts)
        assert parsed[~undecided].tobytes() == values[~undecided].tobytes()
        # only reprs in exponent notation are left
        left = np.abs(values[undecided])
        assert ((left < 1e-4) | (left >= 1e16)).all()
        assert_same_as_float(texts)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(texts=st.lists(DECIMALS, min_size=1, max_size=40))
    def test_same_as_float(self, texts):
        assert_same_as_float(texts)

    def test_seeded_batch(self):
        rng = np.random.default_rng(20210)
        n = 20_100
        bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False)
        bits = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
        uniform = rng.uniform(-1e6, 1e6, n)
        places = rng.integers(0, 21, n).tolist()
        exponents = rng.integers(-350, 320, n).tolist()
        digits = [str(d) for d in rng.integers(1, 10 ** 19, n, dtype=np.uint64).tolist()]
        short = [d[:k] for d, k in zip(digits, rng.integers(1, 20, n).tolist())]
        ulps = rng.integers(2 ** 52, 2 ** 53, n, dtype=np.int64).tolist()
        texts = [*map(repr, bits.tolist()),
                 *(f"{x:.17e}" for x in bits.tolist()),
                 *(f"{x:.{p}f}" for x, p in zip(uniform.tolist(), places)),
                 *(f"{d}e{e}" for d, e in zip(short, exponents)),
                 *(midpoint(m, e) for m, e in zip(ulps, rng.integers(-3, 12, n).tolist()))]
        assert len(texts) >= 10 ** 5 > _CELLS
        undecided = assert_same_as_float(texts)
        # a repr is left only when in exponent notation
        fixed = (np.abs(bits) >= 1e-4) & (np.abs(bits) < 1e16)
        assert not undecided[:bits.size][fixed].any()

    def test_outside_the_grammar_is_left_for_float(self):
        texts = ["", " 1", "1 ", "nan", "-inf", "1_000", "0x10", "\u0661", ".", "-",
                 "e5", "1e", "1e+", "1e5e3", "1.2.3", "--1", "1-2", "1e5.0",
                 "1e123456789", "1" * 25, "0." + "0" * 22 + "1", "1e5", "1E+05",
                 "-2.5e-07"]
        values, undecided = parse(texts)
        assert undecided.all()
        assert np.isnan(values).all()

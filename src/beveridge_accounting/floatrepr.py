"""Float64 arrays to and from decimal text, computed with array code for
the numbers a panel holds: shares and probabilities in fixed notation.

`float_reprs` writes each value's ``float.__repr__`` text.  Zeros and the
finite values from 1e-4 up to 1e16, which ``repr`` writes in fixed
notation, are spelled by array code; the rest (exponent notation, nan and
the infinities) by ``float.__repr__``, in one batch.  The digits come from
Schubfach's shortest round-trip search (Giulietti, "The Schubfach way to
render doubles", 2020), run on uint64 arrays.  A value c 2^q is scaled
once by a fixed 126-bit multiple g of 10^-k: one 64 x 126-bit product,
rounded to odd, gives 4 v / 10^k, and the two interval bounds follow from
it by adding or subtracting g shifted, with no more multiplies.  The
shortest digits are then s = floor(v / 10^k), s + 1, or one of the
multiples of ten next to s, by comparisons with the bounds; only values
whose digits end in zeros take a few steps more to remove them.  The text
is laid out as ``repr`` lays out fixed notation: ``0.`` padding below one,
``.0`` after integers.  Each row holds its text packed from its first
byte, built as three little-endian words with no Python object per value:
the digits, split at the point by arithmetic so that a zero digit keeps
its place, are spelled four at a time from a table, moved up past the head
(``-``, ``0.``, ``0.000``) by one shift across the words, and or-ed into
ASCII words looked up by sign, digit count and point position.  The
tables cover only the exponent fields of 1e-4 <= |v| < 1e16: any other
field is clipped into them, to a text the ``repr`` batch writes over.

`parse_floats` reads decimal cells of a byte string as ``float`` reads them.
Each cell's last 24 bytes are taken as three little-endian words from an
overlapping view: the point is closed up, every byte checked to be a digit,
and eight digits at a time made a number (SWAR).  The double nearest
w * 10^q then follows by Eisel–Lemire (Lemire, "Number parsing at a
gigabyte per second", Software: Practice and Experience 2021): one
64 x 128-bit product with a power of five truncated to 128 bits, and its
second word only where the first leaves the kept bits open.  A cell that is
not a sign and digits with at most one point (an exponent, padding,
``nan``), longer than 24 bytes, with more than 19 digits or of an
ambiguous product is flagged for ``float``.

Integer operands are uint64 (or int64 indices and digit chunks kept apart
from them), with explicit uint64 constants, so numpy 1.x value-based
casting and numpy 2 promotion give the same types.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

_U64 = np.uint64
_ONE = _U64(1)
_TEN = _U64(10)
_LOW32 = _U64(0xFFFFFFFF)
_MANTISSA = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
# the biased exponent fields of 1e-4 <= |v| < 1e16 (1.64 2^-14 to 1.11 2^53)
_FIELD_MIN, _FIELD_MAX = 1009, 1076
_FIELDS = _FIELD_MAX - _FIELD_MIN + 1
_LOW63 = _U64((1 << 63) - 1)
_ZERO, _POINT, _PLUS, _MINUS = b"0.+-"

_BLOCK = 4096  # values per pass, so temporaries stay cache-sized
# Both directions hold a text as three little-endian words, byte i in byte
# i % 8 of word i // 8: 24 bytes, which is the longest repr
# ("-2.2250738585072014e-308") and the most of a cell the parser reads
_WINDOW = 24
# A text's layout depends on its sign, its digit count n and its decimal
# point position decpt, -3..16 in fixed notation
_CLASSES = 20
_CLASS_KEYS = 34 * np.arange(_CLASSES)  # by decpt + 3, clipped


class _Tables(NamedTuple):
    g1: np.ndarray  # by `_shortest`'s row: Schubfach's 126-bit g, high 63 bits
    g0: np.ndarray  # its low 63 bits
    centre: np.ndarray  # h + 2, which shifts c to the centre's 4c << h
    right: np.ndarray  # h + 1: the right bound's (4c + 2) << h is the centre's
    # plus 1 << right
    left: np.ndarray  # h + 1, or h with a closer lower neighbour: the left
    # bound's (4c - 2) << h or (4c - 1) << h is the centre's less 1 << left
    k: np.ndarray  # the decimal exponent of s
    pow10: np.ndarray  # 10^k, k <= 17
    fours: np.ndarray  # the four digits of 0..9999 as byte values 0-9, the
    # first lowest
    layout: np.ndarray  # by `_layout`'s key: the ASCII words a text's digit
    # bytes are or-ed into, its head shift in bits, its length and the
    # divisor that splits the digits at its point


@cache
def _tables() -> _Tables:
    """The lookup tables, built on first use.

    A row of `_shortest` is a biased exponent field less `_FIELD_MIN`, plus
    `_FIELDS` where the value has a closer lower neighbour (a zero mantissa
    field).  Its entries follow from the value's q (v = c 2^q): k = floor(q
    log10 2), or floor(log10(3/4 2^q)) with the closer neighbour, h = q +
    floor(-k log2 10) + 2, and g = floor(10^-k 2^(125 - floor(-k log2 10)))
    + 1 (Giulietti 2020), which is built once for each k from -20 to 0.
    """
    g = []
    for k in range(-20, 1):  # 10^-k << 125 - floor(log2 10^-k)
        p = 10 ** -k
        g.append((p << 126 - p.bit_length()) + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & 0x7FFFFFFFFFFFFFFF for x in g], dtype=np.uint64)

    row = np.arange(2 * _FIELDS)
    q = row % _FIELDS + _FIELD_MIN - 1075
    closer = row // _FIELDS
    # floor(q log10 2) or floor(log10(3/4 2^q)), and floor(-k log2 10), in
    # Giulietti's fixed point
    k = (q * 661_971_961_083 - closer * 274_743_187_321) >> 41
    h = q + (-k * 913_124_641_741 >> 38) + 2
    i = k + 20

    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # of 0000..9999
    for place in range(4):
        shape = [10 if p == place else 1 for p in range(4)]
        digits[..., place] = np.arange(10, dtype=np.uint8).reshape(shape)
    return _Tables(g1[i], g0[i], (h + 2).astype(np.uint64), (h + 1).astype(np.uint64),
                   (h + 1 - closer).astype(np.uint64), k,
                   np.array([10 ** k for k in range(18)], dtype=np.uint64),
                   digits.reshape(10000, 4).view("<u4").ravel().astype(np.uint64),
                   _layouts())


def _layouts() -> np.ndarray:
    """`_Tables.layout`: column 34 c + 17 s + n - 1 for decpt c - 3, the
    sign s (1 for a minus) and the digit count n.

    The digits go after a head (the sign, then below one "0." and the
    zeros of 0.000ddd), and a point goes after p of them: decpt of them
    from one up, none (p = 17) after "0.".  `_layout` splits the digits at
    p with the divisor 10^(17 - p), which leaves a zero digit there for the
    point.
    """
    decpt = np.arange(_CLASSES)[:, None, None] - 3
    sign = np.arange(2)[:, None]
    n = np.arange(1, 18)
    whole = decpt >= 1
    point = np.where(whole, decpt, 17)
    head = sign + np.where(whole, 0, 2 - decpt)
    # the digit bytes kept: whole numbers end in ".0"
    kept = np.where(whole, np.maximum(decpt + 2, n + 1), n)
    head, kept = np.broadcast_arrays(head, kept)
    i = np.arange(_WINDOW)
    text = np.where(i < head[..., None],
                    np.where(i < sign[..., None], _MINUS,
                             np.where(i == sign[..., None] + 1, _POINT, _ZERO)),
                    np.where(i >= (head + kept)[..., None], 0,
                             np.where(i == (head + point)[..., None], _POINT, _ZERO)))
    words = text.astype(np.uint8).reshape(-1, _WINDOW).view("<u8").T.astype(np.uint64)
    divisor = np.broadcast_to(np.array([10 ** (17 - p) for p in point.ravel()],
                                       dtype=np.uint64)[:, None, None], head.shape)
    return np.vstack([words, *(np.ravel(x).astype(np.uint64)
                               for x in (8 * head, head + kept, divisor))])


def float_reprs(values) -> tuple[np.ndarray, np.ndarray]:
    """The ``repr`` of each value as a row of ASCII bytes, and its length.

    `values` is converted to float64 (so float16 and float32 widen as
    ``.tolist()`` widens them).  Row i of the returned uint8 matrix is
    ``repr(float(values[i]))`` from its first byte, then NUL padding; the
    matrix is as wide as the longest of them, at most 24 bytes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = values.view(np.uint64)
    out = np.empty((bits.size, _WINDOW // 8), dtype="<u8")
    lengths = np.empty(bits.size, dtype=np.int64)
    for start in range(0, bits.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        lengths[block] = _format_block(bits[block], out[block])
    magnitude = np.abs(values)
    rest = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)) & (magnitude != 0))
    if rest.size:  # exponent notation, nan and the infinities: written over
        texts = list(map(repr, values[rest].tolist()))
        out.view(f"S{_WINDOW}")[rest, 0] = np.array(texts, dtype=f"S{_WINDOW}")
        lengths[rest] = list(map(len, texts))
    return out.view(np.uint8)[:, :lengths.max(initial=0)], lengths


def _format_block(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the fixed-notation repr text of each float64 of `bits` to its
    row of `out`, as three words; return the texts' lengths.  Zero is "0.0";
    any other field than the tables' is clipped into them, to a text that
    `float_reprs` writes over."""
    exponent = np.clip((bits >> _U64(52)).astype(np.int64) & 0x7FF,
                       _FIELD_MIN, _FIELD_MAX)
    digits, exp10 = _shortest(bits & _MANTISSA, exponent)
    zero = (bits << _ONE) == 0
    digits[zero] = 0
    exp10[zero] = 0
    return _layout(digits, exp10, (bits >> _U64(63)).astype(bool), out)


def _umul128(a_lo: np.ndarray, a_hi: np.ndarray, b: np.ndarray):
    """Low and high words of a * b, a given as 32-bit limbs.

    Each of the four partial products and the sums of their halves fit in
    64 bits, so the result is exact for any 64-bit operands.
    """
    b_lo, b_hi = b & _LOW32, b >> _U64(32)
    lo_lo = a_lo * b_lo
    mid = a_hi * b_lo + (lo_lo >> _U64(32))
    mid2 = a_lo * b_hi + (mid & _LOW32)
    high = a_hi * b_hi + (mid >> _U64(32)) + (mid2 >> _U64(32))
    return (mid2 << _U64(32)) | (lo_lo & _LOW32), high


def _rop(x1: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2^127), rounded to odd, from x1, the high word of
    g0 * cp, and y1:y0, g1 * cp; with g = g1 2^63 + g0 (Giulietti's rop).

    The low word of g0 * cp is ignored, as Giulietti ignores it: taking the
    odd bit from the full product breaks ties that ``repr`` keeps.
    """
    z = (y0 >> _ONE) + x1
    return (y1 + (z >> _U64(63))) | ((z & _LOW63) + _LOW63) >> _U64(63)


def _offset(lo: np.ndarray, hi: np.ndarray, g: np.ndarray, n: np.ndarray,
            sign: int):
    """hi:lo plus `sign` times g << n, as two words, for 0 < n < 64."""
    g_lo, g_hi = g << n, g >> (_U64(64) - n)
    if sign > 0:
        lo_n = lo + g_lo
        return lo_n, hi + g_hi + (lo_n < lo)
    lo_n = lo - g_lo
    return lo_n, hi - g_hi - (lo_n > lo)


def _shortest(mantissa: np.ndarray, exponent: np.ndarray):
    """Schubfach's shortest decimal (digits, exp10), digits * 10^exp10, of
    the doubles with these IEEE mantissa and biased exponent fields, the
    fields from `_FIELD_MIN` to `_FIELD_MAX`, as ``repr`` chooses it: the
    closest of the shortest, ties to an even last digit."""
    t = _tables()
    c = mantissa | _HIDDEN
    row = exponent - _FIELD_MIN + np.where(mantissa == 0, _FIELDS, 0)
    g0, g1 = t.g0[row], t.g1[row]
    # vb, vbr and vbl: the value and its interval's bounds, (4c, 4c + 2 and
    # 4c - 2 or 4c - 1) 2^q, over 10^k and times 4
    cp = c << t.centre[row]
    cp_lo, cp_hi = cp & _LOW32, cp >> _U64(32)
    x0, x1 = _umul128(cp_lo, cp_hi, g0)
    y0, y1 = _umul128(cp_lo, cp_hi, g1)
    vb = _rop(x1, y0, y1)
    right, left = t.right[row], t.left[row]
    vbr = _rop(_offset(x0, x1, g0, right, 1)[1], *_offset(y0, y1, g1, right, 1))
    vbl = _rop(_offset(x0, x1, g0, left, -1)[1], *_offset(y0, y1, g1, left, -1))

    out = c & _ONE  # an odd c's interval leaves out its ends, which round to even
    s = vb >> _U64(2)
    # a multiple of ten, one digit shorter, where one of those next to s is
    # in the interval: tried for every s >= 10, as repr wants the shortest
    sp10 = s // _TEN * _TEN
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (sp10 << _U64(2)) + _U64(40) + out <= vbr
    shorter = (s >= _TEN) & (upin != wpin)
    # else s or s + 1: the one in the interval, or the closer, ties to even
    s4 = s << _U64(2)
    up = (vbl + out > s4) | (s4 + _U64(4) + out <= vbr) & (vb > s4 + _U64(2) - (s & _ONE))
    digits = np.where(shorter, np.where(upin, sp10, sp10 + _TEN), s + up)
    exp10 = t.k[row]

    sel = np.flatnonzero(digits % _TEN == 0)
    if sel.size:  # the trailing zeros, largest steps first
        d, e = digits[sel], exp10[sel]
        for n in (16, 8, 4, 2, 1):
            power = _U64(10 ** n)
            d_n = d // power
            go = d_n * power == d
            np.copyto(d, d_n, where=go)
            e += go * n
        digits[sel], exp10[sel] = d, e
    return digits, exp10


def _layout(digits: np.ndarray, exp10: np.ndarray, negative: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """Write the fixed-notation repr text of each digits * 10^exp10, with a
    minus sign where `negative`, to its row of `out` as three words; return
    the lengths.

    The digits are split at the point by arithmetic: z has a zero digit
    there.  Its 18 digits become byte values from the four-digit table,
    move up past the head by a shift across the three words, and are or-ed
    into the ASCII words of their layout, which hold the head, the point
    and the "0" of each digit byte the text keeps.
    """
    t = _tables()
    # the power of ten of the leading digit, floor(log10 digits): from
    # floor(log2 digits), which the digits as a double give, and one
    # comparison with the next power of ten
    log2 = ((digits | _ONE).astype(np.float64).view(np.uint64) >> _U64(52)) - _U64(1023)
    lead = log2 * _U64(1233) >> _U64(12)  # floor(log2 * log10 2)
    lead = (lead + (digits >= t.pow10.take(lead + _ONE))).view(np.int64)
    decpt = exp10 + lead + 1
    key = _CLASS_KEYS.take(decpt + 3, mode="clip") + 17 * negative + lead
    layout = t.layout.take(key, axis=1)
    shift, length, divisor = layout[3], layout[4], layout[5]
    # z: the digits left-aligned in 17 places, with a zero digit after the
    # point's place, 18 in all
    norm = digits * t.pow10.take(16 - lead)
    z = (norm + norm // divisor * divisor * _U64(9)).view(np.int64)
    # as byte values: z's first two digits, then four at a time
    top = z // 10 ** 16
    rest = z - top * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    a, c = high // 10 ** 4, low // 10 ** 4
    fours = t.fours
    d2, d6 = fours.take(a), fours.take(high - a * 10 ** 4)
    d10, d14 = fours.take(c), fours.take(low - c * 10 ** 4)
    w0 = fours.take(top) >> _U64(16) | d2 << _U64(16) | d6 << _U64(48)
    w1 = d6 >> _U64(16) | d10 << _U64(16) | d14 << _U64(48)
    w2 = d14 >> _U64(16)
    # past the head: each word moves up, the top of the one before coming in
    back = _U64(63) - shift
    np.bitwise_or(w2 << shift | w1 >> back >> _ONE, layout[2], out=out[:, 2])
    np.bitwise_or(w1 << shift | w0 >> back >> _ONE, layout[1], out=out[:, 1])
    np.bitwise_or(w0 << shift, layout[0], out=out[:, 0])
    return length


# ---------------------------------------------------------------------------
# The reading direction: decimal text to float64
# ---------------------------------------------------------------------------

_ONES = _U64(0x0101010101010101)
_DIGIT_ZEROS = _ONES * _U64(_ZERO)  # "00000000"
_LOW7 = _U64(0x7F7F7F7F7F7F7F7F)
_HIGH_BITS = _U64(0x8080808080808080)
_PAST_NINE = _U64(0x4646464646464646)  # added to a byte, sets its top bit from ":"
_PAIRS = _U64(0x000000FF000000FF)
_MUL1 = _U64(100 + (10 ** 6 << 32))
_MUL2 = _U64(1 + (10 ** 4 << 32))
_CELLS = 2 * _BLOCK  # cells per pass, so their words stay cache-sized
# _BEFORE[k, i]: the bytes of word k that come before byte i of a window
_BEFORE = np.array([[(1 << 8 * min(max(i - 8 * k, 0), 8)) - 1 for i in range(_WINDOW + 1)]
                    for k in range(_WINDOW // 8)], dtype=np.uint64)
# byte b of word k holds 8 - b + 8k: a product's top byte sums the index + 1
# of each marked byte (`_count_and_place`)
_RAMPS = np.array([[0x0102030405060708 + 8 * k * 0x0101010101010101]
                   for k in range(_WINDOW // 8)], dtype=np.uint64)
# a cell's q, less the digits after its point: at most 23 of its 24 bytes,
# so that w * 10^q, w below 10^19, is neither subnormal nor infinite
_Q_MIN = 1 - _WINDOW
_ROUND_BITS = _U64(0x1FF)  # below the 55 bits kept when the top bit is clear


@cache
def _powers_of_five() -> tuple[np.ndarray, np.ndarray]:
    """High and low words of 5^q, q from _Q_MIN to 0, scaled by a power of
    two to exactly 128 bits (Lemire 2021): floor(2^(z + 127) / 5^-q) + 1,
    z the bit length of 5^-q, then 2^127 for q = 0."""
    words = []
    p = 1
    for _ in range(-_Q_MIN):
        p *= 5
        words.append((1 << (p.bit_length() + 127)) // p + 1)
    words.reverse()
    words.append(1 << 127)
    return (np.array([w >> 64 for w in words], dtype=np.uint64),
            np.array([w & 0xFFFFFFFFFFFFFFFF for w in words], dtype=np.uint64))


def parse_floats(data: bytes, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """The float64 value of each decimal cell ``data[starts[i]:ends[i]]``,
    and which cells the array code left undecided (their value is NaN).

    A cell is decided when it has at most 24 bytes and reads ``[+-]m``, m
    one or more digits with at most one point among them; when m's digits,
    read as an integer w, are below 10^19; and when w is 0 or its value
    w * 10^q (q less the digits after the point) is not ambiguous to
    `_eisel_lemire`.  A decided value is the one ``float`` gives the cell,
    bit for bit; every other cell (a blank, padding, an exponent, ``nan``,
    ``1_000``, more digits) is left for ``float``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.size and starts.min() < _WINDOW:  # a window could start before data
        data = bytes(_WINDOW) + data
        starts, ends = starts + _WINDOW, ends + _WINDOW
    # windows[i]: the _WINDOW bytes of data from position i
    windows = np.ndarray((max(len(data) - _WINDOW + 1, 0),), dtype=f"V{_WINDOW}",
                         buffer=data, strides=(1,))
    values = np.empty(starts.size)
    undecided = np.empty(starts.size, dtype=bool)
    for start in range(0, starts.size, _CELLS):
        block = slice(start, start + _CELLS)
        values[block], undecided[block] = _parse_block(data, windows, starts[block],
                                                       ends[block])
    return values, undecided


def _words(windows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The _WINDOW bytes before each end as little-endian words: row k of
    the result holds bytes 8k to 8k + 7 of every window."""
    words = windows[ends - _WINDOW].view("<u8").reshape(ends.size, _WINDOW // 8)
    return words.T.astype(np.uint64, order="C")


def _before(at: np.ndarray) -> np.ndarray:
    """Masks of the bytes of each window before its index `at`, which is
    clipped to 0.._WINDOW."""
    return np.take(_BEFORE, at, axis=1, mode="clip")


def _fill(words: np.ndarray, first: np.ndarray) -> np.ndarray:
    """`words` with the bytes before index `first` of each window set to "0"."""
    mask = _before(first)
    return words & ~mask | _DIGIT_ZEROS & mask


def _marks(words: np.ndarray, byte: int) -> np.ndarray:
    """0x01 in each byte of `words` equal to `byte`, else 0."""
    x = words ^ _ONES * _U64(byte)
    return (~((x & _LOW7) + _LOW7 | x) & _HIGH_BITS) >> _U64(7)


def _count_and_place(marks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many bytes of each column of `marks` are marked, and the index of
    the marked byte where there is exactly one (-1 where there is none)."""
    count = marks.sum(axis=0) * _ONES >> _U64(56)  # summed in the top byte
    places = (marks * _RAMPS >> _U64(56)).sum(axis=0)
    return count.astype(np.int64), places.astype(np.int64) - 1


def _digit_values(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether every byte of a column of `words` is an ASCII digit, and each
    word's eight digits as a number, the first byte the leading digit."""
    flags = np.bitwise_or.reduce(words + _PAST_NINE | words - _DIGIT_ZEROS)
    d = words - _DIGIT_ZEROS
    d = d * _TEN + (d >> _U64(8))  # digit pairs in the even bytes
    return (flags & _HIGH_BITS == 0,
            (d & _PAIRS) * _MUL1 + (d >> _U64(16) & _PAIRS) * _MUL2 >> _U64(32))


def _close_up(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """`words` less the byte at index `at` of each column (none where -1):
    the bytes before it move one place on, and a "0" comes first."""
    moved = words << _U64(8)
    moved[1:] |= words[:-1] >> _U64(56)
    moved[0] |= _U64(_ZERO)
    before = _before(at + 1)
    return moved & before | words & ~before


def _parse_block(data: bytes, windows: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`parse_floats` of one block of cells."""
    buf = np.frombuffer(data, dtype=np.uint8)
    length = ends - starts
    first = buf[np.minimum(starts, buf.size - 1)]  # a blank last cell has none
    negative = first == _MINUS
    signed = negative | (first == _PLUS)
    words = _fill(_words(windows, ends), _WINDOW - length + signed)
    points = _marks(words, _POINT)
    n_points, point_at = _count_and_place(points)
    ok, v = _digit_values(_close_up(words ^ points * _U64(_POINT ^ _ZERO), point_at))
    w = (v[0] * _U64(10 ** 8) + v[1]) * _U64(10 ** 8) + v[2]
    # less the digits after the point
    q = np.where(n_points == 1, point_at + 1 - _WINDOW, 0)
    nonzero = w != 0
    undecided = ((length > _WINDOW) | ~ok | (v[0] >= _U64(1000)) | (n_points > 1)
                 | (length - signed - n_points < 1))

    bits = negative.astype(np.uint64) << _U64(63)
    sel = np.flatnonzero(nonzero & ~undecided)
    if sel.size:
        magnitude, undecided[sel] = _eisel_lemire(w[sel], q[sel])
        bits[sel] |= magnitude
    values = bits.view(np.float64)
    values[undecided] = np.nan
    return values, undecided


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of the double nearest each w * 10^q, ties to even, and
    which of them are undecided (Lemire, "Number parsing at a gigabyte per
    second", 2021).

    w is uint64 from 1 to 10^19 - 1 and q from _Q_MIN to 0.  A value
    is undecided where it is subnormal or at least 2^1024 before rounding,
    or where the product's bits below those kept are all ones even after
    the second word of the power of five is added, so that the rest of 5^q
    might carry into them.  (A value that rounds up to 2^1024 is infinity.)
    """
    high, low = _powers_of_five()
    row = q - _Q_MIN
    # shift w's top bit to bit 63: as a double, w < 2^64 - 2^10 has the
    # exponent floor(log2 w), or one more where it rounds up
    lz = _U64(1086) - (w.astype(np.float64).view(np.uint64) >> _U64(52))
    w = w << lz
    short = (w >> _U64(63)) ^ _ONE
    w <<= short
    lz += short
    w_lo, w_hi = w & _LOW32, w >> _U64(32)
    lo, hi = _umul128(w_lo, w_hi, high[row])
    undecided = np.zeros(w.size, dtype=bool)
    sel = np.flatnonzero(hi & _ROUND_BITS == _ROUND_BITS)
    if sel.size:  # a carry from below could reach the kept bits
        extra = _umul128(w_lo[sel], w_hi[sel], low[row[sel]])[1]
        lo_s = lo[sel] + extra
        hi_s = hi[sel] + (lo_s < extra)
        lo[sel], hi[sel] = lo_s, hi_s
        undecided[sel] = (lo_s == ~_U64(0)) & (hi_s & _ROUND_BITS == _ROUND_BITS)
    upper = hi >> _U64(63)
    shift = upper + _U64(9)
    mantissa = hi >> shift  # 54 bits: the double's 53 and a round bit
    sel = np.flatnonzero(lo <= _ONE)
    if sel.size:  # an exact tie, possible only where 5^|q| fits a word
        m, q_s = mantissa[sel], q[sel]
        tie = (q_s >= -4) & (m & _U64(3) == _ONE) & (m << shift[sel] == hi[sel])
        mantissa[sel] = m & ~tie.astype(np.uint64)  # round down to even
    mantissa += mantissa & _ONE
    mantissa >>= _ONE  # with the hidden bit, 2^53 where rounding carried
    # the exponent field less one, as the hidden bit (or carry) adds to it:
    # floor(q log2 10) + 63 less the normalisation, plus the bias
    field = ((217706 * q >> 16) + 1085).astype(np.uint64) + upper - lz
    undecided |= field >= _U64(0x7FE)  # subnormal (wrapped below 0) or infinite
    return (field << _U64(52)) + mantissa, undecided  # a carry to 2^1024 is inf

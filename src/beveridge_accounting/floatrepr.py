"""``float.__repr__`` text of whole float64 arrays, computed with array code.

The digits come from Ryū's shortest round-trip search (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018), run on uint64 arrays.  Each value's
64 x 128-bit product with the 125-bit power-of-five multiplier is built from
32-bit limbs: one 192-bit product per value, from which the two interval
bounds follow by adding or subtracting the multiplier.  Digit removal takes
a few masked steps over the whole block, then finishes on the values still
active.  The text is laid out as ``repr`` lays it out: fixed notation for
-4 < decpt <= 16 (``0.`` padding below one, ``.0`` after integers),
otherwise ``d[.ddd]e±XX``.

Integer operands are uint64 (or int64 indices kept apart from them), with
explicit uint64 constants, so numpy 1.x value-based casting and numpy 2
promotion give the same types.
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
_ZERO, _POINT, _E, _PLUS, _MINUS = b"0.e+-"

_BLOCK = 4096  # values per pass, so temporaries stay cache-sized
# A row's slots: bytes 0-7 hold the sign, then "0." and the zeros of
# 0.000ddd (or "inf", "nan"); bytes 8-41 the 17 digits, each followed by a
# slot for the point; bytes 42-46 the exponent ("e-308").  Slots a value
# does not use stay NUL.
_WIDTH = 48
_DIGITS = slice(4, 21)  # in 2-byte pairs
_EXPONENT = 42


class _Tables(NamedTuple):
    low: np.ndarray  # per biased exponent: Ryū's 125-bit multiplier, low word
    high: np.ndarray  # its high word
    dist: np.ndarray  # shift of the product's upper two words to vr and vp
    exp10: np.ndarray  # decimal exponent of vr before digit removal
    tz_mask: np.ndarray  # low bits of 4 m2 that must be zero for vr to be exact
    five: np.ndarray  # 5^q where 4 m2 * 2^e2 / 10^q may be exact, else 0
    tiny: np.ndarray  # exponents whose q is at most 1 (values 2^50 to 2^54)
    hidden: np.ndarray  # the implicit leading mantissa bit
    pow10: np.ndarray  # 10^k, k <= 17
    pairs: np.ndarray  # "d NUL d NUL d NUL d NUL" of 0..9999, then the same
    # with trailing zeros as NUL, as 8-byte items
    heads: np.ndarray  # bytes 0-7 of a row by `_format_block`'s head code


@cache
def _tables() -> _Tables:
    """The lookup tables, built on first use.

    Ryū's multipliers are floor(2^(bitlen(5^q) + 124) / 5^q) + 1 for e2 >= 0
    and 5^i scaled to exactly 125 bits for e2 < 0; everything that depends
    only on the exponent is looked up by the biased exponent field.
    """
    words = []
    for q in range(292):
        p = 5 ** q
        words.append((1 << (p.bit_length() + 124)) // p + 1)
    for i in range(326):
        p = 5 ** i
        shift = p.bit_length() - 125
        words.append(p >> shift if shift >= 0 else p << -shift)
    low = np.array([w & 0xFFFFFFFFFFFFFFFF for w in words], dtype=np.uint64)
    high = np.array([w >> 64 for w in words], dtype=np.uint64)

    field = np.arange(2048)
    e2 = np.maximum(field, 1) - 1077
    big = e2 >= 0
    q = np.where(big, (e2 * 78913 >> 18) - (e2 > 3),  # floor(e2 log10 2), -e2 log10 5
                 (-e2 * 732923 >> 20) - (-e2 > 1))
    i = np.maximum(-e2 - q, 0)
    bits5 = lambda x: (x * 1217359 >> 19) + 1  # noqa: E731 - bit length of 5^x
    row = np.where(big, q, 292 + i)
    j = np.where(big, q - e2 + 124 + bits5(q), q - bits5(i) + 125)
    mask = np.left_shift(_ONE, np.minimum(q, 63).astype(np.uint64)) - _ONE
    tz_mask = np.where(big | (q >= 63), ~_U64(0), np.where(q <= 1, _U64(0), mask))
    pow5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)
    five = np.where(big & (q <= 21), pow5[np.minimum(q, 21)], _U64(0))

    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # of 0000..9999
    for place in range(4):
        shape = [10 if p == place else 1 for p in range(4)]
        digits[..., place] = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8).reshape(shape)
    digits = digits.reshape(10000, 4)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == _ZERO, axis=1)[:, ::-1]
    pairs = np.zeros((2, 10000, 4, 2), dtype=np.uint8)
    pairs[0, :, :, 0] = digits
    pairs[1, :, :, 0] = np.where(trailing, 0, digits)

    heads = np.zeros((14, 8), dtype=np.uint8)
    for zeros in range(4):
        heads[1 + zeros, 1:3 + zeros] = _ZERO
        heads[1 + zeros, 2] = _POINT
    heads[5, 1:4] = list(b"inf")
    heads[6, 1:4] = list(b"nan")
    heads[7:] = heads[:7]
    heads[7:, 0] = _MINUS
    return _Tables(low[row], high[row], (j - 65).astype(np.uint64),
                   np.where(big, q, q + e2), tz_mask, five, ~big & (q <= 1),
                   np.where(field == 0, _U64(0), _HIDDEN),
                   np.array([10 ** k for k in range(18)], dtype=np.uint64),
                   pairs.reshape(20000, 8).view(np.uint64).ravel(),
                   heads.view(np.uint64).ravel())


def float_reprs(values) -> np.ndarray:
    """The ``repr`` of each value as a row of ASCII bytes.

    `values` is converted to float64 (so float16 and float32 widen as
    ``.tolist()`` widens them).  Row i of the returned uint8 matrix, with its
    zero bytes dropped, is ``repr(float(values[i]))``: the zeros are padding
    and unused slots, such as the sign slot of a positive value.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    out = np.zeros((bits.size, _WIDTH), dtype=np.uint8)
    for start in range(0, bits.size, _BLOCK):
        _format_block(bits[start:start + _BLOCK], out[start:start + _BLOCK])
    return out


def _format_block(bits: np.ndarray, out: np.ndarray) -> None:
    exponent = (bits >> _U64(52)).astype(np.int64) & 0x7FF
    mantissa = bits & _MANTISSA
    finite = exponent != 0x7FF
    other = ~finite | ((bits << _ONE) == 0)
    # 0.1 + 0.2, whose digits need no long removal, stands in for zeros,
    # infinities and nan; then zero is 0 * 10^0, "0.0"
    digits, exp10 = _shortest(np.where(other, _U64(0x3333333333334), mantissa),
                              np.where(other, 1021, exponent))
    digits[other] = 0
    exp10[other] = 0
    head = _layout(digits, exp10, out)
    negative = (bits >> _U64(63)).astype(bool) & (finite | (mantissa == 0))  # not nan
    head = np.where(finite, head, np.where(mantissa == 0, 5, 6)) + 7 * negative
    out.view(np.uint64)[:, 0] = _tables().heads[head]
    out.view("<u2")[~finite, _DIGITS] = 0


def _umul128(a_lo: np.ndarray, a_hi: np.ndarray, b: np.ndarray):
    """Low and high words of a * b, a < 2^63 given as 32-bit limbs."""
    b_lo, b_hi = b & _LOW32, b >> _U64(32)
    lo_lo = a_lo * b_lo
    mid = a_hi * b_lo + (lo_lo >> _U64(32))
    mid2 = a_lo * b_hi + (mid & _LOW32)
    high = a_hi * b_hi + (mid >> _U64(32)) + (mid2 >> _U64(32))
    return (mid2 << _U64(32)) | (lo_lo & _LOW32), high


def _shift_right(mid: np.ndarray, high: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """floor((high * 2^64 + mid) / 2^dist) for 0 < dist < 64."""
    return (high << (_U64(64) - dist)) | (mid >> dist)


def _interval(m2: np.ndarray, exponent: np.ndarray, mm_shift: np.ndarray):
    """Ryū's vr, vp and vm: 4 m2, 4 m2 + 2 and 4 m2 - 1 - mm_shift times
    2^e2 / 10^e10, rounded down.

    With B the multiplier and P = 2 m2 B in three words, vr = P >> (j - 1),
    vp = (P + B) >> (j - 1) and vm = (2P - (1 + mm_shift) B) >> j, where
    the table's dist is j - 65.
    """
    t = _tables()
    b0, b1, dist = t.low[exponent], t.high[exponent], t.dist[exponent]
    a = m2 << _ONE
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    lo, carry = _umul128(a_lo, a_hi, b0)
    mid, hi = _umul128(a_lo, a_hi, b1)
    mid += carry
    hi += mid < carry
    vr = _shift_right(mid, hi, dist)

    lo_p = lo + b0
    mid_p = mid + (b1 + (lo_p < lo))
    vp = _shift_right(mid_p, hi + (mid_p < mid), dist)

    s = mm_shift.astype(np.uint64)
    c0 = b0 << s
    c1 = (b1 << s) | ((b0 >> _U64(63)) & s)
    lo2 = lo << _ONE
    mid2 = (mid << _ONE) | (lo >> _U64(63))
    hi2 = (hi << _ONE) | (mid >> _U64(63))
    lo_m = lo2 - c0
    mid_m = mid2 - (c1 + (lo_m > lo2))
    vm = _shift_right(mid_m, hi2 - (mid_m > mid2), dist + _ONE)
    return vr, vp, vm


def _shortest(mantissa: np.ndarray, exponent: np.ndarray):
    """Ryū's shortest decimal (digits, exp10), digits * 10^exp10, of the
    nonzero finite doubles with these IEEE mantissa and biased exponent
    fields."""
    t = _tables()
    m2 = mantissa | t.hidden[exponent]
    even = (m2 & _ONE) == 0
    mm_shift = (mantissa != 0) | (exponent <= 1)  # a closer lower neighbour
    mv = m2 << _U64(2)
    vr, vp, vm = _interval(m2, exponent, mm_shift)

    # exactness of the discarded digits, where the product can be exact
    vr_tz = (mv & t.tz_mask[exponent]) == 0
    vm_tz = np.zeros(mv.size, dtype=bool)
    sel = np.flatnonzero(t.five[exponent])
    if sel.size:
        mvs, p5 = mv[sel], t.five[exponent[sel]]
        by5 = mvs % _U64(5) == 0
        vr_tz[sel] = by5 & (mvs % p5 == 0)
        vm_tz[sel] = ~by5 & even[sel] & ((mvs - _ONE - mm_shift[sel]) % p5 == 0)
        vp[sel] -= ~by5 & ~even[sel] & ((mvs + _U64(2)) % p5 == 0)
    sel = np.flatnonzero(t.tiny[exponent])
    if sel.size:
        vm_tz[sel] = even[sel] & mm_shift[sel]
        vp[sel] -= ~even[sel]

    # drop digits while the interval still holds a shorter number
    removed = np.zeros(mv.size, dtype=np.int64)
    last = np.zeros(mv.size, dtype=np.uint64)
    state = [vr, vp, vm, vr_tz, vm_tz, last, removed]
    _drop_digits(state, (2, 1))
    more = np.flatnonzero(vp // _TEN > vm // _TEN)
    if more.size:
        part = [x[more] for x in state]
        _drop_digits(part, (16, 8, 4, 2, 1))
        for x, y in zip(state, part):
            x[more] = y
    # with the lower bound in the interval, its trailing zeros go too
    active = np.flatnonzero(vm_tz)
    while active.size:
        vm_d = vm[active] // _TEN
        keep = vm[active] - vm_d * _TEN == 0
        active, vm_d = active[keep], vm_d[keep]
        vr_a = vr[active]
        vr_d = vr_a // _TEN
        vr_tz[active] &= last[active] == 0
        last[active] = vr_a - vr_d * _TEN
        vr[active], vp[active], vm[active] = vr_d, vp[active] // _TEN, vm_d
        removed[active] += 1
    # round half to even when the exact value ends in 5 0...0
    tie = vr_tz & (last == _U64(5)) & ((vr & _ONE) == 0)
    up = ((vr == vm) & (~even | ~vm_tz)) | ((last >= _U64(5)) & ~tie)
    return vr + up, t.exp10[exponent] + removed


def _drop_digits(state: list, steps: tuple[int, ...]) -> None:
    """Ryū's digit-removal loop on `state` (vr, vp, vm, vr_tz, vm_tz, last,
    removed), in place, taking the steps largest first.

    Dropping s digits at once is s single steps, as the single-step test
    (vp / 10 > vm / 10) holds for every smaller count where it holds for s.
    """
    vr, vp, vm, vr_tz, vm_tz, last, removed = state
    track = vr_tz.any() or vm_tz.any()
    for s in steps:
        power, below = _U64(10 ** s), _U64(10 ** (s - 1))
        vp_s, vm_s = vp // power, vm // power
        go = vp_s > vm_s
        vr_q = vr // below if s > 1 else vr
        vr_s = vr_q // _TEN
        if track:  # the dropped digits, but the last, are zeros
            vr_tz &= ~go | ((last == 0) & (vr == vr_q * below))
            vm_tz &= ~go | (vm == vm_s * power)
        np.copyto(last, vr_q - vr_s * _TEN, where=go)
        np.copyto(vr, vr_s, where=go)
        np.copyto(vp, vp_s, where=go)
        np.copyto(vm, vm_s, where=go)
        removed += go * s


def _layout(digits: np.ndarray, exp10: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the digits, point and exponent of each digits * 10^exp10 to its
    zeroed row of `out`; return the row's head code (1 + the zeros of
    0.000ddd, or 0)."""
    t = _tables()
    n = np.searchsorted(t.pow10[1:], digits, side="right") + 1
    decpt = n + exp10
    # the digits left-aligned in 17 places: the first, then four-digit chunks
    norm = digits * t.pow10[17 - n]
    head = norm // _U64(10 ** 8)
    tail = norm - head * _U64(10 ** 8)
    lead = head // _U64(10 ** 4)
    d0 = lead // _U64(10 ** 4)
    c3 = tail // _U64(10 ** 4)
    c2 = head - lead * _U64(10 ** 4)
    c4 = tail - c3 * _U64(10 ** 4)
    # the digits are shortest, so the zeros after the last nonzero chunk are
    # padding: those chunks come from the table half that drops trailing zeros
    bare = _U64(10000)
    chunks = np.stack([lead - d0 * _U64(10 ** 4) + bare * ((tail == 0) & (c2 == 0)),
                       c2 + bare * (tail == 0), c3 + bare * (c4 == 0), c4 + bare], axis=1)
    # each digit in the low byte of a little-endian pair, its point slot high
    slots = out.view("<u2")[:, _DIGITS]
    slots[:, 0] = d0.astype(np.uint16) + _ZERO
    slots[:, 1:] = t.pairs[chunks].view("<u2")

    fixed = (decpt > 0) & (decpt <= 16)  # ddd.ddd
    frac = (decpt > -4) & (decpt <= 0)  # 0.000ddd
    sci = ~fixed & ~frac  # d.ddde-XX
    whole = np.flatnonzero(fixed & (decpt >= n))
    if whole.size:  # zeros up to the point, and one after it
        padded = t.pairs[chunks[whole] % bare].view("<u2")
        slots[whole, 1:] = np.where(np.arange(1, 17) <= decpt[whole, None], padded, 0)
    point = np.flatnonzero(fixed | (n > 1) & sci)
    slots[point, np.where(fixed, decpt - 1, 0)[point]] |= np.uint16(_POINT << 8)
    sel = np.flatnonzero(sci)
    if sel.size:
        e = decpt[sel] - 1
        mag = np.abs(e)
        out[sel, _EXPONENT] = _E
        out[sel, _EXPONENT + 1] = np.where(e < 0, _MINUS, _PLUS)
        out[sel, _EXPONENT + 2] = np.where(mag >= 100, mag // 100 + _ZERO, 0)
        out[sel, _EXPONENT + 3] = mag // 10 % 10 + _ZERO
        out[sel, _EXPONENT + 4] = mag % 10 + _ZERO
    return np.where(frac, 1 - decpt, 0)


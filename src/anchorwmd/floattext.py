"""Python's shortest round-trip ``repr`` of many floats at once, from numpy array operations.

Every float the package writes to a text artifact (``checkpoint.json``,
``importance.tsv``, the vector file) is ``repr(float(x))``: the fewest
significant digits that read back to the same double, and the nearest such
digits when there are several, in fixed notation for 1e-4 <= |x| < 1e16.
:func:`_join_reprs` writes that text for a whole array with a fixed number of
array operations per block of values, and calls ``repr`` only for the few
values it cannot certify. The method (Steele & White 1990, "How to Print
Floating-Point Numbers Accurately"; Adams 2018, "Ryu: fast float-to-string
conversion"), for each value x:

1. **Scale.** e is the decimal exponent of |x|, from ``log10`` and fixed up
   so that S = |x| * 10**(16 - e) lies in [1e16, 1e17). S is computed exactly,
   as ``hi + lo``, by Dekker's TwoProduct; every power of ten used is an
   exact double (all are, up to 1e22).
2. **Shortest length.** S is correctly rounded to 17, 16, 15, ... significant
   digits, with integer remainders and exact tie detection. An n-digit
   candidate reads back to x when it lies inside x's rounding interval:
   - 17 digits always do;
   - 16 digits: the candidate's distance to S is compared, exactly and
     strictly, with half an ulp of x in the same units (no 16-digit decimal
     is midway between two doubles);
   - 15 digits or fewer: Clinger's test, one correctly rounded multiply or
     divide by 10**|s|, since the digits are below 2**53 and |s| <= 22.
   Away from a power of two the interval is symmetric, so some n-digit
   decimal reads back exactly when the nearest one does, and that nearest
   one is ``repr``'s choice. A power of two needs no case of its own: in
   fixed notation each is a decimal of at most 16 digits. The length stops
   falling at the first n that fails.
3. **Layout.** The 17 digits become ASCII through a table of four-digit
   groups, as three little-endian 64-bit words per value. A table indexed
   by the decimal point's position and the sign says which digits stay, how
   far the others move, and where ``-``, ``0.``, leading zeros and the
   point go; word shifts and masks place them. Each value's row of bytes
   ends with its separator, and the rows' used prefixes are concatenated.

A value takes ``repr`` when it cannot be certified: |x| < 1e-4 or >= 1e16
(exponent notation), an exact tie at the chosen length, or a value that is
not finite. Zeros are written directly.
"""

from __future__ import annotations

import numpy as np

# values formatted per pass: bounds the temporaries to a few MB (twice as many formatted no faster)
_BLOCK = 8192

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_TEXT_BYTES = 24  # three words: the longest fixed-notation text is 23 bytes


def _veltkamp_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as high + low halves of at most 26 significant bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _veltkamp_split(_POW10)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's TwoProduct: ``hi + lo == a * 10**(16 - e)`` exactly, ``hi`` the rounded product."""
    k = 16 - e
    hi = a * _POW10[k]
    a_high, a_low = _veltkamp_split(a)
    b_high, b_low = _POW10_HIGH[k], _POW10_LOW[k]
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    return hi, lo


def _outside_17_digits(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Whether ``hi + lo`` lies outside [1e16, 1e17)."""
    return (hi < 1e16) | (hi > 1e17) | ((hi == 1e16) & (lo < 0)) | ((hi == 1e17) & (lo >= 0))


def _round_to_unit(whole: np.ndarray, frac: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """``whole + frac`` (0 <= frac < 1) correctly rounded to a multiple of ``unit``: the multiple's quotient and
    whether the value was exactly halfway (then the quotient is rounded down)."""
    quotient = whole // unit
    excess = 2 * (whole - quotient * unit) - unit  # the value is above halfway by (excess + 2 * frac) / 2
    up = (excess > 0) | ((excess == 0) & (frac > 0)) | ((excess == -1) & (frac > 0.5))
    tie = ((excess == 0) & (frac == 0)) | ((excess == -1) & (frac == 0.5))
    return quotient + up, tie


def _words(text: bytes) -> list[int]:
    """Up to 24 bytes as three little-endian 64-bit words."""
    text = text.ljust(_TEXT_BYTES, b"\0")
    return [int.from_bytes(text[i : i + 8], "little") for i in range(0, _TEXT_BYTES, 8)]


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per decimal-point position -3..16 and sign, code ``2 * (point + 3) + negative``: the digits that keep
    their place, the bit shifts of those and of the rest, and the fixed marks (``-``, ``0.``, zeros, ``.``)."""
    kept, kept_shift, moved_shift, marks = [], [], [], []
    for point in range(-3, 17):
        for negative in (0, 1):
            sign = b"-" * negative
            if point > 0:  # d..d.d..d
                kept.append(_words(b"\xff" * point))
                moved = negative + 1
                marks.append(_words(sign + b"\0" * point + b"."))
            else:  # 0.0..0d..d
                kept.append(_words(b""))
                moved = negative + 2 - point
                marks.append(_words(sign + b"0." + b"0" * -point))
            kept_shift.append(8 * negative)
            moved_shift.append(8 * moved)
    shifts = np.array([kept_shift, moved_shift], dtype=np.uint64)
    return _word_rows(kept), shifts[0], shifts[1], _word_rows(marks)


def _word_rows(texts: list[list[int]]) -> np.ndarray:
    """:func:`_words` of several texts as a (3, len(texts)) array: word i of every text in row i."""
    return np.array(texts, dtype=np.uint64).T.copy()


_KEPT, _KEPT_SHIFT, _MOVED_SHIFT, _MARKS = _layout_tables()
_PREFIXES = _word_rows([_words(b"\xff" * n) for n in range(_TEXT_BYTES + 1)])  # the first n bytes of a text
# the four ASCII digits of 0..9999, the first in the low byte
_QUADS = np.array([int.from_bytes(b"%04d" % n, "little") for n in range(10000)], dtype=np.uint64)


def _shift_up(words: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(3, m) words as 192-bit numbers, each times ``2**bits`` (bits < 64), truncated to 192 bits."""
    out = words << bits
    out[1:] |= (words[:-1] >> np.uint64(1)) >> (np.uint64(63) - bits)
    return out


def _join_reprs(values, item_sep: str, row_sep: str = "\n") -> str:
    """``row_sep.join(item_sep.join(repr(float(x)) for x in row) for row in values)`` for a 2-D array.

    A 1-D array is one row. Values are formatted in blocks of ``_BLOCK``;
    the module docstring gives the method.
    """
    values = np.asarray(values, dtype=np.float64)
    num_rows, num_cols = values.shape if values.ndim == 2 else (1, values.size)
    if num_cols == 0:
        return row_sep.join([""] * num_rows)
    flat = np.ascontiguousarray(values).reshape(-1)
    seps = (item_sep.encode("utf-8"), row_sep.encode("utf-8"))
    width = -(-(_TEXT_BYTES + max(map(len, seps))) // 8) * 8
    blocks = [
        _block_text(flat[start : start + _BLOCK], start, num_cols, flat.size, seps, width)
        for start in range(0, flat.size, _BLOCK)
    ]
    return "".join(blocks)


def _block_text(x: np.ndarray, first: int, num_cols: int, total: int, seps: tuple[bytes, bytes], width: int) -> str:
    """The text of values ``first ..`` of a flattened (rows, ``num_cols``) array of ``total`` values, each followed
    by its separator (``seps``: between items, between rows; none after the last value)."""
    count = x.size
    magnitude = np.abs(x)
    negative = np.signbit(x)
    zero = magnitude == 0
    certified = (magnitude >= 1e-4) & (magnitude < 1e16)
    a = np.where(certified, magnitude, 1.5)  # 1.5: any certifiable value, so every step below stays finite

    # 1. S = a * 10**(16 - e) = hi + lo in [1e16, 1e17); log10 can miss by one next to a power of ten
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    moved = np.flatnonzero(_outside_17_digits(hi, lo))
    if moved.size:
        e[moved] -= np.where(hi[moved] < 5e16, 1, -1)
        hi[moved], lo[moved] = _scaled(a[moved], e[moved])
        certified[moved[_outside_17_digits(hi[moved], lo[moved])]] = False
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)  # S = whole + frac, 0 <= frac < 1
    frac = lo - floor_lo

    # 2. the shortest correctly rounded digits that read back; ``digits`` is in units of S
    digits, tie = _round_to_unit(whole, frac, 1)
    quotient, tie16 = _round_to_unit(whole, frac, 10)
    below = (whole - 10 * quotient).astype(np.float64)  # S - candidate = below + frac, |below| <= 10
    half_ulp = np.spacing(a) * 0.5 * _POW10.take(16 - e)  # exact, as are both differences below
    bound = np.where(below >= 0, half_ulp - below, -below - half_ulp)
    inside = np.where(below >= 0, frac < bound, frac > bound)
    digits = np.where(inside, 10 * quotient, digits)
    tie = np.where(inside, tie16, tie)
    length = np.where(inside, 16, 17)
    live = np.flatnonzero(inside & certified)
    for n in range(15, 0, -1):
        if not live.size:
            break
        unit = 10 ** (17 - n)
        quotient, tie_n = _round_to_unit(whole.take(live), frac.take(live), unit)
        power = e.take(live) + 1 - n
        scale = _POW10.take(np.abs(power))
        candidate = quotient.astype(np.float64)
        reads_back = np.where(power >= 0, candidate * scale, candidate / scale) == a.take(live)
        live = live[reads_back]
        digits[live] = quotient[reads_back] * unit
        tie[live] = tie_n[reads_back]
        length[live] = n
    carry = digits == 10**17  # rounded up to the next power of ten
    point = e + 1 + carry  # the text's digits are 0.d1d2... times 10**point
    length = np.where(carry, 1, length)
    fallback = ~zero & ~(certified & ~tie)
    plain = fallback | zero
    digits = np.where(plain, 0, np.where(carry, 10**16, digits))
    point = np.where(plain, 1, point)
    length = np.where(plain, 0, length)

    # 3. ASCII digits in three words, then each code's marks and shifts
    top = digits // 100000000
    low8 = digits - top * 100000000
    lead = top // 100000000
    mid8 = top - lead * 100000000
    mid4, low4 = mid8 // 10000, low8 // 10000
    quads = _QUADS.take(np.stack([mid4, mid8 - 10000 * mid4, low4, low8 - 10000 * low4]))
    ascii_digits = np.empty((3, count), dtype=np.uint64)
    one, three, five = np.uint64(8), np.uint64(24), np.uint64(40)  # bits in that many bytes
    ascii_digits[0] = (lead.astype(np.uint64) + np.uint64(ord("0"))) | (quads[0] << one) | (quads[1] << five)
    ascii_digits[1] = (quads[1] >> three) | (quads[2] << one) | (quads[3] << five)
    ascii_digits[2] = quads[3] >> three
    code = 2 * (point + 3) + negative
    kept = _KEPT.take(code, axis=1)
    text = _shift_up(ascii_digits & kept, _KEPT_SHIFT.take(code))
    text |= _shift_up(ascii_digits & ~kept, _MOVED_SHIFT.take(code))
    text |= _MARKS.take(code, axis=1)
    size = np.where(point > 0, np.maximum(length, point + 1) + 1, 2 - point + length) + negative
    text &= _PREFIXES.take(size, axis=1)
    rows = np.empty((count, width), dtype=np.uint8)
    rows.view("<u8")[:, :3] = text.T
    fallen = np.flatnonzero(fallback)
    if fallen.size:
        reprs = [repr(value).encode("ascii") for value in x[fallen].tolist()]
        rows[fallen] = np.array(reprs, dtype=f"S{width}").view(np.uint8).reshape(fallen.size, width)
        size[fallen] = list(map(len, reprs))

    # each value's separator after its text
    index = np.arange(first, first + count)
    row_end = (index + 1) % num_cols == 0
    flat_rows = rows.reshape(-1)
    for sep, gets in zip(seps, (~row_end, row_end & (index < total - 1))):
        at = np.flatnonzero(gets)
        start = at * width + size[at]
        for offset, byte in enumerate(sep):
            flat_rows[start + offset] = byte
        size[at] += len(sep)
    used = (np.arange(width) < np.arange(width + 1)[:, np.newaxis]).take(size, axis=0)
    return rows[used].tobytes().decode("utf-8")

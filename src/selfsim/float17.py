"""Exact ``"%.17g"`` text of many floats at once, as bytes.

``format_17g(values, sep)`` returns the texts ``"%.17g" % x + sep`` of a
float array, each exactly as the scalar formatting gives it, as the rows
of an (n, WIDTH) ``uint8`` table.  A row holds its text's bytes in order
and NUL (0) at every other position: the trailing zeros that ``%g``
drops, the columns its layout does not use and the padding.  No text
contains a NUL, so deleting the NULs (``bytes.translate(None, b"\\0")``)
gives the text; no Python object is made per value.

A normal x = m * 2**e with decimal exponent X is scaled by a 64-bit power
of ten 10**(16 - X) in a 128-bit integer product built from ``uint64``
limbs: the integer part holds its 17 significant digits and the fraction
decides the rounding.  The power is rounded to nearest, so the scaled
value is off by under 2**-7.5.  A fraction within 2**-7 of one half
(exact ties included) could round either way; such values, like zeros,
subnormals, infinities and NaN, go through the scalar ``"%.17g"``, whose
bytes fill their rows the same way.  This is the fast path with an exact
fallback of Steele & White (1990) and Loitsch's Grisu3 (2010), at fixed
precision.

The layouts are the fixed form of each exponent -4 <= X < 17 and the
``d.ddde+XX`` form with two or three exponent digits; each is built as
one matrix per sign and scattered into the table's rows.

``csv_blocks(axes, values)`` builds a grid's CSV lines from these tables:
each block of lines is gathered from their rows, and its NULs deleted.
"""

from __future__ import annotations

import functools

import numpy as np

# values per pass: keeps the (n, width) uint8 matrices small
CHUNK = 16384
# row width of a text table: a sign, 17 digits, ".", "e-308" and the separator
WIDTH = 25
# lines per CSV block
BLOCK = 16384

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_HALF = _U64(1 << 63)
# a fraction within 2**-7 of one half (2**57 in units of 2**-64) is left undecided
_UNDECIDED = _U64(1 << 57)
_E8 = _U64(10**8)
_E16 = _U64(10**16)
_E17 = _U64(10**17)
# layout codes: X + 4 for the fixed form, then the exponent form with two
# and with three exponent digits
_EXP2, _EXP3 = 21, 22


@functools.lru_cache(maxsize=None)
def _power10(q: int) -> tuple:
    """(c, k) with 2**63 <= c < 2**64 and c * 2**k = 10**q rounded to nearest."""
    if q >= 0:
        p = 10**q
        k = p.bit_length() - 64
        if k <= 0:
            return p << -k, k
        c = (p + (1 << (k - 1))) >> k
    else:
        d = 10**-q
        k = -63 - d.bit_length()
        c = ((1 << -k) + d // 2) // d
    if c >> 64:
        c, k = c >> 1, k + 1
    return c, k


@functools.lru_cache(maxsize=None)
def _tables() -> tuple:
    """For i < 10**4: the four ASCII digits of i as one uint32, and the
    number of trailing zeros among those four digits."""
    i = np.arange(10**4)
    chars = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    ascii4 = (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros4 = sum(i % 10**k == 0 for k in range(1, 5)).astype(np.uint8)
    ascii4.flags.writeable = zeros4.flags.writeable = False
    return ascii4, zeros4


def _mul128(a, b):
    """High and low 64 bits of the products of two uint64 arrays."""
    a_lo, a_hi = a & _MASK32, a >> _U64(32)
    b_lo, b_hi = b & _MASK32, b >> _U64(32)
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> _U64(32)) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    lo = (mid << _U64(32)) | (lo_lo & _MASK32)
    hi = a_hi * b_hi + (hi_lo >> _U64(32)) + (lo_hi >> _U64(32)) + (mid >> _U64(32))
    return hi, lo


def _scaled(m, e, q):
    """Integer part and fraction (in units of 2**-64) of m * 2**e * 10**q,
    for 2**63 <= m < 2**64 and a value in [10**16, 10**18)."""
    first = int(q.min())
    powers = [_power10(v) for v in range(first, int(q.max()) + 1)]
    c = np.array([p[0] for p in powers], dtype=_U64)[q - first]
    k = np.array([p[1] for p in powers], dtype=np.int64)[q - first]
    hi, lo = _mul128(m, c)
    # the value is (hi * 2**64 + lo) / 2**(64 + r), with 3 <= r <= 10
    r = (-64 - e - k).astype(_U64)
    return hi >> r, (hi << (_U64(64) - r)) | (lo >> r)


def _digits(d):
    """The leading ASCII digit of each integer in [10**16, 10**17), the
    other 16 digits as rows, and how many of all 17 precede the trailing
    zeros."""
    ascii4, zeros4 = _tables()
    high = d // _E8
    low = (d - high * _E8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10**8
    high -= lead * 10**8
    # four groups of four digits; uint32 divides fastest, take wants intp
    high_4, low_4 = high // 10**4, low // 10**4
    groups = [high_4, high - high_4 * 10**4, low_4, low - low_4 * 10**4]
    groups = np.stack(groups, axis=1).astype(np.intp)
    rest = ascii4.take(groups).view(np.uint8)
    zeros = zeros4.take(groups)
    trailing = zeros[:, 3]
    for j in (2, 1, 0):
        # the zeros of group j count while every later group is zero
        trailing = np.where(trailing == 4 * (3 - j), trailing + zeros[:, j], trailing)
    return (lead + ord("0")).astype(np.uint8), rest, 17 - trailing


def _layout(code: int, lead, rest, sig, exp10):
    """The unsigned text rows of one layout, and per row the end of its
    significant characters, then the column from which the rest of the
    row (exponent and separator) is kept too."""
    n = len(lead)
    if code >= _EXP2:
        exponent = 2 if code == _EXP2 else 3
        rows = np.empty((n, 21 + exponent), dtype=np.uint8)
        rows[:, 0] = lead
        rows[:, 1] = ord(".")
        rows[:, 2:18] = rest
        rows[:, 18] = ord("e")
        rows[:, 19] = np.where(exp10 < 0, ord("-"), ord("+"))
        power = np.abs(exp10)
        for col in range(19 + exponent, 19, -1):
            rows[:, col] = power % 10 + ord("0")
            power //= 10
        return rows, np.where(sig == 1, 1, sig + 1), 18
    x = code - 4
    if x >= 0:
        # the integer digits, then "." and the others, unless X = 16
        point = x + 1
        rows = np.empty((n, 18 + (x < 16)), dtype=np.uint8)
        rows[:, 0] = lead
        rows[:, 1:point] = rest[:, :x]
        if x < 16:
            rows[:, point] = ord(".")
            rows[:, point + 1 : -1] = rest[:, x:]
        return rows, np.where(sig <= point, point, sig + 1), rows.shape[1] - 1
    # "0.", then -X - 1 zeros, then the digits
    zeros = 1 - x
    rows = np.empty((n, zeros + 18), dtype=np.uint8)
    rows[:, :zeros] = ord("0")
    rows[:, 1] = ord(".")
    rows[:, zeros] = lead
    rows[:, zeros + 1 : -1] = rest
    return rows, sig + zeros, rows.shape[1] - 1


def _chunk_rows(x, out, sep: int):
    """Write the text of each decided value of one chunk, then the
    separator byte ``sep``, into its row of ``out`` (zeros on entry), NUL
    at every dropped position; return the positions left to the scalar
    path."""
    bits = x.view(_U64)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    ok = (biased != 0) & (biased != 0x7FF)
    normal = np.flatnonzero(ok)
    if not len(normal):
        return np.flatnonzero(~ok)
    bits = bits[normal]
    e = biased[normal].astype(np.int64) - (1023 + 63)
    m = (bits << _U64(11)) | _HALF
    # the decimal exponent X of |x|, or one below it near a power of ten
    exp10 = np.floor(np.log10(np.abs(x[normal])) - 1e-9).astype(np.int64)
    whole, frac = _scaled(m, e, 16 - exp10)
    over = np.flatnonzero(whole >= _E17)
    if len(over):
        exp10[over] += 1
        whole[over], frac[over] = _scaled(m[over], e[over], 16 - exp10[over])
    d = whole + (frac >= _HALF)
    carry = d == _E17
    d[carry] = _E16
    exp10[carry] += 1
    # frac - 1/2 wraps below zero, so one unsigned compare keeps both sides
    decided = frac - (_HALF - _UNDECIDED) > _UNDECIDED * _U64(2)

    fixed = (exp10 >= -4) & (exp10 < 17)
    layout = np.where(fixed, exp10 + 4, np.where(np.abs(exp10) < 100, _EXP2, _EXP3))
    negative = (bits >> _U64(63)).astype(np.int64)
    code = (2 * layout + negative)[decided].astype(np.uint8)
    pick = np.flatnonzero(decided)[np.argsort(code, kind="stable")]
    index = normal[pick]
    lead, rest, sig = _digits(d[pick])
    exp10 = exp10[pick]
    counts = np.bincount(code, minlength=2 * _EXP3 + 2).tolist()
    lo = 0
    for signed_code, count in enumerate(counts):
        if not count:
            continue
        part = slice(lo, lo + count)
        lo += count
        rows, end, tail = _layout(signed_code >> 1, lead[part], rest[part], sig[part], exp10[part])
        rows[:, -1] = sep
        # row j of the mask keeps the columns before j, and the tail
        cols = np.arange(rows.shape[1])
        mask = (cols < np.arange(len(cols) + 1)[:, None]) | (cols >= tail)
        rows *= mask.take(end.astype(np.intp), axis=0)
        sign = signed_code & 1
        if sign:
            out[index[part], 0] = ord("-")
        out[index[part], sign : sign + rows.shape[1]] = rows
    return np.concatenate([np.flatnonzero(~ok), normal[~decided]])


def format_17g(values, sep: str = "\n") -> np.ndarray:
    """The texts ``"%.17g" % x + sep`` of a 1D array of floats, one per
    row of an (n, WIDTH) uint8 table, NUL at every other position."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.zeros((len(x), WIDTH), dtype=np.uint8)
    for start in range(0, len(x), CHUNK):
        chunk, rows = x[start : start + CHUNK], out[start : start + CHUNK]
        rest = _chunk_rows(chunk, rows, ord(sep))
        texts = ["%.17g%s" % (v, sep) for v in chunk[rest].tolist()]
        rows[rest] = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out


def csv_blocks(axes, values):
    """The CSV lines ``x,[y,...,]density`` of a grid's nodes, x varying
    fastest, as byte blocks of at most BLOCK lines each.

    ``axes`` holds the node coordinates along each axis (x first) and
    ``values`` the densities (last axis x).  Each coordinate and each
    distinct density is formatted once; densities are told apart by bit
    pattern, so a -0.0 keeps its own text beside 0.0.  A block is one
    (lines, fields, WIDTH) uint8 array gathered from those tables, and
    deleting its NULs gives its text.
    """
    fields = [format_17g(a, ",") for a in axes]
    bits, which = np.unique(values.ravel().view(np.int64), return_inverse=True)
    fields.append(format_17g(bits.view(np.float64)))
    for start in range(0, values.size, BLOCK):
        lines = np.arange(start, min(start + BLOCK, values.size))
        index = [*np.unravel_index(lines, values.shape)[::-1], which[lines]]
        block = np.empty((len(lines), len(fields), WIDTH), dtype=np.uint8)
        for k, (table, i) in enumerate(zip(fields, index)):
            table.take(i, axis=0, out=block[:, k])
        yield block.tobytes().translate(None, b"\0")

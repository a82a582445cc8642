"""Lattice enumeration in Z[sqrt2] and the eighth cyclotomic ring Z[xi].

An element a + b*sqrt2 of Z[sqrt2] is passed as an int64 coefficient row
(a, b), ``QuadRat(a, b)`` in exact form (the Q(sqrt2) arithmetic lives in
``core``).  An element of Z[xi], xi = exp(i*pi/4), is a coefficient row
(c0, c1, c2, c3); its star map sends xi to xi**3, the internal-space
embedding of the octagonal cut-and-project scheme, and `cyclo_exact` gives
its physical and star coordinates in Q(sqrt2).  The enumerators decide
every membership exactly, filtering in float64 first; only the ``weyl``
command runs them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from . import _lazy_module
from .core import SQRT2, QuadRat, _as_quadrat
from .errors import ResourceCapError

# only the float-filtered enumeration below executes numpy
np = _lazy_module("numpy")

#: default cap on the number of candidate lattice points an enumeration may visit
DEFAULT_ENUM_CAP = 20_000_000


def cyclo_exact(c0: int, c1: int, c2: int, c3: int) -> tuple[QuadRat, QuadRat, QuadRat, QuadRat]:
    """Exact coordinates of x = c0 + c1*xi + c2*xi^2 + c3*xi^3 in Z[xi],
    xi = exp(i*pi/4): re(x), im(x), re(x*) and im(x*), where the star map
    sends xi to xi^3.  With u = c1 + c3 and v = c1 - c3 they are
    c0 + v/sqrt2, c2 + u/sqrt2, c0 - v/sqrt2 and u/sqrt2 - c2."""
    u, v = c1 + c3, c1 - c3
    return (QuadRat(2 * c0, v, 2), QuadRat(2 * c2, u, 2),
            QuadRat(2 * c0, -v, 2), QuadRat(-2 * c2, u, 2))


# ---------------------------------------------------------------------------
# lattice enumeration
#
# Candidates are int64 coefficient arrays, generated and tested in chunks of
# at most _CHUNK.  Every membership test is the sign of an expression in
# Q(sqrt2), read first from a float64 evaluation: the sign is certain where
# |value| exceeds an error bound, and the few candidates inside that margin
# are decided by the exact QuadRat code (a filtered predicate after Shewchuk,
# "Adaptive precision floating-point arithmetic and fast robust geometric
# predicates", 1997).
#
# The bound.  Count as one rounding each int -> float conversion, each use of
# the float SQRT2 for sqrt(2), and each arithmetic operation.  The float of an
# exact constant (_float_pair) is at most 6 roundings deep, and every tested
# expression here and in modelsets at most 9 along any path from its exact
# inputs.  Its error is then at most gamma_9 = 9u/(1 - 9u), u = 2**-53, times
# its ``size``: the same expression evaluated on the absolute values of its
# terms (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
# section 3.1).  ``size`` is a float of the same depth, so the exact size is
# at most size * (1 + gamma_9), and 16u * size covers both.  Constants of
# magnitude outside [2**-500, 2**500] get size inf (never certain), so nothing
# overflows; a final product can still underflow, losing at most 2**-1075,
# which the absolute term 2**-1000 covers.

_FILTER_ULPS = 16 * 2.0**-53
_FILTER_TINY = 2.0**-1000
_FILTER_RANGE = (2.0**-500, 2.0**500)
# the candidate ranges come from float arithmetic with slack of about one
# unit, and coefficients must stay exact in int64 and float64
_COEFF_LIMIT = 2**50
_CHUNK = 1 << 16


def _frac(x: Union[int, float, Fraction]) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _float_pair(c) -> tuple[float, float]:
    """Float value and size of an exact constant (int, Fraction or QuadRat);
    the size is inf outside the range the filter trusts."""
    q = _as_quadrat(c)
    p, r, d = q.a, q.b, q.den
    try:
        value = (p + r * SQRT2) / d
        size = (abs(p) + abs(r) * SQRT2) / d
    except OverflowError:
        return 0.0, math.inf
    if size and not _FILTER_RANGE[0] <= size <= _FILTER_RANGE[1]:
        return 0.0, math.inf
    return value, size


def _certain_sign(value, size) -> np.ndarray:
    """+1 or -1 where the float value's sign is certain, 0 inside the margin."""
    bound = _FILTER_ULPS * size + _FILTER_TINY
    return np.where(value > bound, 1, np.where(value < -bound, -1, 0)).astype(np.int8)


def _quad_sign(a, b, c) -> np.ndarray:
    """Certain signs of a + b*sqrt2 - c for int64 arrays a, b and an exact c."""
    cv, cs = _float_pair(c)
    return _certain_sign(a + b * SQRT2 - cv, np.abs(a) + np.abs(b) * SQRT2 + cs)


def _settle(verdict, exact) -> np.ndarray:
    """Mask of kept candidates: verdict +1 keeps, -1 drops and 0 asks
    exact(i), the exact test of candidate i."""
    keep = verdict > 0
    for i in np.flatnonzero(verdict == 0).tolist():
        keep[i] = exact(i)
    return keep


def _check_coefficients(bound) -> None:
    if bound > _COEFF_LIMIT:
        raise ResourceCapError(f"enumeration reaches coefficients beyond {_COEFF_LIMIT}")


def _chunks(n_rows: int, rows_of, max_candidates: int):
    """Walk the candidates of rows 0 .. n_rows - 1, at most _CHUNK rows and
    _CHUNK candidates at a time.

    ``rows_of(rows)`` gives each row's candidate count and a tuple of
    per-row arrays; yields (offsets, those arrays per candidate), the offset
    being a candidate's index within its row.  Raises ResourceCapError once
    more than max_candidates are counted.
    """
    visited = 0
    for first in range(0, n_rows, _CHUNK):
        counts, data = rows_of(np.arange(first, min(first + _CHUNK, n_rows)))
        ends = np.cumsum(counts)
        total = int(ends[-1])
        visited += total
        if visited > max_candidates:
            raise ResourceCapError(f"enumeration exceeded {max_candidates} candidates")
        for lo in range(0, total, _CHUNK):
            k = np.arange(lo, min(lo + _CHUNK, total))
            row = np.searchsorted(ends, k, side="right")
            yield k - ends[row] + counts[row], tuple(x[row] for x in data)


def _in_range(a: int, b: int, plo, phi, slo, shi) -> bool:
    x = QuadRat(a, b)
    return plo <= x <= phi and slo <= x.star() <= shi


def enumerate_quad_range(phys_lo, phys_hi, star_lo, star_hi,
                         max_candidates: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All x in Z[sqrt2] with embed(x) in [phys_lo, phys_hi] and
    embed_star(x) in [star_lo, star_hi], as an (N, 2) int64 array of
    coefficient rows (a, b), one per element a + b*sqrt2 (``QuadRat(*row)``).
    Bounds may be int, float or Fraction and are honoured exactly.  Sorted
    by physical embedding.

    The four bound tests run on int64 arrays in float64; a sign is taken
    from floats only where the value exceeds 16 ulps of the sum of its
    absolute terms (see the bound above), and the candidates inside that
    margin are decided by exact QuadRat comparison.  Raises
    ResourceCapError when the estimated candidate count exceeds
    max_candidates or a coefficient would exceed 2**50.
    """
    phys_lo, phys_hi = _frac(phys_lo), _frac(phys_hi)
    star_lo, star_hi = _frac(star_lo), _frac(star_hi)
    if phys_lo > phys_hi or star_lo > star_hi:
        return np.empty((0, 2), dtype=np.int64)
    # exactly, before a float of the bounds can overflow
    _check_coefficients(max(map(abs, (phys_lo, phys_hi, star_lo, star_hi))))
    plo, phi = QuadRat.from_fraction(phys_lo), QuadRat.from_fraction(phys_hi)
    slo, shi = QuadRat.from_fraction(star_lo), QuadRat.from_fraction(star_hi)

    # 2a = x + x*  gives the complete integer range for a
    a_min = math.ceil(float(phys_lo + star_lo) / 2 - 1e-9)
    a_max = math.floor(float(phys_hi + star_hi) / 2 + 1e-9)
    # the b-range intersects both constraints, so the narrower one rules
    b_per_a = min(float(star_hi - star_lo), float(phys_hi - phys_lo)) / SQRT2 + 4
    if (a_max - a_min + 1) * b_per_a > max_candidates:
        raise ResourceCapError(
            f"enumeration would visit more than {max_candidates} candidates")

    f_star_lo, f_star_hi = float(star_lo), float(star_hi)
    f_phys_lo, f_phys_hi = float(phys_lo), float(phys_hi)

    def rows_of(rows):
        a = a_min + rows
        # star constraint: a - b*sqrt2 in [star_lo, star_hi]; physical
        # constraint: a + b*sqrt2 in [phys_lo, phys_hi]
        b_lo = np.maximum((a - f_star_hi) / SQRT2, (f_phys_lo - a) / SQRT2)
        b_hi = np.minimum((a - f_star_lo) / SQRT2, (f_phys_hi - a) / SQRT2)
        start = np.ceil(b_lo - 1e-6).astype(np.int64) - 1
        stop = np.floor(b_hi + 1e-6).astype(np.int64) + 1
        return np.maximum(stop - start + 1, 0), (a, start)

    found = [np.empty((0, 2), dtype=np.int64)]
    for offset, (a, start) in _chunks(a_max - a_min + 1, rows_of, max_candidates):
        b = start + offset
        verdict = np.minimum.reduce([
            _quad_sign(a, b, plo), -_quad_sign(a, b, phi),
            _quad_sign(a, -b, slo), -_quad_sign(a, -b, shi),
        ])
        keep = _settle(verdict, lambda i: _in_range(int(a[i]), int(b[i]), plo, phi, slo, shi))
        found.append(np.stack([a[keep], b[keep]], axis=1))
    rows = np.concatenate(found)
    a, b = rows.T
    return rows[np.lexsort((b, a, a + b * SQRT2))]  # (embed(), a, b), as floats go


def _in_box(row, pq: QuadRat, sq: QuadRat) -> bool:
    return all(-q <= t <= q for t, q in zip(cyclo_exact(*row), (pq, pq, sq, sq)))


def enumerate_cyclo_box(phys_bound, star_bound,
                        max_candidates: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All x in Z[xi] whose physical embedding lies in the sup-norm box
    [-phys_bound, phys_bound]^2 and whose star image lies in
    [-star_bound, star_bound]^2, as an (N, 4) int64 array of coefficient
    rows (c0, c1, c2, c3), one per element c0 + c1*xi + c2*xi^2 + c3*xi^3.
    Membership is decided exactly.

    With u = c1 + c3 and v = c1 - c3, the coordinates are
    re = c0 + v/sqrt2, im = c2 + u/sqrt2 and, for the star image,
    c0 - v/sqrt2 and u/sqrt2 - c2.  The eight box tests run on int64
    arrays in float64; a sign is taken from floats only where the value
    exceeds 16 ulps of the sum of its absolute terms, and the candidates
    inside that margin are decided by exact QuadRat comparison of those
    coordinates (``cyclo_exact``).  Sorted by physical position, then
    coefficients.  Raises ResourceCapError when the
    estimated candidate count exceeds max_candidates or a coefficient would
    exceed 2**50.
    """
    P, S = _frac(phys_bound), _frac(star_bound)
    if P < 0 or S < 0:
        return np.empty((0, 4), dtype=np.int64)
    # exactly, before a float of the bounds can overflow
    _check_coefficients(max(P, S))
    pq = QuadRat.from_fraction(P)
    sq = QuadRat.from_fraction(S)
    fP, fS = float(P), float(S)
    uv_bound = (fP + fS) / SQRT2 * 2  # |c1 +- c3| <= (P+S)*sqrt2/2, doubled for slack

    # rough candidate count before any work: a (u, v) row's c0 and c2 ranges
    # meet the physical and the star box, so each is at most 2*min(P, S) wide
    n_uv = (2 * math.floor(uv_bound) + 1) ** 2 / 2
    n_c = (2 * math.floor(min(fP, fS)) + 3) ** 2
    if n_uv * n_c > max_candidates:
        raise ResourceCapError(
            f"enumeration would visit more than {max_candidates} candidates")
    _check_coefficients(uv_bound + fP + fS)

    s = SQRT2 / 2.0
    lo = math.ceil(-uv_bound - 1e-9)
    width = math.floor(uv_bound + 1e-9) + 1 - lo

    def rows_of(rows):
        u = lo + rows // width
        v = lo + rows % width
        # re(x) = c0 + v*s, re(x*) = c0 - v*s; im(x) = c2 + u*s, im(x*) = u*s - c2
        c0_lo = np.maximum(-fP - v * s, -fS + v * s) - 0.5
        c0_hi = np.minimum(fP - v * s, fS + v * s) + 0.5
        c2_lo = np.maximum(-fP - u * s, u * s - fS) - 0.5
        c2_hi = np.minimum(fP - u * s, u * s + fS) + 0.5
        c0 = np.ceil(c0_lo - 1e-9).astype(np.int64)
        c2 = np.ceil(c2_lo - 1e-9).astype(np.int64)
        n0 = np.maximum(np.floor(c0_hi + 1e-9).astype(np.int64) + 1 - c0, 0)
        n2 = np.maximum(np.floor(c2_hi + 1e-9).astype(np.int64) + 1 - c2, 0)
        counts = np.where((u + v) % 2 == 0, n0 * n2, 0)
        return counts, (u, v, c0, c2, np.maximum(n2, 1))

    found = [np.empty((0, 4), dtype=np.int64)]
    for offset, (u, v, c0, c2, n2) in _chunks(width * width, rows_of, max_candidates):
        c0 = c0 + offset // n2
        c2 = c2 + offset % n2
        # twice each coordinate is an element 2c + w*sqrt2 of Z[sqrt2]
        signs = []
        for x2, w, bound in ((2 * c0, v, P), (2 * c2, u, P), (2 * c0, -v, S), (-2 * c2, u, S)):
            signs.append(_quad_sign(x2, w, -2 * bound))
            signs.append(-_quad_sign(x2, w, 2 * bound))
        chunk = np.stack([c0, (u + v) // 2, c2, (u - v) // 2], axis=1)
        keep = _settle(np.minimum.reduce(signs), lambda i: _in_box(chunk[i].tolist(), pq, sq))
        found.append(chunk[keep])
    rows = np.concatenate(found)
    c0, c1, c2, c3 = rows.T
    # (re(x), im(x), c0, c1, c2, c3), as floats go
    return rows[np.lexsort((c3, c2, c1, c0, c2 + (c1 + c3) * s, c0 + (c1 - c3) * s))]

"""Exact arithmetic in Z[sqrt2], its fraction field, and the eighth cyclotomic ring.

Elements of Z[sqrt2] are pairs (a, b) standing for a + b*sqrt(2); the ring
automorphism `star` sends sqrt(2) to -sqrt(2).  QuadRat is the fraction field
with an integer denominator kept in lowest terms.  CycloInt is Z[xi] with
xi = exp(i*pi/4); there `star` sends xi to xi**3, which is the internal-space
embedding used by the octagonal cut-and-project scheme.

All order comparisons are exact: the sign of a + b*sqrt(2) is decided from the
signs of a, b and the integer comparison a**2 vs 2*b**2, never from floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Union

from . import _lazy_module
from .errors import ResourceCapError

# only the float-filtered enumeration below executes numpy
np = _lazy_module("numpy")

SQRT2 = math.sqrt(2.0)

#: default cap on the number of candidate lattice points an enumeration may visit
DEFAULT_ENUM_CAP = 20_000_000


def _sign_quad(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(2)."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a**2 with 2*b**2
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else (-1 if a * a < 2 * b * b else 0)
    # a < 0, b > 0
    return -1 if a * a > 2 * b * b else (1 if a * a < 2 * b * b else 0)


@total_ordering
@dataclass(frozen=True)
class QuadInt:
    """a + b*sqrt(2) with integer a, b."""

    a: int
    b: int

    @classmethod
    def from_int(cls, x: int) -> "QuadInt":
        return cls(x, 0)

    def star(self) -> "QuadInt":
        """Galois conjugate: sqrt(2) -> -sqrt(2)."""
        return QuadInt(self.a, -self.b)

    def embed(self) -> float:
        return self.a + self.b * SQRT2

    def embed_star(self) -> float:
        return self.a - self.b * SQRT2

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b

    def sign(self) -> int:
        return _sign_quad(self.a, self.b)

    def __add__(self, other: "QuadIntLike") -> "QuadInt":
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "QuadIntLike") -> "QuadInt":
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: "QuadIntLike") -> "QuadInt":
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b)

    def __mul__(self, other: "QuadIntLike") -> "QuadInt":
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a * other.a + 2 * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuadInt":
        if n < 0:
            raise ValueError("negative powers leave Z[sqrt2]")
        out = QuadInt(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if isinstance(other, QuadInt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, QuadRat):
            return QuadRat(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        # agree with hash(int) when the element is rational
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other: object) -> bool:
        diff = _as_quadrat(other)
        if diff is NotImplemented:
            return NotImplemented
        return (QuadRat(self) - diff).sign() < 0

    def __float__(self) -> float:
        return self.embed()

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*sqrt2"


QuadIntLike = Union[QuadInt, int]


def _as_quadint(x: object):
    if isinstance(x, QuadInt):
        return x
    if isinstance(x, int):
        return QuadInt(x, 0)
    return NotImplemented


@total_ordering
@dataclass(frozen=True)
class QuadRat:
    """Element of Q(sqrt2) written num/den with den > 0 in lowest terms."""

    num: QuadInt
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if isinstance(num, int):
            num = QuadInt(num, 0)
        if den == 0:
            raise ZeroDivisionError("QuadRat with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = QuadInt(num.a // g, num.b // g)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "QuadRat":
        return cls(QuadInt(q.numerator, 0), q.denominator)

    def star(self) -> "QuadRat":
        return QuadRat(self.num.star(), self.den)

    def embed(self) -> float:
        return self.num.embed() / self.den

    def embed_star(self) -> float:
        return self.num.embed_star() / self.den

    def sign(self) -> int:
        return self.num.sign()

    def __add__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.num, self.den)

    def __mul__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.num.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # 1/(p/q) = q * conj(p) / N(p)
        return QuadRat(self.num * other.num.star() * other.den, self.den * n)

    def __rtruediv__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __abs__(self) -> "QuadRat":
        return self if self.sign() >= 0 else -self

    def __eq__(self, other: object) -> bool:
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __lt__(self, other: object) -> bool:
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __float__(self) -> float:
        return self.embed()

    def __str__(self) -> str:
        return f"({self.num})/{self.den}" if self.den != 1 else str(self.num)


QuadRatLike = Union[QuadRat, QuadInt, int, Fraction]


def _as_quadrat(x: object):
    if isinstance(x, QuadRat):
        return x
    if isinstance(x, QuadInt):
        return QuadRat(x, 1)
    if isinstance(x, int):
        return QuadRat(QuadInt(x, 0), 1)
    if isinstance(x, Fraction):
        return QuadRat(QuadInt(x.numerator, 0), x.denominator)
    return NotImplemented


# handy constants
SILVER = QuadInt(1, 1)          # 1 + sqrt2, the silver mean
SILVER_CONJ = QuadInt(1, -1)    # 1 - sqrt2 = -1/silver
HALF_SQRT2 = QuadRat(QuadInt(0, 1), 2)   # sqrt2/2 = 1/sqrt2


@dataclass(frozen=True)
class CycloInt:
    """c0 + c1*xi + c2*xi^2 + c3*xi^3 with xi = exp(i*pi/4), xi^4 = -1."""

    c0: int
    c1: int
    c2: int
    c3: int

    @classmethod
    def from_int(cls, x: int) -> "CycloInt":
        return cls(x, 0, 0, 0)

    @classmethod
    def xi_power(cls, j: int) -> "CycloInt":
        j %= 8
        sign = -1 if j >= 4 else 1
        coef = [0, 0, 0, 0]
        coef[j % 4] = sign
        return cls(*coef)

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def star(self) -> "CycloInt":
        """Galois automorphism xi -> xi^3 (the internal-space star map)."""
        return CycloInt(self.c0, self.c3, -self.c2, self.c1)

    def embed(self) -> complex:
        s = SQRT2 / 2.0
        return complex(self.c0 + (self.c1 - self.c3) * s,
                       self.c2 + (self.c1 + self.c3) * s)

    def embed_star(self) -> complex:
        return self.star().embed()

    def embed_exact(self) -> tuple[QuadRat, QuadRat]:
        """Real and imaginary parts as exact elements of Q(sqrt2)."""
        re = QuadRat(QuadInt(2 * self.c0, self.c1 - self.c3), 2)
        im = QuadRat(QuadInt(2 * self.c2, self.c1 + self.c3), 2)
        return re, im

    def __add__(self, other: "CycloInt") -> "CycloInt":
        if isinstance(other, int):
            other = CycloInt.from_int(other)
        if not isinstance(other, CycloInt):
            return NotImplemented
        return CycloInt(self.c0 + other.c0, self.c1 + other.c1,
                        self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        return self + (-other)

    def __neg__(self) -> "CycloInt":
        return CycloInt(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other: "CycloInt") -> "CycloInt":
        if isinstance(other, int):
            other = CycloInt.from_int(other)
        if not isinstance(other, CycloInt):
            return NotImplemented
        u = self.coeffs()
        v = other.coeffs()
        out = [0, 0, 0, 0]
        for i in range(4):
            if u[i] == 0:
                continue
            for j in range(4):
                k = i + j
                if k < 4:
                    out[k] += u[i] * v[j]
                else:
                    out[k - 4] -= u[i] * v[j]  # xi^4 = -1
        return CycloInt(*out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.c0}{self.c1:+d}xi{self.c2:+d}xi2{self.c3:+d}xi3"


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
    """Float value and size of an exact constant (int, Fraction, QuadInt or
    QuadRat); the size is inf outside the range the filter trusts."""
    q = _as_quadrat(c)
    p, r, d = q.num.a, q.num.b, q.den
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


def _check_coefficients(bound: float) -> None:
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


def _in_range(x: QuadInt, plo, phi, slo, shi) -> bool:
    xr = QuadRat(x)
    return plo <= xr <= phi and slo <= xr.star() <= shi


def enumerate_quad_range(phys_lo, phys_hi, star_lo, star_hi,
                         max_candidates: int = DEFAULT_ENUM_CAP) -> list[QuadInt]:
    """All x in Z[sqrt2] with embed(x) in [phys_lo, phys_hi] and
    embed_star(x) in [star_lo, star_hi].  Bounds may be int, float or
    Fraction and are honoured exactly.  Sorted by physical embedding.

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
        return []
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
    _check_coefficients(max(map(abs, (f_star_lo, f_star_hi, f_phys_lo, f_phys_hi))))

    def rows_of(rows):
        a = a_min + rows
        # star constraint: a - b*sqrt2 in [star_lo, star_hi]; physical
        # constraint: a + b*sqrt2 in [phys_lo, phys_hi]
        b_lo = np.maximum((a - f_star_hi) / SQRT2, (f_phys_lo - a) / SQRT2)
        b_hi = np.minimum((a - f_star_lo) / SQRT2, (f_phys_hi - a) / SQRT2)
        start = np.ceil(b_lo - 1e-6).astype(np.int64) - 1
        stop = np.floor(b_hi + 1e-6).astype(np.int64) + 1
        return np.maximum(stop - start + 1, 0), (a, start)

    found_a, found_b = [], []
    for offset, (a, start) in _chunks(a_max - a_min + 1, rows_of, max_candidates):
        b = start + offset
        verdict = np.minimum.reduce([
            _quad_sign(a, b, plo), -_quad_sign(a, b, phi),
            _quad_sign(a, -b, slo), -_quad_sign(a, -b, shi),
        ])
        keep = _settle(verdict, lambda i: _in_range(
            QuadInt(int(a[i]), int(b[i])), plo, phi, slo, shi))
        found_a.append(a[keep])
        found_b.append(b[keep])
    if not found_a:
        return []
    a, b = np.concatenate(found_a), np.concatenate(found_b)
    order = np.lexsort((b, a, a + b * SQRT2))  # (embed(), a, b), as floats go
    return [QuadInt(p, q) for p, q in zip(a[order].tolist(), b[order].tolist())]


def _in_box(x: CycloInt, pq: QuadRat, sq: QuadRat) -> bool:
    re, im = x.embed_exact()
    if not (-pq <= re <= pq and -pq <= im <= pq):
        return False
    sre, sim = x.star().embed_exact()
    return -sq <= sre <= sq and -sq <= sim <= sq


def enumerate_cyclo_box(phys_bound, star_bound,
                        max_candidates: int = DEFAULT_ENUM_CAP) -> list[CycloInt]:
    """All x in Z[xi] whose physical embedding lies in the sup-norm box
    [-phys_bound, phys_bound]^2 and whose star image lies in
    [-star_bound, star_bound]^2.  Membership is decided exactly.

    With u = c1 + c3 and v = c1 - c3, the coordinates are
    re = c0 + v/sqrt2, im = c2 + u/sqrt2 and, for the star image,
    c0 - v/sqrt2 and u/sqrt2 - c2.  The eight box tests run on int64
    arrays in float64; a sign is taken from floats only where the value
    exceeds 16 ulps of the sum of its absolute terms, and the candidates
    inside that margin are decided by exact QuadRat comparison.  Sorted by
    physical position, then coefficients.  Raises ResourceCapError when the
    estimated candidate count exceeds max_candidates or a coefficient would
    exceed 2**50.
    """
    P, S = _frac(phys_bound), _frac(star_bound)
    if P < 0 or S < 0:
        return []
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

    found = []
    for offset, (u, v, c0, c2, n2) in _chunks(width * width, rows_of, max_candidates):
        c0 = c0 + offset // n2
        c2 = c2 + offset % n2
        # twice each coordinate is an element 2c + w*sqrt2 of Z[sqrt2]
        signs = []
        for x2, w, bound in ((2 * c0, v, P), (2 * c2, u, P), (2 * c0, -v, S), (-2 * c2, u, S)):
            signs.append(_quad_sign(x2, w, -2 * bound))
            signs.append(-_quad_sign(x2, w, 2 * bound))
        c1, c3 = (u + v) // 2, (u - v) // 2
        keep = _settle(np.minimum.reduce(signs), lambda i: _in_box(
            CycloInt(int(c0[i]), int(c1[i]), int(c2[i]), int(c3[i])), pq, sq))
        found.append(np.stack([c0, c1, c2, c3])[:, keep])
    if not found:
        return []
    c0, c1, c2, c3 = np.concatenate(found, axis=1)
    # (embed().real, embed().imag, coeffs()), as floats go
    order = np.lexsort((c3, c2, c1, c0, c2 + (c1 + c3) * s, c0 + (c1 - c3) * s))
    return [CycloInt(*t) for t in zip(*(c[order].tolist() for c in (c0, c1, c2, c3)))]

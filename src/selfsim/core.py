"""The shared core of every system command: exact scalars, interval sets
and affine maps.

QuadRat(a, b, den) is the element (a + b*sqrt(2))/den of Q(sqrt2), kept in
lowest terms with den > 0; den = 1 gives the elements of Z[sqrt2].  The
field automorphism `star` sends sqrt(2) to -sqrt(2).  All order
comparisons are exact: the sign of a + b*sqrt(2) is decided from the signs
of a, b and the integer comparison a**2 vs 2*b**2, never from floats.

``IntervalSet`` (a finite union of closed intervals, endpoints exact or
float) is the line's compact set; the plane's, ``ConvexPolygon``, lives in
``polygons``, and both answer the same questions: ``dim``, ``measure()``,
``bbox()`` (the least coordinate per axis, then the greatest),
``linear_image`` and ``affine``.  ``AffineMap`` acts on both and exposes
its linear part as per-axis rows (1x1 on the line).  The scalar helpers
here (``_is_exact``, ``_sign_of`` and the like) treat int, Fraction and
QuadRat alike.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from math import gcd
from typing import Iterable, Union

SQRT2 = math.sqrt(2.0)
_FLOAT_MERGE_EPS = 1e-12
_FILTER_ULPS = 16 * 2.0**-53
_FILTER_TINY = 2.0**-1000


# ---------------------------------------------------------------------------
# Q(sqrt2)


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


def _embed(a: int, b: int, den: int) -> float:
    """(a + b*sqrt2)/den as a float of the same sign; OverflowError out of
    float range.  The float expression is kept beyond its error bound, the
    one the filter of ``numberfields`` uses.  Inside that band, and where it
    overflows, sqrt2 is taken to k bits: a nonzero a + b*sqrt2 has a
    nonzero integer norm, so it is at least 1/(|a| + |b|*sqrt2) in size,
    and the quotient moves by under 2**-64 of itself, within 1 ulp."""
    try:
        x = (a + b * SQRT2) / den
        # an infinite x has an infinite size, so it is never kept
        if abs(x) > _FILTER_ULPS * ((abs(a) + abs(b) * SQRT2) / den) + _FILTER_TINY:
            return x
    except OverflowError:
        pass
    k = 64 + b.bit_length() + (abs(a) + 2 * abs(b)).bit_length()
    return ((a << k) + b * math.isqrt(2 << 2 * k)) / (den << k)


@total_ordering
class QuadRat:
    """(a + b*sqrt2)/den in Q(sqrt2), with integers a, b and den > 0 in
    lowest terms; den = 1 gives the elements of Z[sqrt2].  Immutable: it
    is hashed, so assigning a field raises AttributeError."""

    __slots__ = ("a", "b", "den")

    def __init__(self, a: int, b: int = 0, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("QuadRat with zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        g = gcd(a, b, den)
        if g > 1:
            a, b, den = a // g, b // g, den // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"QuadRat(a={self.a!r}, b={self.b!r}, den={self.den!r})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as assignment is refused
        return QuadRat, (self.a, self.b, self.den)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "QuadRat":
        return cls(q.numerator, 0, q.denominator)

    def star(self) -> "QuadRat":
        """Galois conjugate: sqrt(2) -> -sqrt(2)."""
        return QuadRat(self.a, -self.b, self.den)

    def embed(self) -> float:
        return _embed(self.a, self.b, self.den)

    def embed_star(self) -> float:
        return _embed(self.a, -self.b, self.den)

    def norm(self) -> Fraction:
        """x * x.star(), a rational number."""
        return Fraction(self.a * self.a - 2 * self.b * self.b, self.den * self.den)

    def sign(self) -> int:
        return _sign_quad(self.a, self.b)

    def __add__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.den, other.den
        return QuadRat(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

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
        return QuadRat(-self.a, -self.b, self.den)

    def __mul__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadRat(a * c + 2 * b * d, a * d + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadRatLike") -> "QuadRat":
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        n = c * c - 2 * d * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # (a + b sqrt2)/(c + d sqrt2) = (a + b sqrt2)(c - d sqrt2) / (c^2 - 2 d^2)
        return QuadRat((a * c - 2 * b * d) * other.den, (b * c - a * d) * other.den,
                       self.den * n)

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
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self) -> int:
        # a rational element hashes like the equal int or Fraction
        if self.b == 0:
            return hash(Fraction(self.a, self.den))
        return hash((self.a, self.b, self.den))

    def __lt__(self, other: object) -> bool:
        other = _as_quadrat(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __float__(self) -> float:
        return self.embed()

    def __str__(self) -> str:
        text = f"{self.a}{self.b:+d}*sqrt2"
        return f"({text})/{self.den}" if self.den != 1 else text


QuadRatLike = Union[QuadRat, int, Fraction]


def _as_quadrat(x: object):
    if isinstance(x, QuadRat):
        return x
    if isinstance(x, int):
        return QuadRat(x)
    if isinstance(x, Fraction):
        return QuadRat.from_fraction(x)
    return NotImplemented


# handy constants
SILVER = QuadRat(1, 1)          # 1 + sqrt2, the silver mean
SILVER_CONJ = QuadRat(1, -1)    # 1 - sqrt2 = -1/silver
HALF_SQRT2 = QuadRat(0, 1, 2)   # sqrt2/2 = 1/sqrt2


# ---------------------------------------------------------------------------
# scalars: int, Fraction, QuadRat or float


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, QuadRat)) and not isinstance(x, bool)


def _check_finite(values, what: str) -> None:
    """Refuse an infinite or nan float among the values; exact values are
    never checked."""
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")


def _sign_of(x) -> int:
    if isinstance(x, QuadRat):
        return x.sign()
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _exact_div(num, den):
    if isinstance(num, QuadRat) or isinstance(den, QuadRat):
        return num / den
    return Fraction(num) / Fraction(den)


# ---------------------------------------------------------------------------
# intervals


class IntervalSet:
    """Finite union of closed intervals, kept sorted and disjoint.

    Intervals that touch or overlap are merged on construction; the merge
    tolerance is exactly zero when every endpoint is exact (int, Fraction,
    QuadRat) and 1e-12 once any endpoint is a float.  Degenerate
    single-point intervals are allowed.
    """

    __slots__ = ("intervals", "is_exact")
    dim = 1

    def __init__(self, intervals: Iterable[tuple]):
        pairs = [(lo, hi) for lo, hi in intervals]
        if not pairs:
            raise ValueError("IntervalSet needs at least one interval")
        exact = all(_is_exact(lo) and _is_exact(hi) for lo, hi in pairs)
        if not exact:
            pairs = [(float(lo), float(hi)) for lo, hi in pairs]
            _check_finite(itertools.chain(*pairs), "an interval endpoint")
        for lo, hi in pairs:
            if _sign_of(hi - lo) < 0:
                raise ValueError(f"interval with lo > hi: ({lo}, {hi})")
        eps = 0 if exact else _FLOAT_MERGE_EPS
        pairs.sort(key=cmp_to_key(
            lambda p, q: _sign_of(p[0] - q[0]) or _sign_of(p[1] - q[1])
        ))
        merged = [pairs[0]]
        for lo, hi in pairs[1:]:
            cur_lo, cur_hi = merged[-1]
            if _sign_of(lo - cur_hi - eps) <= 0:
                if _sign_of(hi - cur_hi) > 0:
                    merged[-1] = (cur_lo, hi)
            else:
                merged.append((lo, hi))
        self.intervals = tuple(merged)
        self.is_exact = exact

    @classmethod
    def point(cls, x) -> "IntervalSet":
        return cls([(x, x)])

    @classmethod
    def closed(cls, lo, hi) -> "IntervalSet":
        return cls([(lo, hi)])

    @property
    def lo(self):
        return self.intervals[0][0]

    @property
    def hi(self):
        return self.intervals[-1][1]

    def bbox(self) -> tuple:
        return (self.lo, self.hi)

    def measure(self):
        total = self.intervals[0][1] - self.intervals[0][0]
        for lo, hi in self.intervals[1:]:
            total = total + (hi - lo)
        return total

    def contains(self, x, eps=0) -> bool:
        return any(
            _sign_of(x - lo + eps) >= 0 and _sign_of(hi - x + eps) >= 0
            for lo, hi in self.intervals
        )

    def translate(self, t) -> "IntervalSet":
        if self.is_exact and _is_exact(t):
            return IntervalSet([(lo + t, hi + t) for lo, hi in self.intervals])
        tf = float(t)
        return IntervalSet(
            [(float(lo) + tf, float(hi) + tf) for lo, hi in self.intervals]
        )

    def linear_image(self, a) -> "IntervalSet":
        if not (self.is_exact and _is_exact(a)):
            a = float(a)
            pairs = [(a * float(lo), a * float(hi)) for lo, hi in self.intervals]
        else:
            pairs = [(a * lo, a * hi) for lo, hi in self.intervals]
        if _sign_of(a) >= 0:
            return IntervalSet(pairs)
        return IntervalSet([(hi, lo) for lo, hi in pairs])

    def affine(self, a, t) -> "IntervalSet":
        return self.linear_image(a).translate(t)

    def minkowski(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(
            [
                (lo1 + lo2, hi1 + hi2)
                for lo1, hi1 in self.intervals
                for lo2, hi2 in other.intervals
            ]
        )

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self.intervals) + list(other.intervals))

    def as_float(self) -> "IntervalSet":
        return IntervalSet([(float(lo), float(hi)) for lo, hi in self.intervals])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        if len(self.intervals) != len(other.intervals):
            return False
        return all(
            _sign_of(a[0] - b[0]) == 0 and _sign_of(a[1] - b[1]) == 0
            for a, b in zip(self.intervals, other.intervals)
        )

    def __hash__(self):
        return hash(tuple((float(lo), float(hi)) for lo, hi in self.intervals))

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.intervals)
        return f"IntervalSet({parts})"


# ---------------------------------------------------------------------------
# affine maps


class AffineMap:
    """x |-> a x + t with scalar a (1D) or a 2x2 matrix a (2D)."""

    __slots__ = ("a", "t")

    def __init__(self, a, t) -> None:
        self.a, self.t = a, t
        _check_finite(itertools.chain(*self.rows, self.translation), "an affine map entry")

    @classmethod
    def linear(cls, a) -> "AffineMap":
        """The map x |-> a x, with a zero translation of the right shape."""
        return cls(a, (0,) * len(a) if isinstance(a, (tuple, list)) else 0)

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.a, (tuple, list)) else 1

    @property
    def rows(self) -> tuple:
        """The linear part as per-axis rows, x first (1x1 on the line)."""
        return tuple(map(tuple, self.a)) if self.dim == 2 else ((self.a,),)

    @property
    def translation(self) -> tuple:
        """The translation per axis, x first."""
        return tuple(self.t) if self.dim == 2 else (self.t,)

    @property
    def factor(self) -> float:
        """Lipschitz constant in the sup norm."""
        return max(sum(abs(float(v)) for v in row) for row in self.rows)

    def determinant(self):
        if self.dim == 1:
            return self.a
        (a, b), (c, d) = self.a
        return a * d - b * c

    @property
    def modulus(self):
        """Inverse of |det|; the volume inflation of the inverse map."""
        det = self.determinant()
        if _sign_of(det) == 0:
            raise ValueError("singular linear part has no modulus")
        inv = 1 / float(det) if not _is_exact(det) else _exact_div(1, det)
        return abs(inv)

    def __call__(self, x):
        if self.dim == 1:
            return self.a * x + self.t
        (a, b), (c, d) = self.a
        return (a * x[0] + b * x[1] + self.t[0], c * x[0] + d * x[1] + self.t[1])

    def as_float(self) -> "AffineMap":
        return AffineMap(_floats(self.a), _floats(self.t))

    def is_exact(self) -> bool:
        return all(map(_is_exact, itertools.chain(*self.rows, self.translation)))


def _floats(x):
    """A scalar, or nested tuples of scalars, converted to floats."""
    return tuple(map(_floats, x)) if isinstance(x, (tuple, list)) else float(x)


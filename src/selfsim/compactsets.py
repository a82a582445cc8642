"""Compact subsets of R and R^2, Hausdorff distance, and IFS attractors.

Two concrete representations are provided: ``IntervalSet`` (a finite union
of closed intervals, endpoints exact or float) and ``ConvexPolygon`` (a
convex region with exact or float vertices; plane sets that are not convex
are handled as tuples of convex parts).  Both answer the same questions:
``dim``, ``measure()``, ``bbox()`` (the least coordinate per axis, then
the greatest), ``linear_image`` and ``affine``.  Affine maps act on both and
expose their linear part as per-axis rows (1x1 on the line); a
translation-family map realizes a whole compact family of translates at
once via a Minkowski sum, and ``iterate_attractor`` drives the union map
of an ``IFSSystem`` to its fixed point, stopping on the Hausdorff
distance between iterates (exact for intervals and for single convex
polygons, a vertex-based lower bound for unions of polygons).
``verify_exact_fixed_point`` re-checks a candidate attractor in exact
arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence, Union

from .errors import ConvergenceError, ResourceCapError
from .numberfields import QuadRat

_FLOAT_MERGE_EPS = 1e-12

ExactScalar = Union[int, Fraction, QuadRat]
Scalar = Union[ExactScalar, float]


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
# convex polygons


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _vec_cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


class ConvexPolygon:
    """Convex region given by its vertices, stored counterclockwise.

    Vertex coordinates may be exact (int, Fraction or QuadRat) or floats; every
    operation stays in the coordinate ring of its inputs.  The vertex list
    is canonicalized (CCW, collinear vertices dropped, started at the
    lexicographically smallest vertex) so equal regions compare equal.
    A single-vertex polygon stands for a point.
    """

    __slots__ = ("vertices", "is_exact")
    dim = 2

    def __init__(self, vertices: Iterable[tuple]):
        verts = [tuple(v) for v in vertices]
        if not verts:
            raise ValueError("ConvexPolygon needs at least one vertex")
        exact = all(_is_exact(x) and _is_exact(y) for x, y in verts)
        if not exact:
            verts = [(float(x), float(y)) for x, y in verts]
            _check_finite(itertools.chain(*verts), "a polygon vertex")
        # drop consecutive duplicates (cyclically)
        deduped = []
        for v in verts:
            if not deduped or not _points_equal(deduped[-1], v):
                deduped.append(v)
        if len(deduped) > 1 and _points_equal(deduped[0], deduped[-1]):
            deduped.pop()
        verts = deduped
        if len(verts) == 1:
            self.vertices = (verts[0],)
            self.is_exact = exact
            return
        if len(verts) == 2:
            raise ValueError("degenerate two-vertex polygon (segment) unsupported")
        if _sign_of(_twice_signed_area(verts)) < 0:
            verts.reverse()
        # drop collinear vertices
        kept = []
        n = len(verts)
        for k in range(n):
            prev, cur, nxt = verts[k - 1], verts[k], verts[(k + 1) % n]
            if _sign_of(_cross(prev, cur, nxt)) != 0:
                kept.append(cur)
        if len(kept) < 3:
            raise ValueError("polygon has no area; use a single vertex for points")
        n = len(kept)
        for k in range(n):
            if _sign_of(_cross(kept[k - 1], kept[k], kept[(k + 1) % n])) < 0:
                raise ValueError("vertices do not bound a convex polygon")
        start = min(
            range(n),
            key=cmp_to_key(
                lambda i, j: _sign_of(kept[i][0] - kept[j][0])
                or _sign_of(kept[i][1] - kept[j][1])
            ),
        )
        self.vertices = tuple(kept[start:] + kept[:start])
        self.is_exact = exact

    @classmethod
    def point(cls, x, y) -> "ConvexPolygon":
        return cls([(x, y)])

    def measure(self):
        if len(self.vertices) == 1:
            return 0
        doubled = _twice_signed_area(list(self.vertices))
        return doubled / 2 if not _is_exact(doubled) else _halve_exact(doubled)

    def contains(self, point, eps=0) -> bool:
        if len(self.vertices) == 1:
            v = self.vertices[0]
            return abs(float(point[0]) - float(v[0])) <= eps and abs(
                float(point[1]) - float(v[1])
            ) <= eps
        n = len(self.vertices)
        for k in range(n):
            c = _cross(self.vertices[k], self.vertices[(k + 1) % n], point)
            if _sign_of(c + eps) < 0:
                return False
        return True

    def translate(self, v) -> "ConvexPolygon":
        verts = self.vertices
        if not (self.is_exact and _is_exact(v[0]) and _is_exact(v[1])):
            v = (float(v[0]), float(v[1]))
            verts = [(float(x), float(y)) for x, y in verts]
        return ConvexPolygon([(x + v[0], y + v[1]) for x, y in verts])

    def linear_image(self, matrix) -> "ConvexPolygon":
        return self.affine(matrix, (0, 0))

    def affine(self, matrix, v) -> "ConvexPolygon":
        (a, b), (c, d) = matrix
        verts = self.vertices
        if not (self.is_exact and all(_is_exact(p) for p in (a, b, c, d, *v))):
            a, b, c, d = float(a), float(b), float(c), float(d)
            v = (float(v[0]), float(v[1]))
            verts = [(float(x), float(y)) for x, y in verts]
        return ConvexPolygon(
            [(a * x + b * y + v[0], c * x + d * y + v[1]) for x, y in verts]
        )

    def support(self, direction):
        """Support function: max of <vertex, direction> over the polygon."""
        best = None
        for x, y in self.vertices:
            val = x * direction[0] + y * direction[1]
            if best is None or _sign_of(val - best) > 0:
                best = val
        return best

    def minkowski(self, other: "ConvexPolygon") -> "ConvexPolygon":
        if len(other.vertices) == 1:
            return self.translate(other.vertices[0])
        if len(self.vertices) == 1:
            return other.translate(self.vertices[0])
        p = _rotate_to_lowest(list(self.vertices))
        q = _rotate_to_lowest(list(other.vertices))
        n, m = len(p), len(q)
        out = []
        i = j = 0
        while i < n or j < m:
            pi, qj = p[i % n], q[j % m]
            out.append((pi[0] + qj[0], pi[1] + qj[1]))
            if i >= n:
                j += 1
            elif j >= m:
                i += 1
            else:
                ep = _edge(p, i)
                eq = _edge(q, j)
                s = _sign_of(_vec_cross(ep, eq))
                if s >= 0:
                    i += 1
                if s <= 0:
                    j += 1
        return ConvexPolygon(out)

    def erode(self, other: "ConvexPolygon"):
        """Points x with x + other contained in self; None when empty.

        Computed as the intersection of the translates self - v over the
        vertices v of ``other``, which is exact for convex polygons.  A
        result that collapses to a single point is returned as a point
        polygon; a result that is a segment (measure zero, no interior)
        is reported as None like the empty set.
        """
        pts = None
        for vx, vy in other.vertices:
            shifted = [(x - vx, y - vy) for x, y in self.vertices]
            if pts is None:
                pts = shifted
            else:
                pts = _clip_points(pts, shifted)
            if not pts:
                return None
        return _classify_region(pts)

    def bbox(self) -> tuple:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def as_float(self) -> "ConvexPolygon":
        return ConvexPolygon([(float(x), float(y)) for x, y in self.vertices])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        if len(self.vertices) != len(other.vertices):
            return False
        return all(_points_equal(a, b) for a, b in zip(self.vertices, other.vertices))

    def __hash__(self):
        return hash(tuple((float(x), float(y)) for x, y in self.vertices))

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self.vertices)!r})"


def _points_equal(a, b) -> bool:
    return _sign_of(a[0] - b[0]) == 0 and _sign_of(a[1] - b[1]) == 0


def _twice_signed_area(verts: list):
    total = None
    n = len(verts)
    for k in range(n):
        x0, y0 = verts[k]
        x1, y1 = verts[(k + 1) % n]
        term = x0 * y1 - x1 * y0
        total = term if total is None else total + term
    return total


def _halve_exact(x):
    return Fraction(x, 2) if isinstance(x, int) else x / 2


def _rotate_to_lowest(verts: list) -> list:
    start = min(
        range(len(verts)),
        key=cmp_to_key(
            lambda i, j: _sign_of(verts[i][1] - verts[j][1])
            or _sign_of(verts[i][0] - verts[j][0])
        ),
    )
    return verts[start:] + verts[:start]


def _edge(verts: list, k: int) -> tuple:
    n = len(verts)
    a, b = verts[k % n], verts[(k + 1) % n]
    return (b[0] - a[0], b[1] - a[1])


def _clip_points(pts: list, clipper_verts: list) -> list:
    """Sutherland-Hodgman clip of a (possibly degenerate) convex point list
    against a proper CCW convex polygon; returns the surviving point list."""
    n = len(clipper_verts)
    for k in range(n):
        a, b = clipper_verts[k], clipper_verts[(k + 1) % n]
        kept = []
        m = len(pts)
        for t in range(m):
            cur, nxt = pts[t], pts[(t + 1) % m]
            side_cur = _sign_of(_cross(a, b, cur))
            side_nxt = _sign_of(_cross(a, b, nxt))
            if side_cur >= 0:
                kept.append(cur)
            if side_cur * side_nxt < 0:
                kept.append(_line_intersection(a, b, cur, nxt))
        deduped = []
        for p in kept:
            if not any(_points_equal(p, q) for q in deduped):
                deduped.append(p)
        pts = deduped
        if not pts:
            return []
    return pts


def _classify_region(pts: list):
    uniq = []
    for p in pts:
        if not any(_points_equal(p, q) for q in uniq):
            uniq.append(p)
    if not uniq:
        return None
    if len(uniq) == 1:
        return ConvexPolygon([uniq[0]])
    try:
        return ConvexPolygon(uniq)
    except ValueError:
        return None  # collapsed to a segment: measure zero


def _line_intersection(a, b, p, q):
    # point of segment pq on the line through ab (caller guarantees crossing)
    d1 = _cross(a, b, p)
    d2 = _cross(a, b, q)
    denom = d1 - d2
    t = d1 / denom if not _is_exact(denom) else _exact_div(d1, denom)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _exact_div(num, den):
    if isinstance(num, QuadRat) or isinstance(den, QuadRat):
        return num / den
    return Fraction(num) / Fraction(den)


# ---------------------------------------------------------------------------
# affine maps


@dataclass(frozen=True)
class AffineMap:
    """x |-> a x + t with scalar a (1D) or a 2x2 matrix a (2D)."""

    a: object
    t: object

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class TranslationFamilyMap:
    """The union map of a compact family of translates of one linear part.

    Applying it to S yields the union of a S + u over u in ``family``,
    realized as the Minkowski sum (a S) + family.  ``family`` is an
    IntervalSet in 1D or a ConvexPolygon in 2D.
    """

    a: object
    family: object

    @property
    def factor(self) -> float:
        return AffineMap.linear(self.a).factor

    def as_float(self) -> "TranslationFamilyMap":
        return TranslationFamilyMap(_floats(self.a), self.family.as_float())

    def is_exact(self) -> bool:
        return AffineMap.linear(self.a).is_exact() and self.family.is_exact


MapLike = Union[AffineMap, TranslationFamilyMap]
CompactSet = Union[IntervalSet, ConvexPolygon, tuple]


def apply_affine(f: MapLike, S: CompactSet) -> CompactSet:
    """Image of a compact set under an affine or translation-family map."""
    if isinstance(S, (tuple, list)):
        parts = [apply_affine(f, part) for part in S]
        return tuple(itertools.chain.from_iterable(
            p if isinstance(p, tuple) else (p,) for p in parts
        ))
    if isinstance(f, TranslationFamilyMap):
        return S.linear_image(f.a).minkowski(f.family)
    return S.affine(f.a, f.t)


# ---------------------------------------------------------------------------
# Hausdorff distance


def _directed_1d(upairs, vpairs) -> float:
    """sup over x in U of d(x, V), for sorted disjoint (lo, hi) lists that
    may touch once rounded to floats.

    The distance from x to V is that to the first interval holding x, or
    else to the nearer of the last interval with lo <= x and the next one,
    so two bisections find it.  Rounded subtraction is monotone, so this
    is bit for bit the minimum over every interval, ties to the first.
    """
    ulos, uhis = [lo for lo, _ in upairs], [hi for _, hi in upairs]
    vlos, vhis = [lo for lo, _ in vpairs], [hi for _, hi in vpairs]

    def dist(x):
        j = bisect.bisect_right(vlos, x)  # V's intervals from j on lie right of x
        k = bisect.bisect_left(vhis, x)  # and those before k left of it
        near = vpairs[k : k + 1] if k < j else vpairs[max(j - 1, 0) : j + 1]
        return min(max(lo - x, x - hi, 0.0) for lo, hi in near)

    candidates = [x for pair in upairs for x in pair]
    # d(., V) peaks inside gaps of V; clamp those peaks into U
    for k in range(len(vpairs) - 1):
        mid = 0.5 * (vpairs[k][1] + vpairs[k + 1][0])
        i = bisect.bisect_right(ulos, mid)
        if i and mid <= uhis[i - 1]:
            candidates.append(mid)
    return max(map(dist, candidates))


def _dist_point_segment(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return ((px - ax) ** 2 + (py - ay) ** 2) ** 0.5
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    t = min(1.0, max(0.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5


def _dist_point_polygon(p, poly: ConvexPolygon) -> float:
    verts = poly.vertices
    if len(verts) == 1:
        return _dist_point_segment(p, verts[0], verts[0])
    if poly.contains(p, eps=0.0):
        return 0.0
    n = len(verts)
    return min(
        _dist_point_segment(p, verts[k], verts[(k + 1) % n]) for k in range(n)
    )


def _as_parts(S) -> tuple:
    if isinstance(S, ConvexPolygon):
        return (S,)
    return tuple(S)


def hausdorff_distance(U: CompactSet, V: CompactSet) -> float:
    """Hausdorff distance between two nonempty compact sets of equal dimension.

    1D unions of intervals are resolved through their endpoints and gap
    midpoints (where the distance-to-set function peaks), so the result is
    exact up to float rounding.  2D sets are compared through the vertices
    of their convex parts.  The distance to a convex set is a convex
    function, so over a convex polygon it peaks at a vertex (Schneider,
    *Convex Bodies*, 1.8): for two convex polygons the result is exact up
    to float rounding.  For unions of parts it is a lower bound, because
    the distance to a union is not convex and can peak away from the
    vertices.
    """
    if isinstance(U, IntervalSet) != isinstance(V, IntervalSet):
        raise TypeError("cannot mix 1D and 2D compact sets")
    if isinstance(U, IntervalSet):
        up = [(float(lo), float(hi)) for lo, hi in U.intervals]
        vp = [(float(lo), float(hi)) for lo, hi in V.intervals]
        return max(_directed_1d(up, vp), _directed_1d(vp, up))
    uparts = [p.as_float() for p in _as_parts(U)]
    vparts = [p.as_float() for p in _as_parts(V)]
    if not uparts or not vparts:
        raise ValueError("empty compact set")

    def directed(parts_a, parts_b):
        return max(
            min(_dist_point_polygon(p, q) for q in parts_b)
            for part in parts_a
            for p in part.vertices
        )

    return max(directed(uparts, vparts), directed(vparts, uparts))


# ---------------------------------------------------------------------------
# IFS systems and attractor iteration


class IFSSystem:
    """Square grid of map families: maps[i][j] send component j into i."""

    def __init__(self, maps: Sequence[Sequence[Sequence[MapLike]]]):
        self.maps = tuple(tuple(tuple(cell) for cell in row) for row in maps)
        self.n = len(self.maps)
        if self.n == 0:
            raise ValueError("empty system")
        for i, row in enumerate(self.maps):
            if len(row) != self.n:
                raise ValueError("maps must form an n x n grid")
            if not any(cell for cell in row):
                raise ValueError(f"component {i} has no incoming maps")
        factors = [f.factor for row in self.maps for cell in row for f in cell]
        self.contraction_bound = max(factors)
        if self.contraction_bound >= 1.0:
            raise ValueError(
                f"not a contraction system (factor {self.contraction_bound})"
            )

    @classmethod
    def single(cls, maps: Sequence[MapLike]) -> "IFSSystem":
        return cls([[list(maps)]])

    def as_float(self) -> "IFSSystem":
        return IFSSystem(
            [[[f.as_float() for f in cell] for cell in row] for row in self.maps]
        )

    def component_image(self, i: int, sets: Sequence[CompactSet]) -> CompactSet:
        pieces = []
        for j in range(self.n):
            for f in self.maps[i][j]:
                pieces.append(apply_affine(f, sets[j]))
        first = pieces[0]
        if isinstance(first, IntervalSet):
            out = first
            for piece in pieces[1:]:
                out = out.union(piece)
            return out
        flat = []
        for piece in pieces:
            flat.extend(_as_parts(piece))
        return flat[0] if len(flat) == 1 else tuple(flat)


def _normalize_seeds(system: IFSSystem, seeds) -> list:
    if isinstance(seeds, (IntervalSet, ConvexPolygon)):
        seeds = [seeds]
    seeds = list(seeds)
    if len(seeds) != system.n:
        raise ValueError(f"expected {system.n} seed sets, got {len(seeds)}")
    return seeds


def _piece_count(S) -> int:
    if isinstance(S, IntervalSet):
        return len(S.intervals)
    return len(_as_parts(S))


def iterate_attractor(
    system: IFSSystem,
    seeds,
    tol: float,
    max_iter: int = 200,
    max_pieces: int = 100_000,
    on_iterate=None,
):
    """Iterate the union map from the seeds until it moves less than tol.

    Returns (per-component sets, iterations used, final delta).  All
    arithmetic is done in floats; use verify_exact_fixed_point for an
    exact certificate.  Raises ConvergenceError carrying the last delta
    when max_iter is exhausted.  ``on_iterate(k, sets, delta)``, when
    given, is called after every step (used for convergence logs).

    Iterates are stored exactly as finite unions, so seeds whose images
    overlap (a hull interval works well) keep the representation small;
    scattered seeds can fragment into exponentially many pieces, which is
    caught by the ``max_pieces`` cap.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sysf = system.as_float()
    current = [
        s.as_float() if isinstance(s, (IntervalSet, ConvexPolygon))
        else tuple(p.as_float() for p in s)
        for s in _normalize_seeds(system, seeds)
    ]
    delta = None
    for k in range(1, max_iter + 1):
        new = [sysf.component_image(i, current) for i in range(sysf.n)]
        if sum(_piece_count(s) for s in new) > max_pieces:
            raise ResourceCapError(
                f"iterate fragmented past {max_pieces} pieces at step {k}; "
                "use a connected seed such as the hull"
            )
        delta = max(hausdorff_distance(a, b) for a, b in zip(new, current))
        current = new
        if on_iterate is not None:
            on_iterate(k, tuple(current), delta)
        if delta < tol:
            return tuple(current), k, delta
    raise ConvergenceError(
        f"attractor iteration did not reach tol={tol} in {max_iter} steps",
        last_delta=delta,
        metric="Hausdorff distance",
    )


@dataclass(frozen=True)
class FixedPointCheck:
    """Outcome of an exact fixed-point verification."""

    ok: bool
    mismatches: tuple

    def __bool__(self) -> bool:
        return self.ok


def verify_exact_fixed_point(system: IFSSystem, candidate) -> FixedPointCheck:
    """Decide in exact arithmetic whether candidate is the system's attractor.

    Every map parameter and every candidate endpoint or vertex must be
    exact; the verdict compares each component with the union of its
    images with a merge tolerance of exactly zero.  A plane component is
    one convex polygon, so an image of several polygon parts fails.
    """
    sets = _normalize_seeds(system, candidate)
    for s in sets:
        if not isinstance(s, (IntervalSet, ConvexPolygon)) or not s.is_exact:
            raise ValueError("candidate sets must be exact IntervalSets or ConvexPolygons")
    for row in system.maps:
        for cell in row:
            for f in cell:
                if not f.is_exact():
                    raise ValueError("system maps must have exact parameters")
    mismatches = []
    for i in range(system.n):
        image = system.component_image(i, sets)
        if image != sets[i]:
            mismatches.append(
                f"component {i}: candidate {sets[i]!r} but union of images {image!r}"
            )
    return FixedPointCheck(ok=not mismatches, mismatches=tuple(mismatches))

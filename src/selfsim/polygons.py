"""Convex polygons: the plane's compact sets, with exact or float vertices.

``ConvexPolygon`` answers the questions ``IntervalSet`` answers on the
line (``dim``, ``measure()``, ``bbox()``, ``linear_image``, ``affine``),
plus Minkowski sums and erosion, by exact Sutherland-Hodgman clipping.
Plane sets that are not convex are handled as tuples of convex parts.
Only planar systems execute this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable

from .core import _check_finite, _exact_div, _is_exact, _sign_of


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
            return all(_sign_of(x - v + eps) >= 0 and _sign_of(v - x + eps) >= 0
                       for x, v in zip(point, self.vertices[0]))
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


"""The attractor engine: IFS systems, their iteration and Hausdorff metrics.

A compact set is one ``IntervalSet`` (``core``) on the line and one
``ConvexPolygon`` (``polygons``) in the plane, where each component has
one incoming map.  A translation-family map realizes a compact family
of translates at once via a Minkowski sum, and ``iterate_attractor``
drives the union map of an ``IFSSystem`` to its fixed point, stopping on
the Hausdorff distance between iterates, exact up to float rounding.
``verify_exact_fixed_point`` re-checks a candidate attractor in exact
arithmetic.  An interval set is always tested first, so no 1D run
executes ``polygons``.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from . import _lazy_module
from .core import AffineMap, IntervalSet, _floats
from .errors import ConvergenceError, ResourceCapError

# the plane's sets, executed by planar systems alone
polygons = _lazy_module("selfsim.polygons")


# ---------------------------------------------------------------------------
# translation-family maps


class TranslationFamilyMap:
    """The union map of a compact family of translates of one linear part.

    Applying it to S yields the union of a S + u over u in ``family``,
    realized as the Minkowski sum (a S) + family.  ``family`` is an
    IntervalSet in 1D or a ConvexPolygon in 2D.
    """

    __slots__ = ("a", "family")

    def __init__(self, a, family) -> None:
        self.a, self.family = a, family

    @property
    def factor(self) -> float:
        return AffineMap.linear(self.a).factor

    def as_float(self) -> "TranslationFamilyMap":
        return TranslationFamilyMap(_floats(self.a), self.family.as_float())

    def is_exact(self) -> bool:
        return AffineMap.linear(self.a).is_exact() and self.family.is_exact


def apply_affine(f, S):
    """Image of a compact set (an ``IntervalSet`` or a ``ConvexPolygon``)
    under an ``AffineMap`` or a ``TranslationFamilyMap``."""
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


def _dist_point_polygon(p, poly) -> float:
    if poly.contains(p, eps=0.0):
        return 0.0
    verts, n = poly.vertices, len(poly.vertices)
    return min(_dist_point_segment(p, verts[k], verts[(k + 1) % n]) for k in range(n))


def hausdorff_distance(U, V) -> float:
    """Hausdorff distance between two IntervalSets or two ConvexPolygons.

    1D unions of intervals are resolved through their endpoints and gap
    midpoints (where the distance-to-set function peaks).  In the plane
    the distance to a convex set is a convex function, so over a convex
    polygon it peaks at a vertex (Schneider, *Convex Bodies*, 1.8): each
    direction is the largest distance from a vertex of one polygon to the
    other.  Both are exact up to float rounding.
    """
    if isinstance(U, IntervalSet) and isinstance(V, IntervalSet):
        up = [(float(lo), float(hi)) for lo, hi in U.intervals]
        vp = [(float(lo), float(hi)) for lo, hi in V.intervals]
        return max(_directed_1d(up, vp), _directed_1d(vp, up))
    if not (isinstance(U, polygons.ConvexPolygon) and isinstance(V, polygons.ConvexPolygon)):
        raise TypeError("hausdorff_distance compares two IntervalSets or two ConvexPolygons, "
                        f"not a {type(U).__name__} with a {type(V).__name__}")
    u, v = U.as_float(), V.as_float()
    return max(
        max(_dist_point_polygon(p, v) for p in u.vertices),
        max(_dist_point_polygon(p, u) for p in v.vertices),
    )


# ---------------------------------------------------------------------------
# IFS systems and attractor iteration


class IFSSystem:
    """Square grid of map families: maps[i][j] send component j into i."""

    def __init__(self, maps: Sequence[Sequence[Sequence]]):
        self.maps = tuple(tuple(tuple(cell) for cell in row) for row in maps)
        self.n = len(self.maps)
        if self.n == 0:
            raise ValueError("empty system")
        for i, row in enumerate(self.maps):
            if len(row) != self.n:
                raise ValueError("maps must form an n x n grid")
            incoming = [f for cell in row for f in cell]
            if not incoming:
                raise ValueError(f"component {i} has no incoming maps")
            if len(incoming) > 1 and any(AffineMap.linear(f.a).dim == 2 for f in incoming):
                raise ValueError(f"plane component {i} has {len(incoming)} incoming maps; a plane "
                                 "compact set is one convex polygon, so it takes one")
        factors = [f.factor for row in self.maps for cell in row for f in cell]
        self.contraction_bound = max(factors)
        if self.contraction_bound >= 1.0:
            raise ValueError(
                f"not a contraction system (factor {self.contraction_bound})"
            )

    @classmethod
    def single(cls, maps: Sequence) -> "IFSSystem":
        return cls([[list(maps)]])

    def as_float(self) -> "IFSSystem":
        return IFSSystem(
            [[[f.as_float() for f in cell] for cell in row] for row in self.maps]
        )

    def component_image(self, i: int, sets: Sequence):
        """The union of component ``i``'s images; a plane component has one."""
        pieces = [apply_affine(f, sets[j]) for j in range(self.n) for f in self.maps[i][j]]
        out = pieces[0]
        for piece in pieces[1:]:
            out = out.union(piece)
        return out


def _normalize_seeds(system: IFSSystem, seeds) -> list:
    # a tuple or list holds one set per component; anything else is one set
    seeds = list(seeds) if isinstance(seeds, (tuple, list)) else [seeds]
    if len(seeds) != system.n:
        raise ValueError(f"expected {system.n} seed sets, got {len(seeds)}")
    return seeds


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

    A line iterate is a finite union of intervals: seeds whose images
    overlap (a hull interval works well) keep it small, while scattered
    seeds can fragment it into exponentially many, caught by the
    ``max_pieces`` cap.  A plane iterate is one convex polygon.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sysf = system.as_float()
    current = [s.as_float() for s in _normalize_seeds(system, seeds)]
    delta = None
    for k in range(1, max_iter + 1):
        new = [sysf.component_image(i, current) for i in range(sysf.n)]
        if sum(len(s.intervals) if isinstance(s, IntervalSet) else 1 for s in new) > max_pieces:
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


class FixedPointCheck:
    """Outcome of an exact fixed-point verification."""

    __slots__ = ("ok", "mismatches")

    def __init__(self, ok: bool, mismatches: tuple) -> None:
        self.ok, self.mismatches = ok, mismatches

    def __bool__(self) -> bool:
        return self.ok


def verify_exact_fixed_point(system: IFSSystem, candidate) -> FixedPointCheck:
    """Decide in exact arithmetic whether candidate is the system's attractor.

    Every map parameter and every candidate endpoint or vertex must be
    exact; the verdict compares each component with the union of its
    images with a merge tolerance of exactly zero.
    """
    sets = _normalize_seeds(system, candidate)
    for s in sets:
        if getattr(s, "is_exact", None) is not True:
            raise ValueError("candidate sets must be exact IntervalSets or ConvexPolygons")
    if not all(f.is_exact() for row in system.maps for cell in row for f in cell):
        raise ValueError("system maps must have exact parameters")
    mismatches = []
    for i in range(system.n):
        image = system.component_image(i, sets)
        if image != sets[i]:
            mismatches.append(
                f"component {i}: candidate {sets[i]!r} but union of images {image!r}"
            )
    return FixedPointCheck(ok=not mismatches, mismatches=tuple(mismatches))

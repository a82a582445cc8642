"""Cut-and-project schemes and the point sets they generate.

A scheme embeds a ring of algebraic integers as a lattice in physical x
internal space; a model set collects the ring elements whose star image
falls in a compact window.  Substitution tilings (``substitutions``)
provide an independent route to the same point sets, and
``crosscheck_modelset`` compares the two.  The Weyl harness averages an
internal-space density over enumerated patches and compares against the
volume-theoretic limit.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _lazy_module, numberfields
from .core import IntervalSet, QuadRat
from .grids import GridDensity, _axes, _point
from .numberfields import _disk_signs, _form_signs, _linear_forms
from .numberfields import enumerate_cyclo_box, enumerate_quad_range

# the octagonal scheme's window, executed by planar systems alone
polygons = _lazy_module("selfsim.polygons")


def gram_covolume(rows) -> float:
    """Volume of the fundamental domain spanned by the given embedded
    basis rows, via the Gram determinant."""
    rows = np.asarray(rows, dtype=float)
    vol = math.sqrt(abs(np.linalg.det(rows @ rows.T)))
    if vol <= 0:
        raise ValueError("embedded basis is degenerate")
    return vol


class CutProjectScheme:
    """Ring embedded on both sides, declared by its integer matrices in
    ``numberfields``: kind "quad" is Z[sqrt2] in R x R (``SILVER_FORMS``),
    kind "cyclo" is Z[xi] (eighth root of unity) in C x C
    (``OCTAGONAL_FORMS``).  Ring elements are int64 coefficient rows: (a, b)
    for a + b*sqrt2, (c0, c1, c2, c3) for c0 + c1*xi + c2*xi^2 + c3*xi^3."""

    def __init__(self, kind: str):
        if kind not in ("quad", "cyclo"):
            raise ValueError(f"unknown scheme kind: {kind!r}")
        self.kind = kind
        self.forms = numberfields.SILVER_FORMS if kind == "quad" else numberfields.OCTAGONAL_FORMS
        rank = len(self.forms[0])
        self.phys_dim = rank // 2
        self.covolume = gram_covolume(self.coordinates(np.eye(rank, dtype=np.int64)))

    def coordinates(self, rows) -> np.ndarray:
        """Physical then internal coordinates of the (N, k) coefficient
        rows, one row of 2d floats each, the float of each exact coordinate
        (``numberfields.exact_coordinates``) bit for bit."""
        return numberfields.coordinates(self.forms, rows)

    @classmethod
    def silver(cls) -> "CutProjectScheme":
        return cls("quad")

    @classmethod
    def octagonal(cls) -> "CutProjectScheme":
        return cls("cyclo")


def project_points(scheme: CutProjectScheme, window, radius) -> np.ndarray:
    """All ring elements within the closed ball of the given radius whose
    star image lies in the window: the kept rows of the enumerator's sorted
    (N, k) int64 coefficient array, from the scheme's entry into the walk
    of ``numberfields`` over the ball's box and the window's bounds.  The
    radius is taken at its binary-float value, and exact windows keep their
    boundary points: a row is kept when the exact signs ``numberfields``
    gives for the disk and for the window are both >= 0.  Float windows keep
    the eps=1e-12 test of ``contains``, evaluated as the same float
    expression."""
    if not 0 < float(radius) < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    d = scheme.phys_dim
    window_type = IntervalSet if d == 1 else polygons.ConvexPolygon
    if not isinstance(window, window_type):
        raise TypeError(f"{scheme.kind} schemes use {window_type.__name__} windows")
    r = Fraction(radius)
    ends = [float(v) for v in window.bbox()]
    if d == 1:
        candidates = enumerate_quad_range(-r, r, ends[0] - 1e-6, ends[1] + 1e-6)
    else:
        candidates = enumerate_cyclo_box(r, max(map(abs, ends)) + 1e-6)
    rsq = QuadRat(r.numerator**2, 0, r.denominator**2)
    keep = (_disk_signs(scheme.forms, candidates, rsq) >= 0) & (
        _window_signs(scheme, window, candidates) >= 0)
    return candidates[keep]


def _window_signs(scheme: CutProjectScheme, window, rows) -> np.ndarray:
    """The sign per candidate row of its star point's membership in the
    window: >= 0 inside (0 on the boundary of an exact window), -1 outside.
    The window is a union of pieces, each bounded by half-spaces
    n.(x* - o) >= 0: an interval's two ends, a polygon's edges, a point's
    four axis half-spaces.  An exact window gives the exact signs of
    ``numberfields``; a float window its eps=1e-12 float test."""
    d = scheme.phys_dim
    if window.dim == 1:
        pieces = [[((1,), (lo,)), ((-1,), (hi,))] for lo, hi in window.intervals]
    elif len(verts := window.vertices) > 1:
        pieces = [[((ay - by, bx - ax), (ax, ay))
                   for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]]
    else:
        pieces = [[(n, verts[0]) for n in ((1, 0), (-1, 0), (0, 1), (0, -1))]]
    if window.is_exact:
        verdicts = [np.minimum.reduce(_form_signs(rows, _linear_forms(scheme.forms, sides, d)))
                    for sides in pieces]
    else:
        # IntervalSet.contains and polygons._cross, as floats go; a point's
        # |x* - v| <= eps is its two pairs of axis half-spaces
        star = scheme.coordinates(rows)[:, d:]
        verdicts = [np.minimum.reduce([
            np.where(sum(t * (star[:, j] - c) for j, (t, c) in enumerate(zip(n, o)))
                     + 1e-12 >= 0, 1, -1).astype(np.int8) for n, o in sides])
            for sides in pieces]
    return np.maximum.reduce(verdicts)


# ---------------------------------------------------------------------------
# cross-checks against substitution tilings


class CrosscheckReport:
    __slots__ = ("equal", "only_left", "only_right", "count_left", "count_right", "radius")

    def __init__(self, equal: bool, only_left: tuple, only_right: tuple,
                 count_left: int, count_right: int, radius: float) -> None:
        self.equal, self.only_left, self.only_right = equal, only_left, only_right
        self.count_left, self.count_right, self.radius = count_left, count_right, radius

    def __bool__(self) -> bool:
        return self.equal


def crosscheck_modelset(left_points, right_points, radius) -> CrosscheckReport:
    """Set equality of two point lists restricted to [-radius, radius]
    (1D positions; elements compared exactly, the radius taken exactly at
    its binary-float value as in ``project_points``)."""
    rad = float(radius)
    if not math.isfinite(rad):
        raise ValueError(f"radius must be finite, got {radius}")
    r = Fraction(rad)

    def clip(points):
        return {x for x in points if abs(x) <= r}

    a, b = clip(left_points), clip(right_points)
    only_a = tuple(sorted(a - b, key=float))
    only_b = tuple(sorted(b - a, key=float))
    return CrosscheckReport(
        equal=not only_a and not only_b,
        only_left=only_a,
        only_right=only_b,
        count_left=len(a),
        count_right=len(b),
        radius=rad,
    )


# ---------------------------------------------------------------------------
# densities, Weyl averages


def theoretical_density(scheme: CutProjectScheme, window) -> float:
    """Expected points per unit physical volume: theta(window)/covolume."""
    return float(window.measure()) / scheme.covolume


class WeylRow:
    """One ball average: a center is a number on the line, a coordinate
    tuple in the plane.  Rows with equal fields compare equal."""

    __slots__ = ("radius", "center", "average", "limit", "abs_error")

    def __init__(self, radius: float, center, average: float, limit: float,
                 abs_error: float) -> None:
        self.radius, self.center, self.average = radius, center, average
        self.limit, self.abs_error = limit, abs_error

    def __eq__(self, other: object) -> bool:
        if type(other) is not WeylRow:
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> tuple:
        return (self.radius, self.center, self.average, self.limit, self.abs_error)


def _ball_volume(r: float, d: int) -> float:
    """The volume of the ball of radius r in d = 1 or 2 dimensions."""
    return (2 * r, math.pi * r * r)[d - 1]


def weyl_average(
    scheme: CutProjectScheme,
    points: np.ndarray,
    g: GridDensity,
    radii: Sequence[float],
    centers: Sequence = (0.0,),
) -> list:
    """Ball averages of g evaluated at the star images of the points, an
    (N, k) int64 array of coefficient rows as ``project_points`` returns.

    For each radius r and center a (a coordinate tuple, or a number that
    shifts along the first axis; the default is the origin), sums g(x*)
    over points in the closed ball B_r(a) and divides by its volume
    (length 2r in 1D, area pi r^2 in 2D); the limit column holds
    mass(g)/covolume.  Each row's center is the coordinate tuple in the
    plane and a number on the line.  The points must come from the window
    supporting g; each requested ball must fit in the enumerated patch,
    and have a volume of at least the smallest normal float.
    """
    if len(points) == 0:
        raise ValueError("no points to average over")
    d = scheme.phys_dim
    coords = scheme.coordinates(points)
    pos, star = coords[:, :d], coords[:, d:]
    patch = float(np.max(np.hypot.reduce(np.abs(pos), axis=1)))
    limit = g.mass / scheme.covolume
    rows = []
    for r in radii:
        r = float(r)
        vol = _ball_volume(r, d)
        if vol < sys.float_info.min:
            raise ValueError(f"radius {r!r}: its ball volume is below the smallest normal float")
        for center in centers:
            c = _axes(center)
            if np.ndim(center) == 0:
                c += (0.0,) * (d - 1)
            if len(c) != d:
                raise ValueError(f"center {center} needs {d} coordinates")
            if math.hypot(*c) + r > patch + 1e-9:
                raise ValueError(
                    f"ball of radius {r} at {center} exceeds the enumerated patch"
                )
            mask = np.hypot.reduce(np.abs(pos - c), axis=1) <= r + 1e-12
            values = g.sample(star[mask].T).tolist()
            avg = math.fsum(values) / vol
            rows.append(WeylRow(r, _point(c), avg, limit, abs(avg - limit)))
    return rows

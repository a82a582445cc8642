"""Cut-and-project schemes and the point sets they generate.

A scheme embeds a ring of algebraic integers as a lattice in physical x
internal space; a model set collects the ring elements whose star image
falls in a compact window.  Substitution tilings provide an independent
route to the same point sets, used as a cross-check.  The Weyl harness
averages an internal-space density over enumerated patches and compares
against the volume-theoretic limit.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _lazy_module
from .core import SQRT2, IntervalSet, QuadRat, _as_quadrat
from .measures import GridDensity, _axes, _point
from .numberfields import (
    _certain_sign,
    _float_pair,
    _quad_sign,
    _settle,
    cyclo_exact,
    enumerate_cyclo_box,
    enumerate_quad_range,
)

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
    """Ring embedded on both sides: kind "quad" is Z[sqrt2] in R x R,
    kind "cyclo" is Z[xi] (eighth root of unity) in C x C.  Ring elements
    are int64 coefficient rows: (a, b) for a + b*sqrt2, (c0, c1, c2, c3)
    for c0 + c1*xi + c2*xi^2 + c3*xi^3."""

    def __init__(self, kind: str):
        if kind not in ("quad", "cyclo"):
            raise ValueError(f"unknown scheme kind: {kind!r}")
        self.kind = kind
        self.phys_dim = self.internal_dim = 1 if kind == "quad" else 2
        rank = 2 * self.phys_dim
        self.covolume = gram_covolume(self.coordinates(np.eye(rank, dtype=np.int64)))

    def coordinates(self, rows) -> np.ndarray:
        """Physical then internal coordinates of the (N, k) coefficient
        rows, one row of 2d floats each: a + b*sqrt2 and a - b*sqrt2 on the
        line; in the plane, with u = c1 + c3, v = c1 - c3 and s = sqrt2/2,
        re(x) = c0 + v*s, im(x) = c2 + u*s, re(x*) = c0 - v*s and
        im(x*) = u*s - c2, each the float of its exact value in
        ``cyclo_exact`` bit for bit."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.kind == "quad":
            a, b = rows.T
            bs = b * SQRT2
            return np.stack([a + bs, a - bs], axis=1)
        c0, c1, c2, c3 = rows.T
        vs, us = (c1 - c3) * (SQRT2 / 2.0), (c1 + c3) * (SQRT2 / 2.0)
        return np.stack([c0 + vs, c2 + us, c0 - vs, us - c2], axis=1)

    @classmethod
    def silver(cls) -> "CutProjectScheme":
        return cls("quad")

    @classmethod
    def octagonal(cls) -> "CutProjectScheme":
        return cls("cyclo")


def project_points(scheme: CutProjectScheme, window, radius) -> np.ndarray:
    """All ring elements within the closed ball of the given radius whose
    star image lies in the window, sorted by physical position: the kept
    rows of the enumerator's (N, k) int64 coefficient array.

    Ball and window membership are both decided exactly: the radius is
    taken at its binary-float value and windows with exact endpoints or
    vertices keep their boundary points.  The candidates come from
    ``enumerate_quad_range`` / ``enumerate_cyclo_box``; the disk test and
    every window endpoint or edge test is evaluated on their coefficient
    arrays in float64, and a sign is taken from floats only where the value
    exceeds 16 ulps of the sum of its absolute terms (the bound is derived
    in ``numberfields``).  Candidates inside that margin go through the
    exact per-point test on their coefficient row: ``IntervalSet.contains``
    with eps=0 of the ``QuadRat`` a - b*sqrt2, or the ``QuadRat`` disk and
    ``ConvexPolygon.contains`` with eps=0 of the coordinates that
    ``cyclo_exact`` gives.  Float windows keep the eps=1e-12 test, evaluated
    as the same float expression.
    """
    if not 0 < float(radius) < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    r = Fraction(radius)
    if scheme.kind == "quad":
        if not isinstance(window, IntervalSet):
            raise TypeError("quad schemes use IntervalSet windows")
        star_lo = float(window.lo) - 1e-6
        star_hi = float(window.hi) + 1e-6
        candidates = enumerate_quad_range(-r, r, star_lo, star_hi)
        a, b = candidates.T
        if window.is_exact:
            # lo <= a - b*sqrt2 <= hi for some interval of the window
            verdict = np.maximum.reduce([
                np.minimum(_quad_sign(a, -b, lo), -_quad_sign(a, -b, hi))
                for lo, hi in window.intervals
            ])
            keep = _settle(verdict, lambda i: window.contains(
                QuadRat(int(a[i]), -int(b[i])), eps=0))
        else:
            star = a - b * SQRT2  # x.embed_star(), bit for bit
            keep = np.logical_or.reduce([
                ((star - lo) + 1e-12 >= 0) & ((hi - star) + 1e-12 >= 0)
                for lo, hi in window.intervals
            ])
        return candidates[keep]

    if not isinstance(window, polygons.ConvexPolygon):
        raise TypeError("cyclo schemes use ConvexPolygon windows")
    xlo, ylo, xhi, yhi = (float(v) for v in window.bbox())
    star_bound = max(abs(xlo), abs(ylo), abs(xhi), abs(yhi)) + 1e-6
    candidates = enumerate_cyclo_box(r, star_bound)
    c0, c1, c2, c3 = candidates.T
    # the star floats (px, py) are float() of re(x*) and im(x*) from
    # cyclo_exact, bit for bit, and x and x* have the same absolute terms
    re, im, px, py = scheme.coordinates(candidates).T
    s = SQRT2 / 2.0
    x_size, y_size = np.abs(c0) + np.abs(c1 - c3) * s, np.abs(c2) + np.abs(c1 + c3) * s
    rsq = QuadRat(r.numerator**2, 0, r.denominator**2)
    rv, rs = _float_pair(rsq)
    signs = [_certain_sign(rv - (re * re + im * im), rs + (x_size * x_size + y_size * y_size))]
    signs += _window_signs(window, px, py, x_size, y_size)
    keep = _settle(
        np.minimum.reduce(signs),
        lambda i: _in_patch(candidates[i].tolist(), window, rsq),
    )
    # the candidates arrive sorted by physical position
    return candidates[keep]


def _window_signs(window: polygons.ConvexPolygon, px, py, x_size, y_size) -> list:
    """Per edge, the certain signs of cross(a, b, x*) for the star points
    (px, py) with absolute terms (x_size, y_size).  A float window gives
    its eps=1e-12 verdict outright; a point window leaves every candidate
    to the exact test."""
    verts = window.vertices
    n = len(verts)
    if n == 1:
        return [np.zeros(len(px), dtype=np.int8)]
    signs = []
    for k in range(n):
        (ax, ay), (bx, by) = verts[k], verts[(k + 1) % n]
        if window.is_exact:
            # cross(a, b, x*) = ex * (py - ay) - ey * (px - ax), e = b - a
            (axv, axs), (ayv, ays) = _float_pair(ax), _float_pair(ay)
            (bxv, bxs), (byv, bys) = _float_pair(bx), _float_pair(by)
            ex, ey = bxv - axv, byv - ayv
            signs.append(_certain_sign(
                ex * (py - ayv) - ey * (px - axv),
                (bxs + axs) * (y_size + ays) + (bys + ays) * (x_size + axs),
            ))
        else:
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)  # polygons._cross
            signs.append(np.where(cross + 1e-12 >= 0, 1, -1).astype(np.int8))
    return signs


def _in_patch(row, window: polygons.ConvexPolygon, rsq: QuadRat) -> bool:
    """The exact per-point test of the coefficient row of x: x in the
    closed disk |x|**2 <= rsq and x* in the window."""
    re, im, sre, sim = cyclo_exact(*row)
    if re * re + im * im > rsq:
        return False
    if window.is_exact:
        return window.contains((sre, sim), eps=0)
    return window.contains((float(sre), float(sim)), eps=1e-12)


# ---------------------------------------------------------------------------
# substitution systems


class SubstitutionRule:
    """Letter replacement rule with exact tile lengths.

    The lengths must solve the inflation equation: one factor Q with
    Q * len(t) = sum of the image letters' lengths, for every letter.
    """

    def __init__(self, alphabet: Sequence[str], images: dict, lengths: dict):
        self.alphabet = tuple(alphabet)
        self.images = {t: str(images[t]) for t in self.alphabet}
        self.lengths = {t: lengths[t] for t in self.alphabet}
        for t in self.alphabet:
            if not self.images[t]:
                raise ValueError(f"letter {t!r} has an empty image")
            if any(u not in self.alphabet for u in self.images[t]):
                raise ValueError(f"image of {t!r} uses letters outside the alphabet")
            if float(self.lengths[t]) <= 0:
                raise ValueError(f"tile length of {t!r} must be positive")
        first = self.alphabet[0]
        q = self._image_length(first) / _as_exact(self.lengths[first])
        for t in self.alphabet:
            if self._image_length(t) != q * _as_exact(self.lengths[t]):
                raise ValueError(
                    f"lengths do not solve the inflation equation at letter {t!r}"
                )
        self.inflation = q

    def _image_length(self, t: str) -> QuadRat:
        total = _as_exact(0)
        for u in self.images[t]:
            total = total + _as_exact(self.lengths[u])
        return total

    def expand(self, word: str) -> str:
        return "".join(self.images[t] for t in word)


def _as_exact(x) -> QuadRat:
    q = _as_quadrat(x)
    if q is NotImplemented:
        raise TypeError(f"tile lengths must be exact scalars, got {type(x).__name__}")
    return q


class SubstitutionOrbit:
    """Tile coordinates of a finite patch of the 2-sided fixed point."""

    __slots__ = ("positions", "left_word", "right_word", "lo", "hi")

    def __init__(self, positions: dict, left_word: str, right_word: str, lo, hi) -> None:
        self.positions, self.left_word, self.right_word = positions, left_word, right_word
        self.lo, self.hi = lo, hi

    def all_positions(self) -> list:
        merged = [p for pts in self.positions.values() for p in pts]
        merged.sort(key=float)
        return merged


def substitution_orbit(
    rule: SubstitutionRule,
    seed: tuple,
    generations: int,
    endpoint: str = "left",
) -> SubstitutionOrbit:
    """Expand a legal 2-letter seed about the origin and coordinatize.

    The right seed letter's tile starts at 0 and the left one ends at 0.
    Legality (image of the left letter ends with it, image of the right
    letter starts with it) makes each generation extend the previous.
    Returns per-letter tile endpoints, left or right per the flag, in
    exact arithmetic.
    """
    if endpoint not in ("left", "right"):
        raise ValueError("endpoint must be 'left' or 'right'")
    left, right = seed
    if left not in rule.alphabet or right not in rule.alphabet:
        raise ValueError("seed letters must belong to the alphabet")
    if not rule.images[left].endswith(left):
        raise ValueError(f"illegal seed: image of {left!r} does not end with it")
    if not rule.images[right].startswith(right):
        raise ValueError(f"illegal seed: image of {right!r} does not start with it")
    if generations < 0:
        raise ValueError("generations must be nonnegative")
    left_word, right_word = left, right
    for _ in range(generations):
        left_word = rule.expand(left_word)
        right_word = rule.expand(right_word)
    positions = {t: [] for t in rule.alphabet}
    total = 0
    for t in left_word:
        total = rule.lengths[t] + total
    lo = -total
    pos = lo
    for t in left_word + right_word:
        length = rule.lengths[t]
        positions[t].append(pos if endpoint == "left" else pos + length)
        pos = pos + length
    return SubstitutionOrbit(
        positions={t: tuple(v) for t, v in positions.items()},
        left_word=left_word,
        right_word=right_word,
        lo=lo,
        hi=pos,
    )


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
# translation regions, densities, Weyl averages


def maximal_translation_region(w_i, w_j, a):
    """Largest region of translations b with A W_j + b inside W_i.

    Intervals: the exact interval [min W_i - min A W_j, max W_i - max A W_j],
    or a singleton when the widths agree; None when A W_j is too wide.
    Polygons: the erosion W_i minus the A-image of W_j (None when empty).
    The interval formula uses the windows' hulls, so it is intended for
    single-interval windows.
    """
    if isinstance(w_i, IntervalSet) and isinstance(w_j, IntervalSet):
        image = w_j.linear_image(a)
        lo = w_i.lo - image.lo
        hi = w_i.hi - image.hi
        if float(lo) > float(hi):
            return None
        return IntervalSet([(lo, hi)])
    if isinstance(w_i, polygons.ConvexPolygon) and isinstance(w_j, polygons.ConvexPolygon):
        matrix = a if isinstance(a, tuple) else ((a, 0), (0, a))
        return w_i.erode(w_j.linear_image(matrix))
    raise TypeError("windows must both be IntervalSet or both ConvexPolygon")


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

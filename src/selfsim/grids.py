"""Densities on the lattice h*Z^d and the rasters of regions on it.

The layer that ``measure`` and ``weyl`` share: ``GridDensity`` holds a
density sampled on the lattice from integer node indices, the rasters give
the uniform density of an interval set or a convex polygon by exact cell
coverage, and ``snap_to_lattice`` is the engine's one lattice test.  Every
grid whose shape comes from a region and a step passes the cell cap of
``_check_cells`` before it is allocated.  The solvers, pushforward and
Fourier products built on these grids are in ``measures``, so a ``weyl``
run never executes them.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ResourceCapError

if TYPE_CHECKING:
    from .core import IntervalSet
    from .polygons import ConvexPolygon

_LATTICE_SNAP_EPS = 1e-9
_SUPPORT_REL_EPS = 1e-12
# most cells of any grid (268 MB of float64): over 100x the largest grid of
# every builtin at its default step, and of silver-mc-max at step 5e-6
_GRID_CELL_CAP = 2**25


# ---------------------------------------------------------------------------
# points: a float on the line, an (x, y) tuple in the plane


def _axes(p) -> tuple:
    """A point or origin as a per-axis tuple, x first: float -> (x,)."""
    if isinstance(p, (tuple, list, np.ndarray)):
        return tuple(map(float, p))
    return (float(p),)


def _point(axes):
    """Inverse of ``_axes``: a float on the line, a tuple in the plane."""
    return axes[0] if len(axes) == 1 else tuple(axes)


# ---------------------------------------------------------------------------
# grid densities


class GridDensity:
    """Density sampled on the lattice h*Z^d from the node with integer
    indices ``start`` (x first): the nodes along axis k are start[k]*h +
    i*h, and the values are indexed last axis first ([iy, ix] in the
    plane; any dimension works the same way).  ``origin``, the first
    node, is start*h; grids of one step align by their starts.

    Node i carries the cell [x_i - h/2, x_i + h/2], so the measure's mass
    is h**dim times the value sum, and every value must be nonnegative.
    """

    __slots__ = ("start", "step", "values")

    def __init__(self, start, step: float, values):
        self.step = float(step)
        if self.step <= 0:
            raise ValueError("step must be positive")
        vals = np.asarray(values, dtype=float)
        self.start = tuple(map(operator.index, np.atleast_1d(start)))
        if vals.ndim == 0 or len(self.start) != vals.ndim:
            raise ValueError("values need one array axis per start index")
        if vals.size == 0:
            raise ValueError("empty value array")
        # two reductions, no boolean temporary; NaN propagates through min
        lo, hi = float(vals.min()), float(vals.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"non-finite density value {hi if math.isfinite(lo) else lo}")
        if lo < 0:
            raise ValueError(f"negative density value {lo}")
        self.values = vals

    @property
    def origin(self):
        """The first node: a float on the line, a tuple in the plane."""
        return _point([i * self.step for i in self.start])

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.step**self.dim

    def _node_axes(self) -> list:
        """Node coordinates along each axis (x first)."""
        h = self.step
        counts = self.values.shape[::-1]
        return [o + h * np.arange(n) for o, n in zip(_axes(self.origin), counts)]

    def nodes(self):
        return _point(self._node_axes())

    def renormalized(self, target_mass: float) -> "GridDensity":
        return GridDensity(self.start, self.step, self.values.copy())._rescale(target_mass)

    def _rescale(self, target_mass: float) -> "GridDensity":
        """``renormalized`` in place, for a grid just made whose values
        nothing else holds; returns the grid."""
        m = self.mass
        if m <= 0:
            raise ValueError("cannot renormalize a zero-mass density")
        self.values *= target_mass / m
        return self

    def sample(self, coords) -> np.ndarray:
        """Multilinear interpolation, zero outside the grid, at the points
        whose coordinates ``coords`` gives per axis (x first, arrays that
        broadcast together); the result has their broadcast shape."""
        h = self.step
        nodes, weights = [], []
        for c, o, n in zip(coords, _axes(self.origin), self.values.shape[::-1]):
            u = np.asarray(c, dtype=float) - o
            u /= h
            b = np.floor(u)
            u -= b
            b = b.astype(int)
            # a neighbour off the grid is read at a clipped index with the
            # weight zero, which makes its term an exact zero
            on_lo, on_hi = (b >= 0) & (b < n), (b >= -1) & (b < n - 1)
            weights.append((np.where(on_lo, 1 - u, 0.0), np.where(on_hi, u, 0.0)))
            nodes.append((np.clip(b, 0, n - 1), np.clip(b + 1, 0, n - 1)))
        out = None
        # values and corners run last axis first, weights x first
        for corner in itertools.product((0, 1), repeat=len(nodes)):
            term = self.values[tuple(i[c] for i, c in zip(nodes[::-1], corner))]
            for w, c in zip(weights, corner[::-1]):
                term *= w[c]
            out = term if out is None else operator.iadd(out, term)
        return out

    def interpolate(self, x) -> float:
        """Linear (1D) or bilinear (2D) interpolation at one point, zero outside."""
        return float(self.sample(_axes(x)))

    def support(self, rel_eps: float = _SUPPORT_REL_EPS):
        """Support footprint (cells above rel_eps * max) as an interval
        (1D) or bounding box (2D), padded by the half-cell each node owns."""
        thr = rel_eps * float(self.values.max())
        h = self.step
        idx = np.nonzero(self.values > thr)[::-1]
        if len(idx[0]) == 0:
            raise ValueError("density has empty support")
        origin = _axes(self.origin)
        lo = tuple(o + h * i.min() - h / 2 for o, i in zip(origin, idx))
        hi = tuple(o + h * i.max() + h / 2 for o, i in zip(origin, idx))
        return lo + hi

    def __repr__(self) -> str:
        shape = "x".join(str(s) for s in self.values.shape)
        return f"GridDensity({shape} @ h={self.step:g}, mass {self.mass:.6g})"


def snap_to_lattice(point, h: float):
    """The integer indices (x first) of the node of h*Z^d at ``point``, or
    None when the point is off the lattice by over _LATTICE_SNAP_EPS * h
    along some axis: the engine's one lattice test."""
    u = [x / h for x in _axes(point)]
    k = tuple(round(x) for x in u)
    return k if all(abs(x - i) <= _LATTICE_SNAP_EPS for x, i in zip(u, k)) else None


def _check_cells(counts) -> None:
    """Refuse a grid with these per-axis node counts, or upper estimates
    of them, when it would hold more than _GRID_CELL_CAP cells.  Every
    grid whose shape comes from a region and a step is checked here
    before it is allocated."""
    cells = math.prod(counts)
    if not cells <= _GRID_CELL_CAP:
        raise ResourceCapError(
            f"a grid of about {float(cells):.3g} cells exceeds the cap of "
            f"{_GRID_CELL_CAP}; use a coarser grid step"
        )


# ---------------------------------------------------------------------------
# rasterization (exact-coverage indicators)


def raster_interval_set(region: IntervalSet, h: float, mass: float) -> GridDensity:
    """Uniform density of the given mass on a 1D region: each node carries
    the exact fraction of its cell covered by the region, so the grid mass
    equals ``mass`` up to float rounding only."""
    region = region.as_float()
    length = region.measure()
    if length <= 0:
        raise ValueError("region must have positive measure for a uniform density")
    density = mass / length
    lo, hi = region.bbox()
    _check_cells([(hi - lo) / h + 3])
    i0 = math.floor((lo - h / 2) / h + 0.5)
    i1 = math.ceil((hi + h / 2) / h - 0.5)
    node = np.arange(i0, i1 + 1) * h
    cell_lo, cell_hi = node - h / 2, node + h / 2
    vals = np.zeros(i1 - i0 + 1)
    for a, b in region.intervals:
        overlap = np.minimum(b, cell_hi) - np.maximum(a, cell_lo)
        vals += np.where(overlap > 0, overlap / h * density, 0.0)
    return GridDensity(i0, h, vals)


def _clip_cells(verts, x0, y0, x1, y1) -> np.ndarray:
    """Overlap areas of the cells [x0, x1] x [y0, y1] (arrays, one entry per
    cell) with the convex polygon ``verts``.

    Sutherland-Hodgman over all cells at once: the cell rectangle, corners
    (x0, y0), (x1, y0), (x1, y1), (x0, y1), is clipped against each
    polygon edge in turn.  Each vertex is kept when it lies on the inner
    side, and followed by the edge's crossing when it and the next vertex
    lie strictly on opposite sides; a stable sort compacts the kept points
    of each cell.  Every cell sees the float operations, in the order, of
    clipping it alone, and the shoelace terms are summed vertex by vertex,
    so each area is bitwise the one-cell result.
    """
    px = np.stack([x0, x1, x1, x0], axis=1)
    py = np.stack([y0, y0, y1, y1], axis=1)
    count = np.full(len(px), 4)
    rows = np.arange(len(px))[:, None]

    def following():
        # the index of each vertex's successor around its cell's polygon
        slot = np.arange(px.shape[1])
        return slot, np.where(slot + 1 < count[:, None], slot + 1, 0)

    def clipped(p, q, s, order):
        # vertex t in slot 2t and its crossing towards q in slot 2t + 1,
        # then the kept slots first
        points = np.stack([p, p + s * (q - p)], axis=2).reshape(len(rows), -1)
        return np.take_along_axis(points, order, 1)

    # slots past a cell's count hold stale points, so the arithmetic on
    # them may divide by zero; their results are never kept
    with np.errstate(divide="ignore", invalid="ignore"):
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            slot, nxt = following()
            live = slot < count[:, None]
            side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            side_n, qx, qy = side[rows, nxt], px[rows, nxt], py[rows, nxt]
            kept = live & (side >= 0)
            cross = live & (((side > 0) & (side_n < 0)) | ((side < 0) & (side_n > 0)))
            s = side / (side - side_n)
            flags = np.stack([kept, cross], axis=2).reshape(len(rows), -1)
            count = np.count_nonzero(flags, axis=1)
            order = np.argsort(~flags, axis=1, kind="stable")[:, : count.max(initial=0)]
            px, py = clipped(px, qx, s, order), clipped(py, qy, s, order)
        slot, nxt = following()
        terms = px * py[rows, nxt] - px[rows, nxt] * py
    area = np.zeros(len(px))
    for t in slot:
        area += np.where(t < count, terms[:, t], 0.0)
    return np.abs(area) / 2


def raster_polygon(poly: ConvexPolygon, h: float, mass: float) -> GridDensity:
    """Uniform density of the given mass on a convex polygon, by exact
    cell-overlap areas.

    All cells are classified at once by the clipper's edge test
    (``_clip_cells``) at their four corners: a cell with every
    corner on the inner side of every edge is whole and gets the shoelace
    area of its corners; a cell with every corner outside one edge, by
    more than the rounding the clipper can make, is empty.  Only the
    remaining cells, those the boundary crosses, are clipped.  Every float
    operation is the one clipping the cell would do, so the grid is
    bitwise the one clipping every cell gives.

    The edge test at corner (x, y) is fl(t - u) with the row term t =
    (bx-ax)*(y-ay) and the column term u = (by-ay)*(x-ax).  Rounded
    subtraction is monotone, so its least value over a cell's corners is
    fl(min t - max u) and its greatest fl(max t - min u): one row and one
    column of terms per edge stand for the four corner grids.
    """
    poly = poly.as_float()
    area = poly.measure()
    if area <= 0:
        raise ValueError("polygon must have positive area")
    density = mass / area
    xlo, ylo, xhi, yhi = poly.bbox()
    _check_cells([(xhi - xlo) / h + 3, (yhi - ylo) / h + 3])
    i0 = math.floor((xlo - h / 2) / h + 0.5)
    i1 = math.ceil((xhi + h / 2) / h - 0.5)
    j0 = math.floor((ylo - h / 2) / h + 0.5)
    j1 = math.ceil((yhi + h / 2) / h - 0.5)
    verts = list(poly.vertices)
    x = np.arange(i0, i1 + 1) * h
    y = np.arange(j0, j1 + 1)[:, None] * h
    x0, x1, y0, y1 = x - h / 2, x + h / 2, y - h / 2, y + h / 2
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    # each clip can move the clipper's points off the cell by a few eps *
    # reach, so a cell whose corners are barely outside an edge is clipped
    # rather than called empty
    reach = max(abs(x0[0]), abs(x1[-1]), abs(y0[0, 0]), abs(y1[-1, 0]))
    slack = 16 * (len(verts) + 2) * np.finfo(float).eps * reach
    inside, outside = True, False
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        t0, t1 = (bx - ax) * (y0 - ay), (bx - ax) * (y1 - ay)
        u0, u1 = (by - ay) * (x0 - ax), (by - ay) * (x1 - ax)
        inside = inside & (np.minimum(t0, t1) - np.maximum(u0, u1) >= 0)
        margin = slack * (abs(bx - ax) + abs(by - ay))
        outside = outside | (np.maximum(t0, t1) - np.minimum(u0, u1) < -margin)
    area = 0.0
    for (cx, cy), (nx, ny) in zip(corners, corners[1:] + corners[:1]):
        area = area + (cx * ny - nx * cy)
    vals = np.where(inside, np.abs(area) / 2 / (h * h) * density, 0.0)
    j, i = np.nonzero(~(inside | outside))
    vals[j, i] = _clip_cells(verts, x0[i], y0[j, 0], x1[i], y1[j, 0]) / (h * h) * density
    return GridDensity((i0, j0), h, vals)


def raster_region(region, h: float, mass: float) -> GridDensity:
    """Uniform density of the given mass on an interval set or a convex
    polygon, by exact cell coverage: the one place a rasterizer is chosen."""
    raster = raster_interval_set if region.dim == 1 else raster_polygon
    return raster(region, h, mass)


def check_grid_step(step: float, region, what: str) -> None:
    """Refuse a raster step that is not below the region's smallest
    extent: such a grid cannot resolve the region at all."""
    box = region.as_float().bbox()  # the least coordinates, then the greatest
    extent = min(hi - lo for lo, hi in zip(box[: region.dim], box[region.dim :]))
    if not step < extent:
        raise ConfigError(
            f"grid step {step:g} is not below the {what}'s smallest extent {extent:g}"
        )

"""Self-similar measures of a single contraction family on the line or plane.

The family nu (finite atoms held as a DiscreteMeasure, one for a point
mass, or a uniform density on a region) and a linear contraction A define
the averaging step m -> nu * A.m, whose fixed point is the invariant
measure.  It is computed as growing atom clouds (``solve_invariant_atoms``,
iterated from nu itself), as a grid density (``solve_density``, the
one-component case of the coupled grid solver ``grid_fixed_point``,
iterated from a unit spike at the origin), or factor by factor in
frequency space (``fourier_hat``).
``hutchinson_distance`` is the line's Wasserstein metric, used to
certify the contraction property.  Every grid lives on the lattice
h*Z^d: it stores the integer indices ``start`` of its first node, its
node coordinates are start*h + k*h, and grids align by index arithmetic.
One grid solve owns the FFT spectra of its rastered kernels: each is
computed once per FFT shape and dropped when the solve returns.

All numerics here are float based; exact inputs (QuadRat endpoints and the
like) are converted on entry.  Frequency convention: hat(m)(k) =
integral of exp(-2 pi i k x) dm(x).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from .core import AffineMap, IntervalSet, _check_finite
from .errors import ConvergenceError, ResourceCapError

if TYPE_CHECKING:  # a line run never executes the plane's sets
    from .polygons import ConvexPolygon

_ATOM_MERGE_EPS = 1e-12
_LATTICE_SNAP_EPS = 1e-9
_SUPPORT_REL_EPS = 1e-12
# FFT round-off relative to the largest convolution value; see convolve_grids
_FFT_FLOOR = 64 * np.finfo(float).eps
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


def _mesh(axes) -> list:
    """Per-axis coordinate arrays (x first) of the product grid of ``axes``,
    each varying along its own axis only and broadcasting to the shape of
    a values array (last axis x)."""
    return np.meshgrid(*axes[::-1], indexing="ij", sparse=True)[::-1]


# ---------------------------------------------------------------------------
# discrete measures


class DiscreteMeasure:
    """Finite nonnegative atomic measure, sorted by location; an atom
    within 1e-12 of a kept atom on every axis is merged into it.  As a
    translation family it is the finitely many weighted translations."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple]):
        raw = []
        for loc, w in atoms:
            w = float(w)
            if not 0 < w < math.inf:
                raise ValueError(f"atom weight must be positive and finite, got {w}")
            p = _axes(loc)
            _check_finite(p, "an atom location")
            raw.append((_point(p), w))
        if not raw:
            raise ValueError("measure needs at least one atom")
        if len({type(loc) for loc, _ in raw}) > 1:
            raise ValueError("atoms mix 1D and 2D locations")
        raw.sort(key=lambda a: a[0])
        # An atom joins the latest kept atom within eps on every axis.  Kept
        # atoms are sorted by x, so those within eps in x all came after the
        # last gap over eps between kept x's; ``run`` files the kept atoms
        # since that gap by their cell of side 2 eps in the other axes, and
        # a close atom lies in a neighbouring cell.  On the line the latest
        # kept atom is the only candidate.
        shifts = list(itertools.product((-1, 0, 1), repeat=len(_axes(raw[0][0])) - 1))
        merged, run, last_x = [], {}, -math.inf
        for loc, w in raw:
            p = _axes(loc)
            if p[0] - last_x > _ATOM_MERGE_EPS:
                run.clear()
            cell = tuple(x // (2 * _ATOM_MERGE_EPS) for x in p[1:])
            near = [
                k
                for s in shifts
                for k in run.get(tuple(map(operator.add, cell, s)), ())
                if _loc_close(p, merged[k][0])
            ]
            if near:
                k = max(near)
                merged[k] = (merged[k][0], merged[k][1] + w)
            else:
                run.setdefault(cell, []).append(len(merged))
                merged.append((loc, w))
                last_x = p[0]
        self.atoms = tuple(merged)

    @property
    def dim(self) -> int:
        return len(_axes(self.atoms[0][0]))

    @property
    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def locations(self) -> list:
        return [loc for loc, _ in self.atoms]

    def weights(self) -> list:
        return [w for _, w in self.atoms]

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return DiscreteMeasure([(loc, w * factor) for loc, w in self.atoms])

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self.atoms)} atoms, mass {self.total_mass:.6g})"


def _loc_close(a, b) -> bool:
    return all(abs(p - q) <= _ATOM_MERGE_EPS for p, q in zip(_axes(a), _axes(b)))


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


def _common_step(a: GridDensity, b: GridDensity) -> float:
    """The step two grids share; they must agree to 1e-12 relative and in
    dimension."""
    if abs(a.step - b.step) > 1e-12 * max(a.step, b.step):
        raise ValueError(f"grids have different steps {a.step!r} and {b.step!r}")
    if a.dim != b.dim:
        raise ValueError("grids have different dimensions")
    return a.step


def _align(a: GridDensity, b: GridDensity, op):
    """The ufunc ``op`` of the two grids' values on their common index box,
    a grid counting as zero off its own nodes: a new array, and the box's
    lattice index along each axis (x first).  Grids on one box, as the
    solver's are once their support settles, combine with no padding."""
    _common_step(a, b)
    if a.start == b.start and a.values.shape == b.values.shape:
        return op(a.values, b.values), a.start
    ia, ib = a.start[::-1], b.start[::-1]
    lo = [min(p, q) for p, q in zip(ia, ib)]
    hi = [max(p + n, q + m) for p, q, n, m in zip(ia, ib, a.values.shape, b.values.shape)]
    shape = [u - l for u, l in zip(hi, lo)]
    _check_cells(shape)
    out = np.zeros(shape)
    va, vb = (
        out[tuple(slice(s - l, s - l + n) for s, l, n in zip(start, lo, g.values.shape))]
        for g, start in ((a, ia), (b, ib))
    )
    va[...] = a.values
    op(vb, b.values, out=vb)
    return out, lo[::-1]


def add_grids(a: GridDensity, b: GridDensity) -> GridDensity:
    """Sum of two lattice-aligned densities with a common step."""
    vals, lo = _align(a, b, np.add)
    return GridDensity(lo, a.step, vals)


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    """Integral of |a - b| for lattice-aligned densities."""
    diff, _ = _align(a, b, np.subtract)
    # times h once per axis, left to right
    return math.prod([float(np.abs(diff, out=diff).sum()), *[a.step] * a.dim])


def shift_grid(g: GridDensity, t) -> GridDensity:
    """Translate a density: by index when t lies on the lattice, else by
    ``pushforward`` under the translation (line and plane), resampling."""
    k = snap_to_lattice(t, g.step)
    if k is None:
        eye = np.eye(g.dim).tolist() if g.dim > 1 else 1.0
        return pushforward(AffineMap(eye, _point(_axes(t))), g)
    return GridDensity([s + i for s, i in zip(g.start, k)], g.step, g.values)


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


def point_mass_grid(location, h: float, mass: float) -> GridDensity:
    """A delta approximant: the whole mass in the one cell whose node is
    nearest to ``location`` (exact when location lies on the lattice)."""
    axes = _axes(location)
    cell = math.prod([h] * len(axes))
    return GridDensity([round(x / h) for x in axes], h, np.full((1,) * len(axes), mass / cell))


# ---------------------------------------------------------------------------
# translation families


class UniformFamily:
    """Translations spread uniformly (Haar) over a compact region, an
    IntervalSet or a ConvexPolygon."""

    __slots__ = ("region", "total_mass")

    def __init__(self, region, total_mass: float) -> None:
        self.region, self.total_mass = region, total_mass
        _check_finite((self.total_mass,), "a family's mass")

    @property
    def dim(self) -> int:
        return self.region.dim


# a finite family of weighted translations is its DiscreteMeasure
TranslationFamily = Union[DiscreteMeasure, UniformFamily]


def _atoms(family) -> tuple:
    """(location, weight) pairs of a finite family; none for a uniform one."""
    return family.atoms if isinstance(family, DiscreteMeasure) else ()


def family_as_grid(family: TranslationFamily, h: float) -> GridDensity:
    """Rasterize a family as a density of its own total mass at step h."""
    if isinstance(family, UniformFamily):
        return raster_region(family.region, h, family.total_mass)
    return functools.reduce(add_grids, [point_mass_grid(loc, h, w) for loc, w in _atoms(family)])


# ---------------------------------------------------------------------------
# the Hutchinson metric on the line


def hutchinson_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Optimal Lip-1 test-function gap between equal-mass 1D measures,
    evaluated exactly as the integral of |CDF difference|."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("hutchinson_distance is defined for 1D measures")
    if abs(mu.total_mass - nu.total_mass) > 1e-9:
        raise ValueError(
            f"masses differ: {mu.total_mass} vs {nu.total_mass}; "
            "the metric needs equal total mass"
        )
    events = [(loc, w, 0) for loc, w in mu.atoms] + [
        (loc, w, 1) for loc, w in nu.atoms
    ]
    events.sort(key=lambda e: e[0])
    total = 0.0
    cdf_gap = 0.0  # F_mu - F_nu left of the current event
    prev = events[0][0]
    for loc, w, which in events:
        total += abs(cdf_gap) * (loc - prev)
        cdf_gap += w if which == 0 else -w
        prev = loc
    return total


# ---------------------------------------------------------------------------
# pushforward


def _as_linear(A) -> AffineMap:
    return (A if isinstance(A, AffineMap) else AffineMap.linear(A)).as_float()


def _dot(row, vec):
    """Sum of the products, left to right from the first one (as a*x + b*y,
    which keeps the sign of a zero that 0 + a*x would drop)."""
    return functools.reduce(operator.add, map(operator.mul, row, vec))


def pushforward(f, m):
    """Image measure under an affine map; same representation kind out.

    Atom lists map exactly.  Grid densities are resampled at the preimage
    of each target node, scaled by the modulus, and renormalized to the
    source mass (Prop.-style mass preservation is exact by construction).
    A source narrower than the preimage spacing can fall between the
    sample points; its whole mass then lands on the node nearest to the
    image of its centre of mass.
    """
    fmap = _as_linear(f)
    if isinstance(m, DiscreteMeasure):
        return DiscreteMeasure([(fmap(loc), w) for loc, w in m.atoms])
    if not isinstance(m, GridDensity):
        raise TypeError(f"cannot push forward {type(m).__name__}")
    if not len(fmap.rows) == m.dim <= 2:
        raise ValueError(
            f"pushforward resamples grids on the line and in the plane only, under a map "
            f"of the grid's dimension; got a {m.dim}-dimensional grid and a "
            f"{len(fmap.rows)}-dimensional map"
        )
    h = m.step
    mat, t, det = fmap.rows, fmap.translation, fmap.determinant()
    # adjugate: mat^-1 = adj / det
    adj = ((1.0,),) if len(mat) == 1 else ((mat[1][1], -mat[0][1]), (-mat[1][0], mat[0][0]))
    ends = [(x[0], x[-1]) for x in m._node_axes()]
    images = [
        [_dot(row, corner) + tk for row, tk in zip(mat, t)]
        for corner in itertools.product(*ends)
    ]
    spans = [(min(p[k] for p in images), max(p[k] for p in images)) for k in range(len(t))]
    _check_cells([(b - a) / h + 5 for a, b in spans])
    lo = [math.floor(a / h) - 1 for a, _ in spans]
    hi = [math.ceil(b / h) + 1 for _, b in spans]
    offsets = _mesh([h * np.arange(i0, i1 + 1) - tk for i0, i1, tk in zip(lo, hi, t)])
    # a term with an exactly zero adjugate entry only sets the sign of a
    # zero sum, which the interpolation weights absorb; without it a
    # coordinate keeps the axes it varies along
    pre = [
        functools.reduce(operator.add, [a * x for a, x in zip(row, offsets) if a]) / det
        for row in adj
    ]
    vals = m.sample(pre)
    vals *= float(fmap.modulus)
    if not vals.any() and m.values.any():
        weights = m.values / m.values.sum()
        centre = [float((weights * x).sum()) for x in _mesh(m._node_axes())]
        return point_mass_grid(fmap(_point(centre)), h, m.mass)
    return GridDensity(lo, h, vals)._rescale(m.mass)


# ---------------------------------------------------------------------------
# averaging step and solvers


def _fast_len(n: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) at least n, a fast real FFT
    length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def convolve_grids(a: GridDensity, b: GridDensity, _spectra=None) -> GridDensity:
    """Density of the convolution (sum of independent draws).

    The full linear convolution of the value arrays, by real FFTs padded
    along each axis to the fast length ``_fast_len`` of the full size.
    This is the one place where the engine's grids pick up round-off
    below zero or outside the true support: every value at or below
    ``_FFT_FLOOR`` times the largest is set to exactly zero, so the result
    is nonnegative and zero wherever the exact convolution is.

    ``_spectra``, when given, is a dict its caller keeps for the kernel
    ``a`` alone.  It holds a's spectrum at the last FFT shape used, so a
    solver convolving one kernel with a new grid every iteration
    transforms the kernel once per shape.  Two rules keep the result
    bitwise the same with or without a kept spectrum:

    - the product is ``np.multiply(kernel_spectrum, grid_spectrum)`` in
      that operand order.  The SIMD complex multiply is not bitwise
      commutative, and ``x * y`` may reuse a temporary right operand by
      swapping the two.
    - the scaled result is a contiguous copy of the inverse transform's
      slice, never the strided slice scaled in place: ``mass`` and the
      solver's sums run in a different pairwise order over a strided grid.
    """
    h = _common_step(a, b)
    full = [n + m - 1 for n, m in zip(a.values.shape, b.values.shape)]
    fast = tuple(_fast_len(n) for n in full)
    _check_cells(fast)
    axes = tuple(range(len(full)))
    kernel = None if _spectra is None else _spectra.get(fast)
    if kernel is None:
        kernel = np.fft.rfftn(a.values, fast, axes)
        if _spectra is not None:
            _spectra.clear()
            _spectra[fast] = kernel
    spectrum = np.fft.rfftn(b.values, fast, axes)
    np.multiply(kernel, spectrum, out=spectrum)
    # each transform is dropped once the next exists, so the solver's heap
    # holds one spectrum less at its peak and can shrink after the solve
    del kernel
    whole = np.fft.irfftn(spectrum, fast, axes)
    del spectrum
    vals = whole[tuple(map(slice, full))] * h**a.dim
    del whole
    vals[vals <= _FFT_FLOOR * vals.max()] = 0.0
    return GridDensity([p + q for p, q in zip(a.start, b.start)], h, vals)


def _apply_family(family, g: GridDensity, spectra=None) -> GridDensity:
    """The convolution family * g on the grid of g, a new grid: summed
    shifted copies for an atomic family, an FFT convolution for a uniform
    one.  ``family`` may also be a GridDensity, a family already rastered
    at g's step; ``spectra`` is the dict of its kept spectrum (see
    ``convolve_grids``)."""
    if isinstance(family, UniformFamily):
        family = family_as_grid(family, g.step)
    if isinstance(family, GridDensity):
        return convolve_grids(family, g, _spectra=spectra)
    shifted = [(shift_grid(g, loc), w) for loc, w in _atoms(family)]
    pieces = [GridDensity(p.start, p.step, p.values * w) for p, w in shifted]
    return functools.reduce(add_grids, pieces)


def average_step(family: TranslationFamily, A, m):
    """One application of the averaging operator: family * (A.m)."""
    Am = pushforward(_as_linear(A), m)
    if isinstance(m, GridDensity):
        return _apply_family(family, Am)._rescale(family.total_mass * m.mass)
    if isinstance(family, UniformFamily):
        raise TypeError(
            "a uniform family smears atoms into a continuous measure; "
            "use a GridDensity argument instead"
        )
    atoms = []
    for floc, fw in _atoms(family):
        shift = _axes(floc)
        for loc, w in Am.atoms:
            atoms.append((_point([p + q for p, q in zip(_axes(loc), shift)]), w * fw))
    return DiscreteMeasure(atoms)


def solve_invariant_atoms(
    family: DiscreteMeasure,
    A,
    depth: int,
    atom_cap: int = 2_000_000,
) -> DiscreteMeasure:
    """Atoms of the depth-truncated convolution product of the maps A^l
    applied to the family, i.e. ``depth`` averaging steps from the family
    itself.  Atom locations within 1e-12 merge; exceeding ``atom_cap``
    raises ResourceCapError."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not isinstance(family, DiscreteMeasure):
        raise TypeError("atom solver needs a finite family")
    mu = family
    n_atoms = len(mu)
    for _ in range(depth):
        projected = n_atoms * len(family)
        if projected > atom_cap:
            raise ResourceCapError(
                f"atom count would exceed cap {atom_cap} "
                f"(next step needs about {projected})"
            )
        mu = average_step(family, A, mu)
        n_atoms = len(mu)
    return mu


def solve_density(h: GridDensity, A, tol: float = 1e-8, max_iter: int = 500) -> GridDensity:
    """Invariant density of the family rastered as ``h`` under the linear
    contraction A: the one-component case of ``solve_mc_density``.

    ``h`` must have mass 1 (condition CA for one component).  The grid
    iteration g <- h * A.g starts from a unit spike at the origin,
    renormalizes to mass 1 every step, and stops once the L1 change drops
    below tol; otherwise it raises ConvergenceError after ``max_iter``
    steps.
    """
    if abs(h.mass - 1.0) > 1e-9:
        raise ValueError(f"family density must have mass 1, got {h.mass}")
    (g,) = grid_fixed_point(
        _as_linear(A), [[h]], [1.0], h.step, tol, max_iter, "density iteration"
    )
    return g


def grid_fixed_point(fmap, sigma, masses, step, tol, max_iter, what, on_iterate=None) -> tuple:
    """Iterate omega_i <- sum_j sigma_ij * fmap.omega_j on grids of the
    given step, from spikes of mass ``masses[i]`` in the cell containing
    the origin, renormalizing component i to ``masses[i]`` every step.

    ``fmap`` must contract.  ``sigma`` entries are families, rastered
    families (GridDensity) or None.  Stops when the largest per-component
    L1 change drops below tol; ``on_iterate(l, components)`` is called
    after every iteration when given.  Raises ConvergenceError, naming
    ``what``, after ``max_iter`` iterations.
    """
    r = fmap.factor
    if not 0 < r < 1:
        raise ValueError(f"need a contraction, got factor {r}")
    comps = tuple(point_mass_grid((0.0,) * fmap.dim, step, m) for m in masses)
    # the kept kernel spectrum of each entry, for this solve only
    spectra = [[{} for _ in row] for row in sigma]
    delta = None
    for it in range(1, max_iter + 1):
        pushed = [pushforward(fmap, g) for g in comps]
        new = []
        for row, kept, mass in zip(sigma, spectra, masses):
            pieces = [
                _apply_family(e, g, s) for e, g, s in zip(row, pushed, kept) if e is not None
            ]
            new.append(functools.reduce(add_grids, pieces)._rescale(mass))
        delta = max(l1_distance(a, b) for a, b in zip(new, comps))
        comps = tuple(new)
        if on_iterate is not None:
            on_iterate(it, comps)
        if delta < tol:
            return comps
    raise ConvergenceError(
        f"{what} did not reach tol={tol} in {max_iter} steps",
        last_delta=delta,
        metric="L1 change",
    )


# ---------------------------------------------------------------------------
# Fourier products


def _family_hat(family: TranslationFamily, k):
    """Mass-normalized transform of the family at frequency k: a float,
    or an array of frequencies transformed elementwise."""
    if isinstance(family, DiscreteMeasure):
        return sum(
            w * np.exp(-2j * np.pi * k * loc) for loc, w in family.atoms
        ) / family.total_mass
    if family.dim != 1:
        raise ValueError("fourier_hat supports 1D families only")
    region = family.region.as_float()
    total = region.measure()
    acc = 0.0 + 0.0j
    length = 0.0  # the value at k = 0, summed and divided as floats
    for lo, hi in region.intervals:
        length += hi - lo
        center = (lo + hi) / 2
        half = (hi - lo) / 2
        # integral of exp(-2 pi i k x) over [lo, hi]
        acc += (hi - lo) * np.exp(-2j * np.pi * k * center) * np.sinc(2 * k * half)
    return np.where(k == 0, length / total, acc / total)


def fourier_hat(family: TranslationFamily, a: float, k, n_terms: int):
    """Truncated infinite product for the invariant measure's transform:
    the product over l < n_terms of the family transform at a**l * k.

    ``k`` is a float, giving a complex, or an array of frequencies, giving
    a complex array of the same shape with every element equal to the
    float call's value."""
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if getattr(family, "dim", 1) != 1:
        raise ValueError("fourier_hat supports 1D families only")
    a = float(a)
    re, im = 1.0, 0.0
    freq = np.asarray(k, dtype=float)
    for _ in range(n_terms):
        hat = _family_hat(family, freq)
        # the complex product written out: numpy's complex array multiply
        # may fuse it (FMA) and round differently from the scalar one
        re, im = re * hat.real - im * hat.imag, re * hat.imag + im * hat.real
        freq = freq * a
    if freq.ndim == 0:
        return complex(re, im)
    out = np.asarray(re, dtype=complex)
    out.imag = im
    return out

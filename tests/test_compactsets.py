import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsim.compactsets import (
    IFSSystem,
    TranslationFamilyMap,
    apply_affine,
    hausdorff_distance,
    iterate_attractor,
    verify_exact_fixed_point,
)
from selfsim.compactsets import _directed_1d
from selfsim.core import HALF_SQRT2, AffineMap, IntervalSet, QuadRat
from selfsim.errors import ConvergenceError
from selfsim.measures import UniformFamily, raster_interval_set, raster_polygon, raster_region
from selfsim.polygons import ConvexPolygon
from selfsim.systems import builtin

ALPHA = QuadRat(1, 1)
ALPHA_CONJ = QuadRat(1, -1)

W = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)
W1 = IntervalSet.closed(HALF_SQRT2 - 1, HALF_SQRT2)
W2 = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2 - 1)


def grid_hausdorff_1d(U, V, step=1e-3):
    """Brute-force oracle: directed sup-min over dense grids of both sets."""

    def points(S):
        pts = []
        for lo, hi in S.intervals:
            lo, hi = float(lo), float(hi)
            n = max(1, int((hi - lo) / step))
            pts.extend(lo + (hi - lo) * k / n for k in range(n + 1))
        return pts

    pu, pv = points(U), points(V)
    d_uv = max(min(abs(x - y) for y in pv) for x in pu)
    d_vu = max(min(abs(x - y) for y in pu) for x in pv)
    return max(d_uv, d_vu)


def silver_two_component_system():
    A = AffineMap(ALPHA_CONJ, 0)
    return IFSSystem(
        [
            [[A, AffineMap(ALPHA_CONJ, ALPHA_CONJ + 1)], [A]],
            [[AffineMap(ALPHA_CONJ, ALPHA_CONJ)], []],
        ]
    )


def convex_hull(points):
    """Vertices of the convex hull of float points (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def sampled_hausdorff(p, q, per_edge=256):
    """Reference 2D Hausdorff distance of two convex polygons: the directed
    distances are maximized over the vertices plus ``per_edge`` evenly
    spaced boundary samples per edge."""

    def boundary(poly):
        v = np.array(poly.vertices, dtype=float)
        w = np.roll(v, -1, axis=0)
        t = (np.arange(per_edge) / per_edge)[None, :, None]
        return (v[:, None, :] + t * (w - v)[:, None, :]).reshape(-1, 2)

    def distance_to(pts, poly):
        a = np.array(poly.vertices, dtype=float)
        e = np.roll(a, -1, axis=0) - a
        rel = pts[:, None, :] - a[None, :, :]
        cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
        # an edge whose squared length underflows to zero is its start point
        ee = np.broadcast_to((e * e).sum(axis=1)[None], cross.shape)
        along = (rel * e[None]).sum(axis=2)
        t = np.clip(np.divide(along, ee, out=np.zeros_like(along), where=ee > 0), 0.0, 1.0)
        gap = rel - t[:, :, None] * e[None]
        d = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
        return np.where((cross >= 0).all(axis=1), 0.0, d)

    return max(
        float(distance_to(boundary(p), q).max()), float(distance_to(boundary(q), p).max())
    )


def octagon_window():
    half = QuadRat(1, 0, 2)
    ah = ALPHA / 2
    return ConvexPolygon(
        [
            (ah, half), (half, ah), (-half, ah), (-ah, half),
            (-ah, -half), (-half, -ah), (half, -ah), (ah, -half),
        ]
    )


class TestIntervalSet:
    def test_touching_intervals_merge_exactly(self):
        s = IntervalSet([(0, 1), (1, 2)])
        assert s.intervals == IntervalSet.closed(0, 2).intervals

    def test_float_merge_epsilon(self):
        s = IntervalSet([(0.0, 1.0), (1.0 + 5e-13, 2.0)])
        assert len(s.intervals) == 1
        s2 = IntervalSet([(0.0, 1.0), (1.0 + 1e-6, 2.0)])
        assert len(s2.intervals) == 2

    def test_exact_gap_not_merged(self):
        s = IntervalSet([(Fraction(0), Fraction(1)), (Fraction(1, 1) + Fraction(1, 10**15), 2)])
        assert len(s.intervals) == 2

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            IntervalSet([(1, 0)])

    def test_measure_and_hull(self):
        s = IntervalSet([(0, 1), (2, 4)])
        assert s.measure() == 3
        assert s.bbox() == (0, 4)

    def test_mixed_exact_types(self):
        s = IntervalSet([(QuadRat(0, 0), Fraction(1, 2)), (Fraction(1, 2), HALF_SQRT2)])
        assert s.is_exact
        assert len(s.intervals) == 1
        assert s.measure() == HALF_SQRT2
        assert s.contains(QuadRat(-1, 1)) and not s.contains(QuadRat(1, 0))
        # a point of Z[sqrt2] against Fraction endpoints
        half = IntervalSet.closed(Fraction(-1, 2), Fraction(1, 2))
        assert half.contains(QuadRat(0, 0)) and half.contains(QuadRat(-1, 1))
        assert not half.contains(QuadRat(1, 0))

    def test_scale_flips_orientation(self):
        s = IntervalSet.closed(1, 2).linear_image(-1)
        assert s.intervals == IntervalSet.closed(-2, -1).intervals


def quadratic_directed_1d(upairs, vpairs) -> float:
    """sup over x in U of d(x, V), scanning every interval of V for every
    candidate: the reference the bisected ``_directed_1d`` must match."""

    def dist(x):
        best = None
        for lo, hi in vpairs:
            d = max(lo - x, x - hi, 0.0)
            if best is None or d < best:
                best = d
        return best

    candidates = []
    for lo, hi in upairs:
        candidates.append(lo)
        candidates.append(hi)
    for k in range(len(vpairs) - 1):
        mid = 0.5 * (vpairs[k][1] + vpairs[k + 1][0])
        if any(lo <= mid <= hi for lo, hi in upairs):
            candidates.append(mid)
    return max(dist(x) for x in candidates)


# endpoints from a few values, so that touching, repeated and degenerate
# intervals (and both signed zeros) come up often
ENDPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 5e-324, 2.0 / 3.0]),
    st.floats(-1e3, 1e3),
)


def sorted_pairs(values) -> list:
    """Consecutive pairs of the sorted values: a sorted list of intervals,
    each one's hi at most the next one's lo, as the floats of an exact
    IntervalSet may be."""
    values = sorted(values)
    return [(values[k], values[k + 1]) for k in range(0, len(values) - 1, 2)]


class TestHausdorff1D:
    def test_singletons(self):
        assert hausdorff_distance(IntervalSet.point(0), IntervalSet.point(3)) == 3.0

    def test_identical(self):
        u = IntervalSet.closed(0, 1)
        assert hausdorff_distance(u, u) == 0.0

    def test_disjoint_intervals(self):
        assert hausdorff_distance(
            IntervalSet.closed(0, 1), IntervalSet.closed(2, 4)
        ) == pytest.approx(3.0)

    def test_gap_midpoint_case(self):
        # the farthest point of U from V sits mid-gap, not at an endpoint
        u = IntervalSet.closed(0, 10)
        v = IntervalSet([(0, 1), (9, 10)])
        assert hausdorff_distance(u, v) == pytest.approx(4.0)

    def test_against_grid_oracle(self):
        u = IntervalSet([(0.0, 0.7), (1.3, 2.0)])
        v = IntervalSet([(0.4, 1.1), (1.8, 2.6)])
        exact = hausdorff_distance(u, v)
        assert abs(exact - grid_hausdorff_1d(u, v, step=5e-3)) < 1e-2

    def test_dimension_mismatch(self):
        with pytest.raises(TypeError):
            hausdorff_distance(IntervalSet.point(0), ConvexPolygon.point(0, 0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=8),
        st.lists(st.floats(-5, 5), min_size=2, max_size=8),
        st.lists(st.floats(-5, 5), min_size=2, max_size=8),
    )
    def test_metric_axioms(self, xs, ys, zs):
        def mk(vals):
            vals = sorted(vals)
            return IntervalSet(
                [(vals[k], vals[k + 1]) for k in range(0, len(vals) - 1, 2)]
            )

        u, v, w = mk(xs), mk(ys), mk(zs)
        duv = hausdorff_distance(u, v)
        assert duv == hausdorff_distance(v, u)
        assert hausdorff_distance(u, u) == 0.0
        assert duv <= hausdorff_distance(u, w) + hausdorff_distance(w, v) + 1e-9

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(ENDPOINTS, min_size=2, max_size=24),
        st.lists(ENDPOINTS, min_size=2, max_size=24),
    )
    def test_bisection_matches_the_quadratic_scan_bit_for_bit(self, xs, ys):
        u, v = sorted_pairs(xs), sorted_pairs(ys)
        for a, b in ((u, v), (v, u)):
            got, want = _directed_1d(a, b), quadratic_directed_1d(a, b)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got.hex() == want.hex()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.01, 2), st.floats(-3, 3), st.floats(0.01, 2)),
            min_size=1,
            max_size=5,
        )
    )
    def test_union_bound(self, quads):
        us = [IntervalSet.closed(a, a + da) for a, da, _, _ in quads]
        vs = [IntervalSet.closed(b, b + db) for _, _, b, db in quads]
        union_u = us[0]
        union_v = vs[0]
        for u in us[1:]:
            union_u = union_u.union(u)
        for v in vs[1:]:
            union_v = union_v.union(v)
        bound = max(hausdorff_distance(u, v) for u, v in zip(us, vs))
        assert hausdorff_distance(union_u, union_v) <= bound + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-0.99, 0.99),
        st.floats(-2, 2),
        st.floats(-3, 3),
        st.floats(0.01, 2),
        st.floats(-3, 3),
        st.floats(0.01, 2),
    )
    def test_lipschitz_transport(self, a, t, ulo, ulen, vlo, vlen):
        f = AffineMap(a, t)
        u = IntervalSet.closed(ulo, ulo + ulen)
        v = IntervalSet.closed(vlo, vlo + vlen)
        lhs = hausdorff_distance(apply_affine(f, u), apply_affine(f, v))
        assert lhs <= abs(a) * hausdorff_distance(u, v) + 1e-9


class TestApplyAffine:
    def test_contraction_flips_window(self):
        f = AffineMap(ALPHA_CONJ, 0)
        image = apply_affine(f, W)
        lo = QuadRat(-2, 1, 2)   # 1/sqrt2 - 1
        hi = QuadRat(2, -1, 2)   # 1 - 1/sqrt2
        assert image == IntervalSet.closed(lo, hi)
        assert image.is_exact

    def test_identity(self):
        f = AffineMap(1, 0)
        s = IntervalSet([(0, 1), (2, 3)])
        assert apply_affine(f, s) == s

    def test_silver_w1_to_w2(self):
        f = AffineMap(ALPHA_CONJ, ALPHA_CONJ)
        assert apply_affine(f, W1) == W2

    def test_family_map_covers_window(self):
        fam = TranslationFamilyMap(ALPHA_CONJ, IntervalSet.closed(ALPHA_CONJ, -ALPHA_CONJ))
        assert apply_affine(fam, W) == W


class TestIterateAttractor:
    def test_single_map_collapses_to_point(self):
        system = IFSSystem.single([AffineMap(0.5, 0.0)])
        sets, iters, delta = iterate_attractor(system, IntervalSet.closed(0, 1), 1e-10)
        assert delta < 1e-10
        assert hausdorff_distance(sets[0], IntervalSet.point(0.0)) < 1e-9

    def test_three_map_system_fills_window(self):
        ac = float(ALPHA_CONJ)
        system = IFSSystem.single(
            [AffineMap(ac, ac), AffineMap(ac, 0.0), AffineMap(ac, -ac)]
        )
        sets, _, _ = iterate_attractor(system, IntervalSet.closed(-1, 1), 1e-10)
        assert hausdorff_distance(sets[0], W.as_float()) < 1e-9

    def test_silver_two_component(self):
        system = silver_two_component_system()
        seeds = [IntervalSet.closed(-1, 1), IntervalSet.closed(-1, 1)]
        sets, iters, delta = iterate_attractor(system, seeds, 1e-11, max_iter=60)
        assert iters <= 60
        assert hausdorff_distance(sets[0], W1.as_float()) < 1e-9
        assert hausdorff_distance(sets[1], W2.as_float()) < 1e-9

    def test_seed_independence(self):
        system = silver_two_component_system()
        tol = 1e-10
        a, _, _ = iterate_attractor(
            system, [IntervalSet.closed(-1, 1)] * 2, tol
        )
        b, _, _ = iterate_attractor(
            system, [IntervalSet.closed(-0.9, 0.8), IntervalSet.closed(-2, 2)], tol
        )
        for x, y in zip(a, b):
            assert hausdorff_distance(x, y) <= 2 * tol

    def test_fragmenting_seed_hits_piece_cap(self):
        from selfsim.errors import ResourceCapError

        system = silver_two_component_system()
        seeds = [IntervalSet.point(0.3), IntervalSet.point(-0.5)]
        with pytest.raises(ResourceCapError):
            iterate_attractor(system, seeds, 1e-12, max_pieces=500)

    def test_non_convergence_carries_delta(self):
        system = IFSSystem.single([AffineMap(0.9, 0.0)])
        with pytest.raises(ConvergenceError) as exc:
            iterate_attractor(system, IntervalSet.closed(0, 100), 1e-12, max_iter=3)
        assert exc.value.last_delta is not None
        assert exc.value.last_delta > 1e-12

    def test_system_validation(self):
        with pytest.raises(ValueError):
            IFSSystem([[[]]])
        with pytest.raises(ValueError):
            IFSSystem.single([AffineMap(1.2, 0.0)])


class TestVerifyExactFixedPoint:
    def test_silver_attractor_verifies(self):
        check = verify_exact_fixed_point(silver_two_component_system(), (W1, W2))
        assert check.ok
        assert check.mismatches == ()

    def test_shifted_candidate_fails(self):
        shifted = W1.translate(Fraction(1, 10))
        check = verify_exact_fixed_point(silver_two_component_system(), (shifted, W2))
        assert not check
        assert any("component 0" in m for m in check.mismatches)

    def test_translation_family_window(self):
        fam = TranslationFamilyMap(ALPHA_CONJ, IntervalSet.closed(ALPHA_CONJ, -ALPHA_CONJ))
        system = IFSSystem.single([fam])
        assert verify_exact_fixed_point(system, W).ok

    def test_rejects_float_candidate(self):
        with pytest.raises(ValueError):
            verify_exact_fixed_point(silver_two_component_system(), (W1.as_float(), W2))

    def test_planar_octagon_verifies(self):
        b = builtin("ammann-beenker")
        check = verify_exact_fixed_point(b.ifs, b.exact_attractor)
        assert check.ok
        assert check.mismatches == ()

    def test_shifted_octagon_fails(self):
        b = builtin("ammann-beenker")
        (window,) = b.exact_attractor
        check = verify_exact_fixed_point(b.ifs, window.translate((Fraction(1, 10), 0)))
        assert not check
        assert any("component 0" in m for m in check.mismatches)

    def test_rejects_float_polygon(self):
        b = builtin("ammann-beenker")
        (window,) = b.exact_attractor
        with pytest.raises(ValueError):
            verify_exact_fixed_point(b.ifs, window.as_float())


class TestConvexPolygon:
    def test_ccw_normalization(self):
        cw = ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        ccw = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert cw == ccw
        assert cw.measure() == Fraction(1)

    def test_collinear_vertices_dropped(self):
        p = ConvexPolygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert len(p.vertices) == 4

    def test_nonconvex_raises(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])

    def test_octagon_area(self):
        w = octagon_window()
        # edge-1 regular octagon: area 2(1 + sqrt2)
        assert w.measure() == QuadRat(2, 2)
        assert w.is_exact

    def test_contains(self):
        w = octagon_window()
        assert w.contains((0, 0))
        assert w.contains((ALPHA / 2, Fraction(1, 2)))
        assert not w.contains((2, 0))

    def test_point_contains_exactly(self):
        # a one-vertex polygon compares exactly, as IntervalSet.contains does
        p = ConvexPolygon.point(Fraction(1, 3), 0)
        assert p.contains((Fraction(1, 3), 0))
        assert not p.contains((Fraction(1, 3) + Fraction(1, 10**30), 0))
        assert p.contains((Fraction(1, 3) + Fraction(1, 10**30), 0), eps=Fraction(1, 10**30))
        assert ConvexPolygon.point(ALPHA, 0).contains((ALPHA, 0))
        assert not ConvexPolygon.point(ALPHA, 0).contains((Fraction(2.414213562373095), 0))

    def test_affine_orientation_flip(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        flipped = sq.linear_image(((-1, 0), (0, 1)))
        assert flipped.measure() == Fraction(1)
        assert flipped == ConvexPolygon([(-1, 0), (0, 0), (0, 1), (-1, 1)])

    def test_minkowski_squares(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        double = sq.minkowski(sq)
        assert double == ConvexPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])

    def test_minkowski_octagon_scaling(self):
        # for convex W: sW + (1-s)W = W
        w = octagon_window()
        s = QuadRat(1, 0, 3)
        part1 = w.linear_image(((s, 0), (0, s)))
        t = 1 - s
        part2 = w.linear_image(((t, 0), (0, t)))
        assert part1.minkowski(part2) == w

    def test_erode_by_scaled_self(self):
        w = octagon_window()
        ac = ALPHA_CONJ
        inner = w.linear_image(((ac, 0), (0, ac)))
        region = w.erode(inner)
        scale = QuadRat(2, -1)  # 2 - sqrt2
        expected = w.linear_image(((scale, 0), (0, scale)))
        assert region == expected

    def test_erode_empty(self):
        small = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        big = ConvexPolygon([(0, 0), (3, 0), (3, 3), (0, 3)])
        assert small.erode(big) is None

    def test_erode_by_itself_is_origin(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        region = sq.erode(sq)
        assert region is not None
        assert region.vertices == ((0, 0),)

    def test_support_function(self):
        w = octagon_window()
        assert w.support((1, 0)) == ALPHA / 2
        assert w.support((0, -1)) == ALPHA / 2


def bits(v):
    """A value as compared below: itself when exact, its hex digits when a
    float, so float results must agree bit for bit (the sign of zero too)."""
    if isinstance(v, tuple):
        return tuple(map(bits, v))
    return v.hex() if isinstance(v, float) else v


def region_bits(region):
    pieces = region.intervals if isinstance(region, IntervalSet) else region.vertices
    return type(region), bits(pieces)


def former_measure(region):
    # the interval length and the polygon area as they were written
    if isinstance(region, IntervalSet):
        total = region.intervals[0][1] - region.intervals[0][0]
        for lo, hi in region.intervals[1:]:
            total = total + (hi - lo)
        return total
    verts = region.vertices
    doubled = None
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        term = x0 * y1 - x1 * y0
        doubled = term if doubled is None else doubled + term
    return Fraction(doubled, 2) if isinstance(doubled, int) else doubled / 2


def former_bbox(region):
    # the interval hull as it was written, and the polygon's box from its vertices
    if isinstance(region, IntervalSet):
        return (region.intervals[0][0], region.intervals[-1][1])
    xs, ys = zip(*region.vertices)
    return (min(xs), min(ys), max(xs), max(ys))


EXACT = (int, Fraction, QuadRat)


def former_linear_image(region, a):
    # the interval scaling as it was written; the polygon's vertex map
    if isinstance(region, IntervalSet):
        if not (region.is_exact and isinstance(a, EXACT)):
            a = float(a)
            pairs = [(a * float(lo), a * float(hi)) for lo, hi in region.intervals]
        else:
            pairs = [(a * lo, a * hi) for lo, hi in region.intervals]
        return IntervalSet(pairs if a >= 0 else [(hi, lo) for lo, hi in pairs])
    return former_affine(region, a, (0, 0))


def former_affine(region, a, t):
    # the scaled interval set translated, on the line; the vertex map in the plane
    if isinstance(region, IntervalSet):
        return former_linear_image(region, a).translate(t)
    (p, q), (r, s) = a
    verts = region.vertices
    if not (region.is_exact and all(isinstance(v, EXACT) for v in (p, q, r, s, *t))):
        p, q, r, s, t = float(p), float(q), float(r), float(s), (float(t[0]), float(t[1]))
        verts = [(float(x), float(y)) for x, y in verts]
    return ConvexPolygon([(p * x + q * y + t[0], r * x + s * y + t[1]) for x, y in verts])


_OCTAGON = builtin("ammann-beenker").window
REGIONS = {
    "exact-interval": W1,
    "exact-intervals": IntervalSet([(Fraction(-3, 2), 0), (Fraction(1, 3), 2)]),
    "float-interval": IntervalSet.closed(1 - math.sqrt(2), math.sqrt(2) - 1),
    "float-intervals": IntervalSet([(-0.7071067811865476, 0.3), (0.45, 1.1)]),
    "exact-octagon": _OCTAGON,
    "exact-triangle": ConvexPolygon([(0, 0), (Fraction(3, 2), 0), (0, Fraction(1, 3))]),
    "float-octagon": _OCTAGON.as_float(),
    "float-quadrilateral": ConvexPolygon([(-0.3, -0.2), (0.9, -0.1), (0.7, 0.8), (-0.1, 0.6)]),
}
# (linear part, translation) pairs of each dimension, exact and float
AFFINE_PARTS = {
    1: [(ALPHA_CONJ, HALF_SQRT2), (Fraction(-1, 3), 2), (2, Fraction(1, 7)),
        (1 - math.sqrt(2), 0.1), (0.5, -0.0), (-0.25, ALPHA)],
    2: [(((ALPHA_CONJ, 0), (0, ALPHA_CONJ)), (HALF_SQRT2, Fraction(1, 3))),
        (((Fraction(1, 2), Fraction(-1, 4)), (Fraction(1, 4), Fraction(1, 2))), (0, 1)),
        (((0.5, -0.25), (0.25, 0.5)), (0.125, -0.0)),
        (((1 - math.sqrt(2), 0), (0, 1 - math.sqrt(2))), (ALPHA, 0.3))],
}


class TestRegionInterface:
    @pytest.mark.parametrize("name", REGIONS)
    def test_regions_answer_as_the_former_expressions(self, name):
        region = REGIONS[name]
        dim = 1 if isinstance(region, IntervalSet) else 2
        assert region.dim == type(region).dim == UniformFamily(region.as_float(), 1.0).dim == dim
        assert bits(region.measure()) == bits(former_measure(region))
        assert bits(region.bbox()) == bits(former_bbox(region))
        for a, t in AFFINE_PARTS[dim]:
            image, former = region.linear_image(a), former_linear_image(region, a)
            assert region_bits(image) == region_bits(former)
            image, former = region.affine(a, t), former_affine(region, a, t)
            assert region_bits(image) == region_bits(former)
        direct = raster_interval_set if dim == 1 else raster_polygon
        h = 1e-2 if dim == 1 else 0.05
        got, want = raster_region(region, h, 0.75), direct(region, h, 0.75)
        assert (got.start, got.step) == (want.start, want.step)
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()


class TestHausdorff2D:
    def test_identical_squares(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert hausdorff_distance(sq, sq) == 0.0

    def test_translated_squares(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        moved = sq.translate((3, 0))
        assert hausdorff_distance(sq, moved) == pytest.approx(3.0)

    def test_concentric_octagons(self):
        w = octagon_window()
        s = float(QuadRat(2, -1))
        inner = w.linear_image(((s, 0), (0, s)))
        circumradius = math.sqrt((float(ALPHA) / 2) ** 2 + 0.25)
        expected = (1 - s) * circumradius
        assert hausdorff_distance(w, inner) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=3, max_size=10),
        st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=3, max_size=10),
        st.sampled_from(["free", "nested", "disjoint"]),
        st.floats(0.05, 0.95),
    )
    def test_convex_pairs_match_boundary_sampling(self, pts, other, relation, shrink):
        try:
            p = ConvexPolygon(convex_hull(pts))
            if relation == "nested":
                cx, cy = np.mean(p.vertices, axis=0)
                other = [(cx + shrink * (x - cx), cy + shrink * (y - cy)) for x, y in p.vertices]
            elif relation == "disjoint":
                other = [(x + 25.0, y - 3.0) for x, y in other]
            q = ConvexPolygon(convex_hull(other))
        except ValueError:
            assume(False)  # collinear or rounding-degenerate points bound no area
        ref = sampled_hausdorff(p, q)
        assert hausdorff_distance(p, q) == pytest.approx(ref, rel=1e-12)
        assert hausdorff_distance(q, p) == pytest.approx(ref, rel=1e-12)

    def test_union_of_parts(self):
        a = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = a.translate((5, 0))
        # sup over the union of distance-to-a is taken on b's right edge
        d = hausdorff_distance((a, b), a)
        assert d == pytest.approx(5.0, abs=1e-12)

"""The float filter of the lattice enumeration against per-point exact tests.

Every membership test of ``enumerate_quad_range``, ``enumerate_cyclo_box``
and ``project_points`` is read from floats only outside a rounding margin.
The references below are the per-point exact algorithms written out: a
scan of a complete coefficient box with exact ``QuadRat`` comparisons, and
the exact disk and window tests one candidate at a time.  The cases put
lattice points exactly on the ball boundary and on window edges and
endpoints, or within a few ulps of them, where floats alone get the sign
wrong; the ``exact_calls`` fixture shows that those cases reach the exact
stage of their test.  ``TestExactSigns`` checks the signs themselves.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsim import modelsets, numberfields
from selfsim.core import SQRT2, IntervalSet, QuadRat
from selfsim.modelsets import CutProjectScheme, project_points
from selfsim.numberfields import cyclo_exact, enumerate_cyclo_box, enumerate_quad_range
from selfsim.polygons import ConvexPolygon
from selfsim.systems import builtin

ALPHA = QuadRat(1, 1)
SILVER = CutProjectScheme.silver()
OCTAGONAL = CutProjectScheme.octagonal()


def quads(rows) -> list:
    """The ring elements of (a, b) coefficient rows."""
    return [QuadRat(*row) for row in rows.tolist()]


def cyclos(rows) -> list:
    """The (c0, c1, c2, c3) coefficient rows as tuples."""
    return list(map(tuple, rows.tolist()))


def nudged(value: float, ulps: int) -> Fraction:
    """The float ``ulps`` steps above (below, if negative) value, exactly."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return Fraction(value)


def exact_quad_range(phys_lo, phys_hi, star_lo, star_hi):
    """Scan every a + b*sqrt2 that can qualify: |a| = |x + x*|/2 and
    |b| = |x - x*|/(2 sqrt2) are at most the largest bound m."""
    bounds = [Fraction(x) for x in (phys_lo, phys_hi, star_lo, star_hi)]
    plo, phi, slo, shi = map(QuadRat.from_fraction, bounds)
    m = max(map(abs, bounds))
    out = []
    for a in range(-math.floor(m) - 1, math.floor(m) + 2):
        for b in range(-math.floor(m / SQRT2) - 1, math.floor(m / SQRT2) + 2):
            x = QuadRat(a, b)
            if plo <= x <= phi and slo <= x.star() <= shi:
                out.append(QuadRat(a, b))
    return sorted(out, key=lambda x: (x.embed(), x.a, x.b))


def exact_cyclo_box(phys_bound, star_bound):
    """Scan every element that can qualify: |c0|, |c2| <= (P + S)/2 and
    |c1|, |c3| <= (P + S)/sqrt2."""
    pq = QuadRat.from_fraction(Fraction(phys_bound))
    sq = QuadRat.from_fraction(Fraction(star_bound))
    total = float(phys_bound) + float(star_bound)
    even = range(-math.floor(total / 2) - 1, math.floor(total / 2) + 2)
    odd = range(-math.floor(total / SQRT2) - 1, math.floor(total / SQRT2) + 2)
    out = []
    for c0 in even:
        for c1 in odd:
            for c2 in even:
                for c3 in odd:
                    row = (c0, c1, c2, c3)
                    re, im, sre, sim = cyclo_exact(*row)
                    if all(-pq <= t <= pq for t in (re, im)) and all(
                        -sq <= t <= sq for t in (sre, sim)
                    ):
                        out.append((float(re), float(im), row))
    return [row for *_, row in sorted(out)]


def exact_project(scheme, window, radius):
    """The enumerator's candidates, then the exact ball and window tests
    one point at a time (float windows keep their eps=1e-12 test)."""
    r = Fraction(radius)
    if scheme.phys_dim == 1:
        lo, hi = float(window.lo) - 1e-6, float(window.hi) + 1e-6
        candidates = quads(enumerate_quad_range(-r, r, lo, hi))
        if window.is_exact:
            return [x for x in candidates if window.contains(x.star(), eps=0)]
        return [x for x in candidates if window.contains(x.embed_star(), eps=1e-12)]
    star_bound = max(abs(float(v)) for v in window.bbox()) + 1e-6
    rsq = QuadRat(r.numerator**2, 0, r.denominator**2)
    out = []
    for row in cyclos(enumerate_cyclo_box(r, star_bound)):
        re, im, sre, sim = cyclo_exact(*row)
        if re * re + im * im > rsq:
            continue
        if window.is_exact:
            inside = window.contains((sre, sim), eps=0)
        else:
            inside = window.contains((float(sre), float(sim)), eps=1e-12)
        if inside:
            out.append(row)
    return out


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts of the exact decisions the float filter falls back on, by the
    role of the test that takes them: the line or plane enumerator's box,
    project_points' window, or the disk of its patch or of a Weyl ball.
    Each exact decision is one QuadRat sign taken inside that test; the
    float stage takes none."""
    calls = Counter()
    roles = []
    sign = QuadRat.sign

    def counted_sign(self):
        if roles:
            calls[roles[-1]] += 1
        return sign(self)

    def in_role(owner, name, role_of):
        # each role's test, patched where its caller looks it up
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            roles.append(role_of(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                roles.pop()

        monkeypatch.setattr(owner, name, counted)

    monkeypatch.setattr(QuadRat, "sign", counted_sign)
    in_role(numberfields, "_form_signs",
            lambda rows, forms: ("line box", "plane box")[rows.shape[1] == 4])
    in_role(modelsets, "_form_signs", lambda rows, forms: "window")
    in_role(modelsets, "_disk_signs", lambda forms, rows, rsq, centre=None: "disk")
    return calls


def star_point(c) -> tuple:
    return cyclo_exact(*c)[2:]


def square(t) -> ConvexPolygon:
    return ConvexPolygon([(t, t), (-t, t), (-t, -t), (t, -t)])


# ---------------------------------------------------------------------------
# boundary cases: the margin path runs and decides as the exact test does


class TestBoundaryCases:
    def test_star_bound_a_few_ulps_from_a_lattice_image(self, exact_calls):
        # float(1 - sqrt2) is ~1.7 ulps below alpha*, so alpha* lies above
        # the next float up, while the floats put it one ulp below
        lo = nudged(1 - SQRT2, 1)
        got = quads(enumerate_quad_range(-3, 3, lo, 1))
        assert exact_calls["line box"] > 0
        assert ALPHA in got
        assert got == exact_quad_range(-3, 3, lo, 1)

    def test_box_bound_a_few_ulps_from_a_lattice_coordinate(self, exact_calls):
        # |re(x)| = sqrt2 - 1 for x = 1 - xi + xi^3; the float SQRT2 - 1 is
        # ~1.7 ulps above it, so x fits under the next float down, while the
        # floats put it one ulp outside
        bound = nudged(SQRT2 - 1, -1)
        got = cyclos(enumerate_cyclo_box(bound, Fraction(11, 4)))
        assert exact_calls["plane box"] > 0
        assert (1, -1, 0, 1) in got
        assert got == exact_cyclo_box(bound, Fraction(11, 4))

    def test_box_bounds_through_lattice_points(self, exact_calls):
        # 2 + xi^2 sits at (2, 1), its star image at (2, -1)
        got = cyclos(enumerate_cyclo_box(2, 2))
        assert exact_calls["plane box"] > 0
        assert (2, 0, 1, 0) in got
        assert got == exact_cyclo_box(2, 2)

    def test_window_endpoints_on_lattice_images(self, exact_calls):
        # alpha* sits exactly on the lower endpoint of [alpha*, 0], 0 on the upper
        window = IntervalSet.closed(QuadRat(1, -1), QuadRat(0, 0))
        got = quads(project_points(SILVER, window, 3))
        assert exact_calls["window"] > 0
        assert ALPHA in got and QuadRat(0, 0) in got
        assert got == exact_project(SILVER, window, 3)

    def test_window_endpoint_a_few_ulps_from_a_lattice_image(self, exact_calls):
        window = IntervalSet.closed(nudged(1 - SQRT2, 1), 0)
        got = quads(project_points(SILVER, window, 3))
        assert exact_calls["window"] > 0
        assert ALPHA in got
        assert got == exact_project(SILVER, window, 3)

    @pytest.mark.parametrize(
        "radius, on_circle",
        [(5, (3, 0, 4, 0)), (3, (0, 3, 0, 0)), (3, (-1, 2, 0, 2))],
    )
    def test_lattice_points_on_the_circle(self, exact_calls, radius, on_circle):
        # |x| = radius exactly; for 3 xi the floats put |x|**2 above 9
        window = square(Fraction(radius))
        got = cyclos(project_points(OCTAGONAL, window, radius))
        assert exact_calls["disk"] > 0
        assert on_circle in got
        assert got == exact_project(OCTAGONAL, window, radius)

    def test_window_edges_through_lattice_images(self, exact_calls):
        # corners (+-t, +-t) with t = 1 + 1/sqrt2: (t, t) is the star image of
        # 1 - xi^2 + xi^3, and more star images lie on every edge
        t = QuadRat(2, 1, 2)
        assert star_point((1, 0, -1, 1)) == (t, t)
        window = square(t)
        got = cyclos(project_points(OCTAGONAL, window, 6))
        assert exact_calls["window"] > 0
        assert sum(t in map(abs, star_point(x)) for x in got) > 4
        assert got == exact_project(OCTAGONAL, window, 6)

    def test_triangle_of_lattice_images(self, exact_calls):
        # the slanted edge from 0 to the star image of 4 + 4 xi passes
        # through that of 2 + 2 xi
        corners = [(0, 0, 0, 0), (4, 4, 0, 0), (0, 0, 3, 0)]
        window = ConvexPolygon([star_point(c) for c in corners])
        got = cyclos(project_points(OCTAGONAL, window, 5))
        assert exact_calls["window"] > 0
        assert (2, 2, 0, 0) in got
        assert got == exact_project(OCTAGONAL, window, 5)

    def test_window_edges_too_large_for_the_filter(self, exact_calls):
        # vertices with 2**52 denominators give edge forms whose integer
        # terms could pass 2**53, so the filter leaves them to the exact stage;
        # each kept point had its edge signs decided there
        t = nudged(SQRT2 / 2 + 0.1, 1)
        window = ConvexPolygon([(t, t), (-t, t / 3), (-t, -t), (Fraction(2, 7), -2 * t)])
        got = cyclos(project_points(OCTAGONAL, window, 6.5))
        assert len(got) > 10
        assert exact_calls["window"] >= len(got)
        assert got == exact_project(OCTAGONAL, window, 6.5)

    @pytest.mark.parametrize("as_float", [False, True])
    def test_point_window_at_a_lattice_image(self, exact_calls, as_float):
        window = ConvexPolygon.point(*star_point((1, 1, 0, 0)))
        if as_float:
            window = window.as_float()
        got = cyclos(project_points(OCTAGONAL, window, 3))
        if as_float:
            # decided by its float test, as every float window is
            assert exact_calls["window"] == 0
        else:
            assert exact_calls["window"] > 0
        assert got == [(1, 1, 0, 0)] == exact_project(OCTAGONAL, window, 3)

    def test_builtin_windows_need_no_exact_test(self, exact_calls):
        # no lattice image lies on the octagon or on the ends of [-1/sqrt2, 1/sqrt2]
        for name, radius in (("ammann-beenker", 12), ("silver", 500)):
            b = builtin(name)
            assert len(project_points(b.scheme, b.window, radius))
        assert sum(exact_calls.values()) == 0


# ---------------------------------------------------------------------------
# properties over both rings

small = st.integers(-3, 3)
quad_elements = st.builds(QuadRat, small, small)
ulps = st.integers(-3, 3)
quad_bounds = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(-6, 6, max_denominator=12),
    st.builds(lambda x, k: nudged(x.embed(), k), quad_elements, ulps),
)
# coefficients in -1..1 keep every coordinate within 1 + sqrt2
unit = st.integers(-1, 1)
cyclo_elements = st.tuples(unit, unit, unit, unit)


def ordered(pair):
    return tuple(sorted(pair))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(quad_bounds, quad_bounds).map(ordered),
        st.tuples(quad_bounds, quad_bounds).map(ordered),
    )
    def test_quad_range(self, phys, star):
        assert quads(enumerate_quad_range(*phys, *star)) == exact_quad_range(*phys, *star)

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 2).map(Fraction),
            st.builds(lambda c, k: nudged(abs(float(cyclo_exact(*c)[0])), k), cyclo_elements, ulps),
        ),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(1 / SQRT2)]),
    )
    def test_cyclo_box(self, phys, star):
        assert cyclos(enumerate_cyclo_box(phys, star)) == exact_cyclo_box(phys, star)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(quad_elements.map(lambda x: x.star()), quad_bounds),
            min_size=2, max_size=4,
        ),
        st.one_of(
            st.integers(1, 12),
            quad_elements.map(lambda x: abs(x.embed())).filter(lambda r: r > 0),
        ),
        st.booleans(),
    )
    def test_quad_project(self, ends, radius, as_float):
        pairs = [ordered(ends[k:k + 2]) for k in range(0, len(ends) - 1, 2)]
        window = IntervalSet(pairs)
        if as_float:
            window = window.as_float()
        got = quads(project_points(SILVER, window, radius))
        assert got == exact_project(SILVER, window, radius)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.lists(cyclo_elements, min_size=3, max_size=3),
                  cyclo_elements.map(lambda c: [c])),
        st.one_of(
            st.integers(1, 4),
            cyclo_elements.map(lambda c: math.hypot(*map(float, cyclo_exact(*c)[:2]))).filter(
                lambda r: r > 0),
        ),
        st.booleans(),
    )
    def test_cyclo_project(self, corners, radius, as_float):
        # triangles of lattice star images, whose edges pass through more of
        # them, and points at lattice star images, whose axes do too
        try:
            window = ConvexPolygon([star_point(c) for c in corners])
        except ValueError:  # collinear corners
            assume(False)
        if as_float:
            window = window.as_float()
        got = cyclos(project_points(OCTAGONAL, window, radius))
        assert got == exact_project(OCTAGONAL, window, radius)


# ---------------------------------------------------------------------------
# the signs themselves: exact on every row, inside the float margin too

FORMS = {"quad": numberfields.SILVER_FORMS, "cyclo": numberfields.OCTAGONAL_FORMS}


@st.composite
def rows_and_bound(draw):
    """Coefficient rows of one scheme and a point o of its coordinate space,
    each coordinate of o on that of one of the rows or a few ulps from it
    (or a small fraction), so that some rows lie on a bound or next to it."""
    forms = FORMS[draw(st.sampled_from(sorted(FORMS)))]
    k = len(forms[0])
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                         min_size=1, max_size=6))
    coords = [numberfields.exact_coordinates(forms, row) for row in rows]
    o = [draw(st.one_of(st.builds(near, st.sampled_from([xs[j] for xs in coords]), ulps),
                        st.fractions(-6, 6, max_denominator=12)))
         for j in range(k)]
    return forms, rows, coords, o


def near(x, ulps: int):
    """x itself, or the float ``ulps`` steps from float(x), exactly."""
    return x if ulps == 0 else nudged(float(x), ulps)


coefficients = st.one_of(
    st.builds(QuadRat, small, small, st.integers(1, 4)),
    # a 2**52 denominator: terms too large for the float stage
    st.builds(lambda k: nudged(0.5, k), st.integers(1, 3)),
)


class TestExactSigns:
    @settings(max_examples=60, deadline=None)
    @given(rows_and_bound(), st.data())
    def test_form_signs(self, case, data):
        # the least sign over one to three half-spaces through the same point
        forms, rows, coords, o = case
        k = len(forms[0])
        first = data.draw(st.integers(0, k - 1))
        normal = st.lists(st.one_of(st.just(0), coefficients),
                          min_size=k - first, max_size=k - first)
        normals = data.draw(st.lists(normal.filter(lambda n: any(t != 0 for t in n)),
                                     min_size=1, max_size=3))
        got = numberfields._form_signs(
            np.array(rows, dtype=np.int64),
            numberfields._linear_forms(forms, [(n, o[first:]) for n in normals], first))
        want = [min(sum((t * (x - c) for t, x, c in zip(n, xs[first:], o[first:])),
                        QuadRat(0)).sign() for n in normals)
                for xs in coords]
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(rows_and_bound(), st.data())
    def test_disk_signs(self, case, data):
        forms, rows, coords, _ = case
        d = len(forms[0]) // 2
        # the origin, or a float centre on or next to the rows' coordinates
        centre = data.draw(st.one_of(st.none(), st.lists(
            st.one_of(st.builds(lambda x, k: float(nudged(float(x), k)),
                                st.sampled_from([x for xs in coords for x in xs[:d]]), ulps),
                      st.fractions(-6, 6, max_denominator=12).map(float)),
            min_size=d, max_size=d)))
        c = [Fraction(0)] * d if centre is None else list(map(Fraction, centre))
        norms = [sum(((x - t) * (x - t) for x, t in zip(xs, c)), QuadRat(0)) for xs in coords]
        # on the circle through a row, a few ulps off it, or a rational square
        rsq = data.draw(st.one_of(
            st.sampled_from(norms),
            st.builds(near, st.sampled_from(norms), ulps),
            st.builds(lambda x, n: QuadRat.from_fraction(nudged(math.sqrt(float(x)), n) ** 2),
                      st.sampled_from(norms), ulps),
        ))
        got = numberfields._disk_signs(forms, np.array(rows, dtype=np.int64), rsq, centre)
        assert got.tolist() == [(rsq - norm).sign() for norm in norms]

    @pytest.mark.parametrize("forms", sorted(FORMS.values()))
    @pytest.mark.parametrize("coordinate", [1e-300, 5e-324, 2.0**600])
    def test_disk_signs_about_centres_the_filter_cannot_size(self, forms, coordinate):
        # a centre coordinate outside [2**-500, 2**500] leaves every row to
        # the exact stage, whose sign is still exact
        d = len(forms[0]) // 2
        rows = np.array([[1] * len(forms[0]), [0] * len(forms[0])], dtype=np.int64)
        centre = (coordinate,) + (0.5,) * (d - 1)
        c = list(map(Fraction, centre))
        xs = numberfields.exact_coordinates(forms, rows[0].tolist())[:d]
        rsq = sum(((x - t) * (x - t) for x, t in zip(xs, c)), QuadRat(0))
        got = numberfields._disk_signs(forms, rows, rsq, centre)
        assert got[0] == 0
        origin = sum(((0 - t) * (0 - t) for t in c), QuadRat(0))
        assert got[1] == (rsq - origin).sign()

"""Schemes, model-set enumeration, substitution cross-checks, Weyl sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim.core import HALF_SQRT2, SQRT2, IntervalSet, QuadRat
from selfsim.measures import raster_interval_set, raster_polygon
from selfsim.modelsets import (
    CutProjectScheme,
    crosscheck_modelset,
    gram_covolume,
    project_points,
    theoretical_density,
    weyl_average,
)
from selfsim.numberfields import enumerate_cyclo_box, enumerate_quad_range, exact_coordinates
from selfsim.padic import SUBSTITUTION_COUNTS
from selfsim.polygons import ConvexPolygon
from selfsim.substitutions import (
    SILVER_RULE,
    SubstitutionRule,
    displacements,
    maximal_translation_region,
    substitution_orbit,
)
from selfsim.systems import builtin

ALPHA = QuadRat(1, 1)  # 1 + sqrt2
W_LO_1 = QuadRat(-2, 1, 2)  # 1/sqrt2 - 1
W1 = IntervalSet.closed(W_LO_1, HALF_SQRT2)
W2 = IntervalSet.closed(-HALF_SQRT2, W_LO_1)
W = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)

TERNARY_RULE = SubstitutionRule(
    ("a", "b", "c"), {"a": "ab", "b": "abc", "c": "abcc"}, {"a": 1, "b": 2, "c": 3}
)

# physical translation sets of the silver inflation system, per component
SILVER_TRANSLATIONS = (
    ((QuadRat(0, 0), QuadRat(2, 1)), (QuadRat(0, 0),)),
    ((QuadRat(1, 1),), None),
)


def octagon_window() -> ConvexPolygon:
    half = Fraction(1, 2)
    ha = QuadRat(1, 1, 2)  # alpha / 2
    return ConvexPolygon(
        [
            (ha, half),
            (half, ha),
            (-half, ha),
            (-ha, half),
            (-ha, -half),
            (-half, -ha),
            (half, -ha),
            (ha, -half),
        ]
    )


def quads(rows) -> list:
    """The ring elements of (a, b) coefficient rows."""
    return [QuadRat(*row) for row in rows.tolist()]


def letter_frequencies(rule, steps=200):
    """Perron oracle: occurrence counts per letter, power-iterated."""
    letters = rule.alphabet
    counts = np.array(
        [[rule.images[t].count(u) for t in letters] for u in letters], dtype=float
    )
    v = np.ones(len(letters))
    for _ in range(steps):
        v = counts @ v
        v /= v.sum()
    return dict(zip(letters, v))


class TestScheme:
    def test_silver_covolume(self):
        assert abs(CutProjectScheme.silver().covolume - 2 * math.sqrt(2)) < 1e-12

    def test_identity_embedding_covolume(self):
        assert abs(gram_covolume([[1, 0], [0, 1]]) - 1.0) < 1e-15

    def test_octagonal_covolume(self):
        assert abs(CutProjectScheme.octagonal().covolume - 4.0) < 1e-9

    def test_octagonal_covolume_against_point_density(self):
        scheme = CutProjectScheme.octagonal()
        window = octagon_window()
        radius = 15
        points = project_points(scheme, window, radius)
        empirical = len(points) / (math.pi * radius**2)
        expected = float(window.measure()) / scheme.covolume
        assert abs(empirical - expected) < 0.15 * expected

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            gram_covolume([[1, 1], [2, 2]])


# up to the enumerators' coefficient limit, where int64 and float64 stay exact
coefficient = st.integers(-(2**50), 2**50)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=8))
    def test_quad_rows_are_the_embeddings_bit_for_bit(self, rows):
        got = CutProjectScheme.silver().coordinates(np.array(rows, dtype=np.int64))
        want = [[QuadRat(*r).embed(), QuadRat(*r).embed_star()] for r in rows]
        assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[coefficient] * 4), min_size=1, max_size=8))
    def test_cyclo_rows_are_the_embeddings_bit_for_bit(self, rows):
        got = CutProjectScheme.octagonal().coordinates(np.array(rows, dtype=np.int64))
        s = SQRT2 / 2.0
        # x and its star image x* = c0 + c3*xi - c2*xi^2 + c1*xi^3, expanded with xi = s + i*s
        want = [[c0 + (c1 - c3) * s, c2 + (c1 + c3) * s, c0 + (c3 - c1) * s, -c2 + (c3 + c1) * s]
                for c0, c1, c2, c3 in rows]
        assert np.array_equal(bits(got), bits(want))

    def test_no_rows(self):
        for scheme, k in ((CutProjectScheme.silver(), 2), (CutProjectScheme.octagonal(), 4)):
            coords = scheme.coordinates(np.empty((0, k), dtype=np.int64))
            assert coords.shape == (0, k)


def test_results_hold_one_row_per_point():
    # a traced benchmark run counts the points of these results by len()
    results = (
        (enumerate_quad_range(-50, 50, -1, 1), 2),
        (enumerate_cyclo_box(6, 2), 4),
        (project_points(CutProjectScheme.silver(), W, 50), 2),
        (project_points(CutProjectScheme.octagonal(), octagon_window(), 6), 4),
    )
    for rows, k in results:
        assert rows.dtype == np.int64 and rows.shape[1:] == (k,)
        assert len(rows) == rows.shape[0] == len({tuple(r) for r in rows.tolist()}) > 10
    for rows, k in ((enumerate_quad_range(1, 0, -1, 1), 2), (enumerate_cyclo_box(-1, 1), 4)):
        assert len(rows) == 0 and rows.shape == (0, k)


class TestProjectPoints:
    def test_silver_window_radius_5(self):
        points = quads(project_points(CutProjectScheme.silver(), W, 5))
        expected = {QuadRat(0, 0), ALPHA, -ALPHA, QuadRat(2, 1), QuadRat(-2, -1)}
        assert set(points) == expected
        assert [float(x) for x in points] == sorted(float(x) for x in points)

    def test_silver_w2_radius_5(self):
        points = quads(project_points(CutProjectScheme.silver(), W2, 5))
        assert set(points) == {ALPHA, QuadRat(-2, -1)}

    def test_point_window_outside_ring(self):
        window = IntervalSet.point(Fraction(1, 3))
        assert quads(project_points(CutProjectScheme.silver(), window, 5)) == []

    def test_boundary_membership_is_exact(self):
        # alpha* sits exactly on the upper endpoint of a [alpha*, 0] window
        window = IntervalSet.closed(QuadRat(1, -1), QuadRat(0, 0))
        points = quads(project_points(CutProjectScheme.silver(), window, 3))
        assert ALPHA in points and QuadRat(0, 0) in points

    @pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
    def test_non_finite_radius_is_refused_by_name(self, radius):
        for scheme, window in (
            (CutProjectScheme.silver(), W),
            (CutProjectScheme.octagonal(), octagon_window()),
        ):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                project_points(scheme, window, radius)

    def test_window_type_checked(self):
        with pytest.raises(TypeError):
            project_points(CutProjectScheme.silver(), octagon_window(), 5)
        with pytest.raises(TypeError):
            project_points(CutProjectScheme.octagonal(), W, 5)


class TestSubstitution:
    def test_inflation_factor_silver(self):
        assert float(SILVER_RULE.inflation) == pytest.approx(float(ALPHA))

    def test_inflation_factor_ternary(self):
        assert float(TERNARY_RULE.inflation) == 3.0

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            SubstitutionRule(("a", "b"), {"a": "aba", "b": "a"}, {"a": 2, "b": 1})

    def test_silver_fixed_point_word(self):
        orbit = substitution_orbit(SILVER_RULE, ("a", "a"), 3)
        assert orbit.right_word == "abaaabaabaabaaaba"
        assert orbit.left_word == orbit.right_word[::-1]  # palindromic centre

    def test_ternary_fixed_point_words(self):
        orbit = substitution_orbit(TERNARY_RULE, ("c", "a"), 4)
        assert orbit.right_word.startswith("ababcababcabccababcababc")
        assert orbit.left_word.endswith("babcabccabccababcabccabcc")

    def test_zero_generations_seed_coordinates(self):
        orbit = substitution_orbit(SILVER_RULE, ("a", "a"), 0)
        assert orbit.positions["a"] == (-ALPHA, QuadRat(0, 0))
        assert orbit.positions["b"] == ()

    def test_right_endpoints_ternary_seed(self):
        orbit = substitution_orbit(TERNARY_RULE, ("c", "a"), 0, endpoint="right")
        assert orbit.positions["a"] == (1,)
        assert orbit.positions["c"] == (0,)

    def test_each_generation_extends_the_previous(self):
        prev = substitution_orbit(SILVER_RULE, ("a", "a"), 2)
        nxt = substitution_orbit(SILVER_RULE, ("a", "a"), 3)
        assert nxt.right_word.startswith(prev.right_word)
        assert nxt.left_word.endswith(prev.left_word)

    def test_illegal_seed(self):
        with pytest.raises(ValueError):
            substitution_orbit(SILVER_RULE, ("b", "a"), 2)

    def test_silver_displacements(self):
        # a -> aba puts a at 0 and 2 + sqrt2, b at 1 + sqrt2; b -> a puts a at 0
        assert displacements(SILVER_RULE) == [
            [(QuadRat(0), QuadRat(2, 1)), (QuadRat(0),)],
            [(QuadRat(1, 1),), ()],
        ]

    def test_padic_counts_are_the_ternary_substitution_matrix(self):
        # entry [i][j] counts letter i in the image of letter j
        letters = TERNARY_RULE.alphabet
        counts = [[TERNARY_RULE.images[j].count(i) for j in letters] for i in letters]
        assert counts == [list(row) for row in SUBSTITUTION_COUNTS]
        assert [[len(d) for d in row] for row in displacements(TERNARY_RULE)] == counts


class TestCrosscheck:
    def test_silver_radius_50(self):
        scheme = CutProjectScheme.silver()
        orbit = substitution_orbit(SILVER_RULE, ("a", "a"), 4)
        assert float(orbit.hi) > 50 and float(orbit.lo) < -50
        for positions, window in (
            (orbit.positions["a"], W1),
            (orbit.positions["b"], W2),
            (orbit.all_positions(), W),
        ):
            report = crosscheck_modelset(
                positions, quads(project_points(scheme, window, 50)), 50
            )
            assert report.equal, (report.only_left, report.only_right)
            assert report.count_left > 10

    def test_clipping_at_the_radius_is_exact(self):
        # a point 2**-40 past the radius is outside the ball, as in project_points
        past = Fraction(500) + Fraction(1, 2**40)
        for point in (past, -past, QuadRat(500 * 2**40 + 1, 0, 2**40)):
            report = crosscheck_modelset([point, 3], [3], 500)
            assert report.equal and report.count_left == 1, report
        report = crosscheck_modelset([Fraction(500), QuadRat(-500)], [], 500)
        assert report.count_left == 2
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius must be finite"):
                crosscheck_modelset([past], [], radius)

    def test_swapped_windows_disagree(self):
        scheme = CutProjectScheme.silver()
        orbit = substitution_orbit(SILVER_RULE, ("a", "a"), 4)
        report = crosscheck_modelset(
            orbit.positions["a"], quads(project_points(scheme, W2, 50)), 50
        )
        assert not report.equal

    def test_ternary_radius_200_against_congruence_formulas(self):
        # frozen oracle: the three 3-adic congruence unions, right endpoints
        def lam1(n):
            return any(n % 3**k == (3 ** (k - 1) - 1) // 2 % 3**k for k in range(2, 9))

        def lam2(n):
            return any(
                n % 3**k == (2 + (3 ** (k - 1) - 1) // 2) % 3**k for k in range(2, 9)
            )

        def lam3(n):
            if n % 9 == 0:
                return True
            return any(
                n % 3**k == (-((3 ** (k - 1) - 3) // 2)) % 3**k for k in range(3, 9)
            )

        orbit = substitution_orbit(TERNARY_RULE, ("c", "a"), 5, endpoint="right")
        assert orbit.hi >= 200 and orbit.lo <= -200
        for letter, member in (("a", lam1), ("b", lam2), ("c", lam3)):
            formula_points = [n for n in range(-200, 201) if member(n)]
            report = crosscheck_modelset(orbit.positions[letter], formula_points, 200)
            assert report.equal, (letter, report.only_left[:5], report.only_right[:5])


class TestMaximalRegion:
    def test_silver_w1_w1(self):
        region = maximal_translation_region(W1, W1, QuadRat(1, -1))
        assert region == IntervalSet.closed(0, QuadRat(2, -1))

    def test_silver_w2_w1_singleton(self):
        region = maximal_translation_region(W2, W1, QuadRat(1, -1))
        assert region == IntervalSet.point(QuadRat(1, -1))

    def test_silver_w2_w2_nonempty_by_the_interval_formula(self):
        # the literal formula gives [2 alpha*, sqrt2 - 2]; silver-mc-max keeps
        # this entry empty all the same, as the image of b holds no b
        region = maximal_translation_region(W2, W2, QuadRat(1, -1))
        assert region == IntervalSet.closed(QuadRat(2, -2), QuadRat(-2, 1))

    def test_silver_w_w_is_the_silver_max_region(self):
        region = maximal_translation_region(W, W, QuadRat(1, -1))
        assert region == IntervalSet.closed(QuadRat(1, -1), QuadRat(-1, 1))
        (((declared,),),) = builtin("silver-max").ifs.maps
        assert declared.family == region

    def test_only_the_target_window_must_be_one_interval(self):
        # the hull [0, 3] of the target would give [0, 3], though b = 3/2
        # puts the image of the point in the gap (1, 2)
        gapped = IntervalSet([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="target window W_i has 2 intervals"):
            maximal_translation_region(gapped, IntervalSet.point(0), Fraction(1, 2))
        # a source A W_j + b lies in an interval exactly when its hull does
        region = maximal_translation_region(IntervalSet.closed(0, 4), gapped, Fraction(1, 2))
        assert region == IntervalSet.closed(0, Fraction(5, 2))

    def test_too_wide_image_gives_none(self):
        region = maximal_translation_region(W2, W, QuadRat(1, -1))
        assert region is None

    def test_octagon_erosion(self):
        window = octagon_window()
        region = maximal_translation_region(window, window, QuadRat(1, -1))
        expected = window.linear_image(((QuadRat(2, -1), 0), (0, QuadRat(2, -1))))
        assert region.vertices == expected.vertices

    def test_inclusion_when_sampled(self):
        region = maximal_translation_region(W1, W1, QuadRat(1, -1))
        a = float(QuadRat(1, -1))
        lo, hi = float(W1.lo), float(W1.hi)
        for w in np.linspace(lo, hi, 9):
            for b in np.linspace(float(region.lo), float(region.hi), 9):
                assert lo - 1e-12 <= a * w + b <= hi + 1e-12


class TestDensity:
    def test_silver_full_window(self):
        scheme = CutProjectScheme.silver()
        assert abs(theoretical_density(scheme, W) - 0.5) < 1e-12

    def test_silver_a_window(self):
        scheme = CutProjectScheme.silver()
        expected = 1 / (2 * math.sqrt(2))
        assert abs(theoretical_density(scheme, W1) - expected) < 1e-12

    def test_matches_perron_tile_frequencies(self):
        freqs = letter_frequencies(SILVER_RULE)
        avg_len = freqs["a"] * float(ALPHA) + freqs["b"] * 1.0
        scheme = CutProjectScheme.silver()
        assert abs(theoretical_density(scheme, W) - 1 / avg_len) < 1e-9
        assert abs(theoretical_density(scheme, W1) - freqs["a"] / avg_len) < 1e-9

    def test_zero_measure_window(self):
        scheme = CutProjectScheme.silver()
        assert theoretical_density(scheme, IntervalSet.point(Fraction(1, 3))) == 0.0


@pytest.fixture(scope="module")
def silver_patch():
    scheme = CutProjectScheme.silver()
    return scheme, project_points(scheme, W, 5600)


@pytest.fixture(scope="module")
def patches():
    scheme = CutProjectScheme.silver()
    return {
        0: quads(project_points(scheme, W1, 50)),
        1: quads(project_points(scheme, W2, 50)),
    }


class TestWeyl:
    def test_indicator_average_tends_to_density(self, silver_patch):
        scheme, points = silver_patch
        g = raster_interval_set(W.as_float(), 1e-3, float(W.measure()))
        rows = weyl_average(scheme, points, g, radii=(500, 5000))
        by_radius = {row.radius: row for row in rows}
        assert abs(by_radius[5000].average - 0.5) < 2e-3
        assert by_radius[5000].abs_error < by_radius[500].abs_error
        assert by_radius[500].limit == pytest.approx(
            g.mass / scheme.covolume, abs=1e-15
        )

    def test_sub_window_indicator(self, silver_patch):
        scheme, points = silver_patch
        g = raster_interval_set(W1.as_float(), 1e-3, float(W1.measure()))
        rows = weyl_average(scheme, points, g, radii=(5000,))
        assert abs(rows[0].average - 1 / (2 * math.sqrt(2))) < 2e-3

    def test_centers_agree(self, silver_patch):
        scheme, points = silver_patch
        g = raster_interval_set(W.as_float(), 1e-3, float(W.measure()))
        rows = weyl_average(scheme, points, g, radii=(500,), centers=(0.0, 1000.0))
        assert abs(rows[0].average - rows[1].average) < 10 / 500

    def test_planar_default_center_is_the_origin(self):
        b = builtin("ammann-beenker")
        points = project_points(b.scheme, b.window, 8)
        g = raster_polygon(b.window, 0.05, float(b.window.measure()))
        (row,) = weyl_average(b.scheme, points, g, (3.0,))
        assert row.center == (0.0, 0.0)
        assert row == weyl_average(b.scheme, points, g, (3.0,), centers=((0.0, 0.0),))[0]
        # a number shifts along the first axis, as in the CLI
        shifted = weyl_average(b.scheme, points, g, (3.0,), centers=(1.5,))
        assert shifted == weyl_average(b.scheme, points, g, (3.0,), centers=((1.5, 0.0),))

    def test_radius_beyond_patch_rejected(self, silver_patch):
        scheme, points = silver_patch
        g = raster_interval_set(W.as_float(), 1e-3, float(W.measure()))
        with pytest.raises(ValueError):
            weyl_average(scheme, points, g, radii=(6000,))

    @pytest.mark.parametrize("system, radius", [
        ("silver", 1e-308),  # 2r is subnormal
        ("silver", 5e-324),
        ("ammann-beenker", 1e-160),  # pi r^2 is subnormal
        ("ammann-beenker", 1e-300),  # pi r^2 underflows to 0
    ])
    def test_radius_whose_volume_underflows_is_named(self, system, radius):
        b = builtin(system)
        points = project_points(b.scheme, b.window, 8)
        if b.scheme.phys_dim == 1:
            g = raster_interval_set(b.window.as_float(), 1e-3, float(b.window.measure()))
        else:
            g = raster_polygon(b.window, 0.05, float(b.window.measure()))
        with pytest.raises(ValueError, match=f"radius {radius!r}"):
            weyl_average(b.scheme, points, g, (3.0, radius))


@pytest.fixture(scope="module", params=["silver", "ammann-beenker"])
def ball_patch(request):
    """A builtin's scheme, a patch of its model set and its rastered window
    indicator, with a centre away from the origin inside the patch."""
    b = builtin(request.param)
    if b.scheme.phys_dim == 1:
        g = raster_interval_set(b.window.as_float(), 1e-3, float(b.window.measure()))
        return b.scheme, project_points(b.scheme, b.window, 210), g, (0.25,)
    g = raster_polygon(b.window, 0.05, float(b.window.measure()))
    return b.scheme, project_points(b.scheme, b.window, 12), g, (0.25, -0.5)


def exact_distances(scheme, points, center) -> list:
    """|x - center|**2 of each point's physical coordinates x, in QuadRat,
    the centre taken at its binary-float value."""
    d = scheme.phys_dim
    c = [Fraction(t) for t in center]
    return [sum(((x - t) * (x - t) for x, t in zip(exact_coordinates(scheme.forms, row)[:d], c)),
                QuadRat(0)) for row in points.tolist()]


def average_over(scheme, points, g, r, inside) -> float:
    """The ball average of g over the points the boolean mask keeps."""
    star = scheme.coordinates(points)[:, scheme.phys_dim:]
    vol = 2 * r if scheme.phys_dim == 1 else math.pi * r * r
    return math.fsum(g.sample(star[inside].T).tolist()) / vol


def oracle_average(scheme, points, g, r, center) -> float:
    """The average over the ball B_r(center), its points chosen one at a
    time by the exact test |x - center|**2 <= r**2."""
    rsq = QuadRat.from_fraction(Fraction(r) ** 2)
    inside = np.array([t <= rsq for t in exact_distances(scheme, points, center)], dtype=bool)
    return average_over(scheme, points, g, r, inside)


class TestWeylBalls:
    def test_point_just_outside_the_ball_is_excluded(self, ball_patch):
        # a window point whose distance from the centre exceeds the radius
        # by ~5e-13: a float test with an absolute slack of 1e-12 keeps it
        scheme, points, g, center = ball_patch
        d = scheme.phys_dim
        star = scheme.coordinates(points)[:, d:]
        dist = exact_distances(scheme, points, center)
        k = min((i for i in range(len(points)) if g.sample(star[i:i + 1].T)[0] > 0.5),
                key=lambda i: abs(float(dist[i]) - 9))
        r = math.sqrt(float(dist[k])) - 5e-13
        assert QuadRat.from_fraction(Fraction(r) ** 2) < dist[k]
        pos = scheme.coordinates(points)[:, :d]
        slack = np.hypot.reduce(np.abs(pos - center), axis=1) <= r + 1e-12
        assert slack[k]
        (row,) = weyl_average(scheme, points, g, (r,), centers=(center,))
        assert row.average == oracle_average(scheme, points, g, r, center)
        assert row.average != average_over(scheme, points, g, r, slack)

    @pytest.mark.parametrize("center", [100.0, -100.0])
    def test_origin_on_the_line_ball_boundary_stays_in(self, center):
        b = builtin("silver")
        points = project_points(b.scheme, b.window, 210)
        g = raster_interval_set(b.window.as_float(), 1e-3, float(b.window.measure()))
        (row,) = weyl_average(b.scheme, points, g, (100.0,), centers=(center,))
        origin = points.tolist().index([0, 0])
        assert exact_distances(b.scheme, points[origin:origin + 1], (center,)) == [10000]
        without = np.array([t < 10000 for t in exact_distances(b.scheme, points, (center,))])
        assert row.average == oracle_average(b.scheme, points, g, 100.0, (center,))
        assert row.average > average_over(b.scheme, points, g, 100.0, without)

    def test_planar_point_on_the_circle_stays_in(self):
        # 1 sits at distance 5 from (-2, -4), and its star image 1 is in the window
        b = builtin("ammann-beenker")
        points = project_points(b.scheme, b.window, 12)
        g = raster_polygon(b.window, 0.05, float(b.window.measure()))
        center = (-2.0, -4.0)
        (row,) = weyl_average(b.scheme, points, g, (5.0,), centers=(center,))
        assert [1, 0, 0, 0] in points.tolist()
        without = np.array([t < 25 for t in exact_distances(b.scheme, points, center)])
        assert row.average == oracle_average(b.scheme, points, g, 5.0, center)
        assert row.average > average_over(b.scheme, points, g, 5.0, without)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_selection_agrees_with_the_exact_oracle(self, ball_patch, data):
        # radii on, or a few ulps from, the distance of a patch point
        scheme, points, g, center = ball_patch
        d = scheme.phys_dim
        c = data.draw(st.one_of(st.just(center), st.tuples(*[st.floats(-2, 2)] * d)))
        near = [t for t in map(approx, exact_distances(scheme, points, c)) if 0.25 < t < 36]
        r = data.draw(st.one_of(
            st.floats(0.5, 6),
            st.builds(nudged_sqrt, st.sampled_from(near), st.integers(-2, 2)),
        ))
        (row,) = weyl_average(scheme, points, g, (r,), centers=(c,))
        assert row.average == oracle_average(scheme, points, g, r, c)

    def test_center_of_the_wrong_length_is_named(self, ball_patch):
        scheme, points, g, _ = ball_patch
        d = scheme.phys_dim
        with pytest.raises(ValueError, match=f"a Weyl center must be a number or a list of {d}"):
            weyl_average(scheme, points, g, (3.0,), centers=((0.0,) * (d + 1),))


def approx(t: QuadRat) -> float:
    """A float near t, whose denominator may be too large for a float."""
    return float(Fraction(t.a, t.den)) + float(Fraction(t.b, t.den)) * SQRT2


def nudged_sqrt(t: float, ulps: int) -> float:
    """The float sqrt of t, moved ``ulps`` steps."""
    r = math.sqrt(t)
    for _ in range(abs(ulps)):
        r = math.nextafter(r, math.copysign(math.inf, ulps))
    return r


class TestPatchInvariants:
    def test_delone_gaps(self, patches):
        merged = sorted(float(x) for pts in patches.values() for x in pts)
        gaps = np.diff(merged)
        assert gaps.min() > 1 - 1e-9
        assert gaps.max() < float(ALPHA) + 1 + 1e-9

    def test_inflation_closure(self, patches):
        windows = (W1, W2)
        for i in range(2):
            for j in range(2):
                translations = SILVER_TRANSLATIONS[i][j]
                if translations is None:
                    continue
                for x in patches[j]:
                    for t in translations:
                        image = ALPHA * x + t
                        assert windows[i].contains(image.star(), eps=0)

    def test_union_identity_on_core(self, patches):
        # every point of Lambda_i within the patch arises as Q x + t from
        # a patch point of some Lambda_j (sources shrink by 1/alpha)
        for i in range(2):
            images = set()
            for j in range(2):
                translations = SILVER_TRANSLATIONS[i][j]
                if translations is None:
                    continue
                for x in patches[j]:
                    for t in translations:
                        images.add(ALPHA * x + t)
            core = {x for x in patches[i] if abs(float(x)) <= 50}
            clipped = {x for x in images if abs(float(x)) <= 50}
            assert core == clipped

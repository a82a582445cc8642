"""Schemes, model-set enumeration, substitution cross-checks, Weyl sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim.compactsets import ConvexPolygon, IntervalSet
from selfsim.measures import raster_interval_set, raster_polygon
from selfsim.modelsets import (
    CutProjectScheme,
    SubstitutionRule,
    crosscheck_modelset,
    gram_covolume,
    maximal_translation_region,
    project_points,
    substitution_orbit,
    theoretical_density,
    weyl_average,
)
from selfsim.numberfields import (
    HALF_SQRT2,
    SQRT2,
    QuadInt,
    QuadRat,
    enumerate_cyclo_box,
    enumerate_quad_range,
)
from selfsim.systems import builtin

ALPHA = QuadInt(1, 1)  # 1 + sqrt2
W_LO_1 = QuadRat(QuadInt(-2, 1), 2)  # 1/sqrt2 - 1
W1 = IntervalSet.closed(W_LO_1, HALF_SQRT2)
W2 = IntervalSet.closed(-HALF_SQRT2, W_LO_1)
W = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)

SILVER_RULE = SubstitutionRule(
    ("a", "b"), {"a": "aba", "b": "a"}, {"a": ALPHA, "b": 1}
)
TERNARY_RULE = SubstitutionRule(
    ("a", "b", "c"), {"a": "ab", "b": "abc", "c": "abcc"}, {"a": 1, "b": 2, "c": 3}
)

# physical translation sets of the silver inflation system, per component
SILVER_TRANSLATIONS = (
    ((QuadInt(0, 0), QuadInt(2, 1)), (QuadInt(0, 0),)),
    ((QuadInt(1, 1),), None),
)


def octagon_window() -> ConvexPolygon:
    half = Fraction(1, 2)
    ha = QuadRat(QuadInt(1, 1), 2)  # alpha / 2
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
    return [QuadInt(*row) for row in rows.tolist()]


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
        expected = float(window.area) / scheme.covolume
        assert abs(empirical - expected) < 0.15 * expected

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            gram_covolume([[1, 1], [2, 2]])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CutProjectScheme("cubic")


# up to the enumerators' coefficient limit, where int64 and float64 stay exact
coefficient = st.integers(-(2**50), 2**50)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=8))
    def test_quad_rows_are_the_embeddings_bit_for_bit(self, rows):
        got = CutProjectScheme.silver().coordinates(np.array(rows, dtype=np.int64))
        want = [[QuadInt(*r).embed(), QuadInt(*r).embed_star()] for r in rows]
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
        expected = {QuadInt(0, 0), ALPHA, -ALPHA, QuadInt(2, 1), QuadInt(-2, -1)}
        assert set(points) == expected
        assert [float(x) for x in points] == sorted(float(x) for x in points)

    def test_silver_w2_radius_5(self):
        points = quads(project_points(CutProjectScheme.silver(), W2, 5))
        assert set(points) == {ALPHA, QuadInt(-2, -1)}

    def test_point_window_outside_ring(self):
        window = IntervalSet.point(Fraction(1, 3))
        assert quads(project_points(CutProjectScheme.silver(), window, 5)) == []

    def test_boundary_membership_is_exact(self):
        # alpha* sits exactly on the upper endpoint of a [alpha*, 0] window
        window = IntervalSet.closed(QuadInt(1, -1), QuadInt(0, 0))
        points = quads(project_points(CutProjectScheme.silver(), window, 3))
        assert ALPHA in points and QuadInt(0, 0) in points

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
        assert orbit.positions["a"] == (-ALPHA, QuadInt(0, 0))
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
        region = maximal_translation_region(W1, W1, QuadInt(1, -1))
        assert region == IntervalSet.closed(0, QuadInt(2, -1))

    def test_silver_w2_w1_singleton(self):
        region = maximal_translation_region(W2, W1, QuadInt(1, -1))
        assert region == IntervalSet.point(QuadInt(1, -1))

    def test_silver_w2_w2_nonempty_by_the_interval_formula(self):
        # the literal formula gives [2 alpha*, sqrt2 - 2]; the shipped
        # silver-system config keeps this entry empty instead
        region = maximal_translation_region(W2, W2, QuadInt(1, -1))
        assert region == IntervalSet.closed(QuadInt(2, -2), QuadInt(-2, 1))

    def test_too_wide_image_gives_none(self):
        region = maximal_translation_region(W2, W, QuadInt(1, -1))
        assert region is None

    def test_octagon_erosion(self):
        window = octagon_window()
        region = maximal_translation_region(window, window, QuadInt(1, -1))
        expected = window.linear_image(((QuadInt(2, -1), 0), (0, QuadInt(2, -1))))
        assert region.vertices == expected.vertices

    def test_inclusion_when_sampled(self):
        region = maximal_translation_region(W1, W1, QuadInt(1, -1))
        a = float(QuadInt(1, -1))
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
        g = raster_polygon(b.window, 0.05, float(b.window.area))
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

"""Eleven timed guarantees, one pass/fail line each at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; each test
prints ``criterion NN PASS/FAIL (elapsed / budget): label`` and fails if
either the checks or the time budget are violated.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from selfsim.compactsets import (
    AffineMap,
    IntervalSet,
    hausdorff_distance,
    iterate_attractor,
    verify_exact_fixed_point,
)
from selfsim.measures import (
    DiscreteMeasure,
    average_step,
    convolve_grids,
    fourier_hat,
    hutchinson_distance,
    l1_distance,
    pushforward,
    raster_interval_set,
    raster_polygon,
    solve_density,
)
from selfsim.modelsets import (
    CutProjectScheme,
    SubstitutionRule,
    crosscheck_modelset,
    maximal_translation_region,
    project_points,
    substitution_orbit,
    weyl_average,
)
from selfsim.multicomponent import (
    indicator_density_identity,
    mass_vector,
    solve_mc_density,
    verify_nonoverlap,
)
from selfsim.numberfields import HALF_SQRT2, QuadInt
from selfsim.padic import (
    SUBSTITUTION_COUNTS,
    PadicDensity,
    padic_window,
    solve_padic_system,
)
from selfsim.systems import builtin, octagon

AC = 1.0 - math.sqrt(2.0)
R = abs(AC)

W = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)
W1 = IntervalSet.closed(HALF_SQRT2 - 1, HALF_SQRT2)
W2 = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2 - 1)

SILVER_RULE = SubstitutionRule(
    ("a", "b"), {"a": "aba", "b": "a"}, {"a": QuadInt(1, 1), "b": 1}
)
TERNARY_RULE = SubstitutionRule(
    ("a", "b", "c"), {"a": "ab", "b": "abc", "c": "abcc"}, {"a": 1, "b": 2, "c": 3}
)

_CACHE = {}


def quads(rows) -> list:
    """The ring elements of (a, b) coefficient rows."""
    return [QuadInt(*row) for row in rows.tolist()]


@contextmanager
def criterion(number: int, budget: float, label: str):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"criterion {number:02d} {verdict} ({elapsed:.2f}s / {budget:g}s): {label}")
    assert elapsed < budget, f"criterion {number:02d} exceeded its {budget:g}s budget"


def silver_density():
    """The maximal silver density at step 1e-4, solved once and shared."""
    if "silver_g" not in _CACHE:
        h = raster_interval_set(IntervalSet.closed(AC, -AC), 1e-4, 1.0)
        _CACHE["silver_g"] = solve_density(h, AC, tol=1e-8)
    return _CACHE["silver_g"]


def test_criterion_01_exact_two_window_fixed_point():
    with criterion(1, 1.0, "two-window silver fixed point certified exactly"):
        b = builtin("silver-mc-min")
        check = verify_exact_fixed_point(b.ifs, b.exact_attractor)
        assert check.ok, check.mismatches


def test_criterion_02_attractor_iteration_reaches_windows():
    with criterion(2, 1.0, "silver-mc attractor within 1e-9 in at most 60 steps"):
        b = builtin("silver-mc-min")
        seeds = (IntervalSet.closed(-1.0, 1.0), IntervalSet.closed(-1.0, 1.0))
        sets, iters, _ = iterate_attractor(b.ifs, seeds, tol=1e-10, max_iter=60)
        assert iters <= 60
        for got, want in zip(sets, (W1, W2)):
            assert hausdorff_distance(got, want) < 1e-9


def test_criterion_03_averaging_contracts_by_the_silver_rate():
    with criterion(3, 10.0, "averaging step contracts 100 random pairs"):
        family = builtin("silver-min").family
        rng = np.random.default_rng(20260818)
        lo, hi = -float(HALF_SQRT2), float(HALF_SQRT2)
        for _ in range(100):
            pair = []
            for _ in range(2):
                count = int(rng.integers(1, 8))
                locs = rng.uniform(lo, hi, size=count)
                weights = rng.uniform(0.1, 1.0, size=count)
                weights /= weights.sum()
                pair.append(DiscreteMeasure(list(zip(locs, weights))))
            mu, nu = pair
            before = hutchinson_distance(mu, nu)
            after = hutchinson_distance(
                average_step(family, AC, mu), average_step(family, AC, nu)
            )
            assert after <= R * before + 1e-12


def test_criterion_04_silver_maximal_density_properties():
    with criterion(4, 30.0, "maximal density: mass, support, symmetry, residual"):
        g = silver_density()
        h = g.step
        assert abs(g.mass - 1.0) <= 1e-6
        lo, hi = g.support()
        edge = float(HALF_SQRT2)
        assert lo >= -edge - h - 1e-12 and hi <= edge + h + 1e-12
        # the window is symmetric under x -> -x, so the density must be too
        k0 = round(-g.origin / h)
        assert abs(-g.origin / h - k0) < 1e-6
        span = min(k0, len(g.values) - 1 - k0)
        block = g.values[k0 - span : k0 + span + 1]
        assert np.max(np.abs(block - block[::-1])) <= 1e-9
        family_grid = raster_interval_set(IntervalSet.closed(AC, -AC), h, 1.0)
        g_next = convolve_grids(
            family_grid, pushforward(AffineMap(AC, 0.0), g)
        ).renormalized(1.0)
        assert l1_distance(g, g_next) <= 2e-8


def test_criterion_05_transform_of_density_matches_product():
    g = silver_density()  # criterion 4's artifact, solved there
    with criterion(5, 5.0, "grid transform matches the 40-term product"):
        family = builtin("silver-max").family
        xs = g.origin + g.step * np.arange(len(g.values))
        for k in (0.5, 1.0, 2.0, 5.0):
            dft = g.step * np.sum(g.values * np.exp(-2j * np.pi * k * xs))
            product = fourier_hat(family, AC, k, 40)
            assert abs(dft - product) < 1e-4


def test_criterion_06_coupled_component_masses_and_supports():
    with criterion(6, 60.0, "coupled solve: masses (1, sqrt2-1), supports in windows"):
        b = builtin("silver-mc-max")
        sol = solve_mc_density(b.mc, step=2e-4, tol=1e-8)
        assert abs(sol.components[0].mass - 1.0) <= 1e-6
        assert abs(sol.components[1].mass - R) <= 1e-6
        for comp, window in zip(sol.components, (W1, W2)):
            h = comp.step
            lo, hi = comp.support()
            assert lo >= float(window.lo) - h - 1e-12
            assert hi <= float(window.hi) + h + 1e-12


def test_criterion_07_just_touching_certificate():
    with criterion(7, 10.0, "just-touching conditions exact, indicator residual small"):
        b = builtin("silver-mc-min")
        report = verify_nonoverlap(b.mc, (W1, W2))
        assert report.holds, report.failures
        residual = indicator_density_identity(b.mc, (W1, W2), step=1e-4)
        assert residual < 1e-6


def test_criterion_08_substitution_points_equal_projected_points():
    with criterion(8, 10.0, "substitution orbits match window membership"):
        scheme = CutProjectScheme.silver()
        orbit = substitution_orbit(SILVER_RULE, ("a", "a"), 7)
        assert float(orbit.hi) > 500 and float(orbit.lo) < -500
        for positions, window in (
            (orbit.positions["a"], W1),
            (orbit.positions["b"], W2),
            (orbit.all_positions(), W),
        ):
            report = crosscheck_modelset(
                positions, quads(project_points(scheme, window, 500)), 500
            )
            assert report.equal, (report.only_left[:5], report.only_right[:5])
        ternary = substitution_orbit(TERNARY_RULE, ("c", "a"), 5, endpoint="right")
        assert ternary.hi >= 200 and ternary.lo <= -200
        for letter, which in (("a", 1), ("b", 2), ("c", 3)):
            window = padic_window(which, 7)
            members = [n for n in range(-200, 201) if window.contains_integer(n)]
            report = crosscheck_modelset(ternary.positions[letter], members, 200)
            assert report.equal, (letter, report.only_left[:5], report.only_right[:5])


def test_criterion_09_point_densities_and_weighted_averages():
    g = silver_density()  # criterion 4's artifact, solved there
    with criterion(9, 60.0, "ball densities and weighted averages converge"):
        scheme = CutProjectScheme.silver()
        r = 10_000.0
        patch = project_points(scheme, W, r + 1_000.0 + 10.0)
        inside = [x for x in quads(patch) if abs(float(x.embed())) <= r]
        assert abs(len(inside) / (2 * r) - 0.5) < 1e-3
        in_w1 = [x for x in inside if W1.contains(x.star(), eps=0)]
        target = 1.0 / (2.0 * math.sqrt(2.0))
        assert abs(len(in_w1) / (2 * r) - target) < 1e-3
        rows = weyl_average(scheme, patch, g, (r,), centers=(0.0, 1000.0))
        for row in rows:
            assert abs(row.average - target) < 5e-3
        assert abs(rows[0].average - rows[1].average) < 10.0 / r


def test_criterion_10_ternary_closed_form_is_exact():
    with criterion(10, 5.0, "depth-5 coset solve equals the mod-9 closed form"):
        comps = solve_padic_system(5)
        n = 3**5
        for comp, base in zip(comps, (1, 3, 0)):
            want = PadicDensity(
                5, [Fraction(9) if r % 9 == base else Fraction(0) for r in range(n)]
            )
            assert comp == want
            assert comp.mass == Fraction(1)
        m = mass_vector(np.array(SUBSTITUTION_COUNTS, dtype=float) / 3.0)
        assert np.allclose(m, np.ones(3), atol=1e-12)


def test_criterion_11_planar_window_region_and_density():
    with criterion(11, 120.0, "octagon translation region and planar density"):
        window = octagon()
        region = maximal_translation_region(window, window, QuadInt(1, -1))
        shrink = 2.0 - math.sqrt(2.0)
        got = sorted((float(x), float(y)) for x, y in region.vertices)
        want = sorted(
            (shrink * float(x), shrink * float(y)) for x, y in window.vertices
        )
        assert len(got) == 8
        for (gx, gy), (wx, wy) in zip(got, want):
            assert math.hypot(gx - wx, gy - wy) < 1e-9
        step = (1.0 + math.sqrt(2.0)) / 512  # 512 cells across the window
        h_grid = raster_polygon(region.as_float(), step, 1.0)
        g = solve_density(h_grid, ((AC, 0.0), (0.0, AC)), tol=1e-8)
        assert abs(g.mass - 1.0) <= 1e-4
        # support inside the window padded by one cell: check every node
        # carrying mass against the eight half-planes (unit edge vectors,
        # so the cross product is the signed distance)
        win_f = window.as_float()
        verts = np.array(win_f.vertices)
        xs, ys = g.nodes()
        jj, ii = np.nonzero(g.values > 1e-12 * g.values.max())
        px, py = xs[ii], ys[jj]
        for k in range(len(verts)):
            ax, ay = verts[k]
            bx, by = verts[(k + 1) % len(verts)]
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            assert float(cross.min()) > -step - 1e-12
        # eightfold symmetry, sampled well inside the window
        c = s = math.sqrt(0.5)
        samples = [
            (x, y)
            for x in np.linspace(-1.1, 1.1, 61)
            for y in np.linspace(-1.1, 1.1, 61)
            if win_f.contains((x, y), eps=-0.06)
        ]
        worst = 0.0
        for x, y in samples:
            base = g.interpolate((x, y))
            for qx, qy in (
                (c * x - s * y, s * x + c * y),  # rotation by pi/4
                (x, -y),
                (y, x),
            ):
                worst = max(worst, abs(base - g.interpolate((qx, qy))))
        assert worst < 1e-3

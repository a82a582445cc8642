"""Coupled-component mass vectors, grid solving, and tiling certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import null_space

from selfsim.core import HALF_SQRT2, IntervalSet, QuadRat
from selfsim.errors import CompatibilityError, ConvergenceError
from selfsim.measures import (
    DiscreteMeasure,
    UniformFamily,
    add_grids,
    convolve_grids,
    family_as_grid,
    l1_distance,
    pushforward,
    raster_interval_set,
    shift_grid,
    solve_density,
)
from selfsim.multicomponent import (
    MCSystem,
    _choose_step,
    _null_space,
    indicator_density_identity,
    mass_vector,
    mc_fourier_matrix,
    solve_mc_density,
    verify_nonoverlap,
)
from selfsim.polygons import ConvexPolygon

AC = 1.0 - math.sqrt(2.0)
R = abs(AC)

# windows of the two-component silver system, exactly
W1X = IntervalSet.closed(QuadRat(-2, 1, 2), HALF_SQRT2)
W2X = IntervalSet.closed(QuadRat(0, -1, 2), QuadRat(-2, 1, 2))

SILVER_S = np.array([[2 * R, R], [R, 0.0]])


def perron_vector(s, steps=5000):
    """Power-iteration oracle for the positive fixed vector, first entry 1."""
    v = np.ones(s.shape[0])
    for _ in range(steps):
        w = s @ v
        v = w / np.linalg.norm(w)
    return v / v[0]


def atoms(*locs):
    return DiscreteMeasure([(float(l), R) for l in locs])


def point(location, mass):
    return DiscreteMeasure([(location, mass)])


def silver_minimal_system():
    shift = QuadRat(2, -1)  # 2 - sqrt2, the right-branch translation
    sigma = [
        [atoms(0.0, float(shift)), atoms(0.0)],
        [atoms(AC), None],
    ]
    exact = [
        [(Fraction(0), shift), (Fraction(0),)],
        [(QuadRat(1, -1),), None],
    ]
    return MCSystem(QuadRat(1, -1), sigma, m=(1.0, R), exact_offsets=exact)


def silver_maximal_system():
    upper = IntervalSet.closed(Fraction(0), QuadRat(2, -1))
    symmetric = IntervalSet.closed(QuadRat(1, -1), QuadRat(-1, 1))
    sigma = [
        [UniformFamily(upper, 2 * R), UniformFamily(symmetric, R)],
        [point(AC, R), None],
    ]
    return MCSystem(QuadRat(1, -1), sigma, m=(1.0, R))


class TestMassVector:
    def test_silver(self):
        m = mass_vector(SILVER_S)
        assert np.allclose(m, [1.0, R], atol=1e-10)
        assert np.allclose(m, perron_vector(SILVER_S), atol=1e-9)

    def test_identity_gives_ones(self):
        assert np.allclose(mass_vector(np.eye(3)), np.ones(3), atol=1e-12)

    def test_triadic_counts(self):
        s = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 2]], dtype=float) / 3.0
        m = mass_vector(s)
        assert np.allclose(m, np.ones(3), atol=1e-10)
        assert np.allclose(m, perron_vector(s), atol=1e-9)

    def test_random_row_rescaled_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(2, 6)
            target = rng.uniform(0.2, 3.0, size=n)
            b = rng.uniform(0.1, 2.0, size=(n, n))
            s = (target / (b @ target))[:, None] * b
            m = mass_vector(s)
            assert np.allclose(m, target / target[0], atol=1e-8)

    def test_kernel_spans_the_scipy_null_space(self):
        rng = np.random.default_rng(11)
        cases = [np.eye(3) - np.eye(3), np.eye(3)]
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(0, n + 1))
            cases.append(rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n)))
            target = rng.uniform(0.2, 3.0, size=n)
            b = rng.uniform(0.1, 2.0, size=(n, n))
            cases.append((target / (b @ target))[:, None] * b - np.eye(n))
        for a in cases:
            kernel = _null_space(a, 1e-10)
            oracle = null_space(a, rcond=1e-10)
            assert kernel.shape == oracle.shape
            # same orthogonal projector, so the same space
            assert np.allclose(kernel @ kernel.T, oracle @ oracle.T, atol=1e-9)

    def test_no_positive_fixed_vector(self):
        with pytest.raises(CompatibilityError):
            mass_vector(np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            mass_vector(np.array([[1.0, -0.1], [0.0, 1.0]]))


class TestMCSystem:
    def test_mass_matrix_from_families(self):
        system = silver_minimal_system()
        assert np.allclose(system.s, SILVER_S, atol=1e-12)
        assert np.allclose(system.m, [1.0, R], atol=1e-12)

    def test_computes_mass_vector_when_omitted(self):
        shift = QuadRat(2, -1)
        sigma = [[atoms(0.0, float(shift)), atoms(0.0)], [atoms(AC), None]]
        system = MCSystem(QuadRat(1, -1), sigma)
        assert np.allclose(system.m, [1.0, R], atol=1e-9)

    @pytest.mark.parametrize("m", [(1.0,), (1.0, R, R)])
    def test_mass_vector_of_the_wrong_length(self, m):
        sigma = [[atoms(0.0, float(QuadRat(2, -1))), atoms(0.0)], [atoms(AC), None]]
        message = f"^mass vector m has {len(m)} entries but sigma is 2 x 2$"
        with pytest.raises(ValueError, match=message):
            MCSystem(QuadRat(1, -1), sigma, m=m)

    def test_incompatible_mass_vector(self):
        shift = QuadRat(2, -1)
        sigma = [[atoms(0.0, float(shift)), atoms(0.0)], [atoms(AC), None]]
        with pytest.raises(CompatibilityError):
            MCSystem(QuadRat(1, -1), sigma, m=(1.0, 1.0))

    def test_row_without_families(self):
        with pytest.raises(ValueError):
            MCSystem(0.5, [[atoms(0.0), None], [None, None]])

    def test_non_square(self):
        with pytest.raises(ValueError):
            MCSystem(0.5, [[atoms(0.0)], [atoms(0.0)]])


class TestSolveMCDensity:
    def test_silver_maximal_masses_and_supports(self):
        system = silver_maximal_system()
        sol = solve_mc_density(system, step=1e-3, tol=1e-8)
        h = sol.components[0].step
        assert abs(sol.components[0].mass - 1.0) < 1e-6
        assert abs(sol.components[1].mass - R) < 1e-6
        lo1, hi1 = sol.components[0].support()
        lo2, hi2 = sol.components[1].support()
        assert lo1 > float(W1X.lo) - 2 * h and hi1 < float(W1X.hi) + 2 * h
        assert lo2 > float(W2X.lo) - 2 * h and hi2 < float(W2X.hi) + 2 * h

    def test_second_component_is_shifted_contraction_of_first(self):
        # at the fixed point omega_2 = r delta_{a} * A.omega_1, i.e.
        # g_2(x) = g_1((x - a) / a) pointwise
        system = silver_maximal_system()
        sol = solve_mc_density(system, step=5e-4, tol=1e-9)
        g1, g2 = sol.components
        for x in np.linspace(-0.68, -0.32, 25):
            expected = g1.interpolate((x - AC) / AC)
            assert abs(g2.interpolate(x) - expected) < 5e-3

    def test_mass_conserved_every_iteration(self):
        system = silver_maximal_system()
        audit = []

        def check(it, comps):
            audit.append(max(abs(g.mass - m) for g, m in zip(comps, system.m)))

        solve_mc_density(system, step=2e-3, tol=1e-7, on_iterate=check)
        assert audit and max(audit) < 1e-8

    def test_support_tail_shrinks_geometrically(self):
        system = silver_maximal_system()
        records = []

        def check(it, comps):
            records.append((it, [g.support() for g in comps]))

        solve_mc_density(system, step=1e-3, tol=1e-9, on_iterate=check)
        w_hulls = [(float(w.lo), float(w.hi)) for w in (W1X, W2X)]
        for it, supports in records:
            if it < 3:
                continue
            allowance = 0.3 * R**it + 3e-3
            for (lo, hi), (wlo, whi) in zip(supports, w_hulls):
                assert lo > wlo - allowance
                assert hi < whi + allowance

    def test_seed_independence(self):
        system = silver_maximal_system()
        tol = 1e-8
        sol = solve_mc_density(system, step=1e-3, tol=tol)
        h = sol.components[0].step
        fmap = 1.0 * AC  # scalar linear part
        kernels = [
            [
                family_as_grid(e, h) if isinstance(e, UniformFamily) else None
                for e in row
            ]
            for row in system.sigma
        ]
        comps = [
            raster_interval_set(w, h, float(m))
            for w, m in zip((W1X, W2X), system.m)
        ]
        for _ in range(60):
            pushed = [pushforward(fmap, g) for g in comps]
            new = []
            for i in range(2):
                acc = None
                for j in range(2):
                    entry = system.sigma[i][j]
                    if entry is None:
                        continue
                    if isinstance(entry, DiscreteMeasure):
                        ((location, _),) = entry.atoms
                        piece = shift_grid(pushed[j], location)
                        piece = piece.renormalized(entry.total_mass * pushed[j].mass)
                    else:
                        piece = convolve_grids(kernels[i][j], pushed[j])
                    acc = piece if acc is None else add_grids(acc, piece)
                new.append(acc.renormalized(float(system.m[i])))
            comps = new
        for got, ref in zip(comps, sol.components):
            assert l1_distance(got, ref) < 4 * tol

    def test_planar_point_mass_entry(self):
        # omega_1 solves the uniform square family; omega_2 is A.omega_1
        # moved by the point mass at (0.1, 0.2)
        square = ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        a = ((-0.4, 0.0), (0.0, -0.4))
        sigma = [[UniformFamily(square, 1.0), None], [point((0.1, 0.2), 1.0), None]]
        sol = solve_mc_density(MCSystem(a, sigma, m=(1.0, 1.0)), step=0.02, tol=1e-8)
        g1, g2 = sol.components
        assert g1.mass == pytest.approx(1.0, abs=1e-9)
        assert g2.mass == pytest.approx(1.0, abs=1e-9)
        x1lo, y1lo, x1hi, y1hi = g1.support()
        want = (-0.4 * x1hi + 0.1, -0.4 * y1hi + 0.2, -0.4 * x1lo + 0.1, -0.4 * y1lo + 0.2)
        assert np.allclose(g2.support(), want, rtol=0, atol=2 * g2.step)

    def test_incommensurable_point_shifts_converge(self):
        # shifts 0.1 and 0.1*sqrt2 share no lattice step, so the requested
        # step is kept and every point-mass entry translates by resampling
        a, shift_1, shift_2 = 0.5, 0.1, 0.1 * math.sqrt(2)
        sigma = [
            [UniformFamily(IntervalSet.closed(-0.5, 0.5), 0.5), point(shift_1, 0.5)],
            [point(shift_2, 1.0), None],
        ]
        system = MCSystem(a, sigma)
        assert _choose_step(system, 1e-3) == 1e-3
        sol = solve_mc_density(system, step=1e-3, tol=1e-9)
        assert sol.masses == pytest.approx((1.0, 1.0), abs=1e-12)
        for g, m in zip(sol.components, sol.masses):
            assert g.mass == pytest.approx(m, abs=1e-9)
        # omega_2 is a.omega_1 moved by shift_2, up to the resampling's smear
        g1, g2 = sol.components
        lo, hi = g1.support()
        assert np.allclose(g2.support(), (a * lo + shift_2, a * hi + shift_2), atol=3 * g2.step)

    def test_single_component_matches_scalar_solver(self):
        window = IntervalSet.closed(QuadRat(1, -1), QuadRat(-1, 1))
        tol = 1e-9
        system = MCSystem(QuadRat(1, -1), [[UniformFamily(window, 1.0)]], m=(1.0,))
        sol = solve_mc_density(system, step=1e-3, tol=tol)
        h = sol.components[0].step
        scalar = solve_density(family_as_grid(UniformFamily(window, 1.0), h), AC, tol=tol)
        assert l1_distance(sol.components[0], scalar) < 2 * tol

    def test_scalar_solver_is_the_one_component_case(self):
        from selfsim.systems import builtin

        b = builtin("silver-max")
        h = b.default_step
        scalar = solve_density(family_as_grid(b.family, h), b.contraction)
        system = MCSystem(b.contraction, [[b.family]], m=(1.0,))
        (coupled,) = solve_mc_density(system, h).components
        assert (scalar.origin, scalar.step) == (coupled.origin, coupled.step)
        assert np.array_equal(scalar.values, coupled.values)

    def test_convergence_error_carries_delta(self):
        system = silver_maximal_system()
        with pytest.raises(ConvergenceError) as err:
            solve_mc_density(system, step=2e-3, tol=1e-12, max_iter=3)
        assert err.value.last_delta is not None and err.value.last_delta > 0


class TestNonoverlap:
    def test_silver_minimal_holds(self):
        report = verify_nonoverlap(silver_minimal_system(), (W1X, W2X))
        assert report.holds and bool(report)
        assert report.failures == ()
        assert report.residual < 1e-6
        d1, d2 = report.indicator_densities
        assert abs(d1.mass - 1.0) < 1e-12
        assert abs(d2.mass - R) < 1e-12

    def test_wrong_mass_vector_fails_no2(self):
        report = verify_nonoverlap(silver_minimal_system(), (W1X, W2X), m=(1.0, 1.0))
        assert not report.holds
        assert any(f.startswith("NO2") for f in report.failures)
        assert not any(f.startswith("NO4") for f in report.failures)

    def test_duplicate_map_fails_no4(self):
        # same mass matrix as the honest system, but the right branch of
        # component 1 repeats the identity translation instead
        doubled = DiscreteMeasure([(0.0, 2 * R)])
        sigma = [
            [doubled, atoms(0.0)],
            [atoms(AC), None],
        ]
        exact = [
            [(Fraction(0), Fraction(0)), (Fraction(0),)],
            [(QuadRat(1, -1),), None],
        ]
        system = MCSystem(
            QuadRat(1, -1), sigma, m=(1.0, R), exact_offsets=exact
        )
        report = verify_nonoverlap(system, (W1X, W2X))
        assert not report.holds
        assert any(f.startswith("NO4") and "overlap" in f for f in report.failures)
        assert any(f.startswith("NO4") and "union" in f for f in report.failures)

    def test_uniform_entry_fails_no1(self):
        report = verify_nonoverlap(silver_maximal_system(), (W1X, W2X))
        assert not report.holds
        assert any(f.startswith("NO1") for f in report.failures)


class TestIndicatorIdentity:
    def test_silver_minimal_residual_tiny(self):
        residual = indicator_density_identity(silver_minimal_system(), (W1X, W2X))
        assert residual < 1e-9

    def test_perturbed_window_breaks_identity(self):
        residual = indicator_density_identity(
            silver_minimal_system(),
            (W1X.translate(Fraction(1, 10)), W2X),
        )
        assert residual > 0.1


def test_fourier_matrix_at_zero_recovers_masses():
    system = silver_maximal_system()
    product = mc_fourier_matrix(system, 0.0, 40)
    assert np.max(np.abs(product.imag)) < 1e-12
    v = product.real @ np.ones(2)
    assert np.allclose(v / v[0], system.m, atol=1e-9)


def test_fourier_matrix_agrees_with_mass_power():
    system = silver_minimal_system()
    product = mc_fourier_matrix(system, 0.0, 5)
    assert np.allclose(product.real, np.linalg.matrix_power(system.s, 5), atol=1e-12)

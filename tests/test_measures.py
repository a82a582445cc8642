import functools
import gc
import math
import weakref
from collections.abc import Sized

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.spatial import ConvexHull, QhullError
from scipy.stats import wasserstein_distance

from selfsim import measures
from selfsim.compactsets import AffineMap, ConvexPolygon, IntervalSet
from selfsim.errors import ConvergenceError, ResourceCapError
from selfsim.measures import (
    DiscreteMeasure,
    FiniteFamily,
    GridDensity,
    UniformFamily,
    _as_linear,
    _FFT_FLOOR,
    _atoms,
    _fast_len,
    add_grids,
    average_step,
    convolve_grids,
    family_as_grid,
    fourier_hat,
    hutchinson_distance,
    l1_distance,
    point_mass_grid,
    pushforward,
    raster_interval_set,
    raster_polygon,
    shift_grid,
    snap_to_lattice,
    solve_density,
    solve_invariant_atoms,
)
from selfsim.multicomponent import _choose_step, solve_mc_density
from selfsim.systems import builtin

AC = 1.0 - math.sqrt(2.0)  # the contraction multiplier, about -0.4142
R = abs(AC)
W_HULL = (-math.sqrt(0.5), math.sqrt(0.5))


def minimal_family():
    return FiniteFamily(
        DiscreteMeasure([(AC, 1 / 3), (0.0, 1 / 3), (-AC, 1 / 3)])
    )


def maximal_family():
    return UniformFamily(IntervalSet.closed(AC, -AC), 1.0)


def point_family(location, mass):
    return FiniteFamily(DiscreteMeasure([(location, mass)]))


def lip1_lower_bound(mu, nu, rng, trials=200):
    """Oracle sanity check: |mu(phi) - nu(phi)| over random Lip-1 test
    functions never exceeds the metric (and approaches it for good phi)."""
    locs = np.array([loc for loc, _ in mu.atoms] + [loc for loc, _ in nu.atoms])
    lo, hi = locs.min() - 1, locs.max() + 1
    best = 0.0
    for _ in range(trials):
        knots = np.sort(rng.uniform(lo, hi, size=6))
        slopes = rng.uniform(-1, 1, size=len(knots) + 1)

        def phi(x):
            val = 0.0
            prev = lo
            for k, s in zip(knots, slopes[:-1]):
                seg = min(x, k) - prev
                if seg <= 0:
                    break
                val += s * seg
                prev = k
            if x > prev:
                val += slopes[-1] * (x - prev)
            return val

        gap = abs(
            sum(w * phi(loc) for loc, w in mu.atoms)
            - sum(w * phi(loc) for loc, w in nu.atoms)
        )
        best = max(best, gap)
    return best


def brute_force_merge(atoms, eps=1e-12):
    """Oracle: in sorted order, each atom joins the latest kept atom within
    eps on every axis, found by scanning every kept atom."""
    kept = []
    for loc, w in sorted(atoms):
        near = [k for k, (q, _) in enumerate(kept) if np.all(np.abs(np.subtract(loc, q)) <= eps)]
        if near:
            q, v = kept[near[-1]]
            kept[near[-1]] = (q, v + w)
        else:
            kept.append((loc, w))
    return kept


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("build", [
    lambda: AffineMap(0.5, INF),
    lambda: AffineMap(NAN, 0.0),
    lambda: AffineMap(((0.5, 0.0), (0.0, INF)), (0.0, 0.0)),
    lambda: AffineMap(((0.5, 0.0), (0.0, 0.5)), (0.0, -INF)),
    lambda: IntervalSet.closed(0, INF),
    lambda: IntervalSet([(0.0, 1.0), (NAN, 2.0)]),
    lambda: ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, INF)]),
    lambda: DiscreteMeasure([(INF, 1.0)]),
    lambda: DiscreteMeasure([((0.0, NAN), 1.0)]),
    lambda: DiscreteMeasure([(0.0, INF)]),
    lambda: DiscreteMeasure([(0.0, NAN)]),
    lambda: UniformFamily(IntervalSet.closed(0, INF), 1.0),
    lambda: UniformFamily(IntervalSet.closed(0.0, 1.0), INF),
], ids=[
    "map-translation", "map-factor", "map-matrix", "map-plane-translation",
    "interval-endpoint", "interval-nan", "polygon-vertex", "atom-location",
    "atom-plane-location", "atom-weight", "atom-nan-weight", "uniform-region",
    "uniform-mass",
])
def test_constructors_refuse_non_finite_numbers(build):
    with pytest.raises(ValueError, match="finite"):
        build()


class TestDiscreteMeasure:
    def test_plane_merge_ignores_unrelated_atoms(self):
        pair = [((0.0, 5.0), 1.0), ((1e-13, 5.0), 1.0)]
        assert DiscreteMeasure(pair).atoms == (((0.0, 5.0), 2.0),)
        # an atom sorted between the two does not keep them apart
        mu = DiscreteMeasure([*pair, ((5e-14, 0.0), 1.0)])
        assert mu.atoms == (((0.0, 5.0), 2.0), ((5e-14, 0.0), 1.0))

    def test_line_merge_joins_the_last_kept_atom(self):
        mu = DiscreteMeasure([(0.0, 1.0), (0.9e-12, 1.0), (1.8e-12, 1.0)])
        assert mu.atoms == ((0.0, 2.0), (1.8e-12, 1.0))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_merge_matches_brute_force(self, dim):
        # clusters of atoms a few 1e-13 apart around a few centres, with
        # columns of equal x in the plane
        rng = np.random.default_rng(dim)
        centres = rng.choice([-1.0, 0.0, 0.5, 1e-12, 3e3], size=(60, dim))
        jitter = rng.integers(-6, 7, size=(60, dim)) * 3e-13
        locs = [tuple(c) if dim == 2 else c[0] for c in (centres + jitter).tolist()]
        atoms = [(loc, w) for loc, w in zip(locs, rng.uniform(0.5, 1.5, size=60).tolist())]
        mu = DiscreteMeasure(atoms)
        want = brute_force_merge(atoms)
        assert [loc for loc, _ in mu.atoms] == [loc for loc, _ in want]
        assert mu.weights() == pytest.approx([w for _, w in want], rel=1e-15)


class TestHutchinsonDistance:
    def test_two_deltas(self):
        d = hutchinson_distance(
            DiscreteMeasure([(0, 1)]), DiscreteMeasure([(1, 1)])
        )
        assert d == pytest.approx(1.0)

    def test_self_distance(self):
        mu = DiscreteMeasure([(0, 0.5), (2, 0.5)])
        assert hutchinson_distance(mu, mu) == 0.0

    def test_split_versus_center(self):
        mu = DiscreteMeasure([(0, 0.5), (2, 0.5)])
        nu = DiscreteMeasure([(1, 1)])
        assert hutchinson_distance(mu, nu) == pytest.approx(1.0)

    def test_unequal_mass_rejected(self):
        with pytest.raises(ValueError):
            hutchinson_distance(
                DiscreteMeasure([(0, 1)]), DiscreteMeasure([(0, 2)])
            )

    def test_lip1_never_exceeds_metric(self):
        rng = np.random.default_rng(7)
        mu = DiscreteMeasure([(0, 0.5), (2, 0.5)])
        nu = DiscreteMeasure([(1, 1)])
        bound = lip1_lower_bound(mu, nu, rng)
        d = hutchinson_distance(mu, nu)
        assert bound <= d + 1e-12
        assert bound > 0.5 * d  # random witnesses get reasonably close

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 2)), min_size=1, max_size=6),
        st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 2)), min_size=1, max_size=6),
    )
    def test_matches_scipy_oracle(self, atoms_a, atoms_b):
        mu = DiscreteMeasure(atoms_a)
        nu = DiscreteMeasure(atoms_b)
        # rescale to equal unit mass; the metric scales linearly in mass
        mu = mu.scaled(1 / mu.total_mass)
        nu = nu.scaled(1 / nu.total_mass)
        want = wasserstein_distance(
            mu.locations(), nu.locations(), mu.weights(), nu.weights()
        )
        assert hutchinson_distance(mu, nu) == pytest.approx(want, abs=1e-10)


class TestPushforward:
    def test_atom_map(self):
        mu = DiscreteMeasure([(0.25, 1)])
        out = pushforward(AffineMap(0.5, 3.0), mu)
        assert out.atoms == ((3.125, 1.0),)

    def test_uniform_density_halving(self):
        g = raster_interval_set(IntervalSet.closed(0, 1), 0.01, 1.0)
        out = pushforward(AffineMap(0.5, 0.0), g)
        assert out.mass == pytest.approx(1.0, abs=1e-12)
        # interior of [0, 1/2] now carries density 2
        assert out.interpolate(0.25) == pytest.approx(2.0, rel=1e-6)
        assert out.interpolate(0.75) == pytest.approx(0.0, abs=1e-9)

    def test_mass_conservation_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(5, 60)
            vals = rng.uniform(0, 3, size=n)
            g = GridDensity(int(rng.integers(-400, 401)), rng.uniform(0.005, 0.05), vals)
            a = rng.uniform(0.1, 0.9) * (-1 if rng.random() < 0.5 else 1)
            out = pushforward(AffineMap(a, rng.uniform(-1, 1)), g)
            assert out.mass == pytest.approx(g.mass, abs=1e-9)

    def test_2d_pushforward_mass_and_position(self):
        vals = np.ones((11, 11))
        g = GridDensity((-5, -5), 0.1, vals)
        mat = ((0.4, 0.0), (0.0, 0.4))
        out = pushforward(AffineMap(mat, (1.0, 2.0)), g)
        assert out.mass == pytest.approx(g.mass, abs=1e-9)
        assert out.interpolate((1.0, 2.0)) > 0
        assert out.interpolate((0.0, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_one_cell_grid_keeps_its_mass(self):
        # preimages of the target nodes lie ~2.41 h apart, so a single cell
        # at 6 h (image at -2.49 h) falls between two of them
        h = 0.01
        diag = ((AC, 0.0), (0.0, AC))
        cases = ((6 * h, AC, AC * 6 * h), ((6 * h, 6 * h), diag, (AC * 6 * h,) * 2))
        for origin, a, image in cases:
            out = pushforward(a, point_mass_grid(origin, h, 1.0))
            assert out.mass == pytest.approx(1.0, abs=1e-12)
            assert out.values.size == 1
            assert np.allclose(out.origin, image, rtol=0, atol=h / 2)


def reference_sample(g, point):
    """Scalar linear (1D) or bilinear (2D) interpolation, zero outside."""
    h = g.step

    def at(*idx):
        inside = all(0 <= i < n for i, n in zip(idx, g.values.shape))
        return float(g.values[idx]) if inside else 0.0

    if g.dim == 1:
        u = (point - g.origin) / h
        i = math.floor(u)
        f = u - i
        return at(i) * (1 - f) + at(i + 1) * f
    u = (point[0] - g.origin[0]) / h
    v = (point[1] - g.origin[1]) / h
    i, j = math.floor(u), math.floor(v)
    fu, fv = u - i, v - j
    return (
        at(j, i) * (1 - fu) * (1 - fv)
        + at(j, i + 1) * fu * (1 - fv)
        + at(j + 1, i) * (1 - fu) * fv
        + at(j + 1, i + 1) * fu * fv
    )


class TestSample:
    """``GridDensity.sample`` must reproduce the scalar reference bit for
    bit: the CLI's output bytes rest on it."""

    def points_1d(self, g, rng):
        h, n = g.step, len(g.values)
        last = g.origin + h * (n - 1)
        return np.concatenate([
            rng.uniform(g.origin - 3 * h, last + 3 * h, size=200),  # incl. outside
            g.origin - h * rng.uniform(0, 1, size=10),  # padding cell before
            last + h * rng.uniform(0, 1, size=10),  # padding cell after
            [g.origin, last, last + h, g.origin - h],  # nodes and pad edges
        ])

    def test_1d_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(1, 30)
            g = GridDensity(int(rng.integers(-200, 201)), rng.uniform(0.01, 0.3), rng.uniform(0, 3, size=n))
            xs = self.points_1d(g, rng)
            got = g.sample((xs,))
            want = [reference_sample(g, float(x)) for x in xs]
            assert got.tolist() == want
            assert [g.interpolate(float(x)) for x in xs] == want

    def test_2d_matches_scalar_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            ny, nx = rng.integers(1, 15, size=2)
            start = rng.integers(-200, 201, size=2)
            g = GridDensity(start, rng.uniform(0.01, 0.3), rng.uniform(0, 3, size=(ny, nx)))
            gx = GridDensity(g.start[0], g.step, np.ones(nx))
            gy = GridDensity(g.start[1], g.step, np.ones(ny))
            xs = self.points_1d(gx, rng)
            ys = self.points_1d(gy, rng)
            # pair every x with a shuffled y, and add the grid's corner nodes
            pts = list(zip(xs, rng.permutation(ys)))
            last = (g.origin[0] + g.step * (nx - 1), g.origin[1] + g.step * (ny - 1))
            pts += [g.origin, last, (g.origin[0], last[1]), (last[0], g.origin[1])]
            pts = np.array(pts, dtype=float)
            got = g.sample(pts.T)
            want = [reference_sample(g, (float(x), float(y))) for x, y in pts]
            assert got.tolist() == want
            assert [g.interpolate((float(x), float(y))) for x, y in pts] == want

    def test_sample_keeps_the_shape_of_the_points(self):
        g = GridDensity((0, 0), 1.0, np.arange(6.0).reshape(2, 3))
        xs, ys = np.meshgrid([0.0, 0.5, 2.0], [0.0, 1.0])
        assert g.sample((xs, ys)).tolist() == [[0.0, 0.5, 2.0], [3.0, 3.5, 5.0]]


class TestAverageStep:
    def test_neutral_point_family(self):
        fam = point_family(0.0, 1.0)
        mu = DiscreteMeasure([(0.3, 0.4), (0.9, 0.6)])
        out = average_step(fam, 0.5, mu)
        want = pushforward(AffineMap(0.5, 0.0), mu)
        assert out.atoms == want.atoms

    def test_silver_minimal_on_delta(self):
        out = average_step(minimal_family(), AC, DiscreteMeasure([(0.0, 1.0)]))
        locs = out.locations()
        assert locs == pytest.approx([AC, 0.0, -AC])
        assert out.weights() == pytest.approx([1 / 3] * 3)

    def test_mass_preserved_on_grid(self):
        g = raster_interval_set(IntervalSet.closed(-0.5, 0.5), 0.005, 1.0)
        out = average_step(maximal_family(), AC, g)
        assert out.mass == pytest.approx(1.0, abs=1e-9)

    def test_uniform_family_rejects_atoms(self):
        with pytest.raises(TypeError):
            average_step(maximal_family(), AC, DiscreteMeasure([(0, 1)]))


class TestInvariantAtoms:
    def test_depth_one_silver_minimal(self):
        out = solve_invariant_atoms(minimal_family(), AC, depth=1)
        assert len(out) == 9
        assert out.weights() == pytest.approx([1 / 9] * 9)

    def test_mass_is_one(self):
        out = solve_invariant_atoms(minimal_family(), AC, depth=6)
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_support_in_window(self):
        out = solve_invariant_atoms(minimal_family(), AC, depth=8)
        lo, hi = W_HULL
        for loc, _ in out.atoms:
            assert lo - 1e-12 <= loc <= hi + 1e-12

    def test_truncation_convergence(self):
        prev = solve_invariant_atoms(minimal_family(), AC, depth=4)
        cur = solve_invariant_atoms(minimal_family(), AC, depth=5)
        diam = W_HULL[1] - W_HULL[0]
        d = hutchinson_distance(prev, cur)
        assert d <= R**4 * diam + 1e-12

    def test_atom_cap(self):
        with pytest.raises(ResourceCapError):
            solve_invariant_atoms(minimal_family(), AC, depth=12, atom_cap=1000)


def solve_silver_max(step=1e-3, tol=1e-8, **kw):
    h = raster_interval_set(IntervalSet.closed(AC, -AC), step, 1.0)
    return solve_density(h, AC, tol=tol, **kw)


class TestSolveDensity:
    def test_silver_maximal_mass(self):
        g = solve_silver_max()
        assert g.mass == pytest.approx(1.0, abs=1e-12)

    def test_support_in_window(self):
        g = solve_silver_max()
        lo, hi = g.support()
        assert lo >= W_HULL[0] - g.step
        assert hi <= W_HULL[1] + g.step

    def test_mirror_symmetry(self):
        g = solve_silver_max(step=2e-3)
        xs = g.origin + g.step * np.arange(len(g.values))
        mirrored = np.array([g.interpolate(-x) for x in xs])
        inner = slice(1, -1)
        assert np.max(np.abs(g.values[inner] - mirrored[inner])) < 1e-9

    def test_halved_resolution_crosscheck(self):
        coarse = solve_silver_max(step=4e-3)
        fine = solve_silver_max(step=2e-3)
        xs = coarse.origin + coarse.step * np.arange(len(coarse.values))
        gap = max(
            abs(coarse.interpolate(x) - fine.interpolate(x)) for x in xs
        )
        assert gap < 2e-2  # first-order resampling: O(step) agreement

    def test_fixed_point_residual(self):
        tol = 1e-8
        g = solve_silver_max(tol=tol)
        h = raster_interval_set(IntervalSet.closed(AC, -AC), g.step, 1.0)
        g_next = convolve_grids(h, pushforward(AffineMap(AC, 0.0), g)).renormalized(1.0)
        assert l1_distance(g, g_next) < 2 * tol

    def test_seed_independence(self):
        tol = 1e-8
        step = 1e-3
        g1 = solve_silver_max(step=step, tol=tol)
        h = raster_interval_set(IntervalSet.closed(AC, -AC), step, 1.0)
        wide = raster_interval_set(
            IntervalSet.closed(W_HULL[0], W_HULL[1]), step, 1.0
        )
        # run the same iteration by hand from the alternative seed
        g2 = wide
        for _ in range(60):
            g2 = convolve_grids(h, pushforward(AffineMap(AC, 0.0), g2)).renormalized(1.0)
        assert l1_distance(g1, g2) < 4 * tol

    def test_support_growth_law(self):
        step = 1e-3
        h = raster_interval_set(IntervalSet.closed(AC, -AC), step, 1.0)
        g = h
        fam_lo, fam_hi = g.support()
        pred_lo, pred_hi = fam_lo, fam_hi
        for _ in range(12):
            g = convolve_grids(h, pushforward(AffineMap(AC, 0.0), g)).renormalized(1.0)
            # predicted next footprint: family support + AC * current
            pred_lo, pred_hi = (
                fam_lo + min(AC * pred_lo, AC * pred_hi),
                fam_hi + max(AC * pred_lo, AC * pred_hi),
            )
            lo, hi = g.support()
            assert lo >= pred_lo - 2 * step
            assert hi <= pred_hi + 2 * step

    def test_max_iter_exhausted(self):
        h = raster_interval_set(IntervalSet.closed(AC, -AC), 1e-2, 1.0)
        with pytest.raises(ConvergenceError) as exc:
            solve_density(h, AC, tol=1e-13, max_iter=2)
        assert exc.value.last_delta is not None

    def test_unreachable_tol_raises(self):
        # the L1 change levels off at round-off, ~1e-16, above this tol
        h = raster_interval_set(IntervalSet.closed(AC, -AC), 1e-3, 1.0)
        with pytest.raises(ConvergenceError) as exc:
            solve_density(h, AC, tol=1e-17, max_iter=100)
        assert exc.value.last_delta > 1e-17

    def test_bad_mass_rejected(self):
        h = raster_interval_set(IntervalSet.closed(AC, -AC), 1e-2, 0.5)
        with pytest.raises(ValueError):
            solve_density(h, AC)


def reference_fixed_point(fmap, sigma, masses, step, tol):
    """The grid iteration of ``grid_fixed_point`` spelled out with the
    public grid operations: every kernel transformed again at every step
    (no kept spectrum), every grid renormalized as a copy."""
    comps = [point_mass_grid((0.0,) * fmap.dim, step, m) for m in masses]
    while True:
        pushed = [pushforward(fmap, g) for g in comps]
        new = []
        for row, mass in zip(sigma, masses):
            acc = None
            for entry, g in zip(row, pushed):
                if entry is None:
                    continue
                if isinstance(entry, GridDensity):
                    piece = convolve_grids(entry, g)
                else:
                    piece = functools.reduce(add_grids, [
                        GridDensity(p.start, p.step, p.values * w)
                        for p, w in ((shift_grid(g, loc), w) for loc, w in _atoms(entry))
                    ])
                acc = piece if acc is None else add_grids(acc, piece)
            new.append(acc.renormalized(mass))
        delta = max(l1_distance(a, b) for a, b in zip(new, comps))
        comps = new
        if delta < tol:
            return comps


def assert_same_grids(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.start, g.step, g.values.shape) == (w.start, w.step, w.values.shape)
        assert np.array_equal(g.values.view(np.int64), w.values.view(np.int64))


def solve_builtin(name, step):
    b = builtin(name)
    return solve_density(family_as_grid(b.family, step), b.contraction)


class TestLeanSolve:
    """One solve keeps each kernel's spectrum and scales its own fresh grids
    in place; none of that may move a bit of the result."""

    @pytest.mark.parametrize("name, step", [("ammann-beenker", 0.02), ("silver-max", 1e-3)])
    def test_density_solve_matches_reference_bitwise(self, name, step):
        b = builtin(name)
        kernel = family_as_grid(b.family, step)
        want = reference_fixed_point(_as_linear(b.contraction), [[kernel]], [1.0], step, 1e-8)
        assert_same_grids([solve_density(kernel, b.contraction)], want)

    def test_coupled_solve_matches_reference_bitwise(self):
        system = builtin("silver-mc-max").mc
        h = _choose_step(system, 5e-4)
        sigma = [
            [family_as_grid(e, h) if isinstance(e, UniformFamily) else e for e in row]
            for row in system.sigma
        ]
        masses = tuple(float(x) for x in system.m)
        want = reference_fixed_point(_as_linear(system.a), sigma, masses, h, 1e-8)
        assert_same_grids(solve_mc_density(system, 5e-4).components, want)

    def test_kept_spectra_die_with_the_solve(self, monkeypatch):
        made = []
        rfftn = np.fft.rfftn

        def recording_rfftn(*args, **kwargs):
            out = rfftn(*args, **kwargs)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np.fft, "rfftn", recording_rfftn)
        solve_builtin("ammann-beenker", 0.02)
        gc.collect()
        assert made and all(ref() is None for ref in made)

    def test_no_state_outlives_a_solve(self):
        def snapshot():
            return {
                name: len(value) if isinstance(value, Sized) else None
                for name, value in vars(measures).items()
            }

        before = snapshot()
        first = solve_builtin("ammann-beenker", 0.02)
        solve_builtin("silver-max", 1e-3)
        again = solve_builtin("ammann-beenker", 0.02)
        assert_same_grids([again], [first])
        assert snapshot() == before


class TestFourier:
    def test_zero_frequency(self):
        for fam in (minimal_family(), maximal_family(), point_family(0.3, 1.0)):
            assert fourier_hat(fam, AC, 0.0, 25) == pytest.approx(1.0)

    def test_truncation_stability(self):
        a40 = fourier_hat(maximal_family(), AC, 1.0, 40)
        a60 = fourier_hat(maximal_family(), AC, 1.0, 60)
        assert abs(a40 - a60) < 1e-10

    def test_real_for_symmetric_families(self):
        for fam in (minimal_family(), maximal_family()):
            for k in (0.5, 1.0, 2.0, 5.0):
                val = fourier_hat(fam, AC, k, 40)
                assert abs(val.imag) < 1e-12

    def test_modulus_bounded(self):
        rng = np.random.default_rng(3)
        for k in rng.uniform(-8, 8, size=25):
            assert abs(fourier_hat(minimal_family(), AC, float(k), 40)) <= 1 + 1e-12

    def test_grid_density_transform_matches_product(self):
        g = solve_silver_max(step=1e-3, tol=1e-9)
        xs = g.origin + g.step * np.arange(len(g.values))
        for k in (0.5, 1.0, 2.0, 5.0):
            grid_hat = np.sum(g.values * np.exp(-2j * np.pi * k * xs)) * g.step
            product = fourier_hat(maximal_family(), AC, k, 40)
            assert abs(grid_hat - product) < 1e-4


def reference_family_hat(family, k):
    # the per-frequency transform as first written: Python floats, one k
    if isinstance(family, FiniteFamily):
        mu = family.measure
        return sum(w * np.exp(-2j * np.pi * k * loc) for loc, w in mu.atoms) / mu.total_mass
    region = family.region.as_float()
    acc = 0.0 + 0.0j
    for lo, hi in region.intervals:
        if k == 0:
            acc += hi - lo
            continue
        center, half = (lo + hi) / 2, (hi - lo) / 2
        acc += (hi - lo) * np.exp(-2j * np.pi * k * center) * np.sinc(2 * k * half)
    return acc / region.measure()


def reference_fourier_hat(family, a, k, n_terms):
    out, freq = 1.0 + 0.0j, float(k)
    for _ in range(n_terms):
        out *= reference_family_hat(family, freq)
        freq *= a
    return complex(out)


def bits(z):
    return (np.float64(z.real).tobytes(), np.float64(z.imag).tobytes())


class TestFourierVector:
    @pytest.mark.parametrize("mass", [1.0, 2.0])
    def test_one_atom_family_is_the_point_mass_transform(self, mass):
        # the point-mass factor exp(-2 pi i k t), independent of the mass
        vals = fourier_hat(point_family(0.3, mass), AC, self.KS, 40)
        for k, v in zip(self.KS.tolist(), vals.tolist()):
            want, freq = 1.0 + 0.0j, k
            for _ in range(40):
                want *= np.exp(-2j * np.pi * freq * 0.3)
                freq *= AC
            assert bits(v) == bits(complex(want)), k

    FAMILIES = (
        minimal_family(),
        maximal_family(),
        UniformFamily(IntervalSet([(-0.9, -0.2), (0.1, 0.7)]), 0.5),
        FiniteFamily(DiscreteMeasure([(-0.3, 0.2), (0.0, 0.5), (0.45, 0.3)])),
        point_family(0.3, 1.0),
        point_family(0.0, 2.0),
    )
    KS = np.concatenate(
        [[-5.0, -1.0, -0.0, 0.0, 0.01, 1.0, 2.5], -3.0 + 0.01 * np.arange(601)]
    )

    # ids name the family kind; a one-atom family is a point mass
    @pytest.mark.parametrize(
        "family",
        FAMILIES,
        ids=lambda f: "PointMassFamily" if len(_atoms(f)) == 1 else type(f).__name__,
    )
    @pytest.mark.parametrize("terms", [1, 40])
    def test_array_equals_scalar_loop_bitwise(self, family, terms):
        vals = fourier_hat(family, AC, self.KS, terms)
        assert vals.shape == self.KS.shape
        for k, v in zip(self.KS.tolist(), vals.tolist()):
            want = reference_fourier_hat(family, AC, k, terms)
            assert bits(v) == bits(want), k
            got = fourier_hat(family, AC, k, terms)
            assert type(got) is complex
            assert bits(got) == bits(want), k


class TestAveragingContraction:
    def test_contraction_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        fam = minimal_family()
        lo, hi = W_HULL
        worst = 0.0
        for _ in range(100):
            n1, n2 = rng.integers(1, 7, size=2)
            mu = DiscreteMeasure(
                [(rng.uniform(lo, hi), w) for w in rng.dirichlet(np.ones(n1))]
            )
            nu = DiscreteMeasure(
                [(rng.uniform(lo, hi), w) for w in rng.dirichlet(np.ones(n2))]
            )
            before = hutchinson_distance(mu, nu)
            after = hutchinson_distance(
                average_step(fam, AC, mu), average_step(fam, AC, nu)
            )
            if before > 0:
                worst = max(worst, after - R * before)
        assert worst <= 1e-12


class TestGridPlumbing:
    def test_add_grids_alignment(self):
        a = GridDensity(0, 0.5, np.array([1.0, 2.0]))
        b = GridDensity(2, 0.5, np.array([3.0]))
        out = add_grids(a, b)
        assert out.origin == 0.0
        assert list(out.values) == [1.0, 2.0, 3.0]

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            GridDensity(0, 0.5, np.array([1.0, -1e-15, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        for values in ([bad, 1.0], [[1.0, 2.0], [3.0, bad]]):
            with pytest.raises(ValueError, match="non-finite"):
                GridDensity((0,) * np.ndim(values), 0.5, values)
        # a value made non-finite after construction is caught by the copy
        # renormalized makes, not turned into [nan, 0]
        g = GridDensity(0, 0.5, [1.0, 1.0])
        g.values[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            g.renormalized(1.0)

    def test_l1_distance_disjoint(self):
        a = GridDensity(0, 0.5, np.array([2.0]))
        b = GridDensity(10, 0.5, np.array([2.0]))
        assert l1_distance(a, b) == pytest.approx(2.0)

    def test_raster_mass_exact(self):
        region = IntervalSet([(0.0, 0.3), (0.5, 0.9)])
        g = raster_interval_set(region, 0.007, 2.5)
        assert g.mass == pytest.approx(2.5, abs=1e-12)

    def test_family_grid_total_mass(self):
        g = family_as_grid(minimal_family(), 0.01)
        assert g.mass == pytest.approx(1.0, abs=1e-12)

    def test_convolve_point_masses(self):
        a = point_mass_grid(0.5, 0.25, 1.0)
        b = point_mass_grid(-0.25, 0.25, 1.0)
        out = convolve_grids(a, b)
        assert out.mass == pytest.approx(1.0)
        assert out.interpolate(0.25) == pytest.approx(4.0)  # 1/h at the sum

    def test_add_grids_alignment_2d(self):
        # b sits one node right of and two nodes above a's origin
        a = GridDensity((1, -2), 0.5, np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = GridDensity((2, 0), 0.5, np.array([[10.0, 20.0]]))
        out = add_grids(a, b)
        assert out.origin == (0.5, -1.0)
        assert out.values.tolist() == [
            [1.0, 2.0, 0.0],
            [3.0, 4.0, 0.0],
            [0.0, 10.0, 20.0],
        ]
        assert add_grids(b, a).values.tolist() == out.values.tolist()

    def test_l1_distance_offset_2d(self):
        a = GridDensity((1, -2), 0.5, np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = GridDensity((2, -1), 0.5, np.array([[5.0]]))
        # cells: 1, 2, 3 unmatched; 4 against 5
        assert l1_distance(a, b) == pytest.approx((1 + 2 + 3 + 1) * 0.25)
        assert l1_distance(a, b) == l1_distance(b, a)
        assert l1_distance(a, a) == 0.0

    def test_three_dimensional_grid(self):
        a = GridDensity((0, 0, 0), 0.5, np.ones((2, 2, 2)))
        b = shift_grid(a, (0.5, 0.0, 0.0))
        assert b.origin == (0.5, 0.0, 0.0)
        # one x-slab of 4 cells on each side differs by 1
        assert l1_distance(a, b) == 8 * 0.5**3
        assert add_grids(a, b).mass == 2 * a.mass
        assert a.sample(([0.25], [0.5], [0.5])).tolist() == [1.0]
        assert a.sample(([-0.25], [0.0], [0.0])).tolist() == [0.5]
        assert a.support() == (-0.25, -0.25, -0.25, 0.75, 0.75, 0.75)

    def test_steps_compared_relatively(self):
        a = GridDensity(0, 1e-18, np.array([1.0]))
        b = GridDensity(0, 2e-18, np.array([1.0]))
        for op in (add_grids, l1_distance, convolve_grids):
            with pytest.raises(ValueError):
                op(a, b)
        # a relative rounding difference is still the same step
        c = GridDensity(0, 1e-18 * (1 + 1e-15), np.array([1.0]))
        assert l1_distance(a, c) == 0.0


SQUARE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def translation(t):
    """The map x |-> x + t on the line (t a float) or in the plane."""
    if isinstance(t, tuple):
        return AffineMap(((1.0, 0.0), (0.0, 1.0)), t)
    return AffineMap(1.0, t)


class TestLatticeShift:
    def test_snap_to_lattice_indices(self):
        h = 0.1
        assert snap_to_lattice(0.3, h) == (3,)
        assert snap_to_lattice((-0.7, 1.2), h) == (-7, 12)
        assert snap_to_lattice(0.3 + 1e-12, h) == (3,)  # well within tolerance
        assert snap_to_lattice(0.3 + 1e-6, h) is None
        assert snap_to_lattice((0.2, 0.25), h) is None
        assert all(isinstance(k, int) for k in snap_to_lattice((-0.7, 1.2), h))

    def test_lattice_shift_moves_by_index(self):
        g = GridDensity((3, -2), 0.25, np.arange(1.0, 7.0).reshape(2, 3))
        out = shift_grid(g, (0.5, -1.0))
        assert out.start == (5, -6)
        assert out.values is g.values

    @pytest.mark.parametrize(
        "start, shape, t",
        [
            (-7, (23,), 0.37 * 0.05),
            (12, (40,), -3.6 * 0.05),
            ((2, -5), (9, 14), (0.31 * 0.05, -2.5 * 0.05)),
            ((-3, 4), (17, 6), (1.0 * 0.05, 0.7 * 0.05)),  # on the lattice along x only
        ],
    )
    def test_off_lattice_shift_is_the_translation_pushforward(self, start, shape, t):
        rng = np.random.default_rng(sum(shape))
        g = GridDensity(start, 0.05, rng.uniform(0, 3, shape))
        assert snap_to_lattice(t, g.step) is None
        out = shift_grid(g, t)
        want = pushforward(translation(t), g)
        assert out.mass == pytest.approx(g.mass, rel=1e-12)
        assert out.start == want.start
        assert np.array_equal(out.values, want.values)

    def test_space_grid_shifts_by_index_only(self):
        g = GridDensity((0, 0, 0), 0.5, np.ones((2, 2, 2)))
        assert shift_grid(g, (0.5, 0, -1.0)).start == (1, 0, -2)
        with pytest.raises(ValueError, match="on the line and in the plane only"):
            shift_grid(g, (0.1, 0, 0))

    @pytest.mark.parametrize("f, g", [
        (AffineMap(0.5, 0.1), GridDensity((0, 0), 0.5, np.ones((2, 2)))),
        (AffineMap(((1.0, 0.0), (0.0, 1.0)), (0.1, 0.0)), GridDensity(0, 0.5, np.ones(2))),
    ])
    def test_pushforward_refuses_a_map_of_another_dimension(self, f, g):
        with pytest.raises(ValueError, match="1-dimensional"):
            pushforward(f, g)

    @pytest.mark.parametrize("region, offset", [
        (IntervalSet.closed(0.0, 1.0), lambda h: 0.3 + 0.37 * h),
        (SQUARE, lambda h: (0.3 + 0.37 * h, -0.2 + 0.61 * h)),
    ])
    def test_off_lattice_shift_agrees_with_analytic_shift_to_order_h(self, region, offset):
        # the shifted raster against the raster of the shifted region, at
        # the same off-lattice fraction of each step: the resampling smears
        # each edge over about one cell, an L1 gap proportional to h
        family = UniformFamily(region, 1.0)
        gaps = []
        for h in (0.02, 0.01, 0.005):
            t = offset(h)
            shifted = shift_grid(family_as_grid(family, h), t)
            moved = family_as_grid(UniformFamily(region.translate(t), 1.0), h)
            gaps.append(l1_distance(shifted, moved))
        assert gaps[0] <= 4 * 0.02
        assert gaps[1] == pytest.approx(gaps[0] / 2, rel=0.1)
        assert gaps[2] == pytest.approx(gaps[1] / 2, rel=0.1)


def direct_convolve(a, b):
    """Full linear convolution as a sum of shifted copies of a."""
    out = np.zeros([n + m - 1 for n, m in zip(a.shape, b.shape)])
    for idx in np.ndindex(b.shape):
        out[tuple(slice(i, i + n) for i, n in zip(idx, a.shape))] += b[idx] * a
    return out


def uncached_convolve(a, b):
    """``convolve_grids`` written plainly, the reference for its bits: the
    product of two fresh transforms as ``x * y``, which numpy computes into
    the left temporary in this operand order."""
    full = [n + m - 1 for n, m in zip(a.values.shape, b.values.shape)]
    fast = [_fast_len(n) for n in full]
    axes = tuple(range(len(full)))
    spectrum = np.fft.rfftn(a.values, fast, axes) * np.fft.rfftn(b.values, fast, axes)
    vals = np.fft.irfftn(spectrum, fast, axes)[tuple(map(slice, full))] * a.step**a.dim
    vals[vals <= _FFT_FLOOR * vals.max()] = 0.0
    return GridDensity([p + q for p, q in zip(a.start, b.start)], a.step, vals)


class TestConvolve:
    SHAPES = (
        ((1,), (1,)),
        ((1,), (137,)),
        ((2,), (7,)),
        ((13,), (101,)),
        ((500,), (311,)),
        ((1, 1), (5, 7)),
        ((13, 17), (3, 11)),
        ((31, 29), (29, 31)),
        ((2, 53), (41, 1)),
    )

    @pytest.mark.parametrize("sa, sb", SHAPES)
    def test_matches_shifted_sum(self, sa, sb):
        rng = np.random.default_rng(len(sa) * 1000 + sum(sa) + sum(sb))
        h = 0.05
        a = GridDensity(rng.integers(-20, 21, len(sa)), h, rng.uniform(0, 5, sa))
        b = GridDensity(rng.integers(-20, 21, len(sb)), h, rng.uniform(0, 5, sb))
        out = convolve_grids(a, b)
        assert out.start == tuple(p + q for p, q in zip(a.start, b.start))
        expected = direct_convolve(a.values, b.values) * h ** len(sa)
        assert out.values.shape == expected.shape
        assert np.abs(out.values - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("sa, sb, period", [((400,), (300,), (7,)), ((40, 60), (50, 30), (5, 3))])
    def test_exact_zeros_where_the_convolution_vanishes(self, sa, sb, period):
        # values only at index multiples of the period, so the exact
        # convolution vanishes at every other index
        rng = np.random.default_rng(17)
        grids = []
        for shape in (sa, sb):
            on = functools.reduce(
                np.logical_and, [i % p == 0 for i, p in zip(np.indices(shape), period)]
            )
            grids.append(GridDensity((0,) * len(shape), 0.1, rng.uniform(0.5, 5, shape) * on))
        out = convolve_grids(*grids)
        support = direct_convolve(*[(g.values > 0) * 1.0 for g in grids]) > 0
        assert np.all(out.values[~support] == 0.0)
        assert np.all(out.values[support] > 0)

    @pytest.mark.parametrize("sa, sb", SHAPES)
    def test_kept_kernel_spectrum_changes_no_bit(self, sa, sb):
        rng = np.random.default_rng(len(sa) * 1000 + sum(sa) + sum(sb))
        a = GridDensity((0,) * len(sa), 0.05, rng.uniform(0, 5, sa))
        b = GridDensity((3,) * len(sb), 0.05, rng.uniform(0, 5, sb))
        plain = uncached_convolve(a, b)
        assert convolve_grids(a, b).values.tobytes() == plain.values.tobytes()
        spectra = {}
        first = convolve_grids(a, b, _spectra=spectra)
        (fast,) = spectra
        kept = spectra[fast]
        second = convolve_grids(a, b, _spectra=spectra)
        assert spectra == {fast: kept} and spectra[fast] is kept
        for out in (first, second):
            assert out.start == plain.start
            assert out.values.tobytes() == plain.values.tobytes()
        # a grid one node past the FFT shape along every axis needs another
        # shape: the kept spectrum is replaced
        extra = [(0, f - (n + m - 1) + 1) for f, n, m in zip(fast, sa, sb)]
        bigger = GridDensity(b.start, b.step, np.pad(b.values, extra))
        assert convolve_grids(a, bigger, _spectra=spectra).values.tobytes() == (
            uncached_convolve(a, bigger).values.tobytes()
        )
        assert len(spectra) == 1 and fast not in spectra

    def test_fast_len_is_the_next_five_smooth_number(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for n in range(1, 2001):
            f = _fast_len(n)
            assert f >= n and smooth(f)
            assert not any(smooth(k) for k in range(n, f))
            assert f == next_fast_len(n, real=True)


def reference_raster_interval_set(region, h, mass):
    # the cell-by-cell loop the vectorized raster replaced
    region = region.as_float()
    density = mass / region.measure()
    lo, hi = region.hull()
    i0 = math.floor((lo - h / 2) / h + 0.5)
    i1 = math.ceil((hi + h / 2) / h - 0.5)
    vals = np.zeros(i1 - i0 + 1)
    for a, b in region.intervals:
        for i in range(i0, i1 + 1):
            overlap = min(b, i * h + h / 2) - max(a, i * h - h / 2)
            if overlap > 0:
                vals[i - i0] += overlap / h * density
    return GridDensity(i0, h, vals)


class TestRasterIntervalSet:
    @pytest.mark.parametrize(
        "intervals, h",
        [
            # endpoints on cell edges (odd multiples of h/2) and on nodes
            ([(-0.25, 0.25), (0.75, 1.25), (1.5, 2.75)], 0.5),
            ([(-0.05, 0.15), (0.35, 0.45)], 0.1),
            ([(AC, -AC)], 1e-3),
            ([(-0.7, -0.3), (-0.1, 0.1), (0.3, 0.7)], 0.2),
            ([(0.0, 1e-4), (3e-4, 1.0)], 1e-4),
        ],
    )
    def test_matches_cell_loop_bitwise(self, intervals, h):
        region = IntervalSet(intervals)
        assert len(region.intervals) == len(intervals)
        g = raster_interval_set(region, h, 0.7)
        ref = reference_raster_interval_set(region, h, 0.7)
        assert g.origin == ref.origin
        assert g.values.tobytes() == ref.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=2, max_size=10, unique=True),
        st.floats(0.01, 1.0),
    )
    def test_half_cell_endpoints_match_loop(self, ends, h):
        ends = sorted(ends)
        if len(ends) % 2:
            ends = ends[:-1]
        region = IntervalSet([(p * h / 2, q * h / 2) for p, q in zip(ends[::2], ends[1::2])])
        g = raster_interval_set(region, h, 1.0)
        ref = reference_raster_interval_set(region, h, 1.0)
        assert g.origin == ref.origin
        assert g.values.tobytes() == ref.values.tobytes()


def _cell_polygon_overlap(poly_verts, cell) -> float:
    # one cell clipped alone: the rectangle clipped against each polygon
    # edge, then the shoelace area
    x0, y0, x1, y1 = cell
    pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    n = len(poly_verts)
    for k in range(n):
        ax, ay = poly_verts[k]
        bx, by = poly_verts[(k + 1) % n]
        kept = []
        m = len(pts)
        for t in range(m):
            cx, cy = pts[t]
            nx, ny = pts[(t + 1) % m]
            side_c = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            side_n = (bx - ax) * (ny - ay) - (by - ay) * (nx - ax)
            if side_c >= 0:
                kept.append((cx, cy))
            if (side_c > 0 > side_n) or (side_c < 0 < side_n):
                s = side_c / (side_c - side_n)
                kept.append((cx + s * (nx - cx), cy + s * (ny - cy)))
        if not kept:
            return 0.0
        pts = kept
    area = 0.0
    for t in range(len(pts)):
        cx, cy = pts[t]
        nx, ny = pts[(t + 1) % len(pts)]
        area += cx * ny - nx * cy
    return abs(area) / 2


def reference_raster_polygon(poly, h, mass):
    """Every cell clipped against the polygon: the grid ``raster_polygon``
    must reproduce bit for bit."""
    poly = poly.as_float()
    density = mass / poly.area
    xlo, ylo, xhi, yhi = poly.bbox()
    i0 = math.floor((xlo - h / 2) / h + 0.5)
    i1 = math.ceil((xhi + h / 2) / h - 0.5)
    j0 = math.floor((ylo - h / 2) / h + 0.5)
    j1 = math.ceil((yhi + h / 2) / h - 0.5)
    verts = list(poly.vertices)
    vals = np.zeros((j1 - j0 + 1, i1 - i0 + 1))
    for j in range(j0, j1 + 1):
        cy = j * h
        for i in range(i0, i1 + 1):
            cx = i * h
            frac = _cell_polygon_overlap(
                verts, (cx - h / 2, cy - h / 2, cx + h / 2, cy + h / 2)
            )
            if frac > 0:
                vals[j - j0, i - i0] = frac / (h * h) * density
    return GridDensity((i0, j0), h, vals)


def assert_raster_matches_reference(poly, h, mass):
    g = raster_polygon(poly, h, mass)
    ref = reference_raster_polygon(poly, h, mass)
    assert g.origin == ref.origin
    assert np.array_equal(g.values, ref.values)
    return g


class TestRasterPolygon:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=3, max_size=12),
        st.floats(0.1, 1.5),
        st.sampled_from(["free", "half-cells", "half-cells-off-by-ulps"]),
    )
    # a sliver whose clipped area carries a relative round-off near 2e-9
    @example([(0.0, 0.0), (0.0, 1e-08), (1.0, 0.0)], 1.0, "free")
    def test_hulls_match_clipping_every_cell(self, pts, h, placement):
        if placement != "free":
            # vertices on cell corners and edges, (k/2) h, or an ulp or two off
            pts = [(round(2 * x / h) * h / 2, round(2 * y / h) * h / 2) for x, y in pts]
            if placement == "half-cells-off-by-ulps":
                pts = [
                    (np.nextafter(x, math.copysign(math.inf, k)), y + k * math.ulp(y))
                    for k, (x, y) in zip(range(-2, len(pts)), pts)
                ]
        try:
            hull = ConvexHull(np.array(pts, dtype=float))
            poly = ConvexPolygon([tuple(pts[k]) for k in hull.vertices])
        except (QhullError, ValueError):
            assume(False)
        assume(poly.area > 1e-9)
        g = assert_raster_matches_reference(poly, h, 1.0)
        # Each touched cell's area is a shoelace sum over absolute
        # coordinates of size at most ``reach``, so it is off by a few
        # eps * reach**2 (cancellation, not the cell size, sets the scale);
        # allow 16 of those per touched cell, relative to the polygon's
        # area.  For area >= h**2 in this strategy's box the worst case, a
        # diagonal needle, stays near 6e-10.
        x, y = g._node_axes()
        reach = max(abs(x[0]), abs(x[-1]), abs(y[0]), abs(y[-1])) + h / 2
        tol = 16 * np.finfo(float).eps * reach**2 * np.count_nonzero(g.values) / poly.area
        if poly.area >= h * h:
            assert tol <= 1e-9
        assert g.mass == pytest.approx(1.0, abs=tol)

    def test_polygon_inside_one_cell(self):
        tri = ConvexPolygon([(0.01, 0.02), (0.04, 0.01), (0.03, 0.04)])
        g = assert_raster_matches_reference(tri, 0.1, 2.0)
        assert np.count_nonzero(g.values) == 1
        assert g.mass == pytest.approx(2.0)

    def test_polygon_inside_one_cell_across_a_corner(self):
        tri = ConvexPolygon([(0.04, 0.04), (0.07, 0.05), (0.05, 0.08)])
        g = assert_raster_matches_reference(tri, 0.1, 1.0)
        assert np.count_nonzero(g.values) == 4

    def test_square_on_cell_edges(self):
        h = 0.1
        lo, hi = -2.5 * h, 3.5 * h
        square = ConvexPolygon([(lo, lo), (hi, lo), (hi, hi), (lo, hi)])
        g = assert_raster_matches_reference(square, h, 1.0)
        assert g.mass == pytest.approx(1.0)
        assert np.count_nonzero(g.values) == 36

    def test_builtin_windows_at_default_steps(self):
        from selfsim.systems import builtin

        b = builtin("ammann-beenker")
        assert_raster_matches_reference(b.window, b.weyl_step, float(b.window.area))
        assert_raster_matches_reference(b.family.region, b.default_step, b.family.total_mass)

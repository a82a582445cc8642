"""Vector-valued self-similar measures for several coupled components.

An MCSystem couples n components through a matrix of translation
families sharing one linear contraction.  The mass vector m solves
s m = m for the family-mass matrix s (condition CA); the invariant
density vector is computed by iterating the matrix convolution on
grids.  For systems whose families are finite and whose affine images
tile each window without overlap, the invariant densities are plain
window indicators, which ``verify_nonoverlap`` and
``indicator_density_identity`` certify in exact interval arithmetic.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import IntervalSet, _is_exact
from .errors import CompatibilityError
from .grids import _axes, raster_interval_set, snap_to_lattice
from .measures import (
    DiscreteMeasure,
    UniformFamily,
    _as_linear,
    _atoms,
    _family_hat,
    add_grids,
    family_as_grid,
    grid_fixed_point,
    l1_distance,
)

_CA_TOL = 1e-10


def _null_space(a, rcond: float) -> np.ndarray:
    """Orthonormal basis, as columns, of the null space of a: the right
    singular vectors whose singular values are at most rcond times the
    largest."""
    _, sv, vh = np.linalg.svd(a)
    rank = int(np.sum(sv > np.amax(sv, initial=0.0) * rcond))
    return vh[rank:].T


def mass_vector(s) -> np.ndarray:
    """Positive vector m with s m = m, normalized to m[0] = 1.

    Found in the kernel of s - I; candidate kernel vectors (basis columns
    and their sum, either sign) are filtered for strict positivity.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("s must be a square matrix")
    if np.any(s < 0):
        raise ValueError("s must be nonnegative")
    n = s.shape[0]
    kernel = _null_space(s - np.eye(n), 1e-10)
    candidates = []
    for col in range(kernel.shape[1]):
        candidates.append(kernel[:, col])
    if kernel.shape[1] > 1:
        candidates.append(kernel.sum(axis=1))
    for v in candidates:
        for vec in (v, -v):
            if np.all(vec > 1e-12 * np.abs(vec).max()):
                m = vec / vec[0]
                if np.max(np.abs(s @ m - m)) <= _CA_TOL * max(1.0, np.abs(m).max()):
                    return m
    raise CompatibilityError(
        "no strictly positive eigenvector with eigenvalue 1 (condition CA fails)"
    )


class MCSystem:
    """n coupled components: sigma[i][j] carries mass from j into i.

    ``a`` is the shared linear contraction (scalar or 2x2 matrix, exact
    scalars welcome); ``sigma`` is an n x n grid of translation families
    or None.  ``exact_offsets[i][j]``, when provided for finite entries,
    holds the translation values in exact arithmetic so that the
    nonoverlap certificates below can dispense with floats.
    """

    def __init__(
        self,
        a,
        sigma: Sequence[Sequence],
        m=None,
        exact_offsets: Optional[Sequence[Sequence]] = None,
    ):
        self.a = a
        self.sigma = tuple(tuple(row) for row in sigma)
        self.n = len(self.sigma)
        for row in self.sigma:
            if len(row) != self.n:
                raise ValueError("sigma must be square")
        if not all(any(e is not None for e in row) for row in self.sigma):
            raise ValueError("every component needs at least one incoming family")
        s = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                entry = self.sigma[i][j]
                s[i, j] = 0.0 if entry is None else float(entry.total_mass)
        self.s = s
        if m is None:
            self.m = mass_vector(s)
        else:
            self.m = np.asarray([float(x) for x in m], dtype=float)
            if len(self.m) != self.n:
                raise ValueError(
                    f"mass vector m has {len(self.m)} entries but sigma is {self.n} x {self.n}"
                )
            gap = np.max(np.abs(s @ self.m - self.m))
            if gap > _CA_TOL * max(1.0, float(np.abs(self.m).max())):
                raise CompatibilityError(
                    f"mass vector fails condition CA: |s m - m| = {gap:.3e}"
                )
        if np.any(self.m <= 0):
            raise CompatibilityError("mass vector must be strictly positive")
        self.exact_offsets = None
        if exact_offsets is not None:
            self.exact_offsets = tuple(
                tuple(None if cell is None else tuple(cell) for cell in row)
                for row in exact_offsets
            )


class MCDensity:
    """Converged per-component densities and their target masses."""

    __slots__ = ("components", "masses")

    def __init__(self, components: tuple, masses: tuple) -> None:
        self.components, self.masses = components, masses

    @property
    def n(self) -> int:
        return len(self.components)


def _choose_step(system: MCSystem, requested: float) -> float:
    """Refine the step so point-mass shift locations sit on the lattice."""
    locs = [loc for row in system.sigma for e in row for loc, _ in _atoms(e)]
    base = min((abs(x) for loc in locs for x in _axes(loc) if abs(x) > 1e-12), default=None)
    if base is None:
        return requested
    h = base / math.ceil(base / requested)
    # incommensurable shifts: keep the requested step and resample
    return h if all(snap_to_lattice(loc, h) is not None for loc in locs) else requested


def solve_mc_density(
    system: MCSystem,
    step: float,
    tol: float = 1e-8,
    max_iter: int = 500,
    on_iterate=None,
) -> MCDensity:
    """Grid fixed point of the matrix convolution step.

    Starts from per-component spikes of mass m_i in the cell containing
    the origin, applies omega_i <- sum_j sigma_ij * A.omega_j until the
    largest per-component L1 change drops below tol, and renormalizes
    each component to m_i every step; raises ConvergenceError after
    ``max_iter`` steps otherwise.  ``on_iterate(l, components)`` is
    called after every iteration when given (used to audit invariants).
    """
    h = _choose_step(system, step)
    sigma = [
        [family_as_grid(e, h) if isinstance(e, UniformFamily) else e for e in row]
        for row in system.sigma
    ]
    masses = tuple(float(x) for x in system.m)
    comps = grid_fixed_point(
        _as_linear(system.a), sigma, masses, h, tol, max_iter, "matrix convolution", on_iterate
    )
    return MCDensity(comps, masses)


# ---------------------------------------------------------------------------
# nonoverlap certificates


class NonoverlapReport:
    __slots__ = ("holds", "failures", "indicator_densities", "residual")

    def __init__(self, holds: bool, failures: tuple, indicator_densities: Optional[tuple],
                 residual: Optional[float]) -> None:
        self.holds, self.failures = holds, failures
        self.indicator_densities, self.residual = indicator_densities, residual

    def __bool__(self) -> bool:
        return self.holds


def _exact_images(system: MCSystem, windows, i: int):
    """Exact interval images f(W_j) = a W_j + offset for all maps into i."""
    images = []
    for j in range(system.n):
        cell = system.exact_offsets[i][j]
        if cell is None:
            continue
        for off in cell:
            images.append(windows[j].affine(system.a, off))
    return images


def _overlap_measure(u: IntervalSet, v: IntervalSet):
    total = 0
    for lo1, hi1 in u.intervals:
        for lo2, hi2 in v.intervals:
            lo = lo2 if lo1 < lo2 else lo1
            hi = hi2 if hi2 < hi1 else hi1
            length = hi - lo
            if float(length) > 0:
                total = total + length
    return total


def verify_nonoverlap(system: MCSystem, windows, m=None) -> NonoverlapReport:
    """Check the four just-touching conditions for a finite-family system.

    NO1: every present family is finite (with exact offsets available).
    NO2: m_i equals the window measure theta(W_i).
    NO3: s_ij equals contraction factor times the map count.
    NO4: for each i the images a W_j + offset tile W_i with pairwise
    intersections of measure zero, decided in exact arithmetic.
    When everything holds, the window indicator densities are rastered
    and the convolution identity residual is certified < 1e-6.

    ``m`` overrides the system's mass vector, letting a candidate that
    fails condition CA be audited; failures land in the report rather
    than raising.
    """
    failures = []
    m = system.m if m is None else np.asarray([float(x) for x in m])
    windows = list(windows)
    if len(windows) != system.n:
        raise ValueError(f"expected {system.n} windows")
    for w in windows:
        if not isinstance(w, IntervalSet) or not w.is_exact:
            raise ValueError("windows must be exact IntervalSets")
    if not _is_exact(system.a):
        failures.append("NO1: automorphism is not exact")
    for i, row in enumerate(system.sigma):
        for j, entry in enumerate(row):
            if entry is None:
                continue
            if not isinstance(entry, DiscreteMeasure):
                failures.append(f"NO1: sigma[{i}][{j}] is not a finite family")
    if system.exact_offsets is None:
        failures.append("NO1: system carries no exact offsets")
    if failures:
        return NonoverlapReport(False, tuple(failures), None, None)

    r = abs(float(system.a))
    for i in range(system.n):
        theta = float(windows[i].measure())
        if abs(float(m[i]) - theta) > 1e-9:
            failures.append(
                f"NO2: m[{i}] = {m[i]:.12g} but theta(W_{i}) = {theta:.12g}"
            )
    for i in range(system.n):
        for j in range(system.n):
            cell = system.exact_offsets[i][j]
            card = 0 if cell is None else len(cell)
            if abs(system.s[i, j] - r * card) > 1e-9:
                failures.append(
                    f"NO3: s[{i}][{j}] = {system.s[i, j]:.12g} "
                    f"differs from factor*card = {r * card:.12g}"
                )
    for i in range(system.n):
        images = _exact_images(system, windows, i)
        union = images[0]
        for img in images[1:]:
            union = union.union(img)
        if union != windows[i]:
            failures.append(f"NO4: images of component {i} do not union to W_{i}")
        for p in range(len(images)):
            for q in range(p + 1, len(images)):
                overlap = _overlap_measure(images[p], images[q])
                if float(overlap) > 0:
                    failures.append(
                        f"NO4: images {p} and {q} of component {i} overlap "
                        f"with measure {float(overlap):.6g}"
                    )
    if failures:
        return NonoverlapReport(False, tuple(failures), None, None)

    step = 1e-3
    densities = tuple(
        raster_interval_set(w, step, float(w.measure())) for w in windows
    )
    residual = indicator_density_identity(system, windows, step=step)
    if residual >= 1e-6:
        failures.append(f"indicator identity residual {residual:.3e} >= 1e-6")
        return NonoverlapReport(False, tuple(failures), densities, residual)
    return NonoverlapReport(True, (), densities, residual)


def indicator_density_identity(system: MCSystem, windows, step: float = 1e-3) -> float:
    """Largest L1 gap between 1_{W_i} and the sum of the image indicators
    1_{a W_j + offset}; both sides rastered by exact cell coverage, so a
    tiling system yields a residual at rounding level."""
    if system.exact_offsets is None:
        raise ValueError("identity check needs exact offsets")
    windows = list(windows)
    worst = 0.0
    for i in range(system.n):
        lhs = raster_interval_set(windows[i], step, float(windows[i].measure()))
        rhs = None
        for img in _exact_images(system, windows, i):
            piece = raster_interval_set(img, step, float(img.measure()))
            rhs = piece if rhs is None else add_grids(rhs, piece)
        worst = max(worst, l1_distance(lhs, rhs))
    return worst


def mc_fourier_matrix(system: MCSystem, k: float, n_terms: int) -> np.ndarray:
    """Truncated matrix product of entrywise family transforms at
    frequencies k, a k, a^2 k, ...; at k = 0 this is the mass matrix
    to the n_terms-th power."""
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if isinstance(system.a, tuple):
        raise ValueError("matrix transforms are one-dimensional only")
    a = float(system.a)
    out = np.eye(system.n, dtype=complex)
    freq = float(k)
    for _ in range(n_terms):
        factor = np.zeros((system.n, system.n), dtype=complex)
        for i in range(system.n):
            for j in range(system.n):
                entry = system.sigma[i][j]
                if entry is None:
                    continue
                factor[i, j] = entry.total_mass * _family_hat(entry, freq)
        out = out @ factor
        freq *= a
    return out

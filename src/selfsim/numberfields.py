"""The cut-and-project lattices of Z[sqrt2] and of the eighth cyclotomic
ring Z[xi], xi = exp(i*pi/4), and one float-filtered enumeration of both.

A scheme is declared by integer matrices (P, Q, den): coordinate j of an
int64 coefficient row c, physical ones first, is (P[j].c + Q[j].c*sqrt2)/den.
``SILVER_FORMS`` sends the row (a, b) of a + b*sqrt2 to a +- b*sqrt2;
``OCTAGONAL_FORMS`` sends the row (c0, c1, c2, c3) of x = c0 + c1*xi +
c2*xi^2 + c3*xi^3 to re(x), im(x), re(x*), im(x*), the star map sending xi
to xi**3: with u = c1 + c3 and v = c1 - c3, c0 +- v/sqrt2, c2 + u/sqrt2 and
u/sqrt2 - c2.  Every membership test of an exact region (the enumerator's
box, and the disk and windows of ``modelsets``) is the exact sign of a
Q(sqrt2) expression in these coordinates: read in float64, and evaluated
exactly inside the rounding margin.  Only the ``weyl`` command runs them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _lazy_module
from .core import SQRT2, QuadRat, _as_quadrat
from .errors import ResourceCapError

# only the float-filtered enumeration below executes numpy
np = _lazy_module("numpy")

#: default cap on the number of candidate lattice points an enumeration may visit
DEFAULT_ENUM_CAP = 20_000_000

SILVER_FORMS = (((1, 0), (1, 0)), ((0, 1), (0, -1)), 1)
OCTAGONAL_FORMS = (
    ((2, 0, 0, 0), (0, 0, 2, 0), (2, 0, 0, 0), (0, 0, -2, 0)),
    ((0, 1, 0, -1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 1, 0, 1)),
    2,
)


def _parts(forms, rows) -> tuple:
    """The int64 arrays P.c and Q.c of the (N, k) coefficient rows."""
    P, Q, _ = forms
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(P[0]))
    return rows @ np.array(P, dtype=np.int64).T, rows @ np.array(Q, dtype=np.int64).T


def coordinates(forms, rows) -> np.ndarray:
    """Physical then internal coordinates of the (N, k) coefficient rows:
    the float of each exact one, bit for bit (den = 2 only scales)."""
    return _embed(*_parts(forms, rows), forms[2])


def _embed(p, q, den) -> np.ndarray:
    """(p + q*sqrt2)/den, with one temporary; on |p| and |q|, the size the
    filter scales."""
    x = q * SQRT2
    x += p
    x /= den
    return x


def exact_coordinates(forms, row) -> tuple:
    """The exact coordinates of one coefficient row, as QuadRats."""
    return tuple(QuadRat(*(sum(a * c for a, c in zip(u, row)) for u in pq), forms[2])
                 for pq in zip(*forms[:2]))


def cyclo_exact(c0: int, c1: int, c2: int, c3: int) -> tuple[QuadRat, QuadRat, QuadRat, QuadRat]:
    """Exact coordinates of x = c0 + c1*xi + c2*xi^2 + c3*xi^3 in Z[xi]:
    re(x), im(x), re(x*) and im(x*), the star map sending xi to xi^3."""
    return exact_coordinates(OCTAGONAL_FORMS, (c0, c1, c2, c3))


# ---------------------------------------------------------------------------
# the filter
#
# Candidates are int64 coefficient arrays, generated and tested in chunks of
# at most _CHUNK.  Every membership test is the sign of an expression in
# Q(sqrt2), read first from a float64 evaluation: the sign is certain where
# |value| exceeds an error bound, and for the few candidates inside that
# margin the same expression is evaluated exactly in QuadRat (a filtered
# predicate after Shewchuk, "Adaptive precision floating-point arithmetic
# and fast robust geometric predicates", 1997).  So each test returns exact
# signs, 0 for a point on the boundary, and a closed set keeps signs >= 0.
#
# The forms.  A box side, a window's interval end or polygon edge is a
# half-space n.(x - o) >= 0 over coordinates x, and so a Q(sqrt2)-linear form
# L.c + M.c*sqrt2 - K >= 0 in c (`_linear_forms`), whose sign `_quad_sign`
# reads (`_form_signs`).  The disk |x - c|**2 <= rsq of the patch and of each
# Weyl ball in `modelsets` is the one quadratic test (`_disk_signs`).
#
# The bound.  Count as one rounding each int -> float conversion, each use of
# the float SQRT2 for sqrt(2), and each arithmetic operation.  The float of an
# exact constant (_float_pair) is at most 6 roundings deep, of a float (a
# disk centre) 0.  A form, taken as L.c + M.c*SQRT2 - K, is at most 3 deep
# along its integer terms and 7 along K; a coordinate (P.c + Q.c*SQRT2)/den
# at most 4, x_j - c_j 5, so the disk's rsq - sum of (x_j - c_j)**2 at most 8
# along x and 7 along rsq.  Every tested expression is thus at most 9
# deep along any path from its exact inputs, and its error at most
# gamma_9 = 9u/(1 - 9u), u = 2**-53, times its ``size``: the same expression
# on the absolute values of its terms (Higham, "Accuracy and Stability of
# Numerical Algorithms", 2nd ed., section 3.1).  ``size`` is a float of the
# same depth, so the exact size is at most size * (1 + gamma_9), and
# 16u * size covers both.  Constants of magnitude outside [2**-500, 2**500]
# get size inf (never certain), so nothing overflows; a final product can
# still underflow, losing at most 2**-1075, which 2**-1000 covers.

_FILTER_ULPS = 16 * 2.0**-53
_FILTER_TINY = 2.0**-1000
_FILTER_RANGE = (2.0**-500, 2.0**500)
# coefficients must stay exact in int64 and float64
_COEFF_LIMIT = 2**50
_CHUNK = 1 << 13


def _float_pair(c) -> tuple[float, float]:
    """Float value and size of an exact constant (int, Fraction or QuadRat);
    the size is inf outside the range the filter trusts."""
    q = _as_quadrat(c)
    p, r, d = q.a, q.b, q.den
    try:
        value = (p + r * SQRT2) / d
        size = (abs(p) + abs(r) * SQRT2) / d
    except OverflowError:
        return 0.0, math.inf
    if size and not _FILTER_RANGE[0] <= size <= _FILTER_RANGE[1]:
        return 0.0, math.inf
    return value, size


def _certain_sign(value, size) -> np.ndarray:
    """+1 or -1 where the float value's sign is certain, 0 inside the margin."""
    bound = _FILTER_ULPS * size + _FILTER_TINY
    return np.where(value > bound, 1, np.where(value < -bound, -1, 0)).astype(np.int8)


def _quad_sign(a, b, c) -> np.ndarray:
    """Certain signs of a + b*sqrt2 - c for integer arrays a, b (exact as
    floats) and an exact c."""
    cv, cs = _float_pair(c)
    return _certain_sign(a + b * SQRT2 - cv, np.abs(a) + np.abs(b) * SQRT2 + cs)


def _linear_forms(forms, half_spaces, first: int = 0) -> list:
    """Each half-space (n, o), n.(x - o) >= 0 over the coordinates x_first,
    x_first+1, ... of a coefficient row c, as (L, M, K): integer rows L, M
    and an exact K with n.(x - o) = (L.c + M.c*sqrt2 - K)/D for some D > 0."""
    P, Q, den = forms
    out = []
    for n, o in half_spaces:
        terms = [(j, _as_quadrat(t), x) for j, (t, x) in enumerate(zip(n, o), first) if t != 0]
        D = math.lcm(*(t.den for _, t, _ in terms))
        L, M = [0] * len(P), [0] * len(P)
        for j, t, _ in terms:
            # (A + B*sqrt2)(p + q*sqrt2) = A p + 2 B q + (B p + A q)*sqrt2
            A, B = t.a * (D // t.den), t.b * (D // t.den)
            for i, (p, q) in enumerate(zip(P[j], Q[j])):
                L[i] += A * p + 2 * B * q
                M[i] += B * p + A * q
        out.append((L, M, D * den * sum((t * x for _, t, x in terms), QuadRat(0))))
    return out


def _form_signs(rows, linear_forms) -> np.ndarray:
    """The least exact sign over the (L, M, K) forms on the (N, k) int64
    rows, one form at a time.  L.c and M.c are summed in float64, exact
    below 2**53; where the float sign is not certain, or the form's absolute
    terms could reach 2**53, a row not yet outside is evaluated exactly."""
    cmax = int(np.abs(rows).max(initial=0))
    f = rows.astype(np.float64)
    least = np.ones(len(rows), dtype=np.int8)
    for L, M, K in linear_forms:
        if (sum(map(abs, L)) + sum(map(abs, M))) * cmax < 2**53:
            signs = _quad_sign(f @ np.array(L, float), f @ np.array(M, float), K)
        else:
            signs = np.zeros(len(rows), dtype=np.int8)
        margin = np.flatnonzero((signs == 0) & (least >= 0))
        if len(margin):
            # L.c and M.c as Python ints
            c = rows[margin].astype(object)
            for i, l, m in zip(margin.tolist(), c @ np.array(L, object), c @ np.array(M, object)):
                signs[i] = (QuadRat(l, m) - K).sign()
        np.minimum(least, signs, out=least)
    return least


def _disk_signs(forms, rows, rsq, centre=None) -> np.ndarray:
    """The exact sign of rsq - |x - c|**2 on the (N, k) coefficient rows, x
    the physical coordinates, rsq exact and the centre c (by default the
    origin) at its float value: read in float64 where certain, else exactly."""
    P, Q, den = forms
    d = len(P) // 2
    c = [Fraction(float(t)) for t in centre] if centre is not None else [Fraction(0)] * d
    p, q = _parts((P[:d], Q[:d], den), rows)
    cv, cs = np.array([_float_pair(t) for t in c]).T
    x, size = _embed(p, q, den) - cv, _embed(np.abs(p), np.abs(q), den) + cs
    rv, rs = _float_pair(rsq)
    signs = _certain_sign(rv - (x**2).sum(axis=1), rs + (size**2).sum(axis=1))
    for i in np.flatnonzero(signs == 0).tolist():
        exact = [QuadRat(a, b, den) - t for a, b, t in zip(p[i].tolist(), q[i].tolist(), c)]
        signs[i] = (rsq - sum((t * t for t in exact), QuadRat(0))).sign()
    return signs


# ---------------------------------------------------------------------------
# the walk


def _check_coefficients(bound) -> None:
    if bound > _COEFF_LIMIT:
        raise ResourceCapError(f"enumeration reaches coefficients beyond {_COEFF_LIMIT}")


def _chunks(n_rows: int, rows_of, max_candidates: int):
    """Walk the candidates of rows 0 .. n_rows - 1, at most _CHUNK rows and
    _CHUNK candidates at a time.  ``rows_of(rows)`` gives each row's
    candidate count and a tuple of per-row arrays; yields (offsets, those
    arrays per candidate), the offset being a candidate's index within its
    row.  Raises ResourceCapError once more than max_candidates are counted."""
    visited = 0
    for first in range(0, n_rows, _CHUNK):
        counts, data = rows_of(np.arange(first, min(first + _CHUNK, n_rows)))
        ends = np.cumsum(counts)
        total = int(ends[-1])
        visited += total
        if visited > max_candidates:
            raise ResourceCapError(f"enumeration exceeded {max_candidates} candidates")
        for lo in range(0, total, _CHUNK):
            k = np.arange(lo, min(lo + _CHUNK, total))
            row = np.searchsorted(ends, k, side="right")
            yield k - ends[row] + counts[row], tuple(x[row] for x in data)


def _enumerate_box(forms, lo, hi, max_candidates: int) -> np.ndarray:
    """All coefficient rows c with lo[j] <= x_j(c) <= hi[j] for every
    coordinate j (exact bounds, at most 2**50 in magnitude), sorted.  Each
    row of P has one nonzero entry, in a column where Q is zero.  The walk
    runs over the other, outer, coefficients in the box that the inverse of
    the float embedding bounds; per outer row, each inner coefficient gets
    the range its coordinates' bounds leave, widened by their float error.
    The box signs decide every candidate; the kept rows are sorted once."""
    P, Q, den = np.array(forms[0]), np.array(forms[1]), forms[2]
    k = len(P)
    flo, fhi = np.array([float(t) for t in lo]), np.array([float(t) for t in hi])
    inv = np.linalg.inv((P + Q * SQRT2) / den)
    centre, spread = inv @ ((flo + fhi) / 2), np.abs(inv) @ ((fhi - flo) / 2)
    outer, inner = np.flatnonzero(Q.any(axis=0)), np.flatnonzero(P.any(axis=0))
    start = np.ceil(centre[outer] - spread[outer] - 1).astype(np.int64)
    widths = np.floor(centre[outer] + spread[outer] + 1).astype(np.int64) - start + 1
    strides = np.cumprod(np.concatenate([widths[1:], [1]])[::-1])[::-1]
    # coordinate j bounds inner[col[j]]: den*lo_j - q_j*sqrt2 <= p_j*c <= den*hi_j - q_j*sqrt2
    col = np.abs(P[:, inner]).argmax(axis=1)
    p = P[np.arange(k), inner[col]]
    bounds = np.stack([den * flo, den * fhi])

    def rows_of(rows):
        t = start + rows[:, None] // strides % widths
        qs = (t @ Q[:, outer].T) * SQRT2
        ends = (bounds[:, None, :] - qs) / p
        # each end's float is within 4u of (|den*bound| + |q*sqrt2|)/|p|
        slack = (np.abs(bounds).max(axis=0) + np.abs(qs)) / np.abs(p) * 2.0**-50
        low, high = np.ceil(ends.min(axis=0) - slack), np.floor(ends.max(axis=0) + slack)
        first = np.stack([low[:, col == r].max(axis=1) for r in range(len(inner))], axis=1)
        last = np.stack([high[:, col == r].min(axis=1) for r in range(len(inner))], axis=1)
        n = np.maximum(last - first + 1, 0).astype(np.int64)
        return n.prod(axis=1), (t, first.astype(np.int64), np.maximum(n, 1))

    unit = np.eye(k, dtype=int)
    box_forms = _linear_forms(forms, [(e, lo) for e in unit.tolist()]
                              + [(e, hi) for e in (-unit).tolist()])
    parts = [np.empty((0, k), dtype=np.int64)]
    for offset, (t, first, n) in _chunks(math.prod(widths.tolist()), rows_of, max_candidates):
        chunk = np.empty((len(offset), k), dtype=np.int64)
        chunk[:, outer] = t
        for r in reversed(range(len(inner))):
            chunk[:, inner[r]] = first[:, r] + offset % n[:, r]
            offset = offset // n[:, r]
        parts.append(chunk[_form_signs(chunk, box_forms) >= 0])
    # the kept rows as columns, sorted by physical coordinates made a chunk
    # at a time, then coefficients; each column is permuted in place
    cols = np.concatenate([part.T for part in parts], axis=1)
    del parts
    phys = np.empty((k // 2, cols.shape[1]))
    for at in range(0, cols.shape[1], _CHUNK):
        phys[:, at:at + _CHUNK] = coordinates(forms, cols[:, at:at + _CHUNK].T)[:, :k // 2].T
    order = np.lexsort([*cols[::-1], *phys[::-1]])
    del phys
    for c in cols:
        c[:] = c[order]
    del order
    return np.ascontiguousarray(cols.T)


def _refuse_over(estimate: float, max_candidates: int) -> None:
    if estimate > max_candidates:
        raise ResourceCapError(f"enumeration would visit more than {max_candidates} candidates")


def enumerate_quad_range(phys_lo, phys_hi, star_lo, star_hi,
                         max_candidates: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All x in Z[sqrt2] with embed(x) in [phys_lo, phys_hi] and
    embed_star(x) in [star_lo, star_hi] (int, float or Fraction bounds,
    honoured exactly), as an (N, 2) int64 array of rows (a, b), one per
    element a + b*sqrt2, sorted by embed(x), then coefficients: the silver
    scheme's entry into the one walk.  Raises ResourceCapError when the
    estimated candidate count exceeds max_candidates or a coefficient would
    exceed 2**50."""
    bounds = [Fraction(t) for t in (phys_lo, star_lo, phys_hi, star_hi)]
    if bounds[0] > bounds[2] or bounds[1] > bounds[3]:
        return np.empty((0, 2), dtype=np.int64)
    # exactly, before a float of the bounds can overflow
    _check_coefficients(max(map(abs, bounds)))
    # a rough count before any work: 2a = x + x* gives the rows of a, and
    # the narrower of the two constraints bounds each row's b-range
    phys_lo, star_lo, phys_hi, star_hi = bounds
    n_a = (math.floor(float(phys_hi + star_hi) / 2 + 1e-9)
           - math.ceil(float(phys_lo + star_lo) / 2 - 1e-9) + 1)
    _refuse_over(n_a * (min(float(star_hi - star_lo), float(phys_hi - phys_lo)) / SQRT2 + 4),
                 max_candidates)
    return _enumerate_box(SILVER_FORMS, bounds[:2], bounds[2:], max_candidates)


def enumerate_cyclo_box(phys_bound, star_bound,
                        max_candidates: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All x in Z[xi] with x in the sup-norm box [-phys_bound, phys_bound]^2
    and x* in [-star_bound, star_bound]^2, decided exactly, as an (N, 4)
    int64 array of rows (c0, c1, c2, c3), sorted by physical position, then
    coefficients: the octagonal scheme's entry into the one walk.  Raises
    ResourceCapError as ``enumerate_quad_range`` does."""
    P, S = Fraction(phys_bound), Fraction(star_bound)
    if P < 0 or S < 0:
        return np.empty((0, 4), dtype=np.int64)
    # exactly, before a float of the bounds can overflow
    _check_coefficients(max(P, S))
    # a rough count before any work: |c1 +- c3| <= (P + S)*sqrt2/2, doubled
    # for slack, and a (c1 + c3, c1 - c3) row's c0 and c2 ranges meet the
    # physical and the star box, so each is at most 2*min(P, S) wide
    uv_bound = (float(P) + float(S)) / SQRT2 * 2
    _refuse_over((2 * math.floor(uv_bound) + 1) ** 2 / 2
                 * (2 * math.floor(min(float(P), float(S))) + 3) ** 2, max_candidates)
    _check_coefficients(uv_bound + float(P) + float(S))
    return _enumerate_box(OCTAGONAL_FORMS, [-P, -P, -S, -S], [P, P, S, S], max_candidates)

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import numberfields
from selfsim.core import SILVER, SILVER_CONJ, SQRT2, QuadRat
from selfsim.errors import ResourceCapError
from selfsim.modelsets import CutProjectScheme
from selfsim.numberfields import (
    _FILTER_TINY,
    _FILTER_ULPS,
    cyclo_exact,
    enumerate_cyclo_box,
    enumerate_quad_range,
)

ALPHA = SILVER  # 1 + sqrt2
# the eighth roots of unity +-1, +-xi, +-xi^2, +-xi^3 as coefficient rows
UNITS = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)}
ZERO = (0, 0, 0, 0)


def quads(rows) -> list:
    """The ring elements of (a, b) coefficient rows."""
    return [QuadRat(*row) for row in rows.tolist()]


def cyclos(rows) -> list:
    """The (c0, c1, c2, c3) coefficient rows as tuples."""
    return list(map(tuple, rows.tolist()))


def brute_quad_box(phys_bound, star_bound, coeff_bound=40):
    """Oracle: scan a generous coefficient box and filter with floats.

    Only used with bounds small enough that float filtering is unambiguous.
    """
    out = []
    for a in range(-coeff_bound, coeff_bound + 1):
        for b in range(-coeff_bound, coeff_bound + 1):
            x, xs = a + b * SQRT2, a - b * SQRT2
            if abs(x) <= phys_bound + 1e-9 and abs(xs) <= star_bound + 1e-9:
                out.append(QuadRat(a, b))
    return sorted(out, key=lambda q: q.embed())


def brute_cyclo_box(phys_bound, star_bound):
    # Complete coefficient ranges: z + z* and z - z* pin c0 and c2 to
    # [-(P+S)/2, (P+S)/2], while c1 +- c3 are bounded by (P+S)/sqrt2.
    even = math.floor((phys_bound + star_bound) / 2 + 1e-9)
    odd = math.floor((phys_bound + star_bound) / math.sqrt(2) + 1e-9)
    out = []
    for c0 in range(-even, even + 1):
        for c1 in range(-odd, odd + 1):
            for c2 in range(-even, even + 1):
                for c3 in range(-odd, odd + 1):
                    row = (c0, c1, c2, c3)
                    re, im, sre, sim = map(float, cyclo_exact(*row))
                    if (max(abs(re), abs(im)) <= phys_bound + 1e-9
                            and max(abs(sre), abs(sim)) <= star_bound + 1e-9):
                        out.append((re, im, row))
    return [row for *_, row in sorted(out)]


def exact_sign(p: Fraction, q: Fraction) -> int:
    """Reference sign of p + q*sqrt2, from an integer square root."""
    d = p.denominator * q.denominator
    P, Q = int(p * d), int(q * d)
    if Q == 0:
        return (P > 0) - (P < 0)
    # |Q|*sqrt2 lies strictly between s and s + 1
    s = math.isqrt(2 * Q * Q)
    if Q > 0:
        return 1 if P + s >= 0 else -1
    return -1 if P - s <= 0 else 1


def pair(x: QuadRat) -> tuple:
    """x as the two Fractions p, q of p + q*sqrt2."""
    return Fraction(x.a, x.den), Fraction(x.b, x.den)


ints = st.integers(-10**12, 10**12)
quadrats = st.builds(QuadRat, ints, ints, ints.filter(bool))


class TestQuadInt:
    """Elements a + b*sqrt2 of Z[sqrt2]: QuadRat(a, b), den = 1."""

    def test_star_of_silver(self):
        assert ALPHA.star() == QuadRat(1, -1)

    def test_star_is_multiplicative(self):
        x = QuadRat(3, 2)
        assert x == ALPHA * ALPHA
        assert x.star() == ALPHA.star() * ALPHA.star()
        assert SILVER_CONJ * ALPHA == -1

    def test_embed(self):
        assert QuadRat(1, 1).embed() == pytest.approx(2.414213562373095, abs=1e-15)
        assert QuadRat(1, 1).embed_star() == pytest.approx(1 - math.sqrt(2))

    def test_exact_ordering_near_tie(self):
        # 665857/470832 is a convergent of sqrt2: floats cannot tell these apart
        big = QuadRat(665857, -470832)
        assert big.sign() == 1
        assert QuadRat(-665857, 470832).sign() == -1
        assert QuadRat(665857, -470833).sign() == -1

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_mul_matches_floats(self, a, b, c, d):
        x, y = QuadRat(a, b), QuadRat(c, d)
        assert (x * y).embed() == pytest.approx(x.embed() * y.embed(), rel=1e-9, abs=1e-6)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_sign_matches_high_precision(self, a, b):
        import decimal
        decimal.getcontext().prec = 60
        root2 = decimal.Decimal(2).sqrt()
        val = decimal.Decimal(a) + decimal.Decimal(b) * root2
        expected = 0 if val == 0 else (1 if val > 0 else -1)
        assert QuadRat(a, b).sign() == expected


class TestQuadRat:
    def test_lowest_terms(self):
        q = QuadRat(2, 4, 6)
        assert (q.a, q.b, q.den) == (1, 2, 3)

    def test_negative_denominator_normalised(self):
        q = QuadRat(1, 1, -2)
        assert (q.a, q.b, q.den) == (-1, -1, 2)

    def test_field_ops(self):
        half_sqrt2 = QuadRat(0, 1, 2)
        assert half_sqrt2 + half_sqrt2 == QuadRat(0, 1)
        assert half_sqrt2 * QuadRat(0, 1) == 1
        assert 1 / half_sqrt2 == QuadRat(0, 1)
        assert QuadRat(1) / QuadRat(1, 1) == QuadRat(-1, 1)

    def test_ordering(self):
        w_lo = QuadRat(-2, 1, 2)  # 1/sqrt2 - 1
        w_hi = QuadRat(0, 1, 2)   # 1/sqrt2
        assert w_lo < 0 < w_hi
        assert w_lo < w_hi
        assert abs(w_lo) < w_hi

    def test_fraction_interop(self):
        assert QuadRat.from_fraction(Fraction(3, 4)) == QuadRat(3, 0, 4)
        assert QuadRat(1, 0, 2) == Fraction(1, 2)
        assert QuadRat(1, 0, 2) < Fraction(2, 3)

    def test_text(self):
        assert str(QuadRat(1, -1)) == "1-1*sqrt2"
        assert str(QuadRat(3)) == "3+0*sqrt2"
        assert str(QuadRat(-2, 1, 4)) == "(-2+1*sqrt2)/4"

    @given(ints, st.integers(-3, 3), ints.filter(bool))
    def test_hash_agrees_with_equal_rationals(self, a, b, d):
        q, x = QuadRat(a, b, d), Fraction(a, d)
        assert (q == x) == (b == 0)
        if q == x:
            assert hash(q) == hash(x) and x in {q} and q in {x}
            if x.denominator == 1:
                assert q == int(x) and hash(q) == hash(int(x)) and int(x) in {q}

    @given(quadrats, quadrats)
    def test_field_ops_match_a_fraction_pair_reference(self, x, y):
        (p, q), (r, s) = pair(x), pair(y)
        assert pair(x + y) == (p + r, q + s)
        assert pair(x - y) == (p - r, q - s)
        assert pair(x * y) == (p * r + 2 * q * s, p * s + q * r)
        n = r * r - 2 * s * s
        if n:
            assert pair(x / y) == ((p * r - 2 * q * s) / n, (q * r - p * s) / n)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        assert pair(x.star()) == (p, -q)
        assert x.norm() == p * p - 2 * q * q
        assert x.sign() == exact_sign(p, q)
        assert (x < y) == (exact_sign(p - r, q - s) < 0)

    @given(st.integers(-(2**50), 2**50), st.integers(-(2**50), 2**50), st.integers(1, 2**50))
    def test_float_is_the_float_expression_bit_for_bit(self, a, b, d):
        assert float(QuadRat(a, b)).hex() == (a + b * SQRT2).hex()
        if math.gcd(a, b, d) == 1:  # in lowest terms, so stored as given
            assert float(QuadRat(a, b, d)).hex() == ((a + b * SQRT2) / d).hex()


class TestCycloExact:
    def test_star_sends_xi_to_xi_cubed(self):
        # the star images of 1, xi, xi^2, xi^3 sit where 1, xi^3, xi^6 = -xi^2
        # and xi^9 = xi sit, exactly
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        images = [(1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0)]
        for row, image in zip(basis, images):
            assert cyclo_exact(*row)[2:] == cyclo_exact(*image)[:2]

    def test_embed_agrees_with_complex_arithmetic(self):
        xi = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        re, im, sre, sim = map(float, cyclo_exact(2, -1, 3, 5))
        assert complex(re, im) == pytest.approx(2 - xi + 3 * xi**2 + 5 * xi**3)
        assert complex(sre, sim) == pytest.approx(2 - xi**3 + 3 * xi**6 + 5 * xi**9)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(-(2**50), 2**50)] * 4))
    def test_within_the_filter_margin_of_coordinates(self, row):
        # the float filter takes each float coordinate to be within its
        # margin of the exact value; size sums the absolute terms
        c0, c1, c2, c3 = row
        x_size = abs(c0) + abs(c1 - c3) * SQRT2 / 2
        y_size = abs(c2) + abs(c1 + c3) * SQRT2 / 2
        floats = CutProjectScheme.octagonal().coordinates([row])[0].tolist()
        for exact, value, size in zip(cyclo_exact(*row), floats, (x_size, y_size) * 2):
            assert abs(float(exact) - value) <= _FILTER_ULPS * size + _FILTER_TINY
            assert abs(exact - Fraction(value)) <= Fraction(_FILTER_ULPS * size + _FILTER_TINY)


class TestEnumeration:
    def test_quad_window_half_sqrt2(self):
        # |x| <= 5 and |x*| <= 1/sqrt2 leaves exactly 0, +-alpha, +-(alpha+1);
        # Fraction(float) keeps the bound reproducible and exactly comparable
        bound = Fraction(1 / SQRT2)
        got = quads(enumerate_quad_range(-5, 5, -bound, bound))
        expected = {QuadRat(0, 0), QuadRat(1, 1), QuadRat(-1, -1),
                    QuadRat(2, 1), QuadRat(-2, -1)}
        assert set(got) == expected
        assert got == sorted(got, key=lambda q: q.embed())
        assert set(got) == set(brute_quad_box(5, 1 / SQRT2))

    def test_quad_tiny_bound_only_origin(self):
        half = Fraction(1, 2)
        assert quads(enumerate_quad_range(-half, half, -half, half)) == [QuadRat(0, 0)]

    def test_quad_asymmetric_range_against_oracle(self):
        got = quads(enumerate_quad_range(-10, 10, Fraction(-1, 3), Fraction(4, 5)))
        expect = [q for q in brute_quad_box(10, 2)
                  if -1 / 3 - 1e-12 <= q.embed_star() <= 4 / 5 + 1e-12]
        assert got == expect

    def test_cyclo_box_against_oracle(self):
        got = cyclos(enumerate_cyclo_box(Fraction(11, 10), 10))
        assert got == brute_cyclo_box(1.1, 10)
        # Density heuristic: (2.2 * 2.2) * (20 * 20) / covolume 4 ~ 484.
        assert len(got) == 481
        assert UNITS | {ZERO} <= set(got)
        # Closed under multiplication by xi (rotates both embeddings
        # within sup-norm boxes), so the count is 1 mod 8.
        assert len(got) % 8 == 1

    def test_cyclo_tight_box(self):
        # 0, the 8 units, and the four corner elements +-1 +- xi^2
        # (both embeddings of 1 + xi^2 land on box corners).
        got = cyclos(enumerate_cyclo_box(Fraction(11, 10), Fraction(11, 10)))
        corners = {(s0, 0, s2, 0) for s0 in (1, -1) for s2 in (1, -1)}
        assert set(got) == UNITS | corners | {ZERO}

    def test_bounds_past_the_float_range_are_capped_before_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(numberfields, "_chunks", no_work)
        huge = 10**400
        with pytest.raises(ResourceCapError):
            enumerate_quad_range(-huge, huge, -1, 1)
        with pytest.raises(ResourceCapError):
            enumerate_quad_range(huge - 100, huge + 100, -1, 1)
        with pytest.raises(ResourceCapError):
            enumerate_cyclo_box(huge, 2)
        with pytest.raises(ResourceCapError):
            enumerate_cyclo_box(2, Fraction(huge, 3))

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_quad_range(-10**9, 10**9, -10**9, 10**9, max_candidates=1000)
        with pytest.raises(ResourceCapError):
            enumerate_cyclo_box(10**4, 10**4, max_candidates=1000)

    def test_cyclo_estimate_is_bounded_by_the_narrower_box(self, monkeypatch):
        # With the octagon's star bound, patch radius 46 (weyl radius 42) is
        # estimated at 8844.5 (u, v) rows of at most 5 x 5 candidates and
        # admitted; radius 704 is refused before any candidate is made.
        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(numberfields, "_chunks", no_work)
        star = (1 + SQRT2) / 2 + 1e-6
        with pytest.raises(AssertionError, match="started"):
            enumerate_cyclo_box(46, star)
        with pytest.raises(ResourceCapError, match="would visit"):
            enumerate_cyclo_box(704, star)

    @pytest.mark.parametrize("enumerate_, admitted, refused", [
        (lambda r: enumerate_quad_range(-r, r, -1 / SQRT2 - 1e-6, 1 / SQRT2 + 1e-6),
         3_999_997, 3_999_998),
        (lambda r: enumerate_cyclo_box(r, (1 + SQRT2) / 2 + 1e-6), 445, 446),
    ], ids=["line", "plane"])
    def test_estimates_refuse_from_fixed_radii(self, monkeypatch, enumerate_, admitted, refused):
        # the builtin windows' patches: the rough counts decide, before any
        # candidate is made, which radii the cap refuses
        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(numberfields, "_chunks", no_work)
        with pytest.raises(AssertionError, match="started"):
            enumerate_(admitted)
        with pytest.raises(ResourceCapError, match="would visit"):
            enumerate_(refused)

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        # the kept rows are gathered column by column, each chunk freed as it
        # is copied: beside the result live one chunk's temporaries, or the
        # sort keys and order
        half = Fraction(1 / SQRT2)
        star = Fraction((1 + SQRT2) / 2)
        for enumerate_, args in ((enumerate_quad_range, (-150_000, 150_000, -half, half)),
                                 (enumerate_cyclo_box, (130, star))):
            tracemalloc.start()
            try:
                rows = enumerate_(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(rows) >= 50_000
            assert peak <= 3 * rows.nbytes, (enumerate_.__name__, peak, rows.nbytes)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12))
    def test_quad_box_matches_oracle(self, p, s):
        assert quads(enumerate_quad_range(-p, p, -s, s)) == brute_quad_box(p, s)

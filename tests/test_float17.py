"""The vectorized "%.17g" against the scalar one, value for value."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfsim.float17 import CHUNK, _chunk_text, _power10, format_17g


def assert_formats_as_scalar(values):
    x = np.asarray(values, dtype=np.float64)
    got = format_17g(x)
    assert got.dtype == object and got.shape == x.shape
    expected = ["%.17g" % v for v in x.tolist()]
    mismatches = [(v, g, e) for v, g, e in zip(x.tolist(), got.tolist(), expected) if g != e]
    assert mismatches == [], mismatches[:5]


def test_powers_of_ten_are_rounded_to_nearest():
    # the 2**-7 band of undecided fractions holds only for powers off by
    # at most half a unit in their 64 bits
    for q in range(-345, 345):
        c, k = _power10(q)
        assert 2**63 <= c < 2**64
        assert abs(c * Fraction(2) ** k - Fraction(10) ** q) <= Fraction(2) ** k / 2


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 300), elements=st.floats()))
def test_any_floats(values):
    # st.floats() draws NaN, both infinities, both zeros and subnormals too
    assert_formats_as_scalar(values)


def test_random_bit_patterns_of_every_exponent():
    rng = np.random.default_rng(20261019)
    n = 2**20
    bits = rng.integers(0, 2**64, n, dtype=np.uint64)
    # biased exponents 0..2047 in turn, each 512 times, with random signs and mantissas
    exponent = np.arange(n, dtype=np.uint64) % np.uint64(2048)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    assert_formats_as_scalar(bits.view(np.float64))


def exact_ties() -> list:
    """Floats whose exact decimal value has 18 significant digits, the
    last one a 5: 10**(d-1) + k * 2**-(18-d) for odd k, d digits before
    the point.  Each lies halfway between two 17-digit texts."""
    rng = np.random.default_rng(3)
    ks = [*range(1, 100, 2), *(2 * rng.integers(0, 2**19, 50) + 1).tolist()]
    ties = []
    for d in range(1, 18):
        for k in ks:
            tie = 10 ** (d - 1) + Fraction(k, 2 ** (18 - d))
            if tie < 10**d and Fraction(float(tie)) == tie:
                ties.append(float(tie))
    return ties


def test_exact_ties_and_their_neighbours():
    ties = np.array(exact_ties())
    assert len(ties) > 1000
    # "%.17g" rounds a tie to even
    assert "%.17g" % 1.00000762939453125 == "1.0000076293945312"
    # every d up to 16 has representable ties; 10**16 + k/2 has none
    assert len({int(np.log10(t)) for t in ties}) == 16
    near = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    assert_formats_as_scalar(near)
    assert_formats_as_scalar(-near)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = [powers]
    for direction in (-np.inf, np.inf):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            values.append(step)
    values = np.concatenate(values)
    assert_formats_as_scalar(values)
    assert_formats_as_scalar(-values)


def test_nines_that_round_up_to_the_next_power():
    texts = [
        f"{mantissa}e{k}"
        for k in range(-308, 308)
        for mantissa in ("9.99999999999999995", "9.9999999999999999", "9.9999999999999996")
    ]
    values = np.array([float(t) for t in texts])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    assert_formats_as_scalar(values)
    # hundreds of them print as the next power of ten
    assert sum(t.startswith("1e") for t in format_17g(values)) > 500
    assert format_17g(np.array([9.9999999999999996e-281]))[0] == "9.9999999999999996e-281"


def test_arrays_longer_than_one_chunk():
    rng = np.random.default_rng(11)
    n = 3 * CHUNK + 123
    values = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-310, 300, n)
    values[::1000] = 0.0
    values[7::1000] = np.nan
    assert_formats_as_scalar(values)
    assert_formats_as_scalar(values[:0])


def test_the_scalar_path_takes_few_values():
    # the vectorized path must do the work: only fractions within 2**-7 of
    # one half, about 1/64 of the values, and the zero go to "%.17g"
    rng = np.random.default_rng(5)
    values = np.concatenate([[0.0], rng.uniform(0, 1, CHUNK - 1)])
    _, decided, fallback = _chunk_text(values)
    assert len(decided) + len(fallback) == CHUNK
    assert 0 in fallback.tolist() and len(fallback) < 0.03 * CHUNK

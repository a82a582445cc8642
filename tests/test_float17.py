"""The vectorized "%.17g" against the scalar one, value for value."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfsim.float17 import CHUNK, WIDTH, _chunk_rows, _power10, format_17g


def decoded(values, sep="\n") -> list:
    """The rows of ``format_17g`` with their NULs deleted, decoded."""
    rows = format_17g(values, sep)
    assert rows.dtype == np.uint8 and rows.shape == (len(values), WIDTH)
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in rows]


def assert_formats_as_scalar(values, sep="\n"):
    x = np.asarray(values, dtype=np.float64)
    got = decoded(x, sep)
    expected = ["%.17g%s" % (v, sep) for v in x.tolist()]
    mismatches = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
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
    assert sum(t.startswith("1e") for t in decoded(values)) > 500
    assert decoded(np.array([9.9999999999999996e-281])) == ["9.9999999999999996e-281\n"]


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
    rows = np.zeros((CHUNK, WIDTH), dtype=np.uint8)
    fallback = _chunk_rows(values, rows, ord("\n"))
    assert 0 in fallback.tolist() and len(fallback) < 0.03 * CHUNK
    # every other row is written, the scalar ones are left as they were
    written = rows.any(axis=1)
    assert not written[fallback].any() and written.sum() == CHUNK - len(fallback)


@pytest.mark.parametrize("sep", [",", "\n", ";"])
def test_each_text_ends_in_its_separator(sep):
    rng = np.random.default_rng(13)
    values = rng.uniform(-1, 1, 500) * 10.0 ** rng.integers(-320, 300, 500)
    values[:4] = 0.0, -0.0, np.inf, 1.00000762939453125
    assert_formats_as_scalar(values, sep)


def test_dropped_positions_are_nul():
    # the trailing zeros of 1.5 and 2.5e+20 are cut out of the middle of
    # their rows: the exponent and the separator stay where the layout put them
    rows = format_17g(np.array([1.5, -2.5e20, 0.0]), ",")
    assert rows[0, :4].tobytes() == b"1.5\0" and rows[0, 18] == ord(",")
    assert rows[1, :4].tobytes() == b"-2.5" and rows[1, 19:24].tobytes() == b"e+20,"
    assert rows[2].tobytes() == b"0," + bytes(WIDTH - 2)
    assert (rows != 0).sum(axis=1).tolist() == [4, 9, 2]

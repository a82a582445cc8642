"""Every builtin's set maps and measure facets describe one family."""

import math

import pytest

from selfsim.compactsets import TranslationFamilyMap
from selfsim.core import AffineMap, IntervalSet, QuadRat
from selfsim.measures import DiscreteMeasure, UniformFamily
from selfsim.substitutions import maximal_translation_region
from selfsim.systems import BUILTIN_NAMES, builtin

AC = 1.0 - math.sqrt(2.0)
R = abs(AC)

# name -> (family masses per entry, None where no family, and the mass vector)
MASSES = {
    "silver-min": ([[1.0]], None),
    "silver-max": ([[1.0]], None),
    "silver-mc-min": ([[2 * R, R], [R, None]], (1.0, R)),
    "silver-mc": ([[2 * R, R], [R, None]], (1.0, R)),
    "silver-mc-max": ([[2 * R, R], [R, None]], (1.0, R)),
    "ammann-beenker": ([[1.0]], None),
}
ZERO, SHIFT = QuadRat(0, 0), QuadRat(2, -1)
EXACT_OFFSETS = {
    "silver-mc-min": (((ZERO, SHIFT), (ZERO,)), ((QuadRat(1, -1),), None)),
    "silver-mc": (((ZERO, SHIFT), (ZERO,)), ((QuadRat(1, -1),), None)),
}


def families(b):
    """The measure facet's family grid and its linear part."""
    if b.mc is not None:
        return b.mc.sigma, b.mc.a
    return ((b.family,),), b.contraction


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_maps_and_measure_facets_describe_one_family(name):
    b = builtin(name)
    if b.family is None and b.mc is None:
        assert name not in MASSES
        return
    sigma, a = families(b)
    assert len(sigma) == b.ifs.n
    for family_row, map_row in zip(sigma, b.ifs.maps):
        for family, maps in zip(family_row, map_row):
            if family is None:
                assert maps == ()
            elif isinstance(family, DiscreteMeasure):
                assert all(type(f) is AffineMap and f.a == a for f in maps)
                # one atom per map, at the float of its translation
                weight = 1 / 3 if name == "silver-min" else R
                assert list(family.atoms) == sorted((float(f.t), weight) for f in maps)
            else:
                assert isinstance(family, UniformFamily)
                (f,) = maps
                assert type(f) is TranslationFamilyMap and f.a == a
                assert family.region == f.family.as_float()
    masses, m = MASSES[name]
    got = [[None if e is None else e.total_mass for e in row] for row in sigma]
    assert got == masses
    if b.mc is not None:
        assert b.mc.m.tolist() == list(m)
        assert b.mc.exact_offsets == EXACT_OFFSETS.get(name)


def test_planar_contraction_is_exact():
    b = builtin("ammann-beenker")
    assert b.contraction == ((QuadRat(1, -1), ZERO), (ZERO, QuadRat(1, -1)))


def test_silver_mc_max_follows_the_edges_of_the_substitution_graph():
    b = builtin("silver-mc-max")
    w1, w2 = b.exact_attractor
    lam = QuadRat(1, -1)
    # (b, b): the region of t with lam W2 + t inside W2 is nonempty, but the
    # image of b (a -> aba, b -> a) holds no b, so the entry stays empty
    assert maximal_translation_region(w2, w2, lam) is not None
    assert b.mc.sigma[1][1] is None and b.ifs.maps[1][1] == ()
    # (b, a): the region is the one point 1 - sqrt2, so a one-atom entry
    assert maximal_translation_region(w2, w1, lam) == IntervalSet.point(lam)
    assert list(b.mc.sigma[1][0].atoms) == [(float(lam), R)]
    (f,) = b.ifs.maps[1][0]
    assert type(f) is AffineMap and f.t == lam

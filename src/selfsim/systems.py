"""Named example systems, wired up for the command-line drivers.

Each builtin bundles the facets a command can ask for: a set-level IFS
with its exact attractor (attractor command), a translation family or a
coupled-component system (measure and fourier commands), or a
cut-and-project scheme with its window (weyl command).  Commands
look up the facet they need and refuse cleanly when a system does not
carry it.  The 3-adic component system has no facet: the padic command
builds it itself.

The set-level facets are exact and built with the system.  The numpy
facets (family, contraction, mc, scheme, window) are built on first
use, so ``builtin(name)`` followed by the attractor alone never loads
numpy or the numpy layers ``measures``, ``modelsets`` and
``multicomponent``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import _lazy_module
from .compactsets import (
    AffineMap,
    ConvexPolygon,
    IFSSystem,
    IntervalSet,
    TranslationFamilyMap,
)
from .errors import ConfigError
from .numberfields import HALF_SQRT2, QuadInt, QuadRat

measures = _lazy_module("selfsim.measures")
modelsets = _lazy_module("selfsim.modelsets")
multicomponent = _lazy_module("selfsim.multicomponent")

AC_EXACT = QuadInt(1, -1)  # 1 - sqrt2, the internal contraction multiplier
AC = float(AC_EXACT)
R = abs(AC)

W_SPLIT = QuadRat(QuadInt(-2, 1), 2)  # 1/sqrt2 - 1, where the two windows meet
WINDOW = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)
WINDOW_1 = IntervalSet.closed(W_SPLIT, HALF_SQRT2)
WINDOW_2 = IntervalSet.closed(-HALF_SQRT2, W_SPLIT)


def octagon() -> ConvexPolygon:
    """Regular octagon of edge length 1 with exact vertices."""
    half = Fraction(1, 2)
    ha = QuadRat(QuadInt(1, 1), 2)  # (1 + sqrt2) / 2
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


def _facet(name: str) -> property:
    return property(
        lambda self: self._built.get(name),
        doc=f"The {name} facet, built on first use; None when absent.",
    )


@dataclass(frozen=True)
class BuiltinSystem:
    """Facet bundle for one named example.

    Absent facets mean the corresponding command refuses the system.
    ``exact_attractor`` pairs with ``ifs`` for the exact certificate.
    ``facets()`` returns the numpy facets by name, and is called once, on
    the first read of any of them: ``family``/``contraction`` describe a
    single-component measure, and ``mc`` a coupled-component one;
    ``scheme``/``window`` feed the Weyl harness.
    """

    name: str
    summary: str
    ifs: Optional[IFSSystem] = None
    seeds: Optional[tuple] = None
    exact_attractor: Optional[tuple] = None
    facets: Callable[[], dict] = dict
    default_step: float = 1e-3
    default_radii: tuple = (100.0, 500.0, 2000.0)
    weyl_step: float = 1e-3

    @functools.cached_property
    def _built(self) -> dict:
        return self.facets()

    family = _facet("family")
    contraction = _facet("contraction")
    mc = _facet("mc")
    scheme = _facet("scheme")
    window = _facet("window")

    @property
    def has_density(self) -> bool:
        """Whether the measure (coupled, if ``mc`` is set) has a density:
        some translation family is uniform.  Atoms alone make a singular
        measure, which a grid cannot resolve."""
        families = [self.family] if self.mc is None else [e for row in self.mc.sigma for e in row]
        return any(isinstance(e, measures.UniformFamily) for e in families)


def _point() -> BuiltinSystem:
    return BuiltinSystem(
        name="point",
        summary="one map halving toward the origin; attractor {0}",
        ifs=IFSSystem.single([AffineMap(Fraction(1, 2), Fraction(0))]),
        seeds=(IntervalSet.closed(-1.0, 1.0),),
        exact_attractor=(IntervalSet.point(Fraction(0)),),
    )


def _silver_min() -> BuiltinSystem:
    translations = (AC_EXACT, QuadInt(0, 0), QuadInt(-1, 1))
    return BuiltinSystem(
        name="silver-min",
        summary="three equal atoms on the symmetric window",
        ifs=IFSSystem.single([AffineMap(AC_EXACT, t) for t in translations]),
        seeds=(IntervalSet.closed(-1.0, 1.0),),
        exact_attractor=(WINDOW,),
        facets=lambda: dict(
            family=measures.FiniteFamily(
                measures.DiscreteMeasure([(AC, 1 / 3), (0.0, 1 / 3), (-AC, 1 / 3)])
            ),
            contraction=AC_EXACT,
        ),
    )


def _silver_max() -> BuiltinSystem:
    region = IntervalSet.closed(AC_EXACT, QuadInt(-1, 1))
    return BuiltinSystem(
        name="silver-max",
        summary="translations uniform over the largest admissible interval",
        ifs=IFSSystem.single([TranslationFamilyMap(AC_EXACT, region)]),
        seeds=(IntervalSet.closed(-1.0, 1.0),),
        exact_attractor=(WINDOW,),
        facets=lambda: dict(
            family=measures.UniformFamily(IntervalSet.closed(AC, -AC), 1.0),
            contraction=AC_EXACT,
        ),
    )


def _silver_mc_min() -> BuiltinSystem:
    shift = QuadInt(2, -1)  # 2 - sqrt2
    maps = [
        [
            [AffineMap(AC_EXACT, QuadInt(0, 0)), AffineMap(AC_EXACT, shift)],
            [AffineMap(AC_EXACT, QuadInt(0, 0))],
        ],
        [[AffineMap(AC_EXACT, AC_EXACT)], []],
    ]

    def atoms(*locs):
        return measures.FiniteFamily(measures.DiscreteMeasure([(float(l), R) for l in locs]))

    def mc():
        sigma = [
            [atoms(0, shift), atoms(0)],
            [atoms(AC_EXACT), None],
        ]
        exact = [
            [(Fraction(0), shift), (Fraction(0),)],
            [(AC_EXACT,), None],
        ]
        return multicomponent.MCSystem(AC_EXACT, sigma, m=(1.0, R), exact_offsets=exact)

    return BuiltinSystem(
        name="silver-mc-min",
        summary="two coupled windows, one atom per tiling translation",
        ifs=IFSSystem(maps),
        seeds=(IntervalSet.closed(-1.0, 1.0), IntervalSet.closed(-1.0, 1.0)),
        exact_attractor=(WINDOW_1, WINDOW_2),
        facets=lambda: dict(mc=mc()),
        default_step=5e-4,
    )


def _silver_mc_max() -> BuiltinSystem:
    upper = IntervalSet.closed(QuadInt(0, 0), QuadInt(2, -1))
    symmetric = IntervalSet.closed(AC_EXACT, QuadInt(-1, 1))
    maps = [
        [
            [TranslationFamilyMap(AC_EXACT, upper)],
            [TranslationFamilyMap(AC_EXACT, symmetric)],
        ],
        [[AffineMap(AC_EXACT, AC_EXACT)], []],
    ]
    def mc():
        sigma = [
            [
                measures.UniformFamily(upper.as_float(), 2 * R),
                measures.UniformFamily(symmetric.as_float(), R),
            ],
            [measures.PointMassFamily(AC, R), None],
        ]
        return multicomponent.MCSystem(AC_EXACT, sigma, m=(1.0, R))

    return BuiltinSystem(
        name="silver-mc-max",
        summary="two coupled windows with the widest translation families",
        ifs=IFSSystem(maps),
        seeds=(IntervalSet.closed(-1.0, 1.0), IntervalSet.closed(-1.0, 1.0)),
        exact_attractor=(WINDOW_1, WINDOW_2),
        facets=lambda: dict(mc=mc()),
        default_step=5e-4,
    )


def _silver_points() -> BuiltinSystem:
    return BuiltinSystem(
        name="silver",
        summary="Z[sqrt2] cut-and-project points with the symmetric window",
        facets=lambda: dict(scheme=modelsets.CutProjectScheme.silver(), window=WINDOW),
    )


def _ammann_beenker() -> BuiltinSystem:
    window = octagon()
    shrink = QuadInt(2, -1)  # 2 - sqrt2
    region = window.linear_image(((shrink, QuadInt(0, 0)), (QuadInt(0, 0), shrink)))
    matrix = ((AC_EXACT, QuadInt(0, 0)), (QuadInt(0, 0), AC_EXACT))
    return BuiltinSystem(
        name="ammann-beenker",
        summary="octagonal window in the plane, maximal translation family",
        ifs=IFSSystem.single([TranslationFamilyMap(matrix, region)]),
        seeds=(region.as_float(),),
        exact_attractor=(window,),
        facets=lambda: dict(
            family=measures.UniformFamily(region.as_float(), 1.0),
            contraction=((AC, 0.0), (0.0, AC)),
            scheme=modelsets.CutProjectScheme.octagonal(),
            window=window,
        ),
        default_step=5e-3,
        default_radii=(10.0, 20.0, 30.0),
        weyl_step=1e-2,
    )


_FACTORIES = {
    "point": _point,
    "silver-min": _silver_min,
    "silver-max": _silver_max,
    "silver-mc-min": _silver_mc_min,
    "silver-mc-max": _silver_mc_max,
    "silver": _silver_points,
    "ammann-beenker": _ammann_beenker,
}

_ALIASES = {"silver-mc": "silver-mc-min"}

BUILTIN_NAMES = tuple(sorted(_FACTORIES) + sorted(_ALIASES))


def builtin(name: str) -> BuiltinSystem:
    """Look up a builtin system by name (aliases included)."""
    key = _ALIASES.get(name, name)
    factory = _FACTORIES.get(key)
    if factory is None:
        known = ", ".join(BUILTIN_NAMES)
        raise ConfigError(f"unknown system {name!r}; known systems: {known}")
    return factory()

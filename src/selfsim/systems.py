"""Named example systems, wired up for the command-line drivers.

Each builtin bundles the facets a command can ask for: a set-level IFS
with its exact attractor (attractor command), a translation family or a
coupled-component system (measure and fourier commands), or a
cut-and-project scheme with its window (weyl command).  Commands
look up the facet they need and refuse cleanly when a system does not
carry it.  The 3-adic component system has no facet: the padic command
builds it itself.  A builtin with a measure is declared once, as its
compact family of contractions (``_declared``): its IFS, translation
families, mass vector and exact offsets are all derived from it.

The set-level facets are exact and built with the system.  The numpy
facets are built on first use, in two groups: the measure facets
(family, contraction, mc) on the first read of any of them, and the Weyl
facets (scheme, window) likewise.  So ``builtin(name)`` followed by the
attractor alone never loads numpy or the numpy layers ``measures``,
``modelsets`` and ``multicomponent``, ``measure`` never executes
``modelsets``, and ``weyl`` never executes ``multicomponent``.
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
from .numberfields import HALF_SQRT2, QuadRat

measures = _lazy_module("selfsim.measures")
modelsets = _lazy_module("selfsim.modelsets")
multicomponent = _lazy_module("selfsim.multicomponent")

AC_EXACT = QuadRat(1, -1)  # 1 - sqrt2, the internal contraction multiplier
AC = float(AC_EXACT)
R = abs(AC)

W_SPLIT = QuadRat(-2, 1, 2)  # 1/sqrt2 - 1, where the two windows meet
WINDOW = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)
WINDOW_1 = IntervalSet.closed(W_SPLIT, HALF_SQRT2)
WINDOW_2 = IntervalSet.closed(-HALF_SQRT2, W_SPLIT)


def octagon() -> ConvexPolygon:
    """Regular octagon of edge length 1 with exact vertices."""
    half = Fraction(1, 2)
    ha = QuadRat(1, 1, 2)  # (1 + sqrt2) / 2
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


def _facet(name: str, group: str) -> property:
    return property(
        lambda self: getattr(self, group).get(name),
        doc=f"The {name} facet, built on first use; None when absent.",
    )


@dataclass(frozen=True)
class BuiltinSystem:
    """Facet bundle for one named example.

    Absent facets mean the corresponding command refuses the system.
    ``exact_attractor`` pairs with ``ifs`` for the exact certificate.
    ``measure_facets()`` returns the measure facets by name, and is called
    once, on the first read of any of them: ``family``/``contraction``
    describe a single-component measure, and ``mc`` a coupled-component
    one.  ``weyl_facets()`` returns ``scheme``/``window``, which feed the
    Weyl harness, in the same way.
    """

    name: str
    summary: str
    ifs: Optional[IFSSystem] = None
    seeds: Optional[tuple] = None
    exact_attractor: Optional[tuple] = None
    measure_facets: Callable[[], dict] = dict
    weyl_facets: Callable[[], dict] = dict
    default_step: float = 1e-3
    default_radii: tuple = (100.0, 500.0, 2000.0)
    weyl_step: float = 1e-3

    @functools.cached_property
    def _measure(self) -> dict:
        return self.measure_facets()

    @functools.cached_property
    def _weyl(self) -> dict:
        return self.weyl_facets()

    family = _facet("family", "_measure")
    contraction = _facet("contraction", "_measure")
    mc = _facet("mc", "_measure")
    scheme = _facet("scheme", "_weyl")
    window = _facet("window", "_weyl")

    @property
    def families(self) -> list:
        """The measure's translation families: every entry of ``mc`` (None
        where an entry is absent), row by row, or else ``family`` alone."""
        return [self.family] if self.mc is None else [e for row in self.mc.sigma for e in row]

    @property
    def has_density(self) -> bool:
        """Whether the measure (coupled, if ``mc`` is set) has a density:
        some translation family is uniform.  Atoms alone make a singular
        measure, which a grid cannot resolve."""
        return any(isinstance(e, measures.UniformFamily) for e in self.families)


def _maps(a, T) -> list:
    """The set maps x -> a x + t of one entry: one per translation, or one
    translation-family map for a region."""
    return [AffineMap(a, t) for t in T] if isinstance(T, tuple) else [TranslationFamilyMap(a, T)]


def _family(T, mass):
    """The translation family of one entry: ``mass`` shared equally by
    atoms at the translations, or spread uniformly over the region."""
    if isinstance(T, tuple):
        return measures.DiscreteMeasure([(t, mass / len(T)) for t in T])
    return measures.UniformFamily(T.as_float(), mass)


def _declared(name, summary, a, sigma, m=None, **options) -> BuiltinSystem:
    """The builtin whose compact family of contractions x -> a x + t is
    ``sigma``, declared once.

    ``sigma[i][j]`` carries component j into i.  Each entry is None or
    (T, mass), with T a tuple of exact translations or an exact region of
    them (IntervalSet or ConvexPolygon).  The set-level IFS and, on first
    use, the measure facets are derived from it: ``family`` and
    ``contraction`` for one component, else ``mc`` with mass vector
    ``m``, whose exact offsets are the translations when every entry is
    finite.  ``options`` go to ``BuiltinSystem``; the seeds default to
    [-1, 1] per component.
    """
    translations = [[None if e is None else e[0] for e in row] for row in sigma]

    def measure_facets() -> dict:
        families = [[None if e is None else _family(*e) for e in row] for row in sigma]
        if len(sigma) == 1:
            return dict(family=families[0][0], contraction=a)
        finite = all(isinstance(T, tuple) for row in translations for T in row if T is not None)
        offsets = translations if finite else None
        return dict(mc=multicomponent.MCSystem(a, families, m=m, exact_offsets=offsets))

    options.setdefault("seeds", (IntervalSet.closed(-1.0, 1.0),) * len(sigma))
    ifs = IFSSystem([[[] if T is None else _maps(a, T) for T in row] for row in translations])
    return BuiltinSystem(
        name=name, summary=summary, ifs=ifs, measure_facets=measure_facets, **options
    )


_ZERO = QuadRat(0)
_SHIFT = QuadRat(2, -1)  # 2 - sqrt2


def _point() -> BuiltinSystem:
    return BuiltinSystem(
        name="point",
        summary="one map halving toward the origin; attractor {0}",
        ifs=IFSSystem.single([AffineMap(Fraction(1, 2), Fraction(0))]),
        seeds=(IntervalSet.closed(-1.0, 1.0),),
        exact_attractor=(IntervalSet.point(Fraction(0)),),
    )


def _silver_min() -> BuiltinSystem:
    return _declared(
        "silver-min", "three equal atoms on the symmetric window",
        AC_EXACT, [[((AC_EXACT, _ZERO, -AC_EXACT), 1.0)]],
        exact_attractor=(WINDOW,),
    )


def _silver_max() -> BuiltinSystem:
    return _declared(
        "silver-max", "translations uniform over the largest admissible interval",
        AC_EXACT, [[(IntervalSet.closed(AC_EXACT, -AC_EXACT), 1.0)]],
        exact_attractor=(WINDOW,),
    )


def _silver_mc_min() -> BuiltinSystem:
    return _declared(
        "silver-mc-min", "two coupled windows, one atom per tiling translation",
        AC_EXACT, [[((_ZERO, _SHIFT), 2 * R), ((_ZERO,), R)],
                   [((AC_EXACT,), R), None]],
        m=(1.0, R), exact_attractor=(WINDOW_1, WINDOW_2), default_step=5e-4,
    )


def _silver_mc_max() -> BuiltinSystem:
    return _declared(
        "silver-mc-max", "two coupled windows with the widest translation families",
        AC_EXACT, [[(IntervalSet.closed(_ZERO, _SHIFT), 2 * R),
                    (IntervalSet.closed(AC_EXACT, -AC_EXACT), R)],
                   [((AC_EXACT,), R), None]],
        m=(1.0, R), exact_attractor=(WINDOW_1, WINDOW_2), default_step=5e-4,
    )


def _silver_points() -> BuiltinSystem:
    return BuiltinSystem(
        name="silver",
        summary="Z[sqrt2] cut-and-project points with the symmetric window",
        weyl_facets=lambda: dict(scheme=modelsets.CutProjectScheme.silver(), window=WINDOW),
    )


def _ammann_beenker() -> BuiltinSystem:
    window = octagon()
    region = window.linear_image(((_SHIFT, _ZERO), (_ZERO, _SHIFT)))
    return _declared(
        "ammann-beenker", "octagonal window in the plane, maximal translation family",
        ((AC_EXACT, _ZERO), (_ZERO, AC_EXACT)), [[(region, 1.0)]],
        weyl_facets=lambda: dict(scheme=modelsets.CutProjectScheme.octagonal(), window=window),
        seeds=(region.as_float(),), exact_attractor=(window,),
        default_step=5e-3, default_radii=(10.0, 20.0, 30.0), weyl_step=1e-2,
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

"""Named example systems, wired up for the command-line drivers.

Each builtin bundles the facets a command can ask for: a set-level IFS
with its exact attractor (attractor command), a translation family or a
coupled-component system (measure and fourier commands), or a
cut-and-project scheme with its window (weyl command).  Commands
look up the facet they need and refuse cleanly when a system does not
carry it.  The 3-adic component system has no facet: the padic command
builds it itself.  A builtin with a measure is declared once, as its
compact family of contractions (``_declared``): its IFS, translation
families, mass vector and exact offsets are all derived from it.  The
two coupled silver builtins derive that family in turn from their
substitution rule and windows (``_substituted``), and only they execute
``substitutions``.

Every facet is built on first use, in three groups: the attractor
facets (ifs, seeds, exact_attractor) on the first read of any of them,
the measure facets (family, contraction, mc) likewise, and the Weyl
facets (scheme, window) likewise.  So ``builtin(name)`` followed by the
attractor alone never loads numpy or the numpy layers ``measures``,
``modelsets`` and ``multicomponent``, ``measure`` never executes
``modelsets``, ``weyl`` executes neither ``measures`` nor
``multicomponent`` (only the lattice grids of ``grids``), and neither
``measure``, ``fourier`` nor ``weyl`` builds a set-level IFS or executes
the attractor engine ``compactsets``, which only the attractor facets
reach.  ``polygons`` runs for the planar builtin alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

from . import _lazy_module
from .core import HALF_SQRT2, SILVER_CONJ, AffineMap, IntervalSet, QuadRat
from .errors import ConfigError

# the attractor engine runs inside the attractor facets alone, and the
# plane's sets for the planar builtin alone
compactsets = _lazy_module("selfsim.compactsets")
polygons = _lazy_module("selfsim.polygons")
measures = _lazy_module("selfsim.measures")
modelsets = _lazy_module("selfsim.modelsets")
multicomponent = _lazy_module("selfsim.multicomponent")
substitutions = _lazy_module("selfsim.substitutions")

W_SPLIT = QuadRat(-2, 1, 2)  # 1/sqrt2 - 1, where the two windows meet
WINDOW = IntervalSet.closed(-HALF_SQRT2, HALF_SQRT2)
WINDOW_1 = IntervalSet.closed(W_SPLIT, HALF_SQRT2)
WINDOW_2 = IntervalSet.closed(-HALF_SQRT2, W_SPLIT)


def octagon() -> polygons.ConvexPolygon:
    """Regular octagon of edge length 1 with exact vertices."""
    half = Fraction(1, 2)
    ha = QuadRat(1, 1, 2)  # (1 + sqrt2) / 2
    return polygons.ConvexPolygon(
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


class BuiltinSystem:
    """Facet bundle for one named example.

    Absent facets mean the corresponding command refuses the system.
    Each facet group is returned by name by its function, called once, on
    the first read of any facet in it.  ``attractor_facets()`` returns
    ``ifs``/``seeds``/``exact_attractor``; ``exact_attractor`` pairs with
    ``ifs`` for the exact certificate.  ``measure_facets()`` returns
    ``family``/``contraction``, which describe a single-component measure,
    and ``mc``, a coupled-component one.  ``weyl_facets()`` returns
    ``scheme``/``window``, which feed the Weyl harness.
    """

    def __init__(
        self,
        name: str,
        summary: str,
        attractor_facets: Callable[[], dict] = dict,
        measure_facets: Callable[[], dict] = dict,
        weyl_facets: Callable[[], dict] = dict,
        default_step: float = 1e-3,
        default_radii: tuple = (100.0, 500.0, 2000.0),
        weyl_step: float = 1e-3,
    ) -> None:
        self.name, self.summary = name, summary
        self.attractor_facets = attractor_facets
        self.measure_facets, self.weyl_facets = measure_facets, weyl_facets
        self.default_step, self.default_radii, self.weyl_step = default_step, default_radii, weyl_step

    @functools.cached_property
    def _attractor(self) -> dict:
        return self.attractor_facets()

    @functools.cached_property
    def _measure(self) -> dict:
        return self.measure_facets()

    @functools.cached_property
    def _weyl(self) -> dict:
        return self.weyl_facets()

    ifs = _facet("ifs", "_attractor")
    seeds = _facet("seeds", "_attractor")
    exact_attractor = _facet("exact_attractor", "_attractor")
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
    if isinstance(T, tuple):
        return [AffineMap(a, t) for t in T]
    return [compactsets.TranslationFamilyMap(a, T)]


def _family(T, mass):
    """The translation family of one entry: ``mass`` shared equally by
    atoms at the translations, or spread uniformly over the region."""
    if isinstance(T, tuple):
        return measures.DiscreteMeasure([(t, mass / len(T)) for t in T])
    return measures.UniformFamily(T.as_float(), mass)


def _declared(
    name, summary, a, sigma, seeds=None, exact_attractor=None, **options
) -> BuiltinSystem:
    """The builtin whose compact family of contractions x -> a x + t is
    ``sigma()``, declared once.

    ``sigma()`` returns a grid whose entry [i][j] carries component j
    into i.  Each entry is None or (T, mass), with T a tuple of exact
    translations or an exact region of them (IntervalSet or
    ConvexPolygon).  It is called on the first read of the attractor
    facets and of the measure facets, which are derived from it: the
    set-level IFS, with ``seeds(translations)`` for the grid of the T
    (default [-1, 1] per component) and ``exact_attractor``; and
    ``family`` and ``contraction`` for one component, else ``mc``, whose
    mass vector is the measures of the components of ``exact_attractor``
    and whose exact offsets are the translations when every entry is
    finite.  ``options`` go to ``BuiltinSystem``.
    """

    def translations(entries) -> list:
        return [[None if e is None else e[0] for e in row] for row in entries]

    def attractor_facets() -> dict:
        T = translations(sigma())
        ifs = compactsets.IFSSystem([[[] if t is None else _maps(a, t) for t in row] for row in T])
        start = (IntervalSet.closed(-1.0, 1.0),) * len(T) if seeds is None else seeds(T)
        return dict(ifs=ifs, seeds=start, exact_attractor=exact_attractor)

    def measure_facets() -> dict:
        entries = sigma()
        families = [[None if e is None else _family(*e) for e in row] for row in entries]
        if len(entries) == 1:
            return dict(family=families[0][0], contraction=a)
        T = translations(entries)
        finite = all(isinstance(t, tuple) for row in T for t in row if t is not None)
        offsets = T if finite else None
        m = [float(w.measure()) for w in exact_attractor]
        return dict(mc=multicomponent.MCSystem(a, families, m=m, exact_offsets=offsets))

    return BuiltinSystem(
        name=name, summary=summary, attractor_facets=attractor_facets,
        measure_facets=measure_facets, **options
    )


def _substituted(name, summary, rule, windows, maximal, **options) -> BuiltinSystem:
    """The coupled builtin of a substitution rule and its windows, one per
    letter, which solve W_i = U_j (lambda* W_j + D*_ij) for the rule's
    starred displacement sets D*_ij (``substitutions.displacements``).
    Entry [i][j] is None where the image of j holds no i (no edge of the
    substitution graph), else it carries mass |D_ij| |lambda*| by atoms
    at D*_ij or, when ``maximal``, over the largest region of t with
    lambda* W_j + t inside W_i, one translation where that is a point.
    The windows are the exact attractor, and their measures the mass vector.
    """
    lam = rule.inflation.star()
    r = float(abs(lam))

    def entry(w_i, w_j, d) -> tuple:
        if not maximal:
            return tuple(t.star() for t in d), len(d) * r
        region = substitutions.maximal_translation_region(w_i, w_j, lam)
        return ((region.lo,) if region.lo == region.hi else region), len(d) * r

    def sigma() -> list:
        table = substitutions.displacements(rule)
        return [[entry(w_i, w_j, d) if d else None for w_j, d in zip(windows, row)]
                for w_i, row in zip(windows, table)]

    return _declared(name, summary, lam, sigma, exact_attractor=windows, **options)


_ZERO = QuadRat(0)
_SHIFT = QuadRat(2, -1)  # 2 - sqrt2


def _point() -> BuiltinSystem:
    return BuiltinSystem(
        name="point",
        summary="one map halving toward the origin; attractor {0}",
        attractor_facets=lambda: dict(
            ifs=compactsets.IFSSystem.single([AffineMap(Fraction(1, 2), Fraction(0))]),
            seeds=(IntervalSet.closed(-1.0, 1.0),),
            exact_attractor=(IntervalSet.point(Fraction(0)),),
        ),
    )


def _silver_min() -> BuiltinSystem:
    return _declared(
        "silver-min", "three equal atoms on the symmetric window",
        SILVER_CONJ, lambda: [[((SILVER_CONJ, _ZERO, -SILVER_CONJ), 1.0)]],
        exact_attractor=(WINDOW,),
    )


def _silver_max() -> BuiltinSystem:
    return _declared(
        "silver-max", "translations uniform over the largest admissible interval",
        SILVER_CONJ, lambda: [[(IntervalSet.closed(SILVER_CONJ, -SILVER_CONJ), 1.0)]],
        exact_attractor=(WINDOW,),
    )


def _silver_mc_min() -> BuiltinSystem:
    return _substituted(
        "silver-mc-min", "two coupled windows, one atom per tiling translation",
        substitutions.SILVER_RULE, (WINDOW_1, WINDOW_2), False, default_step=5e-4,
    )


def _silver_mc_max() -> BuiltinSystem:
    return _substituted(
        "silver-mc-max", "two coupled windows with the widest translation families",
        substitutions.SILVER_RULE, (WINDOW_1, WINDOW_2), True, default_step=5e-4,
    )


def _silver_points() -> BuiltinSystem:
    return BuiltinSystem(
        name="silver",
        summary="Z[sqrt2] cut-and-project points with the symmetric window",
        weyl_facets=lambda: dict(scheme=modelsets.CutProjectScheme.silver(), window=WINDOW),
    )


def _ammann_beenker() -> BuiltinSystem:
    window = octagon()
    return _declared(
        "ammann-beenker", "octagonal window in the plane, maximal translation family",
        ((SILVER_CONJ, _ZERO), (_ZERO, SILVER_CONJ)),
        lambda: [[(window.linear_image(((_SHIFT, _ZERO), (_ZERO, _SHIFT))), 1.0)]],
        weyl_facets=lambda: dict(scheme=modelsets.CutProjectScheme.octagonal(), window=window),
        seeds=lambda T: (T[0][0].as_float(),),  # the translation region, as floats
        exact_attractor=(window,),
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

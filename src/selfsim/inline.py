"""Inline system descriptors: a system given as a dict in the config.

``system_from_spec`` builds a 1D system from the JSON object a config
file holds in its ``system`` field, validating every key and number on
the way.  Only a run whose system is such a dict executes this module.
"""

from __future__ import annotations

import math

from . import _lazy_module
from .core import AffineMap, IntervalSet
from .errors import ConfigError, _refuse_unknown
from .systems import BuiltinSystem

np = _lazy_module("numpy")
compactsets = _lazy_module("selfsim.compactsets")
measures = _lazy_module("selfsim.measures")
multicomponent = _lazy_module("selfsim.multicomponent")


# the keys of each inline family kind, "kind" included
_FAMILY_KEYS = {
    "uniform": ("kind", "lo", "hi", "mass"),
    "atoms": ("kind", "atoms"),
    "point": ("kind", "location", "mass"),
}


def _finite(value, what: str) -> float:
    """``value`` as a float, refused as a ConfigError unless it is finite."""
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {x!r}")
    return x


def _family_from_spec(spec) -> object:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("family spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family kind {kind!r}")
    _refuse_unknown(spec, _FAMILY_KEYS[kind], f"{kind!r} family spec")
    try:
        if kind == "uniform":
            region = IntervalSet.closed(
                _finite(spec["lo"], "a uniform family's 'lo'"),
                _finite(spec["hi"], "a uniform family's 'hi'"),
            )
            if not region.measure() > 0:
                raise ConfigError(f"a uniform family needs hi above lo, got [{region.lo}, {region.hi}]")
            mass = _finite(spec.get("mass", 1.0), "a uniform family's 'mass'")
            return measures.UniformFamily(region, mass)
        if kind == "atoms":
            atoms = [
                (_finite(loc, "an atom's location"), _finite(w, "an atom's weight"))
                for loc, w in spec["atoms"]
            ]
            return measures.DiscreteMeasure(atoms)
        atom = (  # kind == "point"
            _finite(spec["location"], "a point family's 'location'"),
            _finite(spec.get("mass", 1.0), "a point family's 'mass'"),
        )
        return measures.DiscreteMeasure([atom])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad {kind!r} family spec: {exc}")


def _map_from_spec(spec, a: float):
    """The map x -> a x + t of one ``maps`` entry; its own "a" overrides ``a``."""
    _refuse_unknown(spec, ("t", "a"), "inline map")
    a = _finite(spec.get("a", a), "a map's 'a'")
    return AffineMap(a, _finite(spec["t"], "a map's 't'"))


def system_from_spec(spec: dict) -> BuiltinSystem:
    """Build a 1D system from an inline JSON descriptor.

    Recognized keys: ``a`` (the shared contraction), ``maps`` (nested
    per-component translation lists, each entry ``{"t": ...}`` with an
    optional per-map ``"a"``), ``seeds`` (seed intervals as [lo, hi]
    pairs), ``family`` (single-component measure spec), ``sigma`` and
    ``m`` (multi-component entries and mass vector), and an optional
    ``s`` cross-checked against the family masses.  Any other key, here,
    in a map entry or in a family spec, is refused.  Every number must
    be finite.
    """
    _refuse_unknown(spec, ("a", "maps", "seeds", "family", "sigma", "m", "s"), "inline system")
    if "a" not in spec:
        raise ConfigError("inline system needs the contraction 'a'")
    try:
        a = float(spec["a"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"the contraction 'a' must be a number: {exc}")
    if not 0 < abs(a) < 1:
        raise ConfigError(f"the contraction 'a' needs 0 < |a| < 1, got {a}")
    ifs = seeds = None
    if "maps" in spec:
        try:
            grid = [[[_map_from_spec(m, a) for m in cell] for cell in row] for row in spec["maps"]]
            ifs = compactsets.IFSSystem(grid)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"bad inline maps: {exc}")
        except ValueError as exc:
            raise ConfigError(str(exc))
        raw_seeds = spec.get("seeds")
        if raw_seeds is None:
            raw_seeds = [[-1.0, 1.0]] * ifs.n
        try:
            seeds = tuple(
                IntervalSet.closed(
                    _finite(lo, "a seed's lo"), _finite(hi, "a seed's hi")
                )
                for lo, hi in raw_seeds
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline seeds: {exc}")
        if len(seeds) != ifs.n:
            raise ConfigError(f"expected {ifs.n} inline seeds, one per component, got {len(seeds)}")
    family = _family_from_spec(spec["family"]) if "family" in spec else None
    if family is not None and not abs(family.total_mass - 1.0) <= 1e-9:
        raise ConfigError(f"a single family must have mass 1, got {family.total_mass}")
    mc = None
    if "sigma" in spec:
        try:
            sigma = [
                [None if cell is None else _family_from_spec(cell) for cell in row]
                for row in spec["sigma"]
            ]
            m = spec.get("m")
            if m is not None:
                m = [_finite(v, "the mass vector 'm'") for v in m]
            mc = multicomponent.MCSystem(a, sigma, m=m)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline sigma or m: {exc}")
        if "s" in spec:
            try:
                stated = np.array(spec["s"], dtype=float).reshape(mc.s.shape)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad stated s: {exc}")
            if not np.isfinite(stated).all():
                raise ConfigError(f"the stated 's' must be finite, got {spec['s']!r}")
            bad = np.argwhere(np.abs(stated - mc.s) > 1e-9).tolist()
            if bad:
                raise ConfigError(f"stated s{bad[0]} disagrees with the family masses")
    return BuiltinSystem(
        name="inline",
        summary="inline system from config",
        attractor_facets=lambda: dict(ifs=ifs, seeds=seeds),
        measure_facets=lambda: dict(family=family, contraction=a, mc=mc),
    )

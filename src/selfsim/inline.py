"""Inline system descriptors: a system given as a dict in the config.

``system_from_spec`` builds a 1D system from the JSON object a config
file holds in its ``system`` field, validating every key and number on
the way.  Only a run whose system is such a dict executes this module.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

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


@contextmanager
def _refusing(prefix: str, errors=(KeyError, TypeError, ValueError)):
    """Report ``errors`` raised in the block as a prefixed ConfigError: a
    descriptor's own faults, or a library constructor's ValueError alone,
    so that a fault inside the library shows as a traceback."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}")


def _family_from_spec(spec) -> object:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("family spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family kind {kind!r}")
    _refuse_unknown(spec, _FAMILY_KEYS[kind], f"{kind!r} family spec")
    bad = f"bad {kind!r} family spec: "
    if kind == "uniform":
        with _refusing(bad):
            lo, hi = (_finite(spec[key], f"a uniform family's {key!r}") for key in ("lo", "hi"))
        with _refusing(bad, ValueError):
            region = IntervalSet.closed(lo, hi)
        if not region.measure() > 0:
            raise ConfigError(f"a uniform family needs hi above lo, got [{region.lo}, {region.hi}]")
        with _refusing(bad):
            mass = _finite(spec.get("mass", 1.0), "a uniform family's 'mass'")
        with _refusing(bad, ValueError):
            return measures.UniformFamily(region, mass)
    with _refusing(bad):
        if kind == "atoms":
            atoms = [(_finite(loc, "an atom's location"), _finite(w, "an atom's weight"))
                     for loc, w in spec["atoms"]]
        else:  # kind == "point"
            atoms = [(_finite(spec["location"], "a point family's 'location'"),
                      _finite(spec.get("mass", 1.0), "a point family's 'mass'"))]
    with _refusing(bad, ValueError):
        return measures.DiscreteMeasure(atoms)


def _map_from_spec(spec, a: float) -> tuple:
    """(a, t) of one ``maps`` entry's x -> a x + t; its own "a" overrides ``a``."""
    _refuse_unknown(spec, ("t", "a"), "inline map")
    a = _finite(spec.get("a", a), "a map's 'a'")
    return a, _finite(spec["t"], "a map's 't'")


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
    with _refusing("the contraction 'a' must be a number: ", (TypeError, ValueError)):
        a = float(spec["a"])
    if not 0 < abs(a) < 1:
        raise ConfigError(f"the contraction 'a' needs 0 < |a| < 1, got {a}")
    ifs = seeds = None
    if "maps" in spec:
        with (_refusing("bad inline maps: ", (KeyError, TypeError, AttributeError)),
              _refusing("", ValueError)):
            grid = [[[_map_from_spec(m, a) for m in cell] for cell in row] for row in spec["maps"]]
        with _refusing("", ValueError):
            ifs = compactsets.IFSSystem(
                [[[AffineMap(*m) for m in cell] for cell in row] for row in grid])
        raw_seeds = spec.get("seeds")
        if raw_seeds is None:
            raw_seeds = [[-1.0, 1.0]] * ifs.n
        with _refusing("bad inline seeds: ", (TypeError, ValueError)):
            ends = [(_finite(lo, "a seed's lo"), _finite(hi, "a seed's hi"))
                    for lo, hi in raw_seeds]
        with _refusing("bad inline seeds: ", ValueError):
            seeds = tuple(IntervalSet.closed(lo, hi) for lo, hi in ends)
        if len(seeds) != ifs.n:
            raise ConfigError(f"expected {ifs.n} inline seeds, one per component, got {len(seeds)}")
    family = _family_from_spec(spec["family"]) if "family" in spec else None
    if family is not None and not abs(family.total_mass - 1.0) <= 1e-9:
        raise ConfigError(f"a single family must have mass 1, got {family.total_mass}")
    mc = None
    if "sigma" in spec:
        prefix = "bad inline sigma or m: "
        with _refusing(prefix, (TypeError, ValueError)):
            rows = [list(row) for row in spec["sigma"]]
        sigma = [[None if cell is None else _family_from_spec(cell) for cell in row]
                 for row in rows]
        with _refusing(prefix, (TypeError, ValueError)):
            m = spec.get("m")
            if m is not None:
                m = [_finite(v, "the mass vector 'm'") for v in m]
        with _refusing(prefix, ValueError):
            mc = multicomponent.MCSystem(a, sigma, m=m)
        if "s" in spec:
            with _refusing("bad stated s: ", (TypeError, ValueError)):
                stated = np.array(spec["s"], dtype=float).reshape(mc.s.shape)
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

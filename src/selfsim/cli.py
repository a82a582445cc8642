"""Command-line drivers: named example systems in, CSV/JSON files out.

Five commands cover the library surface: ``attractor`` iterates a
set-level system and logs convergence, ``measure`` solves an invariant
density (single- or multi-component), ``fourier`` tabulates the
transform product, ``weyl`` tabulates ball averages over a
cut-and-project point set, and ``padic`` emits the exact coset
densities with a pass/fail check.  Exit codes: 0 success, 1 bad
configuration (a usage error included), 2 non-convergence or a failed
exactness check, 3 a resource cap.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__, _lazy_module
from .errors import ConfigError, ConvergenceError, ResourceCapError

# the fourier table's size before it is built: frequencies, and frequencies
# times product terms (about 60-130 ns each, so some 8-17 s at the cap)
_FOURIER_FREQUENCY_CAP = 2**20
_FOURIER_PRODUCT_CAP = 2**27

# every layer is loaded on first use, so a command executes only the layers
# it runs: attractor never executes numpy, and padic executes padic alone.
# numberfields is not used here; it is registered with the others so that
# every layer module is in sys.modules once this module is imported.
np = _lazy_module("numpy")
compactsets = _lazy_module("selfsim.compactsets")
numberfields = _lazy_module("selfsim.numberfields")
padic = _lazy_module("selfsim.padic")
systems = _lazy_module("selfsim.systems")
measures = _lazy_module("selfsim.measures")
modelsets = _lazy_module("selfsim.modelsets")
multicomponent = _lazy_module("selfsim.multicomponent")
# the output layer's vectorized "%.17g", run by measure's CSV writer alone
float17 = _lazy_module("selfsim.float17")


def _numbers(value) -> list:
    """The numbers in a config value: none for None, each one of a nested tuple."""
    if isinstance(value, tuple):
        return [x for v in value for x in _numbers(v)]
    return [] if value is None else [value]


# the config values that are tuples, and how deep: a radius is a number, a
# center a number or a tuple of coordinates
_TUPLE_DEPTH = {"radii": 1, "centers": 2}


def _is_number(value, depth: int = 0) -> bool:
    """Whether ``value`` is a number (an int or a float, not a bool) or, for
    ``depth`` > 0, a tuple of numbers and of such tuples of ``depth`` - 1."""
    if depth:
        return isinstance(value, tuple) and all(
            _is_number(v) or _is_number(v, depth - 1) for v in value
        )
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _tuple(value, depth: int):
    """A JSON list as a tuple, lists in it as tuples down to ``depth`` levels,
    and each number as a float; anything else is left for the type check."""
    if isinstance(value, (list, tuple)) and depth:
        return tuple(_tuple(v, depth - 1) for v in value)
    return float(value) if _is_number(value) else value


class ExperimentConfig:
    """Merged run parameters: system descriptor, numerics, output.

    ``system`` is a builtin name or an inline dict (see
    ``system_from_spec``); every other field is checked for its type and
    range on construction, before any computation starts.  A number is an
    int or a float, not a bool; ``radii`` and ``centers`` are tuples of
    numbers (a center may be a tuple of coordinates).  The field names,
    in ``__slots__``, are the keys a config file may hold.
    """

    __slots__ = ("system", "out", "fmt", "tol", "grid_step", "radii", "centers", "terms",
                 "precision", "max_iter", "k_min", "k_max", "k_step")

    def __init__(
        self,
        system: object = None,
        out: str = ".",
        fmt: str = "csv",
        tol: float = 1e-8,
        grid_step: Optional[float] = None,
        radii: Optional[tuple] = None,
        centers: tuple = (0.0,),
        terms: int = 40,
        precision: Optional[int] = None,
        max_iter: Optional[int] = None,
        k_min: float = 0.0,
        k_max: float = 5.0,
        k_step: float = 0.01,
    ) -> None:
        self.system, self.out, self.fmt, self.tol = system, out, fmt, tol
        self.grid_step, self.radii, self.centers, self.terms = grid_step, radii, centers, terms
        self.precision, self.max_iter = precision, max_iter
        self.k_min, self.k_max, self.k_step = k_min, k_max, k_step
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        for name in ("tol", "grid_step", "radii", "centers", "k_min", "k_max", "k_step"):
            value = getattr(self, name)
            depth = _TUPLE_DEPTH.get(name, 0)
            if not (_is_number(value, depth) or value is None and name in ("grid_step", "radii")):
                what = "a tuple of numbers" if depth else "a number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            if not all(map(math.isfinite, _numbers(value))):
                raise ConfigError(f"{name.replace('_', '-')} must be finite, got {value!r}")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.grid_step is not None and not self.grid_step > 0:
            raise ConfigError("grid step must be positive")
        if self.radii is not None:
            if not self.radii or any(not float(r) > 0 for r in self.radii):
                raise ConfigError("radii must be positive")
        if not self.centers:
            raise ConfigError("centers must not be empty")
        for name in ("terms", "precision", "max_iter"):
            value = getattr(self, name)
            if not (type(value) is int or value is None and name != "terms"):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.terms < 1:
            raise ConfigError("terms must be at least 1")
        if self.precision is not None and self.precision < 4:
            raise ConfigError("K must be at least 4")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError("max-iter must be at least 1")
        if not self.k_step > 0:
            raise ConfigError("k-step must be positive")
        if self.k_max < self.k_min:
            raise ConfigError("k-max must not be below k-min")


def build_config(config_path: Optional[str], defaults=None, **flags) -> ExperimentConfig:
    """Layer defaults, an optional JSON config file, and explicit flags."""
    data = {}
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    _refuse_unknown(data, ExperimentConfig.__slots__, "config")
    merged = dict(defaults or {})
    merged.update(data)
    merged.update({k: v for k, v in flags.items() if v is not None})
    for name, depth in _TUPLE_DEPTH.items():
        if name in merged:
            merged[name] = _tuple(merged[name], depth)
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# inline system descriptors


def _refuse_unknown(spec, known, what: str) -> None:
    """Refuse a dict ``spec`` with keys outside ``known``, naming them."""
    unknown = set(spec) - set(known) if isinstance(spec, dict) else ()
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


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
            region = compactsets.IntervalSet.closed(
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
    return compactsets.AffineMap(a, _finite(spec["t"], "a map's 't'"))


def system_from_spec(spec: dict) -> systems.BuiltinSystem:
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
                compactsets.IntervalSet.closed(
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
    return systems.BuiltinSystem(
        name="inline",
        summary="inline system from config",
        attractor_facets=lambda: dict(ifs=ifs, seeds=seeds),
        measure_facets=lambda: dict(family=family, contraction=a, mc=mc),
    )


def resolve_system(cfg: ExperimentConfig) -> systems.BuiltinSystem:
    if cfg.system is None:
        raise ConfigError(
            f"no system given; pass --system or put one in the config "
            f"(builtins: {', '.join(systems.BUILTIN_NAMES)})"
        )
    if isinstance(cfg.system, str):
        return systems.builtin(cfg.system)
    if isinstance(cfg.system, dict):
        return system_from_spec(cfg.system)
    raise ConfigError("system must be a builtin name or an inline dict")


# ---------------------------------------------------------------------------
# output plumbing


def _cell(v) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean cells")
    return str(v) if isinstance(v, int) else format(float(v), ".17g")


def _csv_lines(rows):
    """Mixed int/float rows as CSV lines, each as bytes with its newline."""
    return ((",".join(_cell(v) for v in row) + "\n").encode() for row in rows)


def _write_csv(path: Path, header: str, blocks) -> None:
    """Write a header line, then each of ``blocks`` (the bytes of whole
    lines, newlines included), streamed to a file opened in binary mode,
    and announce the file."""
    with path.open("wb") as f:
        f.write(header.encode() + b"\n")
        f.writelines(blocks)
    _echo(f"wrote {path}")


def _write_json(path: Path, obj=None, blocks=None) -> None:
    """Write ``obj`` as JSON with sorted keys and an indent of 2, and
    announce the file.  A document too large to build whole comes as
    ``blocks`` instead: its text in that same layout, streamed."""
    if blocks is None:
        blocks = (json.dumps(obj, sort_keys=True, indent=2), "\n")
    with path.open("w") as f:
        f.writelines(blocks)
    _echo(f"wrote {path}")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_grid(g: measures.GridDensity, path_base: Path, fmt: str) -> Path:
    """Write the grid as JSON, or as CSV with one ``x,[y,]density`` line
    per node, x varying fastest, every field ``"%.17g" % value``.

    ``float17`` lays each text out in a NUL-padded uint8 row.  A block of
    lines is gathered from those rows and written, in binary mode, as
    ``block.tobytes().translate(None, b"\\0")``: no text contains a NUL,
    so deleting them leaves exactly the text.
    """
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        header = ",".join([*"xyz"[: g.dim], "density"])
        _write_csv(path, header, float17.csv_blocks(g._node_axes(), g.values))
    else:
        path = path_base.with_suffix(".json")
        _write_json(path, dict(origin=g.origin, step=g.step, counts=list(g.values.shape),
                               weights=g.values.tolist(), mass=g.mass))
    return path


def _set_json(s) -> dict:
    if isinstance(s, compactsets.IntervalSet):
        return {"intervals": [[float(lo), float(hi)] for lo, hi in s.intervals]}
    if isinstance(s, compactsets.ConvexPolygon):
        return {"vertices": [[float(x), float(y)] for x, y in s.vertices]}
    return {"parts": [_set_json(part) for part in s]}


def _set_rows(s):
    """part,lo,hi rows for interval sets; part,x,y vertex rows for polygons."""
    if isinstance(s, compactsets.IntervalSet):
        return "part,lo,hi", [(k, float(lo), float(hi)) for k, (lo, hi) in enumerate(s.intervals)]
    parts = s if isinstance(s, tuple) else (s,)
    return "part,x,y", [(k, float(x), float(y)) for k, p in enumerate(parts) for x, y in p.vertices]


def _check_grid_step(step: float, region, what: str) -> None:
    """Refuse a raster step that is not below the region's smallest
    extent: such a grid cannot resolve the region at all."""
    box = region.as_float().bbox()  # the least coordinates, then the greatest
    extent = min(hi - lo for lo, hi in zip(box[: region.dim], box[region.dim :]))
    if not step < extent:
        raise ConfigError(
            f"grid step {step:g} is not below the {what}'s smallest extent {extent:g}"
        )


def _die(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def _echo(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------------
# commands

# name -> (runner, its own options as (flag, ..., add_argument keywords))
_COMMANDS = {}

# the options of every command; each dest, like every command option's, is a config field
_COMMON_OPTIONS = (
    ("--config", dict(dest="config_path", metavar="FILE", help="JSON config file")),
    ("--out", dict(help="output directory (default: current)")),
    ("--format", dict(dest="fmt", metavar="{csv,json}", help="output format: csv or json (default csv)")),
)


def _command(name: str, *options, defaults=None):
    """Register the decorated function as command ``name`` with ``options``.

    Its runner merges ``defaults``, the ``--config`` file and the flags given
    (None when absent) through ``build_config``, calls the function with that
    ExperimentConfig, and exits 1, 2 or 3 on a configuration, convergence or
    resource error.
    """

    def register(fn):
        @functools.wraps(fn)
        def run(config_path, **flags):
            try:
                fn(build_config(config_path, defaults, **flags))
            except ConfigError as exc:
                _die(str(exc), 1)
            except ConvergenceError as exc:
                last = "" if exc.last_delta is None else f" (last {exc.metric} {exc.last_delta:.2g})"
                _die(f"{exc}{last}", 2)
            except ResourceCapError as exc:
                _die(str(exc), 3)

        _COMMANDS[name] = (run, options)
        return fn

    return register


def _radii(text: str) -> tuple:
    """Comma-separated radii as a tuple of floats."""
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse radii {text!r}")


_system_option = ("--system", dict(help="builtin system name"))
_max_iter_option = ("--max-iter", dict(type=int))


@_command(
    "attractor",
    _system_option,
    ("--tol", dict(type=float, help="Hausdorff stop tolerance (default 1e-12)")),
    _max_iter_option,
    defaults={"tol": 1e-12},
)
def cmd_attractor(cfg: ExperimentConfig) -> None:
    """Iterate a system's union map and write the attractor sets."""
    b = resolve_system(cfg)
    if b.ifs is None:
        raise ConfigError(f"system {b.name!r} has no attractor variant")
    log = []
    sets, iters, delta = compactsets.iterate_attractor(
        b.ifs,
        b.seeds,
        cfg.tol,
        max_iter=cfg.max_iter or 200,
        on_iterate=lambda k, _sets, d: log.append((k, d)),
    )
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        for i, s in enumerate(sets):
            header, rows = _set_rows(s)
            _write_csv(out_dir / f"attractor_component_{i + 1}.csv", header, _csv_lines(rows))
        _write_csv(out_dir / "convergence.csv", "iteration,delta", _csv_lines(log))
    else:
        _write_json(
            out_dir / "attractor.json",
            {
                "system": b.name,
                "components": [_set_json(s) for s in sets],
                "iterations": iters,
                "log": [{"iteration": k, "delta": d} for k, d in log],
            },
        )
    _echo(f"converged in {iters} iterations (delta {delta:.3e})")


@_command(
    "measure",
    _system_option,
    ("--grid-step", dict(type=float)),
    ("--tol", dict(type=float)),
    _max_iter_option,
)
def cmd_measure(cfg: ExperimentConfig) -> None:
    """Solve the invariant density and write it as grid data."""
    b = resolve_system(cfg)
    if b.family is None and b.mc is None:
        raise ConfigError(f"system {b.name!r} has no measure variant")
    if not b.has_density:
        raise ConfigError(
            f"system {b.name!r} has atomic translation families and no "
            f"density to solve; try its -max counterpart"
        )
    step = cfg.grid_step if cfg.grid_step is not None else b.default_step
    for family in b.families:
        if isinstance(family, measures.UniformFamily):
            _check_grid_step(step, family.region, "family region")
    out_dir = _out_dir(cfg)
    max_iter = cfg.max_iter or 500
    # the solve's grids, their file stems, manifest entries and summary lines
    if b.mc is not None:
        result = multicomponent.solve_mc_density(b.mc, step, tol=cfg.tol, max_iter=max_iter)
        grids = result.components
        stems = [f"density_component_{i + 1}" for i in range(len(grids))]
        manifest = {
            "n": result.n,
            "masses": [g.mass for g in grids],
            "target_masses": list(result.masses),
        }
        lines = [f"component {i + 1} mass {g.mass:.6f}" for i, g in enumerate(grids)]
    else:
        g = measures.solve_density(
            measures.family_as_grid(b.family, step), b.contraction, tol=cfg.tol, max_iter=max_iter
        )
        grids, stems, manifest, lines = (g,), ("density",), {"mass": g.mass}, [f"mass {g.mass:.6f}"]
    files = [_write_grid(g, out_dir / stem, cfg.fmt).name for g, stem in zip(grids, stems)]
    manifest.update(system=b.name, grid_step=grids[0].step, files=files)
    _write_json(out_dir / "measure.json", manifest)
    for line in lines:
        _echo(line)


@_command(
    "fourier",
    _system_option,
    ("--terms", dict(type=int, help="product truncation (default 40)")),
)
def cmd_fourier(cfg: ExperimentConfig) -> None:
    """Tabulate the transform product over a frequency range."""
    b = resolve_system(cfg)
    if b.family is None or b.family.dim != 1:
        raise ConfigError(f"system {b.name!r} has no one-dimensional family")
    a = float(b.contraction)
    span = (cfg.k_max - cfg.k_min) / cfg.k_step
    if not (span < _FOURIER_FREQUENCY_CAP and (span + 1) * cfg.terms <= _FOURIER_PRODUCT_CAP):
        raise ResourceCapError(
            f"about {span + 1:.3g} frequencies of {cfg.terms} terms each exceed the "
            f"caps of {_FOURIER_FREQUENCY_CAP} frequencies and {_FOURIER_PRODUCT_CAP} products"
        )
    count = int(math.floor(span + 1e-9)) + 1
    ks = [cfg.k_min + i * cfg.k_step for i in range(count)]
    vals = measures.fourier_hat(b.family, a, np.array(ks), cfg.terms)
    rows = list(zip(ks, vals.real.tolist(), vals.imag.tolist()))
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        _write_csv(out_dir / "fourier.csv", "k,re,im", _csv_lines(rows))
    else:
        _write_json(
            out_dir / "fourier.json",
            {
                "system": b.name,
                "terms": cfg.terms,
                "rows": [{"k": k, "re": re, "im": im} for k, re, im in rows],
            },
        )
    _echo(f"{count} frequencies, {cfg.terms} terms each")


@_command(
    "weyl",
    _system_option,
    ("--radii", "--radius", dict(type=_radii, metavar="R1,R2,...", help="ball radii")),
    ("--grid-step", dict(type=float, help="window indicator raster step")),
)
def cmd_weyl(cfg: ExperimentConfig) -> None:
    """Average the window indicator over model-set patches."""
    b = resolve_system(cfg)
    if b.scheme is None:
        raise ConfigError(f"system {b.name!r} has no cut-and-project scheme")
    radii = cfg.radii if cfg.radii is not None else b.default_radii
    step = cfg.grid_step if cfg.grid_step is not None else b.weyl_step
    _check_grid_step(step, b.window, "window")
    d = b.scheme.phys_dim
    for r in radii:
        if modelsets._ball_volume(r, d) < sys.float_info.min:
            raise ConfigError(f"radius {r!r} is too small: its ball volume underflows")
    centers = []
    for c in cfg.centers:
        # a number shifts along the first axis
        c = c if isinstance(c, tuple) else (c,) + (0.0,) * (d - 1)
        if len(c) != d:
            raise ConfigError(f"a Weyl center must be a number or a list of {d}, got {list(c)}")
        centers.append(measures._point(c))
    norms = [math.hypot(*measures._axes(c)) for c in centers]
    reach = max(r + n for r in radii for n in norms)
    if reach == math.inf:
        raise ResourceCapError("a Weyl ball reaches beyond the largest float")
    patch_radius = int(math.ceil(reach)) + 4  # margin so the rim is populated
    points = modelsets.project_points(b.scheme, b.window, patch_radius)
    g = measures.raster_region(b.window, step, float(b.window.measure()))
    table = modelsets.weyl_average(b.scheme, points, g, radii, centers=centers)
    header = f"radius,{('center', 'center_x,center_y')[d - 1]},average,limit,abs_error"
    rows = [
        (row.radius, *measures._axes(row.center), row.average, row.limit, row.abs_error)
        for row in table
    ]
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        _write_csv(out_dir / "weyl.csv", header, _csv_lines(rows))
    else:
        _write_json(
            out_dir / "weyl.json",
            {
                "system": b.name,
                "points_enumerated": len(points),
                "rows": [
                    {"radius": row.radius, "center": row.center, "average": row.average,
                     "limit": row.limit, "abs_error": row.abs_error}
                    for row in table
                ],
            },
        )
    for row in table:
        ctext = ",".join(f"{v:g}" for v in measures._axes(row.center))
        _echo(
            f"r={row.radius:g} center={ctext}: average {row.average:.6f}, "
            f"limit {row.limit:.6f}, error {row.abs_error:.2e}"
        )


def _padic_closed_form_holds(comps, precision: int) -> bool:
    """Whether each component i, at depth K, is 9 on b_i + 9Z, b = (1, 3, 0), else 0."""
    return len(comps) == 3 and all(
        c.precision == precision and all(w == 9 * (r % 9 == b) for r, w in enumerate(c.weights))
        for c, b in zip(comps, (1, 3, 0))
    )


def _padic_json_blocks(precision: int, comps):
    """The text of ``padic.json``, 4096 weights to a block, laid out as
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` lays out

        doc = {"precision": K, "components": [{"component": i + 1,
               "mass": [num, den], "weights": [[num, den], ...]}, ...]}

    without building it.  Each distinct weight is formatted once."""

    def pair(num, den, pad):
        return f"[\n{pad}  {num},\n{pad}  {den}\n{pad}]"

    texts = {}  # (num, den) -> the weight's lines in the weights list
    head = '{\n  "components": ['
    for i, c in enumerate(comps):
        mass = pair(c.mass.numerator, c.mass.denominator, " " * 6)
        yield f'{head}\n    {{\n      "component": {i + 1},\n      "mass": {mass},\n      "weights": ['
        head = ","
        for lo in range(0, len(c.weights), 4096):
            keys = [(w.numerator, w.denominator) for w in c.weights[lo : lo + 4096]]
            for key in set(keys) - texts.keys():
                texts[key] = " " * 8 + pair(*key, " " * 8)
            yield ("," if lo else "") + "\n" + ",\n".join(map(texts.__getitem__, keys))
        yield "\n      ]\n    }"
    yield f'\n  ],\n  "precision": {precision}\n}}\n'


@_command(
    "padic",
    ("--K", dict(dest="precision", metavar="K", type=int, help="coset depth (default 5)")),
    _max_iter_option,
)
def cmd_padic(cfg: ExperimentConfig) -> None:
    """Solve the 3-adic component system and check the closed form."""
    precision = cfg.precision if cfg.precision is not None else padic.DEFAULT_PRECISION
    comps = padic.solve_padic_system(precision, max_iter=cfg.max_iter)
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        for i, c in enumerate(comps):
            rows = [(r, w.numerator, w.denominator) for r, w in enumerate(c.weights)]
            path = out_dir / f"padic_component_{i + 1}.csv"
            _write_csv(path, "residue,weight_num,weight_den", _csv_lines(rows))
    else:
        _write_json(out_dir / "padic.json", blocks=_padic_json_blocks(precision, comps))
    if _padic_closed_form_holds(comps, precision):
        _echo("PASS: densities equal 9 on the residues 1, 3, 0 mod 9")
    else:
        _echo("FAIL: densities differ from the mod-9 closed form")
        sys.exit(2)


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one ``error:`` line, exit 1."""

    def error(self, message):
        _die(message, 1)


def _summary(fn) -> Optional[str]:
    """The first line of ``fn``'s docstring; None under ``python -OO``."""
    return fn.__doc__ and fn.__doc__.splitlines()[0]


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = _Parser(prog=prog, description=_summary(main), allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"{prog}, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        summary = _summary(fn)
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        for *flags, kwargs in (*_COMMON_OPTIONS, *options):
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=fn)
    return parser


def main(argv=None, prog_name: Optional[str] = None, standalone_mode: bool = True) -> None:
    """Attractors, self-similar measures, and model-set experiments.

    Runs the command in ``argv`` (default ``sys.argv[1:]``).  Success
    returns; every other outcome, a usage error included, raises
    SystemExit with the exit code.  ``standalone_mode`` changes nothing:
    it keeps the call form ``main.main(argv, prog_name=...,
    standalone_mode=False)`` of in-process drivers working.
    """
    args = vars(_parser(prog_name or "selfsim").parse_args(argv))
    args.pop("run")(**args)


main.main = main


def run() -> None:
    """The process entry of the ``selfsim`` script and ``python -m selfsim.cli``.

    Runs ``main()`` with Python's cyclic garbage collector off, and
    freezes every tracked object before the process exits, so neither the
    run nor interpreter teardown walks the heap for cycles.  A command
    leaves only a few hundred unreachable objects, the same number at any
    size, from argparse and numpy's import.  The exit code of ``main()``
    passes through unchanged.  ``main()`` itself leaves the collector as
    its caller set it.
    """
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

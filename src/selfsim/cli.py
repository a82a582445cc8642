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
import json
import math
import sys
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged run parameters: system descriptor, numerics, output.

    ``system`` is a builtin name or an inline dict (see
    ``system_from_spec``); every numeric field is validated on
    construction, before any computation starts.
    """

    system: object = None
    out: str = "."
    fmt: str = "csv"
    tol: float = 1e-8
    grid_step: Optional[float] = None
    radii: Optional[tuple] = None
    centers: tuple = (0.0,)
    terms: int = 40
    precision: Optional[int] = None
    max_iter: Optional[int] = None
    k_min: float = 0.0
    k_max: float = 5.0
    k_step: float = 0.01

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        for name in ("tol", "grid_step", "radii", "centers", "k_min", "k_max", "k_step"):
            value = getattr(self, name)
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
            if type(getattr(self, name)) not in (int, type(None)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(defaults or {})
    merged.update(data)
    merged.update({k: v for k, v in flags.items() if v is not None})
    if merged.get("radii") is not None:
        try:
            merged["radii"] = tuple(float(v) for v in merged["radii"])
        except (TypeError, ValueError):
            raise ConfigError(f"radii must be a list of numbers: {merged['radii']!r}")
    if merged.get("centers") is not None:
        try:
            merged["centers"] = tuple(
                tuple(float(u) for u in v) if isinstance(v, (list, tuple)) else float(v)
                for v in merged["centers"]
            )
        except (TypeError, ValueError):
            raise ConfigError(f"centers must be numbers or lists of numbers: {merged['centers']!r}")
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# inline system descriptors


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
            return measures.FiniteFamily(measures.DiscreteMeasure(atoms))
        if kind == "point":
            atom = (
                _finite(spec["location"], "a point family's 'location'"),
                _finite(spec.get("mass", 1.0), "a point family's 'mass'"),
            )
            return measures.FiniteFamily(measures.DiscreteMeasure([atom]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad {kind!r} family spec: {exc}")
    raise ConfigError(f"unknown family kind {kind!r}")


def system_from_spec(spec: dict) -> systems.BuiltinSystem:
    """Build a 1D system from an inline JSON descriptor.

    Recognized keys: ``a`` (the shared contraction), ``maps`` (nested
    per-component translation lists, each entry ``{"t": ...}`` with an
    optional per-map ``"a"``), ``seeds`` / ``windows`` (seed intervals
    as [lo, hi] pairs), ``family`` (single-component measure spec),
    ``sigma`` and ``m`` (multi-component entries and mass vector), and
    an optional ``s`` cross-checked against the family masses.  Every
    number must be finite.
    """
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
            grid = [
                [
                    [
                        compactsets.AffineMap(
                            _finite(m.get("a", a), "a map's 'a'"), _finite(m["t"], "a map's 't'")
                        )
                        for m in cell
                    ]
                    for cell in row
                ]
                for row in spec["maps"]
            ]
            ifs = compactsets.IFSSystem(grid)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"bad inline maps: {exc}")
        except ValueError as exc:
            raise ConfigError(str(exc))
        raw_seeds = spec.get("seeds", spec.get("windows"))
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
        ifs=ifs,
        seeds=seeds,
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


def _g17(x) -> str:
    return format(float(x), ".17g")


def _cell(v) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean cells")
    if isinstance(v, int):
        return str(v)
    return _g17(v)


def _csv_lines(rows):
    """Mixed int/float rows as CSV lines."""
    return (",".join(_cell(v) for v in row) for row in rows)


def _write_csv(path: Path, header: str, lines) -> None:
    """Write a header, then each item of ``lines`` (CSV text of one line
    or of several joined by newlines) followed by a newline, streamed."""
    with path.open("w") as f:
        f.write(header + "\n")
        for line in lines:
            f.write(line + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid_csv_blocks(g: measures.GridDensity):
    """The grid's CSV rows, one (x, [y, ...,] density) row per node with x
    varying fastest, as one block of lines per x-row.

    Every field is ``"%.17g" % value``, made by ``float17.format_17g``
    (exact, with the scalar ``"%.17g"`` as its fallback); each axis
    coordinate and each distinct density is formatted once.  Densities
    are told apart by bit pattern, so a -0.0 keeps its own text beside 0.0.
    """
    axes = [float17.format_17g(x) for x in g._node_axes()]
    bits, which = np.unique(g.values.ravel().view(np.int64), return_inverse=True)
    texts = float17.format_17g(bits.view(float))
    rows = texts[which.reshape(-1, len(axes[0]))]
    # the pieces of one x-row: x, "," + other coordinates + ",", density, newline
    pieces = np.empty((len(axes[0]), 4), dtype=object)
    pieces[:, 0] = axes[0]
    pieces[:, 3] = "\n"
    for row, outer in zip(rows, np.ndindex(g.values.shape[:-1])):
        pieces[:, 1] = "".join("," + a[i] for a, i in zip(axes[1:], outer[::-1])) + ","
        pieces[:, 2] = row
        yield "".join(pieces.ravel()[:-1].tolist())


def _grid_json(g: measures.GridDensity) -> dict:
    return {
        "origin": g.origin,
        "step": g.step,
        "counts": list(g.values.shape),
        "weights": g.values.tolist(),
        "mass": g.mass,
    }


def _write_grid(g: measures.GridDensity, path_base: Path, fmt: str) -> Path:
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        header = ",".join([*"xyz"[: g.dim], "density"])
        _write_csv(path, header, _grid_csv_blocks(g))
    else:
        path = path_base.with_suffix(".json")
        _write_json(path, _grid_json(g))
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
        return "part,lo,hi", [
            (k, float(lo), float(hi)) for k, (lo, hi) in enumerate(s.intervals)
        ]
    parts = s if isinstance(s, tuple) else (s,)
    rows = []
    for k, poly in enumerate(parts):
        rows.extend((k, float(x), float(y)) for x, y in poly.vertices)
    return "part,x,y", rows


def _check_grid_step(step: float, region, what: str) -> None:
    """Refuse a raster step that is not below the region's smallest
    extent: such a grid cannot resolve the region at all."""
    region = region.as_float()
    if isinstance(region, compactsets.IntervalSet):
        extent = region.hi - region.lo
    else:
        xlo, ylo, xhi, yhi = region.bbox()
        extent = min(xhi - xlo, yhi - ylo)
    if not step < extent:
        raise ConfigError(
            f"grid step {step:g} is not below the {what}'s smallest extent {extent:g}"
        )


def _handled(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as exc:
            _die(str(exc), 1)
        except ConvergenceError as exc:
            last = "" if exc.last_delta is None else f" (last {exc.metric} {exc.last_delta:.2g})"
            _die(f"{exc}{last}", 2)
        except ResourceCapError as exc:
            _die(str(exc), 3)

    return wrapper


def _die(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def _echo(message: str) -> None:
    print(message, flush=True)


def _echo_wrote(path: Path) -> None:
    _echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands

# name -> (handled command function, its options as (flag, add_argument keywords))
_COMMANDS = {}


def _command(name: str, *options):
    """Register the decorated function as command ``name``; it is called with
    one keyword argument per option, None where the flag is not given."""

    def register(fn):
        _COMMANDS[name] = (_handled(fn), options)
        return fn

    return register


_system_option = ("--system", dict(help="builtin system name"))
_config_option = ("--config", dict(dest="config_path", metavar="FILE", help="JSON config file"))
_out_option = ("--out", dict(help="output directory (default: current)"))
_format_option = ("--format", dict(dest="fmt", metavar="{csv,json}", help="output format: csv or json (default csv)"))
_max_iter_option = ("--max-iter", dict(type=int))


@_command(
    "attractor",
    _system_option,
    _config_option,
    _out_option,
    _format_option,
    ("--tol", dict(type=float, help="Hausdorff stop tolerance (default 1e-12)")),
    _max_iter_option,
)
def cmd_attractor(system, config_path, out, fmt, tol, max_iter) -> None:
    """Iterate a system's union map and write the attractor sets."""
    cfg = build_config(
        config_path,
        defaults={"tol": 1e-12},
        system=system,
        out=out,
        fmt=fmt,
        tol=tol,
        max_iter=max_iter,
    )
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
            path = out_dir / f"attractor_component_{i + 1}.csv"
            _write_csv(path, header, _csv_lines(rows))
            _echo_wrote(path)
        path = out_dir / "convergence.csv"
        _write_csv(path, "iteration,delta", _csv_lines(log))
        _echo_wrote(path)
    else:
        path = out_dir / "attractor.json"
        _write_json(
            path,
            {
                "system": b.name,
                "components": [_set_json(s) for s in sets],
                "iterations": iters,
                "log": [{"iteration": k, "delta": d} for k, d in log],
            },
        )
        _echo_wrote(path)
    _echo(f"converged in {iters} iterations (delta {delta:.3e})")


@_command(
    "measure",
    _system_option,
    _config_option,
    _out_option,
    _format_option,
    ("--grid-step", dict(type=float)),
    ("--tol", dict(type=float)),
    _max_iter_option,
)
def cmd_measure(system, config_path, out, fmt, grid_step, tol, max_iter) -> None:
    """Solve the invariant density and write it as grid data."""
    cfg = build_config(
        config_path,
        system=system,
        out=out,
        fmt=fmt,
        grid_step=grid_step,
        tol=tol,
        max_iter=max_iter,
    )
    b = resolve_system(cfg)
    if b.family is None and b.mc is None:
        raise ConfigError(f"system {b.name!r} has no measure variant")
    if not b.has_density:
        raise ConfigError(
            f"system {b.name!r} has atomic translation families and no "
            f"density to solve; try its -max counterpart"
        )
    step = cfg.grid_step if cfg.grid_step is not None else b.default_step
    families = [e for row in b.mc.sigma for e in row] if b.mc is not None else [b.family]
    for family in families:
        if isinstance(family, measures.UniformFamily):
            _check_grid_step(step, family.region, "family region")
    out_dir = _out_dir(cfg)
    max_iter = cfg.max_iter or 500
    if b.mc is not None:
        result = multicomponent.solve_mc_density(b.mc, step, tol=cfg.tol, max_iter=max_iter)
        files = []
        for i, g in enumerate(result.components):
            base = out_dir / f"density_component_{i + 1}"
            files.append(_write_grid(g, base, cfg.fmt))
        manifest = {
            "system": b.name,
            "n": result.n,
            "masses": [g.mass for g in result.components],
            "target_masses": list(result.masses),
            "grid_step": result.components[0].step,
            "files": [f.name for f in files],
        }
        path = out_dir / "measure.json"
        _write_json(path, manifest)
        for f in files:
            _echo_wrote(f)
        _echo_wrote(path)
        for i, g in enumerate(result.components):
            _echo(f"component {i + 1} mass {g.mass:.6f}")
        return
    g = measures.solve_density(
        measures.family_as_grid(b.family, step), b.contraction, tol=cfg.tol, max_iter=max_iter
    )
    path = _write_grid(g, out_dir / "density", cfg.fmt)
    manifest = {
        "system": b.name,
        "grid_step": g.step,
        "mass": g.mass,
        "files": [path.name],
    }
    mpath = out_dir / "measure.json"
    _write_json(mpath, manifest)
    _echo_wrote(path)
    _echo_wrote(mpath)
    _echo(f"mass {g.mass:.6f}")


@_command(
    "fourier",
    _system_option,
    _config_option,
    _out_option,
    _format_option,
    ("--terms", dict(type=int, help="product truncation (default 40)")),
)
def cmd_fourier(system, config_path, out, fmt, terms) -> None:
    """Tabulate the transform product over a frequency range."""
    cfg = build_config(config_path, system=system, out=out, fmt=fmt, terms=terms)
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
        path = out_dir / "fourier.csv"
        _write_csv(path, "k,re,im", _csv_lines(rows))
    else:
        path = out_dir / "fourier.json"
        _write_json(
            path,
            {
                "system": b.name,
                "terms": cfg.terms,
                "rows": [{"k": k, "re": re, "im": im} for k, re, im in rows],
            },
        )
    _echo_wrote(path)
    _echo(f"{count} frequencies, {cfg.terms} terms each")


@_command(
    "weyl",
    _system_option,
    _config_option,
    _out_option,
    _format_option,
    ("--radius", dict(type=float, help="single ball radius")),
    ("--radii", dict(dest="radii_text", metavar="R1,R2,...", help="comma-separated ball radii")),
    ("--grid-step", dict(type=float, help="window indicator raster step")),
)
def cmd_weyl(system, config_path, out, fmt, radius, radii_text, grid_step) -> None:
    """Average the window indicator over model-set patches."""
    radii = None
    if radii_text is not None:
        try:
            radii = tuple(float(r) for r in radii_text.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse radii {radii_text!r}")
    elif radius is not None:
        radii = (radius,)
    cfg = build_config(
        config_path, system=system, out=out, fmt=fmt, radii=radii, grid_step=grid_step
    )
    b = resolve_system(cfg)
    if b.scheme is None:
        raise ConfigError(f"system {b.name!r} has no cut-and-project scheme")
    radii = cfg.radii if cfg.radii is not None else b.default_radii
    step = cfg.grid_step if cfg.grid_step is not None else b.weyl_step
    _check_grid_step(step, b.window, "window")
    d = b.scheme.phys_dim
    centers = []
    for c in cfg.centers:
        # a number shifts along the first axis
        c = c if isinstance(c, tuple) else (c,) + (0.0,) * (d - 1)
        if len(c) != d:
            raise ConfigError(f"a Weyl center must be a number or a list of {d}, got {list(c)}")
        centers.append(measures._point(c))
    norms = [math.hypot(*measures._axes(c)) for c in centers]
    reach = max(r + n for r in radii for n in norms)
    patch_radius = int(math.ceil(reach)) + 4  # margin so the rim is populated
    points = modelsets.project_points(b.scheme, b.window, patch_radius)
    if isinstance(b.window, compactsets.IntervalSet):
        g = measures.raster_interval_set(b.window, step, float(b.window.measure()))
    else:
        g = measures.raster_polygon(b.window, step, float(b.window.area))
    table = modelsets.weyl_average(b.scheme, points, g, radii, centers=centers)
    header = f"radius,{('center', 'center_x,center_y')[d - 1]},average,limit,abs_error"
    rows = [
        (row.radius, *measures._axes(row.center), row.average, row.limit, row.abs_error)
        for row in table
    ]
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        path = out_dir / "weyl.csv"
        _write_csv(path, header, _csv_lines(rows))
    else:
        path = out_dir / "weyl.json"
        _write_json(
            path,
            {
                "system": b.name,
                "points_enumerated": len(points),
                "rows": [
                    {
                        "radius": row.radius,
                        "center": row.center,
                        "average": row.average,
                        "limit": row.limit,
                        "abs_error": row.abs_error,
                    }
                    for row in table
                ],
            },
        )
    _echo_wrote(path)
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


@_command(
    "padic",
    _config_option,
    _out_option,
    _format_option,
    ("--K", dict(dest="precision", metavar="K", type=int, help="coset depth (default 5)")),
    _max_iter_option,
)
def cmd_padic(config_path, out, fmt, precision, max_iter) -> None:
    """Solve the 3-adic component system and check the closed form."""
    cfg = build_config(
        config_path, out=out, fmt=fmt, precision=precision, max_iter=max_iter
    )
    precision = cfg.precision if cfg.precision is not None else padic.DEFAULT_PRECISION
    comps = padic.solve_padic_system(precision, max_iter=cfg.max_iter)
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        for i, c in enumerate(comps):
            rows = [
                (r, w.numerator, w.denominator) for r, w in enumerate(c.weights)
            ]
            path = out_dir / f"padic_component_{i + 1}.csv"
            _write_csv(path, "residue,weight_num,weight_den", _csv_lines(rows))
            _echo_wrote(path)
    else:
        path = out_dir / "padic.json"
        _write_json(
            path,
            {
                "precision": precision,
                "components": [
                    {
                        "component": i + 1,
                        "mass": [c.mass.numerator, c.mass.denominator],
                        "weights": [[w.numerator, w.denominator] for w in c.weights],
                    }
                    for i, c in enumerate(comps)
                ],
            },
        )
        _echo_wrote(path)
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
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
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

if __name__ == "__main__":
    main()

"""Command-line drivers: named example systems in, CSV/JSON files out.

Five commands cover the library surface: ``attractor`` iterates a
set-level system and logs convergence, ``measure`` solves an invariant
density (single- or multi-component), ``fourier`` tabulates the
transform product, ``weyl`` tabulates ball averages over a
cut-and-project point set, and ``padic`` emits the exact coset
densities with a pass/fail check.  Exit codes: 0 success, 1 bad
configuration (a usage error included), 2 non-convergence or a failed
exactness check, 3 a resource cap.

This module holds the parser table, the config, the system lookup and
the exit codes.  Each command's body is a module of ``selfsim.commands``,
imported only when that command runs, so no command compiles another's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__, _lazy_module
from .errors import ConfigError, ConvergenceError, ResourceCapError, _refuse_unknown

# every module is loaded on first use, so a command executes only the code
# it runs; json runs only for a config file.  The layer modules this module
# does not use are registered too, so that each is in sys.modules once it is
# imported: perfbench's tracer looks them up there.
json = _lazy_module("json")
systems = _lazy_module("selfsim.systems")
# an inline system's parser, run only when the config's system is a dict
inline = _lazy_module("selfsim.inline")
for _layer in ("compactsets", "numberfields", "padic", "measures", "modelsets", "multicomponent"):
    _lazy_module(f"selfsim.{_layer}")


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
    ``inline.system_from_spec``); every other field is checked for its type and
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
# systems


def resolve_system(cfg: ExperimentConfig) -> systems.BuiltinSystem:
    if cfg.system is None:
        raise ConfigError(
            f"no system given; pass --system or put one in the config "
            f"(builtins: {', '.join(systems.BUILTIN_NAMES)})"
        )
    if isinstance(cfg.system, str):
        return systems.builtin(cfg.system)
    if isinstance(cfg.system, dict):
        return inline.system_from_spec(cfg.system)
    raise ConfigError("system must be a builtin name or an inline dict")


# ---------------------------------------------------------------------------
# writers


def __getattr__(name: str):
    """The writers perfbench traces as ``cli._write_*``, kept with the
    command bodies and imported on their first read here."""
    if name in ("_write_csv", "_write_json"):
        from .commands import output

        return getattr(output, name)
    if name == "_write_grid":
        from .commands import measure

        return measure._write_grid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# commands


def _radii(text: str) -> tuple:
    """Comma-separated radii as a tuple of floats."""
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse radii {text!r}")


# the options of every command; each dest, like every command option's, is a config field
_COMMON_OPTIONS = (
    ("--config", dict(dest="config_path", metavar="FILE", help="JSON config file")),
    ("--out", dict(help="output directory (default: current)")),
    ("--format", dict(dest="fmt", metavar="{csv,json}", help="output format: csv or json (default csv)")),
)
_system_option = ("--system", dict(help="builtin system name"))
_max_iter_option = ("--max-iter", dict(type=int))

# name -> (summary, its own options as (flag, ..., add_argument keywords),
# config defaults).  The body is ``run`` of the module ``selfsim.commands.<name>``,
# imported only when the command runs; one with --system gets the resolved system.
_COMMANDS = {
    "attractor": ("Iterate a system's union map and write the attractor sets.", (
        _system_option,
        ("--tol", dict(type=float, help="Hausdorff stop tolerance (default 1e-12)")),
        _max_iter_option,
    ), {"tol": 1e-12}),
    "measure": ("Solve the invariant density and write it as grid data.", (
        _system_option, ("--grid-step", dict(type=float)), ("--tol", dict(type=float)), _max_iter_option,
    ), None),
    "fourier": ("Tabulate the transform product over a frequency range.", (
        _system_option, ("--terms", dict(type=int, help="product truncation (default 40)")),
    ), None),
    "weyl": ("Average the window indicator over model-set patches.", (
        _system_option,
        ("--radii", "--radius", dict(type=_radii, metavar="R1,R2,...", help="ball radii")),
        ("--grid-step", dict(type=float, help="window indicator raster step")),
    ), None),
    "padic": ("Solve the 3-adic component system and check the closed form.", (
        ("--K", dict(dest="precision", metavar="K", type=int, help="coset depth (default 5)")),
        _max_iter_option,
    ), None),
}


def _die(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def _run(command: str, config_path, **flags) -> None:
    """Run ``command``: merge its defaults, the ``--config`` file and the
    flags given (None when absent) through ``build_config``, resolve the
    system if the command takes one, and call the command's body with
    them.  Exits 1, 2 or 3 on a configuration, convergence or resource
    error."""
    _, options, defaults = _COMMANDS[command]
    try:
        cfg = build_config(config_path, defaults, **flags)
        system = (resolve_system(cfg),) if _system_option in options else ()
        importlib.import_module(f"selfsim.commands.{command}").run(cfg, *system)
    except ConfigError as exc:
        _die(str(exc), 1)
    except ConvergenceError as exc:
        last = "" if exc.last_delta is None else f" (last {exc.metric} {exc.last_delta:.2g})"
        _die(f"{exc}{last}", 2)
    except ResourceCapError as exc:
        _die(str(exc), 3)


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one ``error:`` line, exit 1."""

    def error(self, message):
        _die(message, 1)


def _parser(prog: str) -> argparse.ArgumentParser:
    # the program's description is main's summary line; None under python -OO
    description = main.__doc__ and main.__doc__.splitlines()[0]
    parser = _Parser(prog=prog, description=description, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"{prog}, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (summary, options, _) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        for *flags, kwargs in (*_COMMON_OPTIONS, *options):
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(command=name)
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
    _run(**args)


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

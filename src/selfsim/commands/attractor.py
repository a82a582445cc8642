"""The ``attractor`` command: iterate a system's union map and write the
attractor sets with the convergence log."""

from __future__ import annotations

from .. import _lazy_module
from ..core import IntervalSet
from ..errors import ConfigError
from .output import _csv_lines, _echo, _out_dir, _write_csv, _write_json

compactsets = _lazy_module("selfsim.compactsets")


def _set_json(s) -> dict:
    if isinstance(s, IntervalSet):
        return {"intervals": [[float(lo), float(hi)] for lo, hi in s.intervals]}
    return {"vertices": [[float(x), float(y)] for x, y in s.vertices]}


def _set_rows(s):
    """part,lo,hi rows for interval sets; part,x,y vertex rows, part 0, for a polygon."""
    if isinstance(s, IntervalSet):
        return "part,lo,hi", [(k, float(lo), float(hi)) for k, (lo, hi) in enumerate(s.intervals)]
    return "part,x,y", [(0, float(x), float(y)) for x, y in s.vertices]


def run(cfg, b) -> None:
    """Iterate the union map of system ``b`` to ``cfg.tol`` and write the
    attractor sets."""
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

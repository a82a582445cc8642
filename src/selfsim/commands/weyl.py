"""The ``weyl`` command: average the window indicator over balls of a
cut-and-project patch, as in the generalized Weyl theorem.  It runs the
lattice grids of ``grids`` and never the solvers of ``measures``."""

from __future__ import annotations

import math
import sys

from .. import _lazy_module
from ..errors import ConfigError, ResourceCapError
from .output import _csv_lines, _echo, _out_dir, _write_csv, _write_json

grids = _lazy_module("selfsim.grids")
modelsets = _lazy_module("selfsim.modelsets")


def run(cfg, b) -> None:
    """Tabulate the Weyl averages of system ``b``'s window over balls of
    the config's radii about its centres."""
    if b.scheme is None:
        raise ConfigError(f"system {b.name!r} has no cut-and-project scheme")
    radii = cfg.radii if cfg.radii is not None else b.default_radii
    step = cfg.grid_step if cfg.grid_step is not None else b.weyl_step
    grids.check_grid_step(step, b.window, "window")
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
        centers.append(grids._point(c))
    norms = [math.hypot(*grids._axes(c)) for c in centers]
    reach = max(r + n for r in radii for n in norms)
    if reach == math.inf:
        raise ResourceCapError("a Weyl ball reaches beyond the largest float")
    patch_radius = int(math.ceil(reach)) + 4  # margin so the rim is populated
    points = modelsets.project_points(b.scheme, b.window, patch_radius)
    g = grids.raster_region(b.window, step, float(b.window.measure()))
    table = modelsets.weyl_average(b.scheme, points, g, radii, centers=centers)
    header = f"radius,{('center', 'center_x,center_y')[d - 1]},average,limit,abs_error"
    rows = [
        (row.radius, *grids._axes(row.center), row.average, row.limit, row.abs_error)
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
        ctext = ",".join(f"{v:g}" for v in grids._axes(row.center))
        _echo(
            f"r={row.radius:g} center={ctext}: average {row.average:.6f}, "
            f"limit {row.limit:.6f}, error {row.abs_error:.2e}"
        )

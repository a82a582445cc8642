"""The ``measure`` command: solve the invariant density, of one component
or of coupled ones, and write it as grid data with a manifest."""

from __future__ import annotations

from pathlib import Path

from .. import _lazy_module
from ..errors import ConfigError
from .output import _echo, _out_dir, _write_csv, _write_json

grids = _lazy_module("selfsim.grids")
measures = _lazy_module("selfsim.measures")
multicomponent = _lazy_module("selfsim.multicomponent")
# the output layer's vectorized "%.17g", run by the grid CSV writer alone
float17 = _lazy_module("selfsim.float17")


def _write_grid(g: grids.GridDensity, path_base: Path, fmt: str) -> Path:
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


def run(cfg, b) -> None:
    """Solve the invariant density of system ``b`` at the config's grid
    step and write each component's grid and ``measure.json``."""
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
            grids.check_grid_step(step, family.region, "family region")
    out_dir = _out_dir(cfg)
    max_iter = cfg.max_iter or 500
    # the solve's grids, their file stems, manifest entries and summary lines
    if b.mc is not None:
        result = multicomponent.solve_mc_density(b.mc, step, tol=cfg.tol, max_iter=max_iter)
        comps = result.components
        stems = [f"density_component_{i + 1}" for i in range(len(comps))]
        manifest = {
            "n": result.n,
            "masses": [g.mass for g in comps],
            "target_masses": list(result.masses),
        }
        lines = [f"component {i + 1} mass {g.mass:.6f}" for i, g in enumerate(comps)]
    else:
        g = measures.solve_density(
            measures.family_as_grid(b.family, step), b.contraction, tol=cfg.tol, max_iter=max_iter
        )
        comps, stems, manifest, lines = (g,), ("density",), {"mass": g.mass}, [f"mass {g.mass:.6f}"]
    files = [_write_grid(g, out_dir / stem, cfg.fmt).name for g, stem in zip(comps, stems)]
    manifest.update(system=b.name, grid_step=comps[0].step, files=files)
    _write_json(out_dir / "measure.json", manifest)
    for line in lines:
        _echo(line)

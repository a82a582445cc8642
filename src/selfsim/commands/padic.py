"""The ``padic`` command: solve the 3-adic component system, write its
coset densities and check them against the mod-9 closed form."""

from __future__ import annotations

import sys

from .. import padic
from .output import _echo, _out_dir, _write_csv, _write_json


def run(cfg) -> None:
    """Solve at depth ``cfg.precision``, write the densities, and exit 2
    when they differ from the closed form."""
    precision = cfg.precision if cfg.precision is not None else padic.DEFAULT_PRECISION
    comps = padic.solve_padic_system(precision, max_iter=cfg.max_iter)
    out_dir = _out_dir(cfg)
    if cfg.fmt == "csv":
        for i, c in enumerate(comps):
            _write_csv(out_dir / f"padic_component_{i + 1}.csv", padic.CSV_HEADER, padic.csv_blocks(c))
    else:
        _write_json(out_dir / "padic.json", blocks=padic.json_blocks(precision, comps))
    if padic.closed_form_holds(comps, precision):
        _echo("PASS: densities equal 9 on the residues 1, 3, 0 mod 9")
    else:
        _echo("FAIL: densities differ from the mod-9 closed form")
        sys.exit(2)

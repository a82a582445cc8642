"""The ``fourier`` command: tabulate the truncated transform product of a
one-dimensional family over a frequency range."""

from __future__ import annotations

import math

from .. import _lazy_module
from ..errors import ConfigError, ResourceCapError
from .output import _csv_lines, _echo, _out_dir, _write_csv, _write_json

np = _lazy_module("numpy")
measures = _lazy_module("selfsim.measures")

# the table's size before it is built: frequencies, and frequencies times
# product terms (about 60-130 ns each, so some 8-17 s at the cap)
_FOURIER_FREQUENCY_CAP = 2**20
_FOURIER_PRODUCT_CAP = 2**27


def run(cfg, b) -> None:
    """Tabulate the transform product of system ``b``'s family from
    ``cfg.k_min`` to ``cfg.k_max`` in steps of ``cfg.k_step``."""
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

"""What every command writes: CSV and JSON files, each announced on
standard output, in an output directory made on first use."""

from __future__ import annotations

from pathlib import Path

from .. import _lazy_module
from ..errors import ConfigError

# json runs only for a JSON document built whole
json = _lazy_module("json")


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


def _out_dir(cfg) -> Path:
    """The config's output directory, made if missing.  A path that cannot
    be a directory (a file, a name under a file, a place the run may not
    write) is a configuration error."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {cfg.out!r}: {exc.strerror or exc}")
    return out


def _echo(message: str) -> None:
    print(message, flush=True)

"""Golden-output fingerprint of the CLI: exit code and file hashes per run.

Runs every builtin system (aliases left out) through ``attractor``,
``measure``, ``fourier`` and ``weyl`` in both output formats, plus
``padic`` at K = 4, 5, 7 and 8, ``weyl`` with Weyl centres (among them
a deep planar patch off the origin) and
``fourier`` on inline families over negative frequencies and a coupled
inline ``measure`` whose point shifts share no lattice step, all from a
``--config`` file (written into the run's directory), ``weyl`` at patch
radii that take the lattice enumeration deep in both, ``measure`` of
``ammann-beenker`` on a finer grid, ``measure`` at a tol the density
solver cannot reach, and command lines the parser
refuses and non-finite radius, centre, tol and inline system values
(exit 1, no files), each as a fresh ``python -m selfsim.cli``
process against this checkout's ``src`` in its own temporary directory.  The ``padic --K 8`` runs take under a second with
the coset-quotient solve and about 40 s each with the full-depth solve
it replaced, so a set recorded at such a commit takes minutes longer.
Prints one JSON document listing, per run, the command, its exit code
and the sha256 of every file it wrote.
No paths appear in the output, so two checkouts can be compared with
``diff``:

    python3 tools/golden_outputs.py > before.json
    # ... change the code ...
    python3 tools/golden_outputs.py > after.json
    diff before.json after.json

Arguments, when given, replace the default set by that one command, e.g.
``python3 tools/golden_outputs.py measure --system silver-max``.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = (
    "ammann-beenker",
    "point",
    "silver",
    "silver-max",
    "silver-mc-max",
    "silver-mc-min",
    "silver-min",
)
COMMANDS = ("attractor", "measure", "fourier", "weyl")
PADIC_DEPTHS = ("4", "5", "7", "8")
EXTRA_RUNS = (
    # large patches: thousands of enumerated points, many on or near window edges
    ["weyl", "--system", "silver", "--radii", "100,2000,20000"],
    ["weyl", "--system", "ammann-beenker", "--radii", "10,20,40"],
    # a finer planar grid: the density solve runs through a second sequence
    # of FFT lengths
    ["measure", "--system", "ammann-beenker", "--grid-step", "0.01"],
    # a tol below the solver's round-off floor: exit 2, not a silent stop
    ["measure", "--system", "silver-max", "--tol", "1e-17", "--max-iter", "60"],
)
# usage errors, run once each: a configuration error, exit 1 with no files
USAGE_ERROR_RUNS = (
    [],
    ["measure", "--bogus"],
    ["measure", "--grid-step", "abc"],
    # a leading "-" with an exponent reads as an option: the flag gets no value
    ["measure", "--system", "silver-max", "--tol", "-1e-8"],
    ["measure", "--system", "silver-max", "--grid-step", "-1e-3"],
    ["padic", "--system", "silver"],
)
# non-finite values, run once each: a configuration error, exit 1 with no files
NONFINITE_RUNS = (
    (["weyl", "--system", "silver", "--radius", "inf"], None),
    (["weyl", "--system", "silver", "--radii", "100"], {"centers": [float("inf")]}),
    (["measure", "--system", "silver-max", "--tol", "inf"], None),
    (["fourier"], {"system": {"a": 0.5, "family": {"kind": "atoms", "atoms": [[float("inf"), 1.0]]}}}),
    (["fourier"], {"system": {"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": float("inf")}}}),
    (["attractor"], {"system": {"a": 0.5, "maps": [[[{"t": float("inf")}, {"t": 1.0}]]]}}),
)
FORMATS = ("csv", "json")
# (arguments, config file contents): Weyl centres only reach the CLI by config
CONFIG_RUNS = (
    (["weyl", "--system", "silver", "--radii", "100,500"], {"centers": [0, -7.5, 12.25]}),
    (
        ["weyl", "--system", "ammann-beenker", "--radii", "8,12"],
        {"centers": [[0, 0], [1.5, -0.75], 2.0]},
    ),
    # a deep planar patch off the origin: its points_enumerated counts the
    # enumeration out to radius 46
    (
        ["weyl", "--system", "ammann-beenker", "--radii", "10,20,40"],
        {"centers": [[0.5, -1.25], [-1.75, 0.5]]},
    ),
    # the transform product over frequencies below and above 0, on inline
    # families of each kind
    (
        ["fourier", "--terms", "40"],
        {
            "system": {
                "a": -0.4142135623730951,
                "family": {"kind": "atoms", "atoms": [[-0.3, 0.2], [0.0, 0.5], [0.45, 0.3]]},
            },
            "k_min": -2.5,
            "k_max": 2.5,
            "k_step": 0.01,
        },
    ),
    (
        ["fourier", "--terms", "25"],
        {
            "system": {"a": 0.5, "family": {"kind": "point", "location": 0.3, "mass": 1.0}},
            "k_min": -1.0,
            "k_max": 3.0,
            "k_step": 0.02,
        },
    ),
    (
        ["fourier", "--terms", "40"],
        {
            "system": {
                "a": -0.4142135623730951,
                "family": {"kind": "uniform", "lo": -0.6, "hi": 0.25, "mass": 1.0},
            },
            "k_min": -4.0,
            "k_max": 1.0,
            "k_step": 0.005,
        },
    ),
    # coupled point shifts 0.1 and 0.1*sqrt2 share no lattice step, so the
    # solver keeps the requested step and translates by resampling
    (
        ["measure"],
        {
            "system": {
                "a": 0.5,
                "sigma": [
                    [
                        {"kind": "uniform", "lo": -0.5, "hi": 0.5, "mass": 0.5},
                        {"kind": "point", "location": 0.1, "mass": 0.5},
                    ],
                    [{"kind": "point", "location": 0.14142135623730953, "mass": 1.0}, None],
                ],
            },
        },
    ),
)


def default_runs() -> list:
    """(arguments, config or None) for every run of the default set."""
    runs = [
        ([cmd, "--system", system, "--format", fmt], None)
        for system in SYSTEMS
        for cmd in COMMANDS
        for fmt in FORMATS
    ]
    runs.extend(
        (["padic", "--K", k, "--format", fmt], None) for k in PADIC_DEPTHS for fmt in FORMATS
    )
    runs.extend(
        ([*args, "--format", fmt], config) for args, config in CONFIG_RUNS for fmt in FORMATS
    )
    runs.extend(([*args, "--format", fmt], None) for args in EXTRA_RUNS for fmt in FORMATS)
    runs.extend((args, None) for args in USAGE_ERROR_RUNS)
    runs.extend(NONFINITE_RUNS)
    return runs


def fingerprint(args: list, config=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if config is not None:
            text = json.dumps(config)
            (Path(tmp) / "config.json").write_text(text)
            args = [*args, "--config", "config.json"]
        proc = subprocess.run(
            [sys.executable, "-m", "selfsim.cli", *args, "--out", str(out)],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        files = {}
        if out.is_dir():
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    files[path.relative_to(out).as_posix()] = digest
    command = " ".join(args) if config is None else f"{' '.join(args)} = {text}"
    return {"command": command, "exit": proc.returncode, "files": files}


def main(argv: list) -> int:
    runs = [(argv, None)] if argv else default_runs()
    results = []
    for args, config in runs:
        results.append(fingerprint(args, config))
        print(f"{results[-1]['exit']}  {results[-1]['command']}", file=sys.stderr)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

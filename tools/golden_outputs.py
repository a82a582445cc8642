"""Golden-output fingerprint of the CLI: exit code and file hashes per run.

Runs every builtin system (aliases left out) through ``attractor``, ``measure``, ``fourier``
and ``weyl`` in both output formats, plus ``padic --K 5`` in both, each as
a fresh ``python -m selfsim.cli`` process against this checkout's ``src``
in its own temporary directory.  Prints one JSON document listing, per
run, the command, its exit code and the sha256 of every file it wrote.
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
    "ternary-padic",
)
COMMANDS = ("attractor", "measure", "fourier", "weyl")
FORMATS = ("csv", "json")


def default_runs() -> list:
    runs = [
        [cmd, "--system", system, "--format", fmt]
        for system in SYSTEMS
        for cmd in COMMANDS
        for fmt in FORMATS
    ]
    runs.extend(["padic", "--K", "5", "--format", fmt] for fmt in FORMATS)
    return runs


def fingerprint(args: list) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
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
    return {"command": " ".join(args), "exit": proc.returncode, "files": files}


def main(argv: list) -> int:
    runs = [argv] if argv else default_runs()
    results = []
    for args in runs:
        results.append(fingerprint(args))
        print(f"{results[-1]['exit']}  {results[-1]['command']}", file=sys.stderr)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run a plan of CLI commands inside one interpreter, optionally traced.

Usage: python3 inproc.py PLAN_JSON RESULT_JSON [--trace]

PLAN_JSON holds ``{"src": ..., "commands": [{"argv": [...], "stdout": path}, ...]}``.
Each command runs through ``selfsim.cli.main`` with click's standalone mode
off, after the package is imported, so the timings hold no import work.
With ``--trace`` every function in ``layers.WRAPPED`` is wrapped first; the
result then holds the per-layer summary, every span as [name, start, end,
parent index] and, per command, the time spent outside every span.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def run_command(main, argv) -> tuple[int, str]:
    """Exit code and captured standard output of one command."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main.main(argv, prog_name="selfsim", standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a library fault fails this command; the others still run
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def main(argv) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv[2:]
    plan = json.loads(plan_path.read_text())
    sys.path.insert(0, plan["src"])
    import selfsim.cli as cli

    tracer = None
    if traced:
        from layers import install_all, summarize
        from tracing import Tracer

        tracer = Tracer()
        install_all(tracer)
    commands = []
    for entry in plan["commands"]:
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        code, stdout = run_command(cli.main, entry["argv"])
        wall = time.perf_counter() - t0
        Path(entry["stdout"]).write_text(stdout)
        record = {"wall_s": wall, "exit_code": code}
        if tracer:
            spans = tracer.spans[first_span:]
            top = sum(s.duration for s in spans if s.parent is None)
            selfs = tracer.self_times()[first_span:]
            record["untraced_s"] = wall - top
            # self times of the spans plus the untraced rest give the wall time
            record["balance_s"] = sum(selfs) + record["untraced_s"] - wall
        commands.append(record)
    result = {"commands": commands}
    if tracer:
        result["layers"] = summarize(tracer)
        result["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    result_path.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

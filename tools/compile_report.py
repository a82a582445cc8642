"""Which ``selfsim`` source each benchmark command compiles, and what that costs.

Runs every command of the benchmark's workloads (``perfbench/workloads.py``,
with the Weyl centres of the seeded plan, passed through ``--config`` as the
benchmark passes them) in a fresh interpreter, as ``python -m selfsim.cli``
runs it, with a profile hook that records every Python function called.  For
each command it prints the ``selfsim`` modules executed (those whose module
code ran), their source lines, the lines in functions never called during
the run, and the median time of ``compile()`` on each of those sources.
Without a bytecode cache, as on the benchmark host
(``PYTHONDONTWRITEBYTECODE=1``), every executed module is compiled on every
run, so these are the lines and the time each command pays for.

    python3 tools/compile_report.py                       # line and planar, seed 1
    python3 tools/compile_report.py --workload deep --seed 3 --repeat 51

A function's lines run from its first decorator to its last line; a function
never called counts whole, nested functions included, and a called one
counts only its uncalled nested functions.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "selfsim"

# the child: run selfsim.cli as __main__ under a profile hook that records
# (file, first line, name) of every Python code object called, then write them
CHILD = """\
import json, runpy, sys
called = set()
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.argv = ["selfsim", *json.loads(sys.argv[1])]
report = sys.argv.pop()
sys.setprofile(hook)
try:
    runpy.run_module("selfsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
finally:
    sys.setprofile(None)
    with open(report, "w") as f:
        json.dump({"exit": code, "called": sorted(called)}, f)
"""


def benchmark_commands(workload: str, seed: int) -> list:
    """The workload's commands in the benchmark's seeded order, each as
    (label, argv, config or None)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [(cmd.label, [cmd.kind, *cmd.args], config) for cmd, config in workloads.plan(workload, seed)]


def run_traced(argv: list, config) -> tuple:
    """Exit code and the set of (file, first line, name) called by one
    fresh ``selfsim.cli`` process."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "config.json"]
        report = Path(tmp, "called.json")
        argv = [*argv, "--out", "out", str(report)]
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], cwd=tmp, env=env,
                              capture_output=True, text=True)
        if not report.exists():
            raise RuntimeError(f"{' '.join(argv)} failed: {proc.stderr[-500:]}")
        data = json.loads(report.read_text())
    return data["exit"], {tuple(key) for key in data["called"]}


def uncalled_lines(path: Path, source: str, called: set) -> int:
    """Lines of the functions in ``source`` that were never called."""

    def walk(nodes) -> int:
        total = 0
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                if (str(path), first, node.name) not in called:
                    total += node.end_lineno - first + 1
                    continue
            total += walk(ast.iter_child_nodes(node))
        return total

    return walk(ast.parse(source).body)


def compile_ms(path: Path, source: str, repeat: int) -> float:
    """Median milliseconds of one ``compile()`` of the source."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        compile(source, str(path), "exec", dont_inherit=True)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def report(label: str, argv: list, config, repeat: int, cache: dict) -> tuple:
    """Print one command's table; returns its line and compile totals."""
    code, called = run_traced(argv, config)
    executed = sorted(Path(f) for f, _, name in called
                      if name == "<module>" and Path(f).is_relative_to(PACKAGE))
    print(f"{label}{' --config (centres)' if config else ''}: exit {code}")
    print(f"  {'module':<32}{'lines':>7}{'uncalled':>10}{'compile_ms':>12}")
    lines = unused = ms = 0
    for path in executed:
        source = path.read_text()
        if path not in cache:
            cache[path] = compile_ms(path, source, repeat)
        n, u = len(source.splitlines()), uncalled_lines(path, source, called)
        print(f"  {str(path.relative_to(SRC)):<32}{n:>7}{u:>10}{cache[path]:>12.2f}")
        lines, unused, ms = lines + n, unused + u, ms + cache[path]
    print(f"  {'total':<32}{lines:>7}{unused:>10}{ms:>12.2f}\n")
    return lines, unused, ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=["line", "planar"],
                        help="benchmark workloads (default: line planar)")
    parser.add_argument("--seed", type=int, default=1, help="the plan's seed (default 1)")
    parser.add_argument("--repeat", type=int, default=21, help="compile() timings per module (default 21)")
    args = parser.parse_args(argv)
    cache = {}
    for workload in args.workload:
        totals = [0, 0, 0.0]
        commands = benchmark_commands(workload, args.seed)
        print(f"== {workload}, seed {args.seed}: {len(commands)} commands\n")
        for label, command, config in commands:
            for k, value in enumerate(report(label, command, config, args.repeat, cache)):
                totals[k] += value
        print(f"== {workload}: {totals[0]} lines compiled, {totals[1]} of them in functions never "
              f"called, {totals[2]:.1f} ms of compile()\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the selfsim CLI: end-to-end wall times and per-layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload line|planar|deep --seed N --seconds S --trace 0|1

One benchmark process runs every command as a fresh ``python -m selfsim.cli``
subprocess, one at a time (a closed loop with one client), and checks each
command's outputs against the paper's closed forms (``checks.py``).

``--trace 0`` first times fresh-interpreter ``import selfsim.cli`` runs
(``setup_s``), then runs the workload's commands round-robin: the first round
always completes, and a later command starts only while its median so far
still fits in ``--seconds``.  Command times are summed from per-command
medians.  The benchmark and its commands share one CPU; while a command
runs, a fixed loop is timed on that CPU every 0.2 s, and each end-to-end
time is the command's wall time scaled to the speed at which that loop takes
``PROBE_REF_S``.  The times as measured are reported alongside.

``--trace 1`` times the imports with ``python -X importtime``, then runs the
workload once in-process untraced and once traced (``inproc.py``), and
reports per-layer self times and counts and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
ones ``BENCHMARK.json`` lists for the trace mode.  The lines before it
report every timing as median, maximum and sample count, and the full record
(environment, per-command samples, output sha256, failures) is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every run ends well within 180 s, timeouts included

# Speed probe.  Each CPU of a shared host slows down by up to ~1.7x, for
# seconds to minutes, as other tenants load it.  Timing a fixed loop on the
# command's own CPU while the command runs, and scaling the command's time
# by it, takes most of that drift out of the end-to-end times.
PROBE_STEPS = 20_000
PROBE_EVERY_S = 0.2
# The probe's time on an unloaded CPU of the 2-vCPU Intel Xeon (KVM) host
# the benchmark was built on; reported times are scaled to that speed.
PROBE_REF_S = 1.2e-3


def unit(name: str, units: dict) -> str:
    """Unit from BENCHMARK.json, else by the name: seconds for ``*_s``."""
    return units.get(name) or ("s" if name.endswith("_s") else "count")


class Deadline(Exception):
    """The run's hard time limit would be passed."""


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the current speed of this CPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_STEPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Starts one child at a time, with a timeout, and reaps it with
    ``os.wait4`` for its peak RSS.

    While the child runs, the runner wakes every ``PROBE_EVERY_S`` and times
    ``probe()`` on the CPU they share (``main`` pins the benchmark to one
    CPU, and children inherit it).  ``ref_s`` is the child's wall time
    scaled to the speed at which the probe takes ``PROBE_REF_S``."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv, stdout: Path, timeout: float = COMMAND_TIMEOUT_S) -> dict:
        budget = min(timeout, RUN_LIMIT_S - (time.perf_counter() - self.started))
        if budget <= 1.0:
            raise Deadline()
        probes = []
        with stdout.open("wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL)
            fd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = t0 + budget - time.perf_counter()
                    finished = left > 0 and bool(select.select([fd], [], [], min(PROBE_EVERY_S, left))[0])
                    if finished or left <= 0:
                        break
                    probes.append(probe())
                if not finished:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # interrupted: leave no child behind
                proc.wait()
                raise
            finally:
                os.close(fd)
            wall = time.perf_counter() - t0
        probe_s = statistics.median(probes or [probe()])
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "ref_s": wall * PROBE_REF_S / probe_s,
            "probe_s": probe_s,
            "exit_code": proc.returncode,
            "timed_out": not finished,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def summary(values) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def import_times(stderr: str) -> dict:
    """Self import time (s) of scipy, numpy and selfsim modules from the
    ``-X importtime`` report."""
    out = {"scipy": 0.0, "numpy": 0.0, "selfsim": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in out:
            out[top] += self_us / 1e6
    return out


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((SRC / "selfsim").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def prepare(work: Path, plan) -> list:
    """Output directory, stdout file and argv of every planned command."""
    jobs = []
    for k, (cmd, config) in enumerate(plan):
        base = work / f"{k}-{cmd.kind}"
        base.mkdir(parents=True)
        argv = [cmd.kind, *cmd.args, "--out", str(base / "out")]
        if config is not None:
            path = base / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        jobs.append({"cmd": cmd, "config": config, "argv": argv, "out": base / "out",
                     "stdout": base / "stdout.txt"})
    return jobs


def check_job(job, exit_code: int, timed_out: bool) -> tuple:
    """Failure messages and Weyl error of one finished command."""
    if timed_out:
        return ["timed out"], None
    stdout = job["stdout"].read_text(errors="replace")
    if exit_code != 0:
        return [f"exit code {exit_code}: {stdout.strip()[-300:]}"], None
    if not job["out"].is_dir():
        return ["no output directory"], None
    try:
        return checks.check(job["cmd"], job["out"], stdout, job["config"])
    except (OSError, ValueError, KeyError, IndexError) as exc:  # JSONDecodeError is a ValueError
        return [f"unreadable output: {exc!r}"], None


def untraced(args, work: Path, jobs, runner: Runner, record: dict) -> dict:
    started = runner.started
    import_argv = [sys.executable, "-c", "import selfsim.cli"]
    log = work / "import.txt"
    setup = {"ref_s": [], "wall_s": []}
    for _ in range(SETUP_SAMPLES):
        res = runner.run(import_argv, log)
        if res["exit_code"] != 0:
            raise RuntimeError(f"import selfsim.cli failed: {log.read_text()[-500:]}")
        for key in setup:
            setup[key].append(res[key])

    # Round-robin over the commands: the first round always completes, and
    # a later command starts only if its median so far still fits in --seconds.
    per_job = [{"label": j["cmd"].label, "ref_s": [], "wall_s": [], "probe_s": [], "rss_mb": [],
                "failures": [], "sha256": None} for j in jobs]
    weyl_err = None
    attempted = failed = 0
    for k in itertools.count():
        job, rec = jobs[k % len(jobs)], per_job[k % len(jobs)]
        elapsed = time.perf_counter() - started
        if k >= len(jobs) and elapsed + statistics.median(rec["wall_s"]) > args.seconds:
            break
        if job["out"].exists():
            shutil.rmtree(job["out"])
        res = runner.run([sys.executable, "-m", "selfsim.cli", *job["argv"]], job["stdout"])
        attempted += 1
        errors, err = check_job(job, res["exit_code"], res["timed_out"])
        if errors:
            failed += 1
            rec["failures"].append(errors)
        else:
            rec["sha256"] = rec["sha256"] or checks.sha256_files(job["out"])
        if err is not None:
            weyl_err = err
        for key in ("ref_s", "wall_s", "probe_s", "rss_mb"):
            rec[key].append(res[key])

    def total(kind=None, key="ref_s"):
        """Sum over the commands (of one kind) of their median time."""
        return sum(statistics.median(rec[key]) for job, rec in zip(jobs, per_job)
                   if kind is None or job["cmd"].kind == kind)

    metrics = {
        "wall_s": total(),
        "setup_s": statistics.median(setup["ref_s"]),
        "measure_s": total("measure"),
        "weyl_s": total("weyl"),
        "peak_rss_mb": max(max(r["rss_mb"]) for r in per_job),
        # a missing value comes with a failed Weyl command, so correct is false
        "weyl_abs_err": weyl_err if weyl_err is not None else 0.0,
    }
    kinds = dict.fromkeys(j["cmd"].kind for j in jobs)
    record["timings"] = {
        key: {"setup_s": summary(setup[key]), "wall_s": total(key=key),
              **{f"{kind}_s": total(kind, key) for kind in kinds}}
        for key in ("ref_s", "wall_s")
    }
    record["commands"] = per_job
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args, work: Path, jobs, runner: Runner, record: dict) -> dict:
    log = work / "importtime.txt"
    importtime_argv = [sys.executable, "-X", "importtime", "-c", "import selfsim.cli"]
    samples = []
    for _ in range(IMPORT_SAMPLES):
        res = runner.run(importtime_argv, log)
        if res["exit_code"] != 0:
            raise RuntimeError(f"import selfsim.cli failed: {log.read_text()[-500:]}")
        samples.append(import_times(log.read_text()))
    layers = {f"cli.import_{name}_s": statistics.median(s[name] for s in samples)
              for name in ("scipy", "numpy", "selfsim")}

    attempted = failed = 0
    results = {}
    for mode in ("untraced", "traced"):
        for job in jobs:
            if job["out"].exists():
                shutil.rmtree(job["out"])
        plan = {"src": str(SRC),
                "commands": [{"argv": j["argv"], "stdout": str(j["stdout"])} for j in jobs]}
        plan_path = work / f"plan-{mode}.json"
        plan_path.write_text(json.dumps(plan))
        result_path = work / f"result-{mode}.json"
        argv = [sys.executable, str(BENCH / "inproc.py"), str(plan_path), str(result_path)]
        res = runner.run(argv + (["--trace"] if mode == "traced" else []), work / f"inproc-{mode}.txt",
                         timeout=RUN_LIMIT_S)
        if res["exit_code"] != 0 or not result_path.is_file():
            raise RuntimeError(f"in-process {mode} run failed: "
                               f"{(work / f'inproc-{mode}.txt').read_text()[-1000:]}")
        results[mode] = json.loads(result_path.read_text())
        if mode == "traced":
            for job, cmd_res in zip(jobs, results[mode]["commands"]):
                attempted += 1
                errors, _ = check_job(job, cmd_res["exit_code"], False)
                if errors:
                    failed += 1
                    record.setdefault("failures", []).append({job["cmd"].label: errors})

    traced_cmds = results["traced"]["commands"]
    untraced_wall = sum(c["wall_s"] for c in results["untraced"]["commands"])
    traced_wall = sum(c["wall_s"] for c in traced_cmds)
    worst_balance = max(abs(c["balance_s"]) for c in traced_cmds)
    if worst_balance > 1e-6:
        raise RuntimeError(f"self times do not add up to the traced wall time (off by {worst_balance:.3e} s)")
    summary_ = results["traced"]["layers"]
    layers.update({k: v for k, v in summary_.items() if k != "calls"})
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    layers["trace.untraced_s"] = sum(c["untraced_s"] for c in traced_cmds)
    record["layers"] = layers
    record["calls"] = summary_["calls"]
    record["traced"] = {
        "spans": results["traced"]["spans"],
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "per_command": [
            {"label": j["cmd"].label, "traced_s": t["wall_s"], "untraced_s": u["wall_s"],
             "outside_spans_s": t["untraced_s"]}
            for j, t, u in zip(jobs, traced_cmds, results["untraced"]["commands"])
        ],
    }
    return {"attempted": attempted, "failed": failed, "metrics": layers}


def report(record: dict, units: dict) -> None:
    """Human-readable lines printed before the final JSON line."""
    env = record["environment"]
    print(f"# selfsim benchmark: workload {record['workload']}, seed {env['seed']}, trace {record['trace']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, click {env['click']}, "
          f"{env['nproc']} x {env['cpu']}, git {env['git_sha']}")
    for key, title in (("ref_s", "at the reference speed"), ("wall_s", "as measured")):
        timings = record.get("timings", {}).get(key, {})
        for name, value in timings.items():
            if name == "setup_s":
                print(f"{name:>14} median {value['median']:.4f} s  max {value['max']:.4f} s  n={value['n']}  ({title})")
            else:
                print(f"{name:>14} {value:.4f} s  (sum of per-command medians, {title})")
    for rec in record.get("commands", []):
        ref, wall = summary(rec["ref_s"]), summary(rec["wall_s"])
        print(f"{rec['label']:>60}  median {ref['median']:.4f} s  max {ref['max']:.4f} s  n={ref['n']}  "
              f"(as measured: median {wall['median']:.4f} s  max {wall['max']:.4f} s; "
              f"probe median {statistics.median(rec['probe_s']) * 1e3:.3f} ms)  "
              f"rss {max(rec['rss_mb']):.1f} MB  failures {len(rec['failures'])}")
    for name, value in record.get("layers", {}).items():
        print(f"{name:>28} {value:.6g} {unit(name, units)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "selfsim" / "cli.py").is_file():
        print(f"error: no selfsim sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / name
    if work.exists():
        shutil.rmtree(work)
    jobs = prepare(work, workloads.plan(args.workload, args.seed))
    record = {"workload": args.workload, "trace": args.trace, "environment": environment(args.seed),
              "order": [j["cmd"].label for j in jobs],
              "weyl_centers": [j["config"]["centers"] for j in jobs if j["config"]]}
    # Pin the benchmark, and with it every command it starts, to one CPU, so
    # that the speed probe runs on the CPU the command runs on.  selfsim
    # starts no threads or processes of its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(started)
    try:
        result = (traced if args.trace else untraced)(args, work, jobs, runner, record)
    except Deadline:
        print("error: the run would exceed its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["correct"] = result["failed"] == 0
    record["failed_frac"] = result["failed"] / result["attempted"]
    record["result"] = result
    record["elapsed_s"] = time.perf_counter() - started
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    report(record, units)
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""brmult benchmark: fixed query workloads, exact-output gate, layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A single client runs the workload's passes in a closed loop: one query at
a time, each in a fresh interpreter, never more than one child process.
It starts another pass while the time used plus the median pass time so
far fits in ``--seconds``, so a run holds at least one pass. Every output
is checked against values frozen at the seed commit.

Untraced times are metered (``meter.py``): the benchmark process and
every child are pinned to one CPU, where a low-priority meter thread runs
a fixed unit of work between the query's time slices, and a query's time
is its CPU time scaled by the meter's speed at the time. This cancels the
host's speed swings. Traced runs are neither pinned nor metered: their
times are clock times.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (spawn
to exit, summed over a pass), ``compute_s`` (``wall_s`` minus the pass's
start-up time), each the median over the run's passes; ``setup_s`` (the
median time from spawn until ``import brmult`` returns, over the pass
queries and extra start-ups between passes, times the queries in a pass);
and ``peak_rss_mb`` (largest child peak RSS). With ``--trace 1`` each pass
runs twice, untraced and then traced, and the metrics are the per-layer
ones of the traced passes plus ``trace_overhead_s``. Traced stdout must
equal untraced stdout byte for byte.

The last stdout line is the result object; the line before it holds the
run's metadata and per-pass figures. Exits 2 without a result when the
checkout holds no brmult source tree or the program cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer
import workloads
from instances import DEFAULT_SEED
from meter import Clock, Meter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench-work"
# A run must end within 180 s; stop starting work well before that.
DEADLINE_S = 165.0
HASH_SEED = "0"
# Extra interpreter start-ups after each untraced pass. setup_s is the
# median start-up over these and the pass queries, so it rests on several
# samples even when a pass is a single query.
SETUP_PROBES = 2

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Outcome:
    """One finished child process; ``start``, ``imported`` and ``end`` are
    monotonic times: spawn, ``import brmult`` returned, and exit.
    ``cpu_setup`` and ``cpu`` are the child's CPU seconds at import and in all."""

    code: int
    stdout: bytes
    start: float
    imported: float
    end: float
    cpu_setup: float
    cpu: float
    maxrss_kb: int

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def setup(self) -> float:
        return self.imported - self.start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(argv, deadline: float, trace_path: Optional[Path] = None) -> Optional[Outcome]:
    """Run one query in a fresh interpreter; None if it overran ``deadline``."""
    cmd = [sys.executable, str(CHILD), str(trace_path) if trace_path else "-", *argv]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    end = time.monotonic()
    try:
        report = json.loads(err.decode("utf-8", "replace").splitlines()[-1])
        imported, maxrss = float(report["imported"]), int(report["maxrss_kb"])
        cpu_setup, cpu = float(report["cpu_imported"]), float(report["cpu"])
    except (IndexError, KeyError, TypeError, ValueError):
        # The child died before reporting; its whole life counts as set-up.
        imported, maxrss = end, 0
        cpu_setup = cpu = end - start
    return Outcome(proc.returncode, out, start, imported, end, cpu_setup, cpu, maxrss)


@dataclass
class PassResult:
    """One pass. ``wall`` and ``setups`` are read by the run's meter (a Clock
    in traced runs); ``clock_wall`` is always read off the clock."""

    wall: float = 0.0
    setups: list = field(default_factory=list)
    clock_wall: float = 0.0
    maxrss_kb: int = 0
    outputs: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)


class Run:
    """Runs queries, checks every output, and counts failures."""

    def __init__(self, deadline: float, meter):
        self.deadline = deadline
        self.meter = meter
        self.attempted = 0
        self.failures = []

    def fail(self, argv, reason: str) -> None:
        self.failures.append(f"{' '.join(argv)}: {reason}")

    def query(self, query, trace_path=None, reference=None) -> Optional[Outcome]:
        """Run and check one query; ``reference`` is the untraced stdout."""
        self.attempted += 1
        outcome = spawn(query.argv, self.deadline, trace_path)
        if outcome is None:
            self.fail(query.argv, "timed out")
            return None
        reason = query.check(outcome.code, outcome.stdout)
        if reason is None and reference is not None and outcome.stdout != reference:
            reason = "traced stdout differs from untraced stdout"
        if reason is not None:
            self.fail(query.argv, reason)
        return outcome

    def probe(self) -> Optional[float]:
        """Start the program without a query; its metered set-up time."""
        outcome = spawn((), self.deadline)
        if outcome is None or not outcome.maxrss_kb:
            return None
        return self.meter.read(outcome)[1]

    def run_pass(self, queries, reference: Optional[PassResult] = None) -> PassResult:
        """One pass; traced when ``reference``, the untraced pass, is given."""
        traced = reference is not None
        result = PassResult()
        for i, query in enumerate(queries):
            spans_path = WORK / f"spans-{i}.json" if traced else None
            outcome = self.query(query, spans_path, reference.outputs[i] if traced else None)
            if outcome is None:
                result.outputs.append(None)
                continue
            wall, setup = self.meter.read(outcome)
            result.wall += wall
            result.setups.append(setup)
            result.clock_wall += outcome.wall
            result.maxrss_kb = max(result.maxrss_kb, outcome.maxrss_kb)
            result.outputs.append(outcome.stdout)
            if traced:
                result.totals = tracer.add_totals(result.totals, read_totals(spans_path))
        return result


def read_totals(spans_path: Path) -> dict:
    try:
        with open(spans_path, encoding="utf-8") as handle:
            data = json.load(handle)
        spans = [tuple(span) for span in data["spans"]]
        return tracer.layer_totals(spans, data["cache"])
    except (OSError, ValueError, KeyError):
        return {}
    finally:
        spans_path.unlink(missing_ok=True)


def measure(run: Run, workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop over passes; returns untraced and traced passes and probes."""
    plain, traced, probes = [], [], []
    durations = []
    start = time.monotonic()
    for queries in workloads.passes(workload, seed, WORK):
        unit_start = time.monotonic()
        plain.append(run.run_pass(queries))
        if trace:
            traced.append(run.run_pass(queries, reference=plain[-1]))
        else:
            probes += [run.probe() for _ in range(SETUP_PROBES)]
        now = time.monotonic()
        durations.append(now - unit_start)
        next_end = now + statistics.median(durations)
        if next_end - start > seconds or next_end > run.deadline:
            break
    for query in workloads.final_checks(workload):
        run.query(query)
    return plain, traced, [s for s in probes if s is not None]


def end_to_end(plain, probes=()) -> dict:
    """setup_s is the median start-up times the number of queries in a pass."""
    setups = [s for p in plain for s in p.setups] + list(probes)
    return {
        "wall_s": statistics.median(p.wall for p in plain),
        "setup_s": statistics.median(setups) * len(plain[0].outputs),
        "compute_s": statistics.median(p.wall - sum(p.setups) for p in plain),
        "peak_rss_mb": max(p.maxrss_kb for p in plain) / 1024.0,
    }


def per_layer(plain, traced) -> dict:
    layers = [tracer.layer_metrics(p.totals) for p in traced if p.totals]
    out = {
        name: statistics.median(m[name] for m in layers) if layers else 0.0
        for name in PER_LAYER_UNITS
        if name != "trace_overhead_s"
    }
    out["trace_overhead_s"] = statistics.median(t.wall - p.wall for p, t in zip(plain, traced))
    return out


def source_facts() -> dict:
    files = sorted((SRC / "brmult").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else None


WARM_UP = ("dims", workloads.ORACLE_INSTANCE, "--grid", "1")


def warm_up(deadline: float) -> bool:
    """Start the program once untimed, so bytecode caches exist before timing."""
    outcome = spawn(WARM_UP, deadline)
    return outcome is not None and outcome.code == 0 and outcome.maxrss_kb > 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "brmult" / "__init__.py").is_file() or not (ROOT / "demos" / "instances").is_dir():
        print(f"perfbench: no brmult source tree under {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if not warm_up(deadline):
        print("perfbench: brmult does not start: " + " ".join(WARM_UP), file=sys.stderr)
        return 2

    if not args.trace:
        # The meter and every child share one CPU, so they see the same host.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with (Clock() if args.trace else Meter()) as meter:
        run = Run(deadline, meter)
        plain, traced, probes = measure(run, args.workload, args.seed, args.seconds, bool(args.trace))
        meter_rate = meter.rate(started, time.monotonic())
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plain, probes), END_TO_END_UNITS

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        **source_facts(),
        "passes": len(plain),
        "meter_units_per_s": meter_rate,
        "pass_wall_s": [p.wall for p in plain],
        "pass_clock_wall_s": [p.clock_wall for p in plain],
        "pass_setup_s": [sum(p.setups) for p in plain],
        "probe_setup_s": probes,
        "traced_pass_wall_s": [p.wall for p in traced],
        "end_to_end": end_to_end(plain, probes),
        "failures": run.failures,
        "run_s": time.monotonic() - started,
    }
    print(json.dumps({"detail": detail}))
    for reason in run.failures:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

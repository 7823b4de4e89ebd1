#!/usr/bin/env python3
"""Run one benchmark workload of tangledpath and print its metrics.

    python3 bench/run.py --workload separator --seed 1 --seconds 40 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  ``--trace 0`` times untraced jobs and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` makes the traced run and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details (machine, output digest, failures).  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
MIN_JOBS = 3


def import_library():
    """Import tangledpath from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tangledpath" / "__init__.py").is_file():
        sys.exit(f"bench: no tangledpath sources under {src}")
    sys.path.insert(0, str(src))
    import tangledpath

    if Path(tangledpath.__file__).resolve().parent != src / "tangledpath":
        sys.exit(f"bench: imported tangledpath from {tangledpath.__file__}, not {src}")


class Runner:
    """Runs jobs, checks them, and counts every failure instead of stopping."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.first_problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.untraced = contextlib.nullcontext  # a traced run keeps checks out of its spans

    @property
    def digest(self) -> str:
        return self.digests.get(self.workload.input_key(0), "")

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        self.errors[kind] += 1
        if len(self.first_problems) < 5:
            self.first_problems.append(detail)
            print(f"bench: {self.workload.name}: {detail}", file=sys.stderr)

    def run(self, i: int, threads: int) -> float | None:
        """Run job i; return its rate in units per second, or None if it raised."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            raw = self.workload.job(i, threads)
            elapsed = time.perf_counter() - start
            with self.untraced():
                units, output, problems = self.workload.check(i, raw)
        except Exception as exc:  # a raising job is a counted failure
            self.fail(type(exc).__name__, traceback.format_exc())
            return None
        digest = hashlib.sha256(output.encode()).hexdigest()
        key = self.workload.input_key(i)
        if self.digests.setdefault(key, digest) != digest:
            self.fail("digest", f"job {i}: output digest {digest} differs from {self.digests[key]}")
        elif problems:
            self.fail("check", f"job {i}: " + "; ".join(problems[:3]))
        return units / elapsed

    def loop(self, seconds: float, threads: int) -> list[float]:
        """Closed loop from job 1 until ``seconds`` pass and MIN_JOBS ran;
        returns the rate of every job that did not raise."""
        rates, i = [], 1
        deadline = time.perf_counter() + seconds
        while i <= MIN_JOBS or time.perf_counter() < deadline:
            rate = self.run(i, threads)
            if rate is not None:
                rates.append(rate)
            i += 1
        return rates


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def setup_seconds(args, runner: Runner) -> list[float]:
    """Time fresh interpreters from launch to the end of their warm-up job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        runner.attempted += 1
        if proc.returncode != 0 or line.split() != ["ready", runner.digest]:
            runner.fail("setup", f"setup probe exited {proc.returncode} with {line.strip()!r}")
    return times


def untraced(args, runner: Runner) -> tuple[dict, dict]:
    wl = runner.workload
    rates = runner.loop(args.seconds, wl.threads)
    runner.run(0, wl.threads)  # the warm-up's input again: its digest must repeat
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_seconds(args, runner)
    return {
        "units_per_s": (median(rates), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (median(setup), "s"),
    }, {"jobs": len(rates), "setup_runs_s": setup}


def traced(args, runner: Runner) -> tuple[dict, dict]:
    """Run each job untraced and then traced, back to back, for ``--seconds``.

    Pairing the two runs of one input keeps slow drifts of machine speed out
    of the tracing overhead.  One more single-threaded job under tracemalloc
    gives the memory peaks.
    """
    import tracing

    wl = runner.workload
    tracer = tracing.Tracer()
    runner.untraced = tracer.paused
    plain, slowdowns = [], []
    deadline = time.perf_counter() + args.seconds
    i = 1
    while i <= MIN_JOBS or time.perf_counter() < deadline:
        rate = runner.run(i, wl.threads)
        with tracer.installed():
            traced_rate = runner.run(i, wl.threads)
        if rate is not None and traced_rate is not None:
            plain.append(rate)
            slowdowns.append(rate / traced_rate)
        i += 1
    jobs = i - 1
    tracer.recording, tracer.measuring_memory = False, True
    with tracer.installed():
        tracemalloc.start()
        try:
            runner.run(0, 1)  # one thread, so a call's peak is its own
        finally:
            tracemalloc.stop()
    speedups = []
    for _ in range(MIN_JOBS if wl.threads > 1 else 0):
        many, one = runner.run(0, wl.threads), runner.run(0, 1)
        if many is not None and one is not None:
            speedups.append(many / one)

    calls = tracer.calls()
    missing = [span for span in wl.required if calls[span] == 0]
    if missing:
        raise SystemExit(f"bench: {wl.name}: traced run recorded no calls to {missing}")
    metrics = tracer.layer_metrics(jobs)
    metrics["sweeps.thread_speedup"] = (median(speedups), "x")
    metrics["bench.trace_overhead"] = (median(slowdowns) - 1.0 if slowdowns else 0.0, "frac")
    spans_file = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write(spans_file, {"workload": wl.name, "seed": args.seed, "jobs": jobs})
    return metrics, {
        "jobs": jobs,
        "untraced_units_per_s": median(plain),
        "traced_units_per_s": median([r / s for r, s in zip(plain, slowdowns)]),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling stops git from reporting a repository that encloses ROOT.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def check_declared(metrics: dict, trace: bool) -> None:
    """The metrics must be exactly the ones BENCHMARK.json declares."""
    declared_file = ROOT / "BENCHMARK.json"
    declared = json.loads(declared_file.read_text())["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        diff = sorted(set(want.items()) ^ set(have.items()))
        raise SystemExit(f"bench: metrics differ from {declared_file.name}: {diff}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("separator", "diameter"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up job, print its digest and exit")
    args = parser.parse_args(argv)

    import_library()
    import workloads

    runner = Runner(workloads.WORKLOADS[args.workload](args.seed))
    runner.run(0, runner.workload.threads)  # warm-up; its digest is the run's digest
    if args.setup_probe:
        print("ready", runner.digest if runner.failed == 0 else "failed", flush=True)
        return 0

    metrics, info = (traced if args.trace else untraced)(args, runner)
    check_declared(metrics, bool(args.trace))
    wl = runner.workload
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:<10} {name:<40} {value:>16.6g} {unit}")
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "unit_of_work": wl.unit, "digest": runner.digest,
        "failed_frac": runner.failed / runner.attempted, "errors": dict(runner.errors),
        "first_problems": runner.first_problems,
        "machine": machine(), **info,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

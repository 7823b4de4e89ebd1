#!/usr/bin/env python3
"""Print every benchmark metric of every workload, on two workload seeds.

    python3 bench/report.py [--seeds 1 2] [--seconds N] [--workloads ...]

Runs bench/run.py once per workload, seed and trace mode (one process each,
one after another) and prints one line per metric: workload, seed, metric,
value and unit, under a header naming the machine and the git commit.  The
last line is the same data as one JSON object.  ``--seconds`` defaults to
BENCHMARK.json's run_seconds.  A full report takes about 7 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("separator", "diameter")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            for trace in (0, 1):
                detail, result = run_one(workload, seed, args.seconds, trace)
                if not runs:
                    print("machine " + json.dumps(detail["machine"], sort_keys=True))
                    print(f"{'workload':<10} {'seed':>5} {'metric':<40} {'value':>16} unit")
                runs.append({"detail": detail, "result": result})
                for name, metric in result["metrics"].items():
                    print(f"{workload:<10} {seed:>5} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
                print(f"{workload:<10} {seed:>5} {'failed/attempted':<40} "
                      f"{result['failed']:>9}/{result['attempted']:<6} digest {detail['digest'][:16]}",
                      flush=True)
    print(json.dumps({"runs": runs}))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

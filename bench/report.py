"""Run every workload untraced and traced, and print every metric.

Usage, from the repository root:

    python3 bench/report.py [--seed N] [--seconds S]

For each workload this starts ``bench/run.py`` twice, with ``--trace 0``
and ``--trace 1``, and prints every end-to-end and per-layer metric by
name with its unit, the seed, the sample counts, the tail percentile,
``nproc`` and the Python version.  It then prints the tracing overhead
(traced minus untraced median operation time) and checks that each
workload isolates its layer as the benchmark's README predicts.  Exits 1
when an output check or an isolation check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def isolation(workload: str, layer: dict) -> list[str]:
    """Violations of the layer each workload is meant to isolate."""
    value = {name: metric["value"] for name, metric in layer.items()}
    problems = []
    if workload == "route-grid":
        for name in ("dominance.filter_nondominated.calls", "dominance.dominates.calls",
                     "dominance.weakly_dominates.calls"):
            if value[name] != 0:
                problems.append(f"{name} = {value[name]}, expected 0")
        share = value["cone.facet_matrix.busy_s"] / value["pathsolve.efficient_paths.busy_s"]
        if share >= 0.05:
            problems.append(f"facet_matrix takes {share:.1%} of efficient_paths, expected < 5%")
    if workload == "filter-front":
        for name in ("pathsolve.efficient_paths.calls", "pathsolve.weight_sweep.calls"):
            if value[name] != 0:
                problems.append(f"{name} = {value[name]}, expected 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    print(f"seed {args.seed}; {args.seconds} s per run; nproc {os.cpu_count()}; "
          f"python {platform.python_version()}")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n== {workload}")
        plain_lines, plain = run(workload, args.seed, args.seconds, 0)
        traced_lines, traced = run(workload, args.seed, args.seconds, 1)
        for line in plain_lines[2:]:
            print(line)
        print("-- traced run, per-layer metrics per pass over the pool")
        for line in traced_lines[2:]:
            print(line)
        untraced_ms = plain["metrics"]["op_p50_ms"]["value"]
        traced_ms = traced["metrics"]["trace.op_p50_ms"]["value"]
        print(f"tracing overhead: {traced_ms - untraced_ms:+.3f} ms on the median operation "
              f"({traced_ms / untraced_ms - 1:+.1%})")
        problems = isolation(workload, traced["metrics"])
        for problem in problems:
            print(f"isolation FAILED: {problem}")
        if not problems:
            print("isolation ok")
        if problems or not (plain["correct"] and traced["correct"]):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

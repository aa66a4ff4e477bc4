"""Seeded benchmark for ordcone: one workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload route-grid --seed 1 --seconds 30 --trace 0

One caller drives the workload in a closed loop: each operation starts only
after the previous one has finished and been checked.  The loop runs whole
passes over the workload's pool (a fresh seeded shuffle per pass) until the
operations have taken ``--seconds`` of busy time and the tail percentile
has at least ten samples beyond it.  Output checks run outside the timed
span; a raised exception, an unexpected exit code or a failed check makes
the operation fail.  Every time reported, set-up included, is rescaled by
the calibration kernel run around it (see ``calibration.py``); the raw
wall-clock figures are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs the
bench-owned wrappers of ``tracer.py`` and reports the per-layer metrics
instead, each a total per pass over the pool; the spans go to
``.bench_work/trace/<workload>-seed<seed>.jsonl``.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
from tracer import Tracer, span_totals
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
BEYOND_TAIL = 10

COMMANDS = ("cone", "verify", "route", "sweep", "filter")

# name and unit of every metric of a traced run
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("exactnum.vec_add.calls", "count"),
    ("exactnum.dot.calls", "count"),
    ("exactnum.rank.calls", "count"),
    ("exactnum.rank.busy_s", "s"),
    ("exactnum.mat_vec.calls", "count"),
    ("cone.facet_matrix.calls", "count"),
    ("cone.facet_matrix.busy_s", "s"),
    ("cone.facet_matrix.rows", "count"),
    ("cone.mark_extreme_rays.busy_s", "s"),
    ("cone.merge_degenerate.calls", "count"),
    ("dominance.filter_nondominated.calls", "count"),
    ("dominance.filter_nondominated.busy_s", "s"),
    ("dominance.filter_nondominated.self_s", "s"),
    ("dominance.filter_nondominated.kept_ratio", "ratio"),
    ("dominance.dominates.calls", "count"),
    ("dominance.weakly_dominates.calls", "count"),
    ("pathsolve.efficient_paths.calls", "count"),
    ("pathsolve.efficient_paths.busy_s", "s"),
    ("pathsolve.efficient_paths.self_s", "s"),
    ("pathsolve.efficient_paths.paths", "count"),
    ("pathsolve.efficient_paths.vectors", "count"),
    ("pathsolve.weight_sweep.calls", "count"),
    ("pathsolve.weight_sweep.busy_s", "s"),
    ("oracle.double_description.busy_s", "s"),
    ("oracle.ray_membership.calls", "count"),
    ("oracle.ray_membership.busy_s", "s"),
    ("oracle.enumerate_simple_paths.busy_s", "s"),
    ("oracle.enumerate_simple_paths.paths", "count"),
    ("cli.import_s", "s"),
    *((f"cli.main.{command}.busy_s", "s") for command in COMMANDS),
    ("cli.overhead_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.op_p50_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("route-grid", "filter-front", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Value at a percentile (nearest rank) and the number of samples beyond it."""
    index = max(math.ceil(percentile / 100 * len(sorted_values)) - 1, 0)
    return sorted_values[index], len(sorted_values) - index - 1


def samples_needed(percentile: float) -> int:
    """Fewest samples that leave BEYOND_TAIL of them beyond the percentile."""
    n = BEYOND_TAIL + 1
    while n - math.ceil(percentile / 100 * n) < BEYOND_TAIL:
        n += 1
    return n


def per_layer(pass_counts: list[Counter], spans: list, latencies: list[float], ok_ops: int) -> dict:
    passes = len(pass_counts)
    counts: Counter = Counter()
    for taken in pass_counts:
        counts.update(taken)
    totals = span_totals(spans)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("busy_s", "self_s") and layer in totals:
            values[name] = totals[layer][stat] / passes
        else:
            values[name] = counts.get(name, 0) / passes
    kept = counts["dominance.filter_nondominated.kept"]
    seen = counts["dominance.filter_nondominated.input"]
    values["dominance.filter_nondominated.kept_ratio"] = kept / seen if seen else 0.0
    values["trace.op_p50_ms"] = statistics.median(latencies) * 1000
    values["trace.ops_per_s"] = ok_ops / sum(latencies)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def write_spans(spans: list, workload: str, seed: int) -> Path:
    out = ROOT / ".bench_work" / "trace" / f"{workload}-seed{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        for span_id, name, start, end, parent, op in spans:
            handle.write(
                json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                )
                + "\n"
            )
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ordcone" / "__init__.py").is_file():
        print(f"error: no ordcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    references = json.loads((BENCH_DIR / "references.json").read_text())
    workload = WORKLOADS[args.workload](ROOT, references)
    problems: list[str] = []

    setup_raw: list[float] = []
    setup_times: list[float] = []
    for _ in range(SETUP_REPEATS):
        before = calibration.sample()
        started = time.perf_counter()
        workload.setup()
        setup_raw.append(time.perf_counter() - started)
        setup_times.append(setup_raw[-1] * calibration.scale(before, calibration.sample()))
    if workload.inputs_digest != references["inputs"][workload.name]:
        problems.append("generated inputs differ from the recorded ones")
    loaded = sys.modules.get("ordcone")
    if loaded is not None and not Path(loaded.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ordcone was imported from {loaded.__file__}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        workload.install(tracer)
    needed = samples_needed(workload.tail_percentile)
    rng = random.Random(args.seed)
    pool = workload.pool
    latencies: list[float] = []
    raw_latencies: list[float] = []
    failed = 0
    passes = 0
    pass_counts: list[Counter] = []
    while sum(raw_latencies) < args.seconds or len(latencies) < needed:
        for index in rng.sample(range(len(pool)), len(pool)):
            entry = pool[index]
            before = calibration.sample()
            if tracer is not None:
                tracer.op_id = len(latencies)
                op_span = tracer.open_span(f"op.{workload.name}")
            started = time.perf_counter()
            try:
                output = workload.run(entry)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.close_span(op_span)
            raw_latencies.append(elapsed)
            latencies.append(elapsed * calibration.scale(before, calibration.sample()))
            if error is None:
                try:
                    if tracer is not None:
                        workload.collect(tracer, op_span, entry, output, elapsed)
                    error = workload.check(entry, output)
                except Exception as exc:  # a broken output is a failed check
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(error)
        passes += 1
        if tracer is not None:
            pass_counts.append(tracer.take_counts())
    if tracer is not None:
        tracer.uninstall()

    attempted = len(latencies)
    ordered = sorted(latencies)
    tail, beyond = nearest_rank(ordered, workload.tail_percentile)
    print(f"workload {workload.name}: closed loop, 1 caller; seed {args.seed}; trace {args.trace}")
    print(f"python {platform.python_version()}; nproc {os.cpu_count()}")
    print(
        f"operations {attempted} ({passes} passes over a pool of {len(pool)}); "
        f"failed {failed}; failed_op_ratio {failed / attempted:.6f}"
    )
    print(f"tail percentile p{workload.tail_percentile} ({beyond} samples beyond it)")
    print(f"set-up repeats {SETUP_REPEATS}: " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    print(
        f"raw wall clock: set-up median {statistics.median(setup_raw):.4f} s, "
        f"{(attempted - failed) / sum(raw_latencies):.4g} ops/s, "
        f"p50 {statistics.median(raw_latencies) * 1000:.4g} ms, "
        f"p{workload.tail_percentile} {nearest_rank(sorted(raw_latencies), workload.tail_percentile)[0] * 1000:.4g} ms"
    )
    for problem in problems:
        print(f"problem: {problem}")

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ordered) * 1000, "unit": "ms"},
            "op_tail_ms": {"value": tail * 1000, "unit": "ms"},
            "peak_rss_mib": {"value": workload.peak_rss_mib(), "unit": "MiB"},
        }
    else:
        metrics = per_layer(pass_counts, tracer.spans, latencies, attempted - failed)
        print(f"spans: {len(tracer.spans)} written to {write_spans(tracer.spans, workload.name, args.seed)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

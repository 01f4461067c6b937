"""End-to-end benchmark of the assertion-repair loop.

    python3 perfbench/run.py --workload {augment,solve,train} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
timed phase runs a second time with every layer's entry points wrapped in
spans, the per-layer self-time table is printed, the trace is written to
``perfbench/out/`` (``python -m repro.obs summarize`` reads it) and the
last line carries the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy is imported (here and in every child process).
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("augment", "solve", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed: int, clock):
    """Run the workload's set-up ``setup_repeats`` times; keep the last state.

    Returns the state and the median set-up time at the reference host speed.
    """
    times = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        state, seconds = clock.time(workload.setup, seed)
        times.append(seconds)
    return state, statistics.median(times)


def timed_phase(workload, state, seconds: float, clock, recorder=None):
    """The timed phase, with the host's speed in its first and last second."""
    from measure import REFERENCE_S

    gc.collect()
    started = time.perf_counter()
    result = workload.run(state, seconds, clock, recorder)
    ended = time.perf_counter()
    print(
        f"host reference loop: {clock.reference_ms(started, started + 1):.3f} ms at the start, "
        f"{clock.reference_ms(ended - 1, ended):.3f} ms at the end of the timed phase "
        f"(times are scaled to {1000 * REFERENCE_S:.3f} ms)"
    )
    return result


def check_outputs(workload, state, result) -> None:
    """The workload's checks that run after timing stops, if it has any."""
    if hasattr(workload, "check_outputs"):
        workload.check_outputs(state, result)


def diagnostics(result) -> dict:
    """Figures printed beside the metrics: tail latency, pass@k, digests."""
    from measure import percentile

    latencies = result.latencies_ms()
    try:
        p90 = percentile(latencies, 90)
    except ValueError:
        p90 = 0.0  # refused: fewer than 100 requests
    return {
        "ops": result.ops,
        "ops_per_s": result.ops_per_s,
        "wall_ops_per_s": result.wall_ops_per_s,
        "error_rate": result.failed / result.attempted if result.attempted else 0.0,
        "latency_p90_ms": p90,
        "latency_samples": len(latencies),
        "repeats": result.repeats,
        "pass_at_1": result.pass_at.get(1, 0.0),
        "pass_at_5": result.pass_at.get(5, 0.0),
        "digests": result.digests,
        "problems": result.problems,
    }


def report(result, metrics: dict) -> dict:
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not result.problems and result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }


def run_untraced(args, clock) -> dict:
    from measure import END_TO_END, import_probe_s, peak_rss_mb, percentile
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    import_s = import_probe_s(SRC, clock)
    state, setup_s = set_up(workload, args.seed, clock)
    result = timed_phase(workload, state, args.seconds, clock)
    check_outputs(workload, state, result)
    values = {
        "setup_s": import_s + setup_s,
        "ops_per_s": result.ops_per_s,
        "latency_p50_ms": percentile(result.latencies_ms(), 50) if result.requests else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = diagnostics(result)
    print(
        f"{args.workload}: {result.ops} ops in {result.repeats} repeats, {result.elapsed_s:.3f}s "
        f"({summary['latency_samples']} requests, p90 {summary['latency_p90_ms']:.1f} ms), "
        f"import {import_s:.3f}s + set-up {setup_s:.3f}s"
    )
    print("diagnostics " + json.dumps(summary, sort_keys=True))
    metrics = {spec.name: {"value": values[spec.name], "unit": spec.unit} for spec in END_TO_END}
    return report(result, metrics)


def run_traced(args, clock) -> dict:
    """An untraced timed phase, then the same phase traced, in one process.

    Every unit of work starts cold (see ``workloads``), so the second
    phase repeats the first one's work; only the probes differ.
    """
    from layers import (
        PER_LAYER, SpanRecorder, layer_table, patched_probes, per_layer_metrics, render_table,
    )
    from repro.obs import MetricsRegistry, Tracer, scoped_registry, set_tracer, write_trace
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    untraced = timed_phase(workload, state, args.seconds, clock)
    tracer = Tracer()
    recorder = SpanRecorder(tracer)
    previous = set_tracer(tracer)
    try:
        with scoped_registry(MetricsRegistry()) as registry:
            with patched_probes(recorder):
                result = timed_phase(workload, state, args.seconds, clock, recorder)
    finally:
        set_tracer(previous)
    check_outputs(workload, state, result)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    write_trace(trace_path, tracer, metrics=registry,
                meta={"kind": "perfbench", "workload": args.workload, "seed": args.seed})

    # Positive overhead means the traced run was slower per operation.
    overhead = untraced.ops_per_s / result.ops_per_s - 1.0
    # Self times are scaled to the reference host speed, like every time.
    speed = clock.speed(result.started, result.started + result.elapsed_s)
    rows, unattributed_s = layer_table(tracer.spans, result.elapsed_s)
    for row in rows:
        row.self_s *= speed
    unattributed_s *= speed
    print(f"{args.workload}: per-layer self time, traced run (trace: {trace_path})")
    print(render_table(rows, unattributed_s, result.elapsed_s * speed, overhead))
    values = per_layer_metrics(
        rows, unattributed_s, registry.snapshot(), diagnostics(untraced), overhead
    )
    metrics = {spec.name: {"value": values[spec.name], "unit": spec.unit} for spec in PER_LAYER}
    result.check(untraced.digests[:1] == result.digests[:1], "traced and untraced outputs differ")
    result.check(untraced.failed == 0, "the untraced phase had failed operations")
    result.problems.extend(untraced.problems)
    return report(result, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import HostClock

    with HostClock().running() as clock:
        result = run_traced(args, clock) if args.trace else run_untraced(args, clock)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

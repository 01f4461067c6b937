"""Simulation benchmark harness.

Measures, for one representative design per template family:

* interpreter backend throughput (cycles/second),
* compiled backend throughput (cycles/second),
* the resulting speedup,

and writes everything to ``BENCH_sim.json`` so successive changes can track
the simulator's trajectory.  End-to-end pipeline time is perfbench's
``augment`` workload, not this script's.

Usage::

    python benchmarks/bench_sim.py [--cycles N] [--output PATH]
        [--min-speedup X] [--min-materialized-speedup Y]

The two gates exit non-zero when any family's speedup (simulation only,
respectively with every trace sample realised) falls below the floor.

Schema of the output (``bench_sim/v2``; v1 also timed the small
pipeline)::

    {
      "schema": "bench_sim/v2",
      "host": {...},                         # cores, platform, Python
      "cycles_per_family": <int>,            # stimulus length per microbench
      "timing_repeats": <int>,               # best-of-N wall-clock policy
      "microbenchmarks": {
        "<family>": {
          "signals": <int>,                  # design size indicator
          "cycles": <int>,
          "interp_cps": <float>,             # interpreter cycles/second
          "compiled_cps": <float>,           # compiled backend cycles/second
          "compiled_cps_materialized": <float>,  # incl. full trace materialisation
          "compile_ms": <float>,             # one-off lowering cost
          "speedup": <float>,                # compiled_cps / interp_cps (sim only)
          "speedup_materialized": <float>    # like-for-like: trace fully read back
        }, ...
      },
      "geomean_speedup": <float>,
      "min_speedup": <float>,
      "geomean_speedup_materialized": <float>,
      "min_speedup_materialized": <float>
    }
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from common import ROOT, best_of, geomean, write_report  # first: puts src/ on sys.path

from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator, compile_design
from repro.sim.engine import InterpSimulator
from repro.sim.stimulus import StimulusGenerator


def bench_family(family, cycles: int, repeat: int) -> dict:
    artifact = family.build(f"bench_{family.name}", **family.parameter_grid[0])
    result = compile_source(artifact.source)
    if not result.ok or result.design is None:
        raise RuntimeError(f"benchmark design for {family.name} does not compile")
    design = result.design
    vectors = StimulusGenerator(design, seed=1).random_stimulus(cycles=cycles).vectors

    interp_s = best_of(repeat, lambda: InterpSimulator(design).run(vectors))

    start = time.perf_counter()
    compiled = compile_design(design)
    compile_ms = (time.perf_counter() - start) * 1e3

    compiled_s = best_of(
        repeat, lambda: CompiledSimulator(design, compiled=compiled).run(vectors)
    )
    # Like-for-like with the interpreter (whose trace is always dict-backed):
    # include realising every DiffTrace sample from the recorded events, the
    # cost a consumer that reads samples (the tree-walking checker) pays;
    # the miner and the compiled checker read columns only.
    compiled_mat_s = best_of(
        repeat,
        lambda: CompiledSimulator(design, compiled=compiled).run(vectors).materialized(),
    )

    return {
        "signals": len(design.signals),
        "cycles": len(vectors),
        "interp_cps": round(len(vectors) / interp_s, 1),
        "compiled_cps": round(len(vectors) / compiled_s, 1),
        "compiled_cps_materialized": round(len(vectors) / compiled_mat_s, 1),
        "compile_ms": round(compile_ms, 3),
        "speedup": round(interp_s / compiled_s, 2),
        "speedup_materialized": round(interp_s / compiled_mat_s, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=2000, help="stimulus cycles per family")
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing repeats")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if any family's simulation speedup falls below this",
    )
    parser.add_argument(
        "--min-materialized-speedup",
        type=float,
        default=None,
        help="exit non-zero if any family's speedup with every trace sample "
        "realised falls below this",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_sim.json",
    )
    args = parser.parse_args()

    micro: dict[str, dict] = {}
    for family in all_families():
        micro[family.name] = bench_family(family, args.cycles, args.repeat)
        entry = micro[family.name]
        print(
            f"{family.name:<26} interp {entry['interp_cps']:>9.0f} c/s   "
            f"compiled {entry['compiled_cps']:>9.0f} c/s   {entry['speedup']:>5.1f}x"
        )

    speedups = [entry["speedup"] for entry in micro.values()]
    mat_speedups = [entry["speedup_materialized"] for entry in micro.values()]
    report = {
        "cycles_per_family": args.cycles,
        "timing_repeats": args.repeat,
        "microbenchmarks": micro,
        "geomean_speedup": round(geomean(speedups), 2),
        "min_speedup": round(min(speedups), 2),
        "geomean_speedup_materialized": round(geomean(mat_speedups), 2),
        "min_speedup_materialized": round(min(mat_speedups), 2),
    }
    print(
        f"\ngeomean speedup {report['geomean_speedup']}x (min {report['min_speedup']}x); "
        f"with trace materialisation {report['geomean_speedup_materialized']}x "
        f"(min {report['min_speedup_materialized']}x)"
    )
    write_report(args.output, "bench_sim/v2", report)
    failed = False
    for key, flag, floor in (
        ("speedup", "--min-speedup", args.min_speedup),
        ("speedup_materialized", "--min-materialized-speedup", args.min_materialized_speedup),
    ):
        if floor is None:
            continue
        worst = min(micro.items(), key=lambda kv: kv[1][key])
        if worst[1][key] < floor:
            print(f"FAIL: {worst[0]} {key} {worst[1][key]}x is below the {flag} gate of {floor}x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

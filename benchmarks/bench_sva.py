"""SVA checker benchmark harness.

Measures, for one representative design per template family (augmented with
its template + mined assertions, like Stage 2 produces):

* tree-walking checker throughput (full-trace checks/second),
* compiled checker throughput, with the one-off lowering cost separated,
* the resulting speedup,

plus an end-to-end leg through :class:`repro.eval.verifier.SemanticVerifier`
(compile -> simulate -> check on fresh seeds) with each checker backend, and
writes everything to ``BENCH_sva.json`` so successive PRs can track the
trajectory next to ``BENCH_sim.json`` and ``BENCH_eval.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sva.py [--cycles N] [--output PATH]

Schema of the output (``bench_sva/v5``)::

    {
      "schema": "bench_sva/v5",
      "cycles_per_family": <int>,            # trace length per microbench
      "timing_repeats": <int>,               # best-of-N wall-clock policy
      "microbenchmarks": {
        "<family>": {
          "assertions": <int>,
          "cycles": <int>,
          "interp_checks_per_s": <float>,    # tree-walking full-trace checks/s
          "compiled_checks_per_s": <float>,  # attempt-tensor engine
          "lower_ms": <float>,               # one-off assertion lowering cost
          "speedup": <float>,                # attempt tensor vs tree-walker
          "batch_speedup": <float>           # stacked check_batch vs per-trace check
        }, ...
      },
      "geomean_speedup": <float>,
      "min_speedup": <float>,
      "batch": {                             # seed-stacked single-pass leg
        "traces": <int>,                     # seed-trace batch size (verifier shape)
        "cycles": <int>,
        "geomean_speedup": <float>,
        "min_speedup": <float>
      },
      "verifier": {                          # repro.eval end-to-end leg
        "cases": <int>,
        "interp_wall_s": <float>,
        "compiled_wall_s": <float>,          # runs the batched check_batch path
        "speedup": <float>
      }
    }

The compiled checker has two engines: the attempt tensor
(:func:`repro.sva.vector.walk_attempts_tensor`, with ``check_batch``
stacking a batch's per-seed columns into one padded (seed x cycle) grid)
and the tree-walking oracle.  Every family's assertions must lower to the
tensor (``strict=True``), and the run hard-fails on any verdict divergence
between the two engines, batched or not.

v5 dropped the per-cycle closure and Python attempt-walk legs (and their
``vector_speedup`` / ``attempt_speedup`` fields), because those engines no
longer exist.  v4 added the attempt tensor, v3 the vectorised series, v2
the batch leg (the verifier pushes all of a candidate's seed traces
through one ``check_batch`` pass).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.corpus.templates import all_families  # noqa: E402
from repro.eval.verifier import SemanticVerifier, VerifierConfig  # noqa: E402
from repro.hdl.lint import compile_source  # noqa: E402
from repro.obs import host_metadata  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.stimulus import StimulusGenerator  # noqa: E402
from repro.sva.checker import AssertionChecker  # noqa: E402
from repro.sva.compile import CompiledAssertionChecker  # noqa: E402
from repro.sva.generator import (  # noqa: E402
    insert_assertions,
    mine_assertions,
    template_assertion_blocks,
)


def _best_of(repeat: int, run) -> float:
    """Smallest wall time of ``repeat`` runs (robust against scheduler noise)."""
    return min(_timed(run) for _ in range(repeat))


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def augmented_source(family) -> str | None:
    """The family's representative source with template + mined assertions."""
    artifact = family.build(f"bench_{family.name}", **family.parameter_grid[0])
    golden = compile_source(artifact.source)
    if not golden.ok or golden.design is None:
        return None
    mining_trace = Simulator(golden.design).run(
        StimulusGenerator(golden.design, seed=1).mixed_stimulus(random_cycles=24).vectors
    )
    candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
    candidates.extend(mine_assertions(golden.design, mining_trace, max_assertions=5))
    if not candidates:
        return None
    return insert_assertions(artifact.source, candidates)


#: The batch leg mirrors the verifier's workload shape: one candidate, a
#: handful of fresh stimulus seeds, one lowered checker.
BATCH_TRACES = 2
BATCH_CYCLES = 96


def _assert_verdicts_identical(family_name: str, baseline, other, label: str) -> None:
    for name in baseline.outcomes:
        if baseline.outcomes[name].comparison_key() != other.outcomes[name].comparison_key():
            raise RuntimeError(
                f"{family_name}: {label} disagrees on assertion '{name}'"
            )


def bench_family(family, cycles: int, repeat: int) -> dict | None:
    source = augmented_source(family)
    if source is None:
        return None
    result = compile_source(source)
    if not result.ok or result.design is None:
        return None
    design = result.design
    if not design.assertions:
        return None
    vectors = StimulusGenerator(design, seed=2).mixed_stimulus(random_cycles=cycles).vectors
    # Fully materialised: all backends read the same dict-backed samples, so
    # the comparison isolates checking cost from trace materialisation.
    trace = Simulator(design).run(vectors).materialized()

    interp = AssertionChecker(design)
    interp_s = _best_of(repeat, lambda: interp.check(trace))

    start = time.perf_counter()
    compiled = CompiledAssertionChecker(design, strict=True)
    lower_ms = (time.perf_counter() - start) * 1e3
    compiled_s = _best_of(repeat, lambda: compiled.check(trace))

    # Multi-trace batch leg: all seed traces through one check_batch pass
    # (what the verifier does per candidate) vs one check call per trace.
    # The batched pass stacks the per-seed columns into one (seed x cycle)
    # grid and resolves each attempt-tensor assertion for all seeds at once.
    batch = [
        Simulator(design).run(
            StimulusGenerator(design, seed=100 + index)
            .mixed_stimulus(random_cycles=BATCH_CYCLES)
            .vectors
        ).materialized()
        for index in range(BATCH_TRACES)
    ]
    sequential_s = _best_of(repeat, lambda: [compiled.check(t) for t in batch])
    batched_s = _best_of(repeat, lambda: compiled.check_batch(batch))

    # The benchmark doubles as a differential guard and hard-fails on any
    # verdict divergence between the attempt tensor and the tree-walker,
    # on the single trace and on every trace of the stacked batch pass.
    baseline = interp.check(trace)
    _assert_verdicts_identical(family.name, baseline, compiled.check(trace), "attempt tensor")
    for one, via_batch in zip(batch, compiled.check_batch(batch)):
        _assert_verdicts_identical(
            family.name, interp.check(one), via_batch, "stacked check_batch"
        )

    return {
        "assertions": len(design.assertions),
        "cycles": len(trace),
        "interp_checks_per_s": round(1.0 / interp_s, 2),
        "compiled_checks_per_s": round(1.0 / compiled_s, 2),
        "lower_ms": round(lower_ms, 3),
        "speedup": round(interp_s / compiled_s, 2),
        "batch_speedup": round(sequential_s / batched_s, 3),
    }


def bench_verifier(cycles: int, families: list) -> dict:
    """End-to-end repro.eval leg: apply-fix verification with each backend.

    Each case compiles and simulates identically; only the checker backend
    differs, so the delta is exactly what the compiled checker buys the
    verification fan-out per candidate.
    """
    sources = [s for s in (augmented_source(f) for f in families) if s is not None]
    seeds = (1009, 2027)
    walls = {}
    for backend in ("interp", "auto"):
        verifier = SemanticVerifier(
            VerifierConfig(cycles=cycles, checker_backend=backend)
        )
        start = time.perf_counter()
        for source in sources:
            verifier.verify_source(source, seeds)
        walls[backend] = time.perf_counter() - start
    return {
        "cases": len(sources),
        "interp_wall_s": round(walls["interp"], 3),
        "compiled_wall_s": round(walls["auto"], 3),
        "speedup": round(walls["interp"] / max(walls["auto"], 1e-9), 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=768, help="trace cycles per family")
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing repeats")
    parser.add_argument(
        "--verifier-cases", type=int, default=8, help="families in the end-to-end verifier leg"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the geomean checking speedup falls below this",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=None,
        help="exit non-zero if ANY family's stacked-batch speedup falls below this",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sva.json",
    )
    args = parser.parse_args()

    families = all_families()
    micro: dict[str, dict] = {}
    for family in families:
        entry = bench_family(family, args.cycles, args.repeat)
        if entry is None:
            continue
        micro[family.name] = entry
        print(
            f"{family.name:<26} {entry['assertions']:>2d} SVAs   "
            f"interp {entry['interp_checks_per_s']:>8.1f} checks/s   "
            f"compiled {entry['compiled_checks_per_s']:>8.1f} checks/s   "
            f"{entry['speedup']:>5.1f}x  (batch {entry['batch_speedup']:.2f}x)"
        )
    if not micro:
        print("FAIL: no family produced a checkable design")
        return 1

    def geomean_of(values: list[float]) -> float:
        return math.exp(sum(math.log(v) for v in values) / len(values))

    speedups = [entry["speedup"] for entry in micro.values()]
    geomean = geomean_of(speedups)
    batch_speedups = [entry["batch_speedup"] for entry in micro.values()]
    batch_geomean = geomean_of(batch_speedups)

    verifier = bench_verifier(min(args.cycles, 96), families[: args.verifier_cases])
    report = {
        "schema": "bench_sva/v5",
        "host": host_metadata(),
        "cycles_per_family": args.cycles,
        "timing_repeats": args.repeat,
        "microbenchmarks": micro,
        "geomean_speedup": round(geomean, 2),
        "min_speedup": round(min(speedups), 2),
        "batch": {
            "traces": BATCH_TRACES,
            "cycles": BATCH_CYCLES,
            "geomean_speedup": round(batch_geomean, 3),
            "min_speedup": round(min(batch_speedups), 3),
        },
        "verifier": verifier,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\ngeomean checking speedup {report['geomean_speedup']}x "
        f"(min {report['min_speedup']}x); stacked seed-trace "
        f"pass {report['batch']['geomean_speedup']}x "
        f"(min {report['batch']['min_speedup']}x); verifier end-to-end "
        f"{verifier['speedup']}x over {verifier['cases']} cases"
    )
    print(f"wrote {args.output}")
    failed = False
    if args.min_speedup is not None and geomean < args.min_speedup:
        print(
            f"FAIL: geomean speedup {report['geomean_speedup']}x is below "
            f"the --min-speedup gate of {args.min_speedup}x"
        )
        failed = True
    if args.min_batch_speedup is not None and min(batch_speedups) < args.min_batch_speedup:
        print(
            f"FAIL: stacked-batch minimum {report['batch']['min_speedup']}x "
            f"is below the --min-batch-speedup gate of {args.min_batch_speedup}x"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""SVA checker benchmark harness.

Measures, for one representative design per template family (augmented with
its template + mined assertions, like Stage 2 produces):

* tree-walking checker throughput (full-trace checks/second),
* compiled checker throughput, with the one-off lowering cost separated,
* the resulting speedup,

plus two legs over the family's injected mutants (Stage 2's shape: every
mutant is a one-line edit of the augmented golden, lowered against it):

* mutant batch: per-mutant ``check`` vs one ``check_batch`` over the
  mutants whose checkers share the golden's assertion lowerings;
* relower: full vs ``base=`` lowering (``compile_design`` +
  ``CompiledAssertionChecker``) of every mutant, the work each mutant or
  candidate repair pays before its first simulated cycle;

and writes everything to ``BENCH_sva.json`` so successive changes can track
the checker's trajectory next to ``BENCH_sim.json``.  End-to-end
verification time is perfbench's ``solve`` workload, not this script's.

Usage::

    python benchmarks/bench_sva.py [--cycles N] [--output PATH]

Schema of the output (``bench_sva/v7``)::

    {
      "schema": "bench_sva/v7",
      "host": {...},                         # cores, platform, Python
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
          "batch_speedup": <float>,          # stacked check_batch vs per-trace check
          "mutant_batch_speedup": <float>,   # absent when < 2 mutants share a lowering
          "relower_speedup": <float>         # absent when the golden has no mutant
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
      "mutant_batch": {                      # cross-design, shared-lowering leg
        "families": <int>,
        "mutants": <int>,                    # traces over all families
        "cycles": <int>,
        "geomean_speedup": <float>,          # one check_batch vs per-mutant check
        "min_speedup": <float>
      },
      "relower": {                           # incremental lowering leg
        "families": <int>,
        "mutants": <int>,                    # mutants lowered per timed pass
        "full_s": <float>,                   # summed best-of over families
        "incremental_s": <float>,
        "speedup": <float>                   # full_s / incremental_s
      }
    }

The compiled checker has two engines: the attempt tensor (numpy element
lanes packed into Python ints and walked with int bitmask operations by
:func:`repro.sva.vector.walk_attempts_packed`, with ``check_batch``
stacking a batch's per-seed columns into one padded (seed x cycle) grid)
and the tree-walking oracle.  The tensor's cost per assertion is nearly
fixed while the tree-walker's grows with every attempt, so the checking
speedup grows with ``--cycles``: CI gates it at 768 cycles and at about
the workloads' trace length (``--cycles 80``).  The run hard-fails when any family's
assertion does not lower to the tensor (``engine_report()`` names a
tree-walker assertion), and on any verdict divergence between the two
engines, batched or not.  The batch leg's two sides take turns, each timed
over back-to-back calls lasting at least ``BATCH_MIN_SECONDS`` (20 ms), so
one slow millisecond on a loaded host cannot sink a family's ratio below
the ``--min-batch-speedup`` gate.

v7 dropped the end-to-end verifier leg (perfbench ``solve`` times it) and
added the relower leg.  v6 added the mutant-batch leg.  v5 dropped the
per-cycle closure and Python attempt-walk legs, because those engines no
longer exist.  v4 added the attempt tensor, v3 the vectorised series, v2
the batch leg.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from common import ROOT, best_of, geomean, paired_best_of, write_report  # first: puts src/ on sys.path

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator, compile_design
from repro.sim.engine import SimulationError
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import (
    insert_assertions,
    mine_assertions,
    template_assertion_blocks,
)


def augmented_source(family) -> str | None:
    """The family's representative source with template + mined assertions."""
    artifact = family.build(f"bench_{family.name}", **family.parameter_grid[0])
    golden = compile_source(artifact.source)
    if not golden.ok or golden.design is None:
        return None
    mining_trace = CompiledSimulator(golden.design).run(
        StimulusGenerator(golden.design, seed=1).mixed_stimulus(random_cycles=24).vectors
    )
    candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
    candidates.extend(mine_assertions(golden.design, mining_trace, max_assertions=5))
    if not candidates:
        return None
    return insert_assertions(artifact.source, candidates)


def require_tensor(family_name: str, checker: CompiledAssertionChecker) -> None:
    """Hard-fail unless every assertion of ``checker`` lowered to the tensor."""
    report = checker.engine_report()
    if report["engines"]["tree_walker"]:
        demoted = sorted(
            name
            for name, choice in report["assertions"].items()
            if choice["engine"] == "tree_walker"
        )
        raise RuntimeError(
            f"{family_name}: assertions not lowered to the tensor: {', '.join(demoted)}"
        )


#: The batch leg mirrors the verifier's workload shape: one candidate, a
#: handful of fresh stimulus seeds, one lowered checker.
BATCH_TRACES = 2
BATCH_CYCLES = 96
#: One call of either side of the batch leg takes about a millisecond; each
#: timed stretch repeats it until it lasts this long (the per-family
#: minimum ``--min-batch-speedup`` gates is a ratio of two such stretches).
BATCH_MIN_SECONDS = 0.02


def _assert_verdicts_identical(family_name: str, baseline, other, label: str) -> None:
    for name in baseline.outcomes:
        if baseline.outcomes[name].comparison_key() != other.outcomes[name].comparison_key():
            raise RuntimeError(
                f"{family_name}: {label} disagrees on assertion '{name}'"
            )


def bench_family(family, source: str, cycles: int, repeat: int) -> dict | None:
    result = compile_source(source)
    if not result.ok or result.design is None:
        return None
    design = result.design
    if not design.assertions:
        return None
    vectors = StimulusGenerator(design, seed=2).mixed_stimulus(random_cycles=cycles).vectors
    # Fully materialised: all backends read the same dict-backed samples, so
    # the comparison isolates checking cost from trace materialisation.
    trace = CompiledSimulator(design).run(vectors).materialized()

    interp = AssertionChecker(design)
    interp_s = best_of(repeat, lambda: interp.check(trace))

    start = time.perf_counter()
    compiled = CompiledAssertionChecker(design)
    lower_ms = (time.perf_counter() - start) * 1e3
    require_tensor(family.name, compiled)
    compiled_s = best_of(repeat, lambda: compiled.check(trace))

    # Multi-trace batch leg: all seed traces through one check_batch pass
    # (what the verifier does per candidate) vs one check call per trace.
    # The batched pass stacks the per-seed columns into one (seed x cycle)
    # grid and resolves each attempt-tensor assertion for all seeds at once.
    batch = [
        CompiledSimulator(design).run(
            StimulusGenerator(design, seed=100 + index)
            .mixed_stimulus(random_cycles=BATCH_CYCLES)
            .vectors
        ).materialized()
        for index in range(BATCH_TRACES)
    ]
    sequential_s, batched_s = paired_best_of(
        repeat,
        lambda: [compiled.check(t) for t in batch],
        lambda: compiled.check_batch(batch),
        BATCH_MIN_SECONDS,
    )

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


#: The mutant legs mirror Stage 2: up to this many injected mutants per
#: design, one stimulus seed of this many cycles each.
MUTANT_BUGS = 6
MUTANT_CYCLES = 48


def bench_mutants(family, source: str, repeat: int) -> dict:
    """The mutant-batch and relower legs over the family's injected mutants.

    Every mutant is lowered against the augmented golden.  Relower: every
    mutant is lowered in full and against the golden's lowerings, each pass
    timed over all of them.  Mutant
    batch: the mutants whose checkers share the golden's lowerings (equal
    :meth:`~CompiledAssertionChecker.batch_key`) are timed, their traces
    judged by each mutant's own checker one at a time and by the first
    mutant's checker in one batch; hard-fails when either disagrees with
    the tree-walker on any assertion of any mutant.  A leg with too few
    mutants is None.
    """
    legs: dict = {"mutant_batch": None, "relower": None}
    golden = compile_source(source).design
    if golden is None or not golden.assertions:
        return legs
    base = CompiledAssertionChecker(golden)
    require_tensor(family.name, base)
    injector = BugInjector(InjectionConfig(seed=11, max_bugs_per_design=MUTANT_BUGS))
    mutants = []
    for index, bug in enumerate(injector.inject(f"bench_{family.name}", source, golden)):
        buggy = compile_source(bug.buggy_source).design
        if buggy is not None:
            mutants.append((index, buggy))

    designs = [design for _, design in mutants]
    if designs:
        base_design = compile_design(golden)
        full_s = best_of(
            repeat,
            lambda: [
                (compile_design(design), CompiledAssertionChecker(design))
                for design in designs
            ],
        )
        incremental_s = best_of(
            repeat,
            lambda: [
                (
                    compile_design(design, base=base_design),
                    CompiledAssertionChecker(design, base=base),
                )
                for design in designs
            ],
        )
        legs["relower"] = {
            "mutants": len(designs),
            "full_s": full_s,
            "incremental_s": incremental_s,
        }

    checkers, traces = [], []
    for index, buggy in mutants:
        checker = CompiledAssertionChecker(buggy, base=base)
        key = checker.batch_key()
        if key is None or (checkers and key != checkers[0].batch_key()):
            continue
        vectors = StimulusGenerator(buggy, seed=100 + index).mixed_stimulus(
            random_cycles=MUTANT_CYCLES
        ).vectors
        try:
            trace = CompiledSimulator(buggy).run(vectors).materialized()
        except SimulationError:
            continue
        checkers.append(checker)
        traces.append(trace)
    if len(traces) < 2:
        return legs
    shared = checkers[0]
    per_mutant_s = best_of(
        repeat, lambda: [checker.check(trace) for checker, trace in zip(checkers, traces)]
    )
    batched_s = best_of(repeat, lambda: shared.check_batch(traces))
    for checker, trace, via_batch in zip(checkers, traces, shared.check_batch(traces)):
        oracle = AssertionChecker(checker.design).check(trace)
        _assert_verdicts_identical(family.name, oracle, checker.check(trace), "mutant check")
        _assert_verdicts_identical(family.name, oracle, via_batch, "cross-mutant check_batch")
    legs["mutant_batch"] = {"mutants": len(traces), "speedup": round(per_mutant_s / batched_s, 3)}
    return legs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=768, help="trace cycles per family")
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing repeats")
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
        "--min-mutant-batch-speedup",
        type=float,
        default=None,
        help="exit non-zero if the geomean cross-mutant batch speedup falls below this",
    )
    parser.add_argument(
        "--min-relower-speedup",
        type=float,
        default=None,
        help="exit non-zero if full over incremental mutant lowering falls below this",
    )
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_sva.json")
    args = parser.parse_args()

    micro: dict[str, dict] = {}
    mutant_legs: list[dict] = []
    relower_legs: list[dict] = []
    for family in all_families():
        source = augmented_source(family)
        entry = bench_family(family, source, args.cycles, args.repeat) if source else None
        if entry is None:
            continue
        legs = bench_mutants(family, source, args.repeat)
        mutants, relower = legs["mutant_batch"], legs["relower"]
        notes = [f"batch {entry['batch_speedup']:.2f}x"]
        if mutants is not None:
            entry["mutant_batch_speedup"] = mutants["speedup"]
            mutant_legs.append(mutants)
            notes.append(f"mutants {mutants['speedup']:.2f}x")
        if relower is not None:
            entry["relower_speedup"] = round(relower["full_s"] / relower["incremental_s"], 3)
            relower_legs.append(relower)
            notes.append(f"relower {entry['relower_speedup']:.2f}x")
        micro[family.name] = entry
        print(
            f"{family.name:<26} {entry['assertions']:>2d} SVAs   "
            f"interp {entry['interp_checks_per_s']:>8.1f} checks/s   "
            f"compiled {entry['compiled_checks_per_s']:>8.1f} checks/s   "
            f"{entry['speedup']:>5.1f}x  ({', '.join(notes)})"
        )
    if not micro:
        print("FAIL: no family produced a checkable design")
        return 1
    if not mutant_legs:
        print("FAIL: no family produced two mutants sharing one lowering")
        return 1
    if not relower_legs:
        print("FAIL: no family produced a mutant to relower")
        return 1

    speedups = [entry["speedup"] for entry in micro.values()]
    batch_speedups = [entry["batch_speedup"] for entry in micro.values()]
    mutant_speedups = [leg["speedup"] for leg in mutant_legs]
    full_s = sum(leg["full_s"] for leg in relower_legs)
    incremental_s = sum(leg["incremental_s"] for leg in relower_legs)
    relower_speedup = full_s / incremental_s
    report = {
        "cycles_per_family": args.cycles,
        "timing_repeats": args.repeat,
        "microbenchmarks": micro,
        "geomean_speedup": round(geomean(speedups), 2),
        "min_speedup": round(min(speedups), 2),
        "batch": {
            "traces": BATCH_TRACES,
            "cycles": BATCH_CYCLES,
            "geomean_speedup": round(geomean(batch_speedups), 3),
            "min_speedup": round(min(batch_speedups), 3),
        },
        "mutant_batch": {
            "families": len(mutant_legs),
            "mutants": sum(leg["mutants"] for leg in mutant_legs),
            "cycles": MUTANT_CYCLES,
            "geomean_speedup": round(geomean(mutant_speedups), 3),
            "min_speedup": round(min(mutant_speedups), 3),
        },
        "relower": {
            "families": len(relower_legs),
            "mutants": sum(leg["mutants"] for leg in relower_legs),
            "full_s": round(full_s, 4),
            "incremental_s": round(incremental_s, 4),
            "speedup": round(relower_speedup, 2),
        },
    }
    print(
        f"\ngeomean checking speedup {report['geomean_speedup']}x "
        f"(min {report['min_speedup']}x); stacked seed-trace "
        f"pass {report['batch']['geomean_speedup']}x "
        f"(min {report['batch']['min_speedup']}x); cross-mutant batch "
        f"{report['mutant_batch']['geomean_speedup']}x "
        f"(min {report['mutant_batch']['min_speedup']}x); relowering "
        f"{report['relower']['speedup']}x over {report['relower']['mutants']} mutants"
    )
    write_report(args.output, "bench_sva/v7", report)
    gates = (
        ("--min-speedup", args.min_speedup, geomean(speedups), "geomean speedup"),
        ("--min-batch-speedup", args.min_batch_speedup, min(batch_speedups),
         "stacked-batch minimum"),
        ("--min-mutant-batch-speedup", args.min_mutant_batch_speedup,
         geomean(mutant_speedups), "cross-mutant batch geomean"),
        ("--min-relower-speedup", args.min_relower_speedup, relower_speedup,
         "relower speedup"),
    )
    failed = False
    for flag, floor, value, label in gates:
        if floor is not None and value < floor:
            print(f"FAIL: {label} {value:.3f}x is below the {flag} gate of {floor}x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

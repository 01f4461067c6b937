"""End-to-end evaluation benchmark harness.

Times every leg of the repair-verification loop -- corpus + augmentation
pipeline, policy training (pretrain -> SFT -> DPO with semantic challenging
mining), the SVA-Eval-Machine benchmark run cold and warm against the
verdict cache, and the mutant-heavy artifact-cache leg (full recompilation
vs content-addressed incremental relowering on cold verdict caches) -- and
records the resulting pass@k trajectory in ``BENCH_eval.json`` so
successive PRs can track both the speed and the quality of the evaluation
subsystem.

Usage::

    PYTHONPATH=src python benchmarks/bench_eval.py [--design-count N] [--output PATH]
        [--min-relower-speedup X] [--min-screen-speedup X]

``--min-relower-speedup`` gates the run (exit 1) when the measured
incremental-relowering speedup falls below ``X``; 0 (the default) only
reports.  ``--min-screen-speedup`` gates the static-screening leg the same
way.  The screening leg always hard-fails on any verdict divergence between
the screened and unscreened runs, gate or no gate.

Schema of the output (``bench_eval/v4``; v3 without the lint-screen
fields, v2 + the ``screening`` section)::

    {
      "schema": "bench_eval/v4",
      "config": {...},                       # scale knobs of this run
      "pipeline": {"wall_time_s", "sva_bug_entries", "eval_cases"},
      "training": {"wall_time_s", "stage", "challenging_cases"},
      "eval": {
        "cold": {"wall_time_s", "cache_hits", "cache_misses"},
        "warm": {"wall_time_s", "cache_hits", "cache_misses"},
        "warm_speedup": <float>,             # cold wall / warm wall
        "candidates_verified": <int>,
        "verdicts": {...},                   # status histogram
        "pass@k": {...}                      # the headline numbers
      },
      "artifacts": {                         # the mutant-heavy leg
        "mode_off": {"wall_time_s"},         # full recompile per candidate
        "mode_incremental_cold": {           # first run: fills the store
          "wall_time_s", "artifact_hits", "artifact_misses", "nodes_reused"
        },
        "mode_incremental_warm": {           # repeat run against the store
          "wall_time_s", "artifact_hits", "artifact_misses",
          "nodes_reused", "nodes_relowered", "assertions_reused"
        },
        "e2e_speedup": <float>,              # off wall / warm wall
        "relower": {                         # the lowering microbench
          "entries", "reps", "full_s", "incremental_s", "speedup"
        },
        "min_relower_speedup": <float>       # the CI gate this run ran under
      },
      "screening": {                         # the static-screening leg
        "cases", "candidates",               # mutant-heavy workload size
        "screened": {"wall_time_s", "cone_skips", "cone_overlaps"},
        "unscreened": {"wall_time_s"},
        "pct_cone_skipped",
        "e2e_speedup",                       # unscreened wall / screened wall
        "divergences": 0,                    # always 0 -- nonzero hard-fails
        "min_screen_speedup": <float>        # the CI gate this run ran under
      }
    }
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace  # noqa: E402

from repro.artifacts import ArtifactStore  # noqa: E402
from repro.bugs.mutators import enumerate_mutations  # noqa: E402
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig  # noqa: E402
from repro.eval.executor import VerificationJob, run_verification_jobs  # noqa: E402
from repro.eval.harness import EvalConfig, EvalHarness  # noqa: E402
from repro.eval.verifier import CandidateFix, derive_verification_seeds  # noqa: E402
from repro.hdl.lint import compile_source  # noqa: E402
from repro.hdl.source import SourceFile  # noqa: E402
from repro.model.assertsolver_model import AssertSolverModel  # noqa: E402
from repro.obs import host_metadata  # noqa: E402
from repro.obs.metrics import scoped_registry  # noqa: E402
from repro.sim.compile import CompileError, compile_design  # noqa: E402
from repro.sva.checker import CheckerBackend  # noqa: E402

#: Relower-microbench sizing: mutants measured and timing repetitions each.
RELOWER_ENTRIES = 10
RELOWER_REPS = 3

#: Screening-leg workload sizing: eval cases and mutant candidates per case.
SCREEN_CASES = 12
SCREEN_MUTANTS_PER_CASE = 8


def relower_microbench(entries) -> dict:
    """Time full vs incremental lowering over real eval-case mutants.

    For each case the buggy source is the base (compiled once, as the
    verifier does) and the golden-line repair is the mutant; the measured
    work is exactly what each candidate verification pays before its first
    simulated cycle: design lowering plus assertion lowering.
    """
    store = ArtifactStore()
    full_wall = 0.0
    incremental_wall = 0.0
    measured = 0
    for entry in entries[:RELOWER_ENTRIES]:
        base_design, error = store.elaborate_source(entry.buggy_source)
        if base_design is None:
            continue
        patched = SourceFile(entry.buggy_source).with_line_replaced(
            entry.line_number, entry.golden_line
        ).text
        mutant_design, error = store.elaborate_source(patched)
        if mutant_design is None:
            continue
        try:
            base_compiled = compile_design(base_design)
            base_checker = CheckerBackend(base_design)
        except CompileError:
            continue
        measured += 1
        for _ in range(RELOWER_REPS):
            started = time.perf_counter()
            compile_design(mutant_design)
            CheckerBackend(mutant_design)
            full_wall += time.perf_counter() - started
            started = time.perf_counter()
            compile_design(mutant_design, base=base_compiled)
            CheckerBackend(mutant_design, base=base_checker)
            incremental_wall += time.perf_counter() - started
    return {
        "entries": measured,
        "reps": RELOWER_REPS,
        "full_s": round(full_wall, 4),
        "incremental_s": round(incremental_wall, 4),
        "speedup": round(full_wall / max(incremental_wall, 1e-9), 2),
    }


def screening_workload(entries, seed: int) -> list[VerificationJob]:
    """Mutant-heavy verification jobs: one enumerated mutant per source line.

    Policy candidates cluster on the failing line (inside the assertion
    cone), which under-exercises the screen; enumerated single-line mutants
    spread edits across the whole design, mixing in-cone candidates (must
    simulate) with out-of-cone ones (provably skippable) -- the workload a
    verification-as-a-service deployment actually sees.
    """
    jobs: list[VerificationJob] = []
    for entry in entries[:SCREEN_CASES]:
        design = compile_source(entry.buggy_source).design
        if design is None:
            continue
        signals = sorted(design.signals)
        fixes: list[CandidateFix] = []
        for number, line in enumerate(entry.buggy_source.splitlines(), start=1):
            for candidate in enumerate_mutations(line, signals):
                fixes.append(
                    CandidateFix(line_number=number, fixed_line=candidate.buggy_line)
                )
                break  # one mutant per line spreads candidates across the design
        if not fixes:
            continue
        if len(fixes) > SCREEN_MUTANTS_PER_CASE:
            # Even stride over the whole file, not a prefix: early lines are
            # ports and declarations (almost always in-cone), and a prefix
            # sample would starve the skip path the leg exists to measure.
            stride = len(fixes) / SCREEN_MUTANTS_PER_CASE
            fixes = [fixes[int(i * stride)] for i in range(SCREEN_MUTANTS_PER_CASE)]
        jobs.append(
            VerificationJob(
                case_name=entry.name,
                buggy_source=entry.buggy_source,
                fixes=tuple(fixes),
                seeds=derive_verification_seeds(
                    entry.name, entry.stimulus_seed, count=2, base_seed=seed
                ),
                cycles=entry.stimulus_cycles,
            )
        )
    return jobs


def screening_leg(entries, seed: int, workers: int) -> tuple[dict, list[str]]:
    """Time screen=cone vs screen=off on the mutant-heavy workload.

    Returns ``(report_section, divergences)``; any divergence is a
    correctness failure the caller must hard-fail on: every screened
    verdict, simulated or ``cone_skip``, must be byte-identical (minus
    provenance) to the unscreened ground truth.

    The screened leg runs *first*, so the shared in-process artifact store
    is cold for it and warm for the unscreened leg -- any bias makes the
    reported speedup conservative.  Neither leg uses a verdict cache.
    """
    jobs = screening_workload(entries, seed)
    screened_jobs = [replace(job, static_screen="cone") for job in jobs]

    with scoped_registry() as registry:
        started = time.perf_counter()
        screened_shards = run_verification_jobs(screened_jobs, workers=workers)
        screened_wall = time.perf_counter() - started
    started = time.perf_counter()
    off_shards = run_verification_jobs(jobs, workers=workers)
    off_wall = time.perf_counter() - started

    divergences: list[str] = []
    candidates = 0
    cone_skips = 0
    for job, off_shard, screened_shard in zip(jobs, off_shards, screened_shards):
        for fix, truth, screened in zip(
            job.fixes, off_shard.verdicts, screened_shard.verdicts
        ):
            candidates += 1
            where = f"{job.case_name}:{fix.line_number}"
            truth_core = truth.to_dict()
            truth_core.pop("provenance")
            screened_core = screened.to_dict()
            provenance = screened_core.pop("provenance")
            if provenance == "cone_skip":
                cone_skips += 1
            if screened_core != truth_core:
                divergences.append(
                    f"{where}: {provenance} verdict differs from ground truth "
                    f"({screened.status} != {truth.status}, {fix.fixed_line!r})"
                )
    section = {
        "cases": len(jobs),
        "candidates": candidates,
        "screened": {
            "wall_time_s": round(screened_wall, 3),
            "cone_skips": cone_skips,
            "cone_overlaps": registry.counters.get("analyze.cone.overlap", 0),
        },
        "unscreened": {"wall_time_s": round(off_wall, 3)},
        "pct_cone_skipped": round(100.0 * cone_skips / max(candidates, 1), 1),
        "e2e_speedup": round(off_wall / max(screened_wall, 1e-9), 2),
        "divergences": len(divergences),
    }
    return section, divergences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design-count",
        type=int,
        default=0,
        help="corpus size; 0 (default) uses the small configuration",
    )
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--workers", type=int, default=1, help="verification workers")
    parser.add_argument("--ks", type=int, nargs="+", default=[1, 5])
    parser.add_argument(
        "--stage", choices=("sft", "dpo"), default="dpo", help="training depth to benchmark"
    )
    parser.add_argument(
        "--min-relower-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) when incremental relowering is not at least this "
        "many times faster than full recompilation (0: report only)",
    )
    parser.add_argument(
        "--min-screen-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) when the statically screened leg is not at least "
        "this many times faster than the unscreened one (0: report only; "
        "verdict divergence always fails regardless)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_eval.json",
    )
    args = parser.parse_args()

    if args.design_count > 0:
        pipeline_config = PipelineConfig.default(seed=args.seed, design_count=args.design_count)
        scale = f"default({args.design_count})"
    else:
        pipeline_config = PipelineConfig.small(seed=args.seed)
        scale = "small"

    started = time.perf_counter()
    datasets = DataAugmentationPipeline(pipeline_config).run()
    pipeline_wall = time.perf_counter() - started
    print(
        f"pipeline[{scale}]      {pipeline_wall:6.2f}s   "
        f"{datasets.statistics.sva_bug_entries} SVA-Bug entries, "
        f"{len(datasets.sva_eval_machine)} eval cases"
    )
    if not datasets.sva_eval_machine:
        print("FAIL: held-out split is empty; increase --design-count")
        return 1

    started = time.perf_counter()
    model = AssertSolverModel(seed=args.seed)
    model.pretrain(datasets.verilog_pt)
    model.supervised_finetune(datasets.sva_bug_train, datasets.verilog_bug)
    if args.stage == "dpo":
        model.learn_from_errors(datasets.sva_bug_train)
    training_wall = time.perf_counter() - started
    challenging = model.history.challenging_stats.get("challenging", 0)
    print(
        f"training[{args.stage}]        {training_wall:6.2f}s   "
        f"{challenging} challenging cases mined semantically"
    )

    eval_config = EvalConfig(seed=args.seed, ks=tuple(sorted(set(args.ks))), workers=args.workers)
    with tempfile.TemporaryDirectory(prefix="bench_eval_cache_") as cache_root:
        eval_config.cache_dir = Path(cache_root)
        started = time.perf_counter()
        cold = EvalHarness(eval_config).run(model, datasets.sva_eval_machine)
        cold_wall = time.perf_counter() - started
        started = time.perf_counter()
        warm = EvalHarness(eval_config).run(model, datasets.sva_eval_machine)
        warm_wall = time.perf_counter() - started

    if cold.summary() != warm.summary():
        print("FAIL: warm-cache summary differs from the cold run")
        return 1

    summary = cold.summary()
    rates = {key: value for key, value in summary.items() if key.startswith("pass@")}
    print(
        f"eval cold             {cold_wall:6.2f}s   "
        f"{summary['candidates_verified']} candidates, {cold.cache_misses} cache misses"
    )
    print(
        f"eval warm             {warm_wall:6.2f}s   "
        f"{warm.cache_hits} cache hits ({cold_wall / max(warm_wall, 1e-9):.1f}x faster)"
    )
    print("pass rates            " + "  ".join(f"{k}={v:.3f}" for k, v in rates.items()))

    # ---------------------------------------------------------------- #
    # the mutant-heavy artifact-cache leg
    # ---------------------------------------------------------------- #
    # No verdict cache on any of these runs -- the verdict tier would
    # short-circuit the verification work the artifact cache accelerates;
    # all three runs do the same simulations and differ only in how
    # compilation is served: "off" recompiles everything from scratch,
    # "cold" fills the artifact store, "warm" re-verifies against the
    # filled store (the verification-as-a-service steady state, where
    # almost all traffic is mutants of already-seen designs).  Summaries
    # must stay byte-identical, so the legs double as a live differential.
    off_config = EvalConfig(
        seed=args.seed, ks=tuple(sorted(set(args.ks))), workers=args.workers,
        artifact_mode="off",
    )
    started = time.perf_counter()
    mode_off = EvalHarness(off_config).run(model, datasets.sva_eval_machine)
    off_wall = time.perf_counter() - started
    with tempfile.TemporaryDirectory(prefix="bench_eval_artifacts_") as artifact_root:
        incremental_config = EvalConfig(
            seed=args.seed, ks=tuple(sorted(set(args.ks))), workers=args.workers,
            artifact_mode="incremental", artifact_dir=Path(artifact_root),
        )
        with scoped_registry() as cold_registry:
            started = time.perf_counter()
            mode_cold = EvalHarness(incremental_config).run(
                model, datasets.sva_eval_machine
            )
            inc_cold_wall = time.perf_counter() - started
        with scoped_registry() as registry:
            started = time.perf_counter()
            mode_warm = EvalHarness(incremental_config).run(
                model, datasets.sva_eval_machine
            )
            inc_warm_wall = time.perf_counter() - started
    if mode_off.summary() != mode_cold.summary() or mode_off.summary() != mode_warm.summary():
        print("FAIL: artifact-cache run summary differs from the full-recompile run")
        return 1
    if mode_off.summary() != summary:
        print("FAIL: mutant-heavy leg summary differs from the verdict-cache leg")
        return 1
    counters = registry.counters
    e2e_speedup = off_wall / max(inc_warm_wall, 1e-9)
    print(
        f"artifacts off         {off_wall:6.2f}s   full recompile per candidate"
    )
    print(
        f"artifacts cold        {inc_cold_wall:6.2f}s   "
        f"{cold_registry.counters.get('relower.nodes_reused', 0)} nodes reused "
        f"while filling the store"
    )
    print(
        f"artifacts warm        {inc_warm_wall:6.2f}s   "
        f"{counters.get('artifact.hits', 0)} hits, "
        f"{counters.get('relower.nodes_reused', 0)} nodes reused "
        f"({e2e_speedup:.1f}x faster than off)"
    )

    relower = relower_microbench(datasets.sva_eval_machine)
    print(
        f"relower microbench    full {relower['full_s']:.3f}s vs "
        f"incremental {relower['incremental_s']:.3f}s over "
        f"{relower['entries']} mutants x{relower['reps']} "
        f"({relower['speedup']:.1f}x)"
    )
    if args.min_relower_speedup > 0 and relower["speedup"] < args.min_relower_speedup:
        print(
            f"FAIL: relower speedup {relower['speedup']:.2f}x is below the "
            f"--min-relower-speedup gate {args.min_relower_speedup:.2f}x"
        )
        return 1

    # ---------------------------------------------------------------- #
    # the static-screening leg
    # ---------------------------------------------------------------- #
    screening, divergences = screening_leg(
        datasets.sva_eval_machine, seed=args.seed, workers=args.workers
    )
    screening["min_screen_speedup"] = args.min_screen_speedup
    print(
        f"screen cone           {screening['screened']['wall_time_s']:6.2f}s   "
        f"{screening['screened']['cone_skips']} cone skips "
        f"({screening['pct_cone_skipped']:.0f}%) over "
        f"{screening['candidates']} candidates"
    )
    print(
        f"screen off            {screening['unscreened']['wall_time_s']:6.2f}s   "
        f"({screening['e2e_speedup']:.1f}x screened-leg speedup)"
    )
    if divergences:
        print(f"FAIL: {len(divergences)} screened verdicts diverge from ground truth")
        for message in divergences[:10]:
            print(f"  {message}")
        return 1
    if args.min_screen_speedup > 0 and screening["e2e_speedup"] < args.min_screen_speedup:
        print(
            f"FAIL: screening speedup {screening['e2e_speedup']:.2f}x is below "
            f"the --min-screen-speedup gate {args.min_screen_speedup:.2f}x"
        )
        return 1

    report = {
        "schema": "bench_eval/v4",
        "host": host_metadata(workers=args.workers),
        "config": {
            "scale": scale,
            "seed": args.seed,
            "workers": args.workers,
            "ks": sorted(set(args.ks)),
            "stage": args.stage,
        },
        "pipeline": {
            "wall_time_s": round(pipeline_wall, 3),
            "sva_bug_entries": datasets.statistics.sva_bug_entries,
            "eval_cases": len(datasets.sva_eval_machine),
        },
        "training": {
            "wall_time_s": round(training_wall, 3),
            "stage": model.stage.value,
            "challenging_cases": challenging,
        },
        "eval": {
            "cold": {
                "wall_time_s": round(cold_wall, 3),
                "cache_hits": cold.cache_hits,
                "cache_misses": cold.cache_misses,
            },
            "warm": {
                "wall_time_s": round(warm_wall, 3),
                "cache_hits": warm.cache_hits,
                "cache_misses": warm.cache_misses,
            },
            "warm_speedup": round(cold_wall / max(warm_wall, 1e-9), 2),
            "candidates_verified": summary["candidates_verified"],
            "verdicts": summary["verdicts"],
            "pass@k": rates,
        },
        "artifacts": {
            "mode_off": {"wall_time_s": round(off_wall, 3)},
            "mode_incremental_cold": {
                "wall_time_s": round(inc_cold_wall, 3),
                "artifact_hits": cold_registry.counters.get("artifact.hits", 0),
                "artifact_misses": cold_registry.counters.get("artifact.misses", 0),
                "nodes_reused": cold_registry.counters.get("relower.nodes_reused", 0),
            },
            "mode_incremental_warm": {
                "wall_time_s": round(inc_warm_wall, 3),
                "artifact_hits": counters.get("artifact.hits", 0),
                "artifact_misses": counters.get("artifact.misses", 0),
                "nodes_reused": counters.get("relower.nodes_reused", 0),
                "nodes_relowered": counters.get("relower.nodes_lowered", 0),
                "assertions_reused": counters.get("relower.assertions_reused", 0),
            },
            "e2e_speedup": round(e2e_speedup, 2),
            "relower": relower,
            "min_relower_speedup": args.min_relower_speedup,
        },
        "screening": screening,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

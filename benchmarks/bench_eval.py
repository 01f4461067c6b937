"""End-to-end evaluation benchmark harness.

Times every leg of the repair-verification loop -- corpus + augmentation
pipeline, policy training (pretrain -> SFT -> DPO with semantic challenging
mining), the SVA-Eval-Machine benchmark run cold and warm against the
verdict cache, and the artifact-cache leg (the same run against a cold and
then a warm compiled-artifact store, no verdict cache) -- and records the
resulting pass@k trajectory in ``BENCH_eval.json`` so successive PRs can
track both the speed and the quality of the evaluation subsystem.

Usage::

    PYTHONPATH=src python benchmarks/bench_eval.py [--design-count N] [--output PATH]
        [--min-relower-speedup X]

``--min-relower-speedup`` gates the run (exit 1) when the measured
incremental-relowering speedup falls below ``X``; 0 (the default) only
reports.  The run always hard-fails when the warm or artifact-cache legs'
summaries diverge from the cold verdict-cache run's.  Every timed leg starts
after a full garbage collection, so a collection triggered by an earlier
leg's garbage is not billed to the next one.

Schema of the output (``bench_eval/v6``; v5 had a ``screening`` section for
the deleted static cone screen; v4 had a ``mode_off`` full-recompile leg; v3
without the lint-screen fields, v2 + the ``screening`` section)::

    {
      "schema": "bench_eval/v6",
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
      "artifacts": {                         # the artifact-cache leg
        "store_cold": {                      # first run: fills the store
          "wall_time_s", "artifact_hits", "artifact_misses", "nodes_reused"
        },
        "store_warm": {                      # repeat run against the store
          "wall_time_s", "artifact_hits", "artifact_misses",
          "nodes_reused", "nodes_relowered", "assertions_reused"
        },
        "relower": {                         # the lowering microbench
          "entries", "reps", "full_s", "incremental_s", "speedup"
        },
        "min_relower_speedup": <float>       # the CI gate this run ran under
      }
    }
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.artifacts.store as store_module  # noqa: E402
from repro.artifacts import ArtifactStore  # noqa: E402
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig  # noqa: E402
from repro.eval.harness import EvalConfig, EvalHarness  # noqa: E402
from repro.hdl.source import SourceFile  # noqa: E402
from repro.model.assertsolver_model import AssertSolverModel  # noqa: E402
from repro.obs import host_metadata  # noqa: E402
from repro.obs.metrics import scoped_registry  # noqa: E402
from repro.runtime import JobPolicy  # noqa: E402
from repro.sim.compile import CompileError, compile_design  # noqa: E402
from repro.sva.compile import CompiledAssertionChecker  # noqa: E402

#: Relower-microbench sizing: mutants measured and timing repetitions each.
RELOWER_ENTRIES = 10
RELOWER_REPS = 3


def relower_microbench(entries) -> dict:
    """Time full vs incremental lowering over real eval-case mutants.

    For each case the buggy source is the base (compiled once, as the
    verifier does) and the golden-line repair is the mutant; the measured
    work is exactly what each candidate verification pays before its first
    simulated cycle: design lowering plus assertion lowering.
    """
    store = ArtifactStore()
    gc.collect()
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
            base_checker = CompiledAssertionChecker(base_design)
        except CompileError:
            continue
        measured += 1
        for _ in range(RELOWER_REPS):
            started = time.perf_counter()
            compile_design(mutant_design)
            CompiledAssertionChecker(mutant_design)
            full_wall += time.perf_counter() - started
            started = time.perf_counter()
            compile_design(mutant_design, base=base_compiled)
            CompiledAssertionChecker(mutant_design, base=base_checker)
            incremental_wall += time.perf_counter() - started
    return {
        "entries": measured,
        "reps": RELOWER_REPS,
        "full_s": round(full_wall, 4),
        "incremental_s": round(incremental_wall, 4),
        "speedup": round(full_wall / max(incremental_wall, 1e-9), 2),
    }


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

    gc.collect()
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

    gc.collect()
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

    policy = JobPolicy(workers=args.workers)
    eval_config = EvalConfig(seed=args.seed, ks=tuple(sorted(set(args.ks))), job_policy=policy)
    with tempfile.TemporaryDirectory(prefix="bench_eval_cache_") as cache_root:
        eval_config.cache_dir = Path(cache_root)
        gc.collect()
        started = time.perf_counter()
        cold = EvalHarness(eval_config).run(model, datasets.sva_eval_machine)
        cold_wall = time.perf_counter() - started
        gc.collect()
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
    # the artifact-cache leg
    # ---------------------------------------------------------------- #
    # No verdict cache on either run -- the verdict tier would
    # short-circuit the verification work the artifact cache accelerates.
    # "cold" starts from an empty process store (each case's buggy base
    # lowered once, every candidate relowered against it), "warm"
    # re-verifies against the store the cold run filled (the
    # verification-as-a-service steady state, where almost all traffic is
    # mutants of already-seen designs).  With --workers above 1 each run
    # forks fresh workers from this process, whose store neither run
    # fills, so both runs start cold.  Summaries must equal the
    # verdict-cache leg's, so the runs double as a live differential.
    store_config = EvalConfig(seed=args.seed, ks=tuple(sorted(set(args.ks))), job_policy=policy)
    store_module._DEFAULT_STORE = None  # drop what the earlier legs cached
    with scoped_registry() as cold_registry:
        gc.collect()
        started = time.perf_counter()
        store_cold = EvalHarness(store_config).run(model, datasets.sva_eval_machine)
        store_cold_wall = time.perf_counter() - started
    with scoped_registry() as registry:
        gc.collect()
        started = time.perf_counter()
        store_warm = EvalHarness(store_config).run(model, datasets.sva_eval_machine)
        store_warm_wall = time.perf_counter() - started
    if store_cold.summary() != summary or store_warm.summary() != summary:
        print("FAIL: artifact-cache leg summary differs from the verdict-cache leg")
        return 1
    counters = registry.counters
    print(
        f"artifacts cold        {store_cold_wall:6.2f}s   "
        f"{cold_registry.counters.get('relower.nodes_reused', 0)} nodes reused "
        f"while filling the store"
    )
    print(
        f"artifacts warm        {store_warm_wall:6.2f}s   "
        f"{counters.get('artifact.hits', 0)} hits, "
        f"{counters.get('relower.nodes_reused', 0)} nodes reused"
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

    report = {
        "schema": "bench_eval/v6",
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
            "store_cold": {
                "wall_time_s": round(store_cold_wall, 3),
                "artifact_hits": cold_registry.counters.get("artifact.hits", 0),
                "artifact_misses": cold_registry.counters.get("artifact.misses", 0),
                "nodes_reused": cold_registry.counters.get("relower.nodes_reused", 0),
            },
            "store_warm": {
                "wall_time_s": round(store_warm_wall, 3),
                "artifact_hits": counters.get("artifact.hits", 0),
                "artifact_misses": counters.get("artifact.misses", 0),
                "nodes_reused": counters.get("relower.nodes_reused", 0),
                "nodes_relowered": counters.get("relower.nodes_lowered", 0),
                "assertions_reused": counters.get("relower.assertions_reused", 0),
            },
            "relower": relower,
            "min_relower_speedup": args.min_relower_speedup,
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

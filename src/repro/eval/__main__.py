"""``python -m repro.eval``: the end-to-end repair-verification benchmark.

Runs the complete loop on one command line:

1. generate the corpus and run the three augmentation stages
   (``PipelineConfig.small()`` by default, ``--design-count N`` for the
   benchmark-scale configuration),
2. train an AssertSolver policy up to ``--stage`` (pretrain + SFT by
   default, ``--stage dpo`` for the full recipe, ``--stage base`` for the
   untuned baseline),
3. evaluate it on the held-out ``sva_eval_machine`` split with semantic
   verification on fresh stimulus seeds,
4. write ``eval_summary.json``, ``eval_cases.jsonl`` and
   ``eval_split.jsonl`` into ``--output-dir``.

The report is identical for any ``--workers`` value and for cold or warm
``--cache-dir`` state.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.eval.cache import VerdictCache
from repro.eval.harness import EvalConfig, EvalHarness
from repro.eval.reports import write_reports
from repro.eval.verifier import SemanticVerifier
from repro.model.assertsolver_model import AssertSolverModel
from repro.obs import traced_run
from repro.runtime import default_workers


def _positive_int(text: str) -> int:
    # No seeds would make every compiling candidate pass vacuously, and
    # pass@0 would always report 0.
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=2025, help="pipeline + evaluation seed")
    parser.add_argument(
        "--design-count",
        type=int,
        default=0,
        help="corpus size; 0 (default) uses the small test-sized configuration",
    )
    parser.add_argument(
        "--stage",
        choices=("base", "sft", "dpo"),
        default="sft",
        help="how far to train the policy before evaluating",
    )
    parser.add_argument(
        "--ks", type=_positive_int, nargs="+", default=[1, 5], help="report pass@k for these k"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help=(
            "worker processes for the pipeline stages and verification "
            "(default: detected cores, capped; override with REPRO_WORKERS)"
        ),
    )
    parser.add_argument(
        "--verification-seeds",
        type=_positive_int,
        default=2,
        help="independent stimulus seeds per candidate (at least 1)",
    )
    parser.add_argument(
        "--output-dir", type=Path, default=Path("eval_out"), help="where the reports are written"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="verdict cache directory (re-runs become incremental); omit to disable",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help=(
            "write a JSONL trace of the whole run (pipeline + eval) here; "
            "REPRO_TRACE=<path> is the env fallback.  Inspect it with "
            "'python -m repro.obs summarize <path>'"
        ),
    )
    return parser


def train_model(stage: str, datasets, seed: int, cache_dir=None) -> AssertSolverModel:
    """Train the policy up to the requested stage.

    With ``cache_dir``, the DPO stage's challenging-case mining shares the
    evaluation verdict cache, so repeat runs skip re-simulating responses.
    """
    model = AssertSolverModel(seed=seed)
    if stage == "base":
        return model
    model.pretrain(datasets.verilog_pt)
    model.supervised_finetune(datasets.sva_bug_train, datasets.verilog_bug)
    if stage == "dpo":
        verifier = None
        if cache_dir is not None:
            verifier = SemanticVerifier(cache=VerdictCache(cache_dir))
        model.learn_from_errors(datasets.sva_bug_train, verifier=verifier)
    return model


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # One ambient tracer and metrics registry span the whole run (pipeline,
    # training, eval); the pipeline and the harness join it, so the run
    # writes a single trace file.
    with traced_run(args.trace, "eval_cli") as trace_path:
        code = _run(args)
    if trace_path:
        print(f"wrote trace: {trace_path}", file=sys.stderr)
    return code


def _run(args) -> int:
    if args.design_count > 0:
        pipeline_config = PipelineConfig.default(
            seed=args.seed, design_count=args.design_count, workers=args.workers
        )
    else:
        pipeline_config = PipelineConfig.small(seed=args.seed, workers=args.workers)

    started = time.perf_counter()
    datasets = DataAugmentationPipeline(pipeline_config).run()
    print(
        f"pipeline: {datasets.statistics.sva_bug_entries} SVA-Bug entries, "
        f"{len(datasets.sva_eval_machine)} held out for SVA-Eval-Machine "
        f"({time.perf_counter() - started:.1f}s)"
    )
    if not datasets.sva_eval_machine:
        print("error: the held-out split is empty; increase --design-count", file=sys.stderr)
        return 1

    started = time.perf_counter()
    model = train_model(args.stage, datasets, seed=args.seed, cache_dir=args.cache_dir)
    print(f"model: trained to stage '{model.stage.value}' ({time.perf_counter() - started:.1f}s)")

    config = EvalConfig(
        seed=args.seed,
        ks=tuple(sorted(set(args.ks))),
        verification_seeds=args.verification_seeds,
        job_policy=pipeline_config.job_policy,
        cache_dir=args.cache_dir,
    )
    started = time.perf_counter()
    report = EvalHarness(config).run(model, datasets.sva_eval_machine)
    elapsed = time.perf_counter() - started

    paths = write_reports(report, args.output_dir, split=datasets.sva_eval_machine)
    summary = report.summary()
    rates = "  ".join(
        f"{key}={summary[key]:.3f}" for key in sorted(summary) if key.startswith("pass@")
    )
    print(
        f"eval: {summary['cases']} cases, {summary['candidates_verified']} candidates verified "
        f"({elapsed:.1f}s, cache {report.cache_hits} hits / {report.cache_misses} misses"
        f" / {report.cache_corrupt} corrupt)"
    )
    print(f"      {rates}")
    print(f"      verdicts: {json.dumps(summary['verdicts'])}")
    for label, path in paths.items():
        print(f"wrote {label}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

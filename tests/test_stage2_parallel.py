"""Stage-2 fan-out tests: worker count must never change the output."""

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.dataaug.stage1 import run_stage1
from repro.dataaug.stage2 import Stage2Config, Stage2Runner
from repro.runtime import JobPolicy


def fingerprint(result):
    return (
        [
            (e.name, e.buggy_line, e.golden_line, e.logs, tuple(e.failing_assertions))
            for e in result.sva_bug
        ],
        [(e.name, e.buggy_line, e.golden_line) for e in result.verilog_bug],
        result.candidate_svas,
        result.validated_svas,
        result.injected_bugs,
        result.rejected_not_compiling,
        result.designs_without_valid_svas,
    )


def compiled_samples(seed: int = 42, count: int = 6):
    corpus = CorpusGenerator(
        CorpusConfig(seed=seed, design_count=count, corrupted_fraction=0.2)
    ).generate()
    return run_stage1(corpus).compiled


def test_parallel_equals_serial():
    samples = compiled_samples()
    config = Stage2Config(seed=5, random_cycles=20, max_bugs_per_design=3)
    serial = Stage2Runner(config, JobPolicy(workers=1)).run(samples)
    parallel = Stage2Runner(config, JobPolicy(workers=2)).run(samples)
    assert fingerprint(serial) == fingerprint(parallel)
    assert serial.injected_bugs > 0


def test_result_independent_of_sample_order():
    """Per-sample injector seeding decouples mutants from batch ordering."""
    samples = compiled_samples()
    config = Stage2Config(seed=5, random_cycles=20, max_bugs_per_design=3)
    forward = Stage2Runner(config).run(samples)
    backward = Stage2Runner(config).run(list(reversed(samples)))
    assert sorted(e.name for e in forward.sva_bug) == sorted(e.name for e in backward.sva_bug)
    assert sorted(e.name for e in forward.verilog_bug) == sorted(
        e.name for e in backward.verilog_bug
    )


def test_small_pipeline_end_to_end():
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=7)).run()
    stats = datasets.statistics
    assert stats.corpus_samples > 0
    assert stats.validated_svas > 0
    assert stats.sva_bug_entries == len(datasets.sva_bug_train) + len(
        datasets.sva_eval_machine
    )
    # The split shares no design between train and eval.
    train_designs = {e.design_name for e in datasets.sva_bug_train}
    eval_designs = {e.design_name for e in datasets.sva_eval_machine}
    assert not (train_designs & eval_designs)

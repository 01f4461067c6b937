"""End-to-end pipeline determinism: worker count, job order and cache state
may change wall time, never a byte of the datasets."""

import json

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.dataaug.stage1 import run_stage1
from repro.dataaug.stage2 import Stage2Config
from repro.dataaug.stage3 import CotGenerator, Stage3Config
from repro.runtime import JobPolicy


def dataset_bytes(datasets) -> str:
    """Canonical byte-level snapshot of all four splits + statistics."""
    return json.dumps(
        {
            "verilog_pt": [vars(entry) for entry in datasets.verilog_pt],
            "verilog_bug": [entry.to_dict() for entry in datasets.verilog_bug],
            "sva_bug_train": [entry.to_dict() for entry in datasets.sva_bug_train],
            "sva_eval_machine": [entry.to_dict() for entry in datasets.sva_eval_machine],
            "statistics": vars(datasets.statistics),
        },
        sort_keys=True,
    )


def test_pipeline_is_worker_count_invariant():
    """The tentpole contract: workers=1 and workers=4 produce byte-identical
    datasets across all four splits."""
    serial = DataAugmentationPipeline(PipelineConfig.small(seed=31, workers=1)).run()
    fanned = DataAugmentationPipeline(PipelineConfig.small(seed=31, workers=4)).run()
    assert dataset_bytes(serial) == dataset_bytes(fanned)
    assert serial.sva_bug_train and serial.sva_eval_machine  # non-trivial run


def test_pipeline_is_cache_state_invariant(tmp_path):
    """Cold vs warm Stage-2 result cache: identical bytes, and the warm run
    is served from disk (and may even change worker count)."""
    cache_dir = str(tmp_path / "stage2")
    cold = DataAugmentationPipeline(
        PipelineConfig.small(seed=31, workers=1, cache_dir=cache_dir)
    ).run()
    warm = DataAugmentationPipeline(
        PipelineConfig.small(seed=31, workers=4, cache_dir=cache_dir)
    ).run()
    uncached = DataAugmentationPipeline(PipelineConfig.small(seed=31, workers=2)).run()
    assert dataset_bytes(cold) == dataset_bytes(warm)
    assert dataset_bytes(cold) == dataset_bytes(uncached)
    assert list((tmp_path / "stage2").glob("*/*/*.json"))  # the cache was filled


def test_stage2_result_key_covers_the_fault_budget_not_the_pool():
    """The Stage-2 cache key is pinned byte for byte: the policy's timeout
    and retry budget are in it (a cached-through failure depends on them),
    its worker count and failure mode are not."""
    config = Stage2Config()
    assert config.content_fingerprint(JobPolicy()) == "11|48|5|6|7|6|3|None|1"
    budget = JobPolicy(timeout=2.5, max_attempts=3)
    assert config.content_fingerprint(budget) == "11|48|5|6|7|6|3|2.5|3"
    pooled = JobPolicy(workers=4, on_error="quarantine", timeout=2.5, max_attempts=3)
    assert config.content_fingerprint(pooled) == config.content_fingerprint(budget)


def test_pipeline_records_stage_timings():
    pipeline = DataAugmentationPipeline(PipelineConfig.small(seed=31))
    pipeline.run()
    assert set(pipeline.stage_timings) == {"corpus", "stage1", "stage2", "split", "stage3"}
    assert all(value >= 0.0 for value in pipeline.stage_timings.values())


def test_corpus_generator_is_worker_count_invariant():
    config = CorpusConfig(seed=5, design_count=12)
    serial = CorpusGenerator(config, JobPolicy(workers=1)).generate()
    fanned = CorpusGenerator(config, JobPolicy(workers=3)).generate()
    assert [(s.name, s.source, s.spec) for s in serial.samples] == [
        (s.name, s.source, s.spec) for s in fanned.samples
    ]
    assert [(s.name, c.source, c.explanation) for s, c in serial.corrupted] == [
        (s.name, c.source, c.explanation) for s, c in fanned.corrupted
    ]


def test_stage1_is_worker_count_invariant():
    corpus = CorpusGenerator(
        CorpusConfig(seed=5, design_count=12, corrupted_fraction=0.4)
    ).generate()
    serial = run_stage1(corpus, JobPolicy(workers=1))
    fanned = run_stage1(corpus, JobPolicy(workers=3))
    assert [s.name for s in serial.compiled] == [s.name for s in fanned.compiled]
    assert [vars(e) for e in serial.verilog_pt] == [vars(e) for e in fanned.verilog_pt]
    assert (serial.filtered_out, serial.compile_failures) == (
        fanned.filtered_out, fanned.compile_failures
    )
    assert serial.compiled and serial.verilog_pt  # both paths exercised


@pytest.fixture()
def stage3_entries():
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=31)).run()
    entries = datasets.sva_bug_train
    assert entries
    return entries


def test_stage3_is_worker_count_invariant(stage3_entries):
    def annotate(workers):
        entries = [entry.from_dict(entry.to_dict()) for entry in stage3_entries]
        CotGenerator(
            Stage3Config(seed=3, drift_probability=0.5), JobPolicy(workers=workers)
        ).annotate(entries)
        return [(entry.name, entry.cot, entry.cot_valid) for entry in entries]

    assert annotate(1) == annotate(4)


def test_stage3_drift_is_entry_order_invariant(stage3_entries):
    """The drift RNG is derived per entry, so reordering the batch must not
    change any entry's CoT."""
    generator = CotGenerator(Stage3Config(seed=3, drift_probability=0.5))

    def annotate(entries):
        entries = [entry.from_dict(entry.to_dict()) for entry in entries]
        generator.annotate(entries)
        return {entry.name: (entry.cot, entry.cot_valid) for entry in entries}

    assert annotate(stage3_entries) == annotate(list(reversed(stage3_entries)))

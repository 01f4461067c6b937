"""The end-to-end data-augmentation pipeline (Fig. 2 - I).

Generates the corpus, runs Stages 1-3, performs the paper's 90/10
length-binned module-name split, and returns the finished datasets:

* ``verilog_pt``       -- pretraining text (code that failed to compile + analysis),
* ``verilog_bug``      -- compiling bugs that trigger no assertion (auxiliary SFT data),
* ``sva_bug_train``    -- assertion-failure repair training data (with CoTs),
* ``sva_eval_machine`` -- the held-out 10 % that seeds SVA-Eval-Machine.

Every stage fans out through :mod:`repro.runtime` under the one
``PipelineConfig.job_policy`` (workers, failure mode, timeout, retry
budget); the stage configs say only what to compute.  The datasets are
byte-identical for any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.bugs.injector import InjectionConfig
from repro.corpus.generator import Corpus, CorpusConfig, CorpusGenerator
from repro.corpus.metadata import LENGTH_BINS, length_bin
from repro.dataaug.datasets import AugmentedDatasets, DatasetStatistics, SvaBugEntry
from repro.dataaug.stage1 import run_stage1
from repro.dataaug.stage2 import Stage2Config, Stage2Runner
from repro.dataaug.stage3 import Stage3Config, run_stage3
from repro.obs import phase, traced_run
from repro.runtime import JobPolicy


@dataclass
class PipelineConfig:
    """Scale and seeding for one pipeline run."""

    seed: int = 2025
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    stage3: Stage3Config = field(default_factory=Stage3Config)
    train_fraction: float = 0.9
    #: How every stage's jobs run (corpus builds, Stage-1 compile checks,
    #: the Stage-2 fan-out, Stage-3 CoT jobs): pool size, failure mode
    #: ("quarantine" skips failed jobs and reports them in
    #: ``statistics.skipped_jobs``), timeout and retry budget.  The output
    #: is byte-identical for any worker count.
    job_policy: JobPolicy = JobPolicy()

    @classmethod
    def small(cls, seed: int = 2025, workers: int = 1) -> "PipelineConfig":
        """A configuration sized for fast tests (a handful of designs)."""
        return cls(
            seed=seed,
            corpus=CorpusConfig(seed=seed, design_count=10, corrupted_fraction=0.3),
            stage2=Stage2Config(
                seed=seed + 1,
                random_cycles=32,
                injection=InjectionConfig(max_bugs_per_design=3),
            ),
            stage3=Stage3Config(seed=seed + 2),
            job_policy=JobPolicy(workers=workers),
        )

    @classmethod
    def default(
        cls, seed: int = 2025, design_count: int = 150, workers: int = 1
    ) -> "PipelineConfig":
        """The benchmark-scale configuration.

        ``workers`` sizes every stage's fan-out (Stage 2 dominates at this
        scale); the output is identical for any worker count.
        """
        return cls(
            seed=seed,
            corpus=CorpusConfig(seed=seed, design_count=design_count),
            stage2=Stage2Config(seed=seed + 1),
            stage3=Stage3Config(seed=seed + 2),
            job_policy=JobPolicy(workers=workers),
        )


class DataAugmentationPipeline:
    """Runs corpus generation and the three augmentation stages.

    Each stage runs under a ``pipeline.<stage>`` phase span (``corpus`` /
    ``stage1`` / ``stage2`` / ``split`` / ``stage3``), so a traced run
    carries the per-stage wall clock; the datasets never do.
    """

    def __init__(self, config: Optional[PipelineConfig] = None):
        self._config = config or PipelineConfig()

    def run(self, corpus: Optional[Corpus] = None) -> AugmentedDatasets:
        """Execute the full pipeline and return the datasets.

        Traced under a ``pipeline`` root span (see
        :func:`repro.obs.traced_run`): an enabled ambient tracer is joined,
        else ``REPRO_TRACE`` makes the run own one.  Telemetry only: the
        datasets are byte-identical with tracing on or off.
        """
        with traced_run(None, "pipeline", seed=self._config.seed):
            return self._run(corpus)

    def _run(self, corpus: Optional[Corpus]) -> AugmentedDatasets:
        config = self._config
        policy = config.job_policy
        statistics = DatasetStatistics()

        if corpus is None:
            with phase("pipeline.corpus"):
                corpus = CorpusGenerator(config.corpus, policy).generate()
        statistics.corpus_samples = len(corpus.samples) + len(corpus.corrupted)
        statistics.skipped_jobs.extend(corpus.skipped)

        with phase("pipeline.stage1"):
            stage1 = run_stage1(corpus, policy)
        statistics.filtered_out = stage1.filtered_out
        statistics.compile_failures = stage1.compile_failures
        statistics.verilog_pt_entries = len(stage1.verilog_pt)
        statistics.skipped_jobs.extend(stage1.skipped)

        with phase("pipeline.stage2"):
            stage2 = Stage2Runner(config.stage2, policy).run(stage1.compiled)
        statistics.candidate_svas = stage2.candidate_svas
        statistics.validated_svas = stage2.validated_svas
        statistics.injected_bugs = stage2.injected_bugs
        statistics.bugs_rejected_not_compiling = stage2.rejected_not_compiling
        statistics.sva_bug_entries = len(stage2.sva_bug)
        statistics.verilog_bug_entries = len(stage2.verilog_bug)
        statistics.skipped_jobs.extend(stage2.skipped)

        with phase("pipeline.split"):
            train_entries, eval_entries = split_by_module_name(
                stage2.sva_bug, train_fraction=config.train_fraction, seed=config.seed
            )

        with phase("pipeline.stage3"):
            generated, valid, stage3_skipped = run_stage3(train_entries, config.stage3, policy)
        statistics.cot_generated = generated
        statistics.cot_valid = valid
        statistics.skipped_jobs.extend(stage3_skipped)

        return AugmentedDatasets(
            verilog_pt=stage1.verilog_pt,
            verilog_bug=stage2.verilog_bug,
            sva_bug_train=train_entries,
            sva_eval_machine=eval_entries,
            statistics=statistics,
        )


def split_by_module_name(
    entries: list[SvaBugEntry], train_fraction: float = 0.9, seed: int = 2025
) -> tuple[list[SvaBugEntry], list[SvaBugEntry]]:
    """The paper's train/test split.

    1. bin the buggy code by length into the Table-II intervals,
    2. enumerate the unique module (design) names within each bin,
    3. uniformly select ``train_fraction`` of the names per bin for training;
       every entry of a selected module goes to the same side, guaranteeing
       the two sets share no design.
    """
    rng = random.Random(seed)
    names_by_bin: dict[str, list[str]] = {bin_label: [] for bin_label in LENGTH_BINS}
    bin_of_name: dict[str, str] = {}
    for entry in entries:
        if entry.design_name not in bin_of_name:
            bin_label = length_bin(entry.code_lines)
            bin_of_name[entry.design_name] = bin_label
            names_by_bin.setdefault(bin_label, []).append(entry.design_name)

    train_names: set[str] = set()
    for bin_label, names in names_by_bin.items():
        if not names:
            continue
        names = sorted(names)
        rng.shuffle(names)
        cut = max(1, round(len(names) * train_fraction))
        if len(names) >= 2:
            # Guarantee every populated length bin contributes at least one
            # held-out design, so the evaluation breakdowns cover all bins.
            cut = min(cut, len(names) - 1)
        train_names.update(names[:cut])

    train = [entry for entry in entries if entry.design_name in train_names]
    test = [entry for entry in entries if entry.design_name not in train_names]
    return train, test

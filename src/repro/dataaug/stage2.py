"""Stage 2: key-component generation and validation.

For every sample that survived Stage 1:

1. candidate SVAs are collected from the design family's template assertions
   and from the assertion miner (the reproduction of Claude-3.5's SVA
   generation), mined from a golden-design trace,
2. the candidates are inserted into the golden source, compiled and checked
   on an independent simulation trace; candidates that fail (or do not
   compile) are discarded -- the first half of the paper's two-step
   validation,
3. single-line bugs are injected with the mutation engine; mutants that do
   not compile are discarded -- the second half of the validation,
4. every surviving mutant is simulated against the validated SVAs, all of a
   sample's mutants in one kernel call whose traces are checked in one
   stacked pass.  Mutants that trigger at least one assertion failure become
   SVA-Bug entries (with the captured failure log); mutants that keep all
   assertions happy become Verilog-Bug entries.

Every source is elaborated through the process-wide
:class:`~repro.artifacts.ArtifactStore`, so the mutant the injector compiled
in step 3 is an LRU hit in step 4, not a second parse.  Steps 2 and 4 run the
simulate-and-check kernel the repair verifier uses
(:func:`repro.sva.kernel.simulate_and_check`) and name each source's base by
its text: the augmented source relowers against the golden source, and each
mutant against the augmented golden source.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.artifacts import default_store
from repro.bugs.injector import BugInjector, InjectionConfig
from repro.bugs.instance import BugInstance
from repro.bugs.taxonomy import classify_direct
from repro.corpus.generator import CorpusSample
from repro.dataaug.datasets import SvaBugEntry, VerilogBugEntry
from repro.hdl.elaborate import ElaboratedDesign
from repro.runtime import (
    JobPolicy,
    ResultCache,
    content_key,
    derive_seed,
    run_stage_jobs,
)
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stimulus import StimulusGenerator
from repro.sva.generator import (
    MinedAssertion,
    insert_assertions,
    mine_assertions,
    template_assertion_blocks,
)
from repro.sva.kernel import simulate_and_check
from repro.sva.logs import format_failure_log

#: Bumped whenever per-sample Stage-2 semantics change: keys old cached
#: results out of any Stage-2 result cache directory.
STAGE2_RESULT_VERSION = "stage2_result/v1"


@dataclass
class Stage2Config:
    """Knobs for SVA validation and bug injection."""

    seed: int = 11
    random_cycles: int = 48
    max_mined_assertions: int = 5
    max_bugs_per_design: int = 6
    injection: InjectionConfig = field(default_factory=InjectionConfig)

    def content_fingerprint(self, policy: JobPolicy) -> str:
        """Every config field and policy value that can change a per-sample result.

        The policy's worker count is deliberately excluded -- it can only
        change wall time, never output.  Its ``timeout`` and
        ``max_attempts`` are *included*: a cached-through failure record is
        only valid for the fault-tolerance budget it was produced under
        (``on_error`` itself only changes aggregation, never a per-sample
        result, so it stays out).
        """
        return "|".join(
            str(part)
            for part in (
                self.seed,
                self.random_cycles,
                self.max_mined_assertions,
                self.max_bugs_per_design,
                self.injection.seed,
                self.injection.max_bugs_per_design,
                self.injection.max_candidates_per_line,
                policy.timeout,
                policy.max_attempts,
            )
        )


@dataclass
class Stage2Result:
    """Validated entries plus per-stage counters."""

    sva_bug: list[SvaBugEntry] = field(default_factory=list)
    verilog_bug: list[VerilogBugEntry] = field(default_factory=list)
    candidate_svas: int = 0
    validated_svas: int = 0
    injected_bugs: int = 0
    rejected_not_compiling: int = 0
    designs_without_valid_svas: int = 0
    #: Samples whose job was quarantined (``JobPolicy.on_error``): one
    #: record per skipped sample with the structured failure summary.
    skipped: list[dict] = field(default_factory=list)

    def merge(self, other: "Stage2Result") -> None:
        """Fold another (e.g. per-sample) result into this one, in order."""
        self.sva_bug.extend(other.sva_bug)
        self.verilog_bug.extend(other.verilog_bug)
        self.candidate_svas += other.candidate_svas
        self.validated_svas += other.validated_svas
        self.injected_bugs += other.injected_bugs
        self.rejected_not_compiling += other.rejected_not_compiling
        self.designs_without_valid_svas += other.designs_without_valid_svas
        self.skipped.extend(other.skipped)

    def to_dict(self) -> dict:
        """JSON-safe form, used by the runtime's per-sample result cache."""
        return {
            "sva_bug": [entry.to_dict() for entry in self.sva_bug],
            "verilog_bug": [entry.to_dict() for entry in self.verilog_bug],
            "candidate_svas": self.candidate_svas,
            "validated_svas": self.validated_svas,
            "injected_bugs": self.injected_bugs,
            "rejected_not_compiling": self.rejected_not_compiling,
            "designs_without_valid_svas": self.designs_without_valid_svas,
            "skipped": list(self.skipped),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Stage2Result":
        """Inverse of :meth:`to_dict`."""
        return cls(
            sva_bug=[SvaBugEntry.from_dict(entry) for entry in payload["sva_bug"]],
            verilog_bug=[VerilogBugEntry.from_dict(entry) for entry in payload["verilog_bug"]],
            candidate_svas=payload["candidate_svas"],
            validated_svas=payload["validated_svas"],
            injected_bugs=payload["injected_bugs"],
            rejected_not_compiling=payload["rejected_not_compiling"],
            designs_without_valid_svas=payload["designs_without_valid_svas"],
            skipped=list(payload.get("skipped", [])),
        )


#: Reset cycles at the head of every Stage-2 stimulus.
_RESET_CYCLES = 2


def _mining_trace(design: ElaboratedDesign, seed: int, cycles: int, compiled):
    """The golden design's trace the assertion miner learns invariants from."""
    stimulus = StimulusGenerator(design, seed=seed).mixed_stimulus(
        random_cycles=cycles, reset_cycles=_RESET_CYCLES
    )
    return Simulator(design, compiled=compiled).run(stimulus.vectors)


class Stage2Runner:
    """Runs Stage 2 for a batch of compiled corpus samples.

    Samples are independent, so ``run`` fans them out through
    :func:`repro.runtime.run_stage_jobs` under ``policy``.  Mutation
    seeding is derived per sample (from the config seed and the sample
    name), which makes the output identical whether the batch runs serially
    or in parallel, and independent of sample order.  With ``cache_dir``,
    per-sample results are persisted content-addressed there, so re-runs
    only process samples whose inputs changed.
    """

    def __init__(
        self,
        config: Optional[Stage2Config] = None,
        policy: JobPolicy = JobPolicy(),
        cache_dir: Optional[str] = None,
    ):
        self._config = config or Stage2Config()
        self._policy = policy
        self._cache_dir = cache_dir

    def _sample_injector(self, sample: CorpusSample) -> BugInjector:
        """A fresh, deterministically seeded injector for one sample."""
        injection = replace(
            self._config.injection,
            seed=derive_seed(self._config.injection.seed, sample.name),
            max_bugs_per_design=self._config.max_bugs_per_design,
        )
        return BugInjector(injection)

    # ------------------------------------------------------------------ #
    # SVA generation + validation
    # ------------------------------------------------------------------ #

    def validated_assertions(
        self, sample: CorpusSample, result: Stage2Result
    ) -> tuple[Optional[str], Optional[ElaboratedDesign]]:
        """Insert candidate SVAs into the golden source and keep the valid ones.

        Returns the augmented golden source (with only valid SVAs) and its
        elaborated design, or ``(None, None)`` when nothing useful remains.
        Candidates are validated against an *independent* stimulus
        (``seed + 1``), not the trace they were mined from -- a mined
        invariant trivially holds on its own mining trace, so validating
        there would be vacuous.
        """
        store = default_store()
        config = self._config
        golden_design, _ = store.elaborate_source(sample.source)
        if golden_design is None:
            return None, None
        # The golden source is the base the augmented source relowers
        # against: it adds only assertions (identical sim nodes, so it
        # reuses 100% of them).
        try:
            golden_trace = _mining_trace(
                golden_design, config.seed, config.random_cycles,
                store.compiled_design(sample.source),
            )
        except SimulationError:
            return None, None

        candidates = template_assertion_blocks(
            sample.artifact.template_svas, sample.artifact.family
        )
        candidates.extend(
            mine_assertions(
                golden_design, golden_trace, max_assertions=config.max_mined_assertions
            )
        )
        result.candidate_svas += len(candidates)
        if not candidates:
            result.designs_without_valid_svas += 1
            return None, None

        augmented = insert_assertions(sample.source, candidates)
        (outcome,) = simulate_and_check(
            store, [(augmented, (config.seed + 1,))], config.random_cycles, _RESET_CYCLES,
            "stage2", sample.source,
        )
        if outcome.design is None or outcome.sim_error is not None:
            result.designs_without_valid_svas += 1
            return None, None
        if outcome.failure is None:
            result.validated_svas += len(candidates)
            return augmented, outcome.design
        # Drop candidates whose assertion failed on the golden design and retry once.
        failing = set(outcome.failure[1].failed_assertions)
        valid = [c for c in candidates if _assertion_label(c) not in failing]
        if not valid:
            result.designs_without_valid_svas += 1
            return None, None
        augmented = insert_assertions(sample.source, valid)
        augmented_design, _ = store.elaborate_source(augmented)
        if augmented_design is None:
            result.designs_without_valid_svas += 1
            return None, None
        result.validated_svas += len(valid)
        return augmented, augmented_design

    # ------------------------------------------------------------------ #
    # bug injection + validation
    # ------------------------------------------------------------------ #

    def process_sample(self, sample: CorpusSample, result: Stage2Result) -> None:
        """Run the complete Stage 2 flow for one sample."""
        store = default_store()
        config = self._config
        augmented_golden, golden_design = self.validated_assertions(sample, result)
        if augmented_golden is None or golden_design is None:
            return
        bugs = self._sample_injector(sample).inject(sample.name, augmented_golden, golden_design)
        result.injected_bugs += len(bugs)
        # One kernel call triages every mutant, each on its own seed.  Every
        # mutant is a one-line variant of the augmented golden source, which
        # is the base each one relowers against; mutations touch logic, not
        # the assertions, so the mutants share the base's assertion
        # lowerings and their traces are checked in one stacked pass.  The
        # injector elaborated each mutant through the same store, so the
        # kernel's elaborations are LRU hits.
        seeds = [config.seed + 101 + index for index in range(len(bugs))]
        outcomes = simulate_and_check(
            store, [(bug.buggy_source, (seed,)) for bug, seed in zip(bugs, seeds)],
            config.random_cycles, _RESET_CYCLES, "stage2", augmented_golden,
        )
        for index, (bug, stimulus_seed, outcome) in enumerate(zip(bugs, seeds, outcomes)):
            if outcome.design is None or outcome.sim_error is not None:
                result.rejected_not_compiling += 1
                continue
            if outcome.failure is None:
                result.verilog_bug.append(_verilog_bug_entry(sample, index, bug))
                continue
            report = outcome.failure[1]
            failing_names = report.failed_assertions
            bug.failing_assertions = failing_names
            failing_specs = [
                spec for spec in outcome.design.assertions if spec.name in failing_names
            ]
            bug.is_direct = classify_direct(bug, failing_specs)
            logs = format_failure_log(sample.name, report)
            result.sva_bug.append(
                SvaBugEntry(
                    name=f"{sample.name}_sb{index}",
                    design_name=sample.name,
                    family=sample.artifact.family,
                    origin="machine",
                    spec=sample.spec,
                    golden_source=augmented_golden,
                    buggy_source=bug.buggy_source,
                    logs=logs,
                    failing_assertions=failing_names,
                    line_number=bug.line_number,
                    golden_line=bug.golden_line,
                    buggy_line=bug.buggy_line,
                    edit_kind=bug.edit_kind,
                    is_conditional=bug.is_conditional,
                    is_direct=bool(bug.is_direct),
                    mutation_name=bug.mutation_name,
                    description=bug.description,
                    stimulus_seed=stimulus_seed,
                    stimulus_cycles=config.random_cycles,
                )
            )

    def run(self, samples: list[CorpusSample]) -> Stage2Result:
        """Run Stage 2 for every sample through the runtime executor.

        Results are merged in submission order, so worker count never
        changes the output; with a cache directory, per-sample results are
        served content-addressed from disk on re-runs (quarantined failures
        are cached through too, so warm re-runs make the same skip
        decisions byte-for-byte).
        """
        config, policy = self._config, self._policy
        sample_results, skipped = run_stage_jobs(
            "stage2",
            samples,
            _process_sample_job,
            policy,
            [sample.name for sample in samples],
            context=config,
            cache=ResultCache(self._cache_dir) if self._cache_dir else None,
            key_fn=lambda sample: _sample_key(config, policy, sample),
            encode=Stage2Result.to_dict,
            decode=Stage2Result.from_dict,
        )
        result = Stage2Result()
        for sample_result in sample_results:
            if sample_result is not None:
                result.merge(sample_result)
        result.skipped.extend(skipped)
        return result


def _process_sample_job(sample: CorpusSample, config: Stage2Config) -> Stage2Result:
    """Worker function: run one sample and ship its result back."""
    result = Stage2Result()
    Stage2Runner(config).process_sample(sample, result)
    return result


def _sample_key(config: Stage2Config, policy: JobPolicy, sample: CorpusSample) -> str:
    """Content address of one sample's Stage-2 result.

    Covers everything the per-sample flow reads: the config and the
    policy's fault budget, the golden source, the spec, and the artifact
    fields that feed candidate SVAs.
    """
    return content_key(
        STAGE2_RESULT_VERSION,
        config.content_fingerprint(policy),
        sample.name,
        sample.source,
        sample.spec,
        sample.artifact.family,
        "\x01".join(sample.artifact.template_svas),
    )


def _verilog_bug_entry(sample: CorpusSample, index: int, bug: BugInstance) -> VerilogBugEntry:
    """A mutant that no validated assertion catches, as a Verilog-Bug entry."""
    return VerilogBugEntry(
        name=f"{sample.name}_vb{index}",
        spec=sample.spec,
        buggy_source=bug.buggy_source,
        golden_line=bug.golden_line,
        buggy_line=bug.buggy_line,
        line_number=bug.line_number,
        edit_kind=bug.edit_kind,
        is_conditional=bug.is_conditional,
        description=bug.description,
    )


def _assertion_label(candidate: MinedAssertion) -> str:
    """The assertion label a candidate will have once inserted (``a_<property>``)."""
    text = candidate.assert_text or candidate.property_text
    label = text.split(":", 1)[0].strip()
    return label


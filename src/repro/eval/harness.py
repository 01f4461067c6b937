"""The SVA-Eval-Machine benchmark harness.

Runs one repair engine over the held-out ``sva_eval_machine`` split:

1. for every case, ask the engine for its ``k`` best distinct candidate
   repairs (:meth:`~repro.model.response.RepairEngine.propose_topk`),
2. verify every candidate semantically on fresh stimulus seeds
   (:mod:`repro.eval.verifier`, fanned out by :mod:`repro.eval.executor`),
3. score pass@1 / pass@k and break the numbers down by bug taxonomy,
   template family and length bin -- the axes of the paper's Tables III/IV.

pass@k here is the *ranked* variant: a case counts for pass@k when any of
the engine's top-k distinct candidates verifies.  Proposal is exact and
verification seeds are derived per case name, so the report is identical
for any worker count, case order, or cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.dataaug.datasets import SvaBugEntry
from repro.eval.executor import VerificationJob, run_verification_jobs
from repro.eval.verifier import (
    DEFAULT_SEED_COUNT,
    CandidateFix,
    RepairVerdict,
    derive_verification_seeds,
)
from repro.model.case import RepairCase
from repro.model.response import RepairEngine
from repro.obs import get_tracer, traced_run
from repro.runtime import JobPolicy


@dataclass
class EvalConfig:
    """Knobs for one benchmark run."""

    seed: int = 2027
    ks: tuple[int, ...] = (1, 5)  # report pass@k for each; max(ks) candidates are drawn
    temperature: float = 0.2
    verification_seeds: int = DEFAULT_SEED_COUNT
    cycles: Optional[int] = None  # None: use each entry's own stimulus_cycles
    #: How the per-case verification jobs run; a quarantined job records
    #: ``infra_error`` verdicts for its case instead of aborting the run.
    job_policy: JobPolicy = JobPolicy()
    cache_dir: Optional[Path] = None
    #: Write a JSONL trace of the run here (``REPRO_TRACE`` is the env
    #: fallback).  Telemetry only: the report is byte-identical with tracing
    #: on or off.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        # pass@0 would verify one candidate and always report 0.
        if not self.ks or min(self.ks) < 1:
            raise ValueError(f"every k in ks must be at least 1, got {self.ks}")
        # No seeds would make every compiling candidate pass vacuously.
        if self.verification_seeds < 1:
            raise ValueError(
                f"verification_seeds must be at least 1, got {self.verification_seeds}"
            )

    @property
    def k(self) -> int:
        return max(self.ks)


@dataclass
class CandidateOutcome:
    """One verified candidate repair of one case."""

    rank: int  # 1-based rank in the engine's candidate list
    line_number: int
    fixed_line: str
    confidence: float
    verdict: RepairVerdict

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "line_number": self.line_number,
            "fixed_line": self.fixed_line,
            "confidence": round(self.confidence, 6),
            "verdict": self.verdict.to_dict(),
        }


@dataclass
class CaseResult:
    """Every verified candidate of one evaluation case."""

    name: str
    design_name: str
    family: str
    length_bin: str
    bug_type_labels: list[str]
    verification_seeds: tuple[int, ...]
    mining_seed: int
    candidates: list[CandidateOutcome] = field(default_factory=list)

    @property
    def infra_error(self) -> bool:
        """True when verification infrastructure failed for this case.

        Such a case says nothing about the engine, so scoring drops it from
        every pass@k denominator (the count is still reported).
        """
        return any(
            candidate.verdict.status == "infra_error" for candidate in self.candidates
        )

    @property
    def first_pass_rank(self) -> Optional[int]:
        """Rank of the best candidate that *non-vacuously* passes.

        A verdict only counts when at least one assertion was exercised:
        a rewrite that merely stops every assertion from firing (or removes
        it) simulates cleanly but repairs nothing.
        """
        for candidate in self.candidates:
            if candidate.verdict.passed and candidate.verdict.exercised:
                return candidate.rank
        return None

    def passed_at(self, k: int) -> bool:
        rank = self.first_pass_rank
        return rank is not None and rank <= k

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "design_name": self.design_name,
            "family": self.family,
            "length_bin": self.length_bin,
            "bug_type_labels": list(self.bug_type_labels),
            "verification_seeds": list(self.verification_seeds),
            "mining_seed": self.mining_seed,
            "first_pass_rank": self.first_pass_rank,
            "candidates": [candidate.to_dict() for candidate in self.candidates],
        }


def _pass_rates(cases: Sequence[CaseResult], ks: Sequence[int]) -> dict[str, float]:
    scored = [case for case in cases if not case.infra_error]
    if not scored:
        return {f"pass@{k}": 0.0 for k in ks}
    return {
        f"pass@{k}": round(sum(case.passed_at(k) for case in scored) / len(scored), 4)
        for k in ks
    }


def _breakdown(
    cases: Sequence[CaseResult], ks: Sequence[int], group_of
) -> dict[str, dict]:
    groups: dict[str, list[CaseResult]] = {}
    for case in cases:
        for label in group_of(case):
            groups.setdefault(label, []).append(case)
    return {
        label: {"cases": len(members), **_pass_rates(members, ks)}
        for label, members in sorted(groups.items())
    }


@dataclass
class EvalReport:
    """The full result of one benchmark run."""

    engine: str
    ks: tuple[int, ...]
    cases: list[CaseResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Corrupt verdict-cache entries hit across workers (telemetry only;
    #: like the hit/miss counters, never part of :meth:`summary`).
    cache_corrupt: int = 0

    @property
    def pass_rates(self) -> dict[str, float]:
        return _pass_rates(self.cases, self.ks)

    def verdict_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for case in self.cases:
            for candidate in case.candidates:
                status = candidate.verdict.status
                histogram[status] = histogram.get(status, 0) + 1
        return dict(sorted(histogram.items()))

    def summary(self) -> dict:
        """The machine-readable summary (schema ``repro_eval/v1``).

        Cache traffic is deliberately *not* part of the summary: the summary
        of a run must be byte-identical whether the verdict cache was cold or
        warm (use :attr:`cache_hits` / :attr:`cache_misses` for telemetry).
        """
        return {
            "schema": "repro_eval/v1",
            "engine": self.engine,
            "cases": len(self.cases),
            "infra_error_cases": sum(case.infra_error for case in self.cases),
            "candidates_verified": sum(len(case.candidates) for case in self.cases),
            **self.pass_rates,
            "verdicts": self.verdict_histogram(),
            "by_bug_type": _breakdown(self.cases, self.ks, lambda c: c.bug_type_labels),
            "by_family": _breakdown(self.cases, self.ks, lambda c: [c.family]),
            "by_length_bin": _breakdown(self.cases, self.ks, lambda c: [c.length_bin]),
        }


class EvalHarness:
    """Evaluates repair engines on held-out SVA-Bug entries."""

    def __init__(self, config: Optional[EvalConfig] = None):
        self.config = config or EvalConfig()

    def run(self, engine: RepairEngine, entries: Sequence[SvaBugEntry]) -> EvalReport:
        """Propose, verify and score ``engine`` over ``entries``.

        Traced under an ``eval`` root span (see
        :func:`repro.obs.traced_run`): an enabled ambient tracer is joined,
        else ``config.trace_path`` / ``REPRO_TRACE`` make the run own one.
        """
        with traced_run(
            self.config.trace_path, "eval", engine=engine.name, cases=len(entries)
        ):
            return self._run(engine, entries)

    def _run(self, engine: RepairEngine, entries: Sequence[SvaBugEntry]) -> EvalReport:
        config, tracer = self.config, get_tracer()
        ordered = sorted(entries, key=lambda entry: entry.name)

        with tracer.span("eval.propose") as propose_span:
            jobs: list[VerificationJob] = []
            skeletons: list[CaseResult] = []
            responses_per_case: list[list] = []
            for entry in ordered:
                case = RepairCase.from_entry(entry)
                responses = engine.propose_topk(
                    case, k=config.k, temperature=config.temperature
                )
                seeds = derive_verification_seeds(
                    entry.name,
                    entry.stimulus_seed,
                    count=config.verification_seeds,
                    base_seed=config.seed,
                )
                cycles = config.cycles if config.cycles is not None else entry.stimulus_cycles
                fixes = tuple(
                    CandidateFix(
                        line_number=response.line_number,
                        fixed_line=response.fixed_line,
                        bug_line=response.bug_line,
                    )
                    for response in responses
                )
                jobs.append(
                    VerificationJob(
                        case_name=entry.name,
                        buggy_source=entry.buggy_source,
                        fixes=fixes,
                        seeds=seeds,
                        cycles=cycles,
                    )
                )
                responses_per_case.append(responses)
                skeletons.append(
                    CaseResult(
                        name=entry.name,
                        design_name=entry.design_name,
                        family=entry.family,
                        length_bin=entry.length_bin,
                        bug_type_labels=entry.bug_type_labels,
                        verification_seeds=seeds,
                        mining_seed=entry.stimulus_seed,
                    )
                )
            propose_span.set(jobs=len(jobs))

        with tracer.span("eval.verify", jobs=len(jobs)):
            shards = run_verification_jobs(jobs, config.job_policy, cache_dir=config.cache_dir)

        report = EvalReport(engine=engine.name, ks=config.ks)
        with tracer.span("eval.score"):
            for skeleton, responses, shard in zip(skeletons, responses_per_case, shards):
                for rank, (response, verdict) in enumerate(
                    zip(responses, shard.verdicts), start=1
                ):
                    skeleton.candidates.append(
                        CandidateOutcome(
                            rank=rank,
                            line_number=response.line_number,
                            fixed_line=response.fixed_line.strip(),
                            confidence=response.confidence,
                            verdict=verdict,
                        )
                    )
                report.cache_hits += shard.cache_hits
                report.cache_misses += shard.cache_misses
                report.cache_corrupt += shard.cache_corrupt
                report.cases.append(skeleton)
        return report

"""Sharded execution of verification jobs.

A :class:`VerificationJob` is one evaluation case with its ranked candidate
fixes -- everything a worker needs, as plain picklable data.  Jobs are
independent, every seed is carried inside the job, and the fan-out is the
shared :func:`repro.runtime.run_jobs` executor (submission-order merging),
so the output is bit-identical for any worker count -- the same determinism
contract every stage of the pipeline runs under.

The per-fix verdict cache stays *inside* the worker (each fix of a job can
hit or miss independently); the runtime's job-level result cache is the
wrong granularity here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.artifacts import process_store
from repro.eval.cache import VerdictCache
from repro.eval.verifier import CandidateFix, RepairVerdict, SemanticVerifier, VerifierConfig
from repro.obs import annotate
from repro.runtime import FaultPlan, JobFailure, run_jobs
from repro.sva.checker import require_checker_backend


@dataclass(frozen=True)
class VerificationJob:
    """One case's worth of verification work."""

    case_name: str
    buggy_source: str
    fixes: tuple[CandidateFix, ...]
    seeds: tuple[int, ...]
    cycles: int = 48
    #: Assertion-checker backend each worker verifies with (outcome-identical
    #: across backends; "interp" forces the differential oracle).
    checker_backend: str = "auto"

    def __post_init__(self) -> None:
        require_checker_backend(self.checker_backend)


@dataclass
class ShardResult:
    """Verdicts for one job plus the worker's cache traffic."""

    case_name: str
    verdicts: list[RepairVerdict] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Corrupt on-disk entries the worker's verdict cache hit (telemetry
    #: only -- never part of the report JSON, which must stay byte-identical
    #: whatever the cache state).
    cache_corrupt: int = 0


def _run_job(job: VerificationJob, context) -> ShardResult:
    """Worker function: verify one job (module-level so it pickles)."""
    cache_dir, artifact_dir = context
    annotate(case=job.case_name, fixes=len(job.fixes))
    cache = VerdictCache(cache_dir) if cache_dir else None
    verifier = SemanticVerifier(
        config=VerifierConfig(
            cycles=job.cycles,
            checker_backend=job.checker_backend,
        ),
        cache=cache,
        # One store per worker process (and per disk tier), shared across
        # every job the worker handles: its LRU keeps each case's base
        # artifacts warm, and the optional disk tier shares elaborated
        # designs with every other worker.
        artifacts=process_store(artifact_dir),
    )
    result = ShardResult(case_name=job.case_name)
    for fix in job.fixes:
        result.verdicts.append(verifier.verify(job.buggy_source, fix, job.seeds))
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
        result.cache_corrupt = cache.corrupt
    return result


def _infra_shard(job: VerificationJob, failure: JobFailure) -> ShardResult:
    """A quarantined job's stand-in shard: one ``infra_error`` verdict per fix.

    ``infra_error`` means the harness infrastructure failed (worker crash,
    hang, unexpected exception), not that the repair failed verification --
    scoring excludes these cases from pass@k denominators.
    """
    detail = f"{failure.exception_type}: {failure.message} (phase={failure.phase})"
    shard = ShardResult(case_name=job.case_name)
    shard.verdicts = [
        RepairVerdict(
            status="infra_error", seeds=job.seeds, cycles=job.cycles, detail=detail
        )
        for _ in job.fixes
    ]
    return shard


def run_verification_jobs(
    jobs: list[VerificationJob],
    workers: int = 1,
    cache_dir: Optional[Path | str] = None,
    on_error: str = "raise",
    job_timeout: Optional[float] = None,
    max_attempts: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    tracer=None,
    artifact_dir: Optional[Path | str] = None,
) -> list[ShardResult]:
    """Verify every job through the shared runtime executor.

    Returns one :class:`ShardResult` per job, in job order.  With
    ``on_error="quarantine"``, a job whose worker fails (after
    ``max_attempts`` executions, or by exceeding ``job_timeout``) yields a
    shard of ``infra_error`` verdicts instead of aborting the run.

    Workers compile through a per-process compiled-artifact store;
    ``artifact_dir`` adds its shared on-disk elaboration tier.  Neither
    affects verdicts -- incremental relowering is byte-identical to full
    recompilation for any worker count or cache state.
    """
    cache_arg = str(cache_dir) if cache_dir is not None else None
    artifact_arg = str(artifact_dir) if artifact_dir is not None else None
    results = run_jobs(
        jobs,
        _run_job,
        workers=workers,
        context=(cache_arg, artifact_arg),
        on_error=on_error,
        timeout=job_timeout,
        max_attempts=max_attempts,
        fault_plan=fault_plan,
        tracer=tracer,
    )
    if on_error != "quarantine":
        return results
    return [
        outcome.result if outcome.ok else _infra_shard(job, outcome.failure)
        for job, outcome in zip(jobs, results)
    ]

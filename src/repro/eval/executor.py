"""Sharded execution of verification jobs.

A :class:`VerificationJob` is one evaluation case with its ranked candidate
fixes -- everything a worker needs, as plain picklable data.  Jobs are
independent, every seed is carried inside the job, and the fan-out is the
shared :func:`repro.runtime.run_stage_jobs` (submission-order merging), so
the output is bit-identical for any worker count -- the same determinism
contract every stage of the pipeline runs under.

The per-fix verdict cache stays *inside* the worker (each fix of a job can
hit or miss independently); the runtime's job-level result cache is the
wrong granularity here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.eval.cache import VerdictCache
from repro.eval.verifier import CandidateFix, RepairVerdict, SemanticVerifier, VerifierConfig
from repro.obs import annotate
from repro.runtime import JobPolicy, run_stage_jobs


@dataclass(frozen=True)
class VerificationJob:
    """One case's worth of verification work."""

    case_name: str
    buggy_source: str
    fixes: tuple[CandidateFix, ...]
    seeds: tuple[int, ...]
    cycles: int = 48


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


def _run_job(job: VerificationJob, cache_dir: Optional[str]) -> ShardResult:
    """Worker function: verify one job (module-level so it pickles).

    The verifier uses the worker process's default artifact store, shared
    across every job the worker handles, so its LRU keeps each case's base
    artifacts warm.
    """
    annotate(case=job.case_name, fixes=len(job.fixes))
    cache = VerdictCache(cache_dir) if cache_dir else None
    verifier = SemanticVerifier(config=VerifierConfig(cycles=job.cycles), cache=cache)
    result = ShardResult(case_name=job.case_name)
    for fix in job.fixes:
        result.verdicts.append(verifier.verify(job.buggy_source, fix, job.seeds))
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
        result.cache_corrupt = cache.corrupt
    return result


def _infra_shard(job: VerificationJob, record: dict) -> ShardResult:
    """A quarantined job's stand-in shard: one ``infra_error`` verdict per fix.

    ``record`` is the job's skip record.  ``infra_error`` means the harness
    infrastructure failed (worker crash, hang, unexpected exception), not
    that the repair failed verification -- scoring excludes these cases from
    pass@k denominators.
    """
    detail = f"{record['exception_type']}: {record['message']} (phase={record['phase']})"
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
    policy: JobPolicy = JobPolicy(),
    cache_dir: Optional[Path | str] = None,
) -> list[ShardResult]:
    """Verify every job through the shared runtime executor under ``policy``.

    Returns one :class:`ShardResult` per job, in job order.  A job the
    policy quarantines (after ``max_attempts`` executions, or by exceeding
    its timeout) yields a shard of ``infra_error`` verdicts instead of
    aborting the run.

    Workers compile through their process's compiled-artifact store,
    which never affects verdicts -- incremental relowering is
    byte-identical to full recompilation for any worker count or cache
    state.
    """
    shards, skipped = run_stage_jobs(
        "eval",
        jobs,
        _run_job,
        policy,
        [job.case_name for job in jobs],
        context=str(cache_dir) if cache_dir is not None else None,
    )
    records = iter(skipped)
    return [
        shard if shard is not None else _infra_shard(job, next(records))
        for job, shard in zip(jobs, shards)
    ]

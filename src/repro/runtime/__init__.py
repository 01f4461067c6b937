"""repro.runtime -- one deterministic, fault-tolerant runtime for every fan-out.

The paper's pipeline (Fig. 2) is embarrassingly parallel end to end; this
package is the single layer all of its workloads plug into instead of each
hand-rolling a ``multiprocessing`` pool:

* :class:`JobPolicy` / :func:`run_stage_jobs` -- one execution policy
  (workers, failure mode, timeout, retry budget, tests-only fault plan)
  per run, validated when built, and the one function every stage runs
  its jobs through: results in job order plus the skip records of
  quarantined jobs;
* :func:`run_jobs` -- the sharded-map executor under a policy (pool
  lifecycle, chunking, submission-order merging, optional
  content-addressed result caching, per-job timeouts, bounded retries,
  broken-pool recovery, quarantine), reporting to the ambient tracer;
* :func:`derive_seed` -- per-job seed derivation, the invariance trick that
  makes output independent of worker count and job order;
* :func:`default_workers` -- the one shared "how many workers" default
  (cores, capped, ``REPRO_WORKERS``-overridable);
* :class:`ResultCache` / :func:`content_key` -- the generic on-disk cache
  that :class:`repro.eval.cache.VerdictCache` specialises;
* :class:`JobOutcome` / :class:`JobFailure` -- structured per-job results
  under ``on_error="quarantine"``, and :class:`FaultPlan` -- the
  deterministic fault-injection harness the recovery tests drive.

Adopters: corpus generation (per-design jobs), Stage 1 (per-sample compile
checks), Stage 2 (per-sample SVA validation + bug injection), Stage 3
(per-entry CoT jobs) and ``repro.eval`` verification (per-case jobs).
"""

from repro.runtime.cache import ResultCache, content_key
from repro.runtime.executor import (
    DEFAULT_WORKER_CAP,
    MAX_CHUNKSIZE,
    JobPolicy,
    WORKERS_ENV,
    auto_chunksize,
    default_workers,
    derive_seed,
    run_jobs,
    run_stage_jobs,
)
from repro.runtime.faults import (
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_RAISE,
    FaultPlan,
    InjectedFault,
    JobExecutionError,
    JobFailure,
    JobOutcome,
    JobTimeoutError,
    WorkerCrashError,
)

__all__ = [
    "DEFAULT_WORKER_CAP",
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_RAISE",
    "FaultPlan",
    "InjectedFault",
    "JobExecutionError",
    "JobFailure",
    "JobOutcome",
    "JobPolicy",
    "JobTimeoutError",
    "MAX_CHUNKSIZE",
    "ResultCache",
    "WORKERS_ENV",
    "WorkerCrashError",
    "auto_chunksize",
    "content_key",
    "default_workers",
    "derive_seed",
    "run_jobs",
    "run_stage_jobs",
]

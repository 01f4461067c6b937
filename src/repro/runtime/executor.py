"""The deterministic, fault-tolerant sharded-map executor.

Every parallel island of the reproduction -- corpus generation, Stages 1-3
of the augmentation pipeline, evaluation verification -- is the same shape:
a list of independent, picklable jobs mapped through a pure worker function.
:func:`run_jobs` is that shape, implemented once:

* **pool lifecycle + chunking** -- one process pool per call, sized
  ``min(workers, len(jobs))``, with submission chunked (capped at
  :data:`MAX_CHUNKSIZE`) to amortise IPC for many small jobs;
* **submission-order merging** -- results come back in job order whatever
  the completion order, so worker count can never reorder output;
* **derived seeding** -- workers receive no shared RNG; every job carries
  its own seed, derived from a base seed and a stable job identity via
  :func:`derive_seed` (the discipline Stage 2 pioneered);
* **optional result caching** -- with ``cache``/``key_fn``, finished jobs
  are stored content-addressed on disk and later runs only execute misses;
* **fault tolerance** -- structured per-job outcomes, per-job timeouts, a
  watchdog that detects hung or dead workers and rebuilds the pool, bounded
  deterministic retries, and quarantine instead of run-wide aborts (see
  `Failure handling`_ below).

The determinism contract for a workload plugging in:

1. ``worker_fn`` must be a module-level callable (it is pickled by
   reference) and a pure function of ``(job, context)`` -- no globals, no
   ambient RNG, no mutation of shared state;
2. every random decision inside the worker must be seeded from data carried
   by the job (use :func:`derive_seed`), never from worker identity, job
   index arithmetic over a shared sequence, or wall clock;
3. results must be picklable, and -- when caching -- ``encode``/``decode``
   must round-trip them through JSON exactly.

Under that contract ``run_jobs(jobs, fn, JobPolicy(workers=k))`` is
byte-identical to ``[fn(job, context) for job in jobs]`` for every ``k``,
which is what the pipeline's worker-count invariance tests assert end to
end.  Retries and timeouts never change the value of a successful result:
a retried job is re-executed from the same payload through the same pure
function.

Failure handling
----------------

The policy's ``on_error`` selects what a job failure does to the run:

* ``"raise"`` (the default): the first job that exhausts its attempts
  aborts the run.  The original worker exception is re-raised when it
  survived pickling; failures with no exception surface as
  :class:`~repro.runtime.faults.JobTimeoutError` /
  :class:`~repro.runtime.faults.WorkerCrashError` /
  :class:`~repro.runtime.faults.JobExecutionError`.
* ``"quarantine"``: the run always completes.  ``run_jobs`` then returns
  one :class:`~repro.runtime.faults.JobOutcome` per job -- successes carry
  the result, failures carry a serialisable
  :class:`~repro.runtime.faults.JobFailure` -- and with a cache attached,
  failure records are cached through, so warm re-runs reproduce the same
  quarantine decisions byte-for-byte without re-executing.

Failures are detected in three phases.  A worker exception is caught in the
worker and shipped back as data.  A per-job ``timeout`` or a worker process
death is detected by the orchestrator's watchdog: the pool is torn down and
rebuilt, chunks that were in flight are re-run, and jobs from a lost chunk
are re-tried as **singleton** chunks so the next loss is attributable to
exactly one job.  Only attributable failures are charged against
``max_attempts`` (peers that merely shared a chunk with a hang are
rescheduled for free); a job that keeps hanging or crashing is quarantined
after ``max_attempts`` charges rather than retried forever.

Timeout enforcement and crash recovery need process isolation, so a call
with a ``timeout`` runs through a pool even for ``workers=1``; without one,
single-worker runs stay in-process and a worker exception is the only
recoverable failure there.

Every knob above lives in one :class:`JobPolicy` (workers, ``on_error``,
timeout, retry budget, and the tests-only fault plan): stages take one
policy and run through :func:`run_stage_jobs`, the one place that turns
quarantined outcomes into the stage's skip records.  Library defaults are
serial; the CLIs size pools with :func:`default_workers`.  One platform
note: library code that reaches a pool from a top-level script must live
behind the standard ``if __name__ == "__main__":`` guard on multiprocessing
start methods that re-import the main module (``spawn``/``forkserver``) --
the usual requirement for any pool user.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
import warnings
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, get_registry, labeled, set_registry
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.runtime.cache import ResultCache
from repro.runtime.faults import (
    FAILURE_KEY,
    PHASE_TIMEOUT,
    PHASE_WORKER,
    PHASE_WORKER_DEATH,
    FaultPlan,
    JobFailure,
    JobOutcome,
    raise_failure,
)

#: Hard ceiling for auto-detected worker counts: beyond this the per-process
#: interpreter overhead dwarfs the win for this codebase's job sizes.
DEFAULT_WORKER_CAP = 8

#: Environment variable overriding :func:`default_workers` everywhere.
WORKERS_ENV = "REPRO_WORKERS"

#: Ceiling for the auto-computed chunk size.  Larger chunks amortise IPC a
#: little further, but a chunk is also the unit of loss: its deadline is
#: ``timeout * len(chunk)`` and a hang or worker death re-runs the whole
#: chunk, so hundreds of jobs per chunk would ruin timeout attribution and
#: re-run granularity.
MAX_CHUNKSIZE = 32

#: Watchdog poll interval while per-job timeouts are armed.
_WATCHDOG_TICK_S = 0.05

#: ``REPRO_WORKERS`` values already warned about (one warning per value).
_warned_worker_overrides: set[str] = set()


def default_workers(cap: int = DEFAULT_WORKER_CAP, env: str = WORKERS_ENV) -> int:
    """Worker count to use when the caller did not choose one.

    Detects the machine's cores, capped at ``cap``; the ``REPRO_WORKERS``
    environment variable overrides the detection (still capped at 1 from
    below, so ``REPRO_WORKERS=0`` means serial, not a crash).  An
    unparseable override falls back to core detection with a one-time
    warning naming the bad value -- silently ignoring it once hid typos
    like ``REPRO_WORKERS=four`` behind a full fan-out.
    """
    override = os.environ.get(env, "").strip()
    if override:
        try:
            return max(1, min(int(override), cap))
        except ValueError:
            if override not in _warned_worker_overrides:
                _warned_worker_overrides.add(override)
                warnings.warn(
                    f"ignoring unparseable {env}={override!r}; "
                    "falling back to core detection",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return max(1, min(os.cpu_count() or 1, cap))


def derive_seed(base: int, *tokens: str) -> int:
    """A per-job seed derived from ``base`` and the job's stable identity.

    Folding the identity in with CRC-32 keeps the value independent of job
    order, worker count and everything else the determinism contract bans.
    With a single token this is exactly the ``base ^ crc32(token)`` formula
    Stage 2 has always used for its per-sample injector seeds; multiple
    tokens are NUL-joined so ``("a", "b")`` never collides with ``("ab",)``.
    """
    return base ^ zlib.crc32("\x00".join(tokens).encode())


def auto_chunksize(pending: int, workers: int) -> int:
    """Jobs per pool submission: a few waves per worker, capped."""
    return max(1, min(MAX_CHUNKSIZE, pending // (workers * 4)))


@dataclass(frozen=True)
class JobPolicy:
    """How a stage's jobs run -- never what they compute.

    One value per run, shared by every stage: the pool size, what a job
    failure does (``"raise"`` aborts, ``"quarantine"`` skips the job and
    records it), the per-job timeout in seconds (None: unlimited) and the
    executions charged to a job before it fails.  Output bytes depend on
    none of them, except that a quarantined job is missing from it.
    ``faults`` injects deterministic faults into chosen jobs (tests only).
    An invalid policy is refused when it is built, not when a job runs.
    """

    workers: int = 1
    on_error: str = "raise"
    timeout: Optional[float] = None
    max_attempts: int = 1
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "quarantine"):
            raise ValueError(
                f"on_error must be 'raise' or 'quarantine', not {self.on_error!r}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        # A zero deadline would make quarantine decisions depend on timing.
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")


class _NoContext:
    """Sentinel for "no context given" (a class, so it pickles by reference).

    A distinct sentinel rather than ``None`` so that ``None`` remains a
    perfectly good *context value* (e.g. "no cache directory") -- workers
    with a context always receive two arguments, even when it is ``None``.
    """


def _invoke(worker_fn: Callable, job: Any, context: Any) -> Any:
    return worker_fn(job) if context is _NoContext else worker_fn(job, context)


def _execute_job(
    worker_fn: Callable,
    job: Any,
    context: Any,
    fault_plan: Optional[FaultPlan],
    telemetry: bool = False,
) -> tuple[bool, Any, Optional[BaseException], float, Optional[tuple]]:
    """Run one job, capturing any worker exception as structured data.

    Returns ``(ok, result_or_failure, exception_or_none, elapsed_s,
    shipped_telemetry)``.  Both the in-process and the pooled path catch
    here, so failure tracebacks carry identical frames whichever path
    executed the job.  The exception object itself is carried along only
    when it survives pickling (the pooled path ships these tuples across
    process boundaries).

    With ``telemetry`` on, the job runs under a fresh ambient tracer
    (epoch 0, i.e. absolute monotonic timestamps the orchestrator re-bases
    via :meth:`~repro.obs.trace.Tracer.absorb`) and a fresh ambient metrics
    registry; the final element ships ``(spans, metrics_snapshot)`` back
    piggybacked on the result so one trace file covers every process.
    """
    shipped: Optional[tuple] = None
    if telemetry:
        job_tracer = Tracer(epoch=0.0)
        job_registry = MetricsRegistry()
        previous_tracer = set_tracer(job_tracer)
        previous_registry = set_registry(job_registry)
        job_span = job_tracer.span("job")
        job_span.__enter__()
    started = time.perf_counter()
    try:
        if fault_plan is not None:
            fault_plan.maybe_fault(job)
        result = _invoke(worker_fn, job, context)
    except Exception as exc:  # noqa: BLE001 -- the whole point is containment
        elapsed = time.perf_counter() - started
        failure = JobFailure(
            phase=PHASE_WORKER,
            exception_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )
        try:
            pickle.loads(pickle.dumps(exc))
            carried: Optional[BaseException] = exc
        except Exception:  # noqa: BLE001 -- unpicklable exceptions travel as text
            carried = None
        entry = (False, failure, carried, elapsed)
    else:
        entry = (True, result, None, time.perf_counter() - started)
    if telemetry:
        job_span.set(ok=entry[0])
        job_span.__exit__(None, None, None)
        set_tracer(previous_tracer)
        set_registry(previous_registry)
        shipped = (job_tracer.spans, job_registry.snapshot())
    return entry + (shipped,)


def _chunk_entry(
    payload: tuple[Callable, list, Any, Optional[FaultPlan], bool],
) -> list[tuple[bool, Any, Optional[BaseException], float, Optional[tuple]]]:
    """Pool entry point: execute one chunk of jobs (module-level so it pickles)."""
    worker_fn, chunk_jobs, context, fault_plan, telemetry = payload
    return [
        _execute_job(worker_fn, job, context, fault_plan, telemetry)
        for job in chunk_jobs
    ]


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: hung workers are terminated, not waited for."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5)


def run_jobs(
    jobs: Sequence[Any],
    worker_fn: Callable,
    policy: JobPolicy = JobPolicy(),
    *,
    context: Any = _NoContext,
    cache: Optional[ResultCache] = None,
    key_fn: Optional[Callable[[Any], str]] = None,
    encode: Callable[[Any], dict] = lambda result: result,
    decode: Callable[[dict], Any] = lambda payload: payload,
) -> list[Any]:
    """Map ``worker_fn`` over ``jobs`` under ``policy``, fanning out across processes.

    Args:
        jobs: independent, picklable job payloads.
        worker_fn: module-level callable, invoked as ``worker_fn(job)`` or
            ``worker_fn(job, context)`` when ``context`` is given.
        policy: how the jobs run (:class:`JobPolicy`).  ``workers <= 1`` (or
            one job) runs in-process unless a ``timeout`` demands process
            isolation.  Submission is chunked by :func:`auto_chunksize`.  A
            job's ``timeout`` is enforced at chunk granularity (a chunk's
            deadline is ``timeout * len(chunk)``) with exact per-job
            enforcement on singleton re-runs.  Only attributable failures
            are charged against ``max_attempts``: a job that merely shared
            a chunk with a hang or crash is re-run for free.
        context: shared read-only payload (e.g. a stage config) handed to
            every invocation alongside the job; when given (``None``
            included), the worker is called as ``worker_fn(job, context)``.
        cache: optional :class:`ResultCache`; requires ``key_fn``.  In
            quarantine mode, failure records are cached through under the
            same keys, so warm re-runs reproduce quarantine decisions
            without re-executing (delete the entries to force a retry).
        key_fn: maps a job to its content-address
            (:func:`repro.runtime.cache.content_key` over every input that
            can change the result -- and nothing that cannot).
        encode / decode: JSON round-trip for cached results; default
            identity (results must then already be JSON-safe).

    Telemetry goes to the ambient tracer and metrics registry: when tracing
    is enabled, every job runs under a worker-side span whose buffer ships
    back with the result, and run counters (cache traffic, retries,
    timeouts, quarantines, pool rebuilds) land in the registry.  It never
    changes results, cache keys, or output bytes.

    Returns:
        With ``on_error="raise"``: one result per job, in submission order,
        for any worker count.  With ``on_error="quarantine"``: one
        :class:`~repro.runtime.faults.JobOutcome` per job, same order.
    """
    if cache is not None and key_fn is None:
        raise ValueError("run_jobs(cache=...) requires key_fn")
    jobs = list(jobs)
    outcomes: list[Optional[JobOutcome]] = [None] * len(jobs)

    pending = list(range(len(jobs)))
    keys: list[Optional[str]] = [None] * len(jobs)
    if cache is not None and key_fn is not None:
        pending = []
        for index, job in enumerate(jobs):
            keys[index] = key_fn(job)
            payload = cache.get(keys[index])
            if payload is None:
                pending.append(index)
            elif isinstance(payload, dict) and FAILURE_KEY in payload:
                outcomes[index] = JobOutcome.from_failure_payload(payload)
            else:
                outcomes[index] = JobOutcome(ok=True, result=decode(payload))

    def settle(index: int, outcome: JobOutcome) -> None:
        if cache is not None:
            if outcome.ok:
                cache.put(keys[index], encode(outcome.result))
            else:
                cache.put(keys[index], outcome.failure_payload())
        outcomes[index] = outcome

    if pending:
        effective = max(1, min(policy.workers, len(pending)))
        pooled = effective > 1 or policy.timeout is not None
        runner = _PendingRun(jobs, worker_fn, context, policy, settle)
        with runner.tracer.span(
            "run_jobs",
            jobs=len(jobs),
            pending=len(pending),
            workers=effective if pooled else 1,
        ):
            if pooled:
                runner.run_pooled(pending, effective)
            else:
                runner.run_serial(pending)

    if policy.on_error == "quarantine":
        return outcomes
    for outcome in outcomes:
        if not outcome.ok:
            raise_failure(outcome)
    return [outcome.result for outcome in outcomes]


def run_stage_jobs(
    stage: str,
    jobs: Sequence[Any],
    worker_fn: Callable,
    policy: JobPolicy,
    names: Sequence[str],
    **options: Any,
) -> tuple[list[Any], list[dict]]:
    """Run one stage's jobs under ``policy``: :func:`run_jobs` plus the skip fold.

    ``names[i]`` names ``jobs[i]`` in its skip record; ``options`` are the
    remaining :func:`run_jobs` keywords (context, cache, key_fn, ...).

    Returns every job's result in job order -- ``None`` for a quarantined
    job -- and one ``{"stage", "name", "phase", "exception_type",
    "message"}`` record per quarantined job, in job order.  Under
    ``on_error="raise"`` the first failure raises and the list is empty.
    """
    outcomes = run_jobs(jobs, worker_fn, policy, **options)
    if policy.on_error == "raise":
        return outcomes, []
    skipped = [
        {"stage": stage, "name": name, **outcome.failure.summary()}
        for name, outcome in zip(names, outcomes)
        if not outcome.ok
    ]
    return [outcome.result for outcome in outcomes], skipped


class _PendingRun:
    """One ``run_jobs`` call's execution state for the jobs that missed the cache."""

    def __init__(
        self,
        jobs: list,
        worker_fn: Callable,
        context: Any,
        policy: JobPolicy,
        settle: Callable[[int, JobOutcome], None],
    ):
        self.jobs = jobs
        self.worker_fn = worker_fn
        self.context = context
        self.fault_plan = policy.faults
        self.timeout = policy.timeout
        self.max_attempts = policy.max_attempts
        self.settle = settle
        self.fail_fast = policy.on_error == "raise"
        self.tracer = get_tracer()
        self.registry = get_registry()
        #: Ship worker-side telemetry only when someone is collecting it.
        self.telemetry = self.tracer.enabled
        self.attempts: dict[int, int] = {}
        #: Jobs implicated in a pool loss or awaiting a retry: re-run as
        #: singleton chunks, one at a time, so failures are attributable.
        self.suspects: deque[int] = deque()

    # ------------------------------------------------------------------ #
    # shared bookkeeping
    # ------------------------------------------------------------------ #

    def _charged(self, index: int) -> int:
        self.attempts[index] = self.attempts.get(index, 0) + 1
        return self.attempts[index]

    def _ship(self, index: int, shipped: Optional[tuple]) -> None:
        """Fold one job's piggybacked worker telemetry into the run's."""
        if shipped:
            spans, snapshot = shipped
            self.tracer.absorb(spans, job=index)
            self.registry.merge(snapshot)

    def _succeed(self, index: int, result: Any, elapsed: float) -> None:
        self.settle(
            index,
            JobOutcome(ok=True, result=result, attempts=self._charged(index), elapsed_s=elapsed),
        )

    def _fail(
        self,
        index: int,
        failure: JobFailure,
        exception: Optional[BaseException],
        elapsed: float,
    ) -> bool:
        """Charge one failed attempt; returns True when the job may retry."""
        charged = self._charged(index)
        if charged < self.max_attempts:
            self.registry.inc("runtime.retries")
            return True
        self.registry.inc(labeled("runtime.failure", failure.phase))
        if not self.fail_fast:
            self.registry.inc("runtime.quarantined")
        outcome = JobOutcome(
            ok=False, failure=failure, attempts=charged, elapsed_s=elapsed, exception=exception
        )
        self.settle(index, outcome)
        if self.fail_fast:
            raise_failure(outcome)
        return False

    def _absorb_chunk(self, chunk: Sequence[int], entries: list) -> None:
        """Fold one completed chunk's per-job entries into the run state."""
        for index, (ok, payload, exception, elapsed, shipped) in zip(chunk, entries):
            self._ship(index, shipped)
            if ok:
                self._succeed(index, payload, elapsed)
            elif self._fail(index, payload, exception, elapsed):
                self.suspects.append(index)

    def _lost_failure(self, phase: str) -> JobFailure:
        if phase == PHASE_TIMEOUT:
            self.registry.inc("runtime.timeouts")
            return JobFailure(
                phase=phase,
                exception_type="JobTimeoutError",
                message=f"job exceeded its {self.timeout}s timeout",
            )
        self.registry.inc("runtime.worker_deaths")
        return JobFailure(
            phase=phase,
            exception_type="WorkerCrashError",
            message="worker process died while running this job",
        )

    # ------------------------------------------------------------------ #
    # in-process path
    # ------------------------------------------------------------------ #

    def run_serial(self, pending: Sequence[int]) -> None:
        for index in pending:
            while True:
                ok, payload, exception, elapsed, shipped = _execute_job(
                    self.worker_fn,
                    self.jobs[index],
                    self.context,
                    self.fault_plan,
                    self.telemetry,
                )
                self._ship(index, shipped)
                if ok:
                    self._succeed(index, payload, elapsed)
                    break
                if not self._fail(index, payload, exception, elapsed):
                    break

    # ------------------------------------------------------------------ #
    # pooled path
    # ------------------------------------------------------------------ #

    def run_pooled(self, pending: Sequence[int], workers: int) -> None:
        chunksize = auto_chunksize(len(pending), workers)
        queue: deque[tuple[int, ...]] = deque(
            tuple(pending[start:start + chunksize])
            for start in range(0, len(pending), chunksize)
        )
        context = get_context()
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        inflight: dict[Future, tuple[tuple[int, ...], Optional[float]]] = {}

        def submit(pool: ProcessPoolExecutor, chunk: tuple[int, ...]) -> None:
            future = pool.submit(
                _chunk_entry,
                (
                    self.worker_fn,
                    [self.jobs[i] for i in chunk],
                    self.context,
                    self.fault_plan,
                    self.telemetry,
                ),
            )
            deadline = (
                time.monotonic() + self.timeout * len(chunk)
                if self.timeout is not None
                else None
            )
            inflight[future] = (chunk, deadline)

        def charge_or_suspect(index: int, phase: str) -> None:
            if self._fail(index, self._lost_failure(phase), None, 0.0):
                self.suspects.append(index)

        try:
            while queue or inflight:
                while queue and len(inflight) < workers:
                    submit(pool, queue.popleft())
                tick = _WATCHDOG_TICK_S if self.timeout is not None else None
                done, _ = wait(list(inflight), timeout=tick, return_when=FIRST_COMPLETED)
                lost: list[tuple[int, ...]] = []
                for future in done:
                    chunk, _deadline = inflight.pop(future)
                    try:
                        entries = future.result()
                    except BrokenProcessPool:
                        lost.append(chunk)
                    else:
                        self._absorb_chunk(chunk, entries)
                if lost:
                    # A worker death breaks the whole pool: every chunk still
                    # in flight is lost with it.  The loss is attributable
                    # only when exactly one job was in flight -- otherwise
                    # any of the implicated jobs could be the killer, so all
                    # of them are re-run as singleton suspects, uncharged.
                    lost.extend(chunk for chunk, _deadline in inflight.values())
                    inflight.clear()
                    if len(lost) == 1 and len(lost[0]) == 1:
                        charge_or_suspect(lost[0][0], PHASE_WORKER_DEATH)
                    else:
                        for chunk in lost:
                            self.suspects.extend(chunk)
                    _kill_pool(pool)
                    self.registry.inc("runtime.pool_rebuilds")
                    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
                    continue
                if self.timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_chunk, deadline) in inflight.items()
                        if deadline is not None and now >= deadline
                    ]
                    if expired:
                        # Deadline expiry *is* attributable per chunk: each
                        # expired chunk exceeded its own deadline.  Multi-job
                        # chunks still re-run as suspects for per-job blame.
                        for future in expired:
                            chunk, _deadline = inflight.pop(future)
                            if len(chunk) == 1:
                                charge_or_suspect(chunk[0], PHASE_TIMEOUT)
                            else:
                                self.suspects.extend(chunk)
                        # Killing the hung worker kills the whole pool; the
                        # innocent in-flight chunks just run again as-is.
                        for chunk, _deadline in inflight.values():
                            queue.appendleft(chunk)
                        inflight.clear()
                        _kill_pool(pool)
                        self.registry.inc("runtime.pool_rebuilds")
                        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            self._run_suspects(context)
        finally:
            _kill_pool(pool)

    def _run_suspects(self, context) -> None:
        """Re-run implicated jobs one at a time on a dedicated 1-worker pool.

        With a single singleton in flight, a timeout or worker death is
        attributable to exactly that job, so charges (and therefore
        quarantine decisions) are precise even when the original loss
        happened inside a many-job chunk.
        """
        if not self.suspects:
            return
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
        try:
            while self.suspects:
                index = self.suspects.popleft()
                future = pool.submit(
                    _chunk_entry,
                    (
                        self.worker_fn,
                        [self.jobs[index]],
                        self.context,
                        self.fault_plan,
                        self.telemetry,
                    ),
                )
                try:
                    entries = future.result(timeout=self.timeout)
                except FutureTimeoutError:
                    _kill_pool(pool)
                    self.registry.inc("runtime.pool_rebuilds")
                    pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
                    if self._fail(index, self._lost_failure(PHASE_TIMEOUT), None, 0.0):
                        self.suspects.append(index)
                except BrokenProcessPool:
                    _kill_pool(pool)
                    self.registry.inc("runtime.pool_rebuilds")
                    pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
                    if self._fail(index, self._lost_failure(PHASE_WORKER_DEATH), None, 0.0):
                        self.suspects.append(index)
                else:
                    self._absorb_chunk((index,), entries)
        finally:
            _kill_pool(pool)

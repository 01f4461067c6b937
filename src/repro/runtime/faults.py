"""Structured job failures and the deterministic fault-injection harness.

The executor's fault-tolerance contract is built from the pieces here:

* :class:`JobFailure` -- a record of *why* one job failed
  (exception type, message, traceback text, and the phase the failure was
  detected in: the worker raised, the job timed out, or the worker process
  died);
* :class:`JobOutcome` -- the structured per-job result ``run_jobs`` produces
  in ``on_error="quarantine"`` mode: success or failure, the attempt count,
  and wall-clock telemetry, instead of a raw propagated exception;
* the exception types ``on_error="raise"`` mode surfaces when the original
  worker exception cannot be re-raised (:class:`JobExecutionError`) or when
  the failure has no worker exception at all (:class:`JobTimeoutError`,
  :class:`WorkerCrashError`);
* :class:`FaultPlan` -- the deterministic fault injector.  A plan maps job
  keys to fault specs (raise / crash / hang / fail-N-times-then-succeed) and
  travels to the workers with the job payloads, so tests can exercise every
  recovery path -- quarantine, retry, pool rebuild, timeout -- on chosen
  jobs without any real infrastructure failing.

Determinism notes.  Failure *identity* (which jobs fail, with which phase,
exception type and message) is deterministic for a given fault plan and
retry budget, independent of worker count; attempt counts and elapsed times
are telemetry and may legitimately vary with chunking, so adopters building
dataset records from failures should use :meth:`JobFailure.summary`, which
carries only the deterministic fields.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: The phases a failure can be detected in.
PHASE_WORKER = "worker"  # the worker function raised
PHASE_TIMEOUT = "timeout"  # the job exceeded its per-job timeout
PHASE_WORKER_DEATH = "worker_death"  # the worker process died mid-job


@dataclass
class JobFailure:
    """Why one job failed: picklable and worker-count-invariant."""

    phase: str  # PHASE_WORKER | PHASE_TIMEOUT | PHASE_WORKER_DEATH
    exception_type: str = ""
    message: str = ""
    traceback: str = ""

    def summary(self) -> dict:
        """The deterministic subset adopters may embed in dataset records.

        Excludes the traceback (frame text is an implementation detail) --
        only the fields that are stable for a given fault across worker
        counts, chunk sizes and retry schedules.
        """
        return {
            "phase": self.phase,
            "exception_type": self.exception_type,
            "message": self.message,
        }

    def render(self) -> str:
        return f"[{self.phase}] {self.exception_type}: {self.message}"


@dataclass
class JobOutcome:
    """The structured result of one job under ``on_error="quarantine"``.

    ``attempts`` counts the executions that were *charged* to the job (its
    own failures plus the final success); ``elapsed_s`` is the wall clock of
    the last execution.  Both are telemetry: equality ignores them, and the
    determinism contract covers ``ok`` / ``result`` / ``failure`` identity
    only.
    """

    ok: bool
    result: Any = None
    failure: Optional[JobFailure] = None
    attempts: int = field(default=1, compare=False)
    elapsed_s: float = field(default=0.0, compare=False)
    #: The original worker exception, when it survived pickling
    #: (``on_error="raise"`` re-raises it).
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )


class JobExecutionError(RuntimeError):
    """A job failed and its original exception could not be re-raised."""

    def __init__(self, failure: JobFailure):
        super().__init__(failure.render())
        self.failure = failure


class JobTimeoutError(JobExecutionError):
    """A job exceeded its per-job timeout ``max_attempts`` times."""


class WorkerCrashError(JobExecutionError):
    """A job killed its worker process ``max_attempts`` times."""


def raise_failure(outcome: JobOutcome) -> None:
    """Raise the exception ``on_error="raise"`` owes for a failed outcome."""
    assert outcome.failure is not None
    if outcome.exception is not None:
        raise outcome.exception
    if outcome.failure.phase == PHASE_TIMEOUT:
        raise JobTimeoutError(outcome.failure)
    if outcome.failure.phase == PHASE_WORKER_DEATH:
        raise WorkerCrashError(outcome.failure)
    raise JobExecutionError(outcome.failure)


# ---------------------------------------------------------------------- #
# fault injection
# ---------------------------------------------------------------------- #


class InjectedFault(RuntimeError):
    """The exception :class:`FaultPlan` raises for "raise"-kind faults."""


#: Fault kinds a plan can inject.
FAULT_RAISE = "raise"  # raise InjectedFault inside the worker
FAULT_CRASH = "crash"  # os._exit: the worker process dies mid-job
FAULT_HANG = "hang"  # sleep far past any sane per-job timeout


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what to do, and on how many invocations."""

    kind: str  # FAULT_RAISE | FAULT_CRASH | FAULT_HANG
    #: Fault only the first ``times`` invocations of the job (a flake that
    #: then succeeds); ``None`` faults every invocation (a hard failure
    #: that can only be quarantined).
    times: Optional[int] = None
    #: How long a "hang" sleeps -- far above any per-job timeout under test.
    hang_seconds: float = 3600.0


def default_fault_key(job: Any) -> str:
    """The default job key: ``job.name``, ``job.case_name`` or ``str(job)``."""
    for attribute in ("name", "case_name"):
        value = getattr(job, attribute, None)
        if isinstance(value, str):
            return value
    return str(job)


class FaultPlan:
    """Deterministic fault injection for chosen jobs.

    A plan is constructed with a scratch directory (the cross-process
    invocation counters live there, appended atomically, so "fail the first
    N invocations" holds across retries that land in different worker
    processes) and a picklable ``key_fn`` mapping a job to its key
    (:func:`default_fault_key` covers named jobs).  The plan itself is
    picklable and rides to the workers inside the executor's payloads.

    Because fault selection is keyed by job identity -- never by worker id,
    submission order or wall clock -- the same plan faults the same jobs at
    the same invocations for every worker count, which is what lets the
    recovery tests assert byte-identical unaffected results.
    """

    def __init__(
        self,
        root: Path | str,
        key_fn: Callable[[Any], str] = default_fault_key,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.key_fn = key_fn
        self.faults: dict[str, FaultSpec] = {}

    def inject(
        self,
        key: str,
        kind: str,
        times: Optional[int] = None,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Plan a fault for the job whose key is ``key``; returns ``self``."""
        if kind not in (FAULT_RAISE, FAULT_CRASH, FAULT_HANG):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.faults[key] = FaultSpec(kind=kind, times=times, hang_seconds=hang_seconds)
        return self

    def _invocation(self, key: str) -> int:
        """Count this invocation of ``key`` (1-based), atomically on disk."""
        digest = hashlib.sha256(key.encode()).hexdigest()
        path = self.root / f"{digest}.calls"
        with open(path, "ab") as stream:
            stream.write(b"x")
            return stream.tell()

    def maybe_fault(self, job: Any) -> None:
        """Fire the planned fault for ``job``'s current invocation, if any.

        Called by the executor immediately before the worker function; jobs
        without a planned fault pay one dict lookup and nothing else.
        """
        spec = self.faults.get(self.key_fn(job))
        if spec is None:
            return
        invocation = self._invocation(self.key_fn(job))
        if spec.times is not None and invocation > spec.times:
            return
        if spec.kind == FAULT_RAISE:
            raise InjectedFault(
                f"injected fault for {self.key_fn(job)!r} (invocation {invocation})"
            )
        if spec.kind == FAULT_CRASH:
            os._exit(23)
        time.sleep(spec.hang_seconds)

"""Span-based tracing: nested monotonic timings that cost nothing when off.

One :class:`Tracer` holds the spans of one run.  A span is opened with
``tracer.span(name, **attrs)`` as a context manager; nesting follows the
``with`` structure, and every span records its wall-clock window on the
process-shared monotonic clock (:func:`time.perf_counter`), so spans from
worker processes land on the same timeline as the orchestrator's.

Three design rules keep the tracer out of the data path:

* **disabled tracing is free** -- the default ambient tracer is the
  singleton :data:`NULL_TRACER`, whose ``span`` returns a reusable no-op
  context manager (no allocation, no clock reads), so instrumented code
  never needs an ``if traced:`` guard;
* **spans are out of band** -- nothing a span records may flow back into
  content keys, datasets or reports; the byte-identity tests pin this;
* **worker spans piggyback** -- code running inside a
  :func:`repro.runtime.run_jobs` worker traces into a per-job buffer that
  ships back with the job's result and is re-based onto the orchestrator
  tracer's epoch (:meth:`Tracer.absorb`), so one trace file covers every
  process of a run.

Export formats: JSONL (schema :data:`TRACE_SCHEMA`, one object per line,
round-tripped by :func:`write_trace` / :func:`read_trace`) and the Chrome
trace-event JSON that Perfetto / ``chrome://tracing`` load directly
(:func:`chrome_trace_events` / :func:`write_chrome_trace`).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

#: Bumped whenever a trace line's shape changes incompatibly.
TRACE_SCHEMA = "repro_trace/v1"

#: Environment variable naming a trace output path; the fallback when a
#: run names no trace path of its own (an explicit path wins).
TRACE_ENV = "REPRO_TRACE"


def resolve_trace_path(explicit: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The trace path to use: the explicit path, else ``REPRO_TRACE``, else None."""
    if explicit:
        return str(explicit)
    env = os.environ.get(TRACE_ENV, "").strip()
    return env or None


def host_metadata(workers: Optional[int] = None) -> dict:
    """The host facts every trace and BENCH file is stamped with.

    A "0.93x speedup" means something entirely different on a 1-core
    container than on an 8-core workstation; stamping cpu count, platform
    and interpreter into every artefact makes the numbers attributable.
    """
    meta = {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if workers is not None:
        meta["workers"] = workers
    return meta


@dataclass
class Span:
    """One finished span: a named wall-clock window with JSON-safe attrs."""

    name: str
    start_s: float  # seconds since the owning tracer's epoch
    duration_s: float
    pid: int
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "pid": self.pid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=str(payload["name"]),
            start_s=float(payload["start_s"]),
            duration_s=float(payload["duration_s"]),
            pid=int(payload["pid"]),
            attrs=dict(payload.get("attrs", {})),
        )


class _NullSpan:
    """The reusable no-op span: enter/exit/set all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A singleton (:data:`NULL_TRACER`) is the ambient default, so untraced
    runs pay one attribute lookup and one call per instrumentation point --
    no allocation, no clock read, no branching in the instrumented code.
    """

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attrs) -> None:
        pass

    def absorb(self, spans: Sequence[Span], **attrs) -> None:
        pass


NULL_TRACER = NullTracer()


class _LiveSpan:
    """An open span; appended to its tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_LiveSpan":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._tracer._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        tracer.spans.append(
            Span(
                name=self.name,
                start_s=self._start - tracer.epoch,
                duration_s=end - self._start,
                pid=os.getpid(),
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """A collecting tracer: spans relative to a monotonic epoch.

    ``epoch=None`` (the default) anchors the timeline at construction time.
    Worker-side job tracers use ``epoch=0.0`` so their spans carry absolute
    :func:`time.perf_counter` values; :meth:`absorb` re-bases those onto
    this tracer's epoch when the buffers ship back (on Linux the monotonic
    clock is system-wide, so the merged timeline is coherent across
    processes).
    """

    enabled = True

    def __init__(self, epoch: Optional[float] = None):
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.spans: list[Span] = []
        self._stack: list[_LiveSpan] = []

    def span(self, name: str, **attrs) -> _LiveSpan:
        return _LiveSpan(self, name, attrs)

    def annotate(self, **attrs) -> None:
        """Attach attrs to the innermost open span (no-op when none is open)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def absorb(self, spans: Sequence[Span], **attrs) -> None:
        """Merge spans recorded on the absolute clock (a worker's epoch-0
        tracer), re-based to this tracer's epoch, with ``attrs`` folded in."""
        for span in spans:
            merged = {**span.attrs, **attrs} if attrs else dict(span.attrs)
            self.spans.append(
                Span(
                    name=span.name,
                    start_s=span.start_s - self.epoch,
                    duration_s=span.duration_s,
                    pid=span.pid,
                    attrs=merged,
                )
            )


# ---------------------------------------------------------------------- #
# the ambient tracer
# ---------------------------------------------------------------------- #

_ACTIVE: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process's ambient tracer (:data:`NULL_TRACER` unless activated)."""
    return _ACTIVE


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` (None means disabled) and return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


# ---------------------------------------------------------------------- #
# persistence
# ---------------------------------------------------------------------- #


@dataclass
class TraceData:
    """One loaded trace file: the meta header, the spans, the final metrics."""

    meta: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def write_trace(
    path: Union[str, Path],
    tracer: Union[Tracer, NullTracer],
    metrics=None,
    meta: Optional[dict] = None,
) -> Path:
    """Write one run's trace as JSONL: a meta line, spans, a metrics line.

    ``metrics`` may be a :class:`~repro.obs.metrics.MetricsRegistry` (its
    snapshot is embedded) or an already-snapshotted dict.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    header = {"type": "meta", "schema": TRACE_SCHEMA, "host": host_metadata()}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(span.to_dict(), sort_keys=True) for span in tracer.spans)
    if metrics is not None:
        snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else dict(metrics)
        lines.append(json.dumps({"type": "metrics", "values": snapshot}, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_trace(path: Union[str, Path]) -> TraceData:
    """Load a JSONL trace file back into structured form."""
    data = TraceData()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "span":
            data.spans.append(Span.from_dict(record))
        elif kind == "meta":
            data.meta = {k: v for k, v in record.items() if k != "type"}
        elif kind == "metrics":
            data.metrics = record.get("values", {})
    return data


def chrome_trace_events(spans: Sequence[Span]) -> list[dict]:
    """Spans as Chrome trace-event dicts (complete "X" events, µs units).

    Nesting is inferred by the viewer from time containment within each
    (pid, tid) track; worker processes appear as their own tracks.
    """
    return [
        {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(span.start_s * 1e6, 1),
            "dur": round(span.duration_s * 1e6, 1),
            "pid": span.pid,
            "tid": span.pid,
            "args": span.attrs,
        }
        for span in spans
    ]


def write_chrome_trace(path: Union[str, Path], spans: Sequence[Span]) -> Path:
    """Write a Perfetto-loadable Chrome trace JSON file for ``spans``."""
    path = Path(path)
    payload = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return path

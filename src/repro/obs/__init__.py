"""repro.obs -- zero-dependency observability: tracing, metrics, reports.

Three parts, stdlib-only:

* :mod:`repro.obs.trace` -- span tracer (``Tracer.span(name, **attrs)``
  context managers, nested monotonic timings, a no-op :data:`NULL_TRACER`
  ambient default so disabled tracing costs nothing), with JSONL and
  Chrome-trace-event (Perfetto-loadable) export.  Worker-process spans are
  buffered per job and shipped back piggybacked on
  :func:`repro.runtime.run_jobs` chunk results.
* :mod:`repro.obs.metrics` -- ambient counter/gauge/histogram registry
  recording what spans cannot show: cache traffic, retries, timeouts,
  quarantines, pool rebuilds, per-engine SVA fallback counts, verifier
  phase durations.
* :mod:`repro.obs.report` -- renders a trace file into a human run report
  (per-stage table, top-N slowest jobs, engine fallback rates, fault
  summary); ``python -m repro.obs summarize <trace>`` is the CLI.

Everything here is out-of-band telemetry: no span or metric may flow into
content keys, dataset records or evaluation reports -- datasets and eval
summaries are byte-identical with tracing on or off, which the test suite
pins end to end.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    labeled,
    scoped_registry,
    set_registry,
    split_label,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_ENV,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    TraceData,
    Tracer,
    chrome_trace_events,
    get_tracer,
    host_metadata,
    read_trace,
    resolve_trace_path,
    set_tracer,
    write_chrome_trace,
    write_trace,
)


class phase:
    """Span + duration histogram in one: ``with phase("verify.compile"):``.

    Opens a span named ``name`` on the ambient tracer and records the block
    duration into the ambient registry's ``<name>_s`` histogram, so phase
    timings survive even in aggregate-only views.  With the null tracer the
    span side is free; the histogram is one clock read and a dict update.
    """

    __slots__ = ("name", "attrs", "_span", "_start")

    def __init__(self, name: str, **attrs):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self._span = get_tracer().span(self.name, **self.attrs)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        get_registry().observe(self.name + "_s", time.perf_counter() - self._start)
        return self._span.__exit__(exc_type, exc, tb)


def annotate(**attrs) -> None:
    """Attach attrs to the ambient tracer's innermost open span."""
    get_tracer().annotate(**attrs)


@contextmanager
def traced_run(trace_path: Optional[str], name: str, **attrs: Any) -> Iterator[Optional[str]]:
    """Run one component (pipeline, eval harness, CLI) under its root span ``name``.

    Joins an enabled ambient tracer when there is one: the root span opens
    on it and whoever installed it writes the file (the eval CLI merges
    pipeline + eval into one trace this way).  Otherwise ``trace_path`` /
    ``REPRO_TRACE`` make the block own a fresh ambient tracer and metrics
    registry and write the file, stamped ``meta={"kind": name}``, on exit;
    with neither the block runs untraced.  Yields the path the block will
    write, or None.  Telemetry only: never part of any output.
    """
    tracer = get_tracer()
    owned_path = None if tracer.enabled else resolve_trace_path(trace_path)
    if owned_path:
        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
        previous_registry = set_registry(MetricsRegistry())
    try:
        with tracer.span(name, **attrs):
            yield owned_path
    finally:
        if owned_path:
            registry = set_registry(previous_registry)
            set_tracer(previous_tracer)
            write_trace(owned_path, tracer, metrics=registry, meta={"kind": name})


__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "TraceData",
    "Tracer",
    "annotate",
    "chrome_trace_events",
    "get_registry",
    "get_tracer",
    "host_metadata",
    "labeled",
    "phase",
    "read_trace",
    "resolve_trace_path",
    "scoped_registry",
    "set_registry",
    "set_tracer",
    "split_label",
    "traced_run",
    "write_chrome_trace",
    "write_trace",
]

"""Render a trace file into the human run report.

The report answers the questions the raw JSONL cannot at a glance: where
did the wall clock go (per-stage span table), which individual jobs were
slow (top-N), did the cache help (hit rates), which SVA engine actually
ran each assertion and why the attempt tensor refused any (fallback
reasons), and what the fault machinery did (retries / timeouts /
quarantines / pool rebuilds).  ``python -m repro.obs summarize <trace>``
prints it.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.obs.metrics import split_label
from repro.obs.trace import Span, TraceData

#: Counters rendered in the dedicated cache / engine / fault sections
#: (everything else lands under "other counters").
_CACHE_COUNTERS = (
    "runtime.cache.hits",
    "runtime.cache.misses",
    "runtime.cache.corrupt_entries",
    "runtime.cache.stale_tmp_swept",
    "eval.verdict_cache.hits",
    "eval.verdict_cache.misses",
    "eval.memo.hits",
    "artifact.hits",
    "artifact.misses",
    "artifact.evictions",
    "artifact.disk.hits",
    "artifact.disk.misses",
    "relower.nodes_reused",
    "relower.nodes_lowered",
    "relower.assertions_reused",
)
_ENGINE_COUNTERS = (
    "sva.lower.tensor",
    "sva.lower.tree_walker",
    "sva.check.attempt_tensor",
    "sva.check.tree_walker",
)
_FAULT_COUNTERS = (
    "runtime.retries",
    "runtime.timeouts",
    "runtime.quarantined",
    "runtime.pool_rebuilds",
)


def _fmt_seconds(value: float) -> str:
    return f"{value:10.4f}"


def _span_table(spans: Sequence[Span]) -> list[str]:
    aggregates: dict[str, dict] = {}
    for span in spans:
        entry = aggregates.setdefault(
            span.name, {"count": 0, "total": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["total"] += span.duration_s
        entry["max"] = max(entry["max"], span.duration_s)
    width = max((len(name) for name in aggregates), default=4)
    lines = [
        f"  {'span':<{width}}  {'count':>6}  {'total_s':>10}  {'mean_s':>10}  {'max_s':>10}"
    ]
    for name, entry in sorted(
        aggregates.items(), key=lambda item: item[1]["total"], reverse=True
    ):
        mean = entry["total"] / entry["count"]
        lines.append(
            f"  {name:<{width}}  {entry['count']:>6}"
            f"  {_fmt_seconds(entry['total'])}  {_fmt_seconds(mean)}  {_fmt_seconds(entry['max'])}"
        )
    return lines


def _slowest_jobs(spans: Sequence[Span], top: int) -> list[str]:
    jobs = [span for span in spans if span.name == "job"]
    pool = jobs if jobs else list(spans)
    ranked = sorted(pool, key=lambda span: span.duration_s, reverse=True)[:top]
    lines = []
    for span in ranked:
        attrs = " ".join(f"{key}={value}" for key, value in sorted(span.attrs.items()))
        suffix = f"  {attrs}" if attrs else ""
        lines.append(
            f"  {span.duration_s:9.4f}s  {span.name}  pid={span.pid}{suffix}"
        )
    return lines


def _hit_rate(hits: Union[int, float], misses: Union[int, float]) -> str:
    total = hits + misses
    if not total:
        return "n/a"
    return f"{100.0 * hits / total:.1f}%"


def render_report(data: TraceData, top: int = 10) -> str:
    """The full human run report for one loaded trace."""
    counters = dict(data.metrics.get("counters", {}))
    histograms = data.metrics.get("histograms", {})
    gauges = data.metrics.get("gauges", {})

    lines = [f"run report — {data.meta.get('schema', 'unknown schema')}"]
    host = data.meta.get("host", {})
    if host:
        parts = [f"{host.get('cpu_count', '?')} cpu", str(host.get("platform", "?"))]
        parts.append(f"python {host.get('python', '?')}")
        if "workers" in host:
            parts.append(f"workers {host['workers']}")
        lines.append("host: " + " · ".join(parts))
    extra_meta = {
        key: value
        for key, value in data.meta.items()
        if key not in ("schema", "host")
    }
    for key, value in sorted(extra_meta.items()):
        lines.append(f"{key}: {value}")

    if data.spans:
        lines += ["", f"stages ({len(data.spans)} spans):"]
        lines += _span_table(data.spans)
        lines += ["", f"slowest jobs (top {top}):"]
        lines += _slowest_jobs(data.spans, top)
    else:
        lines += ["", "stages: no spans recorded"]

    consumed: set = set()

    cache_lines = []
    hits = counters.get("runtime.cache.hits", 0)
    misses = counters.get("runtime.cache.misses", 0)
    if hits or misses:
        cache_lines.append(
            f"  result cache: {hits} hits · {misses} misses"
            f" · hit rate {_hit_rate(hits, misses)}"
        )
    corrupt = counters.get("runtime.cache.corrupt_entries", 0)
    swept = counters.get("runtime.cache.stale_tmp_swept", 0)
    if corrupt or swept:
        cache_lines.append(
            f"  corrupt entries {corrupt} · stale tmp files swept {swept}"
        )
    vhits = counters.get("eval.verdict_cache.hits", 0)
    vmisses = counters.get("eval.verdict_cache.misses", 0)
    memo = counters.get("eval.memo.hits", 0)
    if vhits or vmisses or memo:
        cache_lines.append(
            f"  verdict cache: {vhits} hits · {vmisses} misses"
            f" · hit rate {_hit_rate(vhits, vmisses)} · in-memory memo hits {memo}"
        )
    ahits = counters.get("artifact.hits", 0)
    amisses = counters.get("artifact.misses", 0)
    evictions = counters.get("artifact.evictions", 0)
    if ahits or amisses:
        cache_lines.append(
            f"  artifact cache: {ahits} hits · {amisses} misses"
            f" · hit rate {_hit_rate(ahits, amisses)} · evictions {evictions}"
        )
    dhits = counters.get("artifact.disk.hits", 0)
    dmisses = counters.get("artifact.disk.misses", 0)
    if dhits or dmisses:
        cache_lines.append(
            f"  artifact disk tier: {dhits} hits · {dmisses} misses"
            f" · hit rate {_hit_rate(dhits, dmisses)}"
        )
    reused = counters.get("relower.nodes_reused", 0)
    relowered = counters.get("relower.nodes_lowered", 0)
    specs_reused = counters.get("relower.assertions_reused", 0)
    if reused or relowered or specs_reused:
        cache_lines.append(
            f"  relowering: {reused} nodes reused · {relowered} nodes relowered"
            f" · {specs_reused} assertions reused"
        )
    if cache_lines:
        lines += ["", "caches:"] + cache_lines
    consumed.update(_CACHE_COUNTERS)

    engine_totals = {
        engine: counters.get(f"sva.lower.{engine}", 0)
        for engine in ("tensor", "tree_walker")
    }
    fallbacks = {
        label: value
        for key, value in counters.items()
        for name, label in (split_label(key),)
        if name == "sva.fallback" and label is not None
    }
    consumed.update(key for key in counters if split_label(key)[0] == "sva.fallback")
    consumed.update(_ENGINE_COUNTERS)
    checks = {
        engine: counters.get(f"sva.check.{engine}", 0)
        for engine in ("attempt_tensor", "tree_walker")
    }
    if any(engine_totals.values()) or fallbacks or any(checks.values()):
        lines += ["", "sva engines (assertions lowered):"]
        lines.append(
            "  " + " · ".join(f"{k} {v}" for k, v in engine_totals.items())
        )
        if any(checks.values()):
            lines.append(
                "  checked: "
                + " · ".join(f"{k} {v}" for k, v in checks.items())
            )
        if fallbacks:
            lines.append("  tree-walker fallback reasons:")
            for label, value in sorted(
                fallbacks.items(), key=lambda item: (-item[1], item[0])
            ):
                lines.append(f"    {value:>4}  {label}")

    analyze_counters = {
        key: value for key, value in sorted(counters.items()) if key.startswith("analyze.")
    }
    consumed.update(analyze_counters)
    consumed.add("stage2.cone_skips")
    if analyze_counters or counters.get("stage2.cone_skips", 0):
        lines += ["", "static analysis:"]
        skips = counters.get("analyze.cone.skip", 0)
        overlaps = counters.get("analyze.cone.overlap", 0)
        if skips or overlaps:
            lines.append(
                f"  verifier screen: {skips} cone skips · {overlaps} cone overlaps"
            )
        stage2_skips = counters.get("stage2.cone_skips", 0)
        if stage2_skips:
            lines.append(f"  stage2 mutants classified without simulation: {stage2_skips}")
        pass_counts = {
            key[len("analyze.pass."):]: value
            for key, value in analyze_counters.items()
            if key.startswith("analyze.pass.")
        }
        if pass_counts:
            lines.append("  pass diagnostics:")
            for pass_id, value in sorted(
                pass_counts.items(), key=lambda item: (-item[1], item[0])
            ):
                lines.append(f"    {value:>4}  {pass_id}")

    fault_values = {name: counters.get(name, 0) for name in _FAULT_COUNTERS}
    consumed.update(_FAULT_COUNTERS)
    if any(fault_values.values()):
        lines += ["", "faults:"]
        lines.append(
            f"  retries {fault_values['runtime.retries']}"
            f" · timeouts {fault_values['runtime.timeouts']}"
            f" · quarantined {fault_values['runtime.quarantined']}"
            f" · pool rebuilds {fault_values['runtime.pool_rebuilds']}"
        )
        failure_phases = {
            label: value
            for key, value in counters.items()
            for name, label in (split_label(key),)
            if name == "runtime.failure" and label is not None
        }
        consumed.update(
            key for key in counters if split_label(key)[0] == "runtime.failure"
        )
        for label, value in sorted(failure_phases.items()):
            lines.append(f"  failed during {label}: {value}")

    if histograms:
        width = max(len(name) for name in histograms)
        lines += ["", "phase durations:"]
        lines.append(
            f"  {'phase':<{width}}  {'count':>6}  {'total_s':>10}  {'mean_s':>10}"
            f"  {'min_s':>10}  {'max_s':>10}"
        )
        for name, agg in sorted(
            histograms.items(), key=lambda item: item[1]["sum"], reverse=True
        ):
            mean = agg["sum"] / agg["count"] if agg["count"] else 0.0
            lines.append(
                f"  {name:<{width}}  {agg['count']:>6}"
                f"  {_fmt_seconds(agg['sum'])}  {_fmt_seconds(mean)}"
                f"  {_fmt_seconds(agg['min'])}  {_fmt_seconds(agg['max'])}"
            )

    other = {
        key: value for key, value in sorted(counters.items()) if key not in consumed
    }
    if other:
        lines += ["", "other counters:"]
        for key, value in other.items():
            lines.append(f"  {key}: {value}")
    if gauges:
        lines += ["", "gauges:"]
        for key, value in sorted(gauges.items()):
            lines.append(f"  {key}: {value}")

    return "\n".join(lines) + "\n"


def summarize_path(path, top: int = 10) -> str:
    """Convenience wrapper: load a trace file and render its report."""
    from repro.obs.trace import read_trace

    return render_report(read_trace(path), top=top)


__all__ = ["render_report", "summarize_path"]

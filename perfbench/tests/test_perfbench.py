"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from layers import (  # noqa: E402
    FAMILY_BUILD,
    OPERATION,
    PER_LAYER,
    PROBES,
    SpanRecorder,
    layer_table,
    patched_probes,
    per_layer_metrics,
    resolve,
    self_times,
)
from measure import END_TO_END, REFERENCE_S, HostClock, percentile  # noqa: E402
from repro.corpus.templates import all_families  # noqa: E402
from repro.obs import MetricsRegistry, Span, Tracer, scoped_registry  # noqa: E402
from run import diagnostics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _specs(entries):
    return [(entry["name"], entry["unit"], entry["better"]) for entry in entries]


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _specs(declared["end_to_end"]) == [(m.name, m.unit, m.better) for m in END_TO_END]
    assert _specs(declared["per_layer"]) == [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def _span(name, start, duration, span_id, parent):
    return Span(name, start, duration, pid=1, attrs={"op": "x", "id": span_id, "parent": parent})


def test_self_time_of_a_synthetic_span_tree():
    #   operation [0, 10)
    #     a [1, 5)      -> b [2, 4)
    #     a [6, 9)      -> b [6, 7), c [7.5, 8.5)
    spans = [
        _span("b", 2.0, 2.0, 3, 2),
        _span("a", 1.0, 4.0, 2, 1),
        _span("b", 6.0, 1.0, 5, 4),
        _span("c", 7.5, 1.0, 6, 4),
        _span("a", 6.0, 3.0, 4, 1),
        _span(OPERATION, 0.0, 10.0, 1, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0, 6: 1.0})
    rows, unattributed = layer_table(spans, timed_s=12.0)
    assert [(row.layer, row.calls) for row in rows] == [("b", 2), ("a", 2), ("c", 1)]
    assert {row.layer: row.self_s for row in rows} == pytest.approx({"a": 3.0, "b": 3.0, "c": 1.0})
    # 3 s of the operation's own time plus 2 s outside any operation.
    assert unattributed == pytest.approx(5.0)


def test_percentile_rule_refuses_p90_below_100_samples():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_host_clock_scales_by_nearby_reference_samples():
    clock = HostClock()
    # The host ran the loop at twice the reference time around [10, 11),
    # once inside it, and at the reference time around [100, 101).
    clock.starts = [9.6, 10.5, 11.2, 100.5]
    clock.durations = [2 * REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    assert clock.corrected(10.0, 11.0) == pytest.approx((1.0 - 2 * REFERENCE_S) / 2)
    assert clock.corrected(100.0, 101.0) == pytest.approx(1.0 - REFERENCE_S)
    # No sample within the window: the next one sets the speed.
    assert clock.corrected(50.0, 51.0) == pytest.approx(1.0)
    clock = HostClock()
    with clock.running():
        time.sleep(0.35)
    assert len(clock.starts) >= 3 and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_at_tiny_scale(name, monkeypatch):
    import workloads

    families = workloads.all_families()[:8]
    monkeypatch.setattr(workloads, "all_families", lambda: families)
    workload = WORKLOADS[name]
    if name == "solve":
        monkeypatch.setattr(workload, "min_cases", 1)
    clock = HostClock()
    state = workload.setup(7)
    with clock.running():
        untraced = workload.run(state, 0.0, clock)
    if hasattr(workload, "check_outputs"):
        workload.check_outputs(state, untraced)
    assert untraced.problems == []
    assert untraced.failed == 0 and untraced.ops > 0 and untraced.attempted >= untraced.ops
    assert untraced.ops_per_s > 0 and len(untraced.latencies_ms()) == len(untraced.requests)

    originals = _patch_targets()
    state = workload.setup(7)
    tracer = Tracer()
    recorder = SpanRecorder(tracer)
    with scoped_registry(MetricsRegistry()) as registry:
        with patched_probes(recorder), clock.running():
            traced = workload.run(state, 0.0, clock, recorder)
    assert _patch_targets() == originals
    assert traced.digests[:1] == untraced.digests[:1]
    assert {span.attrs["op"] for span in tracer.spans if "op" in span.attrs} != {""}

    rows, unattributed = layer_table(tracer.spans, traced.elapsed_s)
    assert 0 <= unattributed < traced.elapsed_s
    values = per_layer_metrics(rows, unattributed, registry.snapshot(), diagnostics(untraced), 0.0)
    assert sorted(values) == sorted(spec.name for spec in PER_LAYER)
    if name == "augment":
        # The corpus layer covers the specs and the golden designs that
        # the benchmark builds inside each timed request.
        corpus_calls = {span.attrs["fn"] for span in tracer.spans if span.name == "corpus"}
        templates = {family.build.__qualname__ for family in families}
        assert {"build_spec", "SyntaxCorruptor.corrupt"} <= corpus_calls
        assert templates <= corpus_calls and FAMILY_BUILD.layer == "corpus"
        assert values["corpus.busy_s"] > 0


def _patch_targets():
    """Every object the probes replace, so a test can see them restored."""
    functions = [vars(owner)[attr] for owner, attr in (resolve(p.target) for p in PROBES)]
    return functions + [family.build for family in all_families()]

"""Observability tests: span tracing, metrics, worker telemetry shipping,
fault counters, cache stats, engine-choice recording, the run-report CLI --
and the contract that makes all of it safe: datasets and eval reports are
byte-identical with tracing on or off."""

import json
import os
import time
from dataclasses import replace

import pytest

from repro.corpus.generator import CorpusGenerator
from repro.dataaug.datasets import SvaBugEntry
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.dataaug.stage1 import run_stage1
from repro.dataaug.stage2 import Stage2Result, Stage2Runner
from repro.eval.harness import EvalConfig, EvalHarness
from repro.hdl.lint import compile_source
from repro.model.assertsolver_model import AssertSolverModel
from repro.model.response import RepairEngine
from repro.obs import (
    NULL_TRACER,
    TRACE_SCHEMA,
    MetricsRegistry,
    Tracer,
    annotate,
    get_tracer,
    labeled,
    phase,
    read_trace,
    resolve_trace_path,
    scoped_registry,
    set_tracer,
    split_label,
    write_chrome_trace,
    write_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.runtime import (
    FAULT_HANG,
    FAULT_RAISE,
    FaultPlan,
    JobPolicy,
    ResultCache,
    content_key,
    run_jobs,
)
from repro.runtime.faults import PHASE_WORKER
from repro.sim.engine import Simulator
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import (
    insert_assertions,
    mine_assertions,
    template_assertion_blocks,
)


@pytest.fixture(autouse=True)
def _ambient_restored():
    """No test may leak an ambient tracer into the rest of the suite."""
    previous = get_tracer()
    yield
    set_tracer(previous)


def dataset_bytes(datasets) -> str:
    """Canonical byte-level snapshot of all four splits + statistics."""
    return json.dumps(
        {
            "verilog_pt": [vars(entry) for entry in datasets.verilog_pt],
            "verilog_bug": [entry.to_dict() for entry in datasets.verilog_bug],
            "sva_bug_train": [entry.to_dict() for entry in datasets.sva_bug_train],
            "sva_eval_machine": [entry.to_dict() for entry in datasets.sva_eval_machine],
            "statistics": vars(datasets.statistics),
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------- #
# worker functions (module-level so they pickle)
# ---------------------------------------------------------------------- #


def tag_and_double(job):
    annotate(tag=f"t{job}")
    return job * 2


def stamp(job):
    return {"job": job, "ok": True}


# ---------------------------------------------------------------------- #
# the tracer and its persistence
# ---------------------------------------------------------------------- #


def test_tracer_nesting_and_jsonl_roundtrip(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", kind="test"):
        with tracer.span("inner") as inner:
            inner.set(extra=3)
        tracer.annotate(late=True)  # lands on the still-open outer span
    registry = MetricsRegistry()
    registry.inc("c", 2)
    registry.observe("h_s", 0.5)

    path = write_trace(tmp_path / "t.jsonl", tracer, metrics=registry, meta={"kind": "x"})
    data = read_trace(path)

    assert data.meta["schema"] == TRACE_SCHEMA
    assert data.meta["kind"] == "x"
    assert {"cpu_count", "platform", "python"} <= set(data.meta["host"])
    # Spans close inner-first; attrs and nesting windows survive the roundtrip.
    assert [span.name for span in data.spans] == ["inner", "outer"]
    inner_span, outer_span = data.spans
    assert inner_span.attrs == {"extra": 3}
    assert outer_span.attrs == {"kind": "test", "late": True}
    assert outer_span.start_s <= inner_span.start_s
    assert outer_span.duration_s >= inner_span.duration_s
    assert all(span.pid == os.getpid() for span in data.spans)
    assert data.metrics["counters"] == {"c": 2}
    assert data.metrics["histograms"]["h_s"]["count"] == 1


def test_chrome_trace_export_is_loadable_json(tmp_path):
    tracer = Tracer()
    with tracer.span("stage", n=1):
        pass
    path = write_chrome_trace(tmp_path / "t.chrome.json", tracer.spans)
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    (event,) = payload["traceEvents"]
    assert event["ph"] == "X" and event["name"] == "stage"
    assert event["args"] == {"n": 1}
    assert event["dur"] >= 0 and event["pid"] == event["tid"]


def test_null_tracer_is_the_free_ambient_default():
    assert get_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled and NULL_TRACER.spans == ()
    # One reusable no-op span: no allocation per instrumentation point.
    assert NULL_TRACER.span("a", x=1) is NULL_TRACER.span("b")
    with NULL_TRACER.span("c") as span:
        span.set(ignored=True)
    NULL_TRACER.annotate(ignored=True)
    NULL_TRACER.absorb([], job=0)
    assert NULL_TRACER.spans == ()


def test_resolve_trace_path_prefers_explicit_over_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert resolve_trace_path(None) is None
    monkeypatch.setenv("REPRO_TRACE", "/tmp/env.jsonl")
    assert resolve_trace_path(None) == "/tmp/env.jsonl"
    assert resolve_trace_path("/tmp/flag.jsonl") == "/tmp/flag.jsonl"


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def test_metrics_merge_is_exact():
    left, right = MetricsRegistry(), MetricsRegistry()
    left.inc("jobs", 3)
    right.inc("jobs", 4)
    left.set_gauge("workers", 1)
    right.set_gauge("workers", 8)
    for value in (0.5, 1.5):
        left.observe("wall_s", value)
    right.observe("wall_s", 4.0)

    left.merge(right.snapshot())
    assert left.counter("jobs") == 7
    assert left.gauges["workers"] == 8  # gauges take the incoming value
    assert left.histograms["wall_s"] == {"count": 3, "sum": 6.0, "min": 0.5, "max": 4.0}


def test_labeled_metric_keys_roundtrip():
    key = labeled("sva.fallback", "width 64\nexceeds limit")
    assert key == "sva.fallback[width 64 exceeds limit]"
    assert split_label(key) == ("sva.fallback", "width 64 exceeds limit")
    assert split_label("plain.counter") == ("plain.counter", None)


def test_phase_records_span_and_duration_histogram():
    tracer = Tracer()
    set_tracer(tracer)
    with scoped_registry() as registry:
        with phase("verify.compile", case="x"):
            pass
    (span,) = tracer.spans
    assert span.name == "verify.compile" and span.attrs == {"case": "x"}
    assert registry.histograms["verify.compile_s"]["count"] == 1


# ---------------------------------------------------------------------- #
# worker telemetry ships through run_jobs
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_spans_ship_back_through_run_jobs(workers):
    tracer = Tracer()
    set_tracer(tracer)
    with scoped_registry():
        results = run_jobs(list(range(6)), tag_and_double, JobPolicy(workers=workers))
    assert results == [0, 2, 4, 6, 8, 10]

    run_span = next(span for span in tracer.spans if span.name == "run_jobs")
    assert run_span.attrs["jobs"] == 6
    job_spans = sorted(
        (span for span in tracer.spans if span.name == "job"),
        key=lambda span: span.attrs["job"],
    )
    assert [span.attrs["job"] for span in job_spans] == list(range(6))
    # Worker-side ambient annotate() lands on the shipped job span, and the
    # re-based timeline keeps every job inside the run_jobs window.
    for span in job_spans:
        assert span.attrs["tag"] == f"t{span.attrs['job']}"
        assert span.attrs["ok"] is True
        assert span.start_s >= run_span.start_s - 1e-6


def test_retry_and_quarantine_counters_match_the_fault_plan(tmp_path):
    jobs = [f"job_{i}" for i in range(6)]
    plan = (
        FaultPlan(tmp_path / "plan")
        .inject("job_1", FAULT_RAISE, times=2)  # recovers on the third attempt
        .inject("job_4", FAULT_RAISE)  # every attempt fails -> quarantined
    )
    with scoped_registry() as registry:
        outcomes = run_jobs(
            jobs, stamp, JobPolicy(on_error="quarantine", max_attempts=3, faults=plan)
        )
    assert outcomes[1].ok and outcomes[1].attempts == 3
    assert not outcomes[4].ok and outcomes[4].attempts == 3
    # retries == sum(attempts - 1) over all jobs; exactly the JobOutcome view.
    assert registry.counter("runtime.retries") == sum(o.attempts - 1 for o in outcomes)
    assert registry.counter("runtime.quarantined") == sum(not o.ok for o in outcomes)
    assert registry.counter(labeled("runtime.failure", PHASE_WORKER)) == 1


def test_timeout_counter_matches_the_fault_plan(tmp_path):
    jobs = [f"job_{i}" for i in range(3)]
    plan = FaultPlan(tmp_path / "plan").inject("job_2", FAULT_HANG, hang_seconds=60.0)
    with scoped_registry() as registry:
        outcomes = run_jobs(
            jobs, stamp, JobPolicy(on_error="quarantine", timeout=0.5, faults=plan)
        )
    assert not outcomes[2].ok and outcomes[2].failure.exception_type == "JobTimeoutError"
    assert registry.counter("runtime.timeouts") == 1
    assert registry.counter("runtime.quarantined") == 1


# ---------------------------------------------------------------------- #
# byte-identity: telemetry never touches the data path
# ---------------------------------------------------------------------- #


def test_pipeline_datasets_identical_traced_or_untraced(tmp_path):
    untraced = DataAugmentationPipeline(PipelineConfig.small(seed=31, workers=1)).run()
    serial_trace = tmp_path / "serial.jsonl"
    pooled_trace = tmp_path / "pooled.jsonl"
    traced_serial = DataAugmentationPipeline(
        replace(PipelineConfig.small(seed=31, workers=1), trace_path=str(serial_trace))
    ).run()
    traced_pooled = DataAugmentationPipeline(
        replace(PipelineConfig.small(seed=31, workers=2), trace_path=str(pooled_trace))
    ).run()

    assert dataset_bytes(untraced) == dataset_bytes(traced_serial)
    assert dataset_bytes(untraced) == dataset_bytes(traced_pooled)

    data = read_trace(pooled_trace)
    names = {span.name for span in data.spans}
    assert {"pipeline", "pipeline.corpus", "pipeline.stage2", "run_jobs", "job"} <= names
    assert data.meta["kind"] == "pipeline"
    assert data.metrics["histograms"]["pipeline.stage2_s"]["count"] == 1


def test_eval_report_identical_traced_or_untraced(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=31)).run()
    assert datasets.sva_eval_machine
    config = EvalConfig(seed=2027, ks=(1, 2), verification_seeds=1)

    def summary_of(harness_config) -> str:
        model = AssertSolverModel(seed=31)
        report = EvalHarness(harness_config).run(model, datasets.sva_eval_machine)
        return json.dumps(report.summary(), sort_keys=True)

    plain = summary_of(config)
    flag_trace = tmp_path / "flag.jsonl"
    assert summary_of(replace(config, trace_path=str(flag_trace))) == plain
    data = read_trace(flag_trace)
    names = {span.name for span in data.spans}
    assert {"eval", "eval.propose", "eval.verify", "eval.score"} <= names
    assert data.meta["kind"] == "eval"

    # REPRO_TRACE is the env fallback: same report, trace written to the env path.
    env_trace = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(env_trace))
    assert summary_of(config) == plain
    assert env_trace.exists()
    assert {"eval", "verify.compile"} <= {s.name for s in read_trace(env_trace).spans}


def _within(inner, outer) -> bool:
    return (
        outer.start_s - 1e-6 <= inner.start_s
        and inner.start_s + inner.duration_s <= outer.start_s + outer.duration_s + 1e-6
    )


def test_eval_cli_writes_one_trace_file(tmp_path, monkeypatch):
    """The CLI's ``--trace`` owns the run's one tracer: the pipeline and the
    harness join it under their own roots, and neither resolves
    ``REPRO_TRACE`` into a second file."""
    from repro.eval.__main__ import main as eval_main

    flag_trace, env_trace = tmp_path / "flag.jsonl", tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(env_trace))
    code = eval_main([
        "--trace", str(flag_trace), "--stage", "base", "--verification-seeds", "1",
        "--workers", "1", "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert not env_trace.exists()
    data = read_trace(flag_trace)
    assert data.meta["kind"] == "eval_cli"
    roots = {name: [span for span in data.spans if span.name == name]
             for name in ("eval_cli", "pipeline", "eval")}
    assert {name: len(spans) for name, spans in roots.items()} == {
        "eval_cli": 1, "pipeline": 1, "eval": 1,
    }
    (cli,) = roots["eval_cli"]
    assert _within(roots["pipeline"][0], cli) and _within(roots["eval"][0], cli)


def test_traced_dpo_run_nests_the_training_phases_under_its_root(tmp_path, monkeypatch):
    """Each training stage is a native span of the CLI's trace, in recipe order."""
    from repro.eval.__main__ import main as eval_main

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    trace = tmp_path / "dpo.jsonl"
    code = eval_main([
        "--trace", str(trace), "--stage", "dpo", "--verification-seeds", "1",
        "--workers", "1", "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    data = read_trace(trace)
    (root,) = [span for span in data.spans if span.name == "eval_cli"]
    phases = ("model.pretrain", "model.sft", "model.mining", "model.dpo")
    spans = []
    for name in phases:
        (span,) = [span for span in data.spans if span.name == name]
        assert _within(span, root), name
        assert data.metrics["histograms"][f"{name}_s"]["count"] == 1
        spans.append(span)
    assert [span.start_s for span in spans] == sorted(span.start_s for span in spans)


def test_traced_component_joins_an_enabled_ambient_tracer(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    own_trace = tmp_path / "own.jsonl"
    tracer = Tracer()
    set_tracer(tracer)
    with tracer.span("outer"):
        DataAugmentationPipeline(
            replace(PipelineConfig.small(seed=31), trace_path=str(own_trace))
        ).run()
    assert not own_trace.exists()
    assert get_tracer() is tracer
    spans = {span.name: span for span in tracer.spans}
    assert {"pipeline", "pipeline.stage2", "run_jobs", "job"} <= set(spans)
    assert _within(spans["pipeline"], spans["outer"])


class _RaisingEngine(RepairEngine):
    """An engine whose proposal step fails mid-run."""

    name = "raising"

    def propose(self, case, samples=20, temperature=0.2, seed=0):
        raise RuntimeError("propose failed")

    def propose_topk(self, case, k=5, temperature=0.2):
        raise RuntimeError("propose failed")


def test_eval_propose_span_closes_when_the_engine_raises():
    entry = SvaBugEntry(
        name="case_a", design_name="d", family="f", origin="machine", spec="",
        golden_source="", buggy_source="module d; endmodule", logs="",
        failing_assertions=[], line_number=1, golden_line="", buggy_line="",
        edit_kind="op", is_conditional=False, is_direct=True,
    )
    tracer = Tracer()
    set_tracer(tracer)
    with pytest.raises(RuntimeError, match="propose failed"):
        EvalHarness(EvalConfig()).run(_RaisingEngine(), [entry])
    assert {"eval", "eval.propose"} <= {span.name for span in tracer.spans}
    assert tracer._stack == []


# ---------------------------------------------------------------------- #
# cache stats
# ---------------------------------------------------------------------- #


def test_result_cache_stats_and_counters(tmp_path):
    with scoped_registry() as registry:
        cache = ResultCache(tmp_path / "cache")
        key = content_key("stats", "v1")
        assert cache.get(key) is None  # cold miss
        cache.put(key, {"value": 7})
        assert cache.get(key) == {"value": 7}  # hit
        cache._path(key).write_text("{not json")  # truncated-write survivor
        assert cache.get(key) is None  # corrupt counts as miss + corrupt
    assert cache.stats() == {
        "hits": 1, "misses": 2, "corrupt_entries": 1, "stale_tmp_swept": 0,
    }
    assert registry.counter("runtime.cache.hits") == 1
    assert registry.counter("runtime.cache.misses") == 2
    assert registry.counter("runtime.cache.corrupt_entries") == 1


def test_result_cache_sweeps_stale_tmp_files(tmp_path):
    root = tmp_path / "cache"
    ResultCache(root)
    orphan = root / "de" / "ad" / "deadbeef.json.tmp999"
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("partial")
    ancient = time.time() - 2 * ResultCache.STALE_TMP_SECONDS
    os.utime(orphan, (ancient, ancient))
    fresh = orphan.with_name("cafef00d.json.tmp1000")
    fresh.write_text("live writer")  # recent: must never be raced

    reopened = ResultCache(root)
    assert not orphan.exists() and fresh.exists()
    assert reopened.stats()["stale_tmp_swept"] == 1


# ---------------------------------------------------------------------- #
# checker engine choices are recorded, never silent
# ---------------------------------------------------------------------- #


def _assertion_design():
    from repro.corpus.templates import all_families

    for family in all_families():
        artifact = family.build(f"obs_{family.name}", **family.parameter_grid[0])
        golden = compile_source(artifact.source)
        if not golden.ok or golden.design is None:
            continue
        trace = Simulator(golden.design).run(
            StimulusGenerator(golden.design, seed=1).mixed_stimulus(random_cycles=24).vectors
        )
        candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
        candidates.extend(mine_assertions(golden.design, trace, max_assertions=5))
        if not candidates:
            continue
        result = compile_source(insert_assertions(artifact.source, candidates))
        if result.ok and result.design is not None and result.design.assertions:
            return result.design
    raise RuntimeError("no template family produced an assertion-bearing design")


def test_engine_choices_are_recorded_per_assertion():
    design = _assertion_design()
    with scoped_registry() as registry:
        checker = CompiledAssertionChecker(design)
    assert set(checker.engine_choices) == {spec.name for spec in design.assertions}
    for choice in checker.engine_choices.values():
        assert choice == {"engine": "tensor", "reason": None}
    report = checker.engine_report()
    assert report["engines"] == {"tensor": len(design.assertions), "tree_walker": 0}
    assert report["assertions"] == checker.engine_choices
    assert registry.counter("sva.lower.tensor") == len(design.assertions)
    assert registry.counter("sva.lower.tree_walker") == 0


_WIDE_SOURCE = """
module wideobs(input wire clk, input wire [70:0] a, output reg [70:0] b);
    always @(posedge clk) b <= a;
    a_follow: assert property (@(posedge clk) 1'b1 |-> $past(a) == b);
endmodule
"""


def test_wide_operand_demotion_records_the_reason():
    """A >63-bit operand demotes its assertion to the tree-walker; the
    refusal is the recorded reason and its ``sva.fallback[...]`` label."""
    design = compile_source(_WIDE_SOURCE).design
    assert design is not None
    with scoped_registry() as registry:
        checker = CompiledAssertionChecker(design)
    choice = checker.engine_choices["a_follow"]
    assert choice["engine"] == "tree_walker"
    assert "int64 column limit" in choice["reason"]
    assert registry.counter("sva.lower.tree_walker") == 1
    assert registry.counter(labeled("sva.fallback", choice["reason"])) == 1
    assert checker.engine_report()["fallback_reasons"] == {choice["reason"]: 1}


_MIXED_SOURCE = """
module mixedobs(input wire clk, input wire [70:0] a, input wire [7:0] n,
                output reg [70:0] b, output reg [7:0] m);
    always @(posedge clk) begin
        b <= a;
        m <= n;
    end
    a_wide: assert property (@(posedge clk) 1'b1 |-> $past(a) == b);
    a_narrow: assert property (@(posedge clk) 1'b1 |-> $past(n) == m);
endmodule
"""


def test_attempt_engine_choices_are_recorded_per_assertion():
    """The attempt layer's choice (attempt tensor vs tree-walker) is as
    visible at check time as at lowering: each assertion is counted per
    trace under the engine recorded in engine_choices -- no silent
    demotion -- and both engines give the tree-walker's outcomes."""
    design = compile_source(_MIXED_SOURCE).design
    assert design is not None
    traces = [
        Simulator(design).run(
            StimulusGenerator(design, seed=seed).mixed_stimulus(random_cycles=12).vectors
        )
        for seed in (1, 2, 3)
    ]
    with scoped_registry() as registry:
        checker = CompiledAssertionChecker(design)
        reports = checker.check_batch(traces)
    assert checker.engine_choices["a_narrow"] == {"engine": "tensor", "reason": None}
    assert checker.engine_choices["a_wide"]["engine"] == "tree_walker"
    assert checker.engine_choices["a_wide"]["reason"]
    assert registry.counter("sva.check.attempt_tensor") == len(traces)
    assert registry.counter("sva.check.tree_walker") == len(traces)
    oracle = AssertionChecker(design)
    for trace, report in zip(traces, reports):
        assert report.outcomes == oracle.check(trace).outcomes


def test_stage2_check_grouping_is_counted(tmp_path, capsys):
    """One fixed sample: Stage 2 validates its SVAs on the freshly lowered
    augmented golden (checked alone: its lowering is shared with nobody),
    then triages all three mutants -- relowered against that golden, so
    sharing every assertion lowering -- in one batch.  The counters land
    in the run report, so a grouping regression shows as a number."""
    config = PipelineConfig.small()
    samples = run_stage1(CorpusGenerator(config.corpus).generate()).compiled
    sample = next(s for s in samples if s.name == "updown_counter_0004")
    result = Stage2Result()
    with scoped_registry() as registry:
        Stage2Runner(config.stage2).process_sample(sample, result)
    assert result.injected_bugs == 3 and result.rejected_not_compiling == 0
    grouping = {
        key: value for key, value in registry.counters.items()
        if key.startswith("stage2.check.")
    }
    assert grouping == {
        "stage2.check.batches": 1,
        "stage2.check.batched_traces": 3,
        labeled("stage2.check.alone", "lowering_not_shared"): 1,
    }
    trace = tmp_path / "stage2.jsonl"
    write_trace(trace, Tracer(), metrics=registry, meta={"kind": "test"})
    assert obs_main(["summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "stage2.check.batches: 1" in out
    assert "stage2.check.alone[lowering_not_shared]: 1" in out


# ---------------------------------------------------------------------- #
# the run-report CLI
# ---------------------------------------------------------------------- #


def _write_sample_trace(path) -> None:
    tracer = Tracer()
    with tracer.span("pipeline"):
        with tracer.span("job", job=0):
            pass
    registry = MetricsRegistry()
    registry.inc("runtime.cache.hits", 3)
    registry.inc("runtime.cache.misses", 1)
    registry.inc("sva.lower.tensor", 2)
    registry.inc("sva.lower.tree_walker", 1)
    registry.inc(labeled("sva.fallback", "width 64 exceeds limit"))
    registry.inc("sva.check.attempt_tensor", 6)
    registry.inc("sva.check.tree_walker", 3)
    write_trace(path, tracer, metrics=registry, meta={"kind": "test"})


def test_cli_summarize_renders_a_run_report(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    _write_sample_trace(trace)
    assert obs_main(["summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "run report" in out
    assert "pipeline" in out and "hit rate" in out
    assert "tensor 2 · tree_walker 1" in out
    assert "checked: attempt_tensor 6 · tree_walker 3" in out
    assert "tree-walker fallback reasons:" in out and "width 64 exceeds limit" in out
    # Consumed by the engine section: never duplicated under "other counters".
    assert "sva.fallback[" not in out


def test_cli_export_chrome_writes_next_to_the_trace(tmp_path):
    trace = tmp_path / "run.jsonl"
    _write_sample_trace(trace)
    assert obs_main(["export-chrome", str(trace)]) == 0
    exported = trace.with_suffix(".chrome.json")
    events = json.loads(exported.read_text())["traceEvents"]
    assert {event["name"] for event in events} == {"pipeline", "job"}


def test_cli_reports_a_missing_trace(tmp_path, capsys):
    assert obs_main(["summarize", str(tmp_path / "absent.jsonl")]) == 2
    assert "absent.jsonl" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# static-analysis telemetry (repro.analyze)
# ---------------------------------------------------------------------- #


def test_summarize_renders_static_analysis_section(tmp_path, capsys):
    trace = tmp_path / "analyzed.jsonl"
    tracer = Tracer()
    with tracer.span("eval"):
        pass
    registry = MetricsRegistry()
    registry.inc("analyze.pass.undriven", 3)
    registry.inc("analyze.pass.assignment-style", 1)
    write_trace(trace, tracer, metrics=registry, meta={"kind": "eval"})

    assert obs_main(["summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "static analysis:" in out
    assert "  pass diagnostics:" in out
    # Most diagnostics first.
    assert out.index("       3  undriven") < out.index("       1  assignment-style")
    # Consumed by the dedicated section: never duplicated under "other counters".
    assert "other counters:" not in out
    assert "analyze.pass.undriven:" not in out
    assert "analyze.pass.assignment-style:" not in out

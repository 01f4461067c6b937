"""Layer attribution for the traced run.

Every layer is timed from outside: :func:`patched_probes` wraps the public
entry points listed in :data:`PROBES` in spans on a ``repro.obs`` tracer,
patching each function wherever the package imported it and each method on
its class, and restores the originals on exit.  Each span carries the id of
the operation it belongs to, its own id and its parent's id, so a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, wraps
from typing import Callable, Optional

from repro.obs import get_registry

from measure import MetricSpec


def _cycles_simulated(args, kwargs, result):
    stimulus = args[1] if len(args) > 1 else kwargs["stimulus"]
    return (("sim.cycles", len(stimulus)),)


@dataclass(frozen=True)
class Probe:
    layer: str
    target: str  # "module:function" or "module:Class.method"
    #: (args, kwargs, result) -> ((counter, increment), ...), recorded in
    #: the ambient metrics registry after each call.
    count: Optional[Callable] = None


PROBES = (
    # The stage entry points, and the public per-job work each stage hands
    # to run_jobs, so that run_jobs' own self time is the executor overhead.
    Probe("corpus", "repro.corpus.spec:build_spec"),
    Probe("corpus", "repro.corpus.corruptor:SyntaxCorruptor.corrupt"),
    Probe("dataaug.stage1", "repro.dataaug.stage1:run_stage1"),
    Probe("dataaug.stage2", "repro.dataaug.stage2:Stage2Runner.run"),
    Probe("dataaug.stage2", "repro.dataaug.stage2:Stage2Runner.process_sample"),
    Probe("dataaug.stage3", "repro.dataaug.stage3:run_stage3"),
    Probe("dataaug.stage3", "repro.dataaug.stage3:write_cot"),
    Probe("bugs.inject", "repro.bugs.injector:BugInjector.inject"),
    Probe(
        "hdl.compile",
        "repro.hdl.lint:compile_source",
        lambda args, kwargs, result: (("hdl.compile.fails", 0 if result.ok else 1),),
    ),
    Probe("artifacts", "repro.artifacts.store:ArtifactStore.elaborate_source"),
    Probe("artifacts", "repro.artifacts.store:ArtifactStore.compiled_design"),
    Probe("artifacts", "repro.artifacts.store:ArtifactStore.checker"),
    Probe("artifacts", "repro.artifacts.store:ArtifactStore.dataflow"),
    Probe("sim.lower", "repro.sim.compile:CompiledDesign.__init__"),
    Probe("sim.run", "repro.sim.compile:CompiledSimulator.run", _cycles_simulated),
    Probe("sim.run", "repro.sim.engine:InterpSimulator.run", _cycles_simulated),
    Probe("sva.mine", "repro.sva.generator:AssertionMiner.mine"),
    Probe("sva.lower", "repro.sva.compile:CompiledAssertionChecker.__init__"),
    Probe("sva.check", "repro.sva.compile:CompiledAssertionChecker.check"),
    Probe("sva.check", "repro.sva.compile:CompiledAssertionChecker.check_batch"),
    Probe("sva.check", "repro.sva.checker:AssertionChecker.check"),
    Probe("sva.check", "repro.sva.checker:AssertionChecker.check_batch"),
    Probe("analyze.dfg", "repro.analyze.dfg:SignalDfg.__init__"),
    Probe("analyze.passes", "repro.analyze.passes:run_passes"),
    Probe("model.propose", "repro.model.assertsolver_model:AssertSolverModel.propose_topk"),
    Probe(
        "model.propose",
        "repro.model.assertsolver_model:AssertSolverModel.propose",
        lambda args, kwargs, result: (("model.sampled", len(result)),),
    ),
    Probe("model.features", "repro.model.features:LocalisationFeatureExtractor.extract"),
    Probe("model.features", "repro.model.features:FixFeatureExtractor.extract"),
    Probe("model.features", "repro.model.features:FixFeatureExtractor.extract_batch"),
    Probe("model.pretrain", "repro.model.pretrain:run_pretraining"),
    Probe("model.sft", "repro.model.sft:SftTrainer.train"),
    Probe("model.mining", "repro.model.challenging:collect_challenging_cases"),
    Probe(
        "model.mining",
        "repro.model.challenging:response_is_correct",
        lambda args, kwargs, result: (("model.mining.distinct", 1),),
    ),
    Probe("model.dpo", "repro.model.dpo:DpoTrainer.train"),
    Probe(
        "eval.verify",
        "repro.eval.verifier:SemanticVerifier.verify",
        lambda args, kwargs, result: ((f"verdicts.{result.status}", 1),),
    ),
    Probe("runtime.run_jobs", "repro.runtime.executor:run_jobs"),
)

#: ``DesignFamily.build`` (the template that writes a golden design) is a
#: field of each registered family rather than a method, so it is patched
#: on every family that ``all_families`` returns.
FAMILY_BUILD = Probe("corpus", "repro.corpus.metadata:DesignFamily.build")

#: The span name of one whole operation (a case, a round); not a layer.
OPERATION = "operation"


class SpanRecorder:
    """Opens spans on ``tracer`` tagged with operation, span and parent ids."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.operation_id = ""
        self._next_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        try:
            with self.tracer.span(
                name, op=self.operation_id, id=span_id, parent=parent, **attrs
            ):
                yield
        finally:
            self._stack.pop()

    @contextmanager
    def operation(self, operation_id: str):
        """One operation: every span opened inside shares its id."""
        self.operation_id = operation_id
        with self.span(OPERATION):
            yield


def _wrap(function, probe: Probe, recorder: SpanRecorder):
    @wraps(function)
    def traced(*args, **kwargs):
        with recorder.span(probe.layer, fn=function.__qualname__):
            result = function(*args, **kwargs)
        if probe.count is not None:
            registry = get_registry()
            for name, value in probe.count(args, kwargs, result):
                registry.inc(name, value)
        return result

    return traced


def resolve(target: str) -> tuple[object, str]:
    """The module or class that defines a probe target, and the name."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched_probes(recorder: SpanRecorder):
    """Wrap every probe's entry point for the duration of the block."""
    from repro.corpus.templates import all_families

    restore: list = []
    try:
        for probe in PROBES:
            owner, attr = resolve(probe.target)
            raw = vars(owner)[attr]
            replacement = _wrap(raw, probe, recorder)
            if isinstance(owner, type):
                restore.append(partial(setattr, owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            # A module-level function: patch it in every module that holds it.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is raw:
                        restore.append(partial(setattr, module, name, raw))
                        setattr(module, name, replacement)
        for family in all_families():
            restore.append(partial(object.__setattr__, family, "build", family.build))
            object.__setattr__(family, "build", _wrap(family.build, FAMILY_BUILD, recorder))
        yield
    finally:
        for undo in reversed(restore):
            undo()


# ---------------------------------------------------------------------- #
# self time and the layer table
# ---------------------------------------------------------------------- #


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus its children's durations.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up to the time they cover.
    """
    tagged = [span for span in spans if "id" in span.attrs]
    covered: dict[int, float] = defaultdict(float)
    for span in tagged:
        covered[span.attrs["parent"]] += span.duration_s
    return {span.attrs["id"]: span.duration_s - covered[span.attrs["id"]] for span in tagged}


@dataclass
class LayerRow:
    layer: str
    calls: int = 0
    self_s: float = 0.0


def layer_table(spans, timed_s: float) -> tuple[list[LayerRow], float]:
    """Per-layer calls and self time, and the unattributed time.

    The unattributed time is the part of the timed phase that no layer
    span covers: operation overhead between layer calls, and time between
    operations.
    """
    own = self_times(spans)
    rows: dict[str, LayerRow] = {}
    for span in spans:
        if "id" not in span.attrs or span.name == OPERATION:
            continue
        row = rows.setdefault(span.name, LayerRow(span.name))
        row.calls += 1
        row.self_s += own[span.attrs["id"]]
    attributed = sum(row.self_s for row in rows.values())
    ordered = sorted(rows.values(), key=lambda row: row.self_s, reverse=True)
    return ordered, timed_s - attributed


def render_table(rows, unattributed_s: float, timed_s: float, overhead: float) -> str:
    width = max([len(row.layer) for row in rows] + [len("unattributed")])
    lines = [f"  {'layer':<{width}}  {'calls':>8}  {'self_s':>9}  {'share':>6}"]
    for row in rows:
        lines.append(
            f"  {row.layer:<{width}}  {row.calls:>8}  {row.self_s:>9.4f}"
            f"  {100.0 * row.self_s / timed_s:>5.1f}%"
        )
    lines.append(
        f"  {'unattributed':<{width}}  {'':>8}  {unattributed_s:>9.4f}"
        f"  {100.0 * unattributed_s / timed_s:>5.1f}%"
    )
    lines.append(f"  timed phase {timed_s:.4f}s; tracing overhead {100.0 * overhead:+.1f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# the per-layer metrics
# ---------------------------------------------------------------------- #

_BUSY_LAYERS = (
    "corpus",
    "dataaug.stage1",
    "dataaug.stage2",
    "dataaug.stage3",
    "bugs.inject",
    "hdl.compile",
    "artifacts",
    "sim.lower",
    "sim.run",
    "sva.mine",
    "sva.lower",
    "sva.check",
    "analyze.dfg",
    "analyze.passes",
    "model.propose",
    "model.features",
    "model.pretrain",
    "model.sft",
    "model.mining",
    "model.dpo",
    "eval.verify",
    "runtime.run_jobs",
)
_VERDICTS = ("pass", "assertion_fail", "compile_fail", "sim_error", "not_applicable")

PER_LAYER = (
    *(MetricSpec(f"{layer}.busy_s", "s", "lower") for layer in _BUSY_LAYERS),
    MetricSpec("hdl.compile.calls", "count", "lower"),
    MetricSpec("hdl.compile.fail_ratio", "ratio", "lower"),
    MetricSpec("sim.run.calls", "count", "lower"),
    MetricSpec("sim.cycles_per_s", "1/s", "higher"),
    MetricSpec("sva.engine.attempt_tensor", "count", "higher"),
    MetricSpec("sva.engine.tree_walker", "count", "lower"),
    MetricSpec("artifacts.hit_rate", "ratio", "higher"),
    MetricSpec("artifacts.evictions", "count", "lower"),
    MetricSpec("artifacts.relower.nodes_reused", "count", "higher"),
    MetricSpec("artifacts.relower.nodes_lowered", "count", "lower"),
    MetricSpec("model.mining.distinct_ratio", "ratio", "lower"),
    MetricSpec("eval.verify.calls", "count", "lower"),
    MetricSpec("eval.verify.memo_hit_rate", "ratio", "higher"),
    MetricSpec("verify.compile_s", "s", "lower"),
    MetricSpec("verify.simulate_s", "s", "lower"),
    MetricSpec("verify.check_s", "s", "lower"),
    *(MetricSpec(f"verdicts.{status}", "count", "lower") for status in _VERDICTS),
    MetricSpec("unattributed_s", "s", "lower"),
    MetricSpec("obs.tracing_overhead", "ratio", "lower"),
    MetricSpec("latency_p90_ms", "ms", "lower"),
    MetricSpec("latency_samples", "count", "higher"),
    MetricSpec("pass_at_1", "ratio", "higher"),
    MetricSpec("pass_at_5", "ratio", "higher"),
)


#: Per-layer figures taken from the untraced run rather than the trace.
_UNTRACED = ("latency_p90_ms", "latency_samples", "pass_at_1", "pass_at_5")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    rows, unattributed_s: float, metrics: dict, untraced: dict, overhead: float
) -> dict:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``metrics`` is the traced run's registry snapshot; ``untraced`` holds
    the untraced run's latency tail and pass@k (see ``run.diagnostics``).
    """
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    by_layer = {row.layer: row for row in rows}

    def busy(layer: str) -> float:
        row = by_layer.get(layer)
        return row.self_s if row else 0.0

    def calls(layer: str) -> int:
        row = by_layer.get(layer)
        return row.calls if row else 0

    def counter(name: str) -> float:
        return counters.get(name, 0)

    values = {f"{layer}.busy_s": busy(layer) for layer in _BUSY_LAYERS}
    hits, misses = counter("artifact.hits"), counter("artifact.misses")
    values.update(
        {
            "hdl.compile.calls": calls("hdl.compile"),
            "hdl.compile.fail_ratio": _ratio(counter("hdl.compile.fails"), calls("hdl.compile")),
            "sim.run.calls": calls("sim.run"),
            "sim.cycles_per_s": _ratio(counter("sim.cycles"), busy("sim.run")),
            "sva.engine.attempt_tensor": counter("sva.check.attempt_tensor"),
            "sva.engine.tree_walker": counter("sva.check.tree_walker"),
            "artifacts.hit_rate": _ratio(hits, hits + misses),
            "artifacts.evictions": counter("artifact.evictions"),
            "artifacts.relower.nodes_reused": counter("relower.nodes_reused"),
            "artifacts.relower.nodes_lowered": counter("relower.nodes_lowered"),
            "model.mining.distinct_ratio": _ratio(
                counter("model.mining.distinct"), counter("model.sampled")
            ),
            "eval.verify.calls": calls("eval.verify"),
            "eval.verify.memo_hit_rate": _ratio(counter("eval.memo.hits"), calls("eval.verify")),
            "verify.compile_s": histograms.get("verify.compile_s", {}).get("sum", 0.0),
            "verify.simulate_s": histograms.get("verify.simulate_s", {}).get("sum", 0.0),
            "verify.check_s": histograms.get("verify.check_s", {}).get("sum", 0.0),
            "unattributed_s": unattributed_s,
            "obs.tracing_overhead": overhead,
            **{name: untraced[name] for name in _UNTRACED},
        }
    )
    values.update({f"verdicts.{status}": counter(f"verdicts.{status}") for status in _VERDICTS})
    return values

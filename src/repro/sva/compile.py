"""The compiled SVA checking backend.

The tree-walking :class:`~repro.sva.checker.AssertionChecker` rebuilds an
:class:`~repro.sim.evaluator.Evaluator` for every boolean sub-expression, of
every cycle, of every attempt, of every assertion.  With the simulator
compiled (:mod:`repro.sim.compile`) and verification fanning out per
candidate, that re-evaluation is the hot path of the whole repair loop.

This backend lowers each assertion **once per design** to the attempt
tensor (:mod:`repro.sva.vector`):

* every element expression (and ``disable iff``) becomes a whole-trace
  numpy array expression over the trace's columnar view
  (:meth:`~repro.sim.trace.Trace.columns`), so a check costs a handful of
  array operations per element per trace instead of one evaluator call per
  element per cycle per attempt;
* sampled-value functions (``$past``/``$rose``/``$fell``/``$stable``/
  ``$changed``) become shifted array views with a pre-trace all-``x``
  fill;
* attempt resolution is one whole-array computation
  (:func:`repro.sva.vector.walk_attempts_tensor`) over (trace x start
  cycle) masks -- antecedent-start vectors, delay-window shifts,
  ``disable iff`` prefix counts and pass/fail/vacuous bucketing for every
  start cycle in one numpy expression;
* :meth:`CompiledAssertionChecker.check_batch` **stacks the per-seed
  columnar views** of a batch into one padded (seed x cycle) grid, so the
  verifier's remaining-seeds pass is one numpy evaluation per assertion,
  not one per seed.

There are exactly two engines.  An assertion the vector lowering refuses
(dynamic part selects, >63-bit operands, ...) is checked by the
tree-walking :class:`~repro.sva.checker.AssertionChecker`, which is also
the differential oracle for the tensor; a trace that lacks a referenced
signal falls back to the oracle for the whole call.  Both engines are
outcome-identical by differential testing (`tests/test_sva_compile`,
`tests/test_trace_columns`): attempts, antecedent matches, passes,
vacuous/pending/disabled counts and every failure's start and failing
cycle agree.  Use the :func:`~repro.sva.checker.CheckerBackend` factory to
construct one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hdl import ast
from repro.hdl.elaborate import AssertionSpec, ElaboratedDesign
from repro.obs.metrics import get_registry, labeled
from repro.sim.compile import CompileError
from repro.sim.trace import Trace
from repro.sva import vector as sva_vector
from repro.sva.checker import AssertionChecker, AssertionOutcome, CheckReport


class _LoweredAssertion:
    """One assertion lowered to whole-array element functions plus its
    attempt-shape metadata."""

    __slots__ = ("spec", "antecedent", "consequent", "disable_index",
                 "overlapping", "vector_fns")

    def __init__(self, spec: AssertionSpec, antecedent: Optional[list],
                 consequent: list, disable_index: Optional[int], vector_fns: list):
        self.spec = spec
        #: [(cumulative delay offset, element index)] or None for no antecedent.
        self.antecedent = antecedent
        self.consequent = consequent
        self.disable_index = disable_index
        self.overlapping = spec.body.overlapping
        #: Whole-array (fn, width) pairs, indexed by the pairs above.
        self.vector_fns = vector_fns


class _StackedColumns:
    """A batch's per-seed columns stacked into one padded (seed x cycle) grid.

    Built lazily by the first attempt-tensor assertion of a
    :meth:`CompiledAssertionChecker.check_batch` call and shared by all of
    them, so a batch whose assertions all run on the tree-walker never
    builds columns.  Each referenced signal becomes one
    ``(seeds, max_cycles)`` array pair; rows shorter than the grid are
    padded with ``(0, 0)`` cells, which the tensor walk masks against the
    true per-row lengths before any truth test (see
    :func:`repro.sva.vector.walk_attempts_tensor`).  A single-trace batch
    skips the copy entirely: its 1-D columns are reshaped ``(1, cycles)``
    views.  Signal availability was probed up front, so the build cannot
    fail.
    """

    __slots__ = ("_names", "_traces", "_built")

    def __init__(self, names: list[str], traces: list[Trace]):
        self._names = names
        self._traces = traces
        self._built: Optional[tuple[list, list, np.ndarray, tuple]] = None

    def stack(self) -> tuple[list, list, np.ndarray, tuple]:
        """``(values, xmasks, lengths, shape)`` -- per-slot stacked lanes."""
        if self._built is None:
            names = self._names
            per_trace = []
            for trace in self._traces:
                columns = trace.columns(names)
                per_trace.append((
                    [columns.values[name] for name in names],
                    [columns.xmasks[name] for name in names],
                ))
            lengths = np.array([len(trace) for trace in self._traces], dtype=np.int64)
            if len(per_trace) == 1:
                cols_v, cols_x = per_trace[0]
                stacked_v = [np.asarray(col)[None, :] for col in cols_v]
                stacked_x = [np.asarray(col)[None, :] for col in cols_x]
                shape = (1, int(lengths[0]))
            else:
                shape = (len(per_trace), int(lengths.max()))
                stacked_v, stacked_x = [], []
                for slot in range(len(names)):
                    # Wide (>63-bit) signals carry object-dtype columns;
                    # only tree-walker assertions reference them, so the
                    # stacked twin exists purely to keep slots aligned.
                    dtype = np.int64
                    if any(tv[slot].dtype == object for tv, _tx in per_trace):
                        dtype = object
                    slot_v = np.zeros(shape, dtype=dtype)
                    slot_x = np.zeros(shape, dtype=dtype)
                    for row, (trace_v, trace_x) in enumerate(per_trace):
                        cycles = int(lengths[row])
                        slot_v[row, :cycles] = trace_v[slot]
                        slot_x[row, :cycles] = trace_x[slot]
                    stacked_v.append(slot_v)
                    stacked_x.append(slot_x)
            self._built = (stacked_v, stacked_x, lengths, shape)
        return self._built


class CompiledAssertionChecker:
    """Drop-in replacement for :class:`~repro.sva.checker.AssertionChecker`.

    Lowers every assertion of ``design`` once at construction; each
    :meth:`check` call then costs a handful of numpy array operations per
    element expression, independent of how many attempts overlap each
    cycle.  ``strict`` raises :class:`~repro.sim.compile.CompileError`
    unless every assertion lowers to the attempt tensor.
    """

    def __init__(self, design: ElaboratedDesign, strict: bool = False,
                 base: Optional["CompiledAssertionChecker"] = None):
        from repro.artifacts.canon import assertion_key

        self._design = design
        self._oracle = AssertionChecker(design)
        referenced: set[str] = set()
        for spec in design.assertions:
            referenced |= spec.identifiers()
        self._names: list[str] = sorted(n for n in referenced if n in design.signals)
        self._slots: dict[str, int] = {name: i for i, name in enumerate(self._names)}
        self._lowered: dict[int, Optional[_LoweredAssertion]] = {}
        #: Content key -> (lowered state, engine choice): the reuse index an
        #: incremental lower against this checker as ``base`` consults.  An
        #: assertion whose support cone intersects a patch's dirty set has a
        #: changed key (its rendered expressions differ) and misses here;
        #: everything else -- in the common one-line-repair case, *all*
        #: assertions, since repairs mutate design logic rather than the
        #: properties -- reuses its lowering verbatim.
        self._spec_index: dict[
            str, tuple[Optional[_LoweredAssertion], dict]
        ] = {}
        self.assertions_reused = 0
        if base is not None and not self._reuse_compatible(base):
            base = None
        base_index = base._spec_index if base is not None else {}
        #: Per-assertion engine decision: name -> {"engine": "tensor" |
        #: "tree_walker", "reason": why the tensor refused it (None for the
        #: tensor)}.  Every demotion carries its reason, so a lowering
        #: regression shows up here rather than only as a slowdown.
        self.engine_choices: dict[str, dict] = {}
        failed: list[str] = []
        for spec in design.assertions:
            key = assertion_key(spec)
            cached = base_index.get(key)
            if cached is not None:
                lowered, choice = cached
                self.engine_choices[spec.name] = dict(choice)
                self.assertions_reused += 1
                get_registry().inc("relower.assertions_reused")
            else:
                lowered = self._lower(spec)
            self._spec_index[key] = (lowered, self.engine_choices[spec.name])
            self._lowered[id(spec)] = lowered
            if lowered is None:
                failed.append(spec.name)
        if strict and failed:
            raise CompileError(
                "assertions cannot be lowered: " + ", ".join(sorted(failed))
            )

    def _reuse_compatible(self, base: "CompiledAssertionChecker") -> bool:
        """Whether ``base``'s lowered assertions can be reused here.

        Lowered element functions capture slot indices into this checker's
        private signal table plus signal widths and parameter values, so
        reuse needs all three to match (the table only covers signals the
        assertions reference, which one-line logic repairs never change).
        """
        if not isinstance(base, CompiledAssertionChecker):
            return False
        if base._names != self._names:
            return False
        for name in self._names:
            if base._design.signals[name].width != self._design.signals[name].width:
                return False
        return base._design.parameters == self._design.parameters

    @property
    def design(self) -> ElaboratedDesign:
        return self._design

    def engine_report(self) -> dict:
        """Which engine handles each assertion, and why any was demoted."""
        counts = {"tensor": 0, "tree_walker": 0}
        reasons: dict[str, int] = {}
        for choice in self.engine_choices.values():
            counts[choice["engine"]] += 1
            if choice["reason"]:
                reasons[choice["reason"]] = reasons.get(choice["reason"], 0) + 1
        return {
            "engines": counts,
            "fallback_reasons": dict(sorted(reasons.items())),
            "assertions": {
                name: dict(choice)
                for name, choice in sorted(self.engine_choices.items())
            },
        }

    def _record_engine(self, spec: AssertionSpec, engine: str,
                       reason: Optional[str]) -> None:
        self.engine_choices[spec.name] = {"engine": engine, "reason": reason}
        registry = get_registry()
        registry.inc(f"sva.lower.{engine}")
        if reason:
            registry.inc(labeled("sva.fallback", reason))

    # ------------------------------------------------------------------ #
    # lowering
    # ------------------------------------------------------------------ #

    def _lower(self, spec: AssertionSpec) -> Optional[_LoweredAssertion]:
        element_exprs: list[ast.Expression] = []

        def lower_sequence(sequence: ast.SvaSequence) -> list[tuple[int, int]]:
            items: list[tuple[int, int]] = []
            offset = 0
            for element in sequence.elements:
                offset += element.delay
                items.append((offset, len(element_exprs)))
                element_exprs.append(element.expr)
            return items

        antecedent = (
            lower_sequence(spec.body.antecedent)
            if spec.body.antecedent is not None
            else None
        )
        consequent = lower_sequence(spec.body.consequent)
        disable_index = None
        if spec.disable_iff is not None:
            disable_index = len(element_exprs)
            element_exprs.append(spec.disable_iff)
        try:
            vector_fns = sva_vector.lower_elements(
                self._design, self._slots, element_exprs
            )
        except sva_vector.VectorError as exc:
            self._record_engine(spec, "tree_walker", str(exc))
            return None
        self._record_engine(spec, "tensor", None)
        return _LoweredAssertion(
            spec, antecedent, consequent, disable_index, vector_fns
        )

    # ------------------------------------------------------------------ #
    # checking
    # ------------------------------------------------------------------ #

    def check(self, trace: Trace, assertions: Optional[list[AssertionSpec]] = None) -> CheckReport:
        """Check (a subset of) the design's assertions over ``trace``."""
        return self.check_batch([trace], assertions)[0]

    def check_batch(
        self, traces: list[Trace], assertions: Optional[list[AssertionSpec]] = None
    ) -> list[CheckReport]:
        """Check several traces (e.g. one per verification seed) in one pass.

        The lowering is shared by construction; batching adds one
        per-assertion dispatch (lowered lookup, on-the-fly lowering of
        foreign specs) for the whole batch instead of one per trace.  The
        batch's per-seed columns are stacked into one padded (seed x cycle)
        grid (:class:`_StackedColumns`) and each tensor assertion is
        resolved for *all* seeds in a single 2-D numpy pass.
        Outcome-identical to calling :meth:`check` per trace, in trace
        order, which is what the batch differential test asserts.
        """
        specs = assertions if assertions is not None else self._design.assertions
        registry = get_registry()
        reports: list[CheckReport] = []
        live: list[tuple[Trace, CheckReport]] = []
        for trace in traces:
            if self._has_signals(trace):
                report = CheckReport()
                live.append((trace, report))
            else:
                # A referenced signal is missing from the trace samples; the
                # tree-walker's per-expression EvalError semantics apply.
                report = self._oracle.check(trace, assertions)
                registry.inc("sva.check.tree_walker", len(specs))
            reports.append(report)
        if not live:
            return reports
        stacked = _StackedColumns(self._names, [trace for trace, _ in live])
        for spec in specs:
            lowered = self._lowered.get(id(spec))
            if lowered is None and id(spec) not in self._lowered:
                # A spec object the design does not own (ad-hoc subset
                # checking): lower on the fly, once for the whole batch,
                # without caching -- a dead foreign spec's id could be
                # recycled.
                lowered = self._lower(spec)
            if lowered is None:
                for trace, report in live:
                    report.outcomes[spec.name] = self._oracle.check_assertion(spec, trace)
                registry.inc("sva.check.tree_walker", len(live))
                continue
            registry.inc("sva.check.attempt_tensor", len(live))
            outcomes = self._evaluate_tensor(lowered, stacked)
            for (_trace, report), outcome in zip(live, outcomes):
                report.outcomes[spec.name] = outcome
        return reports

    def _has_signals(self, trace: Trace) -> bool:
        """Whether ``trace`` samples every referenced signal; if not, the
        whole trace falls back to the oracle (probed cheaply up front so
        the lazy column build cannot fail).

        A trace whose columns for exactly these signals are already
        memoised skips the membership probe: a successful column build is
        proof the signals exist, and the probe is the dominant per-trace
        setup cost when the same trace is checked repeatedly.
        """
        return trace.columns_cached(self._names) is not None or trace.has_signals(
            self._names
        )

    def _evaluate_tensor(
        self, lowered: _LoweredAssertion, stacked: _StackedColumns
    ) -> list[AssertionOutcome]:
        """One 2-D numpy pass resolves every attempt of every trace in the
        batch (a single trace is the (1, cycles) case)."""
        stacked_v, stacked_x, lengths, shape = stacked.stack()
        values: list[np.ndarray] = []
        xmasks: list[np.ndarray] = []
        for fn, _width in lowered.vector_fns:
            lane_v, lane_x = fn(stacked_v, stacked_x, shape)
            values.append(sva_vector.as_column(lane_v, shape))
            xmasks.append(sva_vector.as_column(lane_x, shape))
        spec = lowered.spec
        return sva_vector.walk_attempts_tensor(
            spec.name,
            spec.error_message,
            lowered.antecedent,
            lowered.consequent,
            lowered.overlapping,
            lowered.disable_index,
            values,
            xmasks,
            lengths,
        )


def compile_assertions(
    design: ElaboratedDesign,
    strict: bool = False,
    base: Optional[CompiledAssertionChecker] = None,
) -> CompiledAssertionChecker:
    """Lower ``design``'s assertions for the compiled checker backend.

    With ``base`` (a checker for a signal-compatible design, typically the
    unpatched base of a candidate repair), assertions whose content key is
    unchanged reuse the base's lowering; only assertions whose support cone
    the patch touched are relowered.
    """
    return CompiledAssertionChecker(design, strict=strict, base=base)

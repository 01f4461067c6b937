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
* each element's one lane the walk reads -- truth (``value != 0``) for
  antecedent and ``disable iff`` elements, known-false (``value == 0``
  and ``xmask == 0``) for consequent elements -- is packed into one Python
  int per batch, and attempt resolution
  (:func:`repro.sva.vector.walk_attempts_packed`) is int bitmask
  arithmetic on those bits: delays are shifts, in-range masks are built
  once per batch and offset, ``disable iff`` spans are ORs of shifted
  disable bits, bucket counts are per-row ``bit_count`` calls;
* :meth:`CompiledAssertionChecker.check_batch` **stacks the per-seed
  columnar views** of a batch into one padded (seed x cycle) grid, so the
  verifier's remaining-seeds pass is one numpy evaluation per assertion,
  not one per seed; traces of other designs whose checkers share this
  one's :meth:`~CompiledAssertionChecker.batch_key` (Stage 2's mutants of
  one golden) ride in the same grid.

There are exactly two engines.  An assertion the vector lowering refuses
(dynamic part selects, >63-bit operands, ...) is checked by the
tree-walking :class:`~repro.sva.checker.AssertionChecker`, which is also
the differential oracle for the tensor.  Both simulators record every
design signal, so a trace always has the referenced columns; a trace
that lacks one (of another design) raises ``KeyError``.  Both engines are
outcome-identical by differential testing (`tests/test_sva_compile`,
`tests/test_trace_columns`): attempts, antecedent matches, passes,
vacuous/pending/disabled counts and every failure's start and failing
cycle agree.  :meth:`repro.artifacts.ArtifactStore.checker` builds the
production instance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hdl import ast
from repro.hdl.elaborate import AssertionSpec, ElaboratedDesign
from repro.obs.metrics import get_registry, labeled
from repro.sim.trace import INT64_COLUMN_MAX_WIDTH, Trace
from repro.sva import vector as sva_vector
from repro.sva.checker import AssertionChecker, AssertionOutcome, CheckReport


class _LoweredAssertion:
    """One assertion lowered to whole-array element functions plus its
    attempt-shape metadata."""

    __slots__ = ("spec", "antecedent", "consequent", "disable_index",
                 "overlapping", "vector_fns", "known_false", "lookahead")

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
        #: Per element: whether the walk reads its known-false lane (a
        #: consequent element) rather than its truth lane.
        consequent_indices = {index for _offset, index in consequent}
        self.known_false = [index in consequent_indices for index in range(len(vector_fns))]
        #: The furthest cycle past an attempt's start that the walk reads.
        base = sva_vector.consequent_base(antecedent, self.overlapping)
        self.lookahead = base + max((offset for offset, _index in consequent), default=0)


class _StackedColumns:
    """A batch's per-seed columns stacked into one padded (seed x cycle) grid.

    Built lazily by the first attempt-tensor assertion of a
    :meth:`CompiledAssertionChecker.check_batch` call and shared by all of
    them, so a batch whose assertions all run on the tree-walker never
    builds columns.  The referenced signals become one
    ``(signals, seeds, stride)`` int64 array pair (one assignment per
    trace), whose rows :class:`~repro.sva.vector.PackedRows` packs into
    Python ints; cells past a row's length are ``(0, 0)``, which the walk
    masks against the true per-row lengths before any truth test.  Columns
    of >63-bit signals stay zero: only tree-walker assertions read them.
    A single-trace batch skips the copy entirely: its 1-D columns are
    reshaped ``(1, cycles)`` views.  Both simulators record every design
    signal, so the build fails (with :meth:`~repro.sim.trace.Trace.columns`'
    ``KeyError``) only on a trace of another design.
    """

    __slots__ = ("_names", "_narrow", "_traces", "_lookahead", "_built")

    def __init__(self, names: list[str], narrow: list[int], traces: list[Trace],
                 lookahead: int):
        self._names = names
        self._narrow = narrow
        self._traces = traces
        self._lookahead = lookahead
        self._built: Optional[tuple[object, object, sva_vector.PackedRows]] = None

    def stack(self) -> tuple[object, object, sva_vector.PackedRows]:
        """``(values, xmasks, rows)``: per-slot lanes and their packing."""
        if self._built is None:
            names = self._names
            columns = [trace.columns(names) for trace in self._traces]
            lengths = [len(trace) for trace in self._traces]
            if len(columns) == 1:
                only = columns[0]
                stacked_v: object = [only.values[name][None, :] for name in names]
                stacked_x: object = [only.xmasks[name][None, :] for name in names]
                rows = sva_vector.PackedRows(lengths, lengths[0])
            else:
                stride = -(-(max(lengths) + self._lookahead) // 8) * 8
                shape = (len(names), len(columns), stride)
                stacked_v, stacked_x = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
                narrow = self._narrow
                narrow_names = [names[slot] for slot in narrow]
                for row, (trace_columns, cycles) in enumerate(zip(columns, lengths)):
                    if cycles and narrow:
                        stacked_v[narrow, row, :cycles] = [
                            trace_columns.values[name] for name in narrow_names
                        ]
                        stacked_x[narrow, row, :cycles] = [
                            trace_columns.xmasks[name] for name in narrow_names
                        ]
                rows = sva_vector.PackedRows(lengths, stride)
            self._built = (stacked_v, stacked_x, rows)
        return self._built


class CompiledAssertionChecker:
    """Drop-in replacement for :class:`~repro.sva.checker.AssertionChecker`.

    Lowers every assertion of ``design`` once at construction; each
    :meth:`check` call then costs a handful of numpy array operations per
    element expression plus a few dozen int operations per assertion,
    independent of how many attempts overlap each cycle.  An assertion the
    tensor refuses is checked by the tree-walker; :meth:`engine_report`
    says which and why.
    """

    def __init__(self, design: ElaboratedDesign,
                 base: Optional["CompiledAssertionChecker"] = None):
        from repro.artifacts.canon import assertion_key

        self._design = design
        self._oracle = AssertionChecker(design)
        referenced: set[str] = set()
        for spec in design.assertions:
            referenced |= spec.identifiers()
        self._names: list[str] = sorted(n for n in referenced if n in design.signals)
        self._slots: dict[str, int] = {name: i for i, name in enumerate(self._names)}
        #: One lowering per design assertion, in order; None runs on the
        #: tree-walker.
        self._lowered: list[Optional[_LoweredAssertion]] = []
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
            self._lowered.append(lowered)
        shared = self.assertions_reused == len(self._lowered) and None not in self._lowered
        self._batch_key = tuple(self._lowered) if shared else None
        #: The slots a tensor assertion may read (signals of <= 63 bits) and
        #: the furthest any tensor assertion looks past an attempt's start.
        self._narrow = [
            slot for slot, name in enumerate(self._names)
            if design.signals[name].width <= INT64_COLUMN_MAX_WIDTH
        ]
        self._lookahead = max(
            (lowered.lookahead for lowered in self._lowered if lowered is not None),
            default=0,
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

    def batch_key(self) -> Optional[tuple[object, ...]]:
        """A hashable key shared by checkers that may judge each other's traces.

        Equal keys mean identical :class:`_LoweredAssertion` objects for
        every assertion, in order -- hence one signal table, equal widths,
        parameters, names and messages -- so one checker's
        :meth:`check_batch` over traces of several such designs gives each
        trace its own checker's outcomes.  That holds for designs relowered
        against one base whose every assertion was reused.  None when any
        assertion runs on the tree-walker (its oracle is per design) or was
        lowered afresh.
        """
        return self._batch_key

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

    def check(self, trace: Trace) -> CheckReport:
        """Check every assertion of the design over ``trace``."""
        return self.check_batch([trace])[0]

    def check_batch(self, traces: list[Trace]) -> list[CheckReport]:
        """Check several traces (e.g. one per verification seed) in one pass.

        The lowering is shared by construction; batching adds one
        per-assertion dispatch for the whole batch instead of one per
        trace.  The batch's per-seed columns are stacked into one padded
        (seed x cycle) grid (:class:`_StackedColumns`) and each tensor
        assertion is resolved for *all* seeds in one 2-D numpy evaluation
        of its elements and one walk over their packed bits.
        Outcome-identical to calling :meth:`check` per trace, in trace
        order, which is what the batch differential test asserts.
        """
        registry = get_registry()
        reports = [CheckReport() for _ in traces]
        if not traces:
            return reports
        stacked = _StackedColumns(self._names, self._narrow, traces, self._lookahead)
        for spec, lowered in zip(self._design.assertions, self._lowered):
            if lowered is None:
                for trace, report in zip(traces, reports):
                    report.outcomes[spec.name] = self._oracle.check_assertion(spec, trace)
                registry.inc("sva.check.tree_walker", len(traces))
                continue
            registry.inc("sva.check.attempt_tensor", len(traces))
            outcomes = self._evaluate_tensor(lowered, stacked)
            for report, outcome in zip(reports, outcomes):
                report.outcomes[spec.name] = outcome
        return reports

    def _evaluate_tensor(
        self, lowered: _LoweredAssertion, stacked: _StackedColumns
    ) -> list[AssertionOutcome]:
        """Pack each element's one lane for every trace of the batch into a
        Python int, then resolve every attempt on the packed bits."""
        stacked_v, stacked_x, rows = stacked.stack()
        shape = rows.shape
        lanes = []
        for (fn, _width), known_false in zip(lowered.vector_fns, lowered.known_false):
            lane_v, lane_x = fn(stacked_v, stacked_x, shape)
            lanes.append(rows.pack((lane_v | lane_x) == 0 if known_false else lane_v != 0))
        spec = lowered.spec
        return sva_vector.walk_attempts_packed(
            spec.name,
            spec.error_message,
            lowered.antecedent,
            lowered.consequent,
            lowered.overlapping,
            lowered.disable_index,
            lanes,
            rows,
        )

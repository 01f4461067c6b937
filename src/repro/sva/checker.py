"""Trace-based checking of concurrent SVA assertions.

The checker replays a simulation trace (preponed samples, one per clock
cycle) against every assertion of an elaborated design and reports, per
assertion, how many attempts were started, how many matched the antecedent,
and every failure with its start and failing cycle.

Semantics implemented (the subset the corpus and the miner use):

* ``@(posedge clk)`` clocking -- one evaluation attempt per trace sample;
* ``disable iff (expr)`` -- an attempt is discarded if the disable condition
  is true at any cycle the attempt spans (a practical approximation of the
  asynchronous abort semantics);
* sequences ``a ##1 b ##2 c`` with constant delays;
* overlapping ``|->`` and non-overlapping ``|=>`` implications;
* sampled-value functions ``$past`` (with optional depth), ``$rose``,
  ``$fell``, ``$stable``, ``$changed``;
* attempts that run past the end of the trace are *pending*, not failures.

Two checker backends implement these semantics:

* :class:`AssertionChecker` (this module) -- the tree-walking reference
  implementation, kept as the differential-testing oracle;
* :class:`repro.sva.compile.CompiledAssertionChecker` -- lowers every
  assertion once per design into whole-array numpy expressions over the
  trace's columns (the attempt tensor), falling back to this module's
  oracle per assertion it cannot lower.

Production code gets its checker from
:meth:`repro.artifacts.ArtifactStore.checker` (one per source text), and
:func:`check_assertions` lowers one for a single check; both build the
compiled checker, and tests construct either class directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.hdl import ast
from repro.hdl.elaborate import AssertionSpec, ElaboratedDesign
from repro.sim.evaluator import EvalError, Evaluator
from repro.sim.trace import Trace
from repro.sim.values import LogicValue



def constant_value(expr: ast.Expression, parameters: Mapping[str, int]) -> Optional[int]:
    """The elaboration-time value of ``expr``, or None.

    None when ``expr`` reads anything but ``parameters`` or any of its
    bits is unknown.
    """
    try:
        value = Evaluator({}, parameters).evaluate(expr)
    except EvalError:
        return None
    return None if value.has_unknown else value.to_int()


def sampled_past_depth(call: ast.SystemCall, parameters: Mapping[str, int]) -> int:
    """The cycle depth of a ``$past`` call, constant-folded with parameters.

    ``$past(x, DEPTH)`` must honour elaboration-time constants such as
    parameters and constant arithmetic (``WIDTH - 1``), not only literal
    numbers.  Unevaluable or unknown depths fall back to the SVA default of 1.
    """
    depth = constant_value(call.args[1], parameters) if len(call.args) >= 2 else None
    return 1 if depth is None else max(1, depth)


def infer_expression_width(expr: ast.Expression, design: ElaboratedDesign) -> int:
    """The bit width ``expr`` would evaluate to (mirrors the evaluator).

    This drives the width of the pre-cycle-0 unknown that ``$past`` returns:
    ``$past(a + b)`` before the trace starts must be an all-x value of the
    *expression's* width, not a 1-bit x.  Both checker backends share this
    inference so they stay outcome-identical.
    """
    parameters = design.parameters

    def width(e: ast.Expression) -> int:
        if isinstance(e, ast.Number):
            return e.width if e.width is not None else 32
        if isinstance(e, ast.Identifier):
            signal = design.signals.get(e.name)
            if signal is not None:
                return signal.width
            return 32 if e.name in parameters else 1
        if isinstance(e, ast.Unary):
            return width(e.operand) if e.op in ("+", "-", "~") else 1
        if isinstance(e, ast.Binary):
            op = e.op
            if op in ("&&", "||", "==", "!=", "===", "!==", "<", ">", "<=", ">="):
                return 1
            if op in ("<<", ">>", "<<<", ">>>"):
                return width(e.left)
            return max(width(e.left), width(e.right))
        if isinstance(e, ast.Ternary):
            return max(width(e.if_true), width(e.if_false))
        if isinstance(e, ast.BitSelect):
            return 1
        if isinstance(e, ast.PartSelect):
            msb, lsb = constant_value(e.msb, parameters), constant_value(e.lsb, parameters)
            if msb is not None and lsb is not None and msb >= lsb:
                return msb - lsb + 1
            return max(width(e.base), 1)
        if isinstance(e, ast.Concat):
            return max(sum(width(part) for part in e.parts), 1)
        if isinstance(e, ast.Replicate):
            count = constant_value(e.count, parameters)
            return max((count if count and count > 0 else 1) * width(e.value), 1)
        if isinstance(e, ast.SystemCall):
            if e.name in ("$past", "$signed", "$unsigned"):
                return width(e.args[0]) if e.args else 1
            if e.name in ("$countones", "$clog2"):
                return 32
            return 1  # $rose/$fell/$stable/$changed/$onehot*/unknown
        return 1

    return width(expr)


@dataclass(frozen=True)
class AssertionFailure:
    """One failed evaluation attempt of one assertion."""

    assertion: str
    start_cycle: int
    fail_cycle: int
    message: str = ""

    def render(self) -> str:
        text = f"assertion '{self.assertion}' failed at cycle {self.fail_cycle}"
        if self.start_cycle != self.fail_cycle:
            text += f" (attempt started at cycle {self.start_cycle})"
        if self.message:
            text += f": {self.message}"
        return text


@dataclass
class AssertionOutcome:
    """Aggregated result of checking one assertion over a whole trace."""

    name: str
    attempts: int = 0
    antecedent_matches: int = 0
    passes: int = 0
    vacuous: int = 0
    pending: int = 0
    disabled: int = 0
    failures: list[AssertionFailure] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def comparison_key(self) -> tuple:
        """Every outcome field as one tuple, for backend-differential checks."""
        return (
            self.name,
            self.attempts,
            self.antecedent_matches,
            self.passes,
            self.vacuous,
            self.pending,
            self.disabled,
            tuple(
                (f.assertion, f.start_cycle, f.fail_cycle, f.message)
                for f in self.failures
            ),
        )


@dataclass
class CheckReport:
    """Results for every assertion of a design on one trace."""

    outcomes: dict[str, AssertionOutcome] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[AssertionFailure]:
        collected: list[AssertionFailure] = []
        for outcome in self.outcomes.values():
            collected.extend(outcome.failures)
        return sorted(collected, key=lambda f: (f.fail_cycle, f.assertion))

    @property
    def failed_assertions(self) -> list[str]:
        return sorted({f.assertion for f in self.failures})

    def outcome(self, name: str) -> AssertionOutcome:
        return self.outcomes[name]

    def first_failure(self) -> Optional[AssertionFailure]:
        failures = self.failures
        return failures[0] if failures else None


class AssertionChecker:
    """Checks the assertions of one design against simulation traces."""

    def __init__(self, design: ElaboratedDesign):
        self._design = design
        # $past depths are elaboration-time constants; memoised per call
        # node so the per-cycle sampled-value path does not rebuild an
        # Evaluator for the same depth expression.  The node itself is kept
        # in the value, so its id can never be recycled while memoised.
        self._past_depth_memo: dict[int, tuple[ast.SystemCall, int]] = {}

    def check(self, trace: Trace, assertions: Optional[list[AssertionSpec]] = None) -> CheckReport:
        """Check (a subset of) the design's assertions over ``trace``."""
        report = CheckReport()
        specs = assertions if assertions is not None else self._design.assertions
        for spec in specs:
            report.outcomes[spec.name] = self.check_assertion(spec, trace)
        return report

    def check_assertion(self, spec: AssertionSpec, trace: Trace) -> AssertionOutcome:
        """Check one assertion over ``trace``.

        The public single-assertion entry point: :meth:`check` is built on
        it, and the compiled backend's per-assertion fallback calls it for
        specs its lowering rejects (the spec need not belong to the checker's
        design -- only the signals it references must exist in the trace).
        """
        outcome = AssertionOutcome(name=spec.name)
        for start in range(len(trace)):
            outcome.attempts += 1
            self._evaluate_attempt(spec, trace, start, outcome)
        return outcome

    def check_batch(
        self, traces: list[Trace], assertions: Optional[list[AssertionSpec]] = None
    ) -> list[CheckReport]:
        """Check several traces (e.g. one per verification seed) in one call.

        The tree-walker has no per-trace state to amortise, so this is a
        plain loop; it exists so both backends expose the same batch API
        (the compiled backend shares its per-assertion dispatch across the
        batch).  Reports come back in trace order.
        """
        return [self.check(trace, assertions) for trace in traces]

    # ------------------------------------------------------------------ #
    # per-assertion evaluation
    # ------------------------------------------------------------------ #

    def _evaluate_attempt(
        self, spec: AssertionSpec, trace: Trace, start: int, outcome: AssertionOutcome
    ) -> None:
        body = spec.body
        if self._disabled_at(spec, trace, start):
            outcome.disabled += 1
            return

        if body.antecedent is not None:
            matched, antecedent_end = self._match_sequence(spec, body.antecedent, trace, start)
            if matched is None:
                outcome.pending += 1
                return
            if not matched:
                outcome.vacuous += 1
                return
            outcome.antecedent_matches += 1
            consequent_start = antecedent_end if body.overlapping else antecedent_end + 1
        else:
            outcome.antecedent_matches += 1
            consequent_start = start

        if self._disabled_between(spec, trace, start, consequent_start):
            outcome.disabled += 1
            return

        satisfied, fail_cycle = self._satisfy_sequence(spec, body.consequent, trace, consequent_start)
        if satisfied is None:
            outcome.pending += 1
        elif satisfied:
            outcome.passes += 1
        else:
            if self._disabled_between(spec, trace, start, fail_cycle):
                outcome.disabled += 1
                return
            outcome.failures.append(
                AssertionFailure(
                    assertion=spec.name,
                    start_cycle=start,
                    fail_cycle=fail_cycle,
                    message=spec.error_message,
                )
            )

    # ------------------------------------------------------------------ #
    # sequence evaluation
    # ------------------------------------------------------------------ #

    def _match_sequence(
        self, spec: AssertionSpec, sequence: ast.SvaSequence, trace: Trace, start: int
    ) -> tuple[Optional[bool], int]:
        """Evaluate an antecedent: (matched, end_cycle); matched None = pending."""
        cycle = start
        for element in sequence.elements:
            cycle += element.delay
            if cycle >= len(trace):
                return None, cycle
            value = self._evaluate_boolean(spec, element.expr, trace, cycle)
            if value is None or not value:
                return False, cycle
        return True, cycle

    def _satisfy_sequence(
        self, spec: AssertionSpec, sequence: ast.SvaSequence, trace: Trace, start: int
    ) -> tuple[Optional[bool], int]:
        """Evaluate a consequent: (satisfied, fail_cycle); satisfied None = pending."""
        cycle = start
        for element in sequence.elements:
            cycle += element.delay
            if cycle >= len(trace):
                return None, cycle
            value = self._evaluate_boolean(spec, element.expr, trace, cycle)
            if value is None:
                # Unknown values never count as hard failures: the golden
                # design validation would otherwise reject sound assertions.
                continue
            if not value:
                return False, cycle
        return True, cycle

    def _disabled_at(self, spec: AssertionSpec, trace: Trace, cycle: int) -> bool:
        if spec.disable_iff is None:
            return False
        value = self._evaluate_boolean(spec, spec.disable_iff, trace, cycle)
        return bool(value)

    def _disabled_between(self, spec: AssertionSpec, trace: Trace, start: int, end: int) -> bool:
        if spec.disable_iff is None:
            return False
        for cycle in range(start, min(end, len(trace) - 1) + 1):
            if self._disabled_at(spec, trace, cycle):
                return True
        return False

    # ------------------------------------------------------------------ #
    # boolean-layer evaluation with sampled-value functions
    # ------------------------------------------------------------------ #

    def _evaluate_boolean(
        self, spec: AssertionSpec, expr: ast.Expression, trace: Trace, cycle: int
    ) -> Optional[bool]:
        environment = trace[cycle].pre_edge

        def sampled_value_hook(call: ast.SystemCall) -> LogicValue:
            return self._sampled_value(call, trace, cycle)

        evaluator = Evaluator(
            environment, self._design.parameters, sampled_value_hook=sampled_value_hook
        )
        try:
            return evaluator.evaluate_bool(expr)
        except EvalError:
            return None

    def _sampled_value(self, call: ast.SystemCall, trace: Trace, cycle: int) -> LogicValue:
        name = call.name
        argument = call.args[0] if call.args else None
        if argument is None:
            return LogicValue.unknown(1)

        def value_at(target_cycle: int) -> LogicValue:
            if target_cycle < 0:
                width = infer_expression_width(argument, self._design)
                return LogicValue.unknown(width)
            environment = trace[target_cycle].pre_edge
            evaluator = Evaluator(
                environment,
                self._design.parameters,
                sampled_value_hook=lambda c: self._sampled_value(c, trace, target_cycle),
            )
            try:
                return evaluator.evaluate(argument)
            except EvalError:
                return LogicValue.unknown(1)

        if name == "$past":
            memoised = self._past_depth_memo.get(id(call))
            if memoised is None:
                memoised = (call, sampled_past_depth(call, self._design.parameters))
                self._past_depth_memo[id(call)] = memoised
            return value_at(cycle - memoised[1])
        current = value_at(cycle)
        previous = value_at(cycle - 1)
        if name == "$rose":
            if current.has_unknown or previous.has_unknown:
                return LogicValue.unknown(1)
            rose = (current.to_int() & 1) == 1 and (previous.to_int() & 1) == 0
            return LogicValue.from_int(int(rose), 1)
        if name == "$fell":
            if current.has_unknown or previous.has_unknown:
                return LogicValue.unknown(1)
            fell = (current.to_int() & 1) == 0 and (previous.to_int() & 1) == 1
            return LogicValue.from_int(int(fell), 1)
        if name == "$stable":
            if current.has_unknown or previous.has_unknown:
                return LogicValue.unknown(1)
            return LogicValue.from_int(int(current.to_int() == previous.to_int()), 1)
        if name == "$changed":
            if current.has_unknown or previous.has_unknown:
                return LogicValue.unknown(1)
            return LogicValue.from_int(int(current.to_int() != previous.to_int()), 1)
        return LogicValue.unknown(1)


def check_assertions(design: ElaboratedDesign, trace: Trace) -> CheckReport:
    """Check all assertions of ``design`` over ``trace``.

    Lowers a fresh :class:`~repro.sva.compile.CompiledAssertionChecker`;
    callers that check one source on many traces reuse its checker from
    :meth:`repro.artifacts.ArtifactStore.checker` instead.
    """
    from repro.sva.compile import CompiledAssertionChecker

    return CompiledAssertionChecker(design).check(trace)

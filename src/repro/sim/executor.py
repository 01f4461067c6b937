"""Procedural statement execution for the RTL simulator.

The executor runs the body of an ``always`` block against a working
environment.  Blocking assignments update the working environment
immediately; non-blocking assignments are collected and applied by the
simulation engine after every triggered block has run (standard Verilog
scheduling semantics for the subset we support).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign
from repro.sim.evaluator import EvalError, Evaluator
from repro.sim.values import LogicValue, merge_bits


class ExecutionError(Exception):
    """Raised when a procedural statement cannot be executed."""


@dataclass
class ExecutionResult:
    """Effects produced by executing one procedural block."""

    blocking_updates: dict[str, LogicValue] = field(default_factory=dict)
    nonblocking_updates: dict[str, LogicValue] = field(default_factory=dict)


class StatementExecutor:
    """Executes statements from one procedural block."""

    def __init__(self, design: ElaboratedDesign, environment: dict[str, LogicValue]):
        self._design = design
        self._env = environment
        self._result = ExecutionResult()

    def run(self, statement: ast.Statement) -> ExecutionResult:
        """Execute ``statement``; the working environment reflects blocking updates."""
        self._execute(statement)
        return self._result

    # ------------------------------------------------------------------ #
    # statement dispatch
    # ------------------------------------------------------------------ #

    def _evaluator(self) -> Evaluator:
        return Evaluator(self._env, self._design.parameters)

    def _execute(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.Block):
            for sub in statement.statements:
                self._execute(sub)
        elif isinstance(statement, ast.Assign):
            self._execute_assign(statement)
        elif isinstance(statement, ast.If):
            self._execute_if(statement)
        elif isinstance(statement, ast.Case):
            self._execute_case(statement)
        elif isinstance(statement, (ast.SystemTaskCall, ast.NullStatement)):
            return
        elif isinstance(statement, ast.For):
            raise ExecutionError(
                "for-loops must be unrolled at elaboration before simulation"
            )
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"cannot execute statement {type(statement).__name__}")

    def _execute_assign(self, statement: ast.Assign) -> None:
        try:
            value = self._evaluator().evaluate(statement.value)
        except EvalError as exc:
            raise ExecutionError(f"line {statement.line}: {exc}") from exc
        for name, new_value in self.expand_target(statement.target, value):
            if statement.blocking:
                self._env[name] = new_value
                self._result.blocking_updates[name] = new_value
            else:
                self._result.nonblocking_updates[name] = new_value

    def expand_target(
        self, target: ast.Expression, value: LogicValue
    ) -> list[tuple[str, LogicValue]]:
        """Resolve an assignment target into (signal, full-width new value) pairs.

        Public because the simulation engine uses the same expansion for
        continuous assignments (``assign lhs = rhs``) as the executor uses
        for procedural assignments.
        """
        if isinstance(target, ast.Identifier):
            signal = self._design.signals.get(target.name)
            width = signal.width if signal is not None else value.width
            return [(target.name, value.resized(width))]
        if isinstance(target, ast.BitSelect):
            return self._expand_select(target.base, target.index, target.index, value)
        if isinstance(target, ast.PartSelect):
            return self._expand_select(target.base, target.msb, target.lsb, value)
        if isinstance(target, ast.Concat):
            return self._expand_concat(target, value)
        raise ExecutionError(f"unsupported assignment target {type(target).__name__}")

    def _expand_select(
        self,
        base: ast.Expression,
        msb_expr: ast.Expression,
        lsb_expr: ast.Expression,
        value: LogicValue,
    ) -> list[tuple[str, LogicValue]]:
        if not isinstance(base, ast.Identifier):
            raise ExecutionError("nested select targets are not supported")
        name = base.name
        evaluator = self._evaluator()
        msb = evaluator.evaluate(msb_expr)
        lsb = evaluator.evaluate(lsb_expr)
        current = self._current_value(name)
        if msb.has_unknown or lsb.has_unknown:
            return [(name, LogicValue.unknown(current.width))]
        merged = merge_bits(current, value, msb.to_int(), lsb.to_int())
        return [(name, merged)]

    def _expand_concat(
        self, target: ast.Concat, value: LogicValue
    ) -> list[tuple[str, LogicValue]]:
        updates: list[tuple[str, LogicValue]] = []
        remaining = value
        # Concatenation targets assign MSB-first; walk right-to-left pulling low bits.
        offset = 0
        for part in reversed(target.parts):
            if not isinstance(part, ast.Identifier):
                raise ExecutionError("concatenation targets must be simple identifiers")
            signal = self._design.signals.get(part.name)
            width = signal.width if signal is not None else 1
            piece = LogicValue(
                value=remaining.value >> offset,
                xmask=remaining.xmask >> offset,
                width=width,
            )
            updates.append((part.name, piece))
            offset += width
        return list(reversed(updates))

    def _current_value(self, name: str) -> LogicValue:
        if name in self._env:
            return self._env[name]
        signal = self._design.signals.get(name)
        width = signal.width if signal is not None else 1
        return LogicValue.unknown(width)

    def _execute_if(self, statement: ast.If) -> None:
        try:
            condition = self._evaluator().evaluate_bool(statement.condition)
        except EvalError as exc:
            raise ExecutionError(f"line {statement.line}: {exc}") from exc
        if condition is None:
            # Unknown condition: conservatively take neither branch (registers
            # keep their value), matching the spirit of x-pessimism without
            # poisoning the whole design state.
            return
        if condition:
            self._execute(statement.then_branch)
        elif statement.else_branch is not None:
            self._execute(statement.else_branch)

    def _execute_case(self, statement: ast.Case) -> None:
        evaluator = self._evaluator()
        try:
            subject = evaluator.evaluate(statement.subject)
        except EvalError as exc:
            raise ExecutionError(f"line {statement.line}: {exc}") from exc
        default_item: Optional[ast.CaseItem] = None
        for item in statement.items:
            if not item.labels:
                default_item = item
                continue
            for label in item.labels:
                label_value = evaluator.evaluate(label)
                if _case_label_matches(subject, label_value, statement.variant):
                    self._execute(item.body)
                    return
        if default_item is not None:
            self._execute(default_item.body)


def _case_label_matches(subject: LogicValue, label: LogicValue, variant: str) -> bool:
    """Case label comparison with casez/casex wildcard semantics."""
    width = max(subject.width, label.width)
    subject = subject.resized(width)
    label = label.resized(width)
    if variant == "case":
        if subject.has_unknown or label.has_unknown:
            return subject.xmask == label.xmask and subject.value == label.value
        return subject.to_int() == label.to_int()
    # casez: label x/z bits are wildcards; casex: subject unknowns are wildcards too.
    care_mask = ~label.xmask
    if variant == "casex":
        care_mask &= ~subject.xmask
    care_mask &= (1 << width) - 1
    return (subject.value & care_mask) == (label.value & care_mask)

"""The compile-gate lint passes.

Each pass reproduces one of the historical :mod:`repro.hdl.lint` checks
byte-for-byte (same codes, same messages, same severities) and emits plain
:class:`repro.hdl.errors.Diagnostic` records into a :class:`DiagnosticSink`,
so their output unifies with :class:`repro.hdl.lint.CompileResult` -- a
rejected corpus entry's log names the pass (diagnostic code) that fired.
:data:`LINT_PASSES` is the one ordered list; :func:`repro.hdl.lint.lint_design`
runs it through :func:`run_passes`.

:func:`run_passes` wraps each pass in an ``analyze.pass.<id>`` span/histogram
and counts emitted diagnostics under the same name, so pass timings show up
in ``python -m repro.obs summarize``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, ProceduralBlock
from repro.hdl.errors import DiagnosticSink
from repro.hdl.lint import KNOWN_SYSTEM_FUNCTIONS
from repro.obs import get_registry, phase

PassFn = Callable[[ElaboratedDesign, DiagnosticSink], None]


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def _iter_all_expressions(
    design: ElaboratedDesign,
) -> Iterator[tuple[int, ast.Expression]]:
    """Yield ``(line, expression)`` for every expression in the design."""
    for assign in design.continuous_assigns:
        yield assign.line, assign.target
        yield assign.line, assign.value
    for block in design.comb_blocks + design.seq_blocks:
        for statement in block.body.walk():
            if isinstance(statement, ast.Assign):
                yield statement.line, statement.target
                yield statement.line, statement.value
            elif isinstance(statement, ast.If):
                yield statement.line, statement.condition
            elif isinstance(statement, ast.Case):
                yield statement.line, statement.subject
                for item in statement.items:
                    for label in item.labels:
                        yield statement.line, label
    for assertion in design.assertions:
        sequences = [assertion.body.consequent]
        if assertion.body.antecedent is not None:
            sequences.append(assertion.body.antecedent)
        for sequence in sequences:
            for element in sequence.elements:
                yield assertion.line, element.expr
        if assertion.disable_iff is not None:
            yield assertion.line, assertion.disable_iff


def _first_driver_line(design: ElaboratedDesign, name: str) -> int:
    lines = design.lines_driving(name)
    if lines:
        return lines[0]
    signal = design.signals.get(name)
    return signal.line if signal is not None else 0


def _procedural_assigns(blocks: Sequence[ProceduralBlock]) -> Iterator[ast.Assign]:
    for block in blocks:
        for node in block.body.walk():
            if isinstance(node, ast.Assign):
                yield node


# --------------------------------------------------------------------------- #
# the passes
# --------------------------------------------------------------------------- #


def _pass_undeclared(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Uses of signals that are never declared."""
    declared = set(design.signals) | set(design.parameters)
    for line, expr in _iter_all_expressions(design):
        for name in expr.identifiers():
            if name not in declared:
                sink.error(
                    f"use of undeclared signal '{name}'",
                    line=line,
                    code="undeclared-signal",
                )


def _pass_input_driven(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Input ports driven from inside the module."""
    for assign in design.continuous_assigns:
        for target in ast._target_names(assign.target):
            signal = design.signals.get(target)
            if signal is not None and signal.is_input:
                sink.error(
                    f"input port '{target}' cannot be driven inside the module",
                    line=assign.line,
                    code="input-driven",
                )
    for node in _procedural_assigns(design.comb_blocks + design.seq_blocks):
        for target in ast._target_names(node.target):
            signal = design.signals.get(target)
            if signal is not None and signal.is_input:
                sink.error(
                    f"input port '{target}' cannot be driven inside the module",
                    line=node.line,
                    code="input-driven",
                )


def _pass_multiple_drivers(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Multiply-driven signals and continuous/procedural driver mixes."""
    continuous_targets: dict[str, int] = {}
    for assign in design.continuous_assigns:
        for target in ast._target_names(assign.target):
            continuous_targets[target] = continuous_targets.get(target, 0) + 1
    procedural_targets: set[str] = set()
    for block in design.comb_blocks + design.seq_blocks:
        procedural_targets.update(ast.assignment_targets(block.body))
    for name, count in continuous_targets.items():
        signal = design.signals.get(name)
        if signal is None:
            continue
        if count > 1 and signal.width == 1:
            sink.warning(
                f"signal '{name}' has multiple continuous drivers",
                line=_first_driver_line(design, name),
                code="multiple-drivers",
            )
        if name in procedural_targets:
            sink.error(
                f"signal '{name}' is driven both continuously and procedurally",
                line=_first_driver_line(design, name),
                code="mixed-drivers",
            )


def _pass_undriven(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Signals read (or merely declared) but never assigned."""
    driven: set[str] = set(design.driver_lines)
    for signal in design.signals.values():
        if signal.is_input:
            continue
        if signal.name not in driven:
            read_somewhere = any(
                signal.name in expr.identifiers()
                for _, expr in _iter_all_expressions(design)
            )
            severity = "undriven-used" if read_somewhere else "undriven-unused"
            sink.warning(
                f"signal '{signal.name}' is never assigned",
                line=signal.line,
                code=severity,
            )


def _pass_system_functions(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """System functions the simulator does not implement."""
    for line, expr in _iter_all_expressions(design):
        for node in expr.walk():
            if isinstance(node, ast.SystemCall) and node.name not in KNOWN_SYSTEM_FUNCTIONS:
                sink.error(
                    f"unsupported system function '{node.name}'",
                    line=line,
                    code="unknown-system-function",
                )


def _pass_assignment_style(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Blocking assignments in clocked blocks and vice versa."""
    for node in _procedural_assigns(design.seq_blocks):
        if node.blocking:
            sink.warning(
                "blocking assignment inside clocked always block",
                line=node.line,
                code="blocking-in-seq",
            )
    for node in _procedural_assigns(design.comb_blocks):
        if not node.blocking:
            sink.warning(
                "non-blocking assignment inside combinational always block",
                line=node.line,
                code="nonblocking-in-comb",
            )


#: ``(pass id, pass)`` in run order; the order fixes the diagnostics' order.
LINT_PASSES: tuple[tuple[str, PassFn], ...] = (
    ("undeclared-signal", _pass_undeclared),
    ("input-driven", _pass_input_driven),
    ("multiple-drivers", _pass_multiple_drivers),
    ("undriven", _pass_undriven),
    ("system-functions", _pass_system_functions),
    ("assignment-style", _pass_assignment_style),
)


def run_passes(
    design: ElaboratedDesign, sink: Optional[DiagnosticSink] = None
) -> DiagnosticSink:
    """Run every lint pass over ``design``, appending to ``sink``."""
    sink = sink if sink is not None else DiagnosticSink()
    registry = get_registry()
    for pass_id, run in LINT_PASSES:
        before = len(sink.diagnostics)
        with phase(f"analyze.pass.{pass_id}"):
            run(design, sink)
        emitted = len(sink.diagnostics) - before
        if emitted:
            registry.inc(f"analyze.pass.{pass_id}", emitted)
    return sink


__all__ = ["LINT_PASSES", "run_passes"]

"""The compile-gate lint passes.

The first six passes reproduce the historical :mod:`repro.hdl.lint` checks
byte-for-byte (same codes, same messages, same severities); the seventh
rejects the constructs no simulator runs.  Each emits plain
:class:`repro.hdl.errors.Diagnostic` records into a :class:`DiagnosticSink`,
so their output unifies with :class:`repro.hdl.lint.CompileResult` -- a
rejected corpus entry's log names the pass (diagnostic code) that fired.
:data:`LINT_PASSES` is the one ordered list; :func:`repro.hdl.lint.lint_design`
runs it through :func:`run_passes`.  The passes walk no AST: they read the
assignments, identifiers and system calls that one sweep of the design
collected (:attr:`ElaboratedDesign.sweep`).

:func:`run_passes` wraps each pass in an ``analyze.pass.<id>`` span/histogram
and counts emitted diagnostics under the same name, so pass timings show up
in ``python -m repro.obs summarize``.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Optional

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign
from repro.hdl.errors import DiagnosticSink
from repro.hdl.lint import KNOWN_SYSTEM_FUNCTIONS, SAMPLED_VALUE_FUNCTIONS
from repro.obs import get_registry, phase

PassFn = Callable[[ElaboratedDesign, DiagnosticSink], None]


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def _first_driver_line(design: ElaboratedDesign, name: str) -> int:
    lines = design.lines_driving(name)
    if lines:
        return lines[0]
    signal = design.signals.get(name)
    return signal.line if signal is not None else 0


# --------------------------------------------------------------------------- #
# the passes: each reads the design's one sweep (ElaboratedDesign.sweep)
# --------------------------------------------------------------------------- #


def _pass_undeclared(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Uses of signals that are never declared."""
    declared = design.signals.keys() | design.parameters.keys()
    for line, names in design.sweep.undeclared:
        for name in names:
            if name not in declared:
                sink.error(
                    f"use of undeclared signal '{name}'",
                    line=line,
                    code="undeclared-signal",
                )


def _pass_input_driven(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Input ports driven from inside the module."""
    for line, targets in design.sweep.drivers:
        for target in targets:
            signal = design.signals.get(target)
            if signal is not None and signal.is_input:
                sink.error(
                    f"input port '{target}' cannot be driven inside the module",
                    line=line,
                    code="input-driven",
                )


def _pass_multiple_drivers(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Multiply-driven signals and continuous/procedural driver mixes."""
    sweep = design.sweep
    continuous_targets: dict[str, int] = {}
    for _, targets in sweep.continuous:
        for target in targets:
            continuous_targets[target] = continuous_targets.get(target, 0) + 1
    procedural_targets: set[str] = set()
    for _, targets in sweep.procedural_assigns:
        procedural_targets.update(targets)
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
    driven = design.driver_lines
    reads = design.sweep.reads
    for signal in design.signals.values():
        if signal.is_input or signal.name in driven:
            continue
        severity = "undriven-used" if signal.name in reads else "undriven-unused"
        sink.warning(
            f"signal '{signal.name}' is never assigned",
            line=signal.line,
            code=severity,
        )


def _pass_system_functions(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """System functions the simulator does not implement."""
    for line, call in design.sweep.calls:
        if call.name not in KNOWN_SYSTEM_FUNCTIONS:
            sink.error(
                f"unsupported system function '{call.name}'",
                line=line,
                code="unknown-system-function",
            )


def _pass_assignment_style(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Blocking assignments in clocked blocks and vice versa."""
    sweep = design.sweep
    for node, _ in sweep.seq_assigns:
        if node.blocking:
            sink.warning(
                "blocking assignment inside clocked always block",
                line=node.line,
                code="blocking-in-seq",
            )
    for node, _ in sweep.comb_assigns:
        if not node.blocking:
            sink.warning(
                "non-blocking assignment inside combinational always block",
                line=node.line,
                code="nonblocking-in-comb",
            )


def _target_problem(target: ast.Expression) -> Optional[str]:
    """Why no simulator can assign ``target`` (None when both can)."""
    if isinstance(target, (ast.BitSelect, ast.PartSelect)):
        if not isinstance(target.base, ast.Identifier):
            return f"nested select target '{target}' is not supported"
    elif isinstance(target, ast.Concat):
        if not all(isinstance(part, ast.Identifier) for part in target.parts):
            return f"concatenation target '{target}' may hold only signal names"
    elif not isinstance(target, ast.Identifier):
        return f"'{target}' is not an assignable target"
    return None


def _pass_unsupported_constructs(design: ElaboratedDesign, sink: DiagnosticSink) -> None:
    """Constructs neither simulator runs, so a design that passes can be lowered.

    Assignment targets must be a signal, a select of one or a concatenation
    of signals (an instance output port may be connected to any
    expression); every known system function needs an argument; and the
    sampled-value functions belong to assertions, not design logic.
    """
    sweep = design.sweep
    targets = [(assign.line, assign.target) for assign in design.continuous_assigns]
    targets.extend(
        (node.line, node.target)
        for node, _ in chain(sweep.procedural_assigns, sweep.initial_assigns)
    )
    for line, target in targets:
        problem = _target_problem(target)
        if problem is not None:
            sink.error(problem, line=line, code="unsupported-construct")
    for index, (line, call) in enumerate(sweep.calls):
        if call.name not in KNOWN_SYSTEM_FUNCTIONS:
            continue
        if not call.args:
            message = f"system function '{call.name}' needs an argument"
        elif index < sweep.logic_calls and call.name in SAMPLED_VALUE_FUNCTIONS:
            message = f"sampled-value function '{call.name}' is only allowed in assertions"
        else:
            continue
        sink.error(message, line=line, code="unsupported-construct")


#: ``(pass id, pass)`` in run order; the order fixes the diagnostics' order.
LINT_PASSES: tuple[tuple[str, PassFn], ...] = (
    ("undeclared-signal", _pass_undeclared),
    ("input-driven", _pass_input_driven),
    ("multiple-drivers", _pass_multiple_drivers),
    ("undriven", _pass_undriven),
    ("system-functions", _pass_system_functions),
    ("assignment-style", _pass_assignment_style),
    ("unsupported-construct", _pass_unsupported_constructs),
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

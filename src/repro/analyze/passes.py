"""Pluggable static-analysis pass framework.

Every check is an :class:`AnalysisPass` registered under a stable id via
:func:`register_pass`.  Passes emit plain :class:`repro.hdl.errors.Diagnostic`
records into a :class:`DiagnosticSink`, so their output unifies with the
compile gate's :class:`repro.hdl.lint.CompileResult` -- a rejected corpus
entry's log names the pass (diagnostic code) that fired.

Two tiers share the registry:

* ``lint`` passes (``lint=True``) are the compile gate: they reproduce the
  historical :mod:`repro.hdl.lint` checks byte-for-byte (same codes, same
  messages, same severities) and are the only passes run by
  :func:`repro.hdl.lint.lint_design`, so adding analysis passes can never
  change what compiles.
* analysis passes (``lint=False``) are advisory: dead writes and
  unreachable branches under constant folding, width truncation at
  assignments, incomplete-assignment latch inference, combinational loop
  detection (with the cycle path in the diagnostic) and unknown-reachability
  (uninitialised registers feeding assertion cones).

:func:`run_passes` wraps each pass in an ``analyze.pass.<id>`` span/histogram
and counts emitted diagnostics under the same name, so pass timings show up
in ``python -m repro.obs summarize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.analyze.dfg import SignalDfg
from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, ProceduralBlock, Signal, fold_constant
from repro.hdl.errors import DiagnosticSink, ElaborationError
from repro.hdl.lint import KNOWN_SYSTEM_FUNCTIONS
from repro.obs import get_registry, phase

class AnalysisContext:
    """Inputs shared by every pass: the design and its (lazy) dataflow graph."""

    def __init__(self, design: ElaboratedDesign, dfg: Optional[SignalDfg] = None):
        self.design = design
        self._dfg = dfg

    @property
    def dfg(self) -> SignalDfg:
        """The dataflow graph, built on demand unless one was handed in.

        Lint-tier passes deliberately avoid this property so the compile
        gate never pays for graph construction.
        """
        if self._dfg is None:
            self._dfg = SignalDfg(self.design)
        return self._dfg


PassFn = Callable[[AnalysisContext, DiagnosticSink], None]


@dataclass(frozen=True)
class AnalysisPass:
    """One registered pass: stable id, one-line description, runner."""

    pass_id: str
    description: str
    lint: bool
    run: PassFn


_REGISTRY: dict[str, AnalysisPass] = {}


def register_pass(
    pass_id: str, description: str, *, lint: bool = False
) -> Callable[[PassFn], PassFn]:
    """Register ``fn`` as the analysis pass ``pass_id`` (decorator)."""

    def decorator(fn: PassFn) -> PassFn:
        if pass_id in _REGISTRY:
            raise ValueError(f"analysis pass '{pass_id}' registered twice")
        _REGISTRY[pass_id] = AnalysisPass(
            pass_id=pass_id, description=description, lint=lint, run=fn
        )
        return fn

    return decorator


def registered_passes() -> tuple[AnalysisPass, ...]:
    """All passes, in registration order."""
    return tuple(_REGISTRY.values())


def lint_passes() -> tuple[AnalysisPass, ...]:
    """The compile-gate subset (the historical ``hdl/lint.py`` checks)."""
    return tuple(p for p in _REGISTRY.values() if p.lint)


def get_pass(pass_id: str) -> AnalysisPass:
    """Look up one pass by its stable id."""
    try:
        return _REGISTRY[pass_id]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown analysis pass '{pass_id}' (known: {known})") from exc


def run_passes(
    design: ElaboratedDesign,
    *,
    passes: Optional[Sequence[AnalysisPass]] = None,
    sink: Optional[DiagnosticSink] = None,
    dfg: Optional[SignalDfg] = None,
) -> DiagnosticSink:
    """Run ``passes`` (default: all registered) over ``design``."""
    sink = sink if sink is not None else DiagnosticSink()
    context = AnalysisContext(design, dfg=dfg)
    registry = get_registry()
    for analysis_pass in passes if passes is not None else registered_passes():
        before = len(sink.diagnostics)
        with phase(f"analyze.pass.{analysis_pass.pass_id}"):
            analysis_pass.run(context, sink)
        emitted = len(sink.diagnostics) - before
        if emitted:
            registry.inc(f"analyze.pass.{analysis_pass.pass_id}", emitted)
    return sink


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
# lint-tier passes (the historical compile-gate checks)
# --------------------------------------------------------------------------- #


@register_pass(
    "undeclared-signal",
    "uses of signals that are never declared",
    lint=True,
)
def _pass_undeclared(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
    declared = set(design.signals) | set(design.parameters)
    for line, expr in _iter_all_expressions(design):
        for name in expr.identifiers():
            if name not in declared:
                sink.error(
                    f"use of undeclared signal '{name}'",
                    line=line,
                    code="undeclared-signal",
                )


@register_pass(
    "input-driven",
    "input ports driven from inside the module",
    lint=True,
)
def _pass_input_driven(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
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


@register_pass(
    "multiple-drivers",
    "multiply-driven signals and continuous/procedural driver mixes",
    lint=True,
)
def _pass_multiple_drivers(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
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


@register_pass(
    "undriven",
    "signals read (or merely declared) but never assigned",
    lint=True,
)
def _pass_undriven(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
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


@register_pass(
    "system-functions",
    "system functions the simulator does not implement",
    lint=True,
)
def _pass_system_functions(context: AnalysisContext, sink: DiagnosticSink) -> None:
    for line, expr in _iter_all_expressions(context.design):
        for node in expr.walk():
            if isinstance(node, ast.SystemCall) and node.name not in KNOWN_SYSTEM_FUNCTIONS:
                sink.error(
                    f"unsupported system function '{node.name}'",
                    line=line,
                    code="unknown-system-function",
                )


@register_pass(
    "assignment-style",
    "blocking assignments in clocked blocks and vice versa",
    lint=True,
)
def _pass_assignment_style(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
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


# --------------------------------------------------------------------------- #
# analysis-tier passes
# --------------------------------------------------------------------------- #


def _fold_or_none(expr: ast.Expression, parameters: dict[str, int]) -> Optional[int]:
    try:
        return fold_constant(expr, parameters)
    except ElaborationError:
        return None


@register_pass(
    "dead-code",
    "dead writes and branches unreachable under constant folding",
)
def _pass_dead_code(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
    dfg = context.dfg
    read: set[str] = set()
    for node in dfg.nodes:
        read |= node.uses
    for spec in design.assertions:
        read |= dfg.assertion_roots(spec)
    reported: set[str] = set()
    for node in dfg.nodes:
        for name in sorted(node.defs):
            signal = design.signals.get(name)
            if signal is None or signal.kind in ("output", "inout") or name in read:
                continue
            if name not in reported:
                reported.add(name)
                sink.warning(
                    f"signal '{name}' is assigned but never read",
                    line=node.line,
                    code="dead-write",
                )
    for block in design.comb_blocks + design.seq_blocks:
        body = block.body
        for statement in body.walk():
            if isinstance(statement, ast.If):
                value = _fold_or_none(statement.condition, design.parameters)
                if value is None:
                    continue
                if value and statement.else_branch is not None:
                    sink.warning(
                        f"else-branch is unreachable: condition folds to {value}",
                        line=statement.line,
                        code="unreachable-branch",
                    )
                elif not value:
                    sink.warning(
                        "then-branch is unreachable: condition folds to 0",
                        line=statement.line,
                        code="unreachable-branch",
                    )
            elif isinstance(statement, ast.Case):
                subject = _fold_or_none(statement.subject, design.parameters)
                if subject is None:
                    continue
                for item in statement.items:
                    if not item.labels:
                        continue  # default arm
                    values = [
                        _fold_or_none(label, design.parameters) for label in item.labels
                    ]
                    if all(v is not None and v != subject for v in values):
                        sink.warning(
                            f"case arm is unreachable: subject folds to {subject}",
                            line=statement.line,
                            code="unreachable-branch",
                        )


def _expression_width(
    expr: ast.Expression, design: ElaboratedDesign
) -> Optional[int]:
    """Best-effort bit width of ``expr``; ``None`` when width is flexible.

    Unsized literals and parameters report ``None`` so idioms like
    ``count <= count + 1`` never look like truncation.
    """
    if isinstance(expr, ast.Number):
        return expr.width
    if isinstance(expr, ast.Identifier):
        signal = design.signals.get(expr.name)
        return signal.width if signal is not None else None
    if isinstance(expr, ast.Unary):
        if expr.op in ("&", "|", "^", "~&", "~|", "~^", "!"):
            return 1
        return _expression_width(expr.operand, design)
    if isinstance(expr, ast.Binary):
        if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||", "===", "!=="):
            return 1
        if expr.op in ("<<", ">>", "<<<", ">>>"):
            return _expression_width(expr.left, design)
        left = _expression_width(expr.left, design)
        right = _expression_width(expr.right, design)
        if left is None:
            return right
        if right is None:
            return left
        return max(left, right)
    if isinstance(expr, ast.Ternary):
        true_width = _expression_width(expr.if_true, design)
        false_width = _expression_width(expr.if_false, design)
        if true_width is None:
            return false_width
        if false_width is None:
            return true_width
        return max(true_width, false_width)
    if isinstance(expr, ast.BitSelect):
        return 1
    if isinstance(expr, ast.PartSelect):
        msb = _fold_or_none(expr.msb, design.parameters)
        lsb = _fold_or_none(expr.lsb, design.parameters)
        if msb is None or lsb is None:
            return None
        return abs(msb - lsb) + 1
    if isinstance(expr, ast.Concat):
        total = 0
        for part in expr.parts:
            width = _expression_width(part, design)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, ast.Replicate):
        count = _fold_or_none(expr.count, design.parameters)
        width = _expression_width(expr.value, design)
        if count is None or width is None:
            return None
        return count * width
    if isinstance(expr, ast.SystemCall):
        if expr.name in ("$past", "$signed", "$unsigned") and expr.args:
            return _expression_width(expr.args[0], design)
        if expr.name in ("$rose", "$fell", "$stable", "$changed", "$onehot", "$onehot0"):
            return 1
        return None
    return None


@register_pass(
    "width-truncation",
    "assignments that silently truncate a wider expression",
)
def _pass_width_truncation(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design

    def check(target: ast.Expression, value: ast.Expression, line: int) -> None:
        if not isinstance(target, ast.Identifier):
            return
        signal = design.signals.get(target.name)
        if signal is None:
            return
        width = _expression_width(value, design)
        if width is None or width <= signal.width:
            return
        constant = _fold_or_none(value, design.parameters)
        if constant is not None and 0 <= constant < (1 << signal.width):
            return  # the constant fits: sized-literal style, not a truncation
        sink.warning(
            f"assignment truncates {width}-bit expression"
            f" to {signal.width}-bit signal '{target.name}'",
            line=line,
            code="width-truncation",
        )

    for assign in design.continuous_assigns:
        check(assign.target, assign.value, assign.line)
    for node in _procedural_assigns(design.comb_blocks + design.seq_blocks):
        check(node.target, node.value, node.line)


def _may_must_assign(statement: ast.Statement) -> tuple[set[str], set[str]]:
    """Signals assigned on some path vs on every path through ``statement``."""
    if isinstance(statement, ast.Block):
        may: set[str] = set()
        must: set[str] = set()
        for sub in statement.statements:
            sub_may, sub_must = _may_must_assign(sub)
            may |= sub_may
            must |= sub_must
        return may, must
    if isinstance(statement, ast.Assign):
        names = set(ast._target_names(statement.target))
        return names, names
    if isinstance(statement, ast.If):
        then_may, then_must = _may_must_assign(statement.then_branch)
        if statement.else_branch is None:
            return then_may, set()
        else_may, else_must = _may_must_assign(statement.else_branch)
        return then_may | else_may, then_must & else_must
    if isinstance(statement, ast.Case):
        may = set()
        must_sets: list[set[str]] = []
        has_default = False
        for item in statement.items:
            item_may, item_must = _may_must_assign(item.body)
            may |= item_may
            must_sets.append(item_must)
            if not item.labels:
                has_default = True
        if not has_default or not must_sets:
            return may, set()
        must = set.intersection(*must_sets) if must_sets else set()
        return may, must
    return set(), set()


@register_pass(
    "latch-inference",
    "combinational blocks that assign a signal on only some paths",
)
def _pass_latch_inference(context: AnalysisContext, sink: DiagnosticSink) -> None:
    for block in context.design.comb_blocks:
        may, must = _may_must_assign(block.body)
        for name in sorted(may - must):
            sink.warning(
                f"signal '{name}' is not assigned on every path through"
                " a combinational block (latch inferred)",
                line=block.line,
                code="latch-inferred",
            )


@register_pass(
    "comb-loop",
    "static cycles through combinational drivers",
)
def _pass_comb_loop(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
    for cycle in context.dfg.combinational_cycles():
        path = " -> ".join(cycle)
        sink.warning(
            f"combinational loop: {path}",
            line=_first_driver_line(design, cycle[0]),
            code="comb-loop",
        )


def _initialised_registers(design: ElaboratedDesign) -> set[str]:
    initialised: set[str] = set()
    for initial in design.initial_blocks:
        initialised.update(ast.assignment_targets(initial.body))
    for node in _procedural_assigns(design.seq_blocks):
        if _fold_or_none(node.value, design.parameters) is not None:
            initialised.update(ast._target_names(node.target))
    return initialised


@register_pass(
    "unknown-reachability",
    "uninitialised registers whose unknowns can reach an assertion",
)
def _pass_unknown_reachability(context: AnalysisContext, sink: DiagnosticSink) -> None:
    design = context.design
    dfg = context.dfg
    registers: set[str] = set()
    for block in design.seq_blocks:
        registers.update(ast.assignment_targets(block.body))
    at_risk = registers - _initialised_registers(design)
    if not at_risk:
        return
    cones = dfg.assertion_cones()
    for name in sorted(at_risk):
        signal: Optional[Signal] = design.signals.get(name)
        if signal is None:
            continue
        for spec in design.assertions:
            if name in cones[spec.name]:
                sink.warning(
                    f"uninitialised register '{name}' can carry unknown"
                    f" values into assertion '{spec.name}'",
                    line=signal.line,
                    code="unknown-reachability",
                )
                break


__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "KNOWN_SYSTEM_FUNCTIONS",
    "get_pass",
    "lint_passes",
    "register_pass",
    "registered_passes",
    "run_passes",
]

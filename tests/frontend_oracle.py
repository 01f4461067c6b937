"""The front end's analyses as they were before they shared one sweep.

Elaboration builds its driver map and fatal checks, and the lint tier its
seven passes, from one explicit-stack sweep per design
(``ElaboratedDesign.sweep``); the dependency graph is built on first read.
This module keeps the earlier code -- recursive generator walks, one walk
per pass, the eagerly built graph -- as the oracle those must match:
:func:`oracle_mismatches` names every fact of a compile result that
differs from it, order included.  Initial blocks are read like always
blocks, except that they drive no signal.  The seventh pass, which rejects
the constructs no simulator runs, is written here as one more walk.
"""

from __future__ import annotations

from repro.hdl import ast
from repro.hdl.errors import DiagnosticSink, ElaborationError
from repro.hdl.lint import KNOWN_SYSTEM_FUNCTIONS

# --------------------------------------------------------------------------- #
# recursive walks
# --------------------------------------------------------------------------- #


def walk_expression(expr):
    yield expr
    for name in _EXPRESSION_CHILDREN.get(type(expr), ()):
        child = getattr(expr, name)
        if isinstance(child, list):
            for part in child:
                yield from walk_expression(part)
        else:
            yield from walk_expression(child)


_EXPRESSION_CHILDREN = {
    ast.Unary: ("operand",),
    ast.Binary: ("left", "right"),
    ast.Ternary: ("condition", "if_true", "if_false"),
    ast.BitSelect: ("base", "index"),
    ast.PartSelect: ("base", "msb", "lsb"),
    ast.Concat: ("parts",),
    ast.Replicate: ("count", "value"),
    ast.SystemCall: ("args",),
}


def identifiers(expr) -> set[str]:
    names: set[str] = set()
    for node in walk_expression(expr):
        if isinstance(node, ast.Identifier):
            names.add(node.name)
    return names


def walk_statement(statement):
    yield statement
    if isinstance(statement, ast.Block):
        subs = statement.statements
    elif isinstance(statement, ast.If):
        subs = [statement.then_branch]
        if statement.else_branch is not None:
            subs.append(statement.else_branch)
    elif isinstance(statement, ast.Case):
        subs = [item.body for item in statement.items]
    elif isinstance(statement, ast.For):
        subs = [statement.body]
    else:
        subs = []
    for sub in subs:
        yield from walk_statement(sub)


# --------------------------------------------------------------------------- #
# elaboration's analyses
# --------------------------------------------------------------------------- #


def _statement_dependencies(statement, context=None):
    context = context or []
    dependencies: dict[str, set[str]] = {}

    def visit(node, active_context):
        if isinstance(node, ast.Block):
            for sub in node.statements:
                visit(sub, active_context)
        elif isinstance(node, ast.If):
            new_context = active_context + [node.condition]
            visit(node.then_branch, new_context)
            if node.else_branch is not None:
                visit(node.else_branch, new_context)
        elif isinstance(node, ast.Case):
            new_context = active_context + [node.subject] + [
                label for item in node.items for label in item.labels
            ]
            for item in node.items:
                visit(item.body, new_context)
        elif isinstance(node, ast.Assign):
            sources = set(identifiers(node.value))
            for expr in active_context:
                sources |= identifiers(expr)
            if isinstance(node.target, (ast.BitSelect, ast.PartSelect)):
                sources |= identifiers(node.target)
            for target in ast._target_names(node.target):
                dependencies.setdefault(target, set()).update(sources)

    visit(statement, context)
    return dependencies


def dependency_graph(design) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {name: set() for name in design.signals}
    for assign in design.continuous_assigns:
        sources = identifiers(assign.value)
        if isinstance(assign.target, (ast.BitSelect, ast.PartSelect)):
            sources |= identifiers(assign.target) - set(ast._target_names(assign.target))
        for target in ast._target_names(assign.target):
            graph.setdefault(target, set()).update(sources)
    for block in design.comb_blocks + design.seq_blocks:
        for target, sources in _statement_dependencies(block.body).items():
            graph.setdefault(target, set()).update(sources)
        if block.is_clocked:
            edge_signals = {item.signal for item in block.clock_edges()}
            for target in _statement_dependencies(block.body):
                graph.setdefault(target, set()).update(edge_signals)
    return graph


def driver_lines(design) -> dict[str, list[int]]:
    drivers: dict[str, list[int]] = {}
    for assign in design.continuous_assigns:
        for target in ast._target_names(assign.target):
            drivers.setdefault(target, []).append(assign.line)
    for block in design.comb_blocks + design.seq_blocks:
        for node in walk_statement(block.body):
            if isinstance(node, ast.Assign):
                for target in ast._target_names(node.target):
                    drivers.setdefault(target, []).append(node.line)
    return drivers


def check_design(design) -> None:
    for assign in design.continuous_assigns:
        for target in ast._target_names(assign.target):
            if target not in design.signals:
                raise ElaborationError(
                    f"assignment to undeclared signal '{target}'",
                    line=assign.line,
                    code="undeclared-signal",
                )
    for block in design.comb_blocks + design.seq_blocks + design.initial_blocks:
        for node in walk_statement(block.body):
            if isinstance(node, ast.Assign):
                for target in ast._target_names(node.target):
                    if target not in design.signals:
                        raise ElaborationError(
                            f"assignment to undeclared signal '{target}'",
                            line=node.line,
                            code="undeclared-signal",
                        )


# --------------------------------------------------------------------------- #
# the seven lint passes
# --------------------------------------------------------------------------- #


def _all_expressions(design):
    yield from _logic_expressions(design)
    yield from _assertion_expressions(design)


def _logic_expressions(design):
    for assign in design.continuous_assigns:
        yield assign.line, assign.target
        yield assign.line, assign.value
    for block in design.comb_blocks + design.seq_blocks + design.initial_blocks:
        for statement in walk_statement(block.body):
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


def _assertion_expressions(design):
    for assertion in design.assertions:
        sequences = [assertion.body.consequent]
        if assertion.body.antecedent is not None:
            sequences.append(assertion.body.antecedent)
        for sequence in sequences:
            for element in sequence.elements:
                yield assertion.line, element.expr
        if assertion.disable_iff is not None:
            yield assertion.line, assertion.disable_iff


def _procedural_assigns(blocks):
    for block in blocks:
        for node in walk_statement(block.body):
            if isinstance(node, ast.Assign):
                yield node


def _first_driver_line(design, drivers, name):
    lines = sorted(set(drivers.get(name, [])))
    if lines:
        return lines[0]
    signal = design.signals.get(name)
    return signal.line if signal is not None else 0


def lint(design) -> DiagnosticSink:
    sink = DiagnosticSink()
    drivers = driver_lines(design)
    procedural = design.comb_blocks + design.seq_blocks

    declared = set(design.signals) | set(design.parameters)
    for line, expr in _all_expressions(design):
        for name in identifiers(expr):
            if name not in declared:
                sink.error(f"use of undeclared signal '{name}'", line=line,
                           code="undeclared-signal")

    for assign in design.continuous_assigns:
        for target in ast._target_names(assign.target):
            signal = design.signals.get(target)
            if signal is not None and signal.is_input:
                sink.error(f"input port '{target}' cannot be driven inside the module",
                           line=assign.line, code="input-driven")
    for node in _procedural_assigns(procedural):
        for target in ast._target_names(node.target):
            signal = design.signals.get(target)
            if signal is not None and signal.is_input:
                sink.error(f"input port '{target}' cannot be driven inside the module",
                           line=node.line, code="input-driven")

    continuous_targets: dict[str, int] = {}
    for assign in design.continuous_assigns:
        for target in ast._target_names(assign.target):
            continuous_targets[target] = continuous_targets.get(target, 0) + 1
    procedural_targets: set[str] = set()
    for node in _procedural_assigns(procedural):
        procedural_targets.update(ast._target_names(node.target))
    for name, count in continuous_targets.items():
        signal = design.signals.get(name)
        if signal is None:
            continue
        if count > 1 and signal.width == 1:
            sink.warning(f"signal '{name}' has multiple continuous drivers",
                         line=_first_driver_line(design, drivers, name), code="multiple-drivers")
        if name in procedural_targets:
            sink.error(f"signal '{name}' is driven both continuously and procedurally",
                       line=_first_driver_line(design, drivers, name), code="mixed-drivers")

    for signal in design.signals.values():
        if signal.is_input or signal.name in drivers:
            continue
        read = any(signal.name in identifiers(expr) for _, expr in _all_expressions(design))
        sink.warning(f"signal '{signal.name}' is never assigned", line=signal.line,
                     code="undriven-used" if read else "undriven-unused")

    for line, expr in _all_expressions(design):
        for node in walk_expression(expr):
            if isinstance(node, ast.SystemCall) and node.name not in KNOWN_SYSTEM_FUNCTIONS:
                sink.error(f"unsupported system function '{node.name}'", line=line,
                           code="unknown-system-function")

    for node in _procedural_assigns(design.seq_blocks):
        if node.blocking:
            sink.warning("blocking assignment inside clocked always block", line=node.line,
                         code="blocking-in-seq")
    for node in _procedural_assigns(design.comb_blocks):
        if not node.blocking:
            sink.warning("non-blocking assignment inside combinational always block",
                         line=node.line, code="nonblocking-in-comb")

    targets = [(assign.line, assign.target) for assign in design.continuous_assigns]
    targets += [(node.line, node.target)
                for node in _procedural_assigns(procedural + design.initial_blocks)]
    for line, target in targets:
        message = _unassignable(target)
        if message:
            sink.error(message, line=line, code="unsupported-construct")
    for in_assertion, expressions in ((False, _logic_expressions(design)),
                                      (True, _assertion_expressions(design))):
        for line, expr in expressions:
            for node in walk_expression(expr):
                if not isinstance(node, ast.SystemCall) or node.name not in KNOWN_SYSTEM_FUNCTIONS:
                    continue
                if not node.args:
                    sink.error(f"system function '{node.name}' needs an argument", line=line,
                               code="unsupported-construct")
                elif not in_assertion and node.name in _SAMPLED_VALUE_FUNCTIONS:
                    sink.error(f"sampled-value function '{node.name}' is only allowed in "
                               "assertions", line=line, code="unsupported-construct")
    return sink


_SAMPLED_VALUE_FUNCTIONS = ("$past", "$rose", "$fell", "$stable", "$changed")


def _unassignable(target) -> str:
    """Why neither simulator can write ``target`` ("" when both can)."""
    if isinstance(target, ast.Identifier):
        return ""
    if isinstance(target, (ast.BitSelect, ast.PartSelect)):
        if isinstance(target.base, ast.Identifier):
            return ""
        return f"nested select target '{target}' is not supported"
    if isinstance(target, ast.Concat):
        if all(isinstance(part, ast.Identifier) for part in target.parts):
            return ""
        return f"concatenation target '{target}' may hold only signal names"
    return f"'{target}' is not an assignable target"


# --------------------------------------------------------------------------- #
# the comparison
# --------------------------------------------------------------------------- #


def _walks_match(design) -> bool:
    """Every expression's walk and identifier order, and every block's walk."""
    for _, expr in _all_expressions(design):
        if [id(node) for node in expr.walk()] != [id(node) for node in walk_expression(expr)]:
            return False
        if list(expr.identifiers()) != list(identifiers(expr)):
            return False
    for block in design.comb_blocks + design.seq_blocks + design.initial_blocks:
        if [id(n) for n in block.body.walk()] != [id(n) for n in walk_statement(block.body)]:
            return False
    return True


def oracle_mismatches(result) -> list[str]:
    """The facts of ``result`` (a ``CompileResult``) that differ from the oracle."""
    design = result.design
    if design is None:
        return []
    failed = []
    graph = dependency_graph(design)
    if design.dependency_graph != graph or list(design.dependency_graph) != list(graph):
        failed.append("dependency graph")
    drivers = driver_lines(design)
    if design.driver_lines != drivers or list(design.driver_lines) != list(drivers):
        failed.append("driver lines")
    if [d.render() for d in lint(design).diagnostics] != [d.render() for d in result.diagnostics]:
        failed.append("lint diagnostics")
    if not _walks_match(design):
        failed.append("walk order")
    return failed

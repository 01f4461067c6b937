"""Elaboration: turn a parsed module into a flat, analysable design.

Elaboration performs the front-end work a synthesis/simulation tool would do
before execution:

* constant-fold parameters and ranges to concrete widths,
* unroll ``for`` loops with constant bounds,
* flatten single-level module hierarchies (instantiations),
* build the signal table and driver map (the signal dependency graph is
  built on first read),
* resolve named properties referenced by concurrent assertions.

One explicit-stack sweep per design (:class:`DesignSweep`) collects the
assignments and expressions that the driver map, the fatal checks and the
lint tier (:mod:`repro.analyze.passes`) read.

The resulting :class:`ElaboratedDesign` is the common substrate used by the
simulator (:mod:`repro.sim`), the assertion checker (:mod:`repro.sva`), the
lint tier (:mod:`repro.analyze`) and the repair model's structural
analyses (cone of influence, suspicious-line features).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from repro.hdl import ast
from repro.hdl.errors import ElaborationError


@dataclass
class Signal:
    """One elaborated signal (port, wire, reg or integer)."""

    name: str
    width: int
    kind: str  # "input" | "output" | "inout" | "wire" | "reg" | "integer"
    signed: bool = False
    msb: int = 0
    lsb: int = 0
    line: int = 0

    @property
    def is_port(self) -> bool:
        return self.kind in ("input", "output", "inout")

    @property
    def is_input(self) -> bool:
        return self.kind == "input"

    @property
    def is_output(self) -> bool:
        return self.kind == "output"

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass
class AssertionSpec:
    """A fully resolved concurrent assertion ready for checking."""

    name: str
    clock: ast.ClockEvent
    disable_iff: Optional[ast.Expression]
    body: ast.SvaProperty
    error_message: str = ""
    line: int = 0
    kind: str = "assert"

    def identifiers(self) -> set[str]:
        names = self.body.identifiers()
        if self.disable_iff is not None:
            names |= self.disable_iff.identifiers()
        return names


@dataclass
class ProceduralBlock:
    """An elaborated always block (loops unrolled, hierarchy flattened)."""

    sensitivity: list[ast.SensitivityItem]
    star: bool
    body: ast.Statement
    line: int = 0

    @property
    def is_clocked(self) -> bool:
        return any(item.edge is not None for item in self.sensitivity)

    def clock_edges(self) -> list[ast.SensitivityItem]:
        return [item for item in self.sensitivity if item.edge is not None]


@dataclass
class DesignSweep:
    """What one pre-order pass over a design's assigns, blocks and assertions finds.

    ``continuous`` holds ``(line, target names)`` per continuous assign;
    ``comb_assigns`` / ``seq_assigns`` / ``initial_assigns`` hold each
    procedural assignment of the combinational / clocked / initial blocks
    with its target names, block by block and in pre-order within a block
    (initial blocks drive no signal: their assignments are not
    :attr:`drivers`).  The expressions are read in lint order: each
    continuous assign's target and value, then the comb, seq and initial
    blocks' statements (an assignment's target and value, an ``if``
    condition, a ``case`` subject and its labels), then each assertion's
    consequent and antecedent elements and its ``disable iff``.  Of them
    the sweep keeps every identifier read (``reads``), the ``(line,
    identifiers)`` of each expression that names an undeclared signal
    (``undeclared``; the set is filled in pre-order, so it iterates as
    :meth:`~repro.hdl.ast.Expression.identifiers` does) and the ``(line,
    call)`` of every system call (``calls``), in that order; the first
    ``logic_calls`` calls are in design logic, the rest in assertions.
    """

    continuous: list[tuple[int, list[str]]]
    comb_assigns: list[tuple[ast.Assign, list[str]]]
    seq_assigns: list[tuple[ast.Assign, list[str]]]
    initial_assigns: list[tuple[ast.Assign, list[str]]]
    reads: set[str]
    undeclared: list[tuple[int, set[str]]]
    calls: list[tuple[int, ast.SystemCall]]
    logic_calls: int

    @property
    def procedural_assigns(self) -> chain[tuple[ast.Assign, list[str]]]:
        """The comb blocks' assignments, then the seq blocks'."""
        return chain(self.comb_assigns, self.seq_assigns)

    @property
    def drivers(self) -> Iterator[tuple[int, list[str]]]:
        """``(line, target names)`` of every continuous, then procedural, assignment."""
        yield from self.continuous
        for node, targets in self.procedural_assigns:
            yield node.line, targets


@dataclass
class ElaboratedDesign:
    """A flat, simulatable representation of one top-level module.

    The design shares AST nodes with the parsed :class:`~repro.hdl.ast.SourceUnit`
    it came from: top-level statements, expressions and properties are not
    copied (only the items of an instance are, to prefix their names), and
    an always block with no ``for`` loop keeps its parsed body node.  So
    the AST is read-only after parsing: nothing may write a node reachable
    from a unit or a design, and two elaborations of one parse are equal
    node for node (the per-node keys of :mod:`repro.artifacts.canon` agree).

    :attr:`sweep` and :attr:`dependency_graph` are computed on first read and
    kept; elaboration reads the sweep, and only structural analyses (the
    repair model's cone features, :mod:`repro.analyze.dfg`) read the graph.
    """

    name: str
    signals: dict[str, Signal] = field(default_factory=dict)
    parameters: dict[str, int] = field(default_factory=dict)
    continuous_assigns: list[ast.ContinuousAssign] = field(default_factory=list)
    comb_blocks: list[ProceduralBlock] = field(default_factory=list)
    seq_blocks: list[ProceduralBlock] = field(default_factory=list)
    initial_blocks: list[ast.InitialBlock] = field(default_factory=list)
    assertions: list[AssertionSpec] = field(default_factory=list)
    driver_lines: dict[str, list[int]] = field(default_factory=dict)
    source_module: Optional[ast.Module] = None
    _sweep: Optional[DesignSweep] = field(default=None, repr=False, compare=False)
    _graph: Optional[dict[str, set[str]]] = field(default=None, repr=False, compare=False)

    @property
    def sweep(self) -> DesignSweep:
        """The design's assignments and what its expressions read, from one pass."""
        if self._sweep is None:
            self._sweep = _Sweeper(self).sweep()
        return self._sweep

    @property
    def dependency_graph(self) -> dict[str, set[str]]:
        """signal -> the signals it depends on (its direct fan-in)."""
        if self._graph is None:
            self._graph = _build_dependency_graph(self)
        return self._graph

    # ------------------------------------------------------------------ #
    # queries used throughout the project
    # ------------------------------------------------------------------ #

    @property
    def inputs(self) -> list[Signal]:
        return [s for s in self.signals.values() if s.is_input]

    @property
    def outputs(self) -> list[Signal]:
        return [s for s in self.signals.values() if s.is_output]

    @property
    def state_signals(self) -> list[Signal]:
        """Signals written by clocked blocks (the design's registers)."""
        written: set[str] = set()
        for block in self.seq_blocks:
            written.update(ast.assignment_targets(block.body))
        return [self.signals[name] for name in sorted(written) if name in self.signals]

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError as exc:
            raise ElaborationError(f"unknown signal '{name}'", code="unknown-signal") from exc

    def cone_of_influence(self, roots: set[str]) -> set[str]:
        """Transitively expand ``roots`` through the dependency graph (fan-in cone)."""
        cone: set[str] = set()
        frontier = [name for name in roots if name in self.signals]
        while frontier:
            name = frontier.pop()
            if name in cone:
                continue
            cone.add(name)
            for dep in self.dependency_graph.get(name, ()):  # fan-in of `name`
                if dep not in cone:
                    frontier.append(dep)
        return cone

    def lines_driving(self, signal_name: str) -> list[int]:
        """Source lines containing assignments to ``signal_name``."""
        return sorted(set(self.driver_lines.get(signal_name, [])))

    @cached_property
    def assigned_by_line(self) -> dict[int, list[str]]:
        """:attr:`driver_lines` inverted: line number -> signals assigned on
        that line, in driver-map order.  Callers must not mutate it."""
        assigned: dict[int, list[str]] = {}
        for signal, lines in self.driver_lines.items():
            for line in lines:
                assigned.setdefault(line, []).append(signal)
        return assigned

    def clock_candidates(self) -> list[str]:
        """Signals used as clocks by sequential blocks, in declaration order."""
        clocks: list[str] = []
        for block in self.seq_blocks:
            for item in block.clock_edges():
                if item.signal not in clocks:
                    clocks.append(item.signal)
        for assertion in self.assertions:
            if assertion.clock.signal not in clocks:
                clocks.append(assertion.clock.signal)
        return clocks


# --------------------------------------------------------------------------- #
# constant folding
# --------------------------------------------------------------------------- #


def fold_constant(expr: ast.Expression, parameters: dict[str, int]) -> int:
    """Evaluate a constant expression using only parameter values.

    Raises:
        ElaborationError: if the expression references a non-parameter signal
            or uses an operator that cannot be constant-folded.
    """
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Identifier):
        if expr.name in parameters:
            return parameters[expr.name]
        raise ElaborationError(
            f"'{expr.name}' is not a constant parameter", code="non-constant"
        )
    if isinstance(expr, ast.Unary):
        operand = fold_constant(expr.operand, parameters)
        return _fold_unary(expr.op, operand)
    if isinstance(expr, ast.Binary):
        left = fold_constant(expr.left, parameters)
        right = fold_constant(expr.right, parameters)
        return _fold_binary(expr.op, left, right)
    if isinstance(expr, ast.Ternary):
        condition = fold_constant(expr.condition, parameters)
        branch = expr.if_true if condition else expr.if_false
        return fold_constant(branch, parameters)
    raise ElaborationError(
        f"expression '{expr}' is not constant", code="non-constant"
    )


def _fold_unary(op: str, operand: int) -> int:
    if op == "-":
        return -operand
    if op == "+":
        return operand
    if op == "!":
        return 0 if operand else 1
    if op == "~":
        return ~operand
    raise ElaborationError(f"operator '{op}' not allowed in constant expression", code="non-constant")


def _fold_binary(op: str, left: int, right: int) -> int:
    operations = {
        "+": lambda: left + right,
        "-": lambda: left - right,
        "*": lambda: left * right,
        "/": lambda: left // right if right else 0,
        "%": lambda: left % right if right else 0,
        "**": lambda: left ** right,
        "<<": lambda: left << right,
        ">>": lambda: left >> right,
        "<": lambda: int(left < right),
        ">": lambda: int(left > right),
        "<=": lambda: int(left <= right),
        ">=": lambda: int(left >= right),
        "==": lambda: int(left == right),
        "!=": lambda: int(left != right),
        "&&": lambda: int(bool(left) and bool(right)),
        "||": lambda: int(bool(left) or bool(right)),
        "&": lambda: left & right,
        "|": lambda: left | right,
        "^": lambda: left ^ right,
    }
    if op not in operations:
        raise ElaborationError(
            f"operator '{op}' not allowed in constant expression", code="non-constant"
        )
    return operations[op]()


# --------------------------------------------------------------------------- #
# elaborator
# --------------------------------------------------------------------------- #

_MAX_FOR_ITERATIONS = 4096
_MAX_HIERARCHY_DEPTH = 8


class Elaborator:
    """Elaborates a :class:`SourceUnit` into an :class:`ElaboratedDesign`."""

    def __init__(self, unit: ast.SourceUnit, top: Optional[str] = None):
        self._unit = unit
        self._top_name = top

    def elaborate(self) -> ElaboratedDesign:
        module = self._select_top()
        return self._elaborate_module(module, parameter_overrides={}, prefix="", depth=0)

    # ------------------------------------------------------------------ #
    # module selection and recursion
    # ------------------------------------------------------------------ #

    def _select_top(self) -> ast.Module:
        if self._top_name is not None:
            module = self._unit.find_module(self._top_name)
            if module is None:
                raise ElaborationError(
                    f"top module '{self._top_name}' not found", code="missing-top"
                )
            return module
        instantiated = {
            item.module_name
            for module in self._unit.modules
            for item in module.items_of_type(ast.Instantiation)
        }
        candidates = [m for m in self._unit.modules if m.name not in instantiated]
        if candidates:
            return candidates[-1]
        return self._unit.top

    def _elaborate_module(
        self,
        module: ast.Module,
        parameter_overrides: dict[str, int],
        prefix: str,
        depth: int,
    ) -> ElaboratedDesign:
        if depth > _MAX_HIERARCHY_DEPTH:
            raise ElaborationError("module hierarchy too deep", code="hierarchy-depth")
        design = ElaboratedDesign(name=module.name, source_module=module)
        design.parameters = self._resolve_parameters(module, parameter_overrides)
        self._declare_ports(module, design, prefix)
        self._declare_nets(module, design, prefix)
        self._collect_items(module, design, prefix, depth)
        self._resolve_assertions(module, design, prefix)
        design.driver_lines = _collect_driver_lines(design.sweep)
        _check_design(design)
        return design

    def _resolve_parameters(
        self, module: ast.Module, overrides: dict[str, int]
    ) -> dict[str, int]:
        parameters: dict[str, int] = {}
        for decl in module.parameters:
            if decl.name in overrides:
                parameters[decl.name] = overrides[decl.name]
            else:
                parameters[decl.name] = fold_constant(decl.value, parameters)
        for item in module.items_of_type(ast.ParamDecl):
            parameters[item.name] = fold_constant(item.value, parameters)
        return parameters

    def _declare_ports(self, module: ast.Module, design: ElaboratedDesign, prefix: str) -> None:
        for port in module.ports:
            if not port.direction:
                raise ElaborationError(
                    f"port '{port.name}' has no direction declaration",
                    line=port.line,
                    code="undirected-port",
                )
            width, msb, lsb = self._range_width(port.range, design.parameters)
            kind = port.direction if not prefix else ("reg" if port.net_type == "reg" else "wire")
            design.signals[prefix + port.name] = Signal(
                name=prefix + port.name,
                width=width,
                kind=kind if not prefix else kind,
                signed=port.signed,
                msb=msb,
                lsb=lsb,
                line=port.line,
            )

    def _declare_nets(self, module: ast.Module, design: ElaboratedDesign, prefix: str) -> None:
        for item in module.items_of_type(ast.NetDecl):
            width, msb, lsb = self._range_width(item.range, design.parameters)
            if item.kind == "integer":
                width, msb, lsb = 32, 31, 0
            if item.kind == "genvar":
                continue
            for name in item.names:
                full_name = prefix + name
                if full_name in design.signals:
                    existing = design.signals[full_name]
                    # `output reg [N:0] x;` style double declarations refine the kind.
                    if item.kind == "reg" and existing.is_port:
                        continue
                    raise ElaborationError(
                        f"signal '{name}' declared more than once",
                        line=item.line,
                        code="duplicate-declaration",
                    )
                design.signals[full_name] = Signal(
                    name=full_name,
                    width=width,
                    kind=item.kind if item.kind != "logic" else "wire",
                    signed=item.signed,
                    msb=msb,
                    lsb=lsb,
                    line=item.line,
                )
            if item.initial is not None and item.kind in ("wire", "logic"):
                design.continuous_assigns.append(
                    ast.ContinuousAssign(
                        target=ast.Identifier(prefix + item.names[-1]),
                        value=_prefix_expression(item.initial, prefix),
                        line=item.line,
                    )
                )

    def _range_width(
        self, rng: Optional[ast.Range], parameters: dict[str, int]
    ) -> tuple[int, int, int]:
        if rng is None:
            return 1, 0, 0
        msb = fold_constant(rng.msb, parameters)
        lsb = fold_constant(rng.lsb, parameters)
        if msb < lsb:
            raise ElaborationError(
                f"descending range [{msb}:{lsb}] is not supported", code="bad-range"
            )
        return msb - lsb + 1, msb, lsb

    def _collect_items(
        self, module: ast.Module, design: ElaboratedDesign, prefix: str, depth: int
    ) -> None:
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                design.continuous_assigns.append(
                    ast.ContinuousAssign(
                        target=_prefix_expression(item.target, prefix),
                        value=_prefix_expression(item.value, prefix),
                        line=item.line,
                    )
                )
            elif isinstance(item, ast.AlwaysBlock):
                block = self._elaborate_always(item, design, prefix)
                if block.is_clocked:
                    design.seq_blocks.append(block)
                else:
                    design.comb_blocks.append(block)
            elif isinstance(item, ast.InitialBlock):
                body = _prefix_statement(_unroll_statement(item.body, design.parameters), prefix)
                design.initial_blocks.append(ast.InitialBlock(body=body, line=item.line))
            elif isinstance(item, ast.Instantiation):
                self._flatten_instance(item, design, prefix, depth)
            elif isinstance(item, (ast.NetDecl, ast.ParamDecl, ast.PropertyDecl, ast.ConcurrentAssertion)):
                continue
            else:  # pragma: no cover - defensive
                raise ElaborationError(
                    f"unsupported module item {type(item).__name__}", line=item.line
                )

    def _elaborate_always(
        self, block: ast.AlwaysBlock, design: ElaboratedDesign, prefix: str
    ) -> ProceduralBlock:
        body = _unroll_statement(block.body, design.parameters)
        body = _prefix_statement(body, prefix)
        sensitivity = [
            ast.SensitivityItem(edge=item.edge, signal=prefix + item.signal)
            for item in block.sensitivity
        ]
        return ProceduralBlock(
            sensitivity=sensitivity, star=block.star, body=body, line=block.line
        )

    def _flatten_instance(
        self, inst: ast.Instantiation, design: ElaboratedDesign, prefix: str, depth: int
    ) -> None:
        submodule = self._unit.find_module(inst.module_name)
        if submodule is None:
            raise ElaborationError(
                f"instantiated module '{inst.module_name}' is not defined",
                line=inst.line,
                code="unknown-module",
            )
        overrides = {
            name: fold_constant(expr, design.parameters)
            for name, expr in inst.parameter_overrides.items()
        }
        sub_prefix = f"{prefix}{inst.instance_name}__"
        sub_design = self._elaborate_module(submodule, overrides, sub_prefix, depth + 1)
        design.signals.update(sub_design.signals)
        design.continuous_assigns.extend(sub_design.continuous_assigns)
        design.comb_blocks.extend(sub_design.comb_blocks)
        design.seq_blocks.extend(sub_design.seq_blocks)
        design.initial_blocks.extend(sub_design.initial_blocks)
        design.assertions.extend(sub_design.assertions)
        # Wire up port connections with continuous assignments.
        port_directions = {port.name: port.direction for port in submodule.ports}
        for connection in inst.connections:
            if connection.expr is None:
                continue
            if connection.port not in port_directions:
                raise ElaborationError(
                    f"module '{inst.module_name}' has no port '{connection.port}'",
                    line=inst.line,
                    code="unknown-port",
                )
            inner = ast.Identifier(sub_prefix + connection.port)
            outer = _prefix_expression(connection.expr, prefix)
            if port_directions[connection.port] == "input":
                design.continuous_assigns.append(
                    ast.ContinuousAssign(target=inner, value=outer, line=inst.line)
                )
            else:
                design.continuous_assigns.append(
                    ast.ContinuousAssign(target=outer, value=inner, line=inst.line)
                )

    def _resolve_assertions(
        self, module: ast.Module, design: ElaboratedDesign, prefix: str
    ) -> None:
        properties = {prop.name: prop for prop in module.properties}
        for index, assertion in enumerate(module.assertions):
            if assertion.property_name is not None:
                prop = properties.get(assertion.property_name)
                if prop is None:
                    raise ElaborationError(
                        f"assertion references unknown property '{assertion.property_name}'",
                        line=assertion.line,
                        code="unknown-property",
                    )
            else:
                prop = assertion.inline
            if prop is None:  # pragma: no cover - parser guarantees one of the two
                raise ElaborationError("assertion has no property", line=assertion.line)
            if prop.clock is None:
                raise ElaborationError(
                    f"property '{prop.name}' has no clocking event",
                    line=prop.line,
                    code="unclocked-property",
                )
            name = assertion.label or prop.name or f"assertion_{index}"
            clock = ast.ClockEvent(edge=prop.clock.edge, signal=prefix + prop.clock.signal)
            disable = (
                _prefix_expression(prop.disable_iff, prefix)
                if prop.disable_iff is not None
                else None
            )
            body = _prefix_property(prop.body, prefix)
            design.assertions.append(
                AssertionSpec(
                    name=prefix + name,
                    clock=clock,
                    disable_iff=disable,
                    body=body,
                    error_message=assertion.error_message,
                    line=assertion.line,
                    kind=assertion.kind,
                )
            )


# --------------------------------------------------------------------------- #
# statement / expression rewriting helpers
# --------------------------------------------------------------------------- #


def _prefix_expression(expr: ast.Expression, prefix: str) -> ast.Expression:
    if not prefix:
        return expr
    expr = copy.deepcopy(expr)
    for node in expr.walk():
        if isinstance(node, ast.Identifier):
            node.name = prefix + node.name
    return expr


def _prefix_statement(statement: ast.Statement, prefix: str) -> ast.Statement:
    """A copy of ``statement`` with every identifier prefixed.

    Without a prefix (a top-level item) the statement itself is returned,
    shared with the parse: the AST is read-only after parsing.
    """
    if not prefix:
        return statement
    statement = copy.deepcopy(statement)
    for node in statement.walk():
        if isinstance(node, ast.Assign):
            node.target = _prefix_expression(node.target, prefix)
            node.value = _prefix_expression(node.value, prefix)
        elif isinstance(node, ast.If):
            node.condition = _prefix_expression(node.condition, prefix)
        elif isinstance(node, ast.Case):
            node.subject = _prefix_expression(node.subject, prefix)
            for item in node.items:
                item.labels = [_prefix_expression(label, prefix) for label in item.labels]
    return statement


def _prefix_property(body: ast.SvaProperty, prefix: str) -> ast.SvaProperty:
    if not prefix:
        return body
    body = copy.deepcopy(body)
    sequences = [body.consequent]
    if body.antecedent is not None:
        sequences.append(body.antecedent)
    for sequence in sequences:
        for element in sequence.elements:
            element.expr = _prefix_expression(element.expr, prefix)
    return body


def _substitute_identifier(expr: ast.Expression, name: str, value: int) -> ast.Expression:
    expr = copy.deepcopy(expr)
    if isinstance(expr, ast.Identifier) and expr.name == name:
        return ast.Number(value=value, text=str(value))
    for node in expr.walk():
        for attr in ("operand", "left", "right", "condition", "if_true", "if_false", "base", "index", "msb", "lsb", "count", "value"):
            child = getattr(node, attr, None)
            if isinstance(child, ast.Identifier) and child.name == name:
                setattr(node, attr, ast.Number(value=value, text=str(value)))
        if isinstance(node, (ast.Concat,)):
            node.parts = [
                ast.Number(value=value, text=str(value))
                if isinstance(part, ast.Identifier) and part.name == name
                else part
                for part in node.parts
            ]
        if isinstance(node, ast.SystemCall):
            node.args = [
                ast.Number(value=value, text=str(value))
                if isinstance(arg, ast.Identifier) and arg.name == name
                else arg
                for arg in node.args
            ]
    return expr


def _substitute_statement(statement: ast.Statement, name: str, value: int) -> ast.Statement:
    statement = copy.deepcopy(statement)
    for node in statement.walk():
        if isinstance(node, ast.Assign):
            node.target = _substitute_identifier(node.target, name, value)
            node.value = _substitute_identifier(node.value, name, value)
        elif isinstance(node, ast.If):
            node.condition = _substitute_identifier(node.condition, name, value)
        elif isinstance(node, ast.Case):
            node.subject = _substitute_identifier(node.subject, name, value)
            for item in node.items:
                item.labels = [_substitute_identifier(label, name, value) for label in item.labels]
    return statement


def _unroll_statement(statement: ast.Statement, parameters: dict[str, int]) -> ast.Statement:
    """Recursively unroll for-loops with constant bounds.

    A statement that holds no ``for`` is returned itself, not rebuilt, so an
    always block without loops keeps the parse's body node.
    """
    if isinstance(statement, ast.Block):
        new_statements = [_unroll_statement(s, parameters) for s in statement.statements]
        if all(new is old for new, old in zip(new_statements, statement.statements)):
            return statement
        return ast.Block(statements=new_statements, name=statement.name)
    if isinstance(statement, ast.If):
        then_branch = _unroll_statement(statement.then_branch, parameters)
        else_branch = (
            _unroll_statement(statement.else_branch, parameters)
            if statement.else_branch is not None
            else None
        )
        if then_branch is statement.then_branch and else_branch is statement.else_branch:
            return statement
        return ast.If(
            condition=statement.condition,
            then_branch=then_branch,
            else_branch=else_branch,
            line=statement.line,
        )
    if isinstance(statement, ast.Case):
        bodies = [_unroll_statement(item.body, parameters) for item in statement.items]
        if all(body is item.body for body, item in zip(bodies, statement.items)):
            return statement
        return ast.Case(
            subject=statement.subject,
            items=[
                ast.CaseItem(labels=item.labels, body=body)
                for item, body in zip(statement.items, bodies)
            ],
            variant=statement.variant,
            line=statement.line,
        )
    if isinstance(statement, ast.For):
        return _unroll_for(statement, parameters)
    return statement


def _unroll_for(loop: ast.For, parameters: dict[str, int]) -> ast.Block:
    if loop.init_var != loop.step_var:
        raise ElaborationError(
            "for-loop must update its own induction variable", line=loop.line, code="bad-for"
        )
    var = loop.init_var
    value = fold_constant(loop.init_value, parameters)
    unrolled: list[ast.Statement] = []
    iterations = 0
    while True:
        condition_value = fold_constant(
            _substitute_identifier(loop.condition, var, value), parameters
        )
        if not condition_value:
            break
        body = _substitute_statement(loop.body, var, value)
        unrolled.append(_unroll_statement(body, parameters))
        value = fold_constant(_substitute_identifier(loop.step_value, var, value), parameters)
        iterations += 1
        if iterations > _MAX_FOR_ITERATIONS:
            raise ElaborationError(
                "for-loop exceeds maximum unroll count", line=loop.line, code="unbounded-for"
            )
    return ast.Block(statements=unrolled)


# --------------------------------------------------------------------------- #
# analyses
# --------------------------------------------------------------------------- #


def _statement_dependencies(statement: ast.Statement) -> dict[str, set[str]]:
    """Map each signal assigned in ``statement`` to the signals it depends on.

    An assignment depends on its value, on the index of a selected target
    and on every enclosing ``if`` condition and ``case`` subject and label;
    each of those contexts is resolved to identifiers once.
    """
    dependencies: dict[str, set[str]] = {}
    stack: list[tuple[ast.Statement, frozenset[str]]] = [(statement, frozenset())]
    while stack:
        node, context = stack.pop()
        if isinstance(node, ast.Assign):
            sources = node.value.identifiers() | context
            if isinstance(node.target, (ast.BitSelect, ast.PartSelect)):
                sources |= node.target.identifiers()
            for target in ast._target_names(node.target):
                dependencies.setdefault(target, set()).update(sources)
            continue
        if isinstance(node, ast.If):
            context = context | node.condition.identifiers()
        elif isinstance(node, ast.Case):
            names = node.subject.identifiers()
            for item in node.items:
                for label in item.labels:
                    names |= label.identifiers()
            context = context | names
        subs = node.substatements()
        stack.extend((sub, context) for sub in reversed(subs))
    return dependencies


def _build_dependency_graph(design: ElaboratedDesign) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {name: set() for name in design.signals}
    for assign in design.continuous_assigns:
        sources = assign.value.identifiers()
        if isinstance(assign.target, (ast.BitSelect, ast.PartSelect)):
            sources |= {
                name for name in assign.target.identifiers()
            } - set(ast._target_names(assign.target))
        for target in ast._target_names(assign.target):
            graph.setdefault(target, set()).update(sources)
    for block in design.comb_blocks + design.seq_blocks:
        dependencies = _statement_dependencies(block.body)
        for target, sources in dependencies.items():
            graph.setdefault(target, set()).update(sources)
        if block.is_clocked:
            edge_signals = {item.signal for item in block.clock_edges()}
            for target in dependencies:
                graph[target].update(edge_signals)
    return graph


class _Sweeper:
    """Builds one :class:`DesignSweep`; see there for what it records."""

    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self.declared = design.signals.keys() | design.parameters.keys()
        self.reads: set[str] = set()
        self.undeclared: list[tuple[int, set[str]]] = []
        self.calls: list[tuple[int, ast.SystemCall]] = []

    def sweep(self) -> DesignSweep:
        design = self.design
        expression = self.expression
        continuous: list[tuple[int, list[str]]] = []
        for assign in design.continuous_assigns:
            continuous.append((assign.line, ast._target_names(assign.target)))
            expression(assign.line, assign.target)
            expression(assign.line, assign.value)
        comb_assigns = self.blocks(design.comb_blocks)
        seq_assigns = self.blocks(design.seq_blocks)
        initial_assigns = self.blocks(design.initial_blocks)
        logic_calls = len(self.calls)
        for assertion in design.assertions:
            body = assertion.body
            sequences = [body.consequent]
            if body.antecedent is not None:
                sequences.append(body.antecedent)
            for sequence in sequences:
                for element in sequence.elements:
                    expression(assertion.line, element.expr)
            if assertion.disable_iff is not None:
                expression(assertion.line, assertion.disable_iff)
        return DesignSweep(
            continuous, comb_assigns, seq_assigns, initial_assigns, self.reads,
            self.undeclared, self.calls, logic_calls,
        )

    def blocks(
        self, blocks: Sequence[Union[ProceduralBlock, ast.InitialBlock]]
    ) -> list[tuple[ast.Assign, list[str]]]:
        """The blocks' assignments; their expressions are swept in pre-order."""
        expression = self.expression
        assigns: list[tuple[ast.Assign, list[str]]] = []
        for block in blocks:
            stack = [block.body]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Assign):
                    assigns.append((node, ast._target_names(node.target)))
                    expression(node.line, node.target)
                    expression(node.line, node.value)
                    continue
                if isinstance(node, ast.If):
                    expression(node.line, node.condition)
                elif isinstance(node, ast.Case):
                    expression(node.line, node.subject)
                    for item in node.items:
                        for label in item.labels:
                            expression(node.line, label)
                subs = node.substatements()
                if subs:
                    stack.extend(reversed(subs))
        return assigns

    def expression(self, line: int, expr: ast.Expression) -> None:
        names: set[str] = set()
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Identifier):
                names.add(node.name)
                continue
            if isinstance(node, ast.SystemCall):
                self.calls.append((line, node))
            children = node.children()
            if children:
                stack.extend(reversed(children))
        self.reads |= names
        if not names <= self.declared:
            self.undeclared.append((line, names))


def _collect_driver_lines(sweep: DesignSweep) -> dict[str, list[int]]:
    drivers: dict[str, list[int]] = {}
    for line, targets in sweep.drivers:
        for target in targets:
            drivers.setdefault(target, []).append(line)
    return drivers


def _check_design(design: ElaboratedDesign) -> None:
    """Fatal structural checks performed at the end of elaboration."""
    signals = design.signals
    sweep = design.sweep
    initial = ((node.line, targets) for node, targets in sweep.initial_assigns)
    for line, targets in chain(sweep.drivers, initial):
        for target in targets:
            if target not in signals:
                raise ElaborationError(
                    f"assignment to undeclared signal '{target}'",
                    line=line,
                    code="undeclared-signal",
                )


def elaborate(unit: ast.SourceUnit, top: Optional[str] = None) -> ElaboratedDesign:
    """Elaborate ``unit`` (optionally selecting ``top``) into a flat design."""
    return Elaborator(unit, top=top).elaborate()

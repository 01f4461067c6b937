"""Canonical rendering and per-node content keys for elaborated designs.

The compiled-artifact cache (:mod:`repro.artifacts.store`) keys whole
designs by their source text; this module keys the *nodes* inside them.
Per-node keys (:func:`assign_node_key`, :func:`block_node_key`,
:func:`initial_node_key`, :func:`assertion_key`) are the unit of
*incremental relowering*: a patched design reuses a base design's lowered
closures for every node whose key is unchanged and relowers only the dirty
cone.

The renderer is deliberately independent of the AST nodes' ``__str__``
(``Number.__str__`` preserves the source literal text, and synthesised
numbers may have none): every field that can change evaluation -- value,
width, x/z mask, operator, structure -- is rendered explicitly, so equal
canon implies equal lowering.  Line numbers are *included*: they make keys
strictly more conservative (a false split costs a relower; a false merge
could resurrect stale diagnostics), and single-line repairs leave every
other node's line untouched, which is the reuse case that matters.

Only :mod:`repro.hdl` is imported here, so the simulator and SVA lowerings
can use these keys without an import cycle.
"""

from __future__ import annotations

from repro.hdl import ast
from repro.hdl.elaborate import AssertionSpec, ProceduralBlock

# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


def canon_expr(expr: ast.Expression) -> str:
    """A canonical, unambiguous text of one expression tree."""
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.Number):
        width = "?" if expr.width is None else str(expr.width)
        return f"#{expr.value}w{width}x{expr.xz_mask}"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{canon_expr(expr.operand)})"
    if isinstance(expr, ast.Binary):
        return f"({canon_expr(expr.left)}{expr.op}{canon_expr(expr.right)})"
    if isinstance(expr, ast.Ternary):
        return (
            f"({canon_expr(expr.condition)}?{canon_expr(expr.if_true)}"
            f":{canon_expr(expr.if_false)})"
        )
    if isinstance(expr, ast.BitSelect):
        return f"{canon_expr(expr.base)}[{canon_expr(expr.index)}]"
    if isinstance(expr, ast.PartSelect):
        return f"{canon_expr(expr.base)}[{canon_expr(expr.msb)}:{canon_expr(expr.lsb)}]"
    if isinstance(expr, ast.Concat):
        return "{" + ",".join(canon_expr(part) for part in expr.parts) + "}"
    if isinstance(expr, ast.Replicate):
        return "{" + canon_expr(expr.count) + "{" + canon_expr(expr.value) + "}}"
    if isinstance(expr, ast.SystemCall):
        return expr.name + "(" + ",".join(canon_expr(a) for a in expr.args) + ")"
    # Unknown expression type: repr is deterministic for dataclasses and
    # renders every field, so novel nodes can never silently collide.
    return repr(expr)


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #


def canon_stmt(stmt: ast.Statement) -> str:
    """A canonical text of one procedural statement (recursively)."""
    if isinstance(stmt, ast.Block):
        return "{" + ";".join(canon_stmt(sub) for sub in stmt.statements) + "}"
    if isinstance(stmt, ast.Assign):
        op = "=" if stmt.blocking else "<="
        return f"{canon_expr(stmt.target)}{op}{canon_expr(stmt.value)}"
    if isinstance(stmt, ast.If):
        text = f"if({canon_expr(stmt.condition)}){canon_stmt(stmt.then_branch)}"
        if stmt.else_branch is not None:
            text += f"else{canon_stmt(stmt.else_branch)}"
        return text
    if isinstance(stmt, ast.Case):
        items = []
        for item in stmt.items:
            labels = ",".join(canon_expr(label) for label in item.labels) or "default"
            items.append(f"[{labels}:{canon_stmt(item.body)}]")
        return f"{stmt.variant}({canon_expr(stmt.subject)})" + "".join(items)
    if isinstance(stmt, ast.For):
        return (
            f"for({stmt.init_var}={canon_expr(stmt.init_value)};"
            f"{canon_expr(stmt.condition)};{stmt.step_var}={canon_expr(stmt.step_value)})"
            f"{canon_stmt(stmt.body)}"
        )
    if isinstance(stmt, ast.SystemTaskCall):
        return stmt.name + "(" + ",".join(canon_expr(a) for a in stmt.args) + ")"
    if isinstance(stmt, ast.NullStatement):
        return ";"
    return repr(stmt)


# --------------------------------------------------------------------------- #
# per-node keys (the unit of incremental relowering)
# --------------------------------------------------------------------------- #


def assign_node_key(assign: ast.ContinuousAssign) -> str:
    """Content key of one continuous assignment node."""
    return f"assign@{assign.line}:{canon_expr(assign.target)}={canon_expr(assign.value)}"


def _canon_sensitivity(block: ProceduralBlock) -> str:
    if block.star:
        return "*"
    return ",".join(
        f"{item.edge or 'level'} {item.signal}" for item in block.sensitivity
    )


def block_node_key(block: ProceduralBlock) -> str:
    """Content key of one procedural (comb or clocked) block node."""
    return f"always@{block.line}:({_canon_sensitivity(block)}){canon_stmt(block.body)}"


def initial_node_key(initial: ast.InitialBlock) -> str:
    """Content key of one ``initial`` block."""
    return f"initial@{initial.line}:{canon_stmt(initial.body)}"


def _canon_sequence(sequence: ast.SvaSequence) -> str:
    return "".join(
        f"##{element.delay}{canon_expr(element.expr)}" for element in sequence.elements
    )


def assertion_key(spec: AssertionSpec) -> str:
    """Content key of one concurrent assertion.

    Includes the name and error message: a lowered assertion carries both
    into its outcomes and failure records, so reuse must be exact there too.
    """
    antecedent = (
        _canon_sequence(spec.body.antecedent) if spec.body.antecedent is not None else ""
    )
    implication = "|->" if spec.body.overlapping else "|=>"
    disable = canon_expr(spec.disable_iff) if spec.disable_iff is not None else ""
    return (
        f"{spec.kind} {spec.name}@{spec.line}"
        f":@({spec.clock.edge} {spec.clock.signal})"
        f":disable({disable})"
        f":{antecedent}{implication}{_canon_sequence(spec.body.consequent)}"
        f":msg={spec.error_message}"
    )

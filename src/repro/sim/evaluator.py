"""Expression evaluation over 4-state values.

The evaluator implements the Verilog expression semantics the project needs:
self-determined operand widths, conservative x-propagation, reduction
operators, concatenation/replication, bit and part selects, and the handful
of system functions allowed in synthesisable code and SVA boolean layers.

SVA-only sampled-value functions (``$past``, ``$rose``, ``$fell``,
``$stable``, ``$changed``) are resolved through an optional callback so the
same evaluator serves both the RTL simulator (which never sees them) and the
assertion checker (which provides trace history).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.hdl import ast
from repro.sim.values import LogicValue, concat, replicate


class EvalError(Exception):
    """Raised when an expression cannot be evaluated."""


#: Signature of the hook used by the SVA checker to resolve sampled-value functions.
SampledValueHook = Callable[[ast.SystemCall], LogicValue]


class Evaluator:
    """Evaluates :class:`repro.hdl.ast.Expression` trees against an environment."""

    def __init__(
        self,
        environment: Mapping[str, LogicValue],
        parameters: Optional[Mapping[str, int]] = None,
        sampled_value_hook: Optional[SampledValueHook] = None,
    ):
        self._env = environment
        self._parameters = parameters or {}
        self._sampled_value_hook = sampled_value_hook

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def evaluate(self, expr: ast.Expression) -> LogicValue:
        """Evaluate ``expr`` to a :class:`LogicValue`."""
        if isinstance(expr, ast.Number):
            return self._eval_number(expr)
        if isinstance(expr, ast.Identifier):
            return self._eval_identifier(expr)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._eval_ternary(expr)
        if isinstance(expr, ast.BitSelect):
            return self._eval_bit_select(expr)
        if isinstance(expr, ast.PartSelect):
            return self._eval_part_select(expr)
        if isinstance(expr, ast.Concat):
            return concat([self.evaluate(part) for part in expr.parts])
        if isinstance(expr, ast.Replicate):
            count = self.evaluate(expr.count)
            if count.has_unknown:
                raise EvalError("replication count is unknown")
            return replicate(count.to_int(), self.evaluate(expr.value))
        if isinstance(expr, ast.SystemCall):
            return self._eval_system_call(expr)
        raise EvalError(f"cannot evaluate expression of type {type(expr).__name__}")

    def evaluate_bool(self, expr: ast.Expression) -> Optional[bool]:
        """Evaluate to a Python bool, or ``None`` when the truth is unknown."""
        result = self.evaluate(expr).truth()
        if result.has_unknown:
            return None
        return bool(result.to_int())

    # ------------------------------------------------------------------ #
    # node handlers
    # ------------------------------------------------------------------ #

    def _eval_number(self, expr: ast.Number) -> LogicValue:
        width = expr.width if expr.width is not None else 32
        return LogicValue(value=expr.value, xmask=expr.xz_mask, width=width)

    def _eval_identifier(self, expr: ast.Identifier) -> LogicValue:
        if expr.name in self._env:
            return self._env[expr.name]
        if expr.name in self._parameters:
            return LogicValue.from_int(self._parameters[expr.name], 32)
        raise EvalError(f"unknown signal '{expr.name}'")

    def _eval_unary(self, expr: ast.Unary) -> LogicValue:
        operand = self.evaluate(expr.operand)
        op = expr.op
        if op == "+":
            return operand
        if op == "-":
            if operand.has_unknown:
                return LogicValue.unknown(operand.width)
            return LogicValue.from_int(-operand.to_int(), operand.width)
        if op == "~":
            if operand.has_unknown:
                return LogicValue.unknown(operand.width)
            return LogicValue.from_int(~operand.to_int(), operand.width)
        if op == "!":
            truth = operand.truth()
            if truth.has_unknown:
                return LogicValue.unknown(1)
            return LogicValue.from_int(0 if truth.to_int() else 1, 1)
        if op in ("&", "|", "^"):
            return self._eval_reduction(op, operand)
        raise EvalError(f"unsupported unary operator '{op}'")

    def _eval_reduction(self, op: str, operand: LogicValue) -> LogicValue:
        if operand.has_unknown:
            return LogicValue.unknown(1)
        value = operand.to_int()
        if op == "&":
            result = int(value == operand.mask)
        elif op == "|":
            result = int(value != 0)
        else:
            result = value.bit_count() & 1
        return LogicValue.from_int(result, 1)

    def _eval_binary(self, expr: ast.Binary) -> LogicValue:
        op = expr.op
        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        if op in ("&&", "||"):
            return self._eval_logical(op, left, right)
        width = max(left.width, right.width)
        if op in ("==", "!=", "===", "!=="):
            return self._eval_equality(op, left, right)
        if op in ("<", ">", "<=", ">="):
            return self._eval_relational(op, left, right)
        if left.has_unknown or right.has_unknown:
            result_width = width if op not in ("<<", ">>", "<<<", ">>>") else left.width
            return LogicValue.unknown(result_width)
        a, b = left.to_int(), right.to_int()
        if op == "+":
            return LogicValue.from_int(a + b, width)
        if op == "-":
            return LogicValue.from_int(a - b, width)
        if op == "*":
            return LogicValue.from_int(a * b, width)
        if op == "/":
            if b == 0:
                return LogicValue.unknown(width)
            return LogicValue.from_int(a // b, width)
        if op == "%":
            if b == 0:
                return LogicValue.unknown(width)
            return LogicValue.from_int(a % b, width)
        if op == "**":
            return LogicValue.from_int(a ** min(b, 64), width)
        if op == "&":
            return LogicValue.from_int(a & b, width)
        if op == "|":
            return LogicValue.from_int(a | b, width)
        if op in ("^",):
            return LogicValue.from_int(a ^ b, width)
        if op in ("~^", "^~"):
            return LogicValue.from_int(~(a ^ b), width)
        if op == "<<" or op == "<<<":
            return LogicValue.from_int(a << min(b, 1024), left.width)
        if op == ">>" or op == ">>>":
            return LogicValue.from_int(a >> min(b, 1024), left.width)
        raise EvalError(f"unsupported binary operator '{op}'")

    def _eval_logical(self, op: str, left: LogicValue, right: LogicValue) -> LogicValue:
        left_truth = left.truth()
        right_truth = right.truth()
        if op == "&&":
            if left_truth.is_false() or right_truth.is_false():
                return LogicValue.from_int(0, 1)
            if left_truth.has_unknown or right_truth.has_unknown:
                return LogicValue.unknown(1)
            return LogicValue.from_int(1, 1)
        # "||"
        if left_truth.is_true() or right_truth.is_true():
            return LogicValue.from_int(1, 1)
        if left_truth.has_unknown or right_truth.has_unknown:
            return LogicValue.unknown(1)
        return LogicValue.from_int(0, 1)

    def _eval_equality(self, op: str, left: LogicValue, right: LogicValue) -> LogicValue:
        if op in ("===", "!=="):
            width = max(left.width, right.width)
            same = left.resized(width).value == right.resized(width).value and (
                left.resized(width).xmask == right.resized(width).xmask
            )
            result = same if op == "===" else not same
            return LogicValue.from_int(int(result), 1)
        if left.has_unknown or right.has_unknown:
            return LogicValue.unknown(1)
        equal = left.to_int() == right.to_int()
        result = equal if op == "==" else not equal
        return LogicValue.from_int(int(result), 1)

    def _eval_relational(self, op: str, left: LogicValue, right: LogicValue) -> LogicValue:
        if left.has_unknown or right.has_unknown:
            return LogicValue.unknown(1)
        a, b = left.to_int(), right.to_int()
        results = {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}
        return LogicValue.from_int(int(results[op]), 1)

    def _eval_ternary(self, expr: ast.Ternary) -> LogicValue:
        condition = self.evaluate(expr.condition).truth()
        if condition.has_unknown:
            if_true = self.evaluate(expr.if_true)
            if_false = self.evaluate(expr.if_false)
            width = max(if_true.width, if_false.width)
            if if_true.is_fully_known and if_false.is_fully_known and if_true.to_int() == if_false.to_int():
                return if_true.resized(width)
            return LogicValue.unknown(width)
        if condition.is_true():
            return self.evaluate(expr.if_true)
        return self.evaluate(expr.if_false)

    def _eval_bit_select(self, expr: ast.BitSelect) -> LogicValue:
        base = self.evaluate(expr.base)
        index = self.evaluate(expr.index)
        if index.has_unknown:
            return LogicValue.unknown(1)
        return base.bit(index.to_int())

    def _eval_part_select(self, expr: ast.PartSelect) -> LogicValue:
        base = self.evaluate(expr.base)
        msb = self.evaluate(expr.msb)
        lsb = self.evaluate(expr.lsb)
        if msb.has_unknown or lsb.has_unknown:
            return LogicValue.unknown(max(base.width, 1))
        return base.slice(msb.to_int(), lsb.to_int())

    def _eval_system_call(self, expr: ast.SystemCall) -> LogicValue:
        name = expr.name
        if name in ("$past", "$rose", "$fell", "$stable", "$changed"):
            if self._sampled_value_hook is None:
                raise EvalError(f"sampled-value function '{name}' outside assertion context")
            return self._sampled_value_hook(expr)
        if name == "$countones":
            operand = self.evaluate(expr.args[0])
            if operand.has_unknown:
                return LogicValue.unknown(32)
            return LogicValue.from_int(operand.to_int().bit_count(), 32)
        if name in ("$onehot", "$onehot0"):
            operand = self.evaluate(expr.args[0])
            if operand.has_unknown:
                return LogicValue.unknown(1)
            ones = operand.to_int().bit_count()
            ok = ones == 1 if name == "$onehot" else ones <= 1
            return LogicValue.from_int(int(ok), 1)
        if name == "$clog2":
            operand = self.evaluate(expr.args[0])
            if operand.has_unknown:
                return LogicValue.unknown(32)
            value = operand.to_int()
            result = 0
            while (1 << result) < value:
                result += 1
            return LogicValue.from_int(result, 32)
        if name in ("$signed", "$unsigned"):
            return self.evaluate(expr.args[0])
        raise EvalError(f"unsupported system function '{name}'")

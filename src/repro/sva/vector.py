"""Whole-array (numpy columnar) lowering of SVA boolean layers.

The compiled checker (:mod:`repro.sva.compile`) lowers every element
expression of an assertion to a function over **whole-trace column arrays**
(:meth:`repro.sim.trace.Trace.columns`), evaluating all cycles in a handful
of numpy array operations instead of one evaluator call per cycle:

* identifiers read the signal's ``(value, xmask)`` columns directly;
* operators become masked array expressions that reproduce the scalar
  evaluator's semantics lane for lane -- including x-propagation (an
  unknown operand poisons the full result width);
* ``$past`` becomes a shifted view of the argument series with a pre-trace
  all-``x`` fill; ``$rose``/``$fell``/``$stable``/``$changed`` become
  shifted comparisons with the xmask of *either* sample propagated;
* ``disable iff`` feeds a prefix-count mask built with ``np.cumsum``;
* :func:`walk_attempts_tensor` then resolves every attempt of every trace
  in one pass over (trace x start cycle) masks.

The lowering is deliberately partial: anything whose scalar semantics
depend on per-cycle control flow or per-cycle widths -- dynamic part
selects, non-constant replication counts, mismatched ternary branch widths,
signals wider than an ``int64`` column -- raises :class:`VectorError`, and
the caller checks that assertion with the tree-walking oracle
(:class:`repro.sva.checker.AssertionChecker`).  Within the supported subset
the results are outcome-identical to the oracle, which the differential
suite asserts outcome-for-outcome.

Integer model: every lane is a non-negative Python-int-semantics value
masked to its expression width (<= 63 bits), carried in ``int64`` arrays.
Arithmetic may wrap mod 2**64 on the way -- that is harmless, because every
result is immediately masked to a width that divides 2**64.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign
from repro.sim.evaluator import EvalError, Evaluator
from repro.sim.trace import INT64_COLUMN_MAX_WIDTH
from repro.sva.checker import (
    SAMPLED_VALUE_FUNCTIONS,
    AssertionFailure,
    AssertionOutcome,
    infer_expression_width,
    sampled_past_depth,
)

_I64 = np.int64

#: A vector closure: (cols_v, cols_x, shape) -> (value_lanes, xmask_lanes).
#: ``shape`` is the lane shape -- ``(cycles,)`` for one trace's columns, or
#: ``(seeds, cycles)`` for a stacked batch of padded per-seed columns (the
#: 2-D attempt-tensor path).  Lanes are int64 ndarrays of that shape -- or
#: scalars for constant subexpressions, which numpy broadcasting carries
#: through transparently.  Every lowered operator is elementwise, so the
#: same closure evaluates both shapes; only the delay shifts
#: (:func:`_shift_series`) are axis-aware, operating on the last (cycle)
#: axis so rows never contaminate each other.
VecFn = Callable[[list, list, tuple], tuple]


class VectorError(Exception):
    """Raised when an expression cannot be lowered to whole-array form."""


def as_column(lanes, shape) -> np.ndarray:
    """Broadcast a scalar-or-array lane value to an int64 array of ``shape``."""
    return np.broadcast_to(np.asarray(lanes, dtype=_I64), shape)


def _shift_series(
    values: np.ndarray, xmasks: np.ndarray, shape, depth: int, fill_xmask: int
) -> tuple[np.ndarray, np.ndarray]:
    """The series delayed by ``depth`` cycles, back-filled with all-``x``.

    The shift is along the last (cycle) axis, so on a stacked 2-D batch
    every row sees its own pre-trace all-``x`` fill and rows never bleed
    into each other.
    """
    n = shape[-1]
    shifted_v = np.zeros(shape, dtype=_I64)
    shifted_x = np.empty(shape, dtype=_I64)
    filled = depth if depth < n else n
    shifted_x[..., :filled] = fill_xmask
    if filled < n:
        shifted_v[..., filled:] = values[..., : n - filled]
        shifted_x[..., filled:] = xmasks[..., : n - filled]
    return shifted_v, shifted_x


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(values) -> np.ndarray:
        return np.bitwise_count(np.asarray(values, dtype=np.uint64)).astype(_I64)

else:  # pragma: no cover - exercised only on numpy 1.x

    def _popcount(values) -> np.ndarray:
        # 64-bit SWAR popcount; inputs are non-negative (< 2**63) so the
        # final multiply's top byte (the count, <= 63) never sets the sign.
        a = np.asarray(values, dtype=_I64)
        a = a - ((a >> 1) & 0x5555555555555555)
        a = (a & 0x3333333333333333) + ((a >> 2) & 0x3333333333333333)
        a = (a + (a >> 4)) & 0x0F0F0F0F0F0F0F0F
        return (a * 0x0101010101010101) >> 56


def _shift_left(values, amounts, mask: int):
    """``(values << amounts) & mask`` with oversized shifts yielding 0.

    Computed in uint64 so a shift into (or past) bit 63 wraps mod 2**64 --
    correct, because ``mask`` covers at most 63 bits, and 2**width divides
    2**64.
    """
    unsigned = np.asarray(values).astype(np.uint64)
    capped = np.asarray(np.minimum(amounts, 63)).astype(np.uint64)
    shifted = ((unsigned << capped) & np.uint64(mask)).astype(_I64)
    return np.where(np.asarray(amounts) >= 64, 0, shifted)


def _shift_right(values, amounts):
    """``values >> amounts`` with oversized shifts yielding 0 (values >= 0)."""
    shifted = np.asarray(values) >> np.minimum(amounts, 63)
    return np.where(np.asarray(amounts) >= 64, 0, shifted)


class VectorExprCompiler:
    """Lowers expression trees to whole-array closures over trace columns.

    Mirrors the scalar per-cycle lowering (:class:`repro.sim.compile.
    ExprCompiler`, itself pinned against the evaluator) operator for
    operator; every branch below states the scalar semantics it reproduces.
    ``compile`` returns ``(fn, width)`` -- widths are static on this path
    (the per-cycle-varying widths scalar evaluation can produce are exactly
    the cases that raise :class:`VectorError`).
    """

    def __init__(self, design: ElaboratedDesign, slots: dict[str, int]):
        self._design = design
        self._slots = slots
        self._parameters = design.parameters

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def compile(self, expr: ast.Expression) -> tuple[VecFn, int]:
        if isinstance(expr, ast.Number):
            return self._compile_number(expr)
        if isinstance(expr, ast.Identifier):
            return self._compile_identifier(expr)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr)
        if isinstance(expr, ast.BitSelect):
            return self._compile_bit_select(expr)
        if isinstance(expr, ast.PartSelect):
            return self._compile_part_select(expr)
        if isinstance(expr, ast.Concat):
            return self._compile_concat(expr)
        if isinstance(expr, ast.Replicate):
            return self._compile_replicate(expr)
        if isinstance(expr, ast.SystemCall):
            return self._compile_system_call(expr)
        raise VectorError(f"cannot vectorise expression of type {type(expr).__name__}")

    def _checked_width(self, width: int) -> int:
        if width > INT64_COLUMN_MAX_WIDTH:
            raise VectorError(f"width {width} exceeds the int64 column limit")
        return width

    def _constant(self, expr: ast.Expression) -> Optional[int]:
        """Elaboration-time constant value of ``expr``, or None."""
        try:
            value = Evaluator({}, self._parameters).evaluate(expr)
        except EvalError:
            return None
        return None if value.has_unknown else value.to_int()

    # ------------------------------------------------------------------ #
    # leaves
    # ------------------------------------------------------------------ #

    def _compile_number(self, expr: ast.Number) -> tuple[VecFn, int]:
        w = self._checked_width(expr.width if expr.width is not None else 32)
        m = (1 << w) - 1
        x = expr.xz_mask & m
        v = expr.value & m & ~x
        return (lambda cv, cx, shape: (v, x)), w

    def _compile_identifier(self, expr: ast.Identifier) -> tuple[VecFn, int]:
        slot = self._slots.get(expr.name)
        if slot is not None:
            w = self._checked_width(self._design.signals[expr.name].width)
            return (lambda cv, cx, shape, i=slot: (cv[i], cx[i])), w
        if expr.name in self._parameters:
            v = self._parameters[expr.name] & 0xFFFFFFFF
            return (lambda cv, cx, shape: (v, 0)), 32
        raise VectorError(f"unknown signal '{expr.name}'")

    # ------------------------------------------------------------------ #
    # operators
    # ------------------------------------------------------------------ #

    def _compile_unary(self, expr: ast.Unary) -> tuple[VecFn, int]:
        fn, w = self.compile(expr.operand)
        op = expr.op
        m = (1 << w) - 1
        if op == "+":
            return fn, w
        if op in ("-", "~"):
            # Scalar: unknown operand -> full-width x; else (-v | ~v) & m.
            def arith_unary(cv, cx, shape, op=op):
                v, x = fn(cv, cx, shape)
                unknown = np.asarray(x) != 0
                computed = ((-np.asarray(v)) if op == "-" else ~np.asarray(v)) & m
                return np.where(unknown, 0, computed), np.where(unknown, m, 0)

            return arith_unary, w
        if op == "!":
            # Scalar: truthy -> 0; unknown zero -> x; known zero -> 1.
            def logic_not(cv, cx, shape):
                v, x = fn(cv, cx, shape)
                v = np.asarray(v)
                x = np.asarray(x)
                return (
                    ((v == 0) & (x == 0)).astype(_I64),
                    ((v == 0) & (x != 0)).astype(_I64),
                )

            return logic_not, 1
        if op in ("&", "|", "^"):
            # Scalar reductions: any x bit -> unknown; else reduce the word.
            def reduction(cv, cx, shape, op=op):
                v, x = fn(cv, cx, shape)
                v = np.asarray(v)
                unknown = np.asarray(x) != 0
                if op == "&":
                    reduced = (v == m).astype(_I64)
                elif op == "|":
                    reduced = (v != 0).astype(_I64)
                else:
                    reduced = _popcount(v) & 1
                return np.where(unknown, 0, reduced), unknown.astype(_I64)

            return reduction, 1
        raise VectorError(f"unsupported unary operator '{op}'")

    def _compile_binary(self, expr: ast.Binary) -> tuple[VecFn, int]:
        lf, w1 = self.compile(expr.left)
        rf, w2 = self.compile(expr.right)
        op = expr.op
        if op == "&&":

            def logic_and(cv, cx, shape):
                v1, x1 = lf(cv, cx, shape)
                v2, x2 = rf(cv, cx, shape)
                v1, x1, v2, x2 = map(np.asarray, (v1, x1, v2, x2))
                known_false = ((v1 == 0) & (x1 == 0)) | ((v2 == 0) & (x2 == 0))
                unknown = ~known_false & (
                    ((v1 == 0) & (x1 != 0)) | ((v2 == 0) & (x2 != 0))
                )
                return (
                    np.where(known_false | unknown, 0, 1),
                    unknown.astype(_I64),
                )

            return logic_and, 1
        if op == "||":

            def logic_or(cv, cx, shape):
                v1, x1 = lf(cv, cx, shape)
                v2, x2 = rf(cv, cx, shape)
                v1, x1, v2, x2 = map(np.asarray, (v1, x1, v2, x2))
                known_true = (v1 != 0) | (v2 != 0)
                unknown = ~known_true & ((x1 != 0) | (x2 != 0))
                return known_true.astype(_I64), unknown.astype(_I64)

            return logic_or, 1
        if op in ("==", "!=", "<", ">", "<=", ">="):
            # Scalar: any x on either side -> unknown; else compare (values
            # are masked non-negative, so int64 comparison == unsigned).
            def compare(cv, cx, shape, op=op):
                v1, x1 = lf(cv, cx, shape)
                v2, x2 = rf(cv, cx, shape)
                v1, v2 = np.asarray(v1), np.asarray(v2)
                unknown = (np.asarray(x1) != 0) | (np.asarray(x2) != 0)
                if op == "==":
                    result = v1 == v2
                elif op == "!=":
                    result = v1 != v2
                elif op == "<":
                    result = v1 < v2
                elif op == ">":
                    result = v1 > v2
                elif op == "<=":
                    result = v1 <= v2
                else:
                    result = v1 >= v2
                return np.where(unknown, 0, result.astype(_I64)), unknown.astype(_I64)

            return compare, 1
        if op in ("===", "!=="):
            want = op == "==="

            def case_equal(cv, cx, shape):
                v1, x1 = lf(cv, cx, shape)
                v2, x2 = rf(cv, cx, shape)
                same = (np.asarray(v1) == np.asarray(v2)) & (
                    np.asarray(x1) == np.asarray(x2)
                )
                return (same == want).astype(_I64), np.zeros_like(same, dtype=_I64)

            return case_equal, 1
        if op in ("<<", "<<<", ">>", ">>>"):
            m1 = (1 << w1) - 1

            def shift(cv, cx, shape, left=op in ("<<", "<<<")):
                v1, x1 = lf(cv, cx, shape)
                v2, x2 = rf(cv, cx, shape)
                unknown = (np.asarray(x1) != 0) | (np.asarray(x2) != 0)
                shifted = _shift_left(v1, v2, m1) if left else _shift_right(v1, v2)
                return np.where(unknown, 0, shifted), np.where(unknown, m1, 0)

            return shift, w1
        arith = self._ARITH.get(op)
        if arith is None:
            raise VectorError(f"unsupported binary operator '{op}'")
        w = w1 if w1 >= w2 else w2
        m = (1 << w) - 1
        divides = op in ("/", "%")

        def binop(cv, cx, shape):
            v1, x1 = lf(cv, cx, shape)
            v2, x2 = rf(cv, cx, shape)
            v1, v2 = np.asarray(v1), np.asarray(v2)
            unknown = (np.asarray(x1) != 0) | (np.asarray(x2) != 0)
            if divides:
                # Scalar: division/modulo by zero -> full-width x.
                unknown = unknown | (v2 == 0)
                v2 = np.where(v2 == 0, 1, v2)
            result = arith(v1, v2) & m
            return np.where(unknown, 0, result), np.where(unknown, m, 0)

        return binop, w

    # int64 lanes may wrap mod 2**64; the post-op mask (width <= 63 divides
    # 2**64) restores exact Python-int semantics.
    _ARITH = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a // b,
        "%": lambda a, b: a % b,
        "**": lambda a, b: np.power(a, np.minimum(b, 64)),
        "&": lambda a, b: a & b,
        "|": lambda a, b: a | b,
        "^": lambda a, b: a ^ b,
        "~^": lambda a, b: ~(a ^ b),
        "^~": lambda a, b: ~(a ^ b),
    }

    def _compile_ternary(self, expr: ast.Ternary) -> tuple[VecFn, int]:
        cf, _cw = self.compile(expr.condition)
        tf, tw = self.compile(expr.if_true)
        ff, fw = self.compile(expr.if_false)
        if tw != fw:
            # Scalar evaluation returns the *taken* branch's width per cycle;
            # a static lowering cannot reproduce that.
            raise VectorError("ternary branches have different widths")
        m = (1 << tw) - 1

        def ternary(cv, cx, shape):
            c_v, c_x = cf(cv, cx, shape)
            t_v, t_x = tf(cv, cx, shape)
            f_v, f_x = ff(cv, cx, shape)
            c_v, c_x = np.asarray(c_v), np.asarray(c_x)
            t_v, t_x = np.asarray(t_v), np.asarray(t_x)
            f_v, f_x = np.asarray(f_v), np.asarray(f_x)
            # Scalar: truthy cond -> then; known-false -> else; unknown cond
            # merges: both branches known and equal -> that value, else x.
            agree = (t_x == 0) & (f_x == 0) & (t_v == f_v)
            value = np.where(
                c_v != 0, t_v, np.where(c_x == 0, f_v, np.where(agree, t_v, 0))
            )
            xmask = np.where(
                c_v != 0, t_x, np.where(c_x == 0, f_x, np.where(agree, 0, m))
            )
            return value, xmask

        return ternary, tw

    def _compile_bit_select(self, expr: ast.BitSelect) -> tuple[VecFn, int]:
        bf, bw = self.compile(expr.base)
        idf, _iw = self.compile(expr.index)

        def bit_select(cv, cx, shape):
            b_v, b_x = bf(cv, cx, shape)
            i_v, i_x = idf(cv, cx, shape)
            i_v = np.asarray(i_v)
            # Scalar: unknown or out-of-range index -> 1-bit x.
            oob = (np.asarray(i_x) != 0) | (i_v >= bw)
            sh = np.minimum(i_v, bw - 1)
            return (
                np.where(oob, 0, (np.asarray(b_v) >> sh) & 1),
                np.where(oob, 1, (np.asarray(b_x) >> sh) & 1),
            )

        return bit_select, 1

    def _compile_part_select(self, expr: ast.PartSelect) -> tuple[VecFn, int]:
        bf, bw = self.compile(expr.base)
        msb = self._constant(expr.msb)
        lsb = self._constant(expr.lsb)
        if msb is None or lsb is None:
            raise VectorError("part select bounds are not elaboration-time constants")
        if msb < lsb:
            # Scalar evaluation raises per evaluation (and only when
            # actually reached); a static lowering cannot reproduce that.
            raise VectorError(f"invalid slice [{msb}:{lsb}]")
        w = self._checked_width(msb - lsb + 1)
        m = (1 << w) - 1
        if lsb >= bw:
            return (lambda cv, cx, shape: (0, m)), w
        extra_x = 0
        if msb >= bw:
            extra_x = ((1 << (msb - bw + 1)) - 1) << (bw - lsb)

        def part_select(cv, cx, shape):
            b_v, b_x = bf(cv, cx, shape)
            x = ((np.asarray(b_x) >> lsb) | extra_x) & m
            v = (np.asarray(b_v) >> lsb) & m & ~x
            return v, x

        return part_select, w

    def _compile_concat(self, expr: ast.Concat) -> tuple[VecFn, int]:
        parts = [self.compile(part) for part in expr.parts]
        total = self._checked_width(max(sum(w for _, w in parts), 1))

        def concat(cv, cx, shape):
            v = 0
            x = 0
            for fn, pw in parts:
                p_v, p_x = fn(cv, cx, shape)
                v = (np.asarray(v) << pw) | p_v
                x = (np.asarray(x) << pw) | p_x
            return v, x

        return concat, total

    def _compile_replicate(self, expr: ast.Replicate) -> tuple[VecFn, int]:
        count = self._constant(expr.count)
        if count is None or count < 1:
            # Non-constant/invalid counts raise per cycle in scalar evaluation.
            raise VectorError("replication count is not a positive constant")
        fn, pw = self.compile(expr.value)
        total = self._checked_width(max(pw * count, 1))

        def replicate(cv, cx, shape):
            p_v, p_x = fn(cv, cx, shape)
            v = 0
            x = 0
            for _ in range(count):
                v = (np.asarray(v) << pw) | p_v
                x = (np.asarray(x) << pw) | p_x
            return v, x

        return replicate, total

    # ------------------------------------------------------------------ #
    # system calls (including the sampled-value layer)
    # ------------------------------------------------------------------ #

    def _compile_system_call(self, expr: ast.SystemCall) -> tuple[VecFn, int]:
        name = expr.name
        if name in SAMPLED_VALUE_FUNCTIONS:
            return self._compile_sampled(expr)
        if not expr.args:
            raise VectorError(f"system function '{name}' without arguments")
        if name in ("$signed", "$unsigned"):
            return self.compile(expr.args[0])
        fn, _w = self.compile(expr.args[0])
        if name == "$countones":

            def countones(cv, cx, shape):
                v, x = fn(cv, cx, shape)
                unknown = np.asarray(x) != 0
                return (
                    np.where(unknown, 0, _popcount(v)),
                    np.where(unknown, 0xFFFFFFFF, 0),
                )

            return countones, 32
        if name in ("$onehot", "$onehot0"):
            exact = name == "$onehot"

            def onehot(cv, cx, shape):
                v, x = fn(cv, cx, shape)
                unknown = np.asarray(x) != 0
                ones = _popcount(v)
                hot = (ones == 1) if exact else (ones <= 1)
                return np.where(unknown, 0, hot.astype(_I64)), unknown.astype(_I64)

            return onehot, 1
        if name == "$clog2":

            def clog2(cv, cx, shape):
                v, x = fn(cv, cx, shape)
                v = np.asarray(v)
                unknown = np.asarray(x) != 0
                # ceil(log2(v)) == bit_length(v - 1); branch-free bit_length
                # by successive halving (values fit 63 bits).
                u = np.where(v > 0, v - 1, 0)
                length = np.zeros_like(u)
                for step in (32, 16, 8, 4, 2, 1):
                    high = u >> step
                    has_high = high != 0
                    length = length + np.where(has_high, step, 0)
                    u = np.where(has_high, high, u)
                length = length + (u != 0)
                return np.where(unknown, 0, length), np.where(unknown, 0xFFFFFFFF, 0)

            return clog2, 32
        raise VectorError(f"unsupported system function '{name}'")

    def _compile_sampled(self, call: ast.SystemCall) -> tuple[VecFn, int]:
        if not call.args:
            # Mirrors the oracle's missing-argument guard: unknown(1).
            return (lambda cv, cx, shape: (0, 1)), 1
        argument = call.args[0]
        arg_fn, arg_width = self.compile(argument)
        inferred = infer_expression_width(argument, self._design)
        if inferred != arg_width:
            # The oracle's pre-trace unknown uses the inferred width
            # while in-trace samples use the evaluated width; keep the
            # static path out of any case where the two could disagree.
            raise VectorError("sampled argument width disagrees with inference")
        fill_xmask = (1 << arg_width) - 1
        if call.name == "$past":
            depth = sampled_past_depth(call, self._parameters)

            def past(cv, cx, shape):
                a_v, a_x = arg_fn(cv, cx, shape)
                return _shift_series(
                    as_column(a_v, shape), as_column(a_x, shape), shape, depth, fill_xmask
                )

            return past, arg_width

        def edge_or_stability(cv, cx, shape, name=call.name):
            raw_v, raw_x = arg_fn(cv, cx, shape)
            a_v = as_column(raw_v, shape)
            a_x = as_column(raw_x, shape)
            prev_v, prev_x = _shift_series(a_v, a_x, shape, 1, fill_xmask)
            # Scalar: any x in either sample -> unknown (cycle 0 is always
            # unknown -- the pre-trace "previous" is all-x).
            unknown = (a_x != 0) | (prev_x != 0)
            if name == "$rose":
                result = ((a_v & 1) == 1) & ((prev_v & 1) == 0)
            elif name == "$fell":
                result = ((a_v & 1) == 0) & ((prev_v & 1) == 1)
            elif name == "$stable":
                result = a_v == prev_v
            else:  # $changed
                result = a_v != prev_v
            return np.where(unknown, 0, result.astype(_I64)), unknown.astype(_I64)

        return edge_or_stability, 1


def lower_elements(
    design: ElaboratedDesign,
    slots: dict[str, int],
    expressions: list[ast.Expression],
) -> list[tuple[VecFn, int]]:
    """Vector-lower one assertion's element expressions.

    All-or-nothing per assertion: one unvectorisable element refuses the
    whole assertion by raising :class:`VectorError` (whose message names the
    construct that refused -- the caller records it as the demotion reason),
    keeping the fallback decision (and therefore the differential surface)
    per assertion, not per element.
    """
    compiler = VectorExprCompiler(design, slots)
    return [compiler.compile(expression) for expression in expressions]


# --------------------------------------------------------------------------- #
# attempt-tensor walk
# --------------------------------------------------------------------------- #


def _shift_lane(lane: np.ndarray, offset: int) -> np.ndarray:
    """``lane`` advanced by ``offset`` cycles along the cycle axis.

    ``out[..., start] == lane[..., start + offset]`` where in range, False
    beyond the array -- out-of-range reads are masked by the caller's
    per-row length check before they are ever consulted, so the False fill
    is never observable.
    """
    if offset == 0:
        return lane
    n = lane.shape[-1]
    out = np.zeros(lane.shape, dtype=bool)
    if offset < n:
        out[..., : n - offset] = lane[..., offset:]
    return out


def walk_attempts_tensor(
    name: str,
    message: str,
    antecedent: Optional[list[tuple[int, int]]],
    consequent: list[tuple[int, int]],
    overlapping: bool,
    disable_index: Optional[int],
    values: list[np.ndarray],
    xmasks: list[np.ndarray],
    lengths: np.ndarray,
) -> list[AssertionOutcome]:
    """Resolve every attempt of every row in whole-array numpy operations.

    Where the tree-walking oracle loops over start cycles in Python, this
    computes one boolean (row x start-cycle) mask per outcome bucket, with
    antecedent/consequent delays as shifted views, ``disable iff`` as a
    per-row prefix-count lookup, and pass/fail/vacuous resolution for all
    attempt starts of all rows in one expression.  Rows are independent traces (one per
    verification seed); a single trace is the degenerate ``(1, cycles)``
    case.

    ``values[i]`` / ``xmasks[i]`` are element ``i``'s lanes over a common
    padded ``(rows, max_cycles)`` grid; ``lengths[r]`` is row ``r``'s true
    cycle count.  Padded cells carry ``(0, 0)`` and are provably never
    consulted: every truth test is preceded by an in-range mask on the
    *shifted* cycle, and the disable prefix is clipped to real cells before
    accumulation.

    Bucket semantics replicate the oracle exactly, in its order: disabled at
    the start cycle first; antecedent elements left to right (out of range
    -> pending, non-True -> vacuous); ``disable iff`` anywhere in
    ``[start, consequent start]``; consequent elements left to right (out
    of range -> pending, known-False -> fail at the first such element);
    a fail whose ``[start, fail cycle]`` span saw the disable counts as
    disabled instead.  Each start lands in exactly one bucket because every
    test removes its matches from the live mask.  Failures are emitted in
    ascending start order, matching the oracle's iteration.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = lengths.shape[0]
    n = int(lengths.max()) if rows else 0
    starts = np.arange(n, dtype=np.int64)[None, :]
    len_col = lengths[:, None]
    in_trace = starts < len_col

    def true_lane(index: int) -> np.ndarray:
        return np.asarray(values[index]) != 0

    def false_lane(index: int) -> np.ndarray:
        return (np.asarray(values[index]) == 0) & (np.asarray(xmasks[index]) == 0)

    active = in_trace.copy()
    disabled = np.zeros_like(in_trace)
    pending = np.zeros_like(in_trace)
    vacuous = np.zeros_like(in_trace)
    prefix = None
    if disable_index is not None:
        dis = true_lane(disable_index) & in_trace
        prefix = np.zeros((rows, n + 1), dtype=np.int64)
        prefix[:, 1:] = np.cumsum(dis, axis=1)
        disabled = active & dis
        active = active & ~dis

    if antecedent:
        for offset, index in antecedent:
            in_range = (starts + offset) < len_col
            pending = pending | (active & ~in_range)
            active = active & in_range
            t = _shift_lane(true_lane(index), offset)
            vacuous = vacuous | (active & ~t)
            active = active & t
    matched = active
    if antecedent is None:
        consequent_base = 0
    else:
        last_offset = antecedent[-1][0] if antecedent else 0
        consequent_base = last_offset + (0 if overlapping else 1)

    def disable_span(end: np.ndarray) -> np.ndarray:
        """``prefix[end + 1] - prefix[start]`` per (row, start), end clamped."""
        clamped = np.clip(end, -1, len_col - 1)
        gathered = np.take_along_axis(prefix, np.maximum(clamped + 1, 0), axis=1)
        return gathered - prefix[:, :n]

    if prefix is not None:
        mid = active & (disable_span(starts + consequent_base) > 0)
        disabled = disabled | mid
        active = active & ~mid

    failed = np.zeros_like(in_trace)
    fail_cycle = np.full((rows, n), -1, dtype=np.int64)
    for offset, index in consequent:
        total = consequent_base + offset
        in_range = (starts + total) < len_col
        pending = pending | (active & ~in_range)
        active = active & in_range
        f = _shift_lane(false_lane(index), total)
        newly = active & f
        fail_cycle = np.where(newly, starts + total, fail_cycle)
        failed = failed | newly
        active = active & ~f
    passes = active
    if prefix is not None:
        late = failed & (disable_span(fail_cycle) > 0)
        disabled = disabled | late
        failed = failed & ~late

    outcomes: list[AssertionOutcome] = []
    for row in range(rows):
        outcome = AssertionOutcome(name=name)
        outcome.attempts = int(lengths[row])
        outcome.antecedent_matches = int(matched[row].sum())
        outcome.passes = int(passes[row].sum())
        outcome.vacuous = int(vacuous[row].sum())
        outcome.pending = int(pending[row].sum())
        outcome.disabled = int(disabled[row].sum())
        for start in np.nonzero(failed[row])[0].tolist():
            outcome.failures.append(
                AssertionFailure(
                    assertion=name,
                    start_cycle=start,
                    fail_cycle=int(fail_cycle[row, start]),
                    message=message,
                )
            )
        outcomes.append(outcome)
    return outcomes

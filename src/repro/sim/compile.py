"""The compiled simulation backend.

Instead of walking AST nodes for every evaluation (the
:class:`~repro.sim.engine.InterpSimulator` strategy), this backend lowers an
:class:`~repro.hdl.elaborate.ElaboratedDesign` **once** into Python closures:

* every expression becomes a closure ``fn(val, xm) -> (value, xmask, width)``
  operating directly on two flat integer arrays (one slot per signal) -- no
  per-node ``isinstance`` dispatch and no :class:`LogicValue` allocation on
  the hot path;
* every continuous assignment and procedural block becomes a *node* with a
  precomputed read-set and write-set;
* combinational settling is **dependency driven**: a signal write marks only
  the nodes that read that signal dirty, and the settle loop drains the
  dirty set in topologically-levelled order.  Quiet cycles re-run almost
  nothing, where the interpreter re-evaluates every assign and comb block
  on every settle iteration;
* the trace records each change of a signal's preponed sample once, as a
  ``(cycle, value, xmask)`` int event (:class:`~repro.sim.trace.DiffTrace`),
  instead of copying the whole environment dict every cycle; the checker's
  and the miner's columns are built from those events, and per-cycle
  samples only when something reads them.

The backend is behaviourally identical to the interpreter: the differential
test suite asserts ``equals()``-identical traces cycle by cycle.  It is the
only simulator production builds.  The front end
(:func:`~repro.hdl.lint.compile_source`) rejects every construct this backend
cannot lower, so :class:`CompileError` marks a design that never passed that
gate.
"""

from __future__ import annotations

import operator
from heapq import heapify, heappop, heappush
from typing import Callable, Mapping, Optional

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, ProceduralBlock
from repro.sim.engine import (
    _MAX_SETTLE_ITERATIONS,
    SimulationError,
    SimulatorOptions,
    clock_nets,
)
from repro.sim.stimulus import detect_clock
from repro.sim.trace import DiffTrace, TraceSample
from repro.sim.values import LogicValue

#: An expression closure: (values, xmasks) -> (value, xmask, width).
ExprFn = Callable[[list, list], tuple]

#: A statement closure: (values, xmasks, blocking, nonblocking) -> None.
StmtFn = Callable[[list, list, dict, dict], None]


class CompileError(Exception):
    """Raised when lowering a design that :func:`~repro.hdl.lint.compile_source` rejects."""


def _merge_select_write(
    cur_v: int, cur_x: int, v: int, x: int, msb: int, lsb: int, sm: int
) -> tuple[int, int]:
    """(value, xmask) after writing ``v``/``x`` into bits [msb:lsb] of current.

    Mirrors :func:`repro.sim.values.merge_bits` plus the final resize to the
    signal mask ``sm``; shared by the procedural and continuous lowering so
    the tricky slice arithmetic exists exactly once.
    """
    if msb < lsb:
        raise SimulationError(f"invalid write slice [{msb}:{lsb}]")
    slice_w = msb - lsb + 1
    slice_m = ((1 << slice_w) - 1) << lsb
    rx = x & ((1 << slice_w) - 1)
    rv = v & ((1 << slice_w) - 1) & ~rx
    nv = (cur_v & ~slice_m) | ((rv << lsb) & slice_m)
    nx = ((cur_x & ~slice_m) | ((rx << lsb) & slice_m)) & sm
    return nv & sm & ~nx, nx


def _select_target_parts(
    target: ast.Expression,
) -> tuple[ast.Identifier, ast.Expression, ast.Expression]:
    """Destructure a bit/part-select assignment target into (base, msb, lsb)."""
    if isinstance(target, ast.BitSelect):
        base, msb_expr, lsb_expr = target.base, target.index, target.index
    else:
        base, msb_expr, lsb_expr = target.base, target.msb, target.lsb
    if not isinstance(base, ast.Identifier):
        raise CompileError("nested select targets are not supported")
    return base, msb_expr, lsb_expr


# --------------------------------------------------------------------------- #
# expression compilation
# --------------------------------------------------------------------------- #


class _ExprCompiler:
    """Lowers expression trees to closures over the flat signal arrays."""

    def __init__(self, design: ElaboratedDesign, slots: dict[str, int]):
        self._design = design
        self._slots = slots
        self._parameters = design.parameters

    def compile(self, expr: ast.Expression) -> ExprFn:
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
        raise CompileError(f"cannot compile expression of type {type(expr).__name__}")

    # -- leaves --------------------------------------------------------- #

    def _compile_number(self, expr: ast.Number) -> ExprFn:
        w = expr.width if expr.width is not None else 32
        m = (1 << w) - 1
        x = expr.xz_mask & m
        v = expr.value & m & ~x
        return lambda val, xm: (v, x, w)

    def _compile_identifier(self, expr: ast.Identifier) -> ExprFn:
        slot = self._slots.get(expr.name)
        if slot is not None:
            w = self._design.signals[expr.name].width
            return lambda val, xm, i=slot, w=w: (val[i], xm[i], w)
        if expr.name in self._parameters:
            v = self._parameters[expr.name] & 0xFFFFFFFF
            return lambda val, xm: (v, 0, 32)
        raise CompileError(f"unknown signal '{expr.name}'")

    # -- operators ------------------------------------------------------ #

    def _compile_unary(self, expr: ast.Unary) -> ExprFn:
        f = self.compile(expr.operand)
        op = expr.op
        if op == "+":
            return f
        if op == "-":

            def neg(val, xm):
                v, x, w = f(val, xm)
                m = (1 << w) - 1
                if x:
                    return (0, m, w)
                return ((-v) & m, 0, w)

            return neg
        if op == "~":

            def inv(val, xm):
                v, x, w = f(val, xm)
                m = (1 << w) - 1
                if x:
                    return (0, m, w)
                return (~v & m, 0, w)

            return inv
        if op == "!":

            def lnot(val, xm):
                v, x, w = f(val, xm)
                if v:
                    return (0, 0, 1)
                if x:
                    return (0, 1, 1)
                return (1, 0, 1)

            return lnot
        if op == "&":

            def red_and(val, xm):
                v, x, w = f(val, xm)
                if x:
                    return (0, 1, 1)
                return (int(v == (1 << w) - 1), 0, 1)

            return red_and
        if op == "|":

            def red_or(val, xm):
                v, x, w = f(val, xm)
                if x:
                    return (0, 1, 1)
                return (int(v != 0), 0, 1)

            return red_or
        if op == "^":

            def red_xor(val, xm):
                v, x, w = f(val, xm)
                if x:
                    return (0, 1, 1)
                return (v.bit_count() & 1, 0, 1)

            return red_xor
        raise CompileError(f"unsupported unary operator '{op}'")

    def _compile_binary(self, expr: ast.Binary) -> ExprFn:
        lf = self.compile(expr.left)
        rf = self.compile(expr.right)
        op = expr.op
        if op == "&&":

            def land(val, xm):
                v1, x1, _ = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                if (v1 == 0 and x1 == 0) or (v2 == 0 and x2 == 0):
                    return (0, 0, 1)
                if (v1 == 0 and x1) or (v2 == 0 and x2):
                    return (0, 1, 1)
                return (1, 0, 1)

            return land
        if op == "||":

            def lor(val, xm):
                v1, x1, _ = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                if v1 != 0 or v2 != 0:
                    return (1, 0, 1)
                if x1 or x2:
                    return (0, 1, 1)
                return (0, 0, 1)

            return lor
        if op in ("==", "!="):
            want = op == "=="

            def eq(val, xm):
                v1, x1, _ = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                if x1 or x2:
                    return (0, 1, 1)
                return (int((v1 == v2) == want), 0, 1)

            return eq
        if op in ("===", "!=="):
            want = op == "==="

            def ceq(val, xm):
                v1, x1, _ = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                return (int((v1 == v2 and x1 == x2) == want), 0, 1)

            return ceq
        if op in ("<", ">", "<=", ">="):
            cmp = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}[op]

            def rel(val, xm):
                v1, x1, _ = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                if x1 or x2:
                    return (0, 1, 1)
                return (int(cmp(v1, v2)), 0, 1)

            return rel
        if op in ("<<", "<<<"):

            def shl(val, xm):
                v1, x1, w1 = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                if x1 or x2:
                    return (0, (1 << w1) - 1, w1)
                return ((v1 << min(v2, 1024)) & ((1 << w1) - 1), 0, w1)

            return shl
        if op in (">>", ">>>"):

            def shr(val, xm):
                v1, x1, w1 = lf(val, xm)
                v2, x2, _ = rf(val, xm)
                if x1 or x2:
                    return (0, (1 << w1) - 1, w1)
                return (v1 >> min(v2, 1024), 0, w1)

            return shr
        arith = self._ARITH.get(op)
        if arith is None:
            raise CompileError(f"unsupported binary operator '{op}'")

        def binop(val, xm):
            v1, x1, w1 = lf(val, xm)
            v2, x2, w2 = rf(val, xm)
            w = w1 if w1 >= w2 else w2
            m = (1 << w) - 1
            if x1 or x2:
                return (0, m, w)
            r = arith(v1, v2)
            if r is None:  # division/modulo by zero
                return (0, m, w)
            return (r & m, 0, w)

        return binop

    _ARITH = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a // b if b else None,
        "%": lambda a, b: a % b if b else None,
        "**": lambda a, b: a ** min(b, 64),
        "&": lambda a, b: a & b,
        "|": lambda a, b: a | b,
        "^": lambda a, b: a ^ b,
        "~^": lambda a, b: ~(a ^ b),
        "^~": lambda a, b: ~(a ^ b),
    }

    def _compile_ternary(self, expr: ast.Ternary) -> ExprFn:
        cf = self.compile(expr.condition)
        tf = self.compile(expr.if_true)
        ff = self.compile(expr.if_false)

        def tern(val, xm):
            cv, cx, _ = cf(val, xm)
            if cv:
                return tf(val, xm)
            if not cx:
                return ff(val, xm)
            tv, tx, tw = tf(val, xm)
            fv, fx, fw = ff(val, xm)
            w = tw if tw >= fw else fw
            if tx == 0 and fx == 0 and tv == fv:
                return (tv, 0, w)
            return (0, (1 << w) - 1, w)

        return tern

    def _compile_bit_select(self, expr: ast.BitSelect) -> ExprFn:
        bf = self.compile(expr.base)
        idf = self.compile(expr.index)

        def bitsel(val, xm):
            bv, bx, bw = bf(val, xm)
            iv, ix, _ = idf(val, xm)
            if ix or iv >= bw:
                return (0, 1, 1)
            return ((bv >> iv) & 1, (bx >> iv) & 1, 1)

        return bitsel

    def _compile_part_select(self, expr: ast.PartSelect) -> ExprFn:
        bf = self.compile(expr.base)
        mf = self.compile(expr.msb)
        lf = self.compile(expr.lsb)

        def partsel(val, xm):
            bv, bx, bw = bf(val, xm)
            mv, mx, _ = mf(val, xm)
            lv, lx, _ = lf(val, xm)
            if mx or lx:
                return (0, (1 << bw) - 1, bw)
            if mv < lv:
                raise SimulationError(f"invalid slice [{mv}:{lv}]")
            w = mv - lv + 1
            m = (1 << w) - 1
            if lv >= bw:
                return (0, m, w)
            v = bv >> lv
            x = bx >> lv
            if mv >= bw:
                extra = mv - bw + 1
                x |= ((1 << extra) - 1) << (bw - lv)
            x &= m
            return (v & m & ~x, x, w)

        return partsel

    def _compile_concat(self, expr: ast.Concat) -> ExprFn:
        fns = [self.compile(part) for part in expr.parts]

        def cat(val, xm):
            v = 0
            x = 0
            tw = 0
            for f in fns:
                pv, px, pw = f(val, xm)
                v = (v << pw) | pv
                x = (x << pw) | px
                tw += pw
            return (v, x, max(tw, 1))

        return cat

    def _compile_replicate(self, expr: ast.Replicate) -> ExprFn:
        cf = self.compile(expr.count)
        vf = self.compile(expr.value)

        def rep(val, xm):
            cv, cx, _ = cf(val, xm)
            if cx:
                raise SimulationError("replication count is unknown")
            if cv < 1:
                raise SimulationError("replication count must be >= 1")
            pv, px, pw = vf(val, xm)
            v = 0
            x = 0
            for _ in range(cv):
                v = (v << pw) | pv
                x = (x << pw) | px
            return (v, x, max(pw * cv, 1))

        return rep

    def _compile_system_call(self, expr: ast.SystemCall) -> ExprFn:
        name = expr.name
        if name in ("$signed", "$unsigned"):
            return self.compile(expr.args[0])
        if not expr.args:
            raise CompileError(f"system function '{name}' without arguments")
        f = self.compile(expr.args[0])
        if name == "$countones":

            def countones(val, xm):
                v, x, _ = f(val, xm)
                if x:
                    return (0, 0xFFFFFFFF, 32)
                return (v.bit_count(), 0, 32)

            return countones
        if name in ("$onehot", "$onehot0"):
            exact = name == "$onehot"

            def onehot(val, xm):
                v, x, _ = f(val, xm)
                if x:
                    return (0, 1, 1)
                ones = v.bit_count()
                return (int(ones == 1 if exact else ones <= 1), 0, 1)

            return onehot
        if name == "$clog2":

            def clog2(val, xm):
                v, x, _ = f(val, xm)
                if x:
                    return (0, 0xFFFFFFFF, 32)
                r = 0
                while (1 << r) < v:
                    r += 1
                return (r, 0, 32)

            return clog2
        # The front end admits the sampled-value functions ($past, $rose,
        # ...) only inside assertions, which the simulator never executes.
        raise CompileError(f"unsupported system function '{name}'")


# --------------------------------------------------------------------------- #
# statement compilation
# --------------------------------------------------------------------------- #


class _StmtCompiler:
    """Lowers procedural statements to closures over a working environment.

    The working environment is a pair of mutable arrays (``lv``, ``lx``)
    that starts as a copy of the global state.  Blocking assignments update
    it immediately (and are recorded in ``blocking``); non-blocking
    assignments are recorded in ``nba`` for the caller to commit, matching
    :class:`~repro.sim.executor.StatementExecutor` semantics.
    """

    def __init__(self, design: ElaboratedDesign, slots: dict[str, int], expr: _ExprCompiler):
        self._design = design
        self._slots = slots
        self._expr = expr

    def compile_body(self, statement: ast.Statement) -> list[StmtFn]:
        fns: list[StmtFn] = []
        self._compile_into(statement, fns)
        return fns

    def _compile_into(self, statement: ast.Statement, out: list[StmtFn]) -> None:
        if isinstance(statement, ast.Block):
            for sub in statement.statements:
                self._compile_into(sub, out)
        elif isinstance(statement, ast.Assign):
            out.append(self._compile_assign(statement))
        elif isinstance(statement, ast.If):
            out.append(self._compile_if(statement))
        elif isinstance(statement, ast.Case):
            out.append(self._compile_case(statement))
        elif isinstance(statement, (ast.SystemTaskCall, ast.NullStatement)):
            return
        else:
            raise CompileError(f"cannot compile statement {type(statement).__name__}")

    def _signal_slot(self, name: str) -> tuple[int, int]:
        """(slot, mask) of a signal; CompileError when undeclared."""
        slot = self._slots.get(name)
        if slot is None:
            raise CompileError(f"assignment to undeclared signal '{name}'")
        width = self._design.signals[name].width
        return slot, (1 << width) - 1

    def _compile_assign(self, statement: ast.Assign) -> StmtFn:
        vf = self._expr.compile(statement.value)
        blocking = statement.blocking
        target = statement.target
        if isinstance(target, ast.Identifier):
            slot, sm = self._signal_slot(target.name)

            def assign_id(lv, lx, blk, nba, vf=vf, slot=slot, sm=sm):
                v, x, _ = vf(lv, lx)
                nx = x & sm
                nv = v & sm & ~nx
                if blocking:
                    lv[slot] = nv
                    lx[slot] = nx
                    blk[slot] = (nv, nx)
                else:
                    nba[slot] = (nv, nx)

            return assign_id
        if isinstance(target, (ast.BitSelect, ast.PartSelect)):
            base, msb_expr, lsb_expr = _select_target_parts(target)
            slot, sm = self._signal_slot(base.name)
            mf = self._expr.compile(msb_expr)
            lf = self._expr.compile(lsb_expr)

            def assign_select(lv, lx, blk, nba):
                v, x, _ = vf(lv, lx)
                mv, mx, _ = mf(lv, lx)
                sv, sx, _ = lf(lv, lx)
                if mx or sx:
                    nv, nx = 0, sm
                else:
                    nv, nx = _merge_select_write(lv[slot], lx[slot], v, x, mv, sv, sm)
                if blocking:
                    lv[slot] = nv
                    lx[slot] = nx
                    blk[slot] = (nv, nx)
                else:
                    nba[slot] = (nv, nx)

            return assign_select
        if isinstance(target, ast.Concat):
            # (slot, width, shift) triples, MSB-first like the executor applies them.
            pieces: list[tuple[int, int, int]] = []
            offset = 0
            for part in reversed(target.parts):
                if not isinstance(part, ast.Identifier):
                    raise CompileError("concatenation targets must be simple identifiers")
                slot, sm = self._signal_slot(part.name)
                width = self._design.signals[part.name].width
                pieces.append((slot, width, offset))
                offset += width
            pieces.reverse()

            def assign_concat(lv, lx, blk, nba):
                v, x, _ = vf(lv, lx)
                for slot, width, shift in pieces:
                    m = (1 << width) - 1
                    nx = (x >> shift) & m
                    nv = (v >> shift) & m & ~nx
                    if blocking:
                        lv[slot] = nv
                        lx[slot] = nx
                        blk[slot] = (nv, nx)
                    else:
                        nba[slot] = (nv, nx)

            return assign_concat
        raise CompileError(f"unsupported assignment target {type(target).__name__}")

    def _compile_if(self, statement: ast.If) -> StmtFn:
        cf = self._expr.compile(statement.condition)
        then_fns = self.compile_body(statement.then_branch)
        else_fns = (
            self.compile_body(statement.else_branch)
            if statement.else_branch is not None
            else None
        )

        def if_stmt(lv, lx, blk, nba):
            cv, cx, _ = cf(lv, lx)
            if cv:
                for fn in then_fns:
                    fn(lv, lx, blk, nba)
            elif cx == 0 and else_fns is not None:
                for fn in else_fns:
                    fn(lv, lx, blk, nba)
            # Unknown condition: conservatively take neither branch.

        return if_stmt

    def _compile_case(self, statement: ast.Case) -> StmtFn:
        sf = self._expr.compile(statement.subject)
        variant = statement.variant
        items: list[tuple[list[ExprFn], list[StmtFn]]] = []
        default_fns: Optional[list[StmtFn]] = None
        for item in statement.items:
            if not item.labels:
                default_fns = self.compile_body(item.body)
                continue
            label_fns = [self._expr.compile(label) for label in item.labels]
            items.append((label_fns, self.compile_body(item.body)))

        def case_stmt(lv, lx, blk, nba):
            sv, sx, sw = sf(lv, lx)
            for label_fns, body_fns in items:
                for label_fn in label_fns:
                    labv, labx, labw = label_fn(lv, lx)
                    w = sw if sw >= labw else labw
                    if variant == "case":
                        if sx or labx:
                            hit = sx == labx and sv == labv
                        else:
                            hit = sv == labv
                    else:
                        care = ~labx & ((1 << w) - 1)
                        if variant == "casex":
                            care &= ~sx
                        hit = (sv & care) == (labv & care)
                    if hit:
                        for fn in body_fns:
                            fn(lv, lx, blk, nba)
                        return
            if default_fns is not None:
                for fn in default_fns:
                    fn(lv, lx, blk, nba)

        return case_stmt


# --------------------------------------------------------------------------- #
# node construction and levelization
# --------------------------------------------------------------------------- #


class _CompiledBlock:
    """A procedural block lowered to statement closures plus its trigger edges."""

    __slots__ = ("stmts", "edges", "line", "pure_nba", "reads")

    def __init__(self, stmts: list[StmtFn], edges: list[tuple[str, str]], line: int,
                 pure_nba: bool, reads: frozenset):
        self.stmts = stmts
        self.edges = edges  # [(signal, "posedge"|"negedge")]
        self.line = line
        #: True when the body contains no blocking assignment: the block
        #: never mutates its working environment, so it can safely read the
        #: live arrays instead of a pre-edge copy.
        self.pure_nba = pure_nba
        #: Signal names the body reads (conditions, RHS, select indices).
        self.reads = reads


def _assign_reads(assign: ast.ContinuousAssign) -> set[str]:
    reads = set(assign.value.identifiers())
    if isinstance(assign.target, (ast.BitSelect, ast.PartSelect)):
        # A select write merges into the current value, so it also *reads*
        # the target signal (and its index expressions).
        reads |= assign.target.identifiers()
    return reads


def _block_reads(body: ast.Statement) -> set[str]:
    reads: set[str] = set()
    for node in body.walk():
        if isinstance(node, ast.Assign):
            reads |= node.value.identifiers()
            if isinstance(node.target, (ast.BitSelect, ast.PartSelect)):
                reads |= node.target.identifiers()
        elif isinstance(node, ast.If):
            reads |= node.condition.identifiers()
        elif isinstance(node, ast.Case):
            reads |= node.subject.identifiers()
            for item in node.items:
                for label in item.labels:
                    reads |= label.identifiers()
    return reads


def _toposort(order: list[int], edges: dict[int, set[int]]) -> list[int]:
    """Kahn's algorithm; members of dependency cycles keep their input order."""
    incoming: dict[int, int] = {n: 0 for n in order}
    for src, dsts in edges.items():
        for dst in dsts:
            if dst in incoming:
                incoming[dst] += 1
    ready = [n for n in order if incoming[n] == 0]
    heapify(ready)
    result: list[int] = []
    while ready:
        n = heappop(ready)
        result.append(n)
        for dst in edges.get(n, ()):
            incoming[dst] -= 1
            if incoming[dst] == 0:
                heappush(ready, dst)
    if len(result) < len(order):  # combinational cycle: append in input order
        placed = set(result)
        result.extend(n for n in order if n not in placed)
    return result


def _relower_incompatibility(
    base: "CompiledDesign", design: ElaboratedDesign
) -> Optional[str]:
    """Why ``base``'s closures cannot be reused for ``design`` (None: they can).

    Reused closures capture slot indices, widths/masks and parameter values
    as constants, so incremental relowering requires the whole signal table
    and parameter environment to be identical; anything else falls back to a
    full recompile (correct, just slower).
    """
    names = sorted(design.signals)
    if base.names != names:
        return "signal table changed"
    if base.widths != [design.signals[n].width for n in names]:
        return "signal widths changed"
    if base.is_input != [design.signals[n].is_input for n in names]:
        return "port directions changed"
    if base.design.parameters != design.parameters:
        return "parameters changed"
    return None


class CompiledDesign:
    """One design lowered to closures, ready to instantiate simulators from.

    With a ``base`` (a previously compiled, signal-table-identical design --
    in practice the unpatched design a candidate repair mutates), lowering
    is *incremental*: every node whose content key
    (:mod:`repro.artifacts.canon`) is unchanged reuses the base's closures
    verbatim, and only the dirty cone -- the nodes the patch actually
    touched -- is relowered.  The dependency levels and settle schedule are
    recomputed from the new node graph either way, so an incremental lower
    is byte-identical to a full recompile by construction (and pinned so by
    ``tests/test_artifacts.py``).
    """

    def __init__(self, design: ElaboratedDesign, base: Optional["CompiledDesign"] = None):
        # Imported here (not at module top) to keep this module importable
        # before the repro.artifacts package exists in partial checkouts;
        # canon depends only on repro.hdl, so there is no cycle either way.
        from repro.artifacts.canon import (
            assign_node_key,
            block_node_key,
            initial_node_key,
        )

        self.design = design
        self.names: list[str] = sorted(design.signals)
        self.slots: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.widths: list[int] = [design.signals[n].width for n in self.names]
        self.masks: list[int] = [(1 << w) - 1 for w in self.widths]
        self.is_input: list[bool] = [design.signals[n].is_input for n in self.names]

        #: Why an offered base was rejected (None: no base, or it was used).
        self.relower_fallback_reason: Optional[str] = None
        self.relower_nodes_reused = 0
        self.relower_nodes_total = 0
        if base is not None:
            self.relower_fallback_reason = _relower_incompatibility(base, design)
            if self.relower_fallback_reason is not None:
                base = None

        # Per-node reuse indexes: content key -> lowered state.  They make
        # this instance usable as the ``base`` of the next incremental
        # lower, whether it was itself lowered fully or incrementally.
        self._assign_index: dict[str, Callable] = {}
        self._comb_index: dict[str, Callable] = {}
        self._seq_index: dict[str, _CompiledBlock] = {}
        self._init_index: dict[str, list[StmtFn]] = {}
        base_assigns = base._assign_index if base is not None else {}
        base_combs = base._comb_index if base is not None else {}
        base_seqs = base._seq_index if base is not None else {}
        base_inits = base._init_index if base is not None else {}

        expr = _ExprCompiler(design, self.slots)
        stmt = _StmtCompiler(design, self.slots, expr)

        # -- settle nodes: continuous assigns + comb blocks ------------- #
        raw_nodes: list[tuple[Callable, set[str], set[str]]] = []
        for assign in design.continuous_assigns:
            key = assign_node_key(assign)
            runner = base_assigns.get(key)
            if runner is None:
                runner = self._make_assign_runner(assign, expr)
            else:
                self.relower_nodes_reused += 1
            self._assign_index[key] = runner
            writes = set(ast._target_names(assign.target))
            raw_nodes.append((runner, _assign_reads(assign), writes))
        for block in design.comb_blocks:
            key = block_node_key(block)
            runner = base_combs.get(key)
            if runner is None:
                runner = self._make_comb_runner(stmt.compile_body(block.body))
            else:
                self.relower_nodes_reused += 1
            self._comb_index[key] = runner
            writes = set(ast.assignment_targets(block.body))
            raw_nodes.append((runner, _block_reads(block.body), writes))

        # Topologically level the nodes: an edge src -> dst when src writes
        # a signal dst reads.  The settle heap pops lower ids first, so
        # levelled ids give single-pass settling for acyclic logic.
        writers: dict[str, list[int]] = {}
        for nid, (_, _, writes) in enumerate(raw_nodes):
            for name in writes:
                writers.setdefault(name, []).append(nid)
        # A signal with several writers needs every combinational writer to
        # observe the others' writes: contradictory continuous drivers then
        # keep re-triggering each other until the settle budget is exhausted
        # (the interpreter's "did not settle"), and a clocked write to a
        # comb-driven signal re-runs the combinational driver, which wins the
        # settle exactly like the interpreter's fixed-point loop.
        seq_written: set[str] = set()
        for block in design.seq_blocks:
            seq_written.update(ast.assignment_targets(block.body))
        for name, writer_ids in writers.items():
            if len(writer_ids) > 1 or name in seq_written:
                for nid in writer_ids:
                    raw_nodes[nid][1].add(name)
        dep_edges: dict[int, set[int]] = {}
        for nid, (_, reads, _) in enumerate(raw_nodes):
            for name in reads:
                for src in writers.get(name, ()):
                    if src != nid:
                        dep_edges.setdefault(src, set()).add(nid)
        level_order = _toposort(list(range(len(raw_nodes))), dep_edges)

        self.nodes: list[Callable] = [raw_nodes[nid][0] for nid in level_order]
        self.readers: list[list[int]] = [[] for _ in self.names]
        self.writer_nodes: list[list[int]] = [[] for _ in self.names]
        for new_id, old_id in enumerate(level_order):
            for name in raw_nodes[old_id][1]:
                slot = self.slots.get(name)
                if slot is not None:
                    self.readers[slot].append(new_id)
            for name in raw_nodes[old_id][2]:
                slot = self.slots.get(name)
                if slot is not None:
                    self.writer_nodes[slot].append(new_id)

        # -- clocked and initial blocks --------------------------------- #
        self.seq_blocks: list[_CompiledBlock] = []
        for block in design.seq_blocks:
            key = block_node_key(block)
            compiled = base_seqs.get(key)
            if compiled is None:
                compiled = self._compile_block(block, stmt)
            else:
                self.relower_nodes_reused += 1
            self._seq_index[key] = compiled
            self.seq_blocks.append(compiled)
        self.initial_bodies: list[list[StmtFn]] = []
        for initial in design.initial_blocks:
            key = initial_node_key(initial)
            body = base_inits.get(key)
            if body is None:
                body = stmt.compile_body(initial.body)
            else:
                self.relower_nodes_reused += 1
            self._init_index[key] = body
            self.initial_bodies.append(body)

        self.relower_nodes_total = (
            len(design.continuous_assigns)
            + len(design.comb_blocks)
            + len(design.seq_blocks)
            + len(design.initial_blocks)
        )
        if base is not None or self.relower_fallback_reason is not None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
            registry.inc("relower.nodes_reused", self.relower_nodes_reused)
            registry.inc(
                "relower.nodes_lowered",
                self.relower_nodes_total - self.relower_nodes_reused,
            )

    # -- node runners ---------------------------------------------------- #

    def _make_assign_runner(self, assign: ast.ContinuousAssign, expr: _ExprCompiler) -> Callable:
        vf = expr.compile(assign.value)
        target = assign.target
        if isinstance(target, ast.Identifier):
            slot = self.slots.get(target.name)
            if slot is None:
                raise CompileError(f"assignment to undeclared signal '{target.name}'")
            sm = self.masks[slot]

            def run_id(sim, vf=vf, slot=slot, sm=sm):
                v, x, _ = vf(sim._val, sim._xm)
                nx = x & sm
                sim._write(slot, v & sm & ~nx, nx)

            return run_id
        if isinstance(target, (ast.BitSelect, ast.PartSelect)):
            base, msb_expr, lsb_expr = _select_target_parts(target)
            slot = self.slots.get(base.name)
            if slot is None:
                raise CompileError(f"assignment to undeclared signal '{base.name}'")
            sm = self.masks[slot]
            mf = expr.compile(msb_expr)
            lf = expr.compile(lsb_expr)

            def run_select(sim):
                val, xmv = sim._val, sim._xm
                v, x, _ = vf(val, xmv)
                mv, mx, _ = mf(val, xmv)
                sv, sx, _ = lf(val, xmv)
                if mx or sx:
                    sim._write(slot, 0, sm)
                    return
                nv, nx = _merge_select_write(val[slot], xmv[slot], v, x, mv, sv, sm)
                sim._write(slot, nv, nx)

            return run_select
        if isinstance(target, ast.Concat):
            pieces: list[tuple[int, int, int]] = []
            offset = 0
            for part in reversed(target.parts):
                if not isinstance(part, ast.Identifier):
                    raise CompileError("concatenation targets must be simple identifiers")
                slot = self.slots.get(part.name)
                if slot is None:
                    raise CompileError(f"assignment to undeclared signal '{part.name}'")
                width = self.widths[slot]
                pieces.append((slot, width, offset))
                offset += width
            pieces.reverse()

            def run_concat(sim):
                v, x, _ = vf(sim._val, sim._xm)
                for slot, width, shift in pieces:
                    m = (1 << width) - 1
                    nx = (x >> shift) & m
                    sim._write(slot, (v >> shift) & m & ~nx, nx)

            return run_concat
        raise CompileError(f"unsupported assignment target {type(target).__name__}")

    def _make_comb_runner(self, stmts: list[StmtFn]) -> Callable:
        def run_comb(sim):
            lv = sim._val.copy()
            lx = sim._xm.copy()
            blocking: dict[int, tuple[int, int]] = {}
            nba: dict[int, tuple[int, int]] = {}
            for fn in stmts:
                fn(lv, lx, blocking, nba)
            blocking.update(nba)
            write = sim._write
            for slot, (v, x) in blocking.items():
                write(slot, v, x)

        return run_comb

    def _compile_block(self, block: ProceduralBlock, stmt: _StmtCompiler) -> _CompiledBlock:
        stmts = stmt.compile_body(block.body)
        edges = [(item.signal, item.edge) for item in block.clock_edges()]
        pure_nba = not any(
            isinstance(node, ast.Assign) and node.blocking for node in block.body.walk()
        )
        return _CompiledBlock(
            stmts, edges, block.line, pure_nba, frozenset(_block_reads(block.body))
        )


def compile_design(
    design: ElaboratedDesign, base: Optional[CompiledDesign] = None
) -> CompiledDesign:
    """Lower ``design`` for the compiled backend (raises :class:`CompileError`).

    With ``base`` -- a previously compiled design sharing the same signal
    table and parameters, typically the unpatched design a candidate repair
    mutates -- only the nodes the patch touched are relowered; everything
    else reuses the base's closures (see :class:`CompiledDesign`).
    """
    return CompiledDesign(design, base=base)


# --------------------------------------------------------------------------- #
# the compiled simulator
# --------------------------------------------------------------------------- #


class CompiledSimulator:
    """Drop-in replacement for :class:`~repro.sim.engine.InterpSimulator`.

    Same public API and -- by construction plus differential testing -- the
    same cycle-level behaviour, built on the lowered design: flat integer
    state, dirty-set settling and an event-recording column trace.
    """

    def __init__(
        self,
        design: ElaboratedDesign,
        options: Optional[SimulatorOptions] = None,
        compiled: Optional[CompiledDesign] = None,
    ):
        self._design = design
        self._options = options or SimulatorOptions()
        self._compiled = compiled if compiled is not None else compile_design(design)
        self._clock = detect_clock(design)

        c = self._compiled
        self._names = list(c.names)
        self._slots = dict(c.slots)
        self._sig_width = list(c.widths)
        self._sig_mask = list(c.masks)
        self._readers: list[list[int]] = [list(r) for r in c.readers]
        self._writer_nodes: list[list[int]] = [list(w) for w in c.writer_nodes]
        self._nodes = c.nodes

        # The clock may be virtual (purely combinational designs): give it a
        # synthetic slot so the trace and value() behave like the engine's.
        if self._clock not in self._slots:
            self._slots[self._clock] = len(self._names)
            self._names.append(self._clock)
            self._sig_width.append(1)
            self._sig_mask.append(1)
            self._readers.append([])
            self._writer_nodes.append([])
        self._clock_slot = self._slots[self._clock]

        # Clock-edge trigger lists mirror InterpSimulator._fire_clock_edge /
        # _fire_async_edges: posedge/negedge of the active clock (or of a
        # net tied to it, see clock_nets) fire on step(); every other edge
        # is an asynchronous trigger.
        clocks = clock_nets(design, self._clock)
        self._posedge_blocks: list[_CompiledBlock] = []
        self._negedge_blocks: list[_CompiledBlock] = []
        self._async_slots: list[int] = []
        async_index: dict[int, int] = {}
        self._async_triggers: list[tuple[_CompiledBlock, list[tuple[int, str]]]] = []
        for block in c.seq_blocks:
            triggers: list[tuple[int, str]] = []
            clock_edges = set()
            for signal, edge in block.edges:
                if signal in clocks:
                    clock_edges.add(edge)
                    continue
                slot = self._slots.get(signal)
                if slot is None:
                    continue
                if slot not in async_index:
                    async_index[slot] = len(self._async_slots)
                    self._async_slots.append(slot)
                triggers.append((async_index[slot], edge))
            if "posedge" in clock_edges:
                self._posedge_blocks.append(block)
            if "negedge" in clock_edges:
                self._negedge_blocks.append(block)
            if triggers:
                self._async_triggers.append((block, triggers))

        # -- mutable state ---------------------------------------------- #
        n = len(self._names)
        self._val: list[int] = [0] * n
        self._xm: list[int] = [0] * n
        self._dirty: list[bool] = [False] * len(self._nodes)
        self._heap: list[int] = []
        self._budget = _MAX_SETTLE_ITERATIONS * max(1, len(self._nodes))
        self._rec_changed: set[int] = set()
        self._input_lookup: dict[str, tuple[int, int]] = {}
        self._prev_async_v: list[int] = [0] * len(self._async_slots)
        self._prev_async_x: list[int] = [0] * len(self._async_slots)
        self._posedge_pure = all(block.pure_nba for block in self._posedge_blocks)
        self._negedge_pure = all(block.pure_nba for block in self._negedge_blocks)
        # The 0->1->0 clock pulse is unobservable (and therefore skippable)
        # when no combinational node and no clocked block reads the clock
        # signal itself; the per-cycle check on the current value keeps a
        # stimulus-driven clock exactly engine-identical.
        self._clock_pulse_observable = bool(self._readers[self._clock_slot]) or any(
            self._clock in block.reads for block in c.seq_blocks
        )
        self._cycle = 0

        self._initialise_state()
        self._shadow_v: list[int] = self._val.copy()
        self._shadow_x: list[int] = self._xm.copy()
        self._rec_changed.clear()
        self._trace = DiffTrace(
            signals=sorted(design.signals),
            initial={
                name: (self._sig_width[i], self._val[i], self._xm[i])
                for i, name in enumerate(self._names)
            },
        )
        # One event list per slot, shared with the trace: the recorder
        # appends to it without a name lookup.
        self._events = [self._trace.events[name] for name in self._names]

    # ------------------------------------------------------------------ #
    # public API (mirrors InterpSimulator)
    # ------------------------------------------------------------------ #

    @property
    def design(self) -> ElaboratedDesign:
        return self._design

    @property
    def clock(self) -> str:
        return self._clock

    @property
    def trace(self) -> DiffTrace:
        return self._trace

    @property
    def cycle(self) -> int:
        return self._cycle

    def value(self, name: str) -> LogicValue:
        """Current (post-edge, settled) value of a signal."""
        slot = self._slots.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal '{name}'")
        return LogicValue(
            value=self._val[slot], xmask=self._xm[slot], width=self._sig_width[slot]
        )

    def peek(self, name: str) -> Optional[int]:
        """Current value as an int, or ``None`` when unknown."""
        slot = self._slots.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal '{name}'")
        return None if self._xm[slot] else self._val[slot]

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> TraceSample:
        """Simulate one full clock cycle with the given input values."""
        self._step(inputs or {})
        return self._trace[self._cycle - 1]

    def run(self, stimulus: list) -> DiffTrace:
        """Run one step per entry of ``stimulus`` and return the (event) trace.

        Unlike :meth:`step` this never materialises trace samples, so a run
        whose trace is only partially inspected stays cheap.
        """
        step = self._step
        for inputs in stimulus:
            step(inputs)
        return self._trace

    # ------------------------------------------------------------------ #
    # initialisation
    # ------------------------------------------------------------------ #

    def _initialise_state(self) -> None:
        x_init = self._options.x_initial_state
        design_signals = self._design.signals
        for i, name in enumerate(self._names):
            signal = design_signals.get(name)
            if x_init and signal is not None and not signal.is_input:
                self._val[i] = 0
                self._xm[i] = self._sig_mask[i]
        for stmts in self._compiled.initial_bodies:
            nba: dict[int, tuple[int, int]] = {}
            for fn in stmts:
                fn(self._val, self._xm, {}, nba)
            for slot, (v, x) in nba.items():
                self._val[slot] = v
                self._xm[slot] = x
        # Everything is potentially stale: settle the whole design once.
        self._heap = list(range(len(self._nodes)))
        for nid in self._heap:
            self._dirty[nid] = True
        heapify(self._heap)
        self._settle()

    # ------------------------------------------------------------------ #
    # simulation phases
    # ------------------------------------------------------------------ #

    def _write(self, slot: int, v: int, x: int) -> None:
        if self._val[slot] == v and self._xm[slot] == x:
            return
        self._val[slot] = v
        self._xm[slot] = x
        self._rec_changed.add(slot)
        dirty = self._dirty
        heap = self._heap
        for nid in self._readers[slot]:
            if not dirty[nid]:
                dirty[nid] = True
                heappush(heap, nid)

    def _settle(self) -> None:
        heap = self._heap
        dirty = self._dirty
        nodes = self._nodes
        budget = self._budget
        execs = 0
        while heap:
            nid = heappop(heap)
            if not dirty[nid]:
                continue
            dirty[nid] = False
            execs += 1
            if execs > budget:
                raise SimulationError(
                    "combinational logic did not settle (possible combinational loop)"
                )
            nodes[nid](self)

    def _apply_inputs(self, inputs: Mapping[str, int]) -> None:
        # Stimulus vectors drive the same signals every cycle: the
        # name -> (slot, mask) resolution is cached across cycles.
        lookup = self._input_lookup
        val = self._val
        xm = self._xm
        rec_changed = self._rec_changed
        dirty = self._dirty
        heap = self._heap
        readers = self._readers
        for name, value in inputs.items():
            entry = lookup.get(name)
            if entry is None:
                if name not in self._design.signals:
                    raise SimulationError(f"unknown input signal '{name}'")
                slot = self._slots[name]
                entry = (slot, self._sig_mask[slot])
                lookup[name] = entry
            slot, m = entry
            if type(value) is int:
                v = value & m
                x = 0
            elif isinstance(value, LogicValue):
                x = value.xmask & m
                v = value.value & m & ~x
            else:
                v = int(value) & m
                x = 0
            # Inlined _write: this runs for every input on every cycle.
            if val[slot] != v or xm[slot] != x:
                val[slot] = v
                xm[slot] = x
                rec_changed.add(slot)
                for nid in readers[slot]:
                    if not dirty[nid]:
                        dirty[nid] = True
                        heappush(heap, nid)
                # A stimulus write to a signal that also has combinational
                # drivers must re-run those drivers: in the interpreter's
                # fixed-point settle the driver always wins over the forced
                # value, and the compiled backend must agree.
                for nid in self._writer_nodes[slot]:
                    if not dirty[nid]:
                        dirty[nid] = True
                        heappush(heap, nid)

    def _step(self, inputs: Mapping[str, int]) -> None:
        pav = self._prev_async_v
        pax = self._prev_async_x
        val = self._val
        xm = self._xm
        for i, slot in enumerate(self._async_slots):
            pav[i] = val[slot]
            pax[i] = xm[slot]
        self._apply_inputs(inputs)
        self._settle()
        self._fire_async_edges()
        # The preponed sample is the cycle's only sampling point; what the
        # edge changes shows in the next cycle's sample.
        self._record_diff(self._cycle)
        self._fire_clock_edge()
        self._settle()
        self._trace.end_cycle()
        self._cycle += 1

    def _fire_async_edges(self) -> None:
        triggered: list[_CompiledBlock] = []
        for block, triggers in self._async_triggers:
            for async_idx, edge in triggers:
                pv = self._prev_async_v[async_idx]
                px = self._prev_async_x[async_idx]
                slot = self._async_slots[async_idx]
                cv, cx = self._val[slot], self._xm[slot]
                if px or cx:
                    continue
                before = pv & 1
                after = cv & 1
                if edge == "negedge":
                    fired = before == 1 and after == 0
                else:
                    fired = before == 0 and after == 1
                if fired:
                    triggered.append(block)
                    break
        if triggered:
            self._run_blocks(triggered)
            self._settle()

    def _fire_clock_edge(self) -> None:
        toggle = self._clock_pulse_observable or self._val[self._clock_slot] != 0
        if toggle:
            self._write(self._clock_slot, 1, 0)
        self._run_blocks(self._posedge_blocks, self._posedge_pure)
        if self._negedge_blocks:
            # Negedge-clocked blocks fire "half a cycle later": settle, then run.
            self._settle()
            self._run_blocks(self._negedge_blocks, self._negedge_pure)
        if toggle:
            self._write(self._clock_slot, 0, 0)

    def _run_blocks(
        self, blocks: list[_CompiledBlock], pure: Optional[bool] = None
    ) -> None:
        """Execute blocks against the pre-edge state; commit NBAs together."""
        if not blocks:
            return
        write = self._write
        if pure is None:
            pure = all(block.pure_nba for block in blocks)
        if pure:
            # Fast path for idiomatic RTL (only non-blocking assignments):
            # nothing mutates the working environment and nothing is
            # committed until every block has run, so all blocks can read
            # the live arrays directly -- no copies at all.
            val = self._val
            xm = self._xm
            nonblocking: dict[int, tuple[int, int]] = {}
            empty: dict[int, tuple[int, int]] = {}
            for block in blocks:
                for fn in block.stmts:
                    fn(val, xm, empty, nonblocking)
            rec_changed = self._rec_changed
            dirty = self._dirty
            heap = self._heap
            readers = self._readers
            for slot, (v, x) in nonblocking.items():
                # Inlined _write: the register-commit loop runs every cycle.
                if val[slot] != v or xm[slot] != x:
                    val[slot] = v
                    xm[slot] = x
                    rec_changed.add(slot)
                    for nid in readers[slot]:
                        if not dirty[nid]:
                            dirty[nid] = True
                            heappush(heap, nid)
            return
        base_v = self._val.copy()
        base_x = self._xm.copy()
        nonblocking = {}
        for block in blocks:
            lv = base_v.copy()
            lx = base_x.copy()
            blocking: dict[int, tuple[int, int]] = {}
            nba: dict[int, tuple[int, int]] = {}
            for fn in block.stmts:
                fn(lv, lx, blocking, nba)
            for slot, (v, x) in blocking.items():
                write(slot, v, x)
            nonblocking.update(nba)
        for slot, (v, x) in nonblocking.items():
            write(slot, v, x)

    def _record_diff(self, point: int) -> None:
        """Append a ``(point, value, xmask)`` event for every slot whose
        value differs from its last recorded one."""
        shadow_v = self._shadow_v
        shadow_x = self._shadow_x
        val = self._val
        xm = self._xm
        events = self._events
        for slot in self._rec_changed:
            v = val[slot]
            x = xm[slot]
            if shadow_v[slot] != v or shadow_x[slot] != x:
                shadow_v[slot] = v
                shadow_x[slot] = x
                events[slot].append((point, v, x))
        self._rec_changed.clear()

"""Assertion mining: generate candidate SVAs for a design.

In the paper, Claude-3.5 generates SVAs for each compiled Verilog sample and
SymbiYosys validates them.  This module is the reproduction's generator half:
it mines candidate properties from the golden design's structure (register
transfer behaviour, reset values) and from simulation traces (one-hot state,
signal implications, equalities).  Mined candidates are *not* trusted -- the
data-augmentation pipeline inserts them into the source and validates them
with simulation and bounded model checking exactly as the paper does, and
invalid candidates are discarded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign
from repro.sim.stimulus import is_active_low_reset, reset_signal_of
from repro.sim.trace import Trace, TraceColumns


@dataclass(frozen=True)
class MinedAssertion:
    """One candidate assertion, carried around as source text."""

    name: str
    property_text: str
    assert_text: str
    description: str
    kind: str  # "transfer" | "reset" | "onehot" | "implication" | "equality"

    def render(self, indent: str = "    ") -> str:
        """Render the property + assertion block ready for insertion."""
        lines = [indent + line for line in self.property_text.splitlines()]
        lines.append(indent + self.assert_text)
        return "\n".join(lines)


def template_assertion_blocks(blocks: list[str], family: str = "") -> list[MinedAssertion]:
    """Wrap hand-written template SVA blocks in :class:`MinedAssertion` records.

    The last line of a multi-line block is its ``assert`` statement; a
    single-line block is a self-contained property.  Shared by Stage 2, the
    SVA benchmark and the checker differential tests so the wrapping recipe
    exists exactly once.
    """
    wrapped: list[MinedAssertion] = []
    for index, block in enumerate(blocks):
        lines = block.splitlines()
        property_text = "\n".join(lines[:-1]) if len(lines) > 1 else block
        assert_text = lines[-1] if len(lines) > 1 else ""
        description = f"template assertion {index}"
        if family:
            description += f" of family {family}"
        wrapped.append(
            MinedAssertion(
                name=f"template_{index}",
                property_text=property_text,
                assert_text=assert_text,
                description=description,
                kind="template",
            )
        )
    return wrapped


def insert_assertions(source: str, assertions: list[MinedAssertion]) -> str:
    """Insert mined assertions into ``source`` just before ``endmodule``."""
    if not assertions:
        return source
    lines = source.split("\n")
    insert_at = None
    for index in range(len(lines) - 1, -1, -1):
        if lines[index].strip().startswith("endmodule"):
            insert_at = index
            break
    if insert_at is None:
        raise ValueError("source has no 'endmodule' to insert assertions before")
    rendered = [assertion.render() for assertion in assertions]
    new_lines = lines[:insert_at] + rendered + lines[insert_at:]
    return "\n".join(new_lines)


class AssertionMiner:
    """Mines candidate SVAs from a golden design and an optional trace."""

    def __init__(self, design: ElaboratedDesign, trace: Optional[Trace] = None):
        self._design = design
        self._trace = trace
        self._reset = reset_signal_of(design)
        self._counter = itertools.count()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def mine(self, max_assertions: int = 6) -> list[MinedAssertion]:
        """Produce up to ``max_assertions`` candidate assertions."""
        candidates: list[MinedAssertion] = []
        candidates.extend(self._mine_transfer_properties())
        candidates.extend(self._mine_reset_properties())
        if self._trace is not None and len(self._trace) >= 8:
            candidates.extend(self._mine_trace_properties())
        unique: dict[str, MinedAssertion] = {}
        for candidate in candidates:
            unique.setdefault(candidate.property_text, candidate)
        return list(unique.values())[:max_assertions]

    # ------------------------------------------------------------------ #
    # helpers shared by all miners
    # ------------------------------------------------------------------ #

    def _next_name(self, stem: str) -> str:
        return f"p_{stem}_{next(self._counter)}"

    def _disable_clause(self) -> str:
        if self._reset is None:
            return ""
        if is_active_low_reset(self._reset.name):
            return f"disable iff (!{self._reset.name}) "
        return f"disable iff ({self._reset.name}) "

    def _reset_condition(self) -> Optional[str]:
        if self._reset is None:
            return None
        if is_active_low_reset(self._reset.name):
            return f"!{self._reset.name}"
        return self._reset.name

    def _make(
        self, stem: str, clock: str, body: str, description: str, kind: str, disable: bool = True
    ) -> MinedAssertion:
        name = self._next_name(stem)
        disable_clause = self._disable_clause() if disable else ""
        property_text = (
            f"property {name};\n"
            f"    @(posedge {clock}) {disable_clause}{body};\n"
            f"endproperty"
        )
        assert_text = (
            f"a_{name}: assert property ({name}) else $error(\"{description}\");"
        )
        return MinedAssertion(
            name=name,
            property_text=property_text,
            assert_text=assert_text,
            description=description,
            kind=kind,
        )

    def _block_clock(self, block) -> Optional[str]:
        for item in block.clock_edges():
            if self._reset is None or item.signal != self._reset.name:
                return item.signal
        return None

    # ------------------------------------------------------------------ #
    # structural miners
    # ------------------------------------------------------------------ #

    def _mine_transfer_properties(self) -> list[MinedAssertion]:
        """``cond |=> reg == $past(rhs)`` for conditionally loaded registers."""
        mined: list[MinedAssertion] = []
        for block in self._design.seq_blocks:
            clock = self._block_clock(block)
            if clock is None:
                continue
            for path_condition, assign in self._conditional_assignments(block.body):
                # Drop the reset guard (`!(!rst_n)` style terms) from the path;
                # the property's `disable iff` clause covers reset behaviour.
                meaningful = [c for c in path_condition if not self._mentions_reset(c)]
                if not meaningful:
                    continue
                if not isinstance(assign.target, ast.Identifier):
                    continue
                target = assign.target.name
                rhs = assign.value
                condition_text = " && ".join(f"({c})" for c in meaningful)
                rhs_text = str(rhs)
                if target in rhs.identifiers():
                    body = f"({condition_text}) |=> ({target} == ($past({rhs_text})))"
                else:
                    body = f"({condition_text}) |=> ({target} == $past({rhs_text}))"
                description = f"{target} must follow its specified update when {condition_text}"
                mined.append(self._make(f"{target}_update", clock, body, description, "transfer"))
        return mined

    def _mine_reset_properties(self) -> list[MinedAssertion]:
        """``reset_active |=> reg == reset_value`` for registers reset to constants."""
        mined: list[MinedAssertion] = []
        reset_condition = self._reset_condition()
        if reset_condition is None:
            return mined
        for block in self._design.seq_blocks:
            clock = self._block_clock(block)
            if clock is None:
                continue
            for assign in self._reset_branch_assignments(block.body):
                if not isinstance(assign.target, ast.Identifier):
                    continue
                if not isinstance(assign.value, ast.Number):
                    continue
                target = assign.target.name
                value_text = str(assign.value)
                body = f"({reset_condition}) |=> ({target} == {value_text})"
                description = f"{target} must reset to {value_text}"
                mined.append(
                    self._make(f"{target}_reset", clock, body, description, "reset", disable=False)
                )
        return mined

    def _conditional_assignments(
        self, statement: ast.Statement
    ) -> list[tuple[list[str], ast.Assign]]:
        """Collect (path condition texts, assignment) pairs from an always body."""
        collected: list[tuple[list[str], ast.Assign]] = []

        def visit(node: ast.Statement, path: list[str]) -> None:
            if isinstance(node, ast.Block):
                for sub in node.statements:
                    visit(sub, path)
            elif isinstance(node, ast.If):
                condition_text = str(node.condition)
                visit(node.then_branch, path + [condition_text])
                if node.else_branch is not None:
                    visit(node.else_branch, path + [f"!({condition_text})"])
            elif isinstance(node, ast.Case):
                subject = str(node.subject)
                for item in node.items:
                    if not item.labels:
                        continue
                    label_text = " || ".join(
                        f"({subject} == {label})" for label in item.labels
                    )
                    visit(item.body, path + [label_text])
            elif isinstance(node, ast.Assign) and not node.blocking:
                collected.append((list(path), node))

        visit(statement, [])
        return collected

    def _reset_branch_assignments(self, statement: ast.Statement) -> list[ast.Assign]:
        """Assignments inside the reset branch of the outermost if."""
        reset_condition = self._reset_condition()
        if reset_condition is None:
            return []
        assignments: list[ast.Assign] = []
        for path, assign in self._conditional_assignments(statement):
            if path and self._mentions_reset(path[0]) and len(path) == 1:
                assignments.append(assign)
        return assignments

    def _mentions_reset(self, text: str) -> bool:
        return self._reset is not None and self._reset.name in text

    # ------------------------------------------------------------------ #
    # trace-based miners
    # ------------------------------------------------------------------ #

    def _mine_trace_properties(self) -> list[MinedAssertion]:
        """One-hot, equality and implication candidates, read off one
        :meth:`~repro.sim.trace.Trace.columns` call over the trace."""
        clock_candidates = self._design.clock_candidates()
        clock = clock_candidates[0] if clock_candidates else "clk"
        onehot = [s.name for s in self._design.state_signals if 2 <= s.width <= 16]
        single_bit = [
            s.name
            for s in self._design.signals.values()
            if s.width == 1 and not s.is_input and s.name != clock
        ]
        columns = self._trace.columns(onehot + single_bit)
        # Cycles after reset settles (skip the first few).
        start = min(4, columns.cycles - 1)
        mined = self._mine_onehot_properties(clock, onehot, columns, start)
        mined.extend(self._mine_implication_properties(clock, single_bit, columns, start))
        return mined

    def _mine_onehot_properties(
        self, clock: str, names: list[str], columns: TraceColumns, start: int
    ) -> list[MinedAssertion]:
        """``$onehot(sig)`` for signals one-hot at every known stable cycle."""
        mined: list[MinedAssertion] = []
        for name in names:
            values, xmasks = columns.signal(name)
            window = values[start:][xmasks[start:] == 0]
            if len(window) < 4:
                continue
            if np.all((window != 0) & ((window & (window - 1)) == 0)):
                body = f"$onehot({name})"
                description = f"{name} must stay one-hot"
                mined.append(self._make(f"{name}_onehot", clock, body, description, "onehot"))
        return mined

    def _mine_implication_properties(
        self, clock: str, names: list[str], columns: TraceColumns, start: int
    ) -> list[MinedAssertion]:
        """``a == b`` / ``a |-> b`` over the stable cycles where both are known."""
        mined: list[MinedAssertion] = []
        if len(names) < 2:
            return mined
        known = np.array([columns.xmasks[name][start:] == 0 for name in names])
        high = np.array([columns.values[name][start:] != 0 for name in names]) & known
        low = known & ~high
        # [left][right] counts over the cycles where both are known: cycles
        # with left high (antecedents) and with left high but right low.
        high_counts = high.astype(np.int64)
        antecedents = (high_counts @ known.T).tolist()
        violations = (high_counts @ low.T).tolist()
        reset_name = self._reset.name if self._reset is not None else None
        for left, right in itertools.permutations(range(len(names)), 2):
            left_name, right_name = names[left], names[right]
            if reset_name in (left_name, right_name):
                continue
            seen = antecedents[left][right]
            implication_holds = violations[left][right] == 0
            if implication_holds and violations[right][left] == 0 and seen >= 2:
                body = f"{left_name} == {right_name}"
                description = f"{left_name} must equal {right_name}"
                mined.append(
                    self._make(f"{left_name}_eq_{right_name}", clock, body, description, "equality")
                )
            elif implication_holds and seen >= 3:
                body = f"{left_name} |-> {right_name}"
                description = f"{right_name} must be high whenever {left_name} is high"
                mined.append(
                    self._make(
                        f"{left_name}_implies_{right_name}", clock, body, description, "implication"
                    )
                )
            if len(mined) >= 4:
                break
        return mined


def mine_assertions(
    design: ElaboratedDesign, trace: Optional[Trace] = None, max_assertions: int = 6
) -> list[MinedAssertion]:
    """Convenience wrapper around :class:`AssertionMiner`."""
    return AssertionMiner(design, trace).mine(max_assertions=max_assertions)

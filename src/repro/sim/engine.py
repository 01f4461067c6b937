"""The cycle-based simulation engine.

The engine drives an :class:`~repro.hdl.elaborate.ElaboratedDesign` one clock
cycle at a time:

1. new input values are applied and combinational logic settles,
2. asynchronous edges (e.g. ``negedge rst_n``) trigger their blocks,
3. the preponed (pre-clock-edge) values are sampled into the trace --
   these are the values concurrent assertions observe, and the only ones
   the trace keeps,
4. the active clock edge triggers every clocked block, non-blocking
   updates are committed simultaneously, and combinational logic settles
   again; the settled state is readable through ``value()`` / ``peek()``
   until the next cycle.

This two-phase scheme reproduces the scheduling behaviour that matters for
the designs and assertions in this project without a full event queue.

:class:`InterpSimulator` implements it by walking the AST.  It is the
differential oracle of the compiled backend
(:class:`~repro.sim.compile.CompiledSimulator`), which is the only
simulator production builds: every design
:func:`~repro.hdl.lint.compile_source` accepts lowers there.  The
differential tests construct both classes directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, ProceduralBlock
from repro.sim.evaluator import EvalError, Evaluator
from repro.sim.executor import ExecutionError, StatementExecutor
from repro.sim.stimulus import detect_clock
from repro.sim.trace import Trace, TraceSample
from repro.sim.values import LogicValue

_MAX_SETTLE_ITERATIONS = 64


class SimulationError(Exception):
    """Raised when the design cannot be simulated (e.g. combinational loop)."""


@dataclass
class SimulatorOptions:
    """Behavioural knobs for the simulator."""

    x_initial_state: bool = False  # initialise registers to x instead of 0


def clock_nets(design: ElaboratedDesign, clock: str) -> frozenset[str]:
    """``clock`` and every signal tied to it by continuous identifier copies.

    A flattened instance receives its clock port as ``assign u1__clk = clk;``,
    so ``u1__clk`` is the same net as ``clk`` (and as ``u0__clk``, which
    :func:`detect_clock` may have picked): a block clocked on any of these
    fires on the clock's edge, not as an asynchronous trigger.
    """
    copies: dict[str, set[str]] = {}
    for assign in design.continuous_assigns:
        target, value = assign.target, assign.value
        if isinstance(target, ast.Identifier) and isinstance(value, ast.Identifier):
            copies.setdefault(target.name, set()).add(value.name)
            copies.setdefault(value.name, set()).add(target.name)
    nets = {clock}
    frontier = [clock]
    while frontier:
        for name in copies.get(frontier.pop(), ()):
            if name not in nets:
                nets.add(name)
                frontier.append(name)
    return frozenset(nets)


class InterpSimulator:
    """Tree-walking cycle-based simulator for one elaborated design.

    This is the reference backend: it re-evaluates the AST directly and is
    the oracle for differential testing (`tests/test_backend_differential`);
    production simulates with :class:`~repro.sim.compile.CompiledSimulator`.
    """

    def __init__(self, design: ElaboratedDesign, options: Optional[SimulatorOptions] = None):
        self._design = design
        self._options = options or SimulatorOptions()
        self._clock = detect_clock(design)
        self._clocks = clock_nets(design, self._clock)
        self._env: dict[str, LogicValue] = {}
        self._previous_env: dict[str, LogicValue] = {}
        self._trace = Trace(signals=sorted(design.signals))
        self._cycle = 0
        self._initialise_state()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @property
    def design(self) -> ElaboratedDesign:
        return self._design

    @property
    def clock(self) -> str:
        return self._clock

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def cycle(self) -> int:
        return self._cycle

    def value(self, name: str) -> LogicValue:
        """Current (post-edge, settled) value of a signal."""
        try:
            return self._env[name]
        except KeyError as exc:
            raise SimulationError(f"unknown signal '{name}'") from exc

    def peek(self, name: str) -> Optional[int]:
        """Current value as an int, or ``None`` when unknown."""
        value = self.value(name)
        return None if value.has_unknown else value.to_int()

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> TraceSample:
        """Simulate one full clock cycle with the given input values.

        Args:
            inputs: mapping of input-port names to integer values for this
                cycle.  Unspecified inputs keep their previous value.

        Returns:
            The :class:`TraceSample` recorded for this cycle.
        """
        self._previous_env = dict(self._env)
        self._apply_inputs(inputs or {})
        self._settle()
        self._fire_async_edges()
        sample = TraceSample(cycle=self._cycle, pre_edge=dict(self._env))
        self._fire_clock_edge()
        self._settle()
        self._trace.append(sample)
        self._cycle += 1
        return sample

    def run(self, stimulus: list[Mapping[str, int]]) -> Trace:
        """Run one :meth:`step` per entry of ``stimulus`` and return the trace."""
        for inputs in stimulus:
            self.step(inputs)
        return self._trace

    # ------------------------------------------------------------------ #
    # initialisation
    # ------------------------------------------------------------------ #

    def _initialise_state(self) -> None:
        for signal in self._design.signals.values():
            if self._options.x_initial_state and not signal.is_input:
                self._env[signal.name] = LogicValue.unknown(signal.width)
            else:
                self._env[signal.name] = LogicValue.from_int(0, signal.width)
        if self._clock not in self._env:
            self._env[self._clock] = LogicValue.from_int(0, 1)
        for initial in self._design.initial_blocks:
            executor = StatementExecutor(self._design, self._env)
            try:
                result = executor.run(initial.body)
            except ExecutionError as exc:
                raise SimulationError(str(exc)) from exc
            self._env.update(result.nonblocking_updates)
        self._previous_env = dict(self._env)
        self._settle()

    # ------------------------------------------------------------------ #
    # simulation phases
    # ------------------------------------------------------------------ #

    def _apply_inputs(self, inputs: Mapping[str, int]) -> None:
        for name, value in inputs.items():
            signal = self._design.signals.get(name)
            if signal is None:
                raise SimulationError(f"unknown input signal '{name}'")
            if isinstance(value, LogicValue):
                self._env[name] = value.resized(signal.width)
            else:
                self._env[name] = LogicValue.from_int(int(value), signal.width)

    def _settle(self) -> None:
        """Iterate combinational logic to a fixed point."""
        for _ in range(_MAX_SETTLE_ITERATIONS):
            changed = False
            evaluator = Evaluator(self._env, self._design.parameters)
            for assign in self._design.continuous_assigns:
                try:
                    value = evaluator.evaluate(assign.value)
                except EvalError as exc:
                    raise SimulationError(f"line {assign.line}: {exc}") from exc
                changed |= self._write_continuous(assign.target, value)
            for block in self._design.comb_blocks:
                executor = StatementExecutor(self._design, dict(self._env))
                try:
                    result = executor.run(block.body)
                except ExecutionError as exc:
                    raise SimulationError(str(exc)) from exc
                updates = dict(result.blocking_updates)
                updates.update(result.nonblocking_updates)
                for name, value in updates.items():
                    signal = self._design.signals.get(name)
                    resized = value.resized(signal.width) if signal else value
                    if not self._env.get(name, resized).equals(resized):
                        changed = True
                    self._env[name] = resized
            if not changed:
                return
        raise SimulationError(
            "combinational logic did not settle (possible combinational loop)"
        )

    def _write_continuous(self, target: ast.Expression, value: LogicValue) -> bool:
        executor = StatementExecutor(self._design, self._env)
        updates = executor.expand_target(target, value)
        changed = False
        for name, new_value in updates:
            signal = self._design.signals.get(name)
            resized = new_value.resized(signal.width) if signal else new_value
            if not self._env.get(name, resized).equals(resized):
                changed = True
            self._env[name] = resized
        return changed

    def _fire_async_edges(self) -> None:
        """Run clocked blocks whose non-clock (async) edge just occurred."""
        triggered: list[ProceduralBlock] = []
        for block in self._design.seq_blocks:
            for item in block.clock_edges():
                if item.signal in self._clocks:
                    continue
                if self._edge_occurred(item.signal, item.edge):
                    triggered.append(block)
                    break
        if triggered:
            self._run_blocks(triggered)
            self._settle()

    def _fire_clock_edge(self) -> None:
        """Run every block sensitive to the active edge of the clock.

        The pulse drives the clock's bit 0 at the clock's own width, so a
        multi-bit clock keeps its width in the trace.
        """
        width = self._env[self._clock].width
        self._env[self._clock] = LogicValue.from_int(1, width)
        triggered = [
            block
            for block in self._design.seq_blocks
            if any(
                item.signal in self._clocks and item.edge == "posedge"
                for item in block.clock_edges()
            )
        ]
        # Blocks clocked on negedge of the clock fire "half a cycle later";
        # for cycle-level behaviour we run them after the posedge blocks.
        negedge_blocks = [
            block
            for block in self._design.seq_blocks
            if any(
                item.signal in self._clocks and item.edge == "negedge"
                for item in block.clock_edges()
            )
        ]
        self._run_blocks(triggered)
        if negedge_blocks:
            self._settle()
            self._run_blocks(negedge_blocks)
        self._env[self._clock] = LogicValue.from_int(0, width)

    def _run_blocks(self, blocks: list[ProceduralBlock]) -> None:
        """Execute blocks against the pre-edge state; commit NBAs together."""
        nonblocking: dict[str, LogicValue] = {}
        base_env = dict(self._env)
        for block in blocks:
            executor = StatementExecutor(self._design, dict(base_env))
            try:
                result = executor.run(block.body)
            except ExecutionError as exc:
                raise SimulationError(str(exc)) from exc
            for name, value in result.blocking_updates.items():
                signal = self._design.signals.get(name)
                self._env[name] = value.resized(signal.width) if signal else value
            nonblocking.update(result.nonblocking_updates)
        for name, value in nonblocking.items():
            signal = self._design.signals.get(name)
            self._env[name] = value.resized(signal.width) if signal else value

    def _edge_occurred(self, signal: str, edge: str) -> bool:
        previous = self._previous_env.get(signal)
        current = self._env.get(signal)
        if previous is None or current is None:
            return False
        if previous.has_unknown or current.has_unknown:
            return False
        before = previous.to_int() & 1
        after = current.to_int() & 1
        if edge == "negedge":
            return before == 1 and after == 0
        return before == 0 and after == 1

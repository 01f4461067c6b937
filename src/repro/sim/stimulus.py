"""Stimulus generation for simulation-based assertion checking.

The data-augmentation pipeline and the solution verifier both need input
vectors that (a) respect the design's reset protocol and (b) exercise enough
of the input space to trigger assertion failures when a bug is present.
This module provides deterministic, seedable random stimulus plus a set of
directed corner patterns (all-zeros, all-ones, walking ones, toggling
valid/enable style controls).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.hdl.elaborate import ElaboratedDesign, Signal

#: Names treated as reset signals (active level inferred from the name).
_RESET_NAMES = ("rst_n", "resetn", "rstn", "rst_ni", "rst", "reset", "rst_i")

#: Names treated as clocks and therefore never driven by stimulus directly.
_CLOCK_NAMES = ("clk", "clock", "clk_i")

#: Cycles reset is held active at the head of every generated stimulus.
RESET_CYCLES = 2


@dataclass
class Stimulus:
    """A sequence of per-cycle input assignments."""

    vectors: list[dict[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, index: int) -> dict[str, int]:
        return self.vectors[index]


def reset_signal_of(design: ElaboratedDesign) -> Optional[Signal]:
    """Find the design's reset input, if any."""
    for name in _RESET_NAMES:
        signal = design.signals.get(name)
        if signal is not None and signal.is_input:
            return signal
    return None


def detect_clock(design: ElaboratedDesign) -> str:
    """Pick the design's clock: sequential/assertion clocks first, then by name."""
    candidates = design.clock_candidates()
    if candidates:
        return candidates[0]
    for preferred in _CLOCK_NAMES:
        if preferred in design.signals:
            return preferred
    # Purely combinational design: synthesise a virtual clock.
    return "__virtual_clock"


def is_active_low_reset(name: str) -> bool:
    """Heuristic: names ending in ``n`` (rst_n, resetn...) are active-low."""
    stripped = name.lower().rstrip("i_")
    return stripped.endswith("n")


def data_inputs_of(design: ElaboratedDesign) -> list[Signal]:
    """Input ports excluding clock and reset."""
    excluded = {*_CLOCK_NAMES, *_RESET_NAMES, detect_clock(design)}
    return [s for s in design.inputs if s.name not in excluded]


def reset_sequence(design: ElaboratedDesign, cycles: int = RESET_CYCLES) -> Stimulus:
    """Hold reset active for ``cycles`` cycles, then release it."""
    reset = reset_signal_of(design)
    vectors: list[dict[str, int]] = []
    for index in range(cycles + 1):
        vector: dict[str, int] = {s.name: 0 for s in data_inputs_of(design)}
        if reset is not None:
            active = 0 if is_active_low_reset(reset.name) else 1
            inactive = 1 - active
            vector[reset.name] = active if index < cycles else inactive
        vectors.append(vector)
    return Stimulus(vectors=vectors)


class StimulusGenerator:
    """Seedable generator of random and directed stimulus."""

    def __init__(self, design: ElaboratedDesign, seed: int = 0):
        self._design = design
        self._random = random.Random(seed)
        self._reset = reset_signal_of(design)
        self._data_inputs = data_inputs_of(design)

    # ------------------------------------------------------------------ #
    # random stimulus
    # ------------------------------------------------------------------ #

    def random_vector(self, control_bias: float = 0.7) -> dict[str, int]:
        """One random input vector.

        Single-bit control-like inputs are biased towards 1 with probability
        ``control_bias`` so that enables/valids actually fire often enough to
        exercise the datapath and its assertions.
        """
        vector: dict[str, int] = {}
        for signal in self._data_inputs:
            if signal.width == 1:
                vector[signal.name] = int(self._random.random() < control_bias)
            else:
                vector[signal.name] = self._random.getrandbits(signal.width)
        if self._reset is not None:
            vector[self._reset.name] = 1 if is_active_low_reset(self._reset.name) else 0
        return vector

    def random_stimulus(self, cycles: int, reset_cycles: int = RESET_CYCLES) -> Stimulus:
        """Reset followed by ``cycles`` random vectors."""
        stimulus = reset_sequence(self._design, cycles=reset_cycles)
        for _ in range(cycles):
            stimulus.vectors.append(self.random_vector())
        return stimulus

    # ------------------------------------------------------------------ #
    # directed stimulus
    # ------------------------------------------------------------------ #

    def directed_patterns(self) -> Iterable[dict[str, int]]:
        """Corner-case vectors: all zeros, all ones, walking ones on data buses."""
        zeros = {s.name: 0 for s in self._data_inputs}
        ones = {s.name: (1 << s.width) - 1 for s in self._data_inputs}
        yield self._with_reset_inactive(zeros)
        yield self._with_reset_inactive(ones)
        wide_inputs = [s for s in self._data_inputs if s.width > 1]
        for signal in wide_inputs:
            for bit in range(min(signal.width, 8)):
                vector = dict(zeros)
                vector[signal.name] = 1 << bit
                for control in self._data_inputs:
                    if control.width == 1:
                        vector[control.name] = 1
                yield self._with_reset_inactive(vector)

    def directed_stimulus(self, reset_cycles: int = RESET_CYCLES) -> Stimulus:
        """Reset followed by every directed corner pattern."""
        stimulus = reset_sequence(self._design, cycles=reset_cycles)
        stimulus.vectors.extend(self.directed_patterns())
        return stimulus

    def mixed_stimulus(
        self, random_cycles: int = 40, reset_cycles: int = RESET_CYCLES
    ) -> Stimulus:
        """Reset, directed corners, then random traffic; plus a mid-run reset pulse."""
        stimulus = self.directed_stimulus(reset_cycles=reset_cycles)
        for _ in range(random_cycles):
            stimulus.vectors.append(self.random_vector())
        if self._reset is not None:
            # A mid-run reset pulse exercises the asynchronous reset paths.
            active = 0 if is_active_low_reset(self._reset.name) else 1
            pulse = self.random_vector()
            pulse[self._reset.name] = active
            stimulus.vectors.append(pulse)
            for _ in range(random_cycles // 4):
                stimulus.vectors.append(self.random_vector())
        return stimulus

    def _with_reset_inactive(self, vector: dict[str, int]) -> dict[str, int]:
        vector = dict(vector)
        if self._reset is not None:
            vector[self._reset.name] = 1 if is_active_low_reset(self._reset.name) else 0
        return vector

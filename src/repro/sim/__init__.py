"""Cycle-accurate RTL simulation substrate.

The simulator executes elaborated designs (:class:`repro.hdl.ElaboratedDesign`)
cycle by cycle with 4-state values, records the values sampled at each clock
edge (the preponed samples the SVA checker reads) as a trace, and provides
stimulus generation (reset protocol, random and directed vectors).
:class:`CompiledSimulator` runs every design the front end accepts;
:class:`InterpSimulator` is its tree-walking differential oracle.
Together with :mod:`repro.sva` it plays the role of the simulation half of the
paper's EDA-tool validation loop.
"""

from repro.sim.values import LogicValue, X, ZERO, ONE
from repro.sim.evaluator import Evaluator, EvalError
from repro.sim.engine import InterpSimulator, SimulationError, SimulatorOptions
from repro.sim.compile import CompiledSimulator, CompileError, compile_design
from repro.sim.stimulus import Stimulus, StimulusGenerator, reset_sequence
from repro.sim.trace import DiffTrace, Trace, TraceSample

__all__ = [
    "LogicValue",
    "X",
    "ZERO",
    "ONE",
    "Evaluator",
    "EvalError",
    "SimulatorOptions",
    "InterpSimulator",
    "CompiledSimulator",
    "CompileError",
    "compile_design",
    "SimulationError",
    "Stimulus",
    "StimulusGenerator",
    "reset_sequence",
    "Trace",
    "DiffTrace",
    "TraceSample",
]

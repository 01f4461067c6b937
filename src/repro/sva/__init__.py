"""SystemVerilog Assertion (SVA) support.

Property/sequence syntax is parsed by :mod:`repro.hdl`; this package provides
everything that happens *after* parsing:

* :mod:`repro.sva.checker` -- evaluate concurrent assertions over simulation
  traces (preponed sampling, ``disable iff``, ``##N`` delays, ``|->``/``|=>``,
  sampled-value functions).  The tree-walking :class:`AssertionChecker` is
  the reference backend / differential oracle; the :func:`CheckerBackend`
  factory dispatches to the compiled backend by default.
* :mod:`repro.sva.compile` -- the compiled checking backend: two engines,
  the attempt tensor and, per assertion it cannot lower, the tree-walking
  oracle.
* :mod:`repro.sva.vector` -- the attempt tensor's lowering: element
  booleans and sampled-value series as whole-trace numpy array expressions
  over the columnar trace view (``Trace.columns()``), and every attempt of
  every trace resolved in one pass over (trace x start cycle) masks.
* :mod:`repro.sva.logs` -- format assertion-failure logs in the style the
  paper's dataset records ("failed assertion <module>.<name>").
* :mod:`repro.sva.generator` -- mine candidate assertions from a golden
  design (the reproduction's substitute for Claude-3.5's SVA generation);
  the mined assertions are validated by the pipeline exactly as in the paper.
"""

from repro.sva.checker import (
    AssertionChecker,
    AssertionFailure,
    AssertionOutcome,
    CheckerBackend,
    CheckReport,
    check_assertions,
    infer_expression_width,
    sampled_past_depth,
)
from repro.sva.logs import format_failure_log, parse_failure_log
from repro.sva.generator import AssertionMiner, MinedAssertion, mine_assertions

__all__ = [
    "AssertionChecker",
    "AssertionFailure",
    "AssertionOutcome",
    "CheckerBackend",
    "CheckReport",
    "check_assertions",
    "infer_expression_width",
    "sampled_past_depth",
    "format_failure_log",
    "parse_failure_log",
    "AssertionMiner",
    "MinedAssertion",
    "mine_assertions",
]

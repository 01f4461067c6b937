"""repro.analyze -- static analysis over elaborated designs.

Two layers:

* :mod:`repro.analyze.passes` -- the compile-gate lint passes
  (:func:`repro.hdl.lint.lint_design` delegates here), one ordered tuple
  run by :func:`~repro.analyze.passes.run_passes`.
* :mod:`repro.analyze.dfg` -- a signal-level dataflow graph per design
  (def/use chains, per-signal drivers, fan-in cones, combinational
  cycle detection), cached per source text through
  :meth:`repro.artifacts.ArtifactStore.dataflow`.  No production path
  reads it; it stays as a library surface and a benchmark probe target.
"""

from repro.analyze.dfg import DfgNode, SignalDfg, build_dfg
from repro.analyze.passes import LINT_PASSES, run_passes

__all__ = [
    "LINT_PASSES",
    "DfgNode",
    "SignalDfg",
    "build_dfg",
    "run_passes",
]

"""repro.analyze -- static analysis over elaborated designs.

Two layers:

* :mod:`repro.analyze.dfg` -- a signal-level dataflow graph per design
  (def/use chains, per-signal drivers, fan-in cones, combinational
  cycle detection), cached per source text through
  :meth:`repro.artifacts.ArtifactStore.dataflow`.
* :mod:`repro.analyze.passes` -- the pluggable pass framework.  The
  ``lint``-tier passes are the compile gate (:func:`repro.hdl.lint.lint_design`
  delegates here); the analysis-tier passes are advisory diagnostics.

``python -m repro.analyze <file.v>`` prints a per-design lint + cone report.
"""

from repro.analyze.dfg import DfgNode, SignalDfg, build_dfg
from repro.analyze.passes import (
    AnalysisContext,
    AnalysisPass,
    get_pass,
    lint_passes,
    register_pass,
    registered_passes,
    run_passes,
)

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "DfgNode",
    "SignalDfg",
    "build_dfg",
    "get_pass",
    "lint_passes",
    "register_pass",
    "registered_passes",
    "run_passes",
]

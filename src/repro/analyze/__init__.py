"""repro.analyze -- static analysis over elaborated designs.

Three layers:

* :mod:`repro.analyze.dfg` -- a signal-level dataflow graph per design
  (def/use chains, per-signal drivers, fan-in/fan-out cones, combinational
  cycle detection), cached content-addressed through
  :meth:`repro.artifacts.ArtifactStore.dataflow`.
* :mod:`repro.analyze.passes` -- the pluggable pass framework.  The
  ``lint``-tier passes are the compile gate (:func:`repro.hdl.lint.lint_design`
  delegates here); the analysis-tier passes are advisory diagnostics.
* :mod:`repro.analyze.cone` -- assertion cone-of-influence screening: the
  edit-impact diff (via ISSUE-8 node content keys), the sound
  :func:`~repro.analyze.cone.cone_screen` that lets the verifier return the
  base verdict without simulating.

``python -m repro.analyze <file.v>`` prints a per-design lint + cone report.
"""

from repro.analyze.dfg import DfgNode, SignalDfg, build_dfg
from repro.analyze.cone import (
    EditImpact,
    ScreenDecision,
    cone_overlap,
    cone_screen,
    edit_impact,
    union_assertion_cone,
)
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
    "EditImpact",
    "ScreenDecision",
    "SignalDfg",
    "build_dfg",
    "cone_overlap",
    "cone_screen",
    "edit_impact",
    "get_pass",
    "lint_passes",
    "register_pass",
    "registered_passes",
    "run_passes",
    "union_assertion_cone",
]

"""End-to-end repair verification and the SVA-Eval-Machine benchmark.

This package is the right-hand side of the paper's Fig. 2: a proposed repair
only counts when the patched design re-elaborates, re-simulates on *fresh*
stimulus, and clears every assertion.  The pieces:

* :mod:`repro.eval.verifier` -- the semantic verifier: apply a candidate fix,
  re-run parse -> elaborate -> compiled-simulate -> SVA-check, return a
  structured :class:`~repro.eval.verifier.RepairVerdict`;
* :mod:`repro.eval.cache` -- a content-addressed on-disk verdict cache keyed
  by (source, fix, stimulus seeds), making re-runs incremental;
* :mod:`repro.eval.executor` -- sharded fan-out over verification jobs via
  the shared :mod:`repro.runtime` executor, worker-count invariant by
  construction;
* :mod:`repro.eval.harness` -- runs a repair engine over the held-out
  ``sva_eval_machine`` split and computes pass@1 / pass@k with per-taxonomy
  and per-template-family breakdowns;
* :mod:`repro.eval.reports` -- per-case JSONL and a machine-readable summary
  JSON (schema ``repro_eval/v1``);
* ``python -m repro.eval`` -- the end-to-end CLI (pipeline -> train ->
  evaluate -> report).
"""

from repro.eval.cache import VerdictCache, verdict_key
from repro.eval.executor import VerificationJob, run_verification_jobs
from repro.eval.harness import CaseResult, EvalConfig, EvalHarness, EvalReport
from repro.eval.reports import write_reports
from repro.eval.verifier import (
    CandidateFix,
    RepairVerdict,
    SemanticVerifier,
    derive_verification_seeds,
)

__all__ = [
    "CandidateFix",
    "CaseResult",
    "EvalConfig",
    "EvalHarness",
    "EvalReport",
    "RepairVerdict",
    "SemanticVerifier",
    "VerdictCache",
    "VerificationJob",
    "derive_verification_seeds",
    "run_verification_jobs",
    "verdict_key",
    "write_reports",
]

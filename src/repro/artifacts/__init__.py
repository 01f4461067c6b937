"""Content-addressed compiled-artifact caching and incremental relowering.

``repro.artifacts`` is the layer that makes verifying a one-line mutant
cost one line's worth of lowering:

* :mod:`repro.artifacts.canon` -- canonical design rendering,
  :func:`design_fingerprint` (the content address) and per-node keys (the
  unit of incremental relowering);
* :mod:`repro.artifacts.store` -- :class:`ArtifactStore`: a bounded
  in-process LRU of elaborations and lowered simulators/checkers keyed by
  source hash and fingerprint, one :func:`default_store` per process.

:meth:`ArtifactStore.compile` (and :meth:`ArtifactStore.elaborate_source`
on top of it) is the front door from source text to a design: Stage 1,
the bug injector, Stage 2, ``RepairCase.design`` and the verifier compile
through it, so a source is parsed once per process while its
:class:`~repro.hdl.lint.CompileResult` stays in the LRU, and a one-line
edit of a cached source re-parses one module item against it.  Only
``python -m repro.analyze`` calls :func:`repro.hdl.lint.compile_source`
directly.

Consumers: :func:`repro.sva.kernel.simulate_and_check` (the elaborate ->
lower -> simulate -> check kernel shared by
:class:`repro.eval.verifier.SemanticVerifier`, which compiles each case's
buggy base once and relowers candidates incrementally, and by Stage 2's
SVA validation and mutant triage), :mod:`repro.eval.executor` (each
worker verifies through its process's store) and
:func:`repro.sva.checker.check_assertions`.
"""

from repro.artifacts.canon import (
    FINGERPRINT_VERSION,
    assertion_key,
    assign_node_key,
    block_node_key,
    design_canonical_text,
    design_fingerprint,
    initial_node_key,
)
from repro.artifacts.store import (
    DEFAULT_LRU_ENTRIES,
    ArtifactStore,
    default_store,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_LRU_ENTRIES",
    "FINGERPRINT_VERSION",
    "assertion_key",
    "assign_node_key",
    "block_node_key",
    "default_store",
    "design_canonical_text",
    "design_fingerprint",
    "initial_node_key",
]

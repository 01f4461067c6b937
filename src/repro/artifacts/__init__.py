"""Source-addressed compiled-artifact caching and incremental relowering.

``repro.artifacts`` is the layer that makes verifying a one-line mutant
cost one line's worth of parsing and lowering:

* :mod:`repro.artifacts.canon` -- per-node content keys (the unit of
  incremental relowering);
* :mod:`repro.artifacts.store` -- :class:`ArtifactStore`: a bounded
  in-process LRU with one entry per source text, holding its
  :class:`~repro.hdl.lint.CompileResult` and, built on first use, its
  lowered simulator, checker and dataflow graph; one :func:`default_store`
  per process.

:meth:`ArtifactStore.compile` (and :meth:`ArtifactStore.elaborate_source`
on top of it) is the front door from source text to a design: Stage 1,
the bug injector, Stage 2, ``RepairCase.design`` and the verifier compile
through it, so a source is parsed once per process while its entry stays
in the LRU.  A lookup may name the ``base_source`` it is a one-line edit
of: the base's parse is what the edit re-parses one module item against,
and the base's lowerings are what it relowers its dirty cone against.
Nothing outside the store calls :func:`repro.hdl.lint.compile_source`.

Consumers: :func:`repro.sva.kernel.simulate_and_check` (the elaborate ->
lower -> simulate -> check kernel shared by
:class:`repro.eval.verifier.SemanticVerifier`, which names each case's
buggy source as the base of its candidates, and by Stage 2's SVA
validation and mutant triage) and :mod:`repro.eval.executor` (each worker
verifies through its process's store).
"""

from repro.artifacts.canon import (
    assertion_key,
    assign_node_key,
    block_node_key,
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
    "assertion_key",
    "assign_node_key",
    "block_node_key",
    "default_store",
    "initial_node_key",
]

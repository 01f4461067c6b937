"""The compiled-artifact cache: a bounded in-process LRU.

Every candidate repair the verification loop judges is a one-line mutant of
a design it has already compiled, yet historically each one paid a full
parse + elaborate + lower.  :class:`ArtifactStore` removes that waste at
two levels:

* an **in-process LRU** keyed by :func:`~repro.artifacts.canon.design_fingerprint`
  holds lowered state -- :class:`~repro.sim.compile.CompiledDesign` and
  :class:`~repro.sva.compile.CompiledAssertionChecker` instances -- plus
  source-keyed :class:`~repro.hdl.lint.CompileResult` s (the base a
  one-line edit re-parses one item against).  Lowered closures are
  process-local by nature (they cannot be serialised), so the LRU is
  bounded (:data:`DEFAULT_LRU_ENTRIES`) and evicts least-recently used
  entries instead of pinning them forever;
  each process, worker processes included, has one :func:`default_store`;
* **incremental relowering**: the typed helpers accept a ``base`` artifact
  and hand it to :func:`repro.sim.compile.compile_design` /
  :class:`~repro.sva.compile.CompiledAssertionChecker`, which reuse the
  base's closures for every content-identical node and relower only the
  dirty cone.

Counters (``artifact.hits`` / ``artifact.misses`` / ``artifact.evictions``)
land in the ambient :mod:`repro.obs` registry and surface in
``python -m repro.obs summarize``.  Cache state never changes results:
incremental relowering is byte-identical to full recompilation (pinned by
``tests/test_artifacts.py``).  Tests substitute the checker a store builds
by subclassing it and overriding :meth:`ArtifactStore.checker`.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Optional

from repro.artifacts.canon import design_fingerprint
from repro.hdl.elaborate import ElaboratedDesign
from repro.hdl.lint import CompileResult
from repro.obs.metrics import get_registry, labeled
from repro.runtime.cache import content_key

#: The in-process LRU bound (entries, not bytes).
DEFAULT_LRU_ENTRIES = 128

#: Cached marker for designs the compiled simulator backend rejects, so the
#: (expensive, exception-raising) compile attempt happens once per design.
_UNCOMPILABLE = "uncompilable"


class ArtifactStore:
    """Content-addressed cache of compiled simulators, checkers and designs."""

    def __init__(self, max_entries: int = DEFAULT_LRU_ENTRIES):
        self.max_entries = max_entries
        self._lru: "OrderedDict[str, object]" = OrderedDict()
        #: Fingerprints memoised per design *object*, keyed by ``id()`` with a
        #: weakref finalizer evicting the entry when the design dies (designs
        #: are unhashable dataclasses, so WeakKeyDictionary cannot hold them;
        #: the finalizer runs before the id can be reused).  Rendering the
        #: canonical text is cheap next to lowering, but callers fingerprint
        #: the same object several times per verdict.
        self._fingerprints: dict[int, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # the generic keyed LRU
    # ------------------------------------------------------------------ #

    def get(self, key: str):
        """The cached artifact, or ``None`` on a miss (values are never None)."""
        entry = self._lru.get(key)
        if entry is None:
            self.misses += 1
            get_registry().inc("artifact.misses")
            return None
        self._lru.move_to_end(key)
        self.hits += 1
        get_registry().inc("artifact.hits")
        return entry

    def put(self, key: str, value: object) -> None:
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)
            self.evictions += 1
            get_registry().inc("artifact.evictions")

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> dict:
        """This instance's traffic counters (process-local, since creation)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._lru),
        }

    def fingerprint(self, design: ElaboratedDesign) -> str:
        """:func:`design_fingerprint`, memoised per design object."""
        key = id(design)
        cached = self._fingerprints.get(key)
        if cached is None:
            cached = design_fingerprint(design)
            self._fingerprints[key] = cached
            weakref.finalize(design, self._fingerprints.pop, key, None)
        return cached

    # ------------------------------------------------------------------ #
    # typed helpers: lowered simulators and checkers
    # ------------------------------------------------------------------ #

    def compiled_design(self, design: ElaboratedDesign, base=None):
        """The design lowered for the compiled simulator backend, via the LRU.

        Returns ``None`` when the compiled backend rejects the design (the
        rejection is cached too -- callers fall back to the interpreter
        exactly as the :func:`~repro.sim.engine.Simulator` factory would).
        ``base`` is an optional :class:`~repro.sim.compile.CompiledDesign`
        to relower incrementally against on a miss.
        """
        from repro.sim.compile import CompileError, compile_design

        key = f"sim:{self.fingerprint(design)}"
        entry = self.get(key)
        if entry is None:
            try:
                entry = compile_design(design, base=base)
            except CompileError:
                entry = _UNCOMPILABLE
            self.put(key, entry)
        return None if entry is _UNCOMPILABLE else entry

    def checker(self, design: ElaboratedDesign, base=None):
        """The compiled assertion checker for ``design``, via the LRU.

        ``base`` is an optional checker for a signal-compatible design to
        relower incrementally against on a miss; the checker ignores a base
        it cannot reuse.
        """
        from repro.sva.compile import CompiledAssertionChecker

        key = f"sva:{self.fingerprint(design)}"
        entry = self.get(key)
        if entry is None:
            entry = CompiledAssertionChecker(design, base=base)
            self.put(key, entry)
        return entry

    def dataflow(self, design: ElaboratedDesign):
        """The design's signal dataflow graph, via the LRU.

        Content-addressed like the other lowered artifacts: two designs
        with equal fingerprints share one graph, so analysis passes run with
        ``run_passes(..., store=)`` build it once per design content rather
        than once per elaboration.
        """
        from repro.analyze.dfg import SignalDfg

        key = f"dfg:{self.fingerprint(design)}"
        entry = self.get(key)
        if entry is None:
            entry = SignalDfg(design)
            self.put(key, entry)
        return entry

    # ------------------------------------------------------------------ #
    # the front door: source text to design
    # ------------------------------------------------------------------ #

    def compile(self, source: str, base_source: Optional[str] = None) -> CompileResult:
        """:func:`repro.hdl.lint.compile_source` of ``source``, via the LRU.

        Results live in the LRU keyed by the source hash (parse + elaborate
        dominates the cost of verifying a small candidate, so a warm store
        skips it entirely on repeat sources).  ``base_source`` names a
        source that ``source`` is a one-line edit of; when its result is
        still cached, it is the ``base`` the compile re-parses one item of.
        """
        # Looked up per call, so a wrapper installed on repro.hdl.lint
        # (a profiling probe, a test's counter) sees every compile.
        from repro.hdl.lint import compile_source

        source_key = f"src:{content_key(source)}"
        cached = self.get(source_key)
        if isinstance(cached, CompileResult):
            return cached
        base = None
        if base_source is not None:
            base = self.get(f"src:{content_key(base_source)}")
            if base is None:
                get_registry().inc(labeled("hdl.reparse.fallback", "base not cached"))
        result = compile_source(source, base=base)
        self.put(source_key, result)
        return result

    def elaborate_source(
        self, source: str, base_source: Optional[str] = None
    ) -> tuple[Optional[ElaboratedDesign], str]:
        """Compile Verilog text to a design, via :meth:`compile`.

        Returns ``(design, "")`` on success and ``(None, first_error)`` on a
        compile failure, with ``first_error`` the first error diagnostic,
        rendered.
        """
        result = self.compile(source, base_source)
        if result.ok and result.design is not None:
            return result.design, ""
        errors = result.errors
        return None, errors[0].render() if errors else "compilation failed"


_DEFAULT_STORE: Optional[ArtifactStore] = None


def default_store() -> ArtifactStore:
    """The process-wide store.

    Worker processes handle many jobs over their lifetime; routing them all
    through one store makes the LRU pay across jobs.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore()
    return _DEFAULT_STORE

"""The compiled-artifact cache: a bounded in-process LRU of sources.

Every candidate repair the verification loop judges is a one-line edit of
a source it has already compiled, yet historically each one paid a full
parse + elaborate + lower.  :class:`ArtifactStore` removes that waste at
two levels:

* an **in-process LRU** with one entry per source text, keyed by
  :func:`~repro.runtime.cache.content_key` of the text.  The entry holds the
  source's :class:`~repro.hdl.lint.CompileResult` and, built on first use,
  its :class:`~repro.sim.compile.CompiledDesign`, its
  :class:`~repro.sva.compile.CompiledAssertionChecker` and its
  :class:`~repro.analyze.dfg.SignalDfg`.  Lowered closures are
  process-local by nature (they cannot be serialised), so the LRU is
  bounded (:data:`DEFAULT_LRU_ENTRIES` sources) and one eviction drops a
  source's parse and lowerings together; each process, worker processes
  included, has one :func:`default_store`;
* **incremental work against a base**: every lookup may name a
  ``base_source`` the source is a one-line edit of.  The base is fetched
  through the same entry path (and compiled if absent); its parse is the
  base the compile re-parses one module item against, and its lowerings
  are the base :func:`repro.sim.compile.compile_design` and
  :class:`~repro.sva.compile.CompiledAssertionChecker` reuse every
  content-identical node of, relowering only the dirty cone.

Counters (``artifact.hits`` / ``artifact.misses`` / ``artifact.evictions``,
one per entry lookup or eviction, base lookups included, and
``artifact.recompiles``, one per miss on a source this store compiled
before and has since evicted) land in the ambient :mod:`repro.obs`
registry and surface in ``python -m repro.obs summarize``.  Cache state
never changes results: incremental relowering is byte-identical to full
recompilation (pinned by ``tests/test_artifacts.py``).
Tests substitute the checker a store builds by subclassing it and
overriding :meth:`ArtifactStore.checker`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.hdl.elaborate import ElaboratedDesign
from repro.hdl.lint import CompileResult
from repro.obs.metrics import get_registry
from repro.runtime.cache import content_key

if TYPE_CHECKING:
    from repro.analyze.dfg import SignalDfg
    from repro.sim.compile import CompiledDesign
    from repro.sva.checker import AssertionChecker
    from repro.sva.compile import CompiledAssertionChecker

#: The in-process LRU bound, in sources (each with its lowerings).
DEFAULT_LRU_ENTRIES = 64


@dataclass
class _Entry:
    """One source's parse and the lowerings built from it so far."""

    result: CompileResult
    compiled: Optional[CompiledDesign] = None
    checker: Union[CompiledAssertionChecker, AssertionChecker, None] = None
    dataflow: Optional[SignalDfg] = None

    def design(self) -> ElaboratedDesign:
        if not self.result.ok or self.result.design is None:
            raise ValueError("the source does not compile, so it has no lowering")
        return self.result.design


class ArtifactStore:
    """Source-addressed cache of parses, compiled simulators, checkers and graphs."""

    def __init__(self, max_entries: int = DEFAULT_LRU_ENTRIES) -> None:
        self.max_entries = max_entries
        self._lru: OrderedDict[str, _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.recompiles = 0
        #: Content keys of every source this store has compiled.
        self._compiled: set[str] = set()

    def _entry(self, source: str, base_source: Optional[str] = None) -> _Entry:
        """``source``'s entry, compiled (against ``base_source``'s parse) on a miss."""
        key = content_key(source)
        entry = self._lru.get(key)
        registry = get_registry()
        if entry is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            registry.inc("artifact.hits")
            return entry
        self.misses += 1
        registry.inc("artifact.misses")
        if key in self._compiled:
            self.recompiles += 1
            registry.inc("artifact.recompiles")
        else:
            self._compiled.add(key)
        base = None
        if base_source is not None and base_source != source:
            base = self._entry(base_source).result
        # Looked up per call, so a wrapper installed on repro.hdl.lint
        # (a profiling probe, a test's counter) sees every compile.
        from repro.hdl.lint import compile_source

        entry = _Entry(compile_source(source, base=base))
        self._lru[key] = entry
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)
            self.evictions += 1
            registry.inc("artifact.evictions")
        return entry

    def _lowering_base(self, source: str, base_source: Optional[str]) -> Optional[str]:
        """``base_source`` when it names another source that compiles, else None."""
        if base_source is None or base_source == source:
            return None
        return base_source if self.compile(base_source).ok else None

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> dict[str, int]:
        """This instance's traffic counters (process-local, since creation)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "recompiles": self.recompiles,
            "entries": len(self._lru),
        }

    # ------------------------------------------------------------------ #
    # the front door: source text to design
    # ------------------------------------------------------------------ #

    def compile(self, source: str, base_source: Optional[str] = None) -> CompileResult:
        """:func:`repro.hdl.lint.compile_source` of ``source``, via the LRU.

        Parse + elaborate dominates the cost of verifying a small candidate,
        so a warm store skips it entirely on repeat sources.  ``base_source``
        names a source that ``source`` is an edit of: its parse is the
        ``base`` the compile re-parses one item against (an edit that is not
        one changed line falls back to a full parse, counted under
        ``hdl.reparse.fallback``).
        """
        return self._entry(source, base_source).result

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

    # ------------------------------------------------------------------ #
    # lowerings, built on first use
    # ------------------------------------------------------------------ #

    def compiled_design(
        self, source: str, base_source: Optional[str] = None
    ) -> CompiledDesign:
        """``source``'s design lowered for the compiled simulator.

        Every design the front end accepts lowers, so this never fails for
        a source that compiles.  A first lowering relowers against
        ``base_source``'s, when that names a source that compiles.  Raises
        ``ValueError`` when ``source`` does not compile.
        """
        from repro.sim.compile import compile_design

        entry = self._entry(source, base_source)
        if entry.compiled is None:
            base_text = self._lowering_base(source, base_source)
            base = self.compiled_design(base_text) if base_text is not None else None
            entry.compiled = compile_design(entry.design(), base=base)
        return entry.compiled

    def checker(
        self, source: str, base_source: Optional[str] = None
    ) -> Union[CompiledAssertionChecker, AssertionChecker]:
        """The compiled assertion checker of ``source``'s design.

        A first lowering relowers against ``base_source``'s checker, when
        that names a source that compiles; the checker ignores a base it
        cannot reuse.  Raises ``ValueError`` when ``source`` does not
        compile.
        """
        from repro.sva.compile import CompiledAssertionChecker

        entry = self._entry(source, base_source)
        if entry.checker is None:
            base_text = self._lowering_base(source, base_source)
            base = self.checker(base_text) if base_text is not None else None
            entry.checker = CompiledAssertionChecker(
                entry.design(),
                base=base if isinstance(base, CompiledAssertionChecker) else None,
            )
        return entry.checker

    def dataflow(self, source: str) -> SignalDfg:
        """The signal dataflow graph of ``source``'s design, built once per entry.

        Raises ``ValueError`` when ``source`` does not compile.
        """
        from repro.analyze.dfg import SignalDfg

        entry = self._entry(source)
        if entry.dataflow is None:
            entry.dataflow = SignalDfg(entry.design())
        return entry.dataflow


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

"""Signal-level dataflow graph over an elaborated design.

The graph has two granularities:

* **nodes** -- one :class:`DfgNode` per continuous assign, procedural block
  and initial block, carrying its def (written) and use (read) signal sets.
  Def/use chains (:attr:`SignalDfg.defs_of` / :attr:`SignalDfg.uses_of`)
  answer "who drives / who reads signal X".
* **signals** -- a per-signal fan-in relation mirroring the elaborator's
  conservative dependency graph (condition/case context counts as a source,
  clock edges count as sources of every clocked target), plus the inverse
  fan-out relation.  :meth:`SignalDfg.fan_in_cone` is therefore identical to
  :meth:`ElaboratedDesign.cone_of_influence` and the two may be used
  interchangeably.

Two graph queries carry stronger contracts:

* :meth:`SignalDfg.assertion_cone` over-approximates every signal whose
  value can influence an assertion's verdict, so its roots include the
  assertion's clock and ``disable iff`` identifiers, not just the property
  body.
* :meth:`SignalDfg.combinational_cycles` finds every static cycle in the
  combinational subgraph (the ``comb-loop`` pass reports them); a design
  with none settles deterministically.

A store caches one graph per source text through
:meth:`repro.artifacts.ArtifactStore.dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.hdl import ast
from repro.hdl.elaborate import (
    AssertionSpec,
    ElaboratedDesign,
    _statement_dependencies,
)


@dataclass(frozen=True)
class DfgNode:
    """One driving node of the design: an assign, always or initial block."""

    kind: str  # "assign" | "comb" | "seq" | "initial"
    index: int  # position within the design's list for that kind
    line: int
    defs: frozenset[str]  # signals written by the node
    uses: frozenset[str]  # signals read by the node (incl. conditions/indices)


def _statement_reads(statement: ast.Statement) -> set[str]:
    """Every signal read anywhere inside ``statement``.

    Unlike :func:`repro.hdl.elaborate._statement_dependencies` this also
    counts reads in branches that assign nothing (e.g. ``$display`` args),
    so node use sets are an over-approximation of the dependency view.
    """
    reads: set[str] = set()
    for node in statement.walk():
        if isinstance(node, ast.Assign):
            reads |= node.value.identifiers()
            if isinstance(node.target, (ast.BitSelect, ast.PartSelect, ast.Concat)):
                reads |= node.target.identifiers() - set(ast._target_names(node.target))
        elif isinstance(node, ast.If):
            reads |= node.condition.identifiers()
        elif isinstance(node, ast.Case):
            reads |= node.subject.identifiers()
            for item in node.items:
                for label in item.labels:
                    reads |= label.identifiers()
        elif isinstance(node, ast.SystemTaskCall):
            for arg in node.args:
                reads |= arg.identifiers()
    return reads


def _assign_reads(assign: ast.ContinuousAssign) -> set[str]:
    reads = set(assign.value.identifiers())
    if isinstance(assign.target, (ast.BitSelect, ast.PartSelect, ast.Concat)):
        reads |= assign.target.identifiers() - set(ast._target_names(assign.target))
    return reads


class SignalDfg:
    """Def/use chains, fan-in cones and comb-cycle detection."""

    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self.nodes: tuple[DfgNode, ...] = tuple(self._build_nodes(design))
        defs_of: dict[str, list[DfgNode]] = {}
        uses_of: dict[str, list[DfgNode]] = {}
        for node in self.nodes:
            for name in node.defs:
                defs_of.setdefault(name, []).append(node)
            for name in node.uses:
                uses_of.setdefault(name, []).append(node)
        #: signal -> nodes that write it (its drivers)
        self.defs_of: dict[str, tuple[DfgNode, ...]] = {
            name: tuple(nodes) for name, nodes in defs_of.items()
        }
        #: signal -> nodes that read it
        self.uses_of: dict[str, tuple[DfgNode, ...]] = {
            name: tuple(nodes) for name, nodes in uses_of.items()
        }
        #: signal -> direct fan-in signals (the elaborator's dependency graph)
        self.fan_in: dict[str, frozenset[str]] = {
            name: frozenset(sources)
            for name, sources in design.dependency_graph.items()
        }
        fan_out: dict[str, set[str]] = {name: set() for name in design.signals}
        for target, sources in self.fan_in.items():
            for source in sources:
                fan_out.setdefault(source, set()).add(target)
        #: signal -> direct fan-out signals (inverse of ``fan_in``)
        self.fan_out: dict[str, frozenset[str]] = {
            name: frozenset(targets) for name, targets in fan_out.items()
        }
        # Combinational subgraph: target -> sources, restricted to targets
        # driven by continuous assigns or unclocked always blocks.
        comb_deps: dict[str, set[str]] = {}
        for assign in design.continuous_assigns:
            sources = _assign_reads(assign)
            for target in ast._target_names(assign.target):
                comb_deps.setdefault(target, set()).update(sources)
        for block in design.comb_blocks:
            for target, sources in _statement_dependencies(block.body).items():
                comb_deps.setdefault(target, set()).update(sources)
        self._comb_deps: dict[str, frozenset[str]] = {
            name: frozenset(sources) for name, sources in comb_deps.items()
        }
        self._cycles: Optional[tuple[tuple[str, ...], ...]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_nodes(design: ElaboratedDesign) -> Iterator[DfgNode]:
        for index, assign in enumerate(design.continuous_assigns):
            yield DfgNode(
                kind="assign",
                index=index,
                line=assign.line,
                defs=frozenset(ast._target_names(assign.target)),
                uses=frozenset(_assign_reads(assign)),
            )
        for kind, blocks in (("comb", design.comb_blocks), ("seq", design.seq_blocks)):
            for index, block in enumerate(blocks):
                uses = _statement_reads(block.body)
                uses |= {item.signal for item in block.sensitivity}
                yield DfgNode(
                    kind=kind,
                    index=index,
                    line=block.line,
                    defs=frozenset(ast.assignment_targets(block.body)),
                    uses=frozenset(uses),
                )
        for index, initial in enumerate(design.initial_blocks):
            yield DfgNode(
                kind="initial",
                index=index,
                line=initial.line,
                defs=frozenset(ast.assignment_targets(initial.body)),
                uses=frozenset(_statement_reads(initial.body)),
            )

    # ------------------------------------------------------------------ #
    # cone queries
    # ------------------------------------------------------------------ #

    def fan_in_cone(self, roots: Iterable[str]) -> frozenset[str]:
        """Transitive fan-in of ``roots`` (roots included when declared)."""
        return frozenset(self.design.cone_of_influence(set(roots)))

    def assertion_roots(self, spec: AssertionSpec) -> frozenset[str]:
        """Signals an assertion reads directly: body, disable-iff and clock."""
        return frozenset(spec.identifiers() | {spec.clock.signal})

    def assertion_cone(self, spec: AssertionSpec) -> frozenset[str]:
        """Transitive fan-in of everything the assertion can observe."""
        return self.fan_in_cone(self.assertion_roots(spec))

    def assertion_cones(self) -> dict[str, frozenset[str]]:
        """Cone of influence per assertion, keyed by assertion name."""
        return {spec.name: self.assertion_cone(spec) for spec in self.design.assertions}

    # ------------------------------------------------------------------ #
    # combinational loop detection
    # ------------------------------------------------------------------ #

    def combinational_cycles(self) -> tuple[tuple[str, ...], ...]:
        """Static cycles through combinational drivers, as signal paths.

        Each cycle is reported as a path ``(a, b, ..., a)`` whose first and
        last element coincide.  At least one cycle is reported for every
        cyclic region; a design with an empty result settles in bounded
        time for any input values.
        """
        if self._cycles is None:
            self._cycles = self._find_cycles()
        return self._cycles

    def _find_cycles(self) -> tuple[tuple[str, ...], ...]:
        comb_targets = set(self._comb_deps)
        graph = {
            target: sorted(s for s in sources if s in comb_targets)
            for target, sources in sorted(self._comb_deps.items())
        }
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in graph}
        cycles: list[tuple[str, ...]] = []
        seen: set[frozenset[str]] = set()
        for start in graph:
            if colour[start] != WHITE:
                continue
            path: list[str] = []
            on_path: dict[str, int] = {}
            stack: list[tuple[str, Iterator[str]]] = [(start, iter(graph[start]))]
            colour[start] = GREY
            on_path[start] = 0
            path.append(start)
            while stack:
                name, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == GREY:
                        cycle = tuple(path[on_path[child]:]) + (child,)
                        members = frozenset(cycle)
                        if members not in seen:
                            seen.add(members)
                            cycles.append(cycle)
                    elif colour[child] == WHITE:
                        colour[child] = GREY
                        on_path[child] = len(path)
                        path.append(child)
                        stack.append((child, iter(graph[child])))
                        advanced = True
                        break
                if not advanced:
                    colour[name] = BLACK
                    path.pop()
                    on_path.pop(name, None)
                    stack.pop()
        return tuple(cycles)


def build_dfg(design: ElaboratedDesign) -> SignalDfg:
    """Build a fresh (uncached) dataflow graph for ``design``."""
    return SignalDfg(design)


__all__ = ["DfgNode", "SignalDfg", "build_dfg"]

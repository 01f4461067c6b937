"""The repair-task input: spec + buggy SystemVerilog + failure logs.

A :class:`RepairCase` is what the model (and every baseline) receives at
inference time -- exactly the three ingredients of Fig. 2 (III).  The class
also caches what feature extraction reads of them (compiled design, the
asserted signals' cone of influence and dependency distances, spec
keywords) so the evaluation runner can share them across models and
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.artifacts import default_store
from repro.corpus.spec import spec_keywords
from repro.dataaug.datasets import SvaBugEntry
from repro.hdl.elaborate import AssertionSpec, ElaboratedDesign
from repro.hdl.source import SourceFile, strip_comment
from repro.sva.logs import FailureLog, parse_failure_log


@dataclass
class RepairCase:
    """One assertion-failure instance presented to a repair engine."""

    name: str
    spec: str
    buggy_source: str
    logs: str
    design_name: str = ""
    stimulus_seed: int = 0
    stimulus_cycles: int = 48
    golden_line: Optional[str] = None
    golden_line_number: Optional[int] = None
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_entry(cls, entry: SvaBugEntry) -> "RepairCase":
        """Build a case from one dataset entry (ground truth kept for scoring)."""
        return cls(
            name=entry.name,
            spec=entry.spec,
            buggy_source=entry.buggy_source,
            logs=entry.logs,
            design_name=entry.design_name,
            stimulus_seed=entry.stimulus_seed,
            stimulus_cycles=entry.stimulus_cycles,
            golden_line=entry.golden_line,
            golden_line_number=entry.line_number,
            metadata={
                "edit_kind": entry.edit_kind,
                "is_conditional": entry.is_conditional,
                "is_direct": entry.is_direct,
                "bug_type_labels": entry.bug_type_labels,
                "length_bin": entry.length_bin,
                "family": entry.family,
            },
        )

    # ------------------------------------------------------------------ #
    # cached analyses
    # ------------------------------------------------------------------ #

    @cached_property
    def content_key(self) -> tuple[str, str, str, str]:
        """What the model reads of the case: two cases with equal keys get
        equal candidate lines and features."""
        return (self.name, self.buggy_source, self.logs, self.spec)

    @cached_property
    def source_file(self) -> SourceFile:
        return SourceFile(self.buggy_source)

    @cached_property
    def design(self) -> Optional[ElaboratedDesign]:
        """The elaborated buggy design, or ``None`` when it does not compile.

        Elaborated through the process-wide artifact store, so the verifier
        judging this case's candidates reuses it instead of parsing again.
        """
        return default_store().elaborate_source(self.buggy_source)[0]

    @cached_property
    def failure_log(self) -> FailureLog:
        return parse_failure_log(self.logs)

    @cached_property
    def failing_assertions(self) -> list[AssertionSpec]:
        """Assertion specs named in the failure log (resolved in the design)."""
        design = self.design
        if design is None:
            return []
        failing_names = set(self.failure_log.failed_assertions)
        return [spec for spec in design.assertions if spec.name in failing_names]

    @cached_property
    def asserted_signals(self) -> set[str]:
        """Signals referenced by the failing assertions."""
        signals: set[str] = set()
        for spec in self.failing_assertions:
            signals |= spec.identifiers()
        if not signals and self.design is not None:
            for spec in self.design.assertions:
                signals |= spec.identifiers()
        return signals

    @cached_property
    def asserted_distance(self) -> dict[str, int]:
        """signal -> dependency distance back to the nearest asserted signal.

        Breadth-first search backwards (along fan-in) from the asserted
        signals of the buggy design; asserted signals are at distance 0 and
        signals outside their fan-in are absent.
        """
        design = self.design
        if design is None:
            return {}
        graph = design.dependency_graph
        distance = {name: 0 for name in self.asserted_signals if name in graph}
        frontier = list(distance)
        while frontier:
            next_frontier = []
            for name in frontier:
                for dep in graph.get(name, ()):  # fan-in
                    if dep not in distance:
                        distance[dep] = distance[name] + 1
                        next_frontier.append(dep)
            frontier = next_frontier
        return distance

    @cached_property
    def cone_signals(self) -> set[str]:
        """Cone of influence (transitive fan-in) of the asserted signals."""
        design = self.design
        if design is None:
            return set()
        return design.cone_of_influence(self.asserted_signals)

    @cached_property
    def spec_tokens(self) -> set[str]:
        return spec_keywords(self.spec)

    @cached_property
    def code_line_numbers(self) -> list[int]:
        return self.source_file.code_line_numbers()

    @cached_property
    def normalised_code_lines(self) -> frozenset[str]:
        """Every code line of the buggy source, comment dropped and runs of
        whitespace collapsed to one space."""
        lines = self.source_file.lines
        return frozenset(
            " ".join(strip_comment(lines[number - 1]).strip().split())
            for number in self.code_line_numbers
        )

    @property
    def assigned_by_line(self) -> dict[int, list[str]]:
        """line number -> signals assigned on that line (from the elaborated design)."""
        design = self.design
        return design.assigned_by_line if design is not None else {}

    @cached_property
    def assertion_region_lines(self) -> set[int]:
        """Lines belonging to property/assert constructs (never repair targets)."""
        region: set[int] = set()
        inside = False
        for number, line in enumerate(self.source_file.lines, start=1):
            stripped = strip_comment(line).strip().lower()
            if stripped.startswith("property"):
                inside = True
            if inside:
                region.add(number)
            if stripped.startswith("endproperty"):
                inside = False
            if "assert property" in stripped or stripped.startswith(("assert", "assume", "cover")):
                region.add(number)
        return region

    # ------------------------------------------------------------------ #
    # candidate lines for repair
    # ------------------------------------------------------------------ #

    def candidate_lines(self) -> list[int]:
        """Functional lines a repair could plausibly target."""
        structural_prefixes = (
            "module",
            "endmodule",
            "begin",
            "end",
            "endcase",
            ");",
            "(",
        )
        candidates: list[int] = []
        for number in self.code_line_numbers:
            if number in self.assertion_region_lines:
                continue
            stripped = strip_comment(self.source_file.line(number)).strip().lower()
            if not stripped:
                continue
            if any(stripped.startswith(prefix) for prefix in structural_prefixes):
                continue
            candidates.append(number)
        return candidates

    def line_text(self, number: int) -> str:
        return self.source_file.line(number)

    @cached_property
    def in_scope_signals(self) -> tuple[str, ...]:
        """The buggy design's signals, sorted by name."""
        design = self.design
        if design is None:
            return ()
        return tuple(sorted(design.signals))

"""Bug injection into golden designs.

The injector enumerates functional source lines of a design (declarations,
port lists and assertion regions are excluded), applies the mutation
operators of :mod:`repro.bugs.mutators`, and keeps only mutants that still
compile -- mirroring Stage 2 of the paper's pipeline, which uses the compiler
to "identify and eliminate syntax errors introduced during the random bug
generation process".  Whether a surviving mutant actually triggers an
assertion failure is decided later by the validation stage.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from repro.artifacts import default_store
from repro.bugs.instance import BugInstance
from repro.bugs.mutators import MutationCandidate, enumerate_mutations
from repro.hdl.elaborate import ElaboratedDesign
from repro.hdl.source import SourceFile, strip_comment


@dataclass
class InjectionConfig:
    """Controls how many mutants are produced per design."""

    seed: int = 7
    max_bugs_per_design: int = 6


#: Most mutants accepted from any one source line.
MAX_CANDIDATES_PER_LINE = 3

#: line prefixes that never receive bugs (structure, declarations, assertions).
_EXCLUDED_PREFIXES = (
    "module",
    "endmodule",
    "input",
    "output",
    "inout",
    "wire",
    "reg",
    "logic",
    "integer",
    "parameter",
    "localparam",
    "property",
    "endproperty",
    "assert",
    "assume",
    "cover",
    "begin",
    "end",
    "endcase",
    ");",
)

_ASSIGN_TARGET = re.compile(r"^\s*(?:assign\s+)?([A-Za-z_][\w]*)\s*(?:\[[^\]]*\])?\s*<?=")


class BugInjector:
    """Produces compiling single-line mutants of a golden design."""

    def __init__(self, config: Optional[InjectionConfig] = None):
        self._config = config or InjectionConfig()
        self._random = random.Random(self._config.seed)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def inject(
        self,
        design_name: str,
        golden_source: str,
        design: Optional[ElaboratedDesign] = None,
    ) -> list[BugInstance]:
        """Generate up to ``max_bugs_per_design`` bug instances for one design."""
        source_file = SourceFile(golden_source)
        signal_names = sorted(design.signals) if design is not None else []
        assigned_by_line = design.assigned_by_line if design is not None else {}
        candidate_lines = self.mutable_lines(golden_source)
        self._random.shuffle(candidate_lines)
        instances: list[BugInstance] = []
        for line_number in candidate_lines:
            if len(instances) >= self._config.max_bugs_per_design:
                break
            golden_line = source_file.line(line_number)
            scope = self._scope_for_line(golden_line, signal_names)
            mutations = enumerate_mutations(golden_line, scope)
            self._random.shuffle(mutations)
            accepted = 0
            for mutation in mutations:
                if accepted >= MAX_CANDIDATES_PER_LINE:
                    break
                if len(instances) >= self._config.max_bugs_per_design:
                    break
                instance = self._materialise(
                    design_name,
                    source_file,
                    line_number,
                    golden_line,
                    mutation,
                    assigned_by_line.get(line_number, []),
                )
                if instance is not None:
                    instances.append(instance)
                    accepted += 1
        return instances

    def mutable_lines(self, source: str) -> list[int]:
        """1-based numbers of lines eligible for mutation."""
        source_file = SourceFile(source)
        in_property = False
        eligible: list[int] = []
        for number in source_file.code_line_numbers():
            stripped = strip_comment(source_file.line(number)).strip()
            lowered = stripped.lower()
            if lowered.startswith("property"):
                in_property = True
            if lowered.startswith("endproperty"):
                in_property = False
                continue
            if in_property:
                continue
            if any(lowered.startswith(prefix) for prefix in _EXCLUDED_PREFIXES):
                # `assign` statements are functional even though `wire`/`reg` are not.
                if not lowered.startswith("assign"):
                    continue
            if lowered.endswith(":") or "assert property" in lowered:
                continue
            if "=" in stripped or lowered.startswith(("if", "else", "case", "casez", "casex")):
                eligible.append(number)
        return eligible

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _scope_for_line(self, line: str, signal_names: list[str]) -> list[str]:
        """In-scope replacement signals, shuffled, current line's names first removed."""
        scope = [name for name in signal_names if "__" not in name]
        self._random.shuffle(scope)
        return scope[:12]

    def _materialise(
        self,
        design_name: str,
        source_file: SourceFile,
        line_number: int,
        golden_line: str,
        mutation: MutationCandidate,
        elaborated_targets: Optional[list[str]] = None,
    ) -> Optional[BugInstance]:
        buggy_source = source_file.with_line_replaced(line_number, mutation.buggy_line).text
        # Through the process-wide store: the elaboration stays in its LRU,
        # so the validation stage simulating this mutant does not parse it
        # again, and the golden's cached parse lets it re-parse one item.
        design, _ = default_store().elaborate_source(buggy_source, base_source=source_file.text)
        if design is None:
            return None
        assigned = list(elaborated_targets) if elaborated_targets else self._assigned_signals(golden_line)
        return BugInstance(
            design_name=design_name,
            golden_source=source_file.text,
            buggy_source=buggy_source,
            line_number=line_number,
            golden_line=golden_line,
            buggy_line=mutation.buggy_line,
            mutation_name=mutation.mutation_name,
            edit_kind=mutation.edit_kind,
            is_conditional=self._is_conditional(golden_line, mutation),
            assigned_signals=assigned,
            description=mutation.description,
        )

    @staticmethod
    def _assigned_signals(line: str) -> list[str]:
        match = _ASSIGN_TARGET.match(strip_comment(line))
        if match:
            return [match.group(1)]
        return []

    @staticmethod
    def _is_conditional(line: str, mutation: MutationCandidate) -> bool:
        """True when the edit touches the *condition* of a conditional statement.

        A bug on the right-hand side of an assignment that merely sits under an
        ``if`` is not a Cond bug (Table I calls those Non_cond); only edits to
        the condition expression itself, to case selectors/labels, or to
        structural conditional lines count.
        """
        if mutation.mutation_name.startswith("cond_"):
            return True
        golden = strip_comment(line)
        buggy = strip_comment(mutation.buggy_line)
        diff_index = _first_difference(golden, buggy)
        if diff_index is None:
            return False
        lowered = golden.strip().lower()
        if lowered.startswith(("case", "casez", "casex")):
            return True
        for keyword in ("if",):
            for match in re.finditer(rf"\b{keyword}\b", golden):
                open_paren = golden.find("(", match.end())
                if open_paren < 0:
                    continue
                close_paren = _matching_paren(golden, open_paren)
                if close_paren is not None and open_paren <= diff_index <= close_paren:
                    return True
        # A case label such as "2'd1:" at the start of the line is a conditional edit.
        label_match = re.match(r"\s*[^:=]+:", golden)
        if label_match and "::" not in golden and "<=" not in golden[: label_match.end()]:
            if diff_index < label_match.end() and not lowered.startswith(("assign",)):
                return True
        return False


def _first_difference(left: str, right: str) -> Optional[int]:
    """Index of the first differing character between two strings (None if equal)."""
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index
    if len(left) != len(right):
        return min(len(left), len(right))
    return None


def _matching_paren(text: str, open_index: int) -> Optional[int]:
    """Index of the parenthesis matching ``text[open_index]``."""
    depth = 0
    for index in range(open_index, len(text)):
        if text[index] == "(":
            depth += 1
        elif text[index] == ")":
            depth -= 1
            if depth == 0:
                return index
    return None

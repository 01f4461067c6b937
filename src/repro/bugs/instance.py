"""The record describing one injected bug."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class BugInstance:
    """One buggy variant of a golden design.

    Attributes:
        design_name: module name of the design the bug lives in.
        golden_source: the correct source.
        buggy_source: the source with exactly one line changed.
        line_number: 1-based number of the changed line.
        golden_line: the original (correct) line text.
        buggy_line: the mutated line text.
        mutation_name: identifier of the mutation operator used.
        edit_kind: ``"op"`` | ``"value"`` | ``"var"`` | ``"noncond"`` (free-form edits).
        is_conditional: True when the edit touches a conditional statement.
        assigned_signals: signals assigned on the mutated line (empty for pure
            condition edits).
        failing_assertions: names of assertions observed to fail (filled in by
            the validation stage).
        is_direct: True when an assigned signal appears directly in a failing
            assertion (filled in by the validation stage).
        description: human-readable summary of the mutation.
    """

    design_name: str
    golden_source: str
    buggy_source: str
    line_number: int
    golden_line: str
    buggy_line: str
    mutation_name: str
    edit_kind: str
    is_conditional: bool
    assigned_signals: list[str] = field(default_factory=list)
    failing_assertions: list[str] = field(default_factory=list)
    is_direct: Optional[bool] = None
    description: str = ""

"""Repair responses and the engine interface the evaluation drives.

:class:`RepairEngine` is what the harness and challenging-case mining call:
given a :class:`~repro.model.case.RepairCase`, an engine samples responses
(:meth:`~RepairEngine.propose`) or ranks its best distinct ones
(:meth:`~RepairEngine.propose_topk`), each a :class:`RepairResponse` -- the
JSON-shaped output of Fig. 2 (III).  The one implementation is
:class:`~repro.model.assertsolver_model.AssertSolverModel`, at any training
stage (base, SFT, DPO).
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field

from repro.hdl.source import normalize_line
from repro.model.case import RepairCase


def candidate_key(line_number: int, fixed_line: str) -> str:
    """Canonical identity of one candidate repair (line + normalised rewrite).

    Shared by every dedup site (top-k ranking, exact enumeration,
    challenging-case mining) so `y<=a|b;` and `y <= a | b;` always count as
    the same candidate.
    """
    return f"{line_number}::{normalize_line(fixed_line)}"


@dataclass
class RepairResponse:
    """One proposed repair: the JSON object the paper requires models to emit."""

    bug_line: str
    fixed_line: str
    line_number: int
    explanation: str = ""
    confidence: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to the JSON format requested at inference time."""
        return json.dumps(
            {
                "bug_line": self.bug_line.strip(),
                "fixed_line": self.fixed_line.strip(),
                "line_number": self.line_number,
                "explanation": self.explanation,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RepairResponse":
        """Parse a JSON response (raises ``ValueError`` on malformed input)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON response: {exc}") from exc
        required = ("bug_line", "fixed_line", "line_number")
        missing = [key for key in required if key not in payload]
        if missing:
            raise ValueError(f"JSON response missing fields: {', '.join(missing)}")
        return cls(
            bug_line=str(payload["bug_line"]),
            fixed_line=str(payload["fixed_line"]),
            line_number=int(payload["line_number"]),
            explanation=str(payload.get("explanation", "")),
        )


class RepairEngine(abc.ABC):
    """Interface implemented by every repair model in the evaluation."""

    #: display name used in tables and reports (e.g. "AssertSolver").
    name: str = "engine"

    @abc.abstractmethod
    def propose(
        self, case: RepairCase, samples: int = 20, temperature: float = 0.2, seed: int = 0
    ) -> list[RepairResponse]:
        """Produce ``samples`` candidate repairs for one case."""

    @abc.abstractmethod
    def propose_topk(
        self, case: RepairCase, k: int = 5, temperature: float = 0.2
    ) -> list[RepairResponse]:
        """Up to ``k`` *distinct* candidate repairs, best first (the pass@k ranking)."""

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

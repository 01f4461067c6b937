"""The AssertSolver model: the trained repair engine with its three stages.

``AssertSolverModel`` wraps one :class:`~repro.model.policy.RepairPolicy` and
exposes the paper's training flow:

* ``pretrain(verilog_pt)``          -> stage PRETRAINED
* ``supervised_finetune(...)``      -> stage SFT  (this is the "SFT Model" of Table III)
* ``learn_from_errors(...)``        -> stage DPO  (this is "AssertSolver" in the tables)

A freshly constructed model (stage BASE) plays the role of the untuned base
model (Deepseek-Coder-6.7b in the paper): it only has a generic code prior
and performs accordingly poorly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dataaug.datasets import SvaBugEntry, VerilogBugEntry, VerilogPTEntry
from repro.model.case import RepairCase
from repro.model.challenging import collect_challenging_cases
from repro.model.cot import build_explanation
from repro.model.dpo import DpoConfig, DpoReport, DpoTrainer
from repro.model.features import LOCALISATION_FEATURE_NAMES
from repro.model.fixes import FixCandidate
from repro.model.policy import PolicyWeights, RepairPolicy
from repro.model.pretrain import PretrainedKnowledge, run_pretraining
from repro.model.response import RepairEngine, RepairResponse
from repro.model.sft import SftConfig, SftReport, SftTrainer
from repro.obs import phase


class ModelStage(enum.Enum):
    """How far through the training recipe this model instance has progressed."""

    BASE = "base"
    PRETRAINED = "pretrained"
    SFT = "sft"
    DPO = "dpo"


def _base_prior_weights() -> PolicyWeights:
    """The generic 'code model' prior of the untuned base model.

    A general-purpose code LLM knows that repairs land on functional
    statements rather than declarations, and that is about all it knows about
    this task before fine-tuning.
    """
    weights = PolicyWeights()
    names = list(LOCALISATION_FEATURE_NAMES)
    weights.localisation[names.index("is_assignment")] = 0.8
    weights.localisation[names.index("is_declaration")] = -0.8
    return weights


@dataclass
class TrainingHistory:
    """Reports produced by the successive training stages."""

    sft: Optional[SftReport] = None
    challenging_stats: dict = field(default_factory=dict)
    dpo: Optional[DpoReport] = None


class AssertSolverModel(RepairEngine):
    """The trainable repair engine reproducing AssertSolver."""

    def __init__(self, name: str = "AssertSolver", seed: int = 97):
        self.name = name
        self._seed = seed
        self.stage = ModelStage.BASE
        self.knowledge = PretrainedKnowledge()
        self.policy = RepairPolicy(weights=_base_prior_weights())
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # training stages
    # ------------------------------------------------------------------ #

    def pretrain(self, entries: Sequence[VerilogPTEntry]) -> PretrainedKnowledge:
        """Continual pretraining on the Verilog-PT dataset (Section III-A)."""
        with phase("model.pretrain"):
            self.knowledge = run_pretraining(entries)
            self.policy.set_language_model(self.knowledge.language_model)
        if self.stage is ModelStage.BASE:
            self.stage = ModelStage.PRETRAINED
        return self.knowledge

    def supervised_finetune(
        self,
        sva_entries: Sequence[SvaBugEntry],
        verilog_bug_entries: Sequence[VerilogBugEntry] = (),
        config: Optional[SftConfig] = None,
    ) -> SftReport:
        """Supervised fine-tuning on SVA-Bug + Verilog-Bug (Section III-B)."""
        with phase("model.sft"):
            report = SftTrainer(self.policy, config).train(sva_entries, verilog_bug_entries)
        self.history.sft = report
        self.stage = ModelStage.SFT
        return report

    def learn_from_errors(
        self,
        sva_entries: Sequence[SvaBugEntry],
        samples: int = 20,
        temperature: float = 0.2,
        config: Optional[DpoConfig] = None,
        verifier=None,
    ) -> DpoReport:
        """Challenging-case mining + DPO (Section III-C).

        ``verifier`` (a :class:`repro.eval.verifier.SemanticVerifier`) lets
        the caller share a verdict cache with the evaluation harness, making
        repeat mining runs incremental; omitted, a fresh uncached verifier
        is used.  The policy's weights when DPO starts (the SFT weights)
        are the frozen reference.
        """
        with phase("model.mining"):
            triples, stats = collect_challenging_cases(
                self,
                sva_entries,
                samples=samples,
                temperature=temperature,
                seed=self._seed,
                verifier=verifier,
            )
        self.history.challenging_stats = stats
        with phase("model.dpo"):
            report = DpoTrainer(self.policy, config).train(triples)
        self.history.dpo = report
        self.stage = ModelStage.DPO
        return report

    # ------------------------------------------------------------------ #
    # snapshots (for the Table III / Fig. 3 comparisons)
    # ------------------------------------------------------------------ #

    def snapshot(self, name: Optional[str] = None) -> "AssertSolverModel":
        """A frozen copy of the current model (e.g. keep the SFT model around
        while the original continues to the DPO stage)."""
        clone = AssertSolverModel(name=name or f"{self.name}@{self.stage.value}", seed=self._seed)
        clone.stage = self.stage
        clone.knowledge = self.knowledge
        clone.policy = RepairPolicy(
            weights=self.policy.weights.copy(),
            language_model=self.knowledge.language_model if self.knowledge.is_trained else None,
        )
        return clone

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #

    def propose(
        self, case: RepairCase, samples: int = 20, temperature: float = 0.2, seed: int = 0
    ) -> list[RepairResponse]:
        """Sample ``samples`` JSON responses for one assertion-failure case."""
        rng = np.random.default_rng(self._seed * 100_003 + seed)
        responses: list[RepairResponse] = []
        for _ in range(samples):
            sampled = self.policy.sample(case, rng, temperature=temperature)
            responses.append(
                self._fallback_response(case) if sampled is None else self._response(case, *sampled)
            )
        return responses

    def propose_topk(
        self, case: RepairCase, k: int = 5, temperature: float = 0.2
    ) -> list[RepairResponse]:
        """Exact top-k: enumerate the policy's joint distribution directly.

        Deterministic for a fixed set of weights: no sampling, no seed.
        """
        ranked = self.policy.top_candidates(case, k=k, temperature=temperature)
        if not ranked:
            return [self._fallback_response(case)]
        return [self._response(case, *choice) for choice in ranked]

    def _response(
        self, case: RepairCase, line_number: int, candidate: FixCandidate, probability: float
    ) -> RepairResponse:
        """The JSON response for one chosen ``(line, fix, probability)``."""
        return RepairResponse(
            bug_line=candidate.original_line.strip(),
            fixed_line=candidate.fixed_line.strip(),
            line_number=line_number,
            explanation=build_explanation(
                case, line_number, candidate.original_line, candidate.fixed_line, candidate.pattern
            ),
            confidence=probability,
            metadata={"pattern": candidate.pattern, "stage": self.stage.value},
        )

    @staticmethod
    def _fallback_response(case: RepairCase) -> RepairResponse:
        """Degenerate response used when a case yields no candidates at all."""
        lines = case.code_line_numbers
        line_number = lines[0] if lines else 1
        text = case.line_text(line_number) if lines else ""
        return RepairResponse(
            bug_line=text.strip(),
            fixed_line=text.strip(),
            line_number=line_number,
            explanation="No candidate repair could be derived for this design.",
            confidence=0.0,
        )

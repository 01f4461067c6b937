"""Pretraining: next-token statistics of Verilog from the Verilog-PT dataset.

The paper continues pretraining Deepseek-Coder on Verilog-PT (code that failed
to compile, its specification, and an analysis of the failure) with the usual
negative-log-likelihood objective.  The reproduction's policy is not a
transformer, but it has the same ingredient: a language model of Verilog fitted
with exactly that next-token objective, whose per-line surprisal and
naturalness scores feed the localisation and fix-ranking features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.dataaug.datasets import VerilogPTEntry
from repro.model.ngram import NgramLanguageModel


@dataclass
class PretrainedKnowledge:
    """Everything the pretraining stage produces."""

    language_model: NgramLanguageModel = field(default_factory=NgramLanguageModel)

    @property
    def is_trained(self) -> bool:
        return self.language_model.total_tokens > 0


def run_pretraining(entries: Sequence[VerilogPTEntry]) -> PretrainedKnowledge:
    """Fit the language model on the Verilog-PT entries (code + spec + failure analysis)."""
    knowledge = PretrainedKnowledge()
    for entry in entries:
        knowledge.language_model.fit_text(entry.text())
    return knowledge

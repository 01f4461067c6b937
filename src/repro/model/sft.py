"""Supervised fine-tuning of the repair policy.

SFT fits the policy weights by maximising the log-likelihood of the golden
answers (the buggy line and its corrected code) over the SVA-Bug dataset,
with the Verilog-Bug dataset as an auxiliary task -- the same data recipe as
the paper's SFT stage.  Because the policy is a pair of linear softmaxes, the
maximum-likelihood gradient has the standard "observed features minus
expected features" form (:meth:`RepairPolicy.line_choice` and
:meth:`RepairPolicy.fix_choice` compute it) and plain SGD converges quickly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dataaug.datasets import SvaBugEntry, VerilogBugEntry
from repro.model.case import RepairCase
from repro.model.policy import RepairPolicy


@dataclass
class SftConfig:
    """Hyper-parameters of the SFT stage."""

    epochs: int = 12
    learning_rate: float = 0.6
    learning_rate_decay: float = 0.85
    l2: float = 1e-3
    #: Per-step ridge penalty on the *localisation* head.  The localisation
    #: features are heavily collinear (``assigns_failing_signal`` is a subset
    #: of ``is_assignment``), and at small training scale the unregularised
    #: MLE parks a large *negative* weight on ``assigns_failing_signal``
    #: while ``is_assignment`` soaks up the shared evidence -- outright
    #: down-ranking the very lines a verification engineer reads first.  The
    #: ridge pulls the solution toward the first-order (gradient-at-zero)
    #: direction, which distributes the shared evidence across the
    #: correlated features and keeps the sign right; the fix head is not
    #: collinear and stays unregularised.
    localisation_l2: float = 0.5
    auxiliary_weight: float = 0.3  # weight of Verilog-Bug (no-assertion) cases
    seed: int = 23


@dataclass
class SftReport:
    """Training diagnostics returned by the trainer."""

    cases_used: int = 0
    cases_skipped: int = 0
    fix_targets_found: int = 0
    epoch_log_likelihood: list[float] = field(default_factory=list)
    final_localisation_accuracy: float = 0.0
    final_fix_accuracy: float = 0.0


def _case_from_verilog_bug(entry: VerilogBugEntry) -> RepairCase:
    return RepairCase(
        name=entry.name,
        spec=entry.spec,
        buggy_source=entry.buggy_source,
        logs="",
        design_name=entry.name,
        golden_line=entry.golden_line,
        golden_line_number=entry.line_number,
    )


@dataclass
class _TrainingExample:
    case: RepairCase
    line_number: int
    golden_line: str
    weight: float


class SftTrainer:
    """Fits the policy on the question/answer pairs of the augmented datasets."""

    def __init__(self, policy: RepairPolicy, config: Optional[SftConfig] = None):
        self._policy = policy
        self._config = config or SftConfig()
        self._random = random.Random(self._config.seed)

    # ------------------------------------------------------------------ #
    # dataset preparation
    # ------------------------------------------------------------------ #

    def _prepare(
        self,
        sva_entries: Sequence[SvaBugEntry],
        verilog_bug_entries: Sequence[VerilogBugEntry],
        report: SftReport,
    ) -> list[_TrainingExample]:
        examples: list[_TrainingExample] = []
        for entry in sva_entries:
            case = RepairCase.from_entry(entry)
            if case.design is None or entry.line_number not in case.candidate_lines():
                report.cases_skipped += 1
                continue
            examples.append(
                _TrainingExample(
                    case=case,
                    line_number=entry.line_number,
                    golden_line=entry.golden_line,
                    weight=1.0,
                )
            )
        for entry in verilog_bug_entries:
            case = _case_from_verilog_bug(entry)
            if case.design is None or entry.line_number not in case.candidate_lines():
                report.cases_skipped += 1
                continue
            examples.append(
                _TrainingExample(
                    case=case,
                    line_number=entry.line_number,
                    golden_line=entry.golden_line,
                    weight=self._config.auxiliary_weight,
                )
            )
        report.cases_used = len(examples)
        return examples

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def train(
        self,
        sva_entries: Sequence[SvaBugEntry],
        verilog_bug_entries: Sequence[VerilogBugEntry] = (),
    ) -> SftReport:
        """Run SFT in place on the trainer's policy."""
        report = SftReport()
        examples = self._prepare(sva_entries, verilog_bug_entries, report)
        if not examples:
            return report

        weights = self._policy.weights
        learning_rate = self._config.learning_rate
        for _ in range(self._config.epochs):
            self._random.shuffle(examples)
            epoch_log_likelihood = 0.0
            for example in examples:
                epoch_log_likelihood += self._update_example(example, learning_rate)
            report.epoch_log_likelihood.append(epoch_log_likelihood / len(examples))
            learning_rate *= self._config.learning_rate_decay
            # L2 shrinkage once per epoch keeps the weights bounded.
            weights.localisation *= 1.0 - self._config.l2
            weights.fix_features *= 1.0 - self._config.l2
            weights.fix_patterns *= 1.0 - self._config.l2

        self._evaluate(examples, report)
        return report

    def _update_example(self, example: _TrainingExample, learning_rate: float) -> float:
        """One SGD step on one (question, answer) pair; returns its log-likelihood.

        The line step always applies; the fix step only when a candidate of
        the line is equivalent to the golden line.
        """
        policy = self._policy
        weights = policy.weights
        step = learning_rate * example.weight
        line = policy.line_choice(example.case, example.line_number)
        weights.step(line.gradient, step)
        # SGD on the ridge-penalised likelihood: the decay is the -l2*w term
        # of the gradient, scaled like the data term.
        weights.localisation *= 1.0 - step * self._config.localisation_l2
        log_likelihood = line.log_probability

        fix = policy.fix_choice(example.case, example.line_number, example.golden_line)
        if fix is not None:
            weights.step(fix.gradient, step)
            log_likelihood += fix.log_probability
        return log_likelihood

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def _evaluate(self, examples: list[_TrainingExample], report: SftReport) -> None:
        """Greedy localisation / fix accuracy on the training examples, and
        how many of them have a fix target among their line's candidates."""
        policy = self._policy
        correct_lines = 0
        correct_fixes = 0
        fix_total = 0
        for example in examples:
            line_numbers, probabilities = policy.line_distribution(example.case)
            best_line = line_numbers[int(np.argmax(probabilities))]
            if best_line == example.line_number:
                correct_lines += 1
            options = policy.fix_options(example.case, example.line_number)
            fix_index = options.fix_index(example.golden_line)
            if fix_index is None:
                continue
            fix_total += 1
            _, fix_probabilities = policy.fix_distribution(example.case, example.line_number)
            if int(np.argmax(fix_probabilities)) == fix_index:
                correct_fixes += 1
        report.final_localisation_accuracy = correct_lines / len(examples)
        report.final_fix_accuracy = correct_fixes / fix_total if fix_total else 0.0
        report.fix_targets_found = fix_total

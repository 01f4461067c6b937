"""Direct Preference Optimisation on the repair policy.

Implements the loss of Section III-C:

    L_DPO = -E[ log sigma( beta * ( log pi_theta(p|x)/pi_ref(p|x)
                                   - log pi_theta(n|x)/pi_ref(n|x) ) ) ]

with the SFT policy frozen as the reference.  The reference is the policy's
own log-probabilities, recorded for every pair when the pairs are built --
before the first update, while the policy still holds the SFT weights -- so
no second policy is kept.  Because the policy's log-probabilities are
differentiable in the weights (linear softmaxes), the gradient of each
preference pair is

    -sigma(-delta) * beta * ( d log pi_theta(p|x) - d log pi_theta(n|x) )

and plain gradient descent on the pairs implements the update.  The scaling
factor beta is 0.1 as in the paper, and the learning rate is much smaller
than in SFT, mirroring the paper's 1e-4 (SFT) vs 1e-6 (DPO) ratio.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.model.case import RepairCase
from repro.model.challenging import PreferenceTriple
from repro.model.policy import Choice, RepairPolicy


@dataclass
class DpoConfig:
    """Hyper-parameters of the preference-optimisation stage."""

    beta: float = 0.1
    epochs: int = 6
    learning_rate: float = 0.08
    max_negatives_per_case: int = 6
    seed: int = 41


@dataclass
class DpoReport:
    """Training diagnostics."""

    triples: int = 0
    pairs: int = 0
    pairs_skipped: int = 0
    epoch_loss: list[float] = field(default_factory=list)
    mean_margin_before: float = 0.0
    mean_margin_after: float = 0.0


@dataclass
class _Pair:
    """One (positive, negative) answer pair of a question, each a
    (line number, fixed line), with both sides' reference log-probabilities."""

    case: RepairCase
    positive: tuple[int, str]
    negative: tuple[int, str]
    reference: tuple[float, float]


class DpoTrainer:
    """Optimises the policy weights against its own weights at construction
    of the pairs (the frozen SFT reference)."""

    def __init__(self, policy: RepairPolicy, config: Optional[DpoConfig] = None):
        self._policy = policy
        self._config = config or DpoConfig()
        self._random = random.Random(self._config.seed)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def train(self, triples: Sequence[PreferenceTriple]) -> DpoReport:
        """Run DPO in place on the trainer's policy."""
        report = DpoReport(triples=len(triples))
        pairs = self._build_pairs(triples, report)
        if not pairs:
            return report
        report.mean_margin_before = self._mean_margin(pairs)

        learning_rate = self._config.learning_rate
        for _ in range(self._config.epochs):
            self._random.shuffle(pairs)
            epoch_loss = 0.0
            for pair in pairs:
                epoch_loss += self._update_pair(pair, learning_rate)
            report.epoch_loss.append(epoch_loss / len(pairs))
            learning_rate *= 0.9

        report.mean_margin_after = self._mean_margin(pairs)
        return report

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _build_pairs(
        self, triples: Sequence[PreferenceTriple], report: DpoReport
    ) -> list[_Pair]:
        """The representable pairs, each with its reference log-probabilities."""
        policy = self._policy
        pairs: list[_Pair] = []
        for triple in triples:
            negatives = triple.negatives[: self._config.max_negatives_per_case]
            positive = (triple.positive_line_number, triple.positive_fixed_line)
            reference_positive = policy.choice(triple.case, *positive)
            if reference_positive is None:
                report.pairs_skipped += len(negatives)
                continue
            for negative in negatives:
                reference_negative = policy.choice(triple.case, *negative)
                if reference_negative is None:
                    report.pairs_skipped += 1
                    continue
                reference = (reference_positive.log_probability, reference_negative.log_probability)
                pairs.append(_Pair(triple.case, positive, negative, reference))
        report.pairs = len(pairs)
        return pairs

    def _margin(self, pair: _Pair) -> tuple[float, Choice, Choice]:
        """delta = beta * (log-ratio of p - log-ratio of n) under the current
        weights, and the two choices it was computed from."""
        positive = self._policy.choice(pair.case, *pair.positive)
        negative = self._policy.choice(pair.case, *pair.negative)
        reference_positive, reference_negative = pair.reference
        delta = self._config.beta * (
            (positive.log_probability - reference_positive)
            - (negative.log_probability - reference_negative)
        )
        return delta, positive, negative

    def _update_pair(self, pair: _Pair, learning_rate: float) -> float:
        """One gradient step on one preference pair; returns its loss."""
        delta, positive, negative = self._margin(pair)
        coefficient = _sigmoid(-delta) * self._config.beta  # d(-log sigma)/d(delta) * -1
        self._policy.weights.step(
            {
                block: coefficient * (positive.gradient[block] - negative.gradient[block])
                for block in positive.gradient
            },
            learning_rate,
        )
        return -math.log(_sigmoid(delta))

    def _mean_margin(self, pairs: list[_Pair]) -> float:
        return float(np.mean([self._margin(pair)[0] for pair in pairs]))


def _sigmoid(value: float) -> float:
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-value))
    exponential = math.exp(value)
    return exponential / (1.0 + exponential)

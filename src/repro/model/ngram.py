"""An interpolated n-gram language model over Verilog tokens.

This is the pretraining substrate of the repair policy: it is fitted on the
Verilog-PT dataset (next-token prediction, the same objective as the paper's
pretraining stage, clause for clause) and later provides the "how unusual is
this line" surprisal feature used by bug localisation, as well as the
naturalness (negative surprisal) that ranks candidate fixes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.model.tokenizer import BOS_TOKEN, EOS_TOKEN, tokenize_line, tokenize_text


@dataclass
class NgramLanguageModel:
    """Interpolated trigram model with additive smoothing.

    The probability of a token given its context mixes unigram, bigram and
    trigram estimates; interpolation weights are fixed (tuned once), additive
    smoothing keeps unseen events finite.
    """

    order: int = 3
    alpha: float = 0.1
    interpolation: tuple[float, float, float] = (0.1, 0.3, 0.6)
    unigrams: Counter = field(default_factory=Counter)
    bigrams: dict = field(default_factory=lambda: defaultdict(Counter))
    trigrams: dict = field(default_factory=lambda: defaultdict(Counter))
    #: per-context token counts, ``sum(bigrams[c].values())`` kept exact at
    #: fit time so scoring a token does not re-sum its context.
    bigram_totals: Counter = field(default_factory=Counter)
    trigram_totals: Counter = field(default_factory=Counter)
    total_tokens: int = 0
    trained_sequences: int = 0

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def fit_sequence(self, tokens: Sequence[str]) -> None:
        """Count one token sequence."""
        padded = [BOS_TOKEN, BOS_TOKEN, *tokens, EOS_TOKEN]
        for index in range(2, len(padded)):
            token = padded[index]
            previous = padded[index - 1]
            previous2 = (padded[index - 2], padded[index - 1])
            self.unigrams[token] += 1
            self.bigrams[previous][token] += 1
            self.trigrams[previous2][token] += 1
            self.bigram_totals[previous] += 1
            self.trigram_totals[previous2] += 1
            self.total_tokens += 1
        self.trained_sequences += 1

    def fit_text(self, text: str) -> None:
        """Tokenize and count a full text (one corpus entry)."""
        self.fit_sequence(tokenize_text(text))

    def fit_corpus(self, texts: Iterable[str]) -> None:
        for text in texts:
            self.fit_text(text)

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #

    @property
    def vocabulary_size(self) -> int:
        return max(1, len(self.unigrams))

    # ``smoothing`` is the additive mass ``alpha * vocabulary_size`` of the
    # denominators, computed once per scored sequence.

    def _unigram_probability(self, token: str, smoothing: float) -> float:
        return (self.unigrams.get(token, 0) + self.alpha) / (self.total_tokens + smoothing)

    def _bigram_probability(self, previous: str, token: str, smoothing: float) -> float:
        context = self.bigrams.get(previous)
        if not context:
            return self._unigram_probability(token, smoothing)
        total = self.bigram_totals[previous]
        return (context.get(token, 0) + self.alpha) / (total + smoothing)

    def _trigram_probability(
        self, previous2: tuple[str, str], token: str, smoothing: float
    ) -> float:
        context = self.trigrams.get(previous2)
        if not context:
            return self._bigram_probability(previous2[1], token, smoothing)
        total = self.trigram_totals[previous2]
        return (context.get(token, 0) + self.alpha) / (total + smoothing)

    def _token_probability(
        self, previous2: tuple[str, str], token: str, smoothing: float
    ) -> float:
        """Interpolated probability of ``token`` after the two-token context."""
        lambda1, lambda2, lambda3 = self.interpolation
        return (
            lambda1 * self._unigram_probability(token, smoothing)
            + lambda2 * self._bigram_probability(previous2[1], token, smoothing)
            + lambda3 * self._trigram_probability(previous2, token, smoothing)
        )

    def sequence_log_probability(self, tokens: Sequence[str]) -> float:
        """Sum of log probabilities of a token sequence (natural log)."""
        padded = [BOS_TOKEN, BOS_TOKEN, *tokens, EOS_TOKEN]
        smoothing = self.alpha * self.vocabulary_size
        total = 0.0
        for index in range(2, len(padded)):
            probability = self._token_probability(
                (padded[index - 2], padded[index - 1]), padded[index], smoothing
            )
            total += math.log(max(probability, 1e-12))
        return total

    def line_surprisal(self, line: str) -> float:
        """Average negative log probability per token of one source line."""
        tokens = tokenize_line(line)[1:-1]
        if not tokens:
            return 0.0
        log_probability = self.sequence_log_probability(tokens)
        return -log_probability / (len(tokens) + 1)

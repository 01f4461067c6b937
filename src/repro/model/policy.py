"""The linear-softmax repair policy.

The policy factorises a repair into two decisions:

* **where** -- a softmax over the case's candidate lines, scored by the
  localisation features of :mod:`repro.model.features`;
* **what** -- a softmax over the candidate rewrites of the chosen line,
  scored by a learned weight per fix *pattern* plus the fix-ranking features.

Both scores are linear in their weights, which makes the three training
stages straightforward: pretraining supplies the language-model feature, SFT
fits the weights by maximum likelihood, and DPO moves the same weights along
the preference gradient (the policy's log-probabilities -- and therefore the
DPO objective -- are differentiable in closed form).  The policy is the only
code that turns weights into log-probabilities and gradients: both trainers
ask it for a :class:`Choice` and step the weights along its gradient.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro.hdl.source import normalize_line
from repro.model.case import RepairCase
from repro.model.features import (
    FIX_FEATURE_NAMES,
    LOCALISATION_FEATURE_NAMES,
    FixFeatureExtractor,
    LocalisationFeatureExtractor,
)
from repro.model.fixes import FIX_PATTERNS, FixCandidate, generate_fix_candidates
from repro.model.ngram import NgramLanguageModel
from repro.model.response import candidate_key
from repro.obs import get_registry


@dataclass
class PolicyWeights:
    """All learnable parameters of the repair policy."""

    localisation: np.ndarray = field(
        default_factory=lambda: np.zeros(len(LOCALISATION_FEATURE_NAMES))
    )
    fix_features: np.ndarray = field(default_factory=lambda: np.zeros(len(FIX_FEATURE_NAMES)))
    fix_patterns: np.ndarray = field(default_factory=lambda: np.zeros(len(FIX_PATTERNS)))

    def copy(self) -> "PolicyWeights":
        return PolicyWeights(
            localisation=self.localisation.copy(),
            fix_features=self.fix_features.copy(),
            fix_patterns=self.fix_patterns.copy(),
        )

    def to_dict(self) -> dict:
        return {
            "localisation": self.localisation.tolist(),
            "fix_features": self.fix_features.tolist(),
            "fix_patterns": self.fix_patterns.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PolicyWeights":
        return cls(
            localisation=np.asarray(payload["localisation"], dtype=float),
            fix_features=np.asarray(payload["fix_features"], dtype=float),
            fix_patterns=np.asarray(payload["fix_patterns"], dtype=float),
        )

    def step(self, gradient: dict[str, np.ndarray], scale: float) -> None:
        """Add ``scale`` times each block's gradient to that block, in place."""
        for block, value in gradient.items():
            weights = getattr(self, block)
            weights += scale * value


_PATTERN_INDEX = {pattern: index for index, pattern in enumerate(FIX_PATTERNS)}


@dataclass
class LineOptions:
    """The candidate rewrites of one line and what the fix head scores them by."""

    candidates: list[FixCandidate]
    features: np.ndarray
    #: each candidate's index into :data:`FIX_PATTERNS`.
    patterns: np.ndarray
    #: ``normalize_line`` of each candidate, built by the first
    #: :meth:`fix_index` call (ranking and sampling never look a fix up).
    keys: Optional[list[str]] = None

    def fix_index(self, fixed_line: str) -> Optional[int]:
        """The first candidate equivalent to ``fixed_line`` (as
        :func:`~repro.hdl.source.lines_equivalent` decides), or ``None``."""
        if self.keys is None:
            self.keys = [normalize_line(candidate.fixed_line) for candidate in self.candidates]
        try:
            return self.keys.index(normalize_line(fixed_line))
        except ValueError:
            return None


@dataclass
class CaseAnalysis:
    """Cached per-case candidate structure shared by sampling and training."""

    line_numbers: list[int]
    line_features: np.ndarray
    lines: dict[int, LineOptions] = field(default_factory=dict)


class Choice(NamedTuple):
    """One decision of the policy: the log-probability of the chosen option
    and its gradient with respect to each weight block the decision reads."""

    log_probability: float
    gradient: dict[str, np.ndarray]


def softmax(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax with temperature."""
    if scores.size == 0:
        return scores
    temperature = max(temperature, 1e-3)
    scaled = scores / temperature
    scaled = scaled - scaled.max()
    exponentials = np.exp(scaled)
    return exponentials / exponentials.sum()


class RepairPolicy:
    """Scores, samples and differentiates repairs for one set of weights."""

    def __init__(
        self,
        weights: Optional[PolicyWeights] = None,
        language_model: Optional[NgramLanguageModel] = None,
    ):
        self.weights = weights or PolicyWeights()
        self._analysis_cache: dict[tuple[str, str, str, str], CaseAnalysis] = {}
        self.set_language_model(language_model)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def set_language_model(self, language_model: Optional[NgramLanguageModel]) -> None:
        """Install the pretrained LM (invalidates cached features).

        Both extractors read one new surprisal memo: a line is scored once
        per policy and language model, whether it is a candidate line or a
        rewrite, and whichever case it belongs to.
        """
        self.language_model = language_model
        self._surprisals: dict[str, float] = {}
        self._localisation_extractor = LocalisationFeatureExtractor(
            language_model, self._surprisals
        )
        self._fix_extractor = FixFeatureExtractor(language_model, self._surprisals)
        self._analysis_cache.clear()

    def analyse(self, case: RepairCase) -> CaseAnalysis:
        """Candidate lines and their features (cached per case content)."""
        cached = self._analysis_cache.get(case.content_key)
        if cached is not None:
            return cached
        line_numbers = case.candidate_lines()
        features = self._localisation_extractor.extract(case, line_numbers)
        analysis = CaseAnalysis(line_numbers=line_numbers, line_features=features)
        self._analysis_cache[case.content_key] = analysis
        return analysis

    def fix_options(self, case: RepairCase, line_number: int) -> LineOptions:
        """Fix candidates of a line plus their features and pattern indices."""
        lines = self.analyse(case).lines
        options = lines.get(line_number)
        if options is None:
            candidates = generate_fix_candidates(case, line_number)
            original = case.line_text(line_number)
            options = LineOptions(
                candidates=candidates,
                features=self._fix_extractor.extract_batch(
                    case, original, [c.fixed_line for c in candidates]
                ),
                patterns=np.array(
                    [_PATTERN_INDEX.get(c.pattern, _PATTERN_INDEX["keep_line"]) for c in candidates]
                ),
            )
            lines[line_number] = options
        return options

    # ------------------------------------------------------------------ #
    # probabilities
    # ------------------------------------------------------------------ #

    def line_scores(self, case: RepairCase) -> tuple[list[int], np.ndarray]:
        analysis = self.analyse(case)
        if analysis.line_features.size == 0:
            return analysis.line_numbers, np.zeros(0)
        scores = analysis.line_features @ self.weights.localisation
        return analysis.line_numbers, scores

    def line_distribution(self, case: RepairCase, temperature: float = 1.0) -> tuple[list[int], np.ndarray]:
        line_numbers, scores = self.line_scores(case)
        return line_numbers, softmax(scores, temperature)

    def fix_scores(self, case: RepairCase, line_number: int) -> tuple[list[FixCandidate], np.ndarray]:
        options = self.fix_options(case, line_number)
        if options.features.size == 0:
            return options.candidates, np.zeros(0)
        weights = self.weights
        scores = options.features @ weights.fix_features + weights.fix_patterns[options.patterns]
        return options.candidates, scores

    def fix_distribution(
        self, case: RepairCase, line_number: int, temperature: float = 1.0
    ) -> tuple[list[FixCandidate], np.ndarray]:
        candidates, scores = self.fix_scores(case, line_number)
        return candidates, softmax(scores, temperature)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def sample(
        self, case: RepairCase, rng: np.random.Generator, temperature: float = 0.2
    ) -> Optional[tuple[int, FixCandidate, float]]:
        """Sample (line number, fix candidate, joint probability) for one response."""
        line_numbers, line_probabilities = self.line_distribution(case, temperature)
        if not line_numbers:
            return None
        line_index = int(rng.choice(len(line_numbers), p=line_probabilities))
        line_number = line_numbers[line_index]
        candidates, fix_probabilities = self.fix_distribution(case, line_number, temperature)
        if not candidates:
            return None
        fix_index = int(rng.choice(len(candidates), p=fix_probabilities))
        probability = float(line_probabilities[line_index] * fix_probabilities[fix_index])
        return line_number, candidates[fix_index], probability

    def top_candidates(
        self, case: RepairCase, k: int = 5, temperature: float = 1.0
    ) -> list[tuple[int, FixCandidate, float]]:
        """The ``k`` most probable distinct (line, fix) pairs, best first.

        Because the policy factorises into two small softmaxes, the joint
        distribution can be enumerated exactly -- no sampling noise, which is
        what makes ranked pass@k on the benchmark deterministic.  Exact
        probability ties (adjacent lines with identical feature rows are
        common in generated RTL) are broken *toward lines whose assigned
        signal appears in the failing assertion* -- the line a verification
        engineer would read first -- then by line number and rewrite text,
        so the order is stable across processes and platforms.

        Only the lines that can still reach the top ``k`` are expanded into
        their fixes.  Lines are visited by falling probability (ties by
        index), and the walk stops at the first line whose probability is
        strictly below the ``k``-th best distinct pair found so far.  That is
        exact: a fix probability is at most 1.0 in floating point (the
        softmax subtracts its maximum, so its largest exponential is exactly
        ``exp(0) = 1`` and the sum is at least 1), and rounding is monotone,
        so ``float(p_line * p_fix) <= p_line``.  Every pair of an unvisited
        line therefore sorts strictly after the ``k``-th, and can neither
        enter the top ``k`` nor reorder it.  A pair's ``candidate_key``
        carries its line number, so no unvisited pair duplicates a kept one.
        """
        if k < 1:
            raise ValueError(f"top_candidates needs k >= 1, got {k}")
        line_numbers, line_probabilities = self.line_distribution(case, temperature)
        assigned_by_line = case.assigned_by_line
        asserted = case.asserted_signals
        scored: list[tuple[float, int, int, str, str, FixCandidate]] = []
        # A min-heap of the k highest joints of distinct pairs found so far.
        kth_best: list[float] = []
        expanded = 0
        for line_index in np.argsort(-line_probabilities, kind="stable").tolist():
            line_probability = line_probabilities[line_index]
            if len(kth_best) == k and kth_best[0] > line_probability:
                break
            expanded += 1
            line_number = line_numbers[line_index]
            # 0 sorts first: the line drives a signal the failing assertion samples.
            assigns_failing = 0 if asserted.intersection(
                assigned_by_line.get(line_number, ())
            ) else 1
            candidates, fix_probabilities = self.fix_distribution(case, line_number, temperature)
            line_best: dict[str, float] = {}
            for fix_index, candidate in enumerate(candidates):
                joint = float(line_probability * fix_probabilities[fix_index])
                key = candidate_key(line_number, candidate.fixed_line)
                line_best[key] = max(joint, line_best.get(key, joint))
                scored.append(
                    (joint, assigns_failing, line_number, candidate.fixed_line, key, candidate)
                )
            for joint in line_best.values():
                if len(kth_best) < k:
                    heapq.heappush(kth_best, joint)
                else:
                    heapq.heappushpop(kth_best, joint)
        registry = get_registry()
        registry.inc("model.propose.lines", len(line_numbers))
        registry.inc("model.propose.lines_expanded", expanded)
        scored.sort(key=lambda item: (-item[0], item[1], item[2], item[3]))
        top: list[tuple[int, FixCandidate, float]] = []
        seen: set[str] = set()
        for joint, _assigns_failing, line_number, _fixed_line, key, candidate in scored:
            if key in seen:
                continue
            seen.add(key)
            top.append((line_number, candidate, joint))
            if len(top) >= k:
                break
        return top

    # ------------------------------------------------------------------ #
    # training: log-probabilities with their gradients (SFT and DPO)
    # ------------------------------------------------------------------ #

    def line_choice(self, case: RepairCase, line_number: int) -> Optional[Choice]:
        """log pi(line | case) and its gradient; ``None`` for a non-candidate line."""
        analysis = self.analyse(case)
        if line_number not in analysis.line_numbers:
            return None
        _, probabilities = self.line_distribution(case)
        log_probability, gradient = _softmax_choice(
            analysis.line_features, probabilities, analysis.line_numbers.index(line_number)
        )
        return Choice(log_probability, {"localisation": gradient})

    def fix_choice(self, case: RepairCase, line_number: int, fixed_line: str) -> Optional[Choice]:
        """log pi(fix | case, line) and its gradients; ``None`` when no
        candidate of the line is equivalent to ``fixed_line``."""
        options = self.fix_options(case, line_number)
        index = options.fix_index(fixed_line)
        if index is None:
            return None
        _, probabilities = self.fix_distribution(case, line_number)
        log_probability, feature_gradient = _softmax_choice(options.features, probabilities, index)
        # The pattern weights enter the scores through a one-hot row per
        # candidate, so their gradient is the same difference, accumulated
        # per pattern.
        pattern_gradient = np.zeros(len(FIX_PATTERNS))
        pattern_gradient[options.patterns[index]] += 1.0
        for pattern, probability in zip(options.patterns, probabilities):
            pattern_gradient[pattern] -= probability
        return Choice(
            log_probability, {"fix_features": feature_gradient, "fix_patterns": pattern_gradient}
        )

    def choice(self, case: RepairCase, line_number: int, fixed_line: str) -> Optional[Choice]:
        """log pi(line, fix | case) and its gradient for every weight block;
        ``None`` when the pair is not representable.

        The policy factorises, so this is the line choice plus the fix choice.
        """
        line = self.line_choice(case, line_number)
        if line is None:
            return None
        fix = self.fix_choice(case, line_number, fixed_line)
        if fix is None:
            return None
        return Choice(
            line.log_probability + fix.log_probability, {**line.gradient, **fix.gradient}
        )


def _softmax_choice(
    features: np.ndarray, probabilities: np.ndarray, index: int
) -> tuple[float, np.ndarray]:
    """log p[index] and its gradient for a softmax over ``features @ weights``.

    For a softmax that is linear in the weights the gradient is the chosen
    option's feature vector minus the probability-weighted average feature
    vector of all options.
    """
    log_probability = float(np.log(max(probabilities[index], 1e-12)))
    return log_probability, features[index] - probabilities @ features

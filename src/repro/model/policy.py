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
DPO objective -- are differentiable in closed form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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


_PATTERN_INDEX = {pattern: index for index, pattern in enumerate(FIX_PATTERNS)}


@dataclass
class CaseAnalysis:
    """Cached per-case candidate structure shared by sampling and training."""

    line_numbers: list[int]
    line_features: np.ndarray
    fix_candidates: dict[int, list[FixCandidate]] = field(default_factory=dict)
    fix_features: dict[int, np.ndarray] = field(default_factory=dict)
    fix_pattern_indices: dict[int, np.ndarray] = field(default_factory=dict)


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
        self.language_model = language_model
        self._localisation_extractor = LocalisationFeatureExtractor(language_model)
        self._fix_extractor = FixFeatureExtractor(language_model)
        self._analysis_cache: dict[tuple[str, str, str, str], CaseAnalysis] = {}

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def set_language_model(self, language_model: NgramLanguageModel) -> None:
        """Install the pretrained LM (invalidates cached features)."""
        self.language_model = language_model
        self._localisation_extractor = LocalisationFeatureExtractor(language_model)
        self._fix_extractor = FixFeatureExtractor(language_model)
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

    def fix_options(self, case: RepairCase, line_number: int) -> tuple[
        list[FixCandidate], np.ndarray, np.ndarray
    ]:
        """Fix candidates of a line plus their features and pattern indices."""
        analysis = self.analyse(case)
        if line_number not in analysis.fix_candidates:
            candidates = generate_fix_candidates(case, line_number)
            original = case.line_text(line_number)
            features = self._fix_extractor.extract_batch(
                case, original, [c.fixed_line for c in candidates]
            )
            patterns = np.array(
                [_PATTERN_INDEX.get(c.pattern, _PATTERN_INDEX["keep_line"]) for c in candidates]
            )
            analysis.fix_candidates[line_number] = candidates
            analysis.fix_features[line_number] = features
            analysis.fix_pattern_indices[line_number] = patterns
        return (
            analysis.fix_candidates[line_number],
            analysis.fix_features[line_number],
            analysis.fix_pattern_indices[line_number],
        )

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
        candidates, features, patterns = self.fix_options(case, line_number)
        if features.size == 0:
            return candidates, np.zeros(0)
        scores = features @ self.weights.fix_features + self.weights.fix_patterns[patterns]
        return candidates, scores

    def fix_distribution(
        self, case: RepairCase, line_number: int, temperature: float = 1.0
    ) -> tuple[list[FixCandidate], np.ndarray]:
        candidates, scores = self.fix_scores(case, line_number)
        return candidates, softmax(scores, temperature)

    def log_probability(
        self, case: RepairCase, line_number: int, fixed_line: str, temperature: float = 1.0
    ) -> Optional[float]:
        """log pi(line, fix | case); ``None`` when the pair is not representable."""
        line_numbers, line_probabilities = self.line_distribution(case, temperature)
        if line_number not in line_numbers:
            return None
        line_index = line_numbers.index(line_number)
        candidates, fix_probabilities = self.fix_distribution(case, line_number, temperature)
        fix_index = _candidate_index(candidates, fixed_line)
        if fix_index is None:
            return None
        return float(
            np.log(max(line_probabilities[line_index], 1e-12))
            + np.log(max(fix_probabilities[fix_index], 1e-12))
        )

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
        """
        line_numbers, line_probabilities = self.line_distribution(case, temperature)
        assigned_by_line = case.assigned_by_line
        asserted = case.asserted_signals
        scored: list[tuple[float, int, int, str, FixCandidate]] = []
        for line_index, line_number in enumerate(line_numbers):
            # 0 sorts first: the line drives a signal the failing assertion samples.
            assigns_failing = 0 if asserted.intersection(
                assigned_by_line.get(line_number, ())
            ) else 1
            candidates, fix_probabilities = self.fix_distribution(case, line_number, temperature)
            for fix_index, candidate in enumerate(candidates):
                joint = float(line_probabilities[line_index] * fix_probabilities[fix_index])
                scored.append(
                    (joint, assigns_failing, line_number, candidate.fixed_line, candidate)
                )
        scored.sort(key=lambda item: (-item[0], item[1], item[2], item[3]))
        top: list[tuple[int, FixCandidate, float]] = []
        seen: set[str] = set()
        for joint, _assigns_failing, line_number, fixed_line, candidate in scored:
            key = candidate_key(line_number, fixed_line)
            if key in seen:
                continue
            seen.add(key)
            top.append((line_number, candidate, joint))
            if len(top) >= k:
                break
        return top

    # ------------------------------------------------------------------ #
    # gradients (used by SFT and DPO)
    # ------------------------------------------------------------------ #

    def log_probability_gradient(
        self, case: RepairCase, line_number: int, fixed_line: str, temperature: float = 1.0
    ) -> Optional[dict[str, np.ndarray]]:
        """d log pi(line, fix | case) / d weights, for each weight block.

        For a softmax that is linear in the weights the gradient is the
        feature vector of the chosen option minus the probability-weighted
        average feature vector of all options (independently for the line
        choice and the fix choice, because the policy factorises).
        """
        analysis = self.analyse(case)
        if line_number not in analysis.line_numbers:
            return None
        line_index = analysis.line_numbers.index(line_number)
        _, line_probabilities = self.line_distribution(case, temperature)
        line_gradient = (
            analysis.line_features[line_index]
            - line_probabilities @ analysis.line_features
        ) / max(temperature, 1e-3)

        candidates, fix_features, patterns = self.fix_options(case, line_number)
        fix_index = _candidate_index(candidates, fixed_line)
        if fix_index is None:
            return None
        _, fix_probabilities = self.fix_distribution(case, line_number, temperature)
        fix_feature_gradient = (
            fix_features[fix_index] - fix_probabilities @ fix_features
        ) / max(temperature, 1e-3)
        pattern_gradient = np.zeros(len(FIX_PATTERNS))
        pattern_gradient[patterns[fix_index]] += 1.0
        for index, probability in enumerate(fix_probabilities):
            pattern_gradient[patterns[index]] -= probability
        pattern_gradient /= max(temperature, 1e-3)

        return {
            "localisation": line_gradient,
            "fix_features": fix_feature_gradient,
            "fix_patterns": pattern_gradient,
        }


def _candidate_index(candidates: list[FixCandidate], fixed_line: str) -> Optional[int]:
    from repro.hdl.source import lines_equivalent

    for index, candidate in enumerate(candidates):
        if lines_equivalent(candidate.fixed_line, fixed_line):
            return index
    return None

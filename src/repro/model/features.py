"""Feature extraction for bug localisation and fix ranking.

The repair policy is linear in these features; they encode exactly the kind
of evidence a verification engineer (or a code LLM) uses when reading a
failing assertion: which signals the assertion samples, which lines drive
those signals (cone of influence), how "unusual" a line looks to a language
model of Verilog, and how well a line matches the vocabulary of the
specification.  They read the buggy design, the spec and the failure log
only: no dataflow graph and no static-analysis diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.bugs.mutators import line_identifiers
from repro.hdl.source import strip_comment
from repro.model.case import RepairCase
from repro.model.ngram import NgramLanguageModel

#: names of the localisation features, in vector order.
LOCALISATION_FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "assigns_failing_signal",
    "assigns_cone_signal",
    "cone_proximity",
    "mentions_failing_signal",
    "is_assignment",
    "is_conditional",
    "is_declaration",
    "lm_surprisal",
    "spec_overlap",
    "line_length",
    "distance_to_assertion",
)

#: names of the fix-ranking features (pattern weights are handled separately).
FIX_FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "lm_gain",
    "spec_overlap_gain",
    "reuses_existing_line",
    "touches_failing_signal",
    "edit_size",
)

_DECLARATION_PREFIXES = ("wire", "reg", "logic", "integer", "parameter", "localparam",
                         "input", "output", "inout")


@dataclass
class _LineScorer:
    """The language model a feature extractor reads, behind a surprisal memo.

    ``surprisals`` maps stripped code to ``language_model.line_surprisal``;
    :class:`~repro.model.policy.RepairPolicy` hands one dict to both of its
    extractors, so a line is scored once per policy however many cases,
    candidate lines and rewrites repeat it.
    """

    language_model: Optional[NgramLanguageModel] = None
    surprisals: dict[str, float] = field(default_factory=dict)

    def _surprisal(self, code: str) -> Optional[float]:
        """``line_surprisal(code)``, memoised; ``None`` without a fitted model."""
        if self.language_model is None or self.language_model.total_tokens == 0:
            return None
        surprisal = self.surprisals.get(code)
        if surprisal is None:
            surprisal = self.surprisals[code] = self.language_model.line_surprisal(code)
        return surprisal


@dataclass
class LocalisationFeatureExtractor(_LineScorer):
    """Builds the feature matrix over a case's candidate lines."""

    def feature_names(self) -> tuple[str, ...]:
        return LOCALISATION_FEATURE_NAMES

    def extract(self, case: RepairCase, line_numbers: Sequence[int]) -> np.ndarray:
        """Return a (len(line_numbers), n_features) matrix."""
        rows = [self._line_features(case, number) for number in line_numbers]
        if not rows:
            return np.zeros((0, len(LOCALISATION_FEATURE_NAMES)))
        return np.vstack(rows)

    # ------------------------------------------------------------------ #
    # per-line features
    # ------------------------------------------------------------------ #

    def _line_features(self, case: RepairCase, number: int) -> np.ndarray:
        line = case.line_text(number)
        code = strip_comment(line).strip()
        lowered = code.lower()
        identifiers = set(line_identifiers(code))
        assigned = set(case.assigned_by_line.get(number, []))
        asserted = case.asserted_signals
        cone = case.cone_signals

        assigns_failing = bool(assigned & asserted)
        assigns_cone = bool(assigned & cone)
        proximity = self._cone_proximity(case, assigned)
        mentions_failing = bool(identifiers & asserted)
        is_assignment = ("=" in code) and not lowered.startswith(_DECLARATION_PREFIXES)
        is_conditional = lowered.startswith(("if", "else", "case", "casez", "casex"))
        is_declaration = lowered.startswith(_DECLARATION_PREFIXES) and "=" not in code
        surprisal = self._normalised_surprisal(code)
        spec_overlap = self._spec_overlap(case, identifiers)
        line_length = min(len(code) / 80.0, 1.5)
        distance = self._distance_to_assertion(case, number)

        return np.array(
            [
                1.0,
                float(assigns_failing),
                float(assigns_cone),
                proximity,
                float(mentions_failing),
                float(is_assignment),
                float(is_conditional),
                float(is_declaration),
                surprisal,
                spec_overlap,
                line_length,
                distance,
            ]
        )

    def _cone_proximity(self, case: RepairCase, assigned: set[str]) -> float:
        """1/(1+d) where d is the dependency distance from the assigned signals
        to the asserted signals (0 when the line assigns an asserted signal)."""
        if not assigned or case.design is None or not case.asserted_signals:
            return 0.0
        distance = case.asserted_distance
        best = min((distance.get(name, 99) for name in assigned), default=99)
        return 1.0 / (1.0 + best)

    def _normalised_surprisal(self, code: str) -> float:
        surprisal = self._surprisal(code)
        if surprisal is None:
            return 0.0
        # Typical per-token surprisal lands in [1, 8]; normalise to roughly [0, 1].
        return min(surprisal / 8.0, 1.5)

    def _spec_overlap(self, case: RepairCase, identifiers: set[str]) -> float:
        if not identifiers:
            return 0.0
        lowered = {name.lower() for name in identifiers}
        overlap = lowered & case.spec_tokens
        return len(overlap) / len(lowered)

    def _distance_to_assertion(self, case: RepairCase, number: int) -> float:
        region = case.assertion_region_lines
        if not region:
            return 0.0
        nearest = min(abs(number - line) for line in region)
        return 1.0 / (1.0 + nearest)


@dataclass
class FixFeatureExtractor(_LineScorer):
    """Features of one candidate rewrite of one line."""

    def feature_names(self) -> tuple[str, ...]:
        return FIX_FEATURE_NAMES

    def extract(
        self, case: RepairCase, original_line: str, candidate_line: str
    ) -> np.ndarray:
        """The feature row of one rewrite of ``original_line``."""
        return self.extract_batch(case, original_line, [candidate_line])[0]

    def extract_batch(
        self, case: RepairCase, original_line: str, candidates: Sequence[str]
    ) -> np.ndarray:
        """A (len(candidates), n_features) matrix: one row per rewrite of
        ``original_line``.  The original line's terms are computed once."""
        if not candidates:
            return np.zeros((0, len(FIX_FEATURE_NAMES)))
        original_code = strip_comment(original_line).strip()
        original_identifiers = set(line_identifiers(original_code))
        original_normalised = " ".join(original_code.split())
        original_naturalness = self._naturalness(original_code)
        original_spec = self._spec_overlap(case, original_identifiers)
        existing_lines = case.normalised_code_lines
        asserted = case.asserted_signals
        rows = []
        for candidate_line in candidates:
            code = strip_comment(candidate_line).strip()
            identifiers = set(line_identifiers(code))
            lm_gain = 0.0
            if original_naturalness is not None:
                gain = self._naturalness(code) - original_naturalness
                lm_gain = float(np.clip(gain, -2.0, 2.0))
            spec_gain = self._spec_overlap(case, identifiers) - original_spec
            # Does the candidate replicate another line of the design (a common idiom)?
            normalised = " ".join(code.split())
            reuses = float(
                bool(normalised)
                and normalised != original_normalised
                and normalised in existing_lines
            )
            touches_failing = float(bool(identifiers & asserted))
            edit_size = self._edit_size(original_code, code)
            rows.append([1.0, lm_gain, spec_gain, reuses, touches_failing, edit_size])
        return np.array(rows)

    def _naturalness(self, code: str) -> Optional[float]:
        """The language model's naturalness of ``code``; ``None`` without a
        fitted model."""
        surprisal = self._surprisal(code)
        return None if surprisal is None else -surprisal

    @staticmethod
    def _spec_overlap(case: RepairCase, identifiers: set[str]) -> float:
        if not identifiers:
            return 0.0
        lowered = {name.lower() for name in identifiers}
        return len(lowered & case.spec_tokens) / len(lowered)

    @staticmethod
    def _edit_size(original: str, candidate: str) -> float:
        """Rough normalised edit size (smaller edits are more plausible fixes)."""
        original_tokens = original.split()
        candidate_tokens = candidate.split()
        changed = sum(1 for a, b in zip(original_tokens, candidate_tokens) if a != b)
        changed += abs(len(original_tokens) - len(candidate_tokens))
        return min(changed / max(len(original_tokens), 1), 1.5)

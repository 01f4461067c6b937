"""Challenging-case mining for the preference-optimisation stage.

Following Section III-C of the paper: the SFT model is evaluated on every
sample of the SVA-Bug training set with n = 20 responses per question.
Samples with at least one incorrect response are the *challenging cases*;
each becomes a preference triple (question, correct answer, incorrect
responses) for DPO.

Correctness is judged **semantically**, not textually: a response that
matches the golden answer is accepted immediately, and any other response is
applied to the buggy source and re-verified end to end (compile, simulate on
fresh stimulus seeds, check the assertions) by
:class:`repro.eval.verifier.SemanticVerifier`.  A behaviourally equivalent
rewrite of the golden line therefore never becomes a DPO negative, and a
textually plausible fix that still trips an assertion always does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.dataaug.datasets import SvaBugEntry
from repro.hdl.source import lines_equivalent
from repro.model.case import RepairCase
from repro.model.response import RepairEngine, RepairResponse, candidate_key

if TYPE_CHECKING:  # imported lazily at runtime: repro.eval builds on repro.model
    from repro.eval.verifier import SemanticVerifier


@dataclass
class PreferenceTriple:
    """(x, p, n[k]) of Section III-C: a question, its golden answer, and the
    distinct incorrect responses the SFT model produced for it."""

    case: RepairCase
    positive_line_number: int
    positive_fixed_line: str
    negatives: list[tuple[int, str]] = field(default_factory=list)


def response_matches_golden(entry: SvaBugEntry, response: RepairResponse) -> bool:
    """The textual fast path: the suggested buggy line and fix equal the
    golden answer after normalisation (location and corrected code)."""
    right_location = response.line_number == entry.line_number or lines_equivalent(
        response.bug_line, entry.buggy_line
    )
    right_fix = lines_equivalent(response.fixed_line, entry.golden_line)
    return right_location and right_fix


def response_is_correct(
    entry: SvaBugEntry, response: RepairResponse, verifier: "SemanticVerifier"
) -> bool:
    """Semantic correctness of one response for one training entry.

    A golden-equivalent response is correct by definition.  Anything else is
    patched into the buggy source and must clear the full verification loop
    on independent stimulus seeds.
    """
    if response_matches_golden(entry, response):
        return True
    from repro.eval.verifier import CandidateFix, derive_verification_seeds

    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
    fix = CandidateFix(
        line_number=response.line_number,
        fixed_line=response.fixed_line,
        bug_line=response.bug_line,
    )
    verdict = verifier.verify(entry.buggy_source, fix, seeds, cycles=entry.stimulus_cycles)
    # A vacuous pass (no assertion ever exercised -- e.g. the response
    # rewrote the assertion itself) is not a correct repair.
    return verdict.passed and verdict.exercised


def collect_challenging_cases(
    engine: RepairEngine,
    entries: Sequence[SvaBugEntry],
    samples: int = 20,
    temperature: float = 0.2,
    seed: int = 31,
    verifier: Optional["SemanticVerifier"] = None,
) -> tuple[list[PreferenceTriple], dict[str, int]]:
    """Sample the SFT model on the training questions and mine the failures.

    Responses are deduplicated *before* verification, so each distinct
    rewrite is simulated at most once per entry (the verifier additionally
    memoises across entries that share a source).

    Args:
        verifier: the semantic verifier to judge non-golden responses with;
            one is constructed on demand when omitted.

    Returns:
        (triples, stats) where stats counts evaluated/challenging cases and
        incorrect responses.
    """
    if verifier is None:
        from repro.eval.verifier import SemanticVerifier

        verifier = SemanticVerifier()
    triples: list[PreferenceTriple] = []
    stats = {"evaluated": 0, "challenging": 0, "incorrect_responses": 0}
    for index, entry in enumerate(entries):
        case = RepairCase.from_entry(entry)
        if case.design is None:
            continue
        stats["evaluated"] += 1
        responses = engine.propose(
            case, samples=samples, temperature=temperature, seed=seed + index
        )
        distinct: dict[str, RepairResponse] = {}
        for response in responses:
            distinct.setdefault(
                candidate_key(response.line_number, response.fixed_line), response
            )
        negatives: list[tuple[int, str]] = []
        for response in distinct.values():
            if response_is_correct(entry, response, verifier=verifier):
                continue
            negatives.append((response.line_number, response.fixed_line))
        stats["incorrect_responses"] += len(negatives)
        if negatives:
            stats["challenging"] += 1
            triples.append(
                PreferenceTriple(
                    case=case,
                    positive_line_number=entry.line_number,
                    positive_fixed_line=entry.golden_line,
                    negatives=negatives,
                )
            )
    return triples, stats

"""Candidate-fix generation for a suspected buggy line.

Repairs in this task are single-line rewrites, so the space of plausible
fixes for a line is exactly the space of single-line edits: operator swaps,
constant perturbations, signal substitutions, condition negations and
structural assignment edits.  The same edit library that the bug injector
uses (:mod:`repro.bugs.mutators`) therefore doubles as the fix generator --
if a bug was created by one edit, the inverse edit is in the candidate pool.

Each candidate carries a *pattern* identifier (the mutation operator name);
the SFT stage learns a weight per pattern from the training pairs, which is
what lets the model prefer, e.g., "flip the condition polarity" for Cond bugs
and "adjust the constant" for Value bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bugs.mutators import MutationCandidate, enumerate_mutations
from repro.hdl.source import strip_comment
from repro.model.case import RepairCase

#: every pattern id the fix generator can emit (used to size the weight table).
FIX_PATTERNS: tuple[str, ...] = (
    "op_eq_to_neq",
    "op_neq_to_eq",
    "op_and_to_or",
    "op_or_to_and",
    "op_ge_to_gt",
    "op_lt_to_le",
    "op_gt_to_ge",
    "op_shl_to_shr",
    "op_shr_to_shl",
    "op_plus_to_minus",
    "op_minus_to_plus",
    "op_bitand_to_bitor",
    "op_bitor_to_bitand",
    "op_xor_to_and",
    "value_literal_change",
    "value_width_change",
    "value_decimal_change",
    "var_substitution",
    "cond_drop_negation",
    "cond_add_negation",
    "assign_drop_term",
    "assign_freeze_register",
    "keep_line",
)


@dataclass(frozen=True)
class FixCandidate:
    """One candidate rewrite of a suspected buggy line."""

    line_number: int
    original_line: str
    fixed_line: str
    pattern: str
    description: str


def ranked_scope_signals(case: RepairCase, line: str) -> list[str]:
    """In-scope signals ordered by relevance to the failing assertions.

    Signals sampled by the failing assertion come first, then the rest of the
    cone of influence, then everything else -- this ordering is what the
    ``var_substitution`` fix pattern explores first.
    """
    all_signals = case.in_scope_signals
    asserted = [s for s in all_signals if s in case.asserted_signals]
    cone = [s for s in all_signals if s in case.cone_signals and s not in case.asserted_signals]
    rest = [s for s in all_signals if s not in case.asserted_signals and s not in case.cone_signals]
    ordered = asserted + cone + rest
    return [s for s in ordered if s not in ("clk",)]


def generate_fix_candidates(
    case: RepairCase, line_number: int, max_candidates: int = 24
) -> list[FixCandidate]:
    """All candidate rewrites of one line, deduplicated and capped."""
    original = case.line_text(line_number)
    scope = ranked_scope_signals(case, original)
    mutations: list[MutationCandidate] = enumerate_mutations(original, scope)
    candidates: list[FixCandidate] = []
    seen: set[str] = set()
    for mutation in mutations:
        key = " ".join(strip_comment(mutation.buggy_line).split())
        if not key or key in seen:
            continue
        seen.add(key)
        candidates.append(
            FixCandidate(
                line_number=line_number,
                original_line=original,
                fixed_line=mutation.buggy_line,
                pattern=mutation.mutation_name,
                description=mutation.description,
            )
        )
        if len(candidates) >= max_candidates:
            break
    # The "keep the line" candidate gives the policy an explicit way to say
    # "this line is fine after all"; it is never the correct answer for a real
    # bug, so SFT learns to push its weight down.
    candidates.append(
        FixCandidate(
            line_number=line_number,
            original_line=original,
            fixed_line=original,
            pattern="keep_line",
            description="keep the line unchanged",
        )
    )
    return candidates


"""Stage 3: chain-of-thought generation and validation.

In the paper GPT-4 is given the spec, the buggy code, the logs *and the bug
location*, and asked to produce a chain of thought explaining the failure and
the fix; a script then compares GPT-4's identified error/correction with the
golden solution and keeps the CoT only when they agree (74.55 % of the time).

The reproduction's CoT writer builds the reasoning text from the same inputs.
To preserve the paper's imperfect-teacher behaviour, the writer occasionally
"drifts": with a configurable probability it reasons its way to a nearby but
wrong line or to a plausible but wrong fix, exactly the kind of error the
validation step is there to catch.  Validation compares the CoT's claimed
line and fix against the golden solution, and only validated CoTs are kept in
the training answers (marked "step by step").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.dataaug.datasets import SvaBugEntry
from repro.hdl.source import SourceFile, lines_equivalent, strip_comment
from repro.runtime import JobPolicy, derive_seed, run_stage_jobs
from repro.sva.logs import parse_failure_log


@dataclass
class Stage3Config:
    """Controls CoT generation."""

    seed: int = 17
    drift_probability: float = 0.25  # fraction of CoTs that reason to the wrong place


@dataclass
class CotDraft:
    """A generated chain of thought plus the conclusions it commits to."""

    text: str
    claimed_line_number: int
    claimed_buggy_line: str
    claimed_fix: str


def _cone_summary(entry: SvaBugEntry) -> str:
    log = parse_failure_log(entry.logs)
    if log.failed_assertions:
        names = ", ".join(log.failed_assertions)
        return f"The simulation log reports the failing assertion(s): {names}."
    return "The simulation log reports at least one failing assertion."


def write_cot(entry: SvaBugEntry, claimed_line: int, claimed_buggy: str, claimed_fix: str) -> str:
    """Render the chain-of-thought text for a (possibly drifted) conclusion."""
    assertion_names = ", ".join(entry.failing_assertions) or "the triggered assertion"
    steps = [
        "Step 1: " + _cone_summary(entry),
        (
            "Step 2: The failing assertion "
            f"({assertion_names}) constrains the behaviour described in the specification; "
            "the signals it samples must be driven according to the documented update rules."
        ),
        (
            "Step 3: Tracing the drivers of the asserted signals through the design, the "
            f"logic on line {claimed_line} is responsible for the behaviour the assertion checks: "
            f"`{claimed_buggy.strip()}`."
        ),
        (
            "Step 4: Comparing this line against the specification shows it does not implement "
            "the documented behaviour, which explains why the assertion can be violated."
        ),
        (
            "Step 5: The fix is to rewrite the line as `"
            + claimed_fix.strip()
            + "` so that the implementation matches the specification and the assertion holds."
        ),
    ]
    return "\n".join(steps)


class CotGenerator:
    """Generates and validates chains of thought for SVA-Bug entries.

    The drift noise is drawn from a *per-entry* RNG derived from the config
    seed and the entry name -- not from one shared stream -- so which CoTs
    drift is independent of entry order and of how the per-entry jobs are
    sharded across workers.
    """

    def __init__(self, config: Optional[Stage3Config] = None, policy: JobPolicy = JobPolicy()):
        self._config = config or Stage3Config()
        #: How the per-entry CoT jobs run (pool size, failure mode, ...).
        self._policy = policy

    def _entry_rng(self, entry: SvaBugEntry) -> random.Random:
        return random.Random(derive_seed(self._config.seed, entry.name))

    def generate(self, entry: SvaBugEntry) -> CotDraft:
        """Produce a CoT draft for one entry (ground truth given, noise injected)."""
        rng = self._entry_rng(entry)
        if rng.random() >= self._config.drift_probability:
            return CotDraft(
                text=write_cot(entry, entry.line_number, entry.buggy_line, entry.golden_line),
                claimed_line_number=entry.line_number,
                claimed_buggy_line=entry.buggy_line,
                claimed_fix=entry.golden_line,
            )
        return self._drifted(entry, rng)

    def _drifted(self, entry: SvaBugEntry, rng: random.Random) -> CotDraft:
        """A CoT that reasons its way to a wrong conclusion (imperfect teacher)."""
        source = SourceFile(entry.buggy_source)
        code_lines = source.code_line_numbers()
        if rng.random() < 0.5 and len(code_lines) > 1:
            # Wrong line: pick a different functional line near the real bug.
            neighbours = [n for n in code_lines if n != entry.line_number]
            claimed_line = min(
                neighbours, key=lambda n: (abs(n - entry.line_number), n)
            )
            claimed_buggy = source.line(claimed_line)
            claimed_fix = strip_comment(claimed_buggy)
        else:
            # Right line, wrong fix: keep the buggy line essentially unchanged.
            claimed_line = entry.line_number
            claimed_buggy = entry.buggy_line
            claimed_fix = entry.buggy_line
        return CotDraft(
            text=write_cot(entry, claimed_line, claimed_buggy, claimed_fix),
            claimed_line_number=claimed_line,
            claimed_buggy_line=claimed_buggy,
            claimed_fix=claimed_fix,
        )

    @staticmethod
    def validate(entry: SvaBugEntry, draft: CotDraft) -> bool:
        """Compare the CoT's conclusions with the golden solution (paper's script)."""
        right_line = draft.claimed_line_number == entry.line_number
        right_fix = lines_equivalent(draft.claimed_fix, entry.golden_line)
        return right_line and right_fix

    def annotate(self, entries: list[SvaBugEntry]) -> tuple[int, int, list[dict]]:
        """Generate + validate CoTs for every entry in place.

        Per-entry jobs fan out through :func:`repro.runtime.run_stage_jobs`
        (entries carry all their own state and the drift RNG is derived per
        entry), and the drafts are applied back in entry order, so the
        annotations are byte-identical for any worker count.  Entries whose
        CoT job is quarantined keep ``cot=None``/``cot_valid=False`` and are
        reported in the skip list.

        Returns:
            (generated_count, valid_count, skipped_records)
        """
        drafts, skipped = run_stage_jobs(
            "stage3",
            entries,
            _cot_job,
            self._policy,
            [entry.name for entry in entries],
            context=self._config,
        )
        valid = 0
        generated = 0
        for entry, draft in zip(entries, drafts):
            if draft is None:  # quarantined: the entry stays un-annotated
                continue
            text, cot_valid = draft
            entry.cot = text
            entry.cot_valid = cot_valid
            generated += 1
            if cot_valid:
                valid += 1
        return generated, valid, skipped


def _cot_job(entry: SvaBugEntry, config: Stage3Config) -> tuple[str, bool]:
    """Worker function: one entry's CoT text and validation verdict."""
    generator = CotGenerator(config)
    draft = generator.generate(entry)
    return draft.text, generator.validate(entry, draft)


def run_stage3(
    entries: list[SvaBugEntry],
    config: Optional[Stage3Config] = None,
    policy: JobPolicy = JobPolicy(),
) -> tuple[int, int, list[dict]]:
    """Convenience wrapper: annotate ``entries`` with CoTs and return the counts."""
    return CotGenerator(config, policy).annotate(entries)

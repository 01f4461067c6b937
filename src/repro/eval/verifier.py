"""The semantic repair verifier (the "re-run the EDA tools" half of Fig. 2).

A candidate repair is judged the way a verification engineer would judge it:
apply the suggested line rewrite to the buggy source, re-compile, re-simulate
on fresh stimulus, and re-check every assertion.  The result is a structured
:class:`RepairVerdict` -- compile failure, simulation failure, assertion
failure (with the failing assertions and cycle), or pass.

Verification stimulus is always *independent* of the stimulus the bug was
mined with: :func:`derive_verification_seeds` derives fresh seeds from the
case name and never returns the mining seed, mirroring the Stage-2 rule that
a mined invariant must be validated on a trace it was not mined from.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.artifacts import default_store
from repro.eval.cache import VerdictCache, verdict_key
from repro.obs import get_registry
from repro.hdl.source import SourceFile, lines_equivalent
from repro.sva.kernel import simulate_and_check

#: The packages (and one module) whose code decides a verdict.
VERIFIER_SOURCES = ("hdl", "sim", "sva", "analyze", "eval/verifier.py")


def verifier_version(package: Path = Path(__file__).resolve().parent.parent) -> str:
    """``repro_eval_verifier/<digest>`` of the code that decides a verdict.

    The digest is a SHA-256 over every ``.py`` file of
    :data:`VERIFIER_SOURCES` under ``package`` (the ``repro`` directory),
    each by relative path and bytes, so any change to that code keys every
    old verdict-cache entry out.
    """
    files: list[Path] = []
    for name in VERIFIER_SOURCES:
        path = package / name
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    digest = hashlib.sha256()
    for path in files:
        for part in (path.relative_to(package).as_posix().encode(), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return f"repro_eval_verifier/{digest.hexdigest()[:16]}"


#: Part of every verdict key, so a verdict is never served across code changes.
VERIFIER_VERSION = verifier_version()

#: Default number of independent stimulus seeds a fix must survive.
DEFAULT_SEED_COUNT = 2

#: Random stimulus cycles per seed when a caller names no cycle budget.
DEFAULT_CYCLES = 48


def derive_verification_seeds(
    case_name: str, mining_seed: int, count: int = DEFAULT_SEED_COUNT, base_seed: int = 2027
) -> tuple[int, ...]:
    """Fresh, deterministic stimulus seeds for verifying one case.

    The seeds depend only on the case name and ``base_seed`` (so they are
    identical for any worker count and case order) and are guaranteed to
    differ from ``mining_seed``: verifying a repair on the very stimulus the
    bug was mined with would leak the counterexample into the check.
    """
    seeds: list[int] = []
    raw = zlib.crc32(case_name.encode()) ^ (base_seed * 0x9E3779B1 & 0xFFFFFFFF)
    offset = 0
    while len(seeds) < count:
        candidate = (raw + 1_000_003 * offset) & 0x7FFFFFFF
        offset += 1
        if candidate != mining_seed and candidate not in seeds:
            seeds.append(candidate)
    return tuple(seeds)


@dataclass(frozen=True)
class CandidateFix:
    """One candidate repair: a single-line rewrite of the buggy source."""

    line_number: int
    fixed_line: str
    bug_line: str = ""  # the line the fix claims to replace (used to relocate)


@dataclass
class RepairVerdict:
    """Structured outcome of verifying one candidate fix."""

    #: "pass" | "compile_fail" | "sim_error" | "assertion_fail" | "not_applicable",
    #: plus "infra_error" -- synthesised by :mod:`repro.eval.executor` when the
    #: verification *infrastructure* failed (worker crash/hang/exception under
    #: ``on_error="quarantine"``); unlike "sim_error" it says nothing about the
    #: candidate repair, and scoring excludes such cases from pass@k.
    status: str
    seeds: tuple[int, ...] = ()
    cycles: int = 0
    applied_line_number: int = 0
    failing_assertions: list[str] = field(default_factory=list)
    failing_seed: Optional[int] = None
    first_failure_cycle: Optional[int] = None
    exercised: bool = False  # some assertion's antecedent matched on some seed
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "seeds": list(self.seeds),
            "cycles": self.cycles,
            "applied_line_number": self.applied_line_number,
            "failing_assertions": list(self.failing_assertions),
            "failing_seed": self.failing_seed,
            "first_failure_cycle": self.first_failure_cycle,
            "exercised": self.exercised,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RepairVerdict":
        return cls(
            status=str(payload["status"]),
            seeds=tuple(payload.get("seeds", ())),
            cycles=int(payload.get("cycles", 0)),
            applied_line_number=int(payload.get("applied_line_number", 0)),
            failing_assertions=list(payload.get("failing_assertions", [])),
            failing_seed=payload.get("failing_seed"),
            first_failure_cycle=payload.get("first_failure_cycle"),
            exercised=bool(payload.get("exercised", False)),
            detail=str(payload.get("detail", "")),
        )


class SemanticVerifier:
    """Applies candidate fixes and re-runs the full check loop.

    Verdicts are memoised in-process and, when a :class:`VerdictCache` is
    supplied, persisted content-addressed on disk so repeated evaluations
    (and other worker processes) skip the simulation entirely.  Compiled
    artifacts (lowered simulators and checkers) come from an
    :class:`~repro.artifacts.ArtifactStore`: every candidate -- a one-line
    edit of its case's buggy source -- names that source as its base, so
    the store compiles the buggy source once and re-parses and relowers
    each candidate incrementally against it.  A test reaches the
    tree-walking checker oracle by passing a store whose ``checker()``
    returns it.
    """

    def __init__(self, cache: Optional[VerdictCache] = None, artifacts=None):
        self.cache = cache
        self._memo: dict[str, RepairVerdict] = {}
        self.artifacts = artifacts if artifacts is not None else default_store()

    # ------------------------------------------------------------------ #
    # fix application
    # ------------------------------------------------------------------ #

    def apply_fix(self, buggy_source: str, fix: CandidateFix) -> tuple[Optional[str], int, str]:
        """Locate the target line and splice in the rewrite.

        Returns ``(patched_source, line_number, detail)``; ``patched_source``
        is ``None`` when no plausible target line exists.
        """
        source = SourceFile(buggy_source)
        line_number = fix.line_number
        in_range = 1 <= line_number <= source.line_count
        if fix.bug_line.strip():
            if not in_range or not lines_equivalent(source.line(line_number), fix.bug_line):
                located = source.find_line(fix.bug_line)
                if located:
                    line_number = located
                    in_range = True
        if not in_range:
            return None, 0, f"line {fix.line_number} is outside the source"
        patched = source.with_line_replaced(line_number, fix.fixed_line)
        return patched.text, line_number, ""

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #

    def verify(
        self,
        buggy_source: str,
        fix: CandidateFix,
        seeds: Sequence[int],
        cycles: int = DEFAULT_CYCLES,
    ) -> RepairVerdict:
        """Full verdict for one fix, via the caches when possible.

        Fix application (cheap, pure text) always runs; only the simulation
        verdict of the resulting patched source is cached, so fixes that
        relocate to different lines can never share an entry.  ``cycles``
        is the stimulus length of this call (callers with per-case cycle
        budgets share one verifier; the cache key includes the cycle count).
        """
        seeds = tuple(seeds)
        patched, line_number, detail = self.apply_fix(buggy_source, fix)
        if patched is None:
            return RepairVerdict(
                status="not_applicable", seeds=seeds, cycles=cycles, detail=detail
            )
        key = verdict_key(patched, seeds, cycles, VERIFIER_VERSION)
        verdict = self._memo.get(key)
        if verdict is not None:
            get_registry().inc("eval.memo.hits")
        if verdict is None and self.cache is not None:
            stored = self.cache.get(key)
            if stored is not None:
                verdict = RepairVerdict.from_dict(stored)
                self._memo[key] = verdict
        if verdict is None:
            verdict = self.verify_source(
                patched, seeds, cycles=cycles, base_source=buggy_source
            )
            self._memo[key] = verdict
            if self.cache is not None:
                self.cache.put(key, verdict.to_dict())
        # The patch site is call-local metadata, not part of the cached verdict.
        return replace(
            verdict,
            applied_line_number=line_number,
            failing_assertions=list(verdict.failing_assertions),
        )

    def verify_source(
        self,
        patched_source: str,
        seeds: Sequence[int],
        cycles: int = DEFAULT_CYCLES,
        base_source: Optional[str] = None,
    ) -> RepairVerdict:
        """Compile + simulate + check ``patched_source`` on every seed.

        One run of :func:`repro.sva.kernel.simulate_and_check`, re-parsed
        and relowered against ``base_source`` (the case's buggy source;
        None compiles and lowers from scratch), mapped onto a
        :class:`RepairVerdict`.
        """
        seeds = tuple(seeds)
        (outcome,) = simulate_and_check(
            self.artifacts, [(patched_source, seeds)], cycles, "verify", base_source
        )
        if outcome.design is None:
            return RepairVerdict(
                status="compile_fail", seeds=seeds, cycles=cycles,
                detail=outcome.compile_error,
            )
        if outcome.failure is not None:
            seed, report = outcome.failure
            first = report.first_failure()
            return RepairVerdict(
                status="assertion_fail",
                seeds=seeds,
                cycles=cycles,
                failing_assertions=report.failed_assertions,
                failing_seed=seed,
                first_failure_cycle=first.fail_cycle if first else None,
                exercised=outcome.exercised,
                detail=first.render() if first else "",
            )
        if outcome.sim_error is not None:
            seed, message = outcome.sim_error
            return RepairVerdict(
                status="sim_error", seeds=seeds, cycles=cycles,
                failing_seed=seed, detail=message,
            )
        return RepairVerdict(
            status="pass", seeds=seeds, cycles=cycles, exercised=outcome.exercised
        )

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

import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.eval.cache import VerdictCache, verdict_key
from repro.hdl.lint import compile_source
from repro.obs import get_registry, phase
from repro.hdl.source import SourceFile, lines_equivalent
from repro.sim.compile import CompileError
from repro.sim.engine import SimulationError, Simulator, SimulatorOptions
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import CheckerBackend

#: Bumped whenever verdict semantics change: keys old cache entries out.
#: v2: ``$past`` depth arguments are constant-folded with parameters and
#: pre-trace ``$past`` unknowns carry the argument expression's real width.
VERIFIER_VERSION = "repro_eval_verifier/v2"

#: Default number of independent stimulus seeds a fix must survive.
DEFAULT_SEED_COUNT = 2


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
    #: How the verdict was produced: "simulated" (the full compile +
    #: simulate + check loop), "cone_skip" (the static screen proved the
    #: edit invisible to every assertion and returned the memoised base
    #: verdict).
    provenance: str = "simulated"

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
            "provenance": self.provenance,
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
            provenance=str(payload.get("provenance", "simulated")),
        )


@dataclass(frozen=True)
class VerifierConfig:
    """Stimulus sizing and backend selection for verification runs."""

    cycles: int = 48
    reset_cycles: int = 2
    #: Assertion-checker backend: "auto" (compiled with tree-walking
    #: fallback), "compiled" or "interp" (the differential oracle).
    checker_backend: str = "auto"
    #: "incremental" routes compilation through the artifact cache and
    #: relowers each candidate against its case's buggy base; "off" compiles
    #: every candidate from scratch (the historical path, kept for the
    #: benchmark's cold leg and as an escape hatch).  Deliberately *not*
    #: part of the verdict cache key: both modes are byte-identical in
    #: verdicts, pinned by the differential tests.
    artifact_mode: str = "incremental"
    #: Static screening in front of the simulator:
    #:
    #: * ``"off"`` -- every candidate simulates (the historical path).
    #: * ``"cone"`` -- candidates whose edit is provably outside every
    #:   assertion's cone of influence return the case's memoised base
    #:   verdict without simulating (sound: see
    #:   :func:`repro.analyze.cone.cone_screen`).
    #:
    #: ``"cone"`` gets its own verdict-cache keyspace, so screened outcomes
    #: can never be served to unscreened runs.
    static_screen: str = "off"


class SemanticVerifier:
    """Applies candidate fixes and re-runs the full check loop.

    Verdicts are memoised in-process and, when a :class:`VerdictCache` is
    supplied, persisted content-addressed on disk so repeated evaluations
    (and other worker processes) skip the simulation entirely.  Compiled
    artifacts (lowered simulators and checkers) come from an
    :class:`~repro.artifacts.ArtifactStore`: each case's buggy base is
    compiled once, and every candidate -- a one-line mutant of it -- is
    relowered incrementally against that base.
    """

    def __init__(
        self,
        config: Optional[VerifierConfig] = None,
        cache: Optional[VerdictCache] = None,
        artifacts=None,
    ):
        self.config = config or VerifierConfig()
        if self.config.static_screen not in ("off", "cone"):
            raise ValueError(
                f"unknown static_screen {self.config.static_screen!r} (off | cone)"
            )
        self.cache = cache
        self._memo: dict[str, RepairVerdict] = {}
        self.artifacts = None
        if self.config.artifact_mode != "off":
            if artifacts is None:
                from repro.artifacts import default_store

                artifacts = default_store()
            self.artifacts = artifacts
        #: Per buggy source: its (compiled design, checker) base artifacts,
        #: either of which may be None (uncompilable source / no base yet).
        self._bases: dict[str, tuple] = {}
        #: Screening state: elaborated designs per source text and the base
        #: (unpatched) verdict per (source, seeds, cycles) -- what cone_skip
        #: returns in place of simulating an invisible edit.
        self._designs: dict[str, object] = {}
        self._base_verdicts: dict[tuple, RepairVerdict] = {}

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
        cycles: Optional[int] = None,
    ) -> RepairVerdict:
        """Full verdict for one fix, via the caches when possible.

        Fix application (cheap, pure text) always runs; only the simulation
        verdict of the resulting patched source is cached, so fixes that
        relocate to different lines can never share an entry.  ``cycles``
        overrides the config's stimulus length for this call (callers with
        per-case cycle budgets share one verifier; the cache key includes
        the cycle count).
        """
        seeds = tuple(seeds)
        cycles = self.config.cycles if cycles is None else cycles
        patched, line_number, detail = self.apply_fix(buggy_source, fix)
        if patched is None:
            return RepairVerdict(
                status="not_applicable", seeds=seeds, cycles=cycles, detail=detail
            )
        # A forced backend gets its own cache keyspace: re-running with the
        # "interp" differential oracle must actually re-check, not be served
        # a compiled run's cached verdicts (which would mask any divergence).
        # Screened runs are partitioned the same way: a cone_skip entry
        # must never answer an unscreened lookup.
        version = self._unscreened_version()
        if self.config.static_screen != "off":
            version = f"{version}+screen:{self.config.static_screen}"
        key = verdict_key(patched, seeds, cycles, self.config.reset_cycles, version)
        verdict = self._memo.get(key)
        if verdict is not None:
            get_registry().inc("eval.memo.hits")
        if verdict is None and self.cache is not None:
            stored = self.cache.get(key)
            if stored is not None:
                get_registry().inc("eval.verdict_cache.hits")
                verdict = RepairVerdict.from_dict(stored)
                self._memo[key] = verdict
            else:
                get_registry().inc("eval.verdict_cache.misses")
        if verdict is None and self.config.static_screen != "off":
            verdict = self._static_screen(buggy_source, patched, seeds, cycles)
            if verdict is not None:
                self._memo[key] = verdict
                if self.cache is not None:
                    self.cache.put(key, verdict.to_dict())
        if verdict is None:
            base = self._base_artifacts(buggy_source)
            verdict = self.verify_source(patched, seeds, cycles=cycles, base=base)
            self._memo[key] = verdict
            if self.cache is not None:
                self.cache.put(key, verdict.to_dict())
        # The patch site is call-local metadata, not part of the cached verdict.
        verdict = RepairVerdict.from_dict(verdict.to_dict())
        verdict.applied_line_number = line_number
        return verdict

    def _base_artifacts(self, buggy_source: str) -> tuple:
        """The buggy base's (compiled design, checker), compiled once per case.

        Candidates are one-line mutants of their case's buggy source, so
        these artifacts are the relowering base for every candidate of the
        case.  Either element may be ``None`` (artifact mode off, or the
        base itself does not compile) -- candidates then lower fully, which
        is always correct.
        """
        if self.artifacts is None:
            return (None, None)
        cached = self._bases.get(buggy_source)
        if cached is not None:
            return cached
        base_compiled = None
        base_checker = None
        design, _ = self.artifacts.elaborate_source(buggy_source)
        if design is not None:
            base_compiled = self.artifacts.compiled_design(design)
            try:
                base_checker = self.artifacts.checker(
                    design, backend=self.config.checker_backend
                )
            except CompileError:
                base_checker = None
        result = (base_compiled, base_checker)
        self._bases[buggy_source] = result
        return result

    # ------------------------------------------------------------------ #
    # static screening (VerifierConfig.static_screen != "off")
    # ------------------------------------------------------------------ #

    def _unscreened_version(self) -> str:
        """The verdict-key version an unscreened run of this config uses."""
        if self.config.checker_backend != "auto":
            return f"{VERIFIER_VERSION}+{self.config.checker_backend}"
        return VERIFIER_VERSION

    def _design_of(self, source: str):
        """Elaborate ``source`` for screening, memoised per source text."""
        if source in self._designs:
            return self._designs[source]
        if self.artifacts is not None:
            design, _ = self.artifacts.elaborate_source(source, persist=False)
        else:
            result = compile_source(source)
            design = result.design if result.ok else None
        self._designs[source] = design
        return design

    def _dfg_of(self, design):
        if self.artifacts is not None:
            return self.artifacts.dataflow(design)
        from repro.analyze.dfg import SignalDfg

        return SignalDfg(design)

    def _base_verdict(self, buggy_source: str, seeds: tuple, cycles: int) -> RepairVerdict:
        """The buggy base's own simulated verdict (what cone_skip returns).

        Produced by the same unscreened pipeline a no-op candidate would
        run, and cached under the *unscreened* keyspace: it is a genuine
        simulation result, shared with (and byte-identical to) what a
        ``static_screen="off"`` run of the same source would compute.
        """
        memo_key = (buggy_source, seeds, cycles)
        verdict = self._base_verdicts.get(memo_key)
        if verdict is not None:
            return verdict
        key = verdict_key(
            buggy_source, seeds, cycles, self.config.reset_cycles, self._unscreened_version()
        )
        if self.cache is not None:
            stored = self.cache.get(key)
            if stored is not None:
                get_registry().inc("eval.verdict_cache.hits")
                verdict = RepairVerdict.from_dict(stored)
        if verdict is None:
            base = self._base_artifacts(buggy_source)
            verdict = self.verify_source(buggy_source, seeds, cycles=cycles, base=base)
            if self.cache is not None:
                self.cache.put(key, verdict.to_dict())
        self._base_verdicts[memo_key] = verdict
        return verdict

    def _static_screen(
        self, buggy_source: str, patched_source: str, seeds: tuple, cycles: int
    ) -> Optional[RepairVerdict]:
        """Try to decide the candidate without simulating it.

        Returns ``None`` when the screen cannot decide (the candidate then
        takes the normal simulation path, whose verdict is byte-identical
        to an unscreened run's).  The cone screen is sound, so a skipped
        candidate's verdict equals what simulating it would produce.
        """
        from repro.analyze.cone import cone_screen

        base_design = self._design_of(buggy_source)
        patched_design = self._design_of(patched_source)
        if base_design is None or patched_design is None:
            # Compile failures keep the normal path so details stay
            # byte-identical to unscreened runs.
            return None
        registry = get_registry()
        with phase("verify.screen"):
            base_dfg = self._dfg_of(base_design)
            patched_dfg = self._dfg_of(patched_design)
            decision = cone_screen(base_dfg, patched_dfg)
            if decision.overlap:
                registry.inc("analyze.cone.overlap")
            if decision.skip:
                base_verdict = self._base_verdict(buggy_source, seeds, cycles)
                # Refuse to skip onto anything but a clean simulation
                # outcome: a sim_error or compile_fail base says the
                # *base* is broken, not that the equality argument holds.
                if base_verdict.status in ("pass", "assertion_fail"):
                    registry.inc("analyze.cone.skip")
                    verdict = RepairVerdict.from_dict(base_verdict.to_dict())
                    verdict.provenance = "cone_skip"
                    return verdict
        return None

    def verify_source(
        self,
        patched_source: str,
        seeds: Sequence[int],
        cycles: Optional[int] = None,
        base: tuple = (None, None),
    ) -> RepairVerdict:
        """Compile + simulate + check ``patched_source`` on every seed.

        The first seed is simulated and checked on its own -- most wrong
        candidates already fail there, and that path must stay one
        simulation + one check.  Only when it passes are the remaining
        seeds simulated and their traces pushed through the lowered
        checker in **one batch pass** (:meth:`check_batch`), paying the
        per-assertion dispatch once for the rest of the batch -- and, for
        attempt-tensor assertions, stacking the per-seed columns into one
        padded (seed x cycle) grid so each assertion is resolved for all
        remaining seeds in a single 2-D numpy evaluation.  (With many
        verification seeds this trades away the old early exit on a
        *middle* seed's assertion failure -- a candidate that already
        survived seed one rarely fails later, and the default is two
        seeds, so the batch is the better default.)  The
        verdict is identical to the historical seed-by-seed loop --
        failures are attributed to the first failing seed in seed order, a
        simulation error on a later seed still loses to an assertion
        failure on an earlier one, and ``exercised`` accumulates over
        exactly the seeds the old loop would have checked -- so cached
        verdicts stay valid.
        """
        seeds = tuple(seeds)
        cycles = self.config.cycles if cycles is None else cycles
        base_compiled, base_checker = base
        compiled = None
        with phase("verify.compile"):
            if self.artifacts is not None:
                # Candidates are one-shot: read the disk tier through but
                # never write to it (only base designs persist, in
                # :meth:`_base_artifacts`).
                design, first_error = self.artifacts.elaborate_source(
                    patched_source, persist=False
                )
                if design is None:
                    return RepairVerdict(
                        status="compile_fail", seeds=seeds, cycles=cycles,
                        detail=first_error,
                    )
                # Lowered via the artifact cache (LRU hit for repeat
                # candidates, incremental relowering against the case's
                # buggy base otherwise); ``compiled`` stays None when the
                # compiled backend rejects the design, and the Simulator
                # factory falls back exactly as it always has.
                compiled = self.artifacts.compiled_design(design, base=base_compiled)
                try:
                    checker = self.artifacts.checker(
                        design, backend=self.config.checker_backend, base=base_checker
                    )
                except CompileError:
                    checker = self.artifacts.checker(
                        design, backend="auto", base=base_checker
                    )
            else:
                result = compile_source(patched_source)
                if not result.ok or result.design is None:
                    first_error = (
                        result.errors[0].render() if result.errors else "compilation failed"
                    )
                    return RepairVerdict(
                        status="compile_fail", seeds=seeds, cycles=cycles,
                        detail=first_error,
                    )
                design = result.design
                # Lowered once per patched design, shared by every stimulus seed.
                try:
                    checker = CheckerBackend(design, backend=self.config.checker_backend)
                except CompileError:
                    # Only the strict "compiled" backend can raise (an
                    # assertion the lowering rejects).  Verification must
                    # yield a verdict, not an exception that aborts a whole
                    # eval run, and "auto" is outcome-identical, so degrade
                    # to the per-assertion fallback.
                    checker = CheckerBackend(design, backend="auto")
        def simulate(seed: int):
            with phase("verify.simulate"):
                stimulus = StimulusGenerator(design, seed=seed).mixed_stimulus(
                    random_cycles=cycles, reset_cycles=self.config.reset_cycles
                )
                # Column recording streams per-signal (value, xmask) change
                # events into the trace while simulating, so the vectorised
                # checker's columnar view costs O(changes) per seed and the
                # trace never needs to materialise per-cycle dicts; each
                # candidate's columns are then built once per trace inside
                # the batched checking pass.
                options = SimulatorOptions(record_columns=True)
                return Simulator(design, options, compiled=compiled).run(stimulus.vectors)

        exercised = False

        def failure_verdict(seed: int, report) -> RepairVerdict:
            first = report.first_failure()
            return RepairVerdict(
                status="assertion_fail",
                seeds=seeds,
                cycles=cycles,
                failing_assertions=report.failed_assertions,
                failing_seed=seed,
                first_failure_cycle=first.fail_cycle if first else None,
                exercised=exercised,
                detail=first.render() if first else "",
            )

        # First seed alone: the common assertion_fail verdict exits here
        # after exactly one simulation and one check.
        try:
            first_trace = simulate(seeds[0]) if seeds else None
        except SimulationError as exc:
            return RepairVerdict(
                status="sim_error", seeds=seeds, cycles=cycles,
                failing_seed=seeds[0], detail=str(exc),
            )
        if first_trace is not None:
            with phase("verify.check"):
                report = checker.check(first_trace)
            exercised = any(
                outcome.antecedent_matches > 0 for outcome in report.outcomes.values()
            )
            if not report.passed:
                return failure_verdict(seeds[0], report)

        # Remaining seeds: simulate, then one batched checking pass.
        simulated: list[tuple[int, object]] = []
        sim_failure: Optional[tuple[int, str]] = None
        for seed in seeds[1:]:
            try:
                simulated.append((seed, simulate(seed)))
            except SimulationError as exc:
                sim_failure = (seed, str(exc))
                break
        with phase("verify.check"):
            reports = checker.check_batch([trace for _, trace in simulated])
        for (seed, _), report in zip(simulated, reports):
            exercised = exercised or any(
                outcome.antecedent_matches > 0 for outcome in report.outcomes.values()
            )
            if not report.passed:
                return failure_verdict(seed, report)
        if sim_failure is not None:
            return RepairVerdict(
                status="sim_error", seeds=seeds, cycles=cycles,
                failing_seed=sim_failure[0], detail=sim_failure[1],
            )
        return RepairVerdict(status="pass", seeds=seeds, cycles=cycles, exercised=exercised)

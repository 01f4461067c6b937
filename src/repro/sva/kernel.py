"""The simulate-and-check kernel: one source text, judged on stimulus seeds.

Both halves of the paper's loop run the same EDA steps: Stage 2 simulates
every compiling mutant against the validated assertions, and the repair
verifier re-runs them for every candidate fix.  :func:`simulate_and_check`
is that loop, once:

1. elaborate the source through an :class:`~repro.artifacts.ArtifactStore`
   (the store's source-keyed LRU makes a repeat source a cache hit, and a
   one-line edit of the cached base source re-parses one module item);
2. lower it for the compiled simulator and the compiled assertion checker,
   relowering only the dirty cone against an optional base
   (:func:`lower_design`);
3. simulate each seed (the compiled simulator records only column events,
   and no per-cycle sample is ever realised);
4. check the first seed alone -- most failing designs already fail there
   -- and the remaining seeds in one stacked :meth:`check_batch` pass.

There is one configuration.  Tests reach the oracles by handing the kernel
a store whose :meth:`~repro.artifacts.ArtifactStore.checker` returns the
tree-walking :class:`~repro.sva.checker.AssertionChecker`.

Callers map the returned :class:`CheckOutcome` onto their own records
(:class:`~repro.eval.verifier.RepairVerdict`, Stage-2 dataset entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.hdl.elaborate import ElaboratedDesign
from repro.obs import phase
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import CheckReport


@dataclass
class CheckOutcome:
    """What one :func:`simulate_and_check` run found.

    At most one of ``compile_error``, ``sim_error`` and ``failure`` is set;
    none set means every seed simulated and every assertion held.
    """

    #: The elaborated design (None when the source does not compile).
    design: Optional[ElaboratedDesign]
    #: The first compile diagnostic, rendered (empty when it compiled).
    compile_error: str = ""
    #: ``(seed, message)`` of the first simulation error.
    sim_error: Optional[tuple[int, str]] = None
    #: ``(seed, report)`` of the first seed whose check failed.
    failure: Optional[tuple[int, CheckReport]] = None
    #: Some assertion's antecedent matched on some checked seed.
    exercised: bool = False


def lower_design(store, design: ElaboratedDesign, base: tuple) -> tuple:
    """``design``'s (compiled simulator design, checker), via ``store``.

    ``base`` is a ``(compiled design, checker)`` pair to relower against
    (either may be None).  The compiled design is None when the compiled
    simulator rejects the design; the :class:`Simulator` factory then falls
    back to the interpreter.
    """
    base_compiled, base_checker = base
    compiled = store.compiled_design(design, base=base_compiled)
    return compiled, store.checker(design, base=base_checker)


def _exercised(report: CheckReport) -> bool:
    return any(outcome.antecedent_matches > 0 for outcome in report.outcomes.values())


def simulate_and_check(
    store,
    source: str,
    seeds: Sequence[int],
    cycles: int,
    reset_cycles: int,
    base: tuple,
    stage: str,
    base_source: Optional[str] = None,
) -> CheckOutcome:
    """Elaborate, lower, simulate and check ``source`` on every seed.

    ``base`` and ``base_source`` describe the design ``source`` is an edit
    of: its ``(compiled design, checker)`` pair to relower against and its
    source text to re-parse against (see
    :meth:`~repro.artifacts.ArtifactStore.compile`); any may be None.
    ``stage`` names the phases (``<stage>.compile`` / ``.simulate`` /
    ``.check`` spans and histograms).  ``seeds`` must not be empty: a
    source judged on no stimulus would pass vacuously, so an empty tuple
    raises ``ValueError``.

    The outcome is the historical seed-by-seed loop's: failures are
    attributed to the first failing seed in seed order, a simulation error
    on a later seed loses to an assertion failure on an earlier one, and
    ``exercised`` accumulates over exactly the seeds that loop would have
    checked.  (Checking the remaining seeds as one batch trades away an
    early exit on a middle seed's failure; a design that survived the
    first seed rarely fails later.)
    """
    if not seeds:
        raise ValueError("simulate_and_check needs at least one stimulus seed")
    with phase(f"{stage}.compile"):
        design, first_error = store.elaborate_source(source, base_source)
        if design is None:
            return CheckOutcome(design=None, compile_error=first_error)
        compiled, checker = lower_design(store, design, base)

    def simulate(seed: int):
        with phase(f"{stage}.simulate"):
            stimulus = StimulusGenerator(design, seed=seed).mixed_stimulus(
                random_cycles=cycles, reset_cycles=reset_cycles
            )
            return Simulator(design, compiled=compiled).run(stimulus.vectors)

    outcome = CheckOutcome(design=design)
    try:
        first_trace = simulate(seeds[0])
    except SimulationError as exc:
        outcome.sim_error = (seeds[0], str(exc))
        return outcome
    with phase(f"{stage}.check"):
        report = checker.check(first_trace)
    outcome.exercised = _exercised(report)
    if not report.passed:
        outcome.failure = (seeds[0], report)
        return outcome

    simulated: list[tuple[int, object]] = []
    sim_error: Optional[tuple[int, str]] = None
    for seed in seeds[1:]:
        try:
            simulated.append((seed, simulate(seed)))
        except SimulationError as exc:
            sim_error = (seed, str(exc))
            break
    reports = []
    if simulated:
        with phase(f"{stage}.check"):
            reports = checker.check_batch([trace for _, trace in simulated])
    for (seed, _), report in zip(simulated, reports):
        outcome.exercised = outcome.exercised or _exercised(report)
        if not report.passed:
            outcome.failure = (seed, report)
            return outcome
    outcome.sim_error = sim_error
    return outcome

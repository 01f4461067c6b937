"""The simulate-and-check kernel: source texts, judged on stimulus seeds.

Both halves of the paper's loop run the same EDA steps: Stage 2 simulates
every compiling mutant against the validated assertions, and the repair
verifier re-runs them for every candidate fix.  :func:`simulate_and_check`
is that loop, once, over a batch of sources:

1. elaborate each source through an :class:`~repro.artifacts.ArtifactStore`
   (the store's source-keyed LRU makes a repeat source a cache hit, and a
   one-line edit of the named base source re-parses one module item);
2. lower it for the compiled simulator and the compiled assertion checker
   through the same store entry, relowering only the dirty cone against
   the base source's lowerings;
3. simulate every source's first seed (the compiled simulator records only
   column events, and no per-cycle sample is ever realised) and check all
   of those traces in one pass -- most failing designs already fail there;
4. carry only the sources that passed to their remaining seeds, simulate
   those and check all of their traces in a second pass.

A pass groups traces by :meth:`CompiledAssertionChecker.batch_key`: sources
whose checkers hold the identical lowering for every assertion (mutants or
candidates relowered against one base) share one stacked
:meth:`~CompiledAssertionChecker.check_batch` call.  A source is checked
alone, by its own checker, when its checker runs an assertion on the
tree-walker (or is the tree-walking :class:`AssertionChecker` itself), or
when it lowered any assertion afresh.  The ``<stage>.check.batches`` /
``<stage>.check.batched_traces`` counters and the labelled
``<stage>.check.alone[tree_walker | lowering_not_shared]`` counter (one
count per trace) record the grouping.

There is one configuration.  Tests reach the oracles by handing the kernel
a store whose :meth:`~repro.artifacts.ArtifactStore.checker` returns the
tree-walking :class:`~repro.sva.checker.AssertionChecker`.

Callers map each returned :class:`CheckOutcome` onto their own records
(:class:`~repro.eval.verifier.RepairVerdict`, Stage-2 dataset entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.hdl.elaborate import ElaboratedDesign
from repro.obs import phase
from repro.obs.metrics import get_registry, labeled
from repro.sim.compile import CompiledDesign, CompiledSimulator
from repro.sim.engine import SimulationError
from repro.sim.stimulus import StimulusGenerator
from repro.sim.trace import DiffTrace, Trace
from repro.sva.checker import AssertionChecker, CheckReport
from repro.sva.compile import CompiledAssertionChecker

if TYPE_CHECKING:
    from repro.artifacts.store import ArtifactStore

Checker = Union[CompiledAssertionChecker, AssertionChecker]


@dataclass
class CheckOutcome:
    """What :func:`simulate_and_check` found for one source.

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


def simulate_seed(compiled: CompiledDesign, seed: int, cycles: int) -> DiffTrace:
    """Run ``compiled``'s design on the mixed stimulus of ``seed``.

    The stimulus is :meth:`StimulusGenerator.mixed_stimulus` with
    ``cycles`` random cycles after the standard reset.  Raises
    :class:`~repro.sim.engine.SimulationError` when the design does not
    simulate (a combinational loop, say).
    """
    design = compiled.design
    stimulus = StimulusGenerator(design, seed=seed).mixed_stimulus(random_cycles=cycles)
    return CompiledSimulator(design, compiled=compiled).run(stimulus.vectors)


def _exercised(report: CheckReport) -> bool:
    return any(outcome.antecedent_matches > 0 for outcome in report.outcomes.values())


def _alone_reason(checker: Checker) -> str:
    """Why a source whose checker has no batch key is checked alone."""
    if isinstance(checker, CompiledAssertionChecker) and all(
        choice["engine"] == "tensor" for choice in checker.engine_choices.values()
    ):
        return "lowering_not_shared"
    return "tree_walker"


def _check_pass(
    stage: str, checkers: dict[int, Checker], traces: dict[int, list[Trace]]
) -> dict[int, list[CheckReport]]:
    """Check every source's traces; sources sharing a batch key share one call.

    Returns each source's reports in trace order, outcome-identical to its
    own checker's :meth:`check_batch` over its traces.
    """
    registry = get_registry()
    groups: dict[
        tuple[object, ...],
        tuple[CompiledAssertionChecker, list[tuple[int, int]], list[Trace]],
    ] = {}
    results: dict[tuple[int, int], CheckReport] = {}
    for index, source_traces in traces.items():
        if not source_traces:
            continue
        checker = checkers[index]
        if not isinstance(checker, CompiledAssertionChecker) or (
            key := checker.batch_key()
        ) is None:
            registry.inc(
                labeled(f"{stage}.check.alone", _alone_reason(checker)), len(source_traces)
            )
            with phase(f"{stage}.check"):
                reports = checker.check_batch(source_traces)
            results.update(((index, p), report) for p, report in enumerate(reports))
            continue
        _, slots, grouped = groups.setdefault(key, (checker, [], []))
        slots.extend((index, p) for p in range(len(source_traces)))
        grouped.extend(source_traces)
    for shared, slots, grouped in groups.values():
        registry.inc(f"{stage}.check.batches")
        registry.inc(f"{stage}.check.batched_traces", len(grouped))
        with phase(f"{stage}.check"):
            results.update(zip(slots, shared.check_batch(grouped)))
    return {
        index: [results[(index, p)] for p in range(len(source_traces))]
        for index, source_traces in traces.items()
    }


def simulate_and_check(
    store: ArtifactStore,
    items: Sequence[tuple[str, Sequence[int]]],
    cycles: int,
    stage: str,
    base_source: Optional[str] = None,
) -> list[CheckOutcome]:
    """Elaborate, lower, simulate and check each ``(source, seeds)`` item.

    Every source is an edit of one base: ``base_source`` names its text,
    whose parse each source re-parses against and whose lowerings each
    source relowers against (see :class:`~repro.artifacts.ArtifactStore`);
    None lowers every source from scratch.
    ``stage`` names the phases (``<stage>.compile`` / ``.simulate`` /
    ``.check`` spans and histograms) and the grouping counters.  No item's
    seeds may be empty: a source judged on no stimulus would pass
    vacuously, so an empty seed tuple raises ``ValueError``.

    Returns one :class:`CheckOutcome` per item, in item order, each the
    historical seed-by-seed loop's for that source alone: failures are
    attributed to the first failing seed in seed order, a simulation error
    on a later seed loses to an assertion failure on an earlier one, and
    ``exercised`` accumulates over exactly the seeds that loop would have
    checked.  (Checking the remaining seeds as one pass trades away an
    early exit on a middle seed's failure; a design that survived the
    first seed rarely fails later.)
    """
    judged = [(source, tuple(seeds)) for source, seeds in items]
    if any(not seeds for _, seeds in judged):
        raise ValueError("simulate_and_check needs at least one stimulus seed per source")
    outcomes: list[CheckOutcome] = []
    # Index of each compiling source -> its design lowered for simulation.
    lowered: dict[int, CompiledDesign] = {}
    checkers: dict[int, Checker] = {}
    for index, (source, _) in enumerate(judged):
        with phase(f"{stage}.compile"):
            design, first_error = store.elaborate_source(source, base_source)
            if design is not None:
                lowered[index] = store.compiled_design(source, base_source)
                checkers[index] = store.checker(source, base_source)
        outcomes.append(CheckOutcome(design=design, compile_error=first_error))

    def simulate(index: int, seed: int) -> Trace:
        with phase(f"{stage}.simulate"):
            return simulate_seed(lowered[index], seed, cycles)

    first: dict[int, list[Trace]] = {}
    for index in lowered:
        seed = judged[index][1][0]
        try:
            first[index] = [simulate(index, seed)]
        except SimulationError as exc:
            outcomes[index].sim_error = (seed, str(exc))
    survivors: list[int] = []
    for index, (report,) in _check_pass(stage, checkers, first).items():
        outcomes[index].exercised = _exercised(report)
        if not report.passed:
            outcomes[index].failure = (judged[index][1][0], report)
        elif len(judged[index][1]) > 1:
            survivors.append(index)

    rest: dict[int, list[Trace]] = {}
    late_errors: dict[int, tuple[int, str]] = {}
    for index in survivors:
        rest[index] = []
        for seed in judged[index][1][1:]:
            try:
                rest[index].append(simulate(index, seed))
            except SimulationError as exc:
                late_errors[index] = (seed, str(exc))
                break
    rest_reports = _check_pass(stage, checkers, rest)
    for index in survivors:
        outcome = outcomes[index]
        for seed, report in zip(judged[index][1][1:], rest_reports[index]):
            outcome.exercised = outcome.exercised or _exercised(report)
            if not report.passed:
                outcome.failure = (seed, report)
                break
        else:
            outcome.sim_error = late_errors.get(index)
    return outcomes

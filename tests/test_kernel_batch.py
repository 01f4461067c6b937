"""The many-source simulate-and-check kernel against the one-source loop.

:func:`reference_simulate_and_check` keeps the kernel body that judged one
source per call (check the first seed alone, ``check_batch`` the rest) as
the oracle.  The production kernel takes many sources, checks every first
seed in one pass and every survivor's remaining seeds in a second, and
batches sources whose checkers share their assertion lowerings; each
source's :class:`CheckOutcome` must still equal the oracle's -- compile
error, simulation error, failing seed and report, and ``exercised`` --
across every template family's injector mutants, on one and three seeds,
on batches mixing non-compiling, sim-erroring and passing sources, for a
mutant whose declared width change forces it to be checked alone, and
with the tree-walking checker.  Stage 2, which triages a sample's mutants
through one call, must write the same bytes as a per-mutant loop.
"""


import pytest

from repro.artifacts import ArtifactStore
from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.generator import CorpusGenerator
from repro.corpus.templates import all_families
from repro.dataaug import stage2 as stage2_module
from repro.dataaug.pipeline import PipelineConfig
from repro.dataaug.stage1 import run_stage1
from repro.dataaug.stage2 import Stage2Runner
from repro.obs import labeled, scoped_registry
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import SimulationError
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import insert_assertions, mine_assertions, template_assertion_blocks
from repro.sva.kernel import CheckOutcome, simulate_and_check

FAMILIES = all_families()
CYCLES = 24


def _exercised(report):
    return any(outcome.antecedent_matches > 0 for outcome in report.outcomes.values())


def reference_simulate_and_check(store, source, seeds, cycles, base_source=None):
    """The one-source kernel: first seed checked alone, the rest batched."""
    if not seeds:
        raise ValueError("simulate_and_check needs at least one stimulus seed")
    design, first_error = store.elaborate_source(source, base_source)
    if design is None:
        return CheckOutcome(design=None, compile_error=first_error)
    compiled = store.compiled_design(source, base_source)
    checker = store.checker(source, base_source)

    def simulate(seed):
        stimulus = StimulusGenerator(design, seed=seed).mixed_stimulus(random_cycles=cycles)
        return CompiledSimulator(design, compiled=compiled).run(stimulus.vectors)

    outcome = CheckOutcome(design=design)
    try:
        first_trace = simulate(seeds[0])
    except SimulationError as exc:
        outcome.sim_error = (seeds[0], str(exc))
        return outcome
    report = checker.check(first_trace)
    outcome.exercised = _exercised(report)
    if not report.passed:
        outcome.failure = (seeds[0], report)
        return outcome

    simulated = []
    sim_error = None
    for seed in seeds[1:]:
        try:
            simulated.append((seed, simulate(seed)))
        except SimulationError as exc:
            sim_error = (seed, str(exc))
            break
    reports = checker.check_batch([trace for _, trace in simulated]) if simulated else []
    for (seed, _), report in zip(simulated, reports):
        outcome.exercised = outcome.exercised or _exercised(report)
        if not report.passed:
            outcome.failure = (seed, report)
            return outcome
    outcome.sim_error = sim_error
    return outcome


def outcome_key(outcome):
    """Every field of a CheckOutcome a caller reads, comparably."""
    failure = None
    if outcome.failure is not None:
        seed, report = outcome.failure
        failure = (
            seed,
            [(name, result.comparison_key()) for name, result in report.outcomes.items()],
        )
    return (
        outcome.design is None,
        outcome.compile_error,
        outcome.sim_error,
        failure,
        outcome.exercised,
    )


class TreeWalkerStore(ArtifactStore):
    """An artifact store whose checker is the tree-walking oracle."""

    def __init__(self):
        super().__init__()
        self.walkers = {}

    def checker(self, source, base_source=None):
        if source not in self.walkers:
            self.walkers[source] = AssertionChecker(self.elaborate_source(source)[0])
        return self.walkers[source]


def augmented_golden(store, family):
    """(source, design) of the family's representative with assertions inserted."""
    artifact = family.build(f"kb_{family.name}", **family.parameter_grid[0])
    design, _ = store.elaborate_source(artifact.source)
    assert design is not None
    mining = CompiledSimulator(design).run(
        StimulusGenerator(design, seed=7).mixed_stimulus(random_cycles=CYCLES).vectors
    )
    candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
    candidates.extend(mine_assertions(design, mining, max_assertions=5))
    if not candidates:
        return None, None
    augmented = insert_assertions(artifact.source, candidates)
    augmented_design, _ = store.elaborate_source(augmented)
    return augmented, augmented_design


def family_items(family, seeds):
    """The family's augmented golden plus its injector mutants, as items."""
    source, design = augmented_golden(ArtifactStore(), family)
    if design is None:
        return None, []
    injector = BugInjector(InjectionConfig(seed=17, max_bugs_per_design=5))
    mutants = injector.inject(f"kb_{family.name}", source, design)
    return source, [(source, seeds)] + [(bug.buggy_source, seeds) for bug in mutants]


def judge_both(items, base_source, batch_store, oracle_store, stage="kb"):
    """Outcomes of one many-source call and of the per-source oracle loop.

    Each side relowers against its own store's lowering of ``base_source``
    (or against nothing), so no lowered state is shared between them."""
    batched = simulate_and_check(batch_store, items, CYCLES, stage, base_source)
    singles = [
        reference_simulate_and_check(oracle_store, source, seeds, CYCLES, base_source)
        for source, seeds in items
    ]
    return batched, singles


def assert_outcomes_equal(batched, singles):
    assert len(batched) == len(singles)
    for index, (got, want) in enumerate(zip(batched, singles)):
        assert outcome_key(got) == outcome_key(want), f"item {index} diverges"


@pytest.mark.parametrize("seeds", [(5,), (5, 6, 7)], ids=["one_seed", "three_seeds"])
def test_many_source_call_matches_per_source_loop(seeds):
    """Every family's golden + injector mutants in one call per family."""
    checked = failing = survived_first_seed = 0
    with scoped_registry() as registry:
        for family in FAMILIES:
            source, items = family_items(family, seeds)
            if source is None:
                continue
            batched, singles = judge_both(items, source, ArtifactStore(), ArtifactStore())
            assert_outcomes_equal(batched, singles)
            checked += len(items)
            failing += sum(outcome.failure is not None for outcome in batched)
            survived_first_seed += sum(
                outcome.failure is not None and outcome.failure[0] != seeds[0]
                or outcome.failure is None and outcome.sim_error is None
                for outcome in batched
            )
    assert checked >= 100
    assert failing >= 10, "no mutant failed an assertion; the test lost its teeth"
    assert survived_first_seed >= 10
    # The mutants of a family share their base's lowerings and were batched.
    assert registry.counter("kb.check.batches") >= len(FAMILIES) * len(seeds) // 2
    assert registry.counter("kb.check.batched_traces") > registry.counter("kb.check.batches")


FLAKY_SOURCE = """
module flaky(input wire clk, input wire rst_n, input wire [7:0] d, output reg [7:0] q);
    wire a;
    assign a = (d == 8'd200) ? ~a : 1'b0;
    always @(posedge clk or negedge rst_n)
        if (!rst_n) q <= 8'd0; else q <= d;
    a_never77: assert property (@(posedge clk) disable iff (!rst_n) q != 8'd77);
endmodule
"""

BROKEN_SOURCE = "module broken(input wire clk; endmodule\n"


def classify_seeds(store, source, candidates):
    """Single-seed verdicts of ``source``: seeds that pass, fail and sim-error."""
    found = {"pass": [], "fail": [], "error": []}
    for seed in candidates:
        outcome = reference_simulate_and_check(store, source, (seed,), CYCLES)
        kind = "error" if outcome.sim_error else "fail" if outcome.failure else "pass"
        found[kind].append(seed)
    return found


def test_mixed_batch_keeps_each_sources_seed_semantics():
    """Non-compiling, sim-erroring, failing and passing sources in one call,
    with seed orders where a later sim error loses to an earlier failure,
    an earlier sim error wins over a later failure, and a late sim error
    follows passing seeds."""
    kinds = classify_seeds(ArtifactStore(), FLAKY_SOURCE, range(1, 80))
    assert all(len(seeds) >= 2 for seeds in kinds.values()), kinds
    (p1, p2), (f1, _), (e1, _) = (kinds[k][:2] for k in ("pass", "fail", "error"))
    golden, _ = augmented_golden(ArtifactStore(), FAMILIES[0])
    items = [
        (BROKEN_SOURCE, (p1,)),
        (FLAKY_SOURCE, (e1, p1)),
        (FLAKY_SOURCE, (p1, f1, e1)),
        (FLAKY_SOURCE, (p1, e1, f1)),
        (FLAKY_SOURCE, (p1, p2, e1)),
        (FLAKY_SOURCE, (p1, p2)),
        (FLAKY_SOURCE, (f1, p1)),
        (golden, (3, 4)),
        (BROKEN_SOURCE, (p1, p2)),
    ]
    batched, singles = judge_both(items, None, ArtifactStore(), ArtifactStore())
    assert_outcomes_equal(batched, singles)
    assert batched[0].compile_error and batched[0].design is None
    assert batched[1].sim_error[0] == e1
    assert batched[2].failure[0] == f1 and batched[2].sim_error is None
    assert batched[3].sim_error[0] == e1 and batched[3].failure is None
    assert batched[4].sim_error[0] == e1
    assert batched[5].failure is None and batched[5].sim_error is None
    assert batched[6].failure[0] == f1


WIDTH_SOURCE = """
module widthmut(input wire clk, input wire rst_n, input wire [3:0] a, output reg [3:0] b);
    always @(posedge clk or negedge rst_n)
        if (!rst_n) b <= 4'd0; else b <= a;
    a_follow: assert property (@(posedge clk) disable iff (!rst_n) 1'b1 |=> b == $past(a));
endmodule
"""


def test_width_changing_mutant_is_checked_alone():
    """A mutant that widens an asserted signal cannot reuse the base's
    lowerings, so it is checked by its own checker; the logic mutants
    beside it share one batch.  Outcomes equal the oracle's either way."""
    widened = WIDTH_SOURCE.replace("output reg [3:0] b", "output reg [4:0] b")
    flipped = WIDTH_SOURCE.replace("else b <= a;", "else b <= a ^ 4'd1;")
    ored = WIDTH_SOURCE.replace("else b <= a;", "else b <= a | 4'd0;")
    seeds = (1, 2, 3)
    items = [(widened, seeds), (flipped, seeds), (ored, seeds)]
    store = ArtifactStore()
    with scoped_registry() as registry:
        batched, singles = judge_both(items, WIDTH_SOURCE, store, ArtifactStore())
    assert_outcomes_equal(batched, singles)
    checkers = [store.checker(source) for source, _ in items]
    assert checkers[0].batch_key() is None
    assert checkers[1].batch_key() is not None
    assert checkers[1].batch_key() == checkers[2].batch_key()
    assert batched[1].failure is not None
    assert batched[2].failure is None and batched[2].sim_error is None
    # Round one: the widened mutant alone, the two logic mutants batched;
    # round two: the widened and the or-ed mutant (the flipped one failed).
    alone = labeled("kb.check.alone", "lowering_not_shared")
    assert registry.counter(alone) == 1 + (len(seeds) - 1)
    assert registry.counter("kb.check.batches") == 2
    assert registry.counter("kb.check.batched_traces") == 2 + (len(seeds) - 1)


def test_tree_walker_store_checks_every_source_alone():
    """With the tree-walking checker every source is its own oracle; the
    verdicts also equal the compiled checker's batched ones."""
    seeds = (5, 6)
    source, items = family_items(FAMILIES[1], seeds)
    with scoped_registry() as registry:
        walked, singles = judge_both(items, source, TreeWalkerStore(), TreeWalkerStore())
    assert_outcomes_equal(walked, singles)
    compiled, _ = judge_both(items, source, ArtifactStore(), ArtifactStore())
    assert_outcomes_equal(walked, compiled)
    traces_checked = sum(
        0 if outcome.design is None or (outcome.sim_error and outcome.sim_error[0] == seeds[0])
        else 1 if outcome.failure and outcome.failure[0] == seeds[0]
        else len(seeds)
        for outcome in walked
    )
    assert registry.counter(labeled("kb.check.alone", "tree_walker")) == traces_checked
    assert registry.counter("kb.check.batches") == 0


def test_batch_key_demands_shared_tensor_lowerings():
    store = ArtifactStore()
    source, design = augmented_golden(store, FAMILIES[0])
    base = store.checker(source)
    assert isinstance(base, CompiledAssertionChecker)
    # A freshly lowered checker shares nothing.
    assert base.batch_key() is None
    edited = source.replace("module kb_", "module kb2_", 1)
    twin = CompiledAssertionChecker(store.elaborate_source(edited)[0], base=base)
    assert twin.assertions_reused == len(design.assertions)
    assert twin.batch_key() is not None and hash(twin.batch_key()) is not None


def test_empty_items_and_empty_seeds():
    store = ArtifactStore()
    assert simulate_and_check(store, [], CYCLES, "kb") == []
    with pytest.raises(ValueError):
        simulate_and_check(store, [(WIDTH_SOURCE, (1,)), (WIDTH_SOURCE, ())], CYCLES, "kb")


def test_stage2_result_matches_the_per_mutant_loop(monkeypatch):
    """Stage 2 triaging a sample's mutants through one call writes the
    same bytes as judging each mutant by itself with the oracle kernel."""
    config = PipelineConfig.default(design_count=24)
    samples = run_stage1(CorpusGenerator(config.corpus).generate()).compiled
    batched = Stage2Runner(config.stage2).run(samples)

    def per_mutant(store, items, cycles, stage, base_source=None):
        return [
            reference_simulate_and_check(store, source, seeds, cycles, base_source)
            for source, seeds in items
        ]

    monkeypatch.setattr(stage2_module, "simulate_and_check", per_mutant)
    looped = Stage2Runner(config.stage2).run(samples)
    assert batched.sva_bug and batched.verilog_bug
    assert batched == looped

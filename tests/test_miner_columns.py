"""The column-reading trace miners against the per-sample loops they replaced.

:class:`ReferenceMiner` keeps the original one-hot and implication miners,
which read every cycle's sampled value through the trace samples.  The
production miners read one :meth:`Trace.columns` call instead, and
``mine_assertions`` must return identical lists -- same names, bodies,
kinds and order -- on compiled and interpreted traces of every template
family, on injected mutants, and on ``x_initial_state`` traces whose stable
windows hold unknown cycles the miners must skip.

The same suite pins that production never materialises a sample of a
compiled trace: neither mining nor :func:`simulate_and_check` touches the
trace's sample cache.
"""

import itertools

import pytest

from repro.artifacts import ArtifactStore
from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator, SimulationError, SimulatorOptions
from repro.sim.stimulus import StimulusGenerator
from repro.sim.trace import DiffTrace
from repro.sva.generator import (
    AssertionMiner,
    insert_assertions,
    mine_assertions,
    template_assertion_blocks,
)
from repro.sva.kernel import simulate_and_check

FAMILIES = all_families()
X_INIT = SimulatorOptions(x_initial_state=True)
MAX_ASSERTIONS = 100


class ReferenceMiner(AssertionMiner):
    """The per-sample one-hot and implication loops, kept as the oracle."""

    def _sampled_ints(self, name):
        values = []
        for sample in self._trace:
            value = sample.sampled(name)
            values.append(None if value.has_unknown else value.to_int())
        return values

    def _stable_cycles(self):
        return range(min(4, len(self._trace) - 1), len(self._trace))

    def _mine_onehot_properties(self, clock, names, columns, start):
        mined = []
        clock_candidates = self._design.clock_candidates()
        clock = clock_candidates[0] if clock_candidates else "clk"
        for signal in self._design.state_signals:
            if signal.width < 2 or signal.width > 16:
                continue
            values = self._sampled_ints(signal.name)
            window = [values[i] for i in self._stable_cycles() if values[i] is not None]
            if len(window) < 4:
                continue
            if all(v and bin(v).count("1") == 1 for v in window):
                body = f"$onehot({signal.name})"
                description = f"{signal.name} must stay one-hot"
                mined.append(self._make(f"{signal.name}_onehot", clock, body, description, "onehot"))
        return mined

    def _mine_implication_properties(self, clock, names, columns, start):
        mined = []
        clock_candidates = self._design.clock_candidates()
        clock = clock_candidates[0] if clock_candidates else "clk"
        single_bit = [
            s
            for s in self._design.signals.values()
            if s.width == 1 and not s.is_input and s.name != clock
        ]
        reset_name = self._reset.name if self._reset is not None else None
        cycles = list(self._stable_cycles())
        for left, right in itertools.permutations(single_bit, 2):
            if reset_name in (left.name, right.name):
                continue
            left_values = self._sampled_ints(left.name)
            right_values = self._sampled_ints(right.name)
            antecedent_seen = 0
            implication_holds = True
            equal_everywhere = True
            for cycle in cycles:
                lv, rv = left_values[cycle], right_values[cycle]
                if lv is None or rv is None:
                    continue
                if lv != rv:
                    equal_everywhere = False
                if lv:
                    antecedent_seen += 1
                    if not rv:
                        implication_holds = False
            if equal_everywhere and antecedent_seen >= 2:
                body = f"{left.name} == {right.name}"
                description = f"{left.name} must equal {right.name}"
                mined.append(
                    self._make(f"{left.name}_eq_{right.name}", clock, body, description, "equality")
                )
            elif implication_holds and antecedent_seen >= 3:
                body = f"{left.name} |-> {right.name}"
                description = f"{right.name} must be high whenever {left.name} is high"
                mined.append(
                    self._make(
                        f"{left.name}_implies_{right.name}", clock, body, description, "implication"
                    )
                )
            if len(mined) >= 4:
                break
        return mined


def as_tuples(assertions):
    return [(a.name, a.property_text, a.assert_text, a.kind) for a in assertions]


def assert_miners_agree(design, trace, kinds):
    """Column miner == per-sample oracle, at the default and an open cap.

    The column miner runs first: on a compiled trace it must not realise a
    single sample (the oracle then does, through the trace samples).
    """
    mined = {cap: mine_assertions(design, trace, max_assertions=cap) for cap in (6, MAX_ASSERTIONS)}
    if isinstance(trace, DiffTrace):
        assert trace._cache == [], "mining materialised trace samples"
    for cap, assertions in mined.items():
        reference = ReferenceMiner(design, trace).mine(max_assertions=cap)
        assert as_tuples(assertions) == as_tuples(reference), f"miners diverge at cap {cap}"
    kinds.update(a.kind for a in mined[MAX_ASSERTIONS])


def golden_design(family):
    artifact = family.build(f"mine_{family.name}", **family.parameter_grid[0])
    result = compile_source(artifact.source)
    assert result.ok and result.design is not None, result.render()
    return artifact, result.design


def traces(design, seed, options=None, reset_cycles=2):
    vectors = StimulusGenerator(design, seed=seed).mixed_stimulus(
        random_cycles=24, reset_cycles=reset_cycles
    ).vectors
    return [
        CompiledSimulator(design, options=options).run(vectors),
        InterpSimulator(design, options=options).run(vectors),
    ]


def has_unknown_stable_cycle(design, trace):
    """Whether some trace-mined signal is unknown at a stable cycle."""
    columns = trace.columns()
    return any(
        columns.xmasks[name][4:].any()
        for name, signal in design.signals.items()
        if not signal.is_input and signal.width <= 16
    )


def test_column_miners_match_per_sample_loops_on_every_family():
    kinds = set()
    for family in FAMILIES:
        _, design = golden_design(family)
        for seed in (3, 8):
            for trace in traces(design, seed):
                assert_miners_agree(design, trace, kinds)
    assert {"implication", "equality"} <= kinds


def test_column_miners_match_on_x_initial_state_traces():
    """Without a reset prefix, x-initialised registers stay unknown into the
    stable window: those cycles are skipped, not read as values."""
    kinds = set()
    unknown_windows = 0
    for family in FAMILIES:
        _, design = golden_design(family)
        for reset_cycles in (0, 2):
            for trace in traces(design, 5, options=X_INIT, reset_cycles=reset_cycles):
                unknown_windows += has_unknown_stable_cycle(design, trace)
                assert_miners_agree(design, trace, kinds)
    assert unknown_windows >= 10
    assert "onehot" in kinds


UNRESET_SOURCE = """
module unreset(input wire clk, input wire load, input wire d, output reg flag, output reg seen);
    always @(posedge clk) begin
        flag <= d;
        if (load) seen <= 1'b1;
    end
endmodule
"""


def test_unknown_cycles_are_skipped_not_read_as_zero():
    """``seen`` has no reset: under ``x_initial_state`` it is unknown until
    the first load, while ``flag`` is already high.  Only skipping those
    cycles leaves ``flag |-> seen`` minable."""
    design = compile_source(UNRESET_SOURCE).design
    assert design is not None
    vectors = [{"load": 0, "d": 1}] * 10 + [{"load": 1, "d": 1}] + [
        {"load": 0, "d": bit} for bit in (1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1)
    ]
    kinds = set()
    for simulator in (CompiledSimulator, InterpSimulator):
        trace = simulator(design, options=X_INIT).run(vectors)
        assert has_unknown_stable_cycle(design, trace)
        assert_miners_agree(design, trace, kinds)
        bodies = [a.property_text for a in mine_assertions(design, trace)]
        assert any("flag |-> seen" in body for body in bodies), bodies


def test_column_miners_match_on_injected_mutants():
    injector = BugInjector(InjectionConfig(seed=23, max_bugs_per_design=3))
    kinds = set()
    checked = 0
    for family in FAMILIES:
        artifact, design = golden_design(family)
        for bug in injector.inject(artifact.name, artifact.source, design):
            buggy = compile_source(bug.buggy_source)
            if not buggy.ok or buggy.design is None:
                continue
            try:
                mutant_traces = traces(buggy.design, 9)
            except SimulationError:
                continue
            for trace in mutant_traces:
                assert_miners_agree(buggy.design, trace, kinds)
            checked += 1
    assert checked >= 30


def test_simulate_and_check_never_materialises_samples(monkeypatch):
    """Every compiled trace the kernel simulates stays sample-free, in a
    multi-source call (the augmented golden plus its mutants, relowered
    against it and checked in shared batches) on several seeds."""
    recorded = []
    run = CompiledSimulator.run

    def recording_run(self, stimulus):
        trace = run(self, stimulus)
        recorded.append(trace)
        return trace

    monkeypatch.setattr(CompiledSimulator, "run", recording_run)
    store = ArtifactStore()
    injector = BugInjector(InjectionConfig(seed=31, max_bugs_per_design=3))
    checked = 0
    for family in FAMILIES:
        artifact, design = golden_design(family)
        vectors = StimulusGenerator(design, seed=7).mixed_stimulus(random_cycles=24).vectors
        candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
        candidates.extend(mine_assertions(design, CompiledSimulator(design).run(vectors)))
        if not candidates:
            continue
        augmented = insert_assertions(artifact.source, candidates)
        augmented_design, _ = store.elaborate_source(augmented)
        mutants = injector.inject(artifact.name, augmented, augmented_design)
        items = [(augmented, (1, 2, 3))] + [(bug.buggy_source, (1, 2, 3)) for bug in mutants]
        outcomes = simulate_and_check(store, items, 24, "test", augmented)
        assert len(outcomes) == len(items)
        assert outcomes[0].design is not None and outcomes[0].sim_error is None
        checked += 1
    assert checked >= 20
    # One mining trace plus at least one kernel trace per checked family.
    assert len(recorded) >= 2 * checked
    assert all(trace._cache == [] for trace in recorded), (
        "simulate_and_check materialised trace samples"
    )


@pytest.mark.parametrize("options", [None, X_INIT], ids=["zero_init", "x_init"])
def test_mining_reads_one_column_build(options):
    """The trace miners share a single memoised column build."""
    _, design = golden_design(FAMILIES[0])
    trace = traces(design, 3, options=options)[0]
    mine_assertions(design, trace)
    assert len(trace.__dict__.get("_columns_memo", {})) == 1
    assert trace._cache == []

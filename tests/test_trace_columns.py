"""Tests for the columnar trace layer and the attempt-tensor checking engine.

Three contracts are pinned here:

* ``DiffTrace.columns()`` (built from the column events the compiled
  simulator records) agrees element-for-element with the row-oriented
  sampled values and with the sample-built ``Trace.columns()`` oracle,
  columns are memoised per trace (invalidated on append), and a quiet
  design's DiffTrace builds its columns without materialising per-cycle
  sample dicts;
* the two checking engines -- attempt tensor and tree-walking oracle --
  are outcome-identical across every template family and for injected
  mutants (including failing reports), and the tensor lowers *every*
  template assertion (this suite fails if the lowering silently demotes
  one);
* adversarial attempt shapes (dense antecedent starts, attempts spanning
  the trace end, ``disable iff`` pulses mid-attempt, pre-trace ``$past``),
  ragged-length stacked batches and a design mixing a tensor assertion
  with a >63-bit tree-walker one stay verdict-identical too.
"""

import pickle

import numpy as np
import pytest

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import SimulationError
from repro.sim.stimulus import StimulusGenerator
from repro.sim.trace import INT64_COLUMN_MAX_WIDTH
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import insert_assertions, mine_assertions, template_assertion_blocks

FAMILIES = all_families()


def augmented_design(family, prefix="col"):
    artifact = family.build(f"{prefix}_{family.name}", **family.parameter_grid[0])
    golden = compile_source(artifact.source)
    if not golden.ok or golden.design is None:
        return None, None
    mining_trace = CompiledSimulator(golden.design).run(
        StimulusGenerator(golden.design, seed=7).mixed_stimulus(random_cycles=24).vectors
    )
    candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
    candidates.extend(mine_assertions(golden.design, mining_trace, max_assertions=5))
    if not candidates:
        return None, None
    augmented = insert_assertions(artifact.source, candidates)
    result = compile_source(augmented)
    if not result.ok or result.design is None:
        return None, None
    return augmented, result.design


def simulate(design, seed=11, cycles=24):
    vectors = StimulusGenerator(design, seed=seed).mixed_stimulus(random_cycles=cycles).vectors
    return CompiledSimulator(design).run(vectors)


def assert_columns_match_samples(trace, names):
    columns = trace.columns(names)
    reference = trace.materialized()
    assert columns.cycles == len(reference)
    for name in names:
        expected_v = [s.sampled(name).value for s in reference.samples]
        expected_x = [s.sampled(name).xmask for s in reference.samples]
        assert columns.values[name].tolist() == expected_v, name
        assert columns.xmasks[name].tolist() == expected_x, name
        assert columns.widths[name] == reference.samples[0].sampled(name).width


# --------------------------------------------------------------------------- #
# columns differential
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family", FAMILIES[:10], ids=[f.name for f in FAMILIES[:10]])
def test_columns_match_sampled_values(family):
    """Recorded and dict-backed columns both equal the samples."""
    _, design = augmented_design(family)
    if design is None:
        pytest.skip("family yields no augmented design")
    names = sorted(design.signals)
    # DiffTrace with simulator-recorded column events.
    assert_columns_match_samples(simulate(design), names)
    # Fully materialised dict-backed trace.
    assert_columns_match_samples(simulate(design).materialized(), names)


def test_recorded_and_derived_columns_identical():
    _, design = augmented_design(FAMILIES[0], prefix="rec")
    if design is None:
        pytest.skip("family yields no augmented design")
    names = sorted(design.signals)
    # The oracle: columns derived from the materialised samples.
    derived = simulate(design).materialized().columns(names)
    recorded = simulate(design).columns(names)
    for name in names:
        assert np.array_equal(derived.values[name], recorded.values[name])
        assert np.array_equal(derived.xmasks[name], recorded.xmasks[name])


QUIET_SOURCE = """
module quiet(input wire clk, input wire [3:0] a, output reg [3:0] b);
    always @(posedge clk) begin
        b <= a;
    end
endmodule
"""


def test_difftrace_columns_do_not_densify():
    """A quiet design's columns must come from the recorded events, not
    materialised dicts."""
    design = compile_source(QUIET_SOURCE).design
    assert design is not None
    # Constant input: after the first cycle nothing changes.
    trace = CompiledSimulator(design).run([{"a": 5}] * 40)
    columns = trace.columns(["a", "b"])
    assert trace._cache == [], "columns() materialised per-cycle samples"
    assert columns.values["a"].tolist() == [5] * 40
    assert columns.values["b"].tolist()[2:] == [5] * 38


def test_columns_unknown_signal_raises_clear_error():
    design = compile_source(QUIET_SOURCE).design
    trace = CompiledSimulator(design).run([{"a": 1}] * 4)
    with pytest.raises(KeyError, match="not in trace"):
        trace.columns(["a", "ghost"])
    with pytest.raises(KeyError, match="no column"):
        trace.columns(["a"]).signal("b")


BOUNDARY_SOURCE = """
module bounds(input wire clk, input wire [62:0] a63, input wire [63:0] a64,
              input wire a1, output reg [62:0] q63, output reg [63:0] q64,
              output reg q1);
    always @(posedge clk) begin
        q63 <= a63 + 1;
        q64 <= a64 ^ {a64[31:0], a64[63:32]};
        q1 <= ~a1;
    end
endmodule
"""


def test_one_array_column_build_at_the_int64_boundary():
    """The event-built columns of a 63-bit, a 64-bit and a 1-bit signal
    equal the sample-built base columns; only the 64-bit ones are object
    arrays.  Unknown inputs and values at the top of each width included."""
    from repro.sim import X
    from repro.sim.trace import Trace

    design = compile_source(BOUNDARY_SOURCE).design
    assert design is not None
    top63, top64 = (1 << 63) - 1, (1 << 64) - 1
    vectors = [
        {"a63": top63, "a64": top64, "a1": 1},
        {"a63": X, "a64": 5, "a1": X},
        {"a63": 7, "a64": X, "a1": 0},
        {"a63": 7, "a64": top64 - 1, "a1": 0},
        {"a63": top63 - 1, "a64": 1 << 63, "a1": 1},
    ] * 3
    trace = CompiledSimulator(design).run(vectors)
    names = ["q1", "a64", "a63", "q64", "a1", "q63"]
    built = trace.columns(names)
    oracle = Trace._build_columns(trace.materialized(), names)
    assert built.cycles == oracle.cycles == len(vectors)
    assert built.widths == oracle.widths
    assert list(built.values) == names
    for name in names:
        for got, want in ((built.values[name], oracle.values[name]),
                          (built.xmasks[name], oracle.xmasks[name])):
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name
    assert built.values["a64"].dtype == object
    assert built.values["a63"].dtype == np.int64
    assert max(built.values["a63"].tolist()) == top63
    assert max(built.values["a64"].tolist()) == top64
    assert any(built.xmasks["a63"].tolist()) and any(built.xmasks["a64"].tolist())

    empty = CompiledSimulator(design).run([])
    assert len(empty) == 0
    columns = empty.columns(names)
    # A zero-cycle base trace has no sample to read widths from.
    oracle = Trace._build_columns(empty.materialized(), names)
    assert columns.cycles == oracle.cycles == 0
    for name in names:
        assert columns.values[name].tolist() == oracle.values[name].tolist() == []
        assert columns.xmasks[name].tolist() == oracle.xmasks[name].tolist() == []
    assert columns.widths == {name: design.signals[name].width for name in names}


WIDE_SOURCE = """
module wide(input wire clk, input wire [70:0] a, output reg [70:0] b);
    always @(posedge clk) begin
        b <= a;
    end
    property p_follow;
        @(posedge clk) 1'b1 |-> $past(a) == b;
    endproperty
    a_follow: assert property (p_follow);
endmodule
"""


def test_wide_signals_use_object_columns_and_tree_walker_fallback():
    """>63-bit signals degrade to object columns; the assertion reading
    them is demoted to the tree-walker, naming the int64 column limit."""
    design = compile_source(WIDE_SOURCE).design
    assert design is not None
    assert design.signals["a"].width > INT64_COLUMN_MAX_WIDTH
    big = (1 << 70) | 3
    trace = CompiledSimulator(design).run([{"a": big}] * 8)
    columns = trace.columns(["a"])
    assert columns.values["a"].dtype == object
    assert columns.values["a"].tolist() == [big] * 8
    checker = CompiledAssertionChecker(design)
    choice = checker.engine_choices["a_follow"]
    assert choice["engine"] == "tree_walker"
    assert "int64 column limit" in choice["reason"]
    report = checker.check(trace)
    oracle = AssertionChecker(design).check(trace)
    assert (
        report.outcomes["a_follow"].comparison_key()
        == oracle.outcomes["a_follow"].comparison_key()
    )
    assert report.outcomes["a_follow"].passes > 0


# --------------------------------------------------------------------------- #
# attempt tensor vs tree-walker differential
# --------------------------------------------------------------------------- #


def assert_engines_identical(design, trace):
    """attempt tensor vs tree-walking oracle, outcome for outcome."""
    oracle = AssertionChecker(design).check(trace)
    tensor = CompiledAssertionChecker(design).check(trace)
    assert sorted(oracle.outcomes) == sorted(tensor.outcomes)
    for name in oracle.outcomes:
        assert (
            oracle.outcomes[name].comparison_key()
            == tensor.outcomes[name].comparison_key()
        ), f"assertion '{name}' diverges between checking engines"


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_vectorised_outcomes_identical(family):
    _, design = augmented_design(family, prefix="vec")
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    checker = CompiledAssertionChecker(design)
    # Every assertion must lower: a demotion costs ~60x on that assertion.
    demoted = {
        name: choice["reason"]
        for name, choice in checker.engine_choices.items()
        if choice["engine"] != "tensor"
    }
    assert not demoted, f"assertions demoted to the tree-walker: {demoted}"
    # The tensor must engage on both diff-backed and dict-backed traces
    # (different columns() implementations).
    diff_trace = simulate(design, seed=12, cycles=32)
    assert_engines_identical(design, diff_trace)
    assert_engines_identical(design, simulate(design, seed=13, cycles=32).materialized())


def test_vectorised_mutant_outcomes_identical():
    """Buggy designs (where assertions actually fail) must also agree."""
    injector = BugInjector(InjectionConfig(seed=23, max_bugs_per_design=2))
    checked = failing = 0
    for family in FAMILIES[:10]:
        source, design = augmented_design(family, prefix="vmut")
        if design is None or not design.assertions:
            continue
        for bug in injector.inject(f"vmut_{family.name}", source, design):
            buggy = compile_source(bug.buggy_source)
            if not buggy.ok or buggy.design is None:
                continue
            try:
                trace = simulate(buggy.design, seed=9)
            except SimulationError:
                continue
            assert_engines_identical(buggy.design, trace)
            checked += 1
            if not AssertionChecker(buggy.design).check(trace).passed:
                failing += 1
    assert checked >= 5
    assert failing >= 1, "no mutant produced a failing report; test lost its teeth"


def test_check_assertion_public_entry_point():
    """The oracle's single-assertion entry point is public and consistent."""
    _, design = augmented_design(FAMILIES[0], prefix="pub")
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    trace = simulate(design)
    oracle = AssertionChecker(design)
    spec = design.assertions[0]
    outcome = oracle.check_assertion(spec, trace)
    assert outcome.comparison_key() == oracle.check(trace).outcomes[spec.name].comparison_key()


def test_attempt_tensor_engages_and_is_observable():
    """Template assertions run on the tensor, and a real demotion (a
    >63-bit operand) is named in the engine report."""
    _, design = augmented_design(FAMILIES[0], prefix="eng")
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    report = CompiledAssertionChecker(design).engine_report()
    assert set(report) == {"engines", "fallback_reasons", "assertions"}
    assert report["engines"] == {"tensor": len(design.assertions), "tree_walker": 0}
    assert report["fallback_reasons"] == {}
    for choice in report["assertions"].values():
        assert choice == {"engine": "tensor", "reason": None}
    wide = CompiledAssertionChecker(compile_source(WIDE_SOURCE).design).engine_report()
    assert wide["engines"] == {"tensor": 0, "tree_walker": 1}
    [(reason, count)] = wide["fallback_reasons"].items()
    assert "int64 column limit" in reason and count == 1


# --------------------------------------------------------------------------- #
# adversarial attempt shapes and ragged stacked batches
# --------------------------------------------------------------------------- #


ADVERSARIAL_SOURCE = """
module adversarial(
    input wire clk,
    input wire rst,
    input wire req,
    input wire [3:0] data,
    output reg [3:0] acc
);
    always @(posedge clk) begin
        if (rst) acc <= 4'd0;
        else acc <= acc + data;
    end
    // Dense antecedent starts: with req held high, every cycle opens an
    // attempt whose multi-element antecedent overlaps its neighbours'.
    property p_dense;
        @(posedge clk) disable iff (rst) req ##1 req |-> ##1 req ##2 req;
    endproperty
    a_dense: assert property (p_dense);
    // Deep $past: the first three cycles compare against pre-trace x.
    property p_past;
        @(posedge clk) disable iff (rst) req |=> data != $past(data, 3);
    endproperty
    a_past: assert property (p_past);
    // Long consequent tail: late attempts always span the trace end.
    property p_tail;
        @(posedge clk) req ##2 req |-> ##1 req ##3 req ##3 req;
    endproperty
    a_tail: assert property (p_tail);
    // No antecedent: every non-disabled cycle is checked directly.
    property p_flat;
        @(posedge clk) disable iff (rst) !req || data <= 4'd15;
    endproperty
    a_flat: assert property (p_flat);
endmodule
"""


def adversarial_design():
    result = compile_source(ADVERSARIAL_SOURCE)
    assert result.ok and result.design is not None, result.render()
    return result.design


def adversarial_trace(design, cycles, hold=True, pulse_at=()):
    """A trace with dense req runs, optional mid-trace disable pulses."""
    vectors = []
    for i in range(cycles):
        vectors.append(
            {
                "rst": 1 if i in pulse_at else 0,
                # hold=True keeps req high (dense overlapping attempts);
                # otherwise req toggles in runs of three against one low.
                "req": 1 if hold or (i % 4) != 3 else 0,
                "data": (5 * i + 2) % 16,
            }
        )
    return CompiledSimulator(design).run(vectors)


def test_adversarial_attempt_shapes_identical():
    design = adversarial_design()
    tensor = CompiledAssertionChecker(design)
    assert all(
        choice["engine"] == "tensor"
        for choice in tensor.engine_choices.values()
    ), tensor.engine_choices
    traces = [
        # Dense starts, attempts spanning the trace end (long tails).
        adversarial_trace(design, 20),
        # Disable pulses mid-attempt: spans crossing cycles 6 and 13 flip
        # from fail/pass to disabled, exactly once per bucket transition.
        adversarial_trace(design, 24, pulse_at=(6, 13)),
        # Sparse req with pulses: vacuous/pending/disabled all populated.
        adversarial_trace(design, 17, hold=False, pulse_at=(2, 15)),
        # Shorter than the deepest $past: pre-trace unknowns dominate.
        adversarial_trace(design, 3),
        # Degenerate single-cycle and empty traces.
        adversarial_trace(design, 1),
        adversarial_trace(design, 0),
    ]
    for trace in traces:
        assert_engines_identical(design, trace)
    # The shapes must actually exercise every bucket somewhere, or this
    # test has no teeth.
    oracle = AssertionChecker(design)
    totals = {"failures": 0, "vacuous": 0, "pending": 0, "disabled": 0, "passes": 0}
    for trace in traces:
        for outcome in oracle.check(trace).outcomes.values():
            totals["failures"] += len(outcome.failures)
            totals["vacuous"] += outcome.vacuous
            totals["pending"] += outcome.pending
            totals["disabled"] += outcome.disabled
            totals["passes"] += outcome.passes
    assert all(count > 0 for count in totals.values()), totals


def test_ragged_stacked_batch_matches_per_trace_and_oracle():
    """check_batch over ragged-length traces (the stacked 2-D path) must be
    outcome-identical to per-trace checks and to the tree-walker."""
    design = adversarial_design()
    checker = CompiledAssertionChecker(design)
    oracle = AssertionChecker(design)
    traces = [
        adversarial_trace(design, 23, pulse_at=(5,)),
        adversarial_trace(design, 7),
        adversarial_trace(design, 0),
        adversarial_trace(design, 16, hold=False, pulse_at=(9, 10)),
        adversarial_trace(design, 1),
    ]
    batched = checker.check_batch(traces)
    assert len(batched) == len(traces)
    for trace, via_batch in zip(traces, batched):
        single = checker.check(trace)
        reference = oracle.check(trace)
        assert sorted(via_batch.outcomes) == sorted(reference.outcomes)
        for name in reference.outcomes:
            assert (
                via_batch.outcomes[name].comparison_key()
                == single.outcomes[name].comparison_key()
                == reference.outcomes[name].comparison_key()
            ), f"assertion '{name}' diverges on the stacked batch path"


MIXED_WIDTH_SOURCE = """
module mixed(
    input wire clk,
    input wire [70:0] a,
    input wire [3:0] n,
    output reg [70:0] b,
    output reg [3:0] m
);
    always @(posedge clk) begin
        b <= a;
        m <= n;
    end
    property p_wide;
        @(posedge clk) 1'b1 |-> $past(a) == b;
    endproperty
    a_wide: assert property (p_wide);
    property p_narrow;
        @(posedge clk) n != 4'd0 |=> m == $past(n);
    endproperty
    a_narrow: assert property (p_narrow);
endmodule
"""


def test_mixed_width_ragged_batch_matches_oracle():
    """One tensor assertion beside one >63-bit tree-walker assertion, over
    ragged traces: the stacked grid carries the wide signal in an
    object-dtype slot, and every outcome equals the per-trace oracle."""
    design = compile_source(MIXED_WIDTH_SOURCE).design
    assert design is not None
    checker = CompiledAssertionChecker(design)
    assert checker.engine_choices["a_narrow"]["engine"] == "tensor"
    assert checker.engine_choices["a_wide"]["engine"] == "tree_walker"
    big = 1 << 70
    traces = [
        CompiledSimulator(design).run(
            [{"a": big | i, "n": (3 * i + seed) % 16} for i in range(cycles)]
        )
        for seed, cycles in ((1, 9), (2, 4), (3, 0))
    ]
    oracle = AssertionChecker(design)
    batched = checker.check_batch(traces)
    assert len(batched) == len(traces)
    for trace, via_batch in zip(traces, batched):
        reference = oracle.check(trace)
        assert sorted(via_batch.outcomes) == sorted(reference.outcomes)
        for name in reference.outcomes:
            assert (
                via_batch.outcomes[name].comparison_key()
                == reference.outcomes[name].comparison_key()
            ), f"assertion '{name}' diverges on the mixed-width batch"
    assert sum(o.passes for r in batched for o in r.outcomes.values()) > 0


def test_stacked_batch_on_template_families():
    """Seed-stacked batches across template families stay verdict-identical."""
    checked = 0
    for family in FAMILIES[:6]:
        _, design = augmented_design(family, prefix="stack")
        if design is None or not design.assertions:
            continue
        checker = CompiledAssertionChecker(design)
        traces = [
            simulate(design, seed=60 + i, cycles=12 + 9 * i)
            for i in range(3)
        ]
        batched = checker.check_batch(traces)
        oracle = AssertionChecker(design)
        for trace, via_batch in zip(traces, batched):
            reference = oracle.check(trace)
            for name in reference.outcomes:
                assert (
                    via_batch.outcomes[name].comparison_key()
                    == reference.outcomes[name].comparison_key()
                ), f"assertion '{name}' diverges on the stacked batch path"
        checked += 1
    assert checked >= 3


# --------------------------------------------------------------------------- #
# columns memoisation
# --------------------------------------------------------------------------- #


def test_columns_are_memoised_per_name_tuple():
    design = compile_source(QUIET_SOURCE).design
    trace = CompiledSimulator(design).run([{"a": 5}] * 10)
    first = trace.columns(["a"])
    assert trace.columns(["a"]) is first
    # A different name tuple is a different memo entry.
    both = trace.columns(["a", "b"])
    assert both is not first
    assert trace.columns(["a", "b"]) is both
    assert trace.columns(["a"]) is first


def test_columns_memo_invalidated_on_append():
    from repro.sim.trace import Trace, TraceSample
    from repro.sim.values import LogicValue

    def sample(cycle, value):
        held = {"a": LogicValue.from_int(value, 4)}
        return TraceSample(cycle=cycle, pre_edge=held)

    trace = Trace(signals=["a"])
    trace.append(sample(0, 3))
    first = trace.columns(["a"])
    assert first.values["a"].tolist() == [3]
    trace.append(sample(1, 9))
    rebuilt = trace.columns(["a"])
    assert rebuilt is not first
    assert rebuilt.values["a"].tolist() == [3, 9]


def test_difftrace_columns_memo_invalidated_by_recording():
    design = compile_source(QUIET_SOURCE).design
    sim = CompiledSimulator(design)
    trace = sim.run([{"a": 5}] * 6)
    first = trace.columns(["a", "b"])
    assert trace.columns(["a", "b"]) is first
    # Recording one more cycle through the simulator must invalidate.
    sim.step({"a": 5})
    rebuilt = trace.columns(["a", "b"])
    assert rebuilt is not first
    assert rebuilt.cycles == first.cycles + 1


def test_columns_memo_dropped_on_pickle():
    design = compile_source(QUIET_SOURCE).design
    trace = CompiledSimulator(design).run([{"a": 5}] * 6).materialized()
    built = trace.columns(["a"])
    restored = pickle.loads(pickle.dumps(trace))
    assert "_columns_memo" not in restored.__dict__
    assert restored.columns(["a"]).values["a"].tolist() == built.values["a"].tolist()

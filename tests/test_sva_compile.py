"""Differential tests: the compiled SVA checker must match the tree-walker.

Every corpus template family's representative design is augmented with its
template + mined assertions, simulated on seeded stimulus, and checked by
both backends; outcomes must agree field for field -- attempts, antecedent
matches, passes, vacuous/pending/disabled counts and every failure's start
and failing cycle.  Injected mutants exercise the failure paths the golden
designs never reach.

The file also carries the regression tests for the two sampled-value
semantics fixes: ``$past(x, DEPTH)`` with a parameter depth, and the width
of the pre-cycle-0 unknown for non-identifier ``$past`` arguments.
"""

import pytest

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl import ast
from repro.hdl.elaborate import AssertionSpec
from repro.hdl.lint import compile_source
from repro.sim.compile import CompileError
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import (
    AssertionChecker,
    CheckerBackend,
    check_assertions,
    infer_expression_width,
    sampled_past_depth,
)
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import insert_assertions, mine_assertions, template_assertion_blocks

FAMILIES = all_families()


def outcome_fields(outcome):
    return outcome.comparison_key()


def assert_reports_identical(design, trace):
    interp = AssertionChecker(design).check(trace)
    compiled = CheckerBackend(design, backend="compiled").check(trace)
    assert sorted(interp.outcomes) == sorted(compiled.outcomes)
    for name in interp.outcomes:
        assert outcome_fields(interp.outcomes[name]) == outcome_fields(
            compiled.outcomes[name]
        ), f"assertion '{name}' diverges between checker backends"


def augmented_design(family, prefix="dut"):
    """(source, design) of the family's representative with assertions inserted."""
    artifact = family.build(f"{prefix}_{family.name}", **family.parameter_grid[0])
    golden = compile_source(artifact.source)
    if not golden.ok or golden.design is None:
        return None, None
    mining_trace = Simulator(golden.design).run(
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


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_family_outcomes_identical(family):
    _, design = augmented_design(family)
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    vectors = StimulusGenerator(design, seed=8).mixed_stimulus(random_cycles=32).vectors
    assert_reports_identical(design, Simulator(design).run(vectors))


@pytest.mark.parametrize("backend", ["compiled", "interp"])
def test_check_batch_matches_per_trace_check(backend):
    """One batched pass over several seed traces (the verifier's shape) must
    be outcome-identical to checking each trace individually, in order.

    The ``compiled`` leg exercises the stacked (seed x cycle) tensor pass;
    ragged trace lengths make the padding/masking load-bearing."""
    checked = 0
    for family in FAMILIES[:8]:
        _, design = augmented_design(family, prefix=f"batch_{backend}")
        if design is None or not design.assertions:
            continue
        checker = CheckerBackend(design, backend=backend)
        traces = [
            Simulator(design).run(
                StimulusGenerator(design, seed=40 + index)
                .mixed_stimulus(random_cycles=24 - 7 * index)
                .vectors
            )
            for index in range(3)
        ]
        batched = checker.check_batch(traces)
        singles = [checker.check(trace) for trace in traces]
        assert len(batched) == len(singles)
        for one, via_batch in zip(singles, batched):
            assert list(one.outcomes) == list(via_batch.outcomes)
            for name in one.outcomes:
                assert outcome_fields(one.outcomes[name]) == outcome_fields(
                    via_batch.outcomes[name]
                ), f"assertion '{name}' diverges between check and check_batch"
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("seed", [13, 29])
def test_mutant_outcomes_identical(seed):
    """Buggy designs (where assertions actually fail) must also agree."""
    injector = BugInjector(InjectionConfig(seed=seed, max_bugs_per_design=2))
    checked = failing = 0
    for family in FAMILIES[:12]:
        source, design = augmented_design(family, prefix=f"mut{seed}")
        if design is None or not design.assertions:
            continue
        for bug in injector.inject(f"mut{seed}_{family.name}", source, design):
            buggy = compile_source(bug.buggy_source)
            if not buggy.ok or buggy.design is None:
                continue
            try:
                trace = Simulator(buggy.design).run(
                    StimulusGenerator(buggy.design, seed=9)
                    .mixed_stimulus(random_cycles=24)
                    .vectors
                )
            except SimulationError:
                continue
            assert_reports_identical(buggy.design, trace)
            checked += 1
            if not AssertionChecker(buggy.design).check(trace).passed:
                failing += 1
    assert checked >= 5
    assert failing >= 1, "no mutant produced a failing report; test lost its teeth"


# --------------------------------------------------------------------------- #
# backend dispatch
# --------------------------------------------------------------------------- #


SHIFT2_SOURCE = """
module shift2 #(parameter DEPTH = 2) (
    input wire clk,
    input wire rst_n,
    input wire [3:0] a,
    output reg [3:0] b,
    output reg [3:0] c
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) begin
            b <= 4'd0;
            c <= 4'd0;
        end else begin
            b <= a;
            c <= b;
        end
    end
    property p_depth;
        @(posedge clk) disable iff (!rst_n) 1'b1 |-> c == $past(a, DEPTH);
    endproperty
    a_depth: assert property (p_depth);
    property p_one;
        @(posedge clk) disable iff (!rst_n) 1'b1 |-> c == $past(a);
    endproperty
    a_one: assert property (p_one);
    property p_width;
        @(posedge clk) !(($past(a ^ b) === 1'bx));
    endproperty
    a_width: assert property (p_width);
endmodule
"""


def shift2_design():
    result = compile_source(SHIFT2_SOURCE)
    assert result.ok and result.design is not None, result.render()
    return result.design


def shift2_trace(design, cycles=24):
    # Reset for two cycles, then feed a distinct value every cycle so a
    # depth-1 and a depth-2 $past can never agree by accident.
    vectors = [{"rst_n": 0, "a": 0}, {"rst_n": 0, "a": 0}]
    vectors += [{"rst_n": 1, "a": (3 * i + 1) % 16} for i in range(cycles)]
    return Simulator(design).run(vectors)


def test_checker_backend_factory_dispatch():
    design = shift2_design()
    assert isinstance(CheckerBackend(design, backend="interp"), AssertionChecker)
    assert isinstance(CheckerBackend(design, backend="auto"), CompiledAssertionChecker)
    assert isinstance(CheckerBackend(design, backend="compiled"), CompiledAssertionChecker)
    with pytest.raises(ValueError):
        CheckerBackend(design, backend="fpga")


def test_check_assertions_caches_checker_in_artifact_store():
    # The lowered checker lives in the process-wide artifact cache keyed by
    # content fingerprint -- not as a hidden attribute pinned on the design
    # object -- so repeat checks reuse one lowering, the design still
    # pickles, and even a *fresh elaboration* of the same source hits.
    import pickle

    from repro.artifacts import default_store

    design = shift2_design()
    trace = shift2_trace(design)
    first = check_assertions(design, trace)
    assert "_checker_backend_cache" not in design.__dict__
    checker = default_store().checker(design)
    second = check_assertions(design, trace)
    assert default_store().checker(design) is checker
    assert default_store().checker(shift2_design()) is checker
    pickle.dumps(design)
    for name in first.outcomes:
        assert outcome_fields(first.outcomes[name]) == outcome_fields(second.outcomes[name])


def test_strict_compiled_backend_rejects_unloweable_assertions():
    # Fabricate a spec referencing an undeclared signal (the tree-walker's
    # EvalError -> unknown path): strict mode must surface the lowering
    # failure instead of silently tree-walking, and auto must fall back per
    # assertion and still agree.
    design = shift2_design()
    ghost = AssertionSpec(
        name="a_ghost",
        clock=design.assertions[0].clock,
        disable_iff=None,
        body=ast.SvaProperty(
            antecedent=None,
            consequent=ast.SvaSequence(
                elements=[ast.SequenceElement(delay=0, expr=ast.Identifier("no_such_signal"))]
            ),
        ),
    )
    design.assertions.append(ghost)
    with pytest.raises(CompileError):
        CheckerBackend(design, backend="compiled")
    trace = shift2_trace(design)
    assert_reports_identical_auto(design, trace)
    # The unknown reference never evaluates to a hard failure on either side.
    report = CheckerBackend(design, backend="auto").check(trace)
    assert not report.outcomes["a_ghost"].failures


def assert_reports_identical_auto(design, trace):
    interp = AssertionChecker(design).check(trace)
    compiled = CheckerBackend(design, backend="auto").check(trace)
    for name in interp.outcomes:
        assert outcome_fields(interp.outcomes[name]) == outcome_fields(
            compiled.outcomes[name]
        )


def test_subset_checking_matches_tree_walker():
    design = shift2_design()
    trace = shift2_trace(design)
    subset = design.assertions[:1]
    interp = AssertionChecker(design).check(trace, assertions=subset)
    compiled = CheckerBackend(design).check(trace, assertions=subset)
    assert sorted(interp.outcomes) == sorted(compiled.outcomes) == [subset[0].name]
    for name in interp.outcomes:
        assert outcome_fields(interp.outcomes[name]) == outcome_fields(compiled.outcomes[name])


# --------------------------------------------------------------------------- #
# $past semantics regressions
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["interp", "auto"])
def test_past_parameter_depth_is_honoured(backend):
    """``$past(a, DEPTH)`` with ``parameter DEPTH = 2`` must look 2 back.

    Before the fix both backends silently used depth 1 for any non-literal
    depth argument, which made ``a_depth`` behave exactly like ``a_one``;
    with a fresh input value every cycle the two are now distinguishable:
    the true 2-deep relation holds, the 1-deep one fails.
    """
    design = shift2_design()
    report = CheckerBackend(design, backend=backend).check(shift2_trace(design))
    depth2 = report.outcomes["a_depth"]
    depth1 = report.outcomes["a_one"]
    assert depth2.antecedent_matches > 4
    assert not depth2.failures, [f.render() for f in depth2.failures]
    assert depth1.failures, "depth-1 comparison should fail on a 2-deep pipeline"


def test_past_depth_constant_folding():
    design = shift2_design()
    spec = next(s for s in design.assertions if s.name == "a_depth")
    call = next(
        node
        for element in spec.body.consequent.elements
        for node in element.expr.walk()
        if isinstance(node, ast.SystemCall) and node.name == "$past"
    )
    assert sampled_past_depth(call, design.parameters) == 2
    # Non-constant depth (a signal) falls back to the SVA default of 1.
    signal_depth = ast.SystemCall(name="$past", args=[ast.Identifier("a"), ast.Identifier("b")])
    assert sampled_past_depth(signal_depth, design.parameters) == 1


@pytest.mark.parametrize("backend", ["interp", "auto"])
def test_past_pre_trace_unknown_has_expression_width(backend):
    """Pre-cycle-0 ``$past(a ^ b)`` must be a 4-bit x, not a 1-bit x.

    ``a_width`` asserts ``!($past(a ^ b) === 1'bx)``: with the old 1-bit
    unknown the case-equality held at cycle 0 and the assertion failed; a
    4-bit unknown is not case-equal to ``1'bx``, so every cycle passes.
    """
    design = shift2_design()
    report = CheckerBackend(design, backend=backend).check(shift2_trace(design))
    width = report.outcomes["a_width"]
    assert not width.failures, [f.render() for f in width.failures]
    assert width.passes == width.attempts


def test_infer_expression_width():
    design = shift2_design()
    a, b = ast.Identifier("a"), ast.Identifier("b")
    assert infer_expression_width(a, design) == 4
    assert infer_expression_width(ast.Binary(op="+", left=a, right=b), design) == 4
    assert infer_expression_width(ast.Binary(op="==", left=a, right=b), design) == 1
    assert infer_expression_width(ast.Unary(op="&", operand=a), design) == 1
    assert infer_expression_width(ast.Concat(parts=[a, b]), design) == 8
    assert infer_expression_width(ast.SystemCall(name="$past", args=[a]), design) == 4
    assert infer_expression_width(ast.SystemCall(name="$rose", args=[a]), design) == 1
    assert infer_expression_width(ast.Identifier("DEPTH"), design) == 32

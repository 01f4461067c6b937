"""Differential tests: the compiled backend must match the interpreter.

Every template family's representative design (and a set of injected
mutants) is simulated by both backends on identical stimulus; the traces
must be ``equals()``-identical signal by signal, cycle by cycle, and so
must the live (post-edge, settled) value of every signal after every step.
"""

import random

import pytest

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator, SimulatorOptions
from repro.sim.stimulus import StimulusGenerator

FAMILIES = all_families()


def assert_traces_identical(design, vectors, options=None) -> None:
    interp = InterpSimulator(design, options=options)
    compiled = CompiledSimulator(design, options=options)
    names = sorted(design.signals)
    for cycle, inputs in enumerate(vectors):
        interp.step(inputs)
        # run() keeps the compiled trace lazy: its samples are realised
        # from the events only below, after the whole run.
        compiled.run([inputs])
        for name in names:
            expected, actual = interp.value(name), compiled.value(name)
            assert expected.equals(actual), (
                f"live value mismatch after cycle {cycle}, signal {name}: "
                f"{expected} != {actual}"
            )
    interp_trace, compiled_trace = interp.trace, compiled.trace
    assert len(interp_trace) == len(compiled_trace) == len(vectors)
    for cycle in range(len(interp_trace)):
        expected = interp_trace[cycle]
        actual = compiled_trace[cycle]
        assert set(expected.pre_edge) == set(actual.pre_edge)
        for name in expected.pre_edge:
            assert expected.pre_edge[name].equals(actual.pre_edge[name]), (
                f"pre-edge mismatch: cycle {cycle}, signal {name}: "
                f"{expected.pre_edge[name]} != {actual.pre_edge[name]}"
            )


def design_for(family):
    artifact = family.build(f"dut_{family.name}", **family.parameter_grid[0])
    result = compile_source(artifact.source)
    assert result.ok and result.design is not None, result.render()
    return result.design


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_family_traces_identical(family):
    design = design_for(family)
    vectors = StimulusGenerator(design, seed=3).mixed_stimulus(random_cycles=24).vectors
    assert_traces_identical(design, vectors)


@pytest.mark.parametrize("family", FAMILIES[:6], ids=[f.name for f in FAMILIES[:6]])
def test_family_traces_identical_with_x_initial_state(family):
    design = design_for(family)
    vectors = StimulusGenerator(design, seed=5).mixed_stimulus(random_cycles=16).vectors
    assert_traces_identical(design, vectors, options=SimulatorOptions(x_initial_state=True))


@pytest.mark.parametrize("seed", [17, 42])
def test_mutant_traces_identical(seed):
    """Buggy (mutated) designs must also behave identically on both backends.

    Seed 42 is a regression case: it mutates round_robin_arbiter into a
    design where a clocked block writes a comb-driven signal, which the
    dirty-set scheduler must re-settle exactly like the interpreter.
    """
    injector = BugInjector(InjectionConfig(seed=seed, max_bugs_per_design=4))
    checked = 0
    for family in FAMILIES[:24]:
        artifact = family.build(f"mut_{family.name}", **family.parameter_grid[0])
        golden = compile_source(artifact.source)
        if not golden.ok or golden.design is None:
            continue
        for bug in injector.inject(artifact.name, artifact.source, golden.design):
            buggy = compile_source(bug.buggy_source)
            if not buggy.ok or buggy.design is None:
                continue
            vectors = StimulusGenerator(buggy.design, seed=9).mixed_stimulus(random_cycles=12).vectors
            assert_traces_identical(buggy.design, vectors)
            checked += 1
    assert checked >= 3, "expected at least three simulatable mutants"


def test_seq_write_to_comb_driven_signal_matches_interpreter():
    """A clocked write to a comb-driven signal loses the settle, as in the oracle.

    Lint only rejects continuous+procedural mixes, so comb-block/seq-block
    double drivers reach simulation (bug-injected mutants produce them).
    """
    source = (
        "module m(input wire clk, input wire rst_n, input wire a, output reg y);\n"
        "    always @(*) y = a;\n"
        "    always @(posedge clk or negedge rst_n) begin\n"
        "        if (!rst_n) y <= 1'b0;\n"
        "        else y <= 1'b1;\n"
        "    end\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert result.ok and result.design is not None
    vectors = [{"rst_n": 0, "a": 0}, {"rst_n": 1, "a": 0}, {"rst_n": 1, "a": 1}, {"rst_n": 1, "a": 0}]
    assert_traces_identical(result.design, vectors)
    sim = CompiledSimulator(result.design)
    sim.run(vectors)
    assert sim.peek("y") == 0, "the combinational driver must win the settle"


def test_stimulus_write_to_comb_driven_signal_matches_interpreter():
    """Forcing a continuously-driven signal via step() loses to its driver."""
    source = (
        "module f(input wire clk, input wire a, input wire b, output wire y);\n"
        "    assign y = a & b;\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert result.ok and result.design is not None
    for simulator_class in (InterpSimulator, CompiledSimulator):
        sim = simulator_class(result.design)
        sim.step({"a": 1, "b": 1, "y": 0})
        assert sim.peek("y") == 1, f"{simulator_class.__name__}: the continuous driver must win"
    assert_traces_identical(result.design, [{"a": 1, "b": 1, "y": 0}, {"a": 0, "b": 1, "y": 1}])


def test_difftrace_supports_slice_indexing():
    design = design_for(FAMILIES[0])
    sim = CompiledSimulator(design)
    trace = sim.run([{"rst_n": 0}] + [{"rst_n": 1}] * 4)
    window = trace[1:3]
    assert len(window) == 2
    assert window[0].cycle == 1


def test_concat_target_holding_a_select_is_a_compile_error():
    """The construct that once sent a design to the interpreter: the compiled
    backend cannot lower ``{q[1], r} <=``, so the front end rejects it and
    the verifier reports ``compile_fail`` (it reported ``sim_error``)."""
    from repro.eval.verifier import SemanticVerifier
    from repro.sim.compile import CompileError, compile_design

    source = (
        "module cat_nba(input wire clk, input wire [1:0] a, output reg [1:0] q, output reg r);\n"
        "    always @(posedge clk) begin\n"
        "        {q[1], r} <= a;\n"
        "    end\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert not result.ok
    assert [d.code for d in result.errors] == ["unsupported-construct"]
    with pytest.raises(CompileError, match="concatenation targets"):
        compile_design(result.design)
    verdict = SemanticVerifier().verify_source(source, (1, 2))
    assert verdict.status == "compile_fail", (verdict.status, verdict.detail)
    assert "concatenation target '{q[1], r}'" in verdict.detail


@pytest.mark.parametrize("clock", ["clk", "ck"])
def test_multi_bit_clock_traces_identical(clock):
    """Both backends pulse a 2-bit clock's bit 0 and keep its width.  The
    stimulus never drives the clock; the ``ck`` case drives it by hand
    with random values, so bit 1 toggles too."""
    source = (
        f"module c2(input wire [1:0] {clock}, input wire rst_n, input wire [3:0] a,\n"
        "          output reg [3:0] q, output reg [3:0] n, output wire [1:0] k);\n"
        f"    assign k = {clock};\n"
        f"    always @(posedge {clock} or negedge rst_n) begin\n"
        "        if (!rst_n) q <= 0;\n"
        "        else q <= q + a;\n"
        "    end\n"
        f"    always @(negedge {clock}) n <= q ^ {{{clock}, {clock}}};\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert result.ok, result.render()
    design = result.design
    assert design.signals[clock].width == 2
    vectors = StimulusGenerator(design, seed=5).mixed_stimulus(random_cycles=40).vectors
    assert all(clock not in vector for vector in vectors)
    if clock == "ck":
        rng = random.Random(5)
        vectors = [{**vector, clock: rng.randrange(4)} for vector in vectors]
    assert_traces_identical(design, vectors)
    trace = CompiledSimulator(design).run(vectors)
    assert {sample.sampled(clock).width for sample in trace} == {2}
    assert len({sample.sampled("q").value for sample in trace}) > 2

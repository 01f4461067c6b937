"""Front-end paths no corpus family reaches: hierarchy, loops, initial blocks.

Elaboration shares AST nodes with the parse and copies only the items of a
module instance, to prefix their names.  These tests pin what that relies
on: prefixed names are right, elaborating leaves the parsed unit as it was,
two elaborations of one parse render the same canonical text, and both
simulators agree
on the flattened design, where an instance clocked through a port fires on
the clock's edge.  They also pin diagnostic line numbers after a string
literal that continues across a backslash-newline, and that undeclared
assignment targets are reported as the pre-sweep check reported them.
"""

from __future__ import annotations

import pytest

from design_canon import design_canonical_text
from test_backend_differential import assert_traces_identical
from repro.hdl import ast
from repro.hdl.elaborate import elaborate
from repro.hdl.errors import ElaborationError
from repro.hdl.lint import compile_source
from repro.hdl.parser import parse_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator, clock_nets
from repro.sim.stimulus import StimulusGenerator

HIERARCHICAL = """\
/* An accumulator, instantiated twice below:
   once at the default width and once at eight bits. */
module acc #(parameter W = 4) (
    input wire clk,
    input wire rst_n,
    input wire [W-1:0] d,
    output reg [W-1:0] q
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 0;
        else q <= q + d;
    end
endmodule

module top (
    input wire clk,
    input wire rst_n,
    input wire [3:0] a,
    output wire [3:0] y0,
    output wire [7:0] y1,
    output reg [3:0] rev
);
    integer i;
    reg [3:0] seed;
    acc u0 (.clk(clk), .rst_n(rst_n), .d(a), .q(y0));
    acc #(.W(8)) u1 (.clk(clk), .rst_n(rst_n), .d({4'b0, a}), .q(y1));
    always @(*) begin
        for (i = 0; i < 4; i = i + 1)
            rev[i] = a[3 - i];
    end
    initial begin
        seed = 4'b1010;
    end
endmodule
"""


def test_instances_are_flattened_under_prefixed_names():
    result = compile_source(HIERARCHICAL)
    assert result.ok, result.render()
    design = result.design
    assert design.name == "top"
    assert {"u0__d", "u0__q", "u1__d", "u1__q"} <= set(design.signals)
    assert design.signals["u0__q"].width == 4
    assert design.signals["u1__q"].width == 8
    # One clocked block per instance, each writing its own prefixed register.
    written = [set(ast.assignment_targets(block.body)) for block in design.seq_blocks]
    assert written == [{"u0__q"}, {"u1__q"}]
    assert [str(item.signal) for item in design.seq_blocks[1].sensitivity] == ["u1__clk", "u1__rst_n"]
    # The loop is unrolled into four constant-index assignments.
    (comb,) = design.comb_blocks
    assignments = [node for node in comb.body.walk() if isinstance(node, ast.Assign)]
    assert [str(node.target) for node in assignments] == ["rev[0]", "rev[1]", "rev[2]", "rev[3]"]
    assert len(design.initial_blocks) == 1


def test_elaboration_leaves_the_parse_unchanged_and_is_repeatable():
    unit = parse_source(HIERARCHICAL)
    before = repr(unit)
    first = elaborate(unit)
    second = elaborate(unit)
    assert repr(unit) == before
    assert design_canonical_text(first) == design_canonical_text(second)
    # The instance's block body is a copy, so the two instances do not alias.
    assert first.seq_blocks[0].body is not first.seq_blocks[1].body


def test_simulators_agree_on_the_hierarchical_design():
    design = compile_source(HIERARCHICAL).design
    vectors = StimulusGenerator(design, seed=11).mixed_stimulus(random_cycles=24).vectors
    assert_traces_identical(design, vectors)
    compiled = CompiledSimulator(design).run(vectors)
    assert any(sample.sampled("u0__q").value for sample in compiled)
    for sample in compiled:
        a, rev = sample.sampled("a").value, sample.sampled("rev").value
        assert rev == int(f"{a:04b}"[::-1], 2)


def test_an_instance_clocked_through_its_port_fires_on_the_clock_edge():
    # Both instances receive clk through a port copy (u0__clk = clk,
    # u1__clk = clk); the detected clock is u0__clk, and u1__clk is the
    # same net, so u1's register accumulates too: the same sums as u0's,
    # at eight bits instead of four.
    design = compile_source(HIERARCHICAL).design
    assert clock_nets(design, "u0__clk") == {"clk", "u0__clk", "u1__clk"}
    vectors = StimulusGenerator(design, seed=11).mixed_stimulus(random_cycles=24).vectors
    for simulator in (InterpSimulator(design), CompiledSimulator(design)):
        trace = simulator.run(vectors)
        sums = [(s.sampled("u0__q").value, s.sampled("u1__q").value) for s in trace]
        assert any(u1 > 15 for _, u1 in sums), type(simulator).__name__
        assert all(u1 & 0xF == u0 for u0, u1 in sums), type(simulator).__name__


def test_lines_after_an_escaped_newline_in_a_string_are_counted():
    source = (
        "module m(input wire a);\n"
        "    initial begin\n"
        '        $display("x\\\n'
        ' y");\n'
        "    end\n"
        "    assign q = a;\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert not result.ok
    (error,) = result.errors
    assert error.code == "undeclared-signal"
    assert (error.line, error.message) == (6, "assignment to undeclared signal 'q'")


UNDECLARED_TARGETS = """\
module targets (
    input wire clk,
    input wire a,
    output reg q
);
    always @(posedge clk) begin
        if (a) {ghost_hi, q} <= 2'b01;
        else case (a)
            1'b0: ghost_case <= a;
            default: q <= a;
        endcase
    end
    always @(*) ghost_comb = a;
    assign ghost_wire = a;
endmodule
"""


@pytest.mark.parametrize("drop", [(), ("ghost_wire",), ("ghost_wire", "ghost_comb")])
def test_undeclared_targets_are_reported_as_the_pre_sweep_check_did(drop, monkeypatch):
    import importlib

    from frontend_oracle import check_design

    elaborate_module = importlib.import_module("repro.hdl.elaborate")

    lines = [line for line in UNDECLARED_TARGETS.split("\n") if not any(d in line for d in drop)]
    text = "\n".join(lines)
    (error,) = compile_source(text).errors
    monkeypatch.setattr(elaborate_module, "_check_design", lambda design: None)
    design = elaborate(parse_source(text))
    with pytest.raises(ElaborationError) as expected:
        check_design(design)
    assert (error.line, error.message) == (expected.value.line, expected.value.message)


# --------------------------------------------------------------------------- #
# the constructs no simulator runs are compile errors
# --------------------------------------------------------------------------- #

ASSERTION = (
    "    a_q: assert property (@(posedge clk) disable iff (!rst_n) $past(rst_n) |-> q == $past(a));"
)
GATED = f"""\
module sub (input wire i, output wire o);
    assign o = ~i;
endmodule

module gated (
    input wire clk,
    input wire rst_n,
    input wire [1:0] a,
    output reg [1:0] q,
    output reg r,
    output wire [1:0] w,
    output wire y,
    output wire z
);
    assign y = a[0];
    assign w = a;
    sub u0 (.i(a[1]), .o(z));
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 2'b00;
        else q <= a;
    end
    always @(posedge clk) r <= a[1];
{ASSERTION}
endmodule
"""

#: (line of GATED, its replacement, what the compile error says).  Before
#: the front end rejected them, each of these raised out of the verifier or
#: reached the interpreter, which failed (``sim_error``) or ignored it.
UNSUPPORTED = [
    ("    assign y = a[0];", "    assign y = $countones();", "'$countones' needs an argument"),
    ("    assign y = a[0];", "    assign y = $onehot();", "'$onehot' needs an argument"),
    ("    assign y = a[0];", "    assign y = $onehot0();", "'$onehot0' needs an argument"),
    ("    assign y = a[0];", "    assign y = $clog2();", "'$clog2' needs an argument"),
    ("    assign y = a[0];", "    assign y = $signed();", "'$signed' needs an argument"),
    ("    assign y = a[0];", "    assign y = $unsigned();", "'$unsigned' needs an argument"),
    ("        else q <= a;", "        else q[1][0] <= a[0];", "nested select target 'q[1][0]'"),
    ("        else q <= a;", "        else {q[1], r} <= a;", "concatenation target '{q[1], r}'"),
    ("        else q <= a;", "        else {{q}, r} <= {a, a[0]};", "concatenation target"),
    ("    assign w = a;", "    assign {w[1], w[0]} = a[1:0];",
     "concatenation target '{w[1], w[0]}'"),
    ("    sub u0 (.i(a[1]), .o(z));", "    sub u0 (.i(a[1]), .o(a[0] & y));",
     "'a[0] & y' is not an assignable target"),
    ("    assign y = a[0];", "    assign y = $past(a[0]);",
     "'$past' is only allowed in assertions"),
    ("        if (!rst_n) q <= 2'b00;", "        if ($rose(a[0])) q <= 2'b00;",
     "'$rose' is only allowed in assertions"),
    (ASSERTION, "    a_q: assert property (@(posedge clk) $countones() == 0);",
     "'$countones' needs an argument"),
    (ASSERTION, "    a_q: assert property (@(posedge clk) $rose() |-> q == a);",
     "'$rose' needs an argument"),
    ("    assign w = a;", "    assign w = a; initial q[1][0] = 1'b0;", "nested select target"),
    # Initial blocks are swept like always blocks, so the names and calls
    # in them pass the same checks.
    ("    assign w = a;", "    assign w = a; initial ghost = 1'b0;",
     "assignment to undeclared signal 'ghost'"),
    ("    assign w = a;", "    assign w = a; initial r = ghost;", "use of undeclared signal 'ghost'"),
    ("    assign w = a;", "    assign w = a; initial r = $random(a);",
     "unsupported system function '$random'"),
]


def test_the_gated_design_verifies():
    from repro.eval.verifier import SemanticVerifier

    assert compile_source(GATED).ok
    assert SemanticVerifier().verify_source(GATED, (1, 2)).status == "pass"


@pytest.mark.parametrize(
    "line,new_line,message", UNSUPPORTED, ids=[case[1].strip() for case in UNSUPPORTED]
)
def test_constructs_no_simulator_runs_are_compile_failures(line, new_line, message):
    from frontend_oracle import oracle_mismatches
    from repro.eval.verifier import SemanticVerifier

    assert GATED.count(line + "\n") == 1
    source = GATED.replace(line + "\n", new_line + "\n")
    result = compile_source(source)
    (error,) = result.errors
    assert message in error.message, result.render()
    assert oracle_mismatches(result) == []
    verdict = SemanticVerifier().verify_source(source, (1, 2))
    assert verdict.status == "compile_fail", (verdict.status, verdict.detail)
    assert message in verdict.detail


def test_an_initial_for_loop_is_unrolled_and_both_simulators_run_it():
    source = GATED.replace(
        "    assign w = a;\n",
        "    assign w = a;\n    integer i;\n    reg [3:0] mem;\n"
        "    initial for (i = 0; i < 4; i = i + 1) mem[i] = i[0];\n",
    )
    result = compile_source(source)
    assert result.ok, result.render()
    (initial,) = result.design.initial_blocks
    assert [str(node.target) for node in initial.body.walk() if isinstance(node, ast.Assign)] == [
        "mem[0]", "mem[1]", "mem[2]", "mem[3]"]
    vectors = StimulusGenerator(result.design, seed=3).mixed_stimulus(random_cycles=8).vectors
    compiled = CompiledSimulator(result.design).run(vectors)
    assert [sample.pre_edge["mem"].value for sample in compiled] == [0b1010] * len(vectors)
    assert_traces_identical(result.design, vectors)


"""Unit tests for the static-analysis subsystem (repro.analyze).

Covers the signal dataflow graph (def/use chains, cones, cycle detection),
the pass framework (registry, lint/analysis tiers, individual pass
behaviour), the unification of the historical lint checks with the
framework, and the ``python -m repro.analyze`` CLI.
"""

import pytest

from repro.analyze import (
    AnalysisContext,
    SignalDfg,
    build_dfg,
    get_pass,
    lint_passes,
    register_pass,
    registered_passes,
    run_passes,
)
from repro.analyze.__main__ import main as analyze_main
from repro.artifacts import ArtifactStore
from repro.hdl.errors import Severity
from repro.hdl.lint import compile_source

COUNTER = """
module counter (
    input wire clk,
    input wire rst_n,
    input wire en,
    output reg [3:0] count,
    output wire at_max
);
    assign at_max = (count == 4'd15);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 4'd0;
        else if (en) count <= count + 4'd1;
    end
    property p_hold;
        @(posedge clk) disable iff (!rst_n) !en |=> count == $past(count);
    endproperty
    a_hold: assert property (p_hold);
endmodule
"""


def design_of(text):
    result = compile_source(text)
    assert result.ok and result.design is not None, result.render()
    return result.design


# --------------------------------------------------------------------------- #
# the dataflow graph
# --------------------------------------------------------------------------- #


def test_dfg_defs_uses_and_cones():
    design = design_of(COUNTER)
    dfg = build_dfg(design)

    assert {node.kind for node in dfg.nodes} == {"assign", "seq"}
    (assign_node,) = dfg.defs_of["at_max"]
    assert assign_node.kind == "assign"
    assert "count" in assign_node.uses
    (seq_node,) = dfg.defs_of["count"]
    # Sensitivity-list signals count as uses: editing them must dirty the node.
    assert {"clk", "rst_n", "en", "count"} <= seq_node.uses

    # Fan-out inverts fan-in.
    assert "at_max" in dfg.fan_out["count"]
    assert "count" in dfg.fan_in["at_max"]

    (spec,) = design.assertions
    cone = dfg.assertion_cone(spec)
    # Body signals, their fan-in, the clock and the disable-iff signal.
    assert {"en", "count", "clk", "rst_n"} <= cone
    # at_max feeds nothing the assertion observes.
    assert "at_max" not in cone
    assert dfg.assertion_cones() == {"a_hold": cone}


def test_dfg_cone_matches_design_cone_of_influence():
    design = design_of(COUNTER)
    dfg = build_dfg(design)
    roots = {"count", "en"}
    assert dfg.fan_in_cone(roots) == design.cone_of_influence(roots)


def test_dfg_detects_combinational_cycles_with_path():
    design = design_of(
        """
        module loopy (input wire a, output wire x);
            wire y;
            assign x = y & a;
            assign y = x | a;
        endmodule
        """
    )
    dfg = build_dfg(design)
    cycles = dfg.combinational_cycles()
    assert len(cycles) == 1
    path = cycles[0]
    assert path[0] == path[-1]
    assert set(path) == {"x", "y"}
    # An acyclic design reports none.
    assert build_dfg(design_of(COUNTER)).combinational_cycles() == ()


def test_artifact_store_caches_dataflow_per_source():
    store = ArtifactStore()
    first = store.dataflow(COUNTER)
    assert store.dataflow(COUNTER) is first
    # Keyed by the source text, not by the string object that carries it.
    assert store.dataflow("".join(list(COUNTER))) is first
    assert store.compile(COUNTER).design is first.design


# --------------------------------------------------------------------------- #
# the pass framework
# --------------------------------------------------------------------------- #


def test_registry_contains_stable_pass_ids():
    ids = [p.pass_id for p in registered_passes()]
    assert len(ids) == len(set(ids))
    expected_lint = {
        "undeclared-signal",
        "input-driven",
        "multiple-drivers",
        "undriven",
        "system-functions",
        "assignment-style",
    }
    expected_analysis = {
        "dead-code",
        "width-truncation",
        "latch-inference",
        "comb-loop",
        "unknown-reachability",
    }
    assert {p.pass_id for p in registered_passes() if p.lint} == expected_lint
    assert {p.pass_id for p in registered_passes() if not p.lint} == expected_analysis
    assert {p.pass_id for p in lint_passes()} == expected_lint
    assert get_pass("dead-code").lint is False
    with pytest.raises(KeyError):
        get_pass("no-such-pass")


def test_register_pass_rejects_duplicate_ids():
    with pytest.raises(ValueError):

        @register_pass("dead-code", "duplicate")
        def _dup(context, sink):  # pragma: no cover - never runs
            pass


def test_analysis_passes_never_gate_compilation():
    # dead-write + latch-inference bait that must still compile cleanly.
    result = compile_source(
        """
        module quiet (input wire a, input wire b, output reg q);
            reg scratch;
            always @(*) begin
                if (a) q = b;
            end
            always @(*) scratch = a & b;
        endmodule
        """
    )
    assert result.ok, result.render()
    sink = run_passes(result.design)
    assert any(diag.code == "latch-inferred" for diag in sink.diagnostics)
    assert any(diag.code == "dead-write" for diag in sink.diagnostics)


def test_dead_code_pass_flags_unread_writes_and_unreachable_branches():
    design = design_of(
        """
        module deadly (input wire clk, input wire a, output reg q);
            reg unused_r;
            always @(posedge clk) unused_r <= a;
            always @(posedge clk) begin
                if (1'b0) q <= 1'b1;
                else q <= a;
            end
        endmodule
        """
    )
    sink = run_passes(design, passes=[get_pass("dead-code")])
    codes = [diag.code for diag in sink.diagnostics]
    assert "dead-write" in codes
    assert "unreachable-branch" in codes
    dead = next(d for d in sink.diagnostics if d.code == "dead-write")
    assert "unused_r" in dead.message
    assert dead.line > 0


def test_width_truncation_pass_flags_wide_rhs_but_not_flexible_literals():
    design = design_of(
        """
        module widths (input wire [3:0] a, input wire [3:0] b,
                       output wire narrow, output reg [3:0] count);
            assign narrow = a & b;
            always @(*) count = count + 1;
        endmodule
        """
    )
    sink = run_passes(design, passes=[get_pass("width-truncation")])
    assert len(sink.diagnostics) == 1
    diag = sink.diagnostics[0]
    assert diag.code == "width-truncation"
    assert "narrow" in diag.message
    # `count + 1` must NOT warn: unsized literals adapt to context.


def test_unknown_reachability_names_uninitialised_in_cone_registers():
    design = design_of(
        """
        module floaty (input wire clk, input wire d, output reg q);
            always @(posedge clk) q <= d;
            a_q: assert property (@(posedge clk) q |-> d);
        endmodule
        """
    )
    sink = run_passes(design, passes=[get_pass("unknown-reachability")])
    assert [diag.code for diag in sink.diagnostics] == ["unknown-reachability"]
    assert "a_q" in sink.diagnostics[0].message

    # A reset gives the register a constant init path: no warning.
    reset_design = design_of(
        """
        module grounded (input wire clk, input wire rst_n, input wire d, output reg q);
            always @(posedge clk or negedge rst_n) begin
                if (!rst_n) q <= 1'b0;
                else q <= d;
            end
            a_q: assert property (@(posedge clk) disable iff (!rst_n) q |-> d);
        endmodule
        """
    )
    sink = run_passes(reset_design, passes=[get_pass("unknown-reachability")])
    assert sink.diagnostics == []


def test_comb_loop_pass_reports_cycle_path():
    design = design_of(
        """
        module loopy (input wire a, output wire x);
            wire y;
            assign x = y & a;
            assign y = x | a;
        endmodule
        """
    )
    sink = run_passes(design, passes=[get_pass("comb-loop")])
    assert len(sink.diagnostics) == 1
    diag = sink.diagnostics[0]
    assert diag.code == "comb-loop"
    assert diag.severity is Severity.WARNING
    assert "->" in diag.message
    assert diag.line > 0


def test_lint_tier_matches_compile_source_diagnostics():
    """lint_design via the framework keeps the historical codes and gate."""
    result = compile_source(
        """
        module broken (input wire a, output wire q);
            assign q = nosuch & a;
        endmodule
        """
    )
    assert not result.ok
    assert any(d.code == "undeclared-signal" for d in result.errors)

    # The S1 span fix: multiple-driver diagnostics carry a real line now.
    warned = compile_source(
        """
        module doubled (input wire a, input wire b, output wire q);
            assign q = a;
            assign q = b;
        endmodule
        """
    )
    assert warned.ok
    multi = [d for d in warned.diagnostics if d.code == "multiple-drivers"]
    assert multi and all(d.line > 0 for d in multi)


def test_analysis_context_lazy_dfg(tmp_path):
    design = design_of(COUNTER)
    context = AnalysisContext(design)
    assert context._dfg is None
    assert isinstance(context.dfg, SignalDfg)
    assert context.dfg is context.dfg


def test_pass_counters_land_in_registry():
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    try:
        design = design_of(
            """
            module quiet (input wire a, output reg q);
                always @(*) begin
                    if (a) q = 1'b1;
                end
            endmodule
            """
        )
        run_passes(design, passes=[get_pass("latch-inference")])
        from repro.obs import get_registry

        counters = get_registry().snapshot()["counters"]
        assert counters.get("analyze.pass.latch-inference", 0) >= 1
    finally:
        set_registry(previous)


# --------------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------------- #


def test_cli_list_passes(capsys):
    assert analyze_main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    assert "dead-code" in out
    assert "[lint]" in out and "[analysis]" in out


def test_cli_reports_cones_and_diagnostics(tmp_path, capsys):
    path = tmp_path / "counter.v"
    path.write_text(COUNTER)
    assert analyze_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "a_hold" in out
    assert "combinational loops: none" in out

    bad = tmp_path / "bad.v"
    bad.write_text("module bad (output wire q);\n    assign q = nosuch;\nendmodule\n")
    assert analyze_main([str(bad)]) == 1
    assert analyze_main([str(tmp_path / "missing.v")]) == 2

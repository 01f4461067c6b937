"""Unit tests for the static-analysis subsystem (repro.analyze).

Covers the signal dataflow graph (def/use chains, cones, cycle detection)
and the compile-gate lint passes (stable ids and order, diagnostics
byte-identical to the historical linter, per-pass counters).
"""

from repro.analyze import LINT_PASSES, build_dfg, run_passes
from repro.artifacts import ArtifactStore
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
# the lint passes
# --------------------------------------------------------------------------- #


def test_lint_passes_have_stable_ids_in_order():
    assert [pass_id for pass_id, _ in LINT_PASSES] == [
        "undeclared-signal",
        "input-driven",
        "multiple-drivers",
        "undriven",
        "system-functions",
        "assignment-style",
    ]


def test_lint_tier_matches_compile_source_diagnostics():
    """lint_design keeps the historical codes and gate."""
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


def test_pass_counters_land_in_registry():
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    try:
        design = design_of(
            """
            module quiet (input wire clk, input wire a, output reg q);
                always @(posedge clk) begin
                    if (a) q = 1'b1;
                end
            endmodule
            """
        )
        run_passes(design)
        from repro.obs import get_registry

        counters = get_registry().snapshot()["counters"]
        assert counters.get("analyze.pass.assignment-style", 0) >= 1
    finally:
        set_registry(previous)

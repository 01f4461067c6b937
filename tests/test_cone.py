"""Cone-screen soundness: differential tests against real simulation.

The headline invariant of the screened verifier: for every candidate, a
``static_screen`` run's verdict must be byte-identical (modulo the
``provenance`` field) to an unscreened run's -- candidates the screen
skips return the memoised base verdict, and that base verdict must equal
what actually simulating the candidate would have produced.

The sweep crosses every template family with one representative mutant per
mutation kind (the same pool the benchmark's screened leg uses), plus
hand-built adversarial edits -- parameters, clocks, resets, ``disable
iff``, assertion bodies -- that the screen must never skip.
"""

import pytest

from repro.analyze import build_dfg, cone_screen, edit_impact
from repro.bugs.mutators import enumerate_mutations
from repro.corpus.templates import all_families
from repro.eval.verifier import CandidateFix, SemanticVerifier, VerifierConfig
from repro.hdl.lint import compile_source

CYCLES = 24
SEEDS = (101, 102)


def build_family_case(family):
    from test_artifacts import build_family_case as build

    return build(family)


def mutant_fixes(source, design):
    """One (line_number, mutated_line) per mutation kind, compiling only."""
    signals = sorted(design.signals)
    lines = source.splitlines()
    chosen = {}
    for number, line in enumerate(lines, start=1):
        for candidate in enumerate_mutations(line, signals):
            if candidate.edit_kind in chosen:
                continue
            mutated = list(lines)
            mutated[number - 1] = candidate.buggy_line
            if compile_source("\n".join(mutated)).design is not None:
                chosen[candidate.edit_kind] = (number, candidate.buggy_line)
    return list(chosen.values())


def verdict_core(verdict):
    payload = verdict.to_dict()
    payload.pop("provenance")
    return payload


# --------------------------------------------------------------------------- #
# the family x mutation-kind differential sweep
# --------------------------------------------------------------------------- #


def test_screened_verdicts_match_unscreened_across_families():
    """Every mutant of every family: screen=cone == screen=off, bytewise."""
    cone_skips = 0
    checked = 0
    for family in all_families():
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        off = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="off"))
        screened = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="cone"))
        for line_number, mutated_line in mutant_fixes(source, design):
            fix = CandidateFix(line_number=line_number, fixed_line=mutated_line)
            baseline = off.verify(source, fix, SEEDS)
            shadow = screened.verify(source, fix, SEEDS)
            assert verdict_core(baseline) == verdict_core(shadow), (
                family.name,
                line_number,
                mutated_line,
                shadow.provenance,
            )
            checked += 1
            if shadow.provenance == "cone_skip":
                cone_skips += 1
    assert checked > 0
    # The sweep must actually exercise the skip path somewhere, or this
    # differential proves nothing about it.
    assert cone_skips > 0


def test_cone_skip_returns_simulated_base_verdict():
    """A skipped candidate's verdict equals simulating the candidate itself."""
    for family in all_families():
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        base_dfg = build_dfg(design)
        verifier = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="off"))
        for line_number, mutated_line in mutant_fixes(source, design):
            lines = source.splitlines()
            lines[line_number - 1] = mutated_line
            mutant_source = "\n".join(lines)
            mutant_design = compile_source(mutant_source).design
            if mutant_design is None:
                continue
            decision = cone_screen(base_dfg, build_dfg(mutant_design))
            if not decision.skip:
                continue
            # Soundness, stated directly: simulate both, compare verdicts.
            base_verdict = verifier.verify_source(source, SEEDS, cycles=CYCLES)
            mutant_verdict = verifier.verify_source(mutant_source, SEEDS, cycles=CYCLES)
            assert verdict_core(base_verdict) == verdict_core(mutant_verdict), (
                family.name,
                line_number,
                mutated_line,
            )


# --------------------------------------------------------------------------- #
# adversarial edits the screen must never skip
# --------------------------------------------------------------------------- #

ADVERSARIAL_BASE = """
module adv #(parameter LIMIT = 7) (
    input wire clk,
    input wire rst_n,
    input wire en,
    output reg [3:0] count,
    output wire done
);
    assign done = (count == LIMIT);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 4'd0;
        else if (en) count <= count + 4'd1;
    end
    property p_reset;
        @(posedge clk) disable iff (!rst_n) en |=> count != 4'd0 || $past(count) == 4'd15;
    endproperty
    a_reset: assert property (p_reset);
endmodule
"""

ADVERSARIAL_EDITS = [
    ("parameter", "parameter LIMIT = 7", "parameter LIMIT = 3"),
    ("clock-edge", "always @(posedge clk or negedge rst_n)", "always @(negedge clk or negedge rst_n)"),
    ("reset-polarity", "if (!rst_n) count <= 4'd0;", "if (rst_n) count <= 4'd0;"),
    ("disable-iff", "disable iff (!rst_n)", "disable iff (1'b0)"),
    ("assertion-body", "en |=> count != 4'd0", "en |=> count == 4'd0"),
    ("signal-width", "output reg [3:0] count", "output reg [4:0] count"),
]


@pytest.mark.parametrize("label,needle,replacement", ADVERSARIAL_EDITS)
def test_adversarial_edits_are_never_cone_skipped(label, needle, replacement):
    assert needle in ADVERSARIAL_BASE, label
    patched_source = ADVERSARIAL_BASE.replace(needle, replacement)
    base = compile_source(ADVERSARIAL_BASE).design
    patched = compile_source(patched_source).design
    assert base is not None and patched is not None, label
    decision = cone_screen(build_dfg(base), build_dfg(patched))
    assert not decision.skip, (label, decision.reason)


def test_in_cone_edit_is_not_skipped_and_out_of_cone_edit_is():
    base = compile_source(ADVERSARIAL_BASE).design
    dfg = build_dfg(base)

    out_of_cone = ADVERSARIAL_BASE.replace("count == LIMIT", "count >= LIMIT")
    decision = cone_screen(dfg, build_dfg(compile_source(out_of_cone).design))
    assert decision.skip
    assert decision.changed_signals == ("done",)

    in_cone = ADVERSARIAL_BASE.replace("count + 4'd1", "count + 4'd2")
    decision = cone_screen(dfg, build_dfg(compile_source(in_cone).design))
    assert not decision.skip
    assert "count" in decision.overlap


def test_noop_edit_is_skipped():
    base = compile_source(ADVERSARIAL_BASE).design
    # Whitespace-only rewrites produce identical node keys: trivially skippable.
    respaced = ADVERSARIAL_BASE.replace("count <= count + 4'd1;", "count <= count  +  4'd1;")
    patched = compile_source(respaced).design
    impact = edit_impact(build_dfg(base), build_dfg(patched))
    assert impact.comparable and impact.changed_signals == ()
    assert cone_screen(build_dfg(base), build_dfg(patched)).skip


def test_comb_loop_candidates_are_simulated_not_skipped_or_rejected():
    source = ADVERSARIAL_BASE
    looped = source.replace("assign done = (count == LIMIT);",
                            "assign done = done | (count == LIMIT);")
    base = build_dfg(compile_source(source).design)
    patched = build_dfg(compile_source(looped).design)
    decision = cone_screen(base, patched)
    assert not decision.skip
    assert "loop" in decision.reason
    # There is no rejection tier: the screened verifier simulates it, and
    # the settling loop yields the same verdict an unscreened run does.
    fix = CandidateFix(
        line_number=0,
        bug_line="    assign done = (count == LIMIT);",
        fixed_line="    assign done = done | (count == LIMIT);",
    )
    screened = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="cone"))
    off = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="off"))
    verdict = screened.verify(source, fix, SEEDS)
    assert verdict.status == "pass" and verdict.provenance == "simulated"
    assert verdict_core(verdict) == verdict_core(off.verify(source, fix, SEEDS))


def test_unknown_static_screen_mode_is_refused():
    with pytest.raises(ValueError, match="static_screen"):
        SemanticVerifier(VerifierConfig(static_screen="full"))


# --------------------------------------------------------------------------- #
# stage2 screening
# --------------------------------------------------------------------------- #


def test_stage2_cone_screen_only_reroutes_verilog_bug_classification():
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.dataaug.stage1 import run_stage1
    from repro.dataaug.stage2 import Stage2Config, run_stage2

    corpus = CorpusGenerator(CorpusConfig(seed=5, design_count=6)).generate()
    samples = run_stage1(corpus).compiled[:3]

    def config(mode):
        return Stage2Config(
            seed=5, random_cycles=20, max_bugs_per_design=4, workers=1, static_screen=mode
        )

    off = run_stage2(samples, config("off"))
    cone = run_stage2(samples, config("cone"))
    cone_again = run_stage2(samples, config("cone"))

    # Deterministic under re-runs.
    assert [e.name for e in cone.sva_bug] == [e.name for e in cone_again.sva_bug]
    assert [e.name for e in cone.verilog_bug] == [e.name for e in cone_again.verilog_bug]

    off_sva = {e.name for e in off.sva_bug}
    off_vb = {e.name for e in off.verilog_bug}
    cone_sva = {e.name for e in cone.sva_bug}
    cone_vb = {e.name for e in cone.verilog_bug}
    # Screening can only move entries from SVA-Bug to Verilog-Bug (a skipped
    # mutant is invisible to every assertion), never invent or drop any.
    assert cone_sva <= off_sva
    assert off_vb <= cone_vb  # indices are preserved across the reroute
    assert len(off_sva) + len(off_vb) == len(cone_sva) + len(cone_vb)

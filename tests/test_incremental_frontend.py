"""Differential suite for the incremental front end.

``compile_source(text, base=)`` re-parses only the module item that a
one-line edit touches and shares every other node with the base's parse.
The full ``compile_source(text)`` is its oracle: for every input below both
must agree on ``ok``, the rendered diagnostics, ``repr`` of the parsed unit,
the design's canonical text and the recorded item spans.  Inputs:

* every mutant the bug injector builds from the 89 grid goldens and from
  their assertion-carrying (Stage-2 augmented) versions;
* seeded random one-line edits that try to move item boundaries;
* every grid golden with its template and mined SVAs inserted before
  ``endmodule``, and seeded random insertions;
* one hand-written edit per fallback guard, each pinned to its reason.

Every full compile is also checked against the pre-sweep analyses of
``frontend_oracle`` (dependency graph, driver lines, lint diagnostics and
walk order), and every design the front end accepts, bases included, must
lower and instantiate in the compiled simulator: ``compile_source`` is the
only gate before simulation.

The incremental path shares AST nodes across designs of different sources,
so the suite also pins that verifying spliced candidates leaves the base's
parse as a fresh parse builds it.
"""

from __future__ import annotations

import random

import pytest

import repro.bugs.injector as injector_module
from design_canon import design_canonical_text
from frontend_oracle import oracle_mismatches
from repro.artifacts import ArtifactStore
from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.eval.verifier import CandidateFix, SemanticVerifier
from repro.hdl.lint import compile_source
from repro.hdl.errors import ParseError
from repro.hdl.lexer import tokenize
from repro.hdl.parser import Parser, parse_source
from repro.hdl.source import leading_whitespace
from repro.obs.metrics import scoped_registry, split_label
from repro.sim import CompiledSimulator, SimulationError
from repro.sim.stimulus import StimulusGenerator
from repro.sva.generator import insert_assertions, mine_assertions, template_assertion_blocks
from repro.sva.kernel import simulate_and_check


def outcome(result):
    return (
        result.ok,
        result.render(),
        repr(result.unit),
        design_canonical_text(result.design),
        result.item_spans,
    )


def assert_runs_compiled(result) -> None:
    """An accepted design lowers and instantiates in the compiled simulator.

    Settling the initial state may fail (a combinational loop): that is a
    simulation error, the verdict such a design gets.  Any other exception,
    a ``CompileError`` above all, fails the test.
    """
    if result.ok:
        try:
            CompiledSimulator(result.design)
        except SimulationError:
            pass


def mismatches(base_text: str, texts) -> list[str]:
    """The texts whose incremental compile differs from the full one, or
    whose full compile differs from the pre-sweep analyses (frontend_oracle).

    Every accepted design among the base and the texts must also run in
    the compiled simulator (:func:`assert_runs_compiled`)."""
    base = compile_source(base_text)
    assert_runs_compiled(base)
    failed = []
    for text in texts:
        full = compile_source(text)
        assert_runs_compiled(full)
        if outcome(compile_source(text, base=base)) != outcome(full) or oracle_mismatches(full):
            failed.append(text)
    return failed


def reparse_counts(registry) -> dict[str, int]:
    """``{"items": n, "inserts": n, <fallback reason>: n, ...}`` from the counters."""
    counts = {}
    for key, value in registry.counters.items():
        name, label = split_label(key)
        if name == "hdl.reparse.items":
            counts["items"] = value
        elif name == "hdl.reparse.inserts":
            counts["inserts"] = value
        elif name == "hdl.reparse.fallback":
            counts[label] = value
    return counts


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def grid():
    """(golden, augmented golden) for each point of the 89-design grid."""
    pairs = []
    for family in all_families():
        for point, params in enumerate(family.parameter_grid):
            artifact = family.build(f"{family.name}_{point:02d}", **params)
            blocks = template_assertion_blocks(artifact.template_svas, artifact.family)
            pairs.append((artifact.source, insert_assertions(artifact.source, blocks)))
    return pairs


class RecordingStore(ArtifactStore):
    """Records the (source, base source) of every elaboration."""

    def __init__(self):
        super().__init__()
        self.requests: list[tuple[str, str]] = []

    def elaborate_source(self, source, base_source=None):
        self.requests.append((source, base_source))
        return super().elaborate_source(source, base_source)


def injector_mutants(source: str, monkeypatch, seed: int = 7) -> list[str]:
    """Every mutant the bug injector builds from ``source``, kept or not."""
    store = RecordingStore()
    monkeypatch.setattr(injector_module, "default_store", lambda: store)
    design = store.compile(source).design
    BugInjector(InjectionConfig(seed=seed)).inject("dut", source, design)
    assert all(base == source for _, base in store.requests)
    return [mutant for mutant, _ in store.requests]


#: Words that open or close a statement, block or module.
BOUNDARY_WORDS = ("else", "end", "begin", "endmodule", "end else begin", "endcase", "end end")
_HEADER_STARTS = ("module", "input", "output", "inout", "parameter", "localparam", ");")


def random_edit(rng: random.Random, source: str) -> str:
    """One seeded one-line edit of ``source`` that tries to move item boundaries."""
    lines = source.split("\n")
    index = rng.randrange(len(lines))
    line = lines[index]
    indent = leading_whitespace(line)
    kind = rng.randrange(9)
    if kind == 0:
        new = f"{line} {rng.choice(BOUNDARY_WORDS)}"
    elif kind == 1:
        new = f"{indent}{rng.choice(BOUNDARY_WORDS)} {line.lstrip()}"
    elif kind == 2:
        cuts = [at for at, ch in enumerate(line) if ch == ";"] or [len(line) - 1]
        at = rng.choice(cuts)
        new = line[:at] + line[at + 1 :]
    elif kind == 3:
        new = rng.choice(lines)
    elif kind == 4:
        new = f"{indent}// {rng.choice(lines).strip()}"
    elif kind == 5:
        new = rng.choice(("", indent))
    elif kind == 6:
        header = [at for at, text in enumerate(lines) if text.strip().startswith(_HEADER_STARTS)]
        index = rng.choice(header or [index])
        line = lines[index]
        new = rng.choice(
            (
                line.replace(",", "", 1),
                line.replace("input", "output", 1),
                line.replace("wire", "reg", 1),
                line.replace("]", "] [1:0]", 1),
                line.replace("=", "= 1 +", 1),
                line + ",",
            )
        )
    elif kind == 7:
        at = rng.randrange(len(line) + 1)
        new = line[:at] + "//" + line[at:]
    else:
        words = line.split(" ")
        del words[rng.randrange(len(words))]
        new = " ".join(words)
    lines[index] = new
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# the differential checks
# --------------------------------------------------------------------------- #


def test_injector_mutants_of_the_grid_match_the_full_parse(grid, monkeypatch):
    assert len(grid) == 89
    edits = 0
    with scoped_registry() as registry:
        for golden, augmented in grid:
            for base in (golden, augmented):
                mutants = injector_mutants(base, monkeypatch)
                edits += len(mutants)
                assert mismatches(base, mutants) == []
    counts = reparse_counts(registry)
    assert edits > 1000
    # Two compiles with a base per mutant: the recording store's and the
    # differential's.  Every one of them re-parsed a single item.
    assert counts == {"items": 2 * edits}


def test_random_one_line_edits_match_the_full_parse(grid):
    rng = random.Random(21)
    sources = [source for pair in grid for source in pair]
    failures = []
    with scoped_registry() as registry:
        for _ in range(1500):
            base = rng.choice(sources)
            failures += mismatches(base, [random_edit(rng, base)])
    assert failures == []
    counts = reparse_counts(registry)
    # Both paths are taken, and the edits reach every guard a single
    # line of a comment-free source can.
    assert counts["items"] > 100
    assert set(counts) == {
        "items", "not one line", "unsafe character", "outside items", "outside columns",
        "first token", "last token", "item parse", "hdl error",
    }


def test_assign_and_always_body_mutants_take_the_incremental_path(grid):
    from repro.bugs.mutators import enumerate_mutations
    from repro.hdl.source import SourceFile

    golden = grid[0][0]
    base = compile_source(golden)
    signals = sorted(base.design.signals)
    source_file = SourceFile(golden)
    lines = {"assign": [], "always body": []}
    in_always = False
    for number, line in enumerate(golden.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith("always"):
            in_always = True
        elif stripped.startswith("assign"):
            lines["assign"].append(number)
        elif in_always and "<=" in stripped:
            lines["always body"].append(number)
    for where, numbers in lines.items():
        assert numbers, where
        with scoped_registry() as registry:
            edits = 0
            for number in numbers:
                for mutation in enumerate_mutations(source_file.line(number), signals):
                    text = source_file.with_line_replaced(number, mutation.buggy_line).text
                    compile_source(text, base=base)
                    edits += 1
        assert edits and reparse_counts(registry) == {"items": edits}, where


def test_verifying_spliced_candidates_leaves_the_base_parse_intact(grid, monkeypatch):
    _, augmented = next(pair for pair in grid if pair[0] != pair[1])
    store = ArtifactStore()
    verifier = SemanticVerifier(artifacts=store)
    base_lines = augmented.split("\n")
    candidates = []
    for mutant in injector_mutants(augmented, monkeypatch)[:8]:
        number = next(
            n for n, (old, new) in enumerate(zip(base_lines, mutant.split("\n")), 1) if old != new
        )
        candidates.append(CandidateFix(number, mutant.split("\n")[number - 1]))
    assert candidates
    with scoped_registry() as registry:
        for fix in candidates:
            verdict = verifier.verify(augmented, fix, (1, 2))
            assert verdict.status in ("pass", "assertion_fail", "sim_error", "compile_fail")
    assert reparse_counts(registry).get("items", 0) == len(candidates)
    # Spliced designs share nodes with the base parse; none may write one.
    assert repr(store.compile(augmented).unit) == repr(parse_source(augmented))


def test_mutants_share_block_bodies_and_leave_the_base_unchanged(grid, monkeypatch):
    """Each mutant's unedited always blocks are the base parse's own body
    nodes; compiling, lowering, simulating and checking every mutant of
    every family writes none of them."""
    shared = 0
    for golden, augmented in grid:
        if golden == augmented:
            continue
        store = ArtifactStore()
        base = store.compile(augmented)
        before = (repr(base.unit), design_canonical_text(base.design))
        mutants = injector_mutants(augmented, monkeypatch)
        outcomes = simulate_and_check(
            store, [(mutant, (1,)) for mutant in mutants], 48, "test", augmented
        )
        assert len(outcomes) == len(mutants)
        base_bodies = {id(block.body) for block in base.design.comb_blocks + base.design.seq_blocks}
        for mutant in mutants:
            design = store.compile(mutant, augmented).design
            if design is not None:
                shared += sum(
                    id(block.body) in base_bodies
                    for block in design.comb_blocks + design.seq_blocks
                )
        assert (repr(base.unit), design_canonical_text(base.design)) == before
        fresh = compile_source(augmented)
        assert before == (repr(fresh.unit), design_canonical_text(fresh.design))
    assert shared > 1000


# --------------------------------------------------------------------------- #
# one edit per guard
# --------------------------------------------------------------------------- #

GUARDED = """\
module guarded #(parameter W = 4) (
    input wire clk,
    input wire [W-1:0] a,
    output reg [W-1:0] q,
    output wire [W-1:0] y
);
    parameter P = 2; wire [W-1:0] t;
    wire [W-1:0] u; assign u = a;
    assign t = a + P;
    assign y = t ^ u;
    always @(posedge clk) begin
        if (a[0]) q <= t;
        else q <= a; // keep
    end endmodule
"""

#: (line number, new line, the fallback reason or None for the incremental path).
GUARD_EDITS = [
    (10, "    assign y = t | u;", None),
    (12, "        if (a[1]) q <= u;", None),
    (13, "        else q <= t; // keep", None),
    (14, "  end endmodule", None),
    (10, '    assign y = t ^ u; // "', "unsafe character"),
    (10, "    assign y = t ^ \\u ;", "unsafe character"),
    (10, "    assign y = t /* x */ ^ u;", "unsafe character"),
    (10, "    assign y = t ^ u; /* open", "unsafe character"),
    (10, "    assign y = t ^ u; // */", "unsafe character"),
    (10, "    assign y = t ^ u; `define X", "unsafe character"),
    (1, "module guarded #(parameter W = 5) (", "outside items"),
    (3, "    input wire [W-1:0] a, b,", "outside items"),
    (8, "    wire [W-1:0] u; assign u = ~a;", "several items"),
    (7, "    parameter P = 3; wire [W-1:0] t;", "outside columns"),
    (14, "    end endmodule // done", "outside columns"),
    (10, "    wire [W-1:0] y2 = t;", "first token"),
    (10, "     assign y = t ^ u;", "first token"),
    (10, "    assign_y = t ^ u;", "first token"),
    (14, "    end // endmodule", "last token"),
    (10, "    assign y = t ^ u; assign q = a;", "item parse"),
    (10, "    input y;", "first token"),
    (12, "        if (a[0]) q <= t; end", "item parse"),
    (10, "    assign y = t ^ * u;", "hdl error"),
    (10, "    assign y = t ^ nosuch;", None),
]


@pytest.mark.parametrize("number,new_line,reason", GUARD_EDITS)
def test_each_guard_falls_back_to_the_full_parse(number, new_line, reason):
    lines = GUARDED.split("\n")
    lines[number - 1] = new_line
    text = "\n".join(lines)
    base = compile_source(GUARDED)
    assert base.ok
    with scoped_registry() as registry:
        result = compile_source(text, base=base)
    assert outcome(result) == outcome(compile_source(text))
    assert reparse_counts(registry) == {reason or "items": 1}


def test_parse_module_item_accepts_exactly_one_body_item():
    def item(text):
        return Parser(tokenize(text)).parse_module_item()

    assert type(item("assign a = b;")).__name__ == "ContinuousAssign"
    assert type(item("always @(posedge clk) q <= d;")).__name__ == "AlwaysBlock"
    # Header writes, two items and a partial item are not one body item.
    for text in ("input wire [3:0] a;", "parameter P = 1;", "assign a = b; assign c = d;",
                 "assign a = b; end"):
        assert item(text) is None, text
    with pytest.raises(ParseError):
        item("")


def test_line_count_block_comment_and_unchanged_text_fall_back():
    base = compile_source(GUARDED)
    commented = GUARDED.replace("// keep", "/* keep */")
    lines = GUARDED.split("\n")
    two_lines = "\n".join(
        lines[:9] + ["    assign y = t | u;", "    assign t = a - P;"] + lines[11:]
    )
    cases = [
        (GUARDED.replace("    assign y = t ^ u;\n", ""), base, "line count"),
        (two_lines, base, "not one line"),
        (GUARDED, base, "not one line"),
        (commented.replace("t ^ u", "t | u"), compile_source(commented), "block comment"),
        (GUARDED, compile_source("module broken("), "base did not parse"),
    ]
    for text, base_result, reason in cases:
        with scoped_registry() as registry:
            result = compile_source(text, base=base_result)
        assert outcome(result) == outcome(compile_source(text)), reason
        assert reparse_counts(registry) == {reason: 1}


# --------------------------------------------------------------------------- #
# insertions before endmodule
# --------------------------------------------------------------------------- #


def sva_insertions(family, point: int, params) -> tuple[str, list[str]]:
    """A grid golden and its sources with template and mined SVAs inserted.

    The candidates are Stage 2's: the template blocks plus the assertions
    mined from a trace of the golden.  Inserted are all of them, the
    template blocks alone, the mined ones alone and each one by itself.
    """
    artifact = family.build(f"{family.name}_{point:02d}", **params)
    golden = artifact.source
    design = compile_source(golden).design
    vectors = StimulusGenerator(design, seed=11).mixed_stimulus(random_cycles=48).vectors
    template = template_assertion_blocks(artifact.template_svas, artifact.family)
    mined = mine_assertions(design, CompiledSimulator(design).run(vectors), max_assertions=5)
    groups = [template + mined, template, mined] + [[one] for one in template + mined]
    texts = {insert_assertions(golden, group) for group in groups}
    texts.discard(golden)
    return golden, sorted(texts)


def test_grid_goldens_with_inserted_svas_take_the_insertion_path():
    edits = 0
    with scoped_registry() as registry:
        for family in all_families():
            for point, params in enumerate(family.parameter_grid):
                golden, texts = sva_insertions(family, point, params)
                edits += len(texts)
                assert mismatches(golden, texts) == [], family.name
    assert edits > 500
    # Two compiles with a base per text: the differential's and the oracle
    # check's full compile has none.  Every one parsed only the insertion.
    assert reparse_counts(registry) == {"inserts": edits}


def random_insertion(rng: random.Random, source: str, blocks: list[str]) -> str:
    """Seeded lines inserted into ``source``, mostly right before ``endmodule``."""
    lines = source.split("\n")
    ends = [at for at, line in enumerate(lines) if line.lstrip().startswith("endmodule")]
    at = ends[-1] if ends and rng.random() < 0.8 else rng.randrange(len(lines) + 1)
    pool = [
        lambda: rng.choice(blocks) if blocks else "    assign nosuch = 1;",
        lambda: rng.choice(lines),
        lambda: "    " + rng.choice(BOUNDARY_WORDS),
        lambda: "    else " + rng.choice(lines).strip(),
        lambda: "    /* " + rng.choice(lines).strip() + " */",
        lambda: "    // " + rng.choice(lines).strip(),
        lambda: rng.choice(("", "    ")),
        lambda: rng.choice(
            ("    input wire extra;", "    parameter Q = 1;", "    localparam L = 2;",
             "    wire [3:0] extra_w;", "    wire [1:0] unary_w = {&4'hf, ^4'h6} ^ ~2'b01;",
             "    assign nosuch = 1;", "    assign = ;",
             '    initial $display("x\\', "module extra (input wire c);")
        ),
    ]
    inserted = [rng.choice(pool)() for _ in range(rng.randint(1, 4))]
    return "\n".join(lines[:at] + inserted + lines[at:])


def test_random_insertions_match_the_full_parse(grid):
    rng = random.Random(30)
    blocks = {
        golden: [block.render() for block in template_assertion_blocks(
            artifact.template_svas, artifact.family)]
        for family in all_families()
        for point, params in enumerate(family.parameter_grid)
        for artifact in (family.build(f"{family.name}_{point:02d}", **params),)
        for golden in (artifact.source,)
    }
    sources = [(source, blocks[golden]) for golden, augmented in grid
               for source in (golden, augmented)]
    failures = []
    with scoped_registry() as registry:
        for _ in range(800):
            base, candidates = rng.choice(sources)
            failures += mismatches(base, [random_insertion(rng, base, candidates)])
    assert failures == []
    counts = reparse_counts(registry)
    assert counts["inserts"] > 100
    assert set(counts) == {
        "inserts", "not an insertion", "block comment", "first token", "item parse",
        "hdl error",
    }


INSERT_BASE = """\
module inserted (
    input wire clk,
    input wire a,
    input wire t,
    output reg q
);
    always @(posedge clk)
        if (a) q <= t;
endmodule
"""

ASSERTION = "    a_q: assert property (@(posedge clk) a |=> q == $past(t));"

#: (lines to insert, where (None: before endmodule), the reason or None).
INSERT_EDITS = [
    ([ASSERTION], None, None),
    ([ASSERTION, "    // trailing note", ""], None, None),
    (["    property p_q;", "        @(posedge clk) a |=> q;", "    endproperty",
      "    assert property (p_q);"], None, None),
    (["    wire w;", "    assign w = a;"], None, None),
    ([ASSERTION], 7, "not an insertion"),
    (["    /* note */"], None, "block comment"),
    (["    else q <= a;"], None, "first token"),
    (["    input wire b;"], None, "item parse"),
    (["    parameter Q = 1;"], None, "item parse"),
    (["endmodule", "module extra (input wire c);"], None, "item parse"),
    (["    assign = ;"], None, "hdl error"),
    (["    assign q = a;"], None, None),
]


@pytest.mark.parametrize("inserted,at,reason", INSERT_EDITS)
def test_each_insertion_guard_falls_back_to_the_full_parse(inserted, at, reason):
    lines = INSERT_BASE.split("\n")
    at = lines.index("endmodule") if at is None else at
    text = "\n".join(lines[:at] + inserted + lines[at:])
    base = compile_source(INSERT_BASE)
    assert base.ok
    with scoped_registry() as registry:
        result = compile_source(text, base=base)
    assert outcome(result) == outcome(compile_source(text))
    assert not oracle_mismatches(result)
    assert reparse_counts(registry) == {reason or "inserts": 1}


def test_insertion_guards_on_the_base_side():
    # The last module has no item, so nothing shows where its body ends.
    two_modules = INSERT_BASE + "module empty (input wire c);\nendmodule\n"
    # A string that ends inside the endmodule line's comment in the full
    # parse leaves no endmodule token where the insertion expects one.
    quoted = INSERT_BASE.replace("endmodule", 'endmodule // "')
    cases = [
        (two_modules, ["    wire w;"], "last item"),
        (quoted, ['    initial $display("x\\'], "endmodule line"),
    ]
    for base_text, inserted, reason in cases:
        base = compile_source(base_text)
        assert base.ok, base.render()
        lines = base_text.split("\n")
        at = max(i for i, line in enumerate(lines) if line.startswith("endmodule"))
        text = "\n".join(lines[:at] + inserted + lines[at:])
        with scoped_registry() as registry:
            result = compile_source(text, base=base)
        assert outcome(result) == outcome(compile_source(text)), reason
        assert reparse_counts(registry) == {reason: 1}

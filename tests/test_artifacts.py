"""Differential suite for the compiled-artifact cache (repro.artifacts).

The hard invariant this file pins: **incremental relowering is
byte-identical to full recompilation** -- simulator traces, per-assertion
verdicts, and whole eval reports must not change with cache state, worker
count, or relowering base.  The sweep covers every template
family crossed with one representative mutation per mutation kind, so
every lowering construct the corpus can produce goes through the
incremental path at least once.

Plus the store mechanics: one entry per source text (parse and lowerings
together), a base named by its source, the LRU bound/eviction behaviour,
and the two-level ResultCache sharding (older layouts miss).
"""

import json

import pytest

from design_canon import design_canonical_text
from repro.artifacts import DEFAULT_LRU_ENTRIES, ArtifactStore
from repro.bugs.mutators import enumerate_mutations
from repro.corpus.templates import all_families
from repro.eval.executor import VerificationJob, run_verification_jobs
from repro.eval.verifier import (
    CandidateFix,
    RepairVerdict,
    SemanticVerifier,
)
from repro.hdl.lint import compile_source
from repro.runtime import JobPolicy
from repro.runtime.cache import content_key
from repro.sim.compile import CompiledSimulator, compile_design
from repro.sim.stimulus import StimulusGenerator
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import insert_assertions, template_assertion_blocks

CYCLES = 24


def build_family_case(family):
    """(augmented source, design) for one template family, or None.

    The source carries the family's template SVAs so the checker half of
    the differential is exercised too.
    """
    artifact = family.build("dut_x", **family.parameter_grid[0])
    source = artifact.source
    blocks = template_assertion_blocks(artifact.template_svas, artifact.family)
    if blocks:
        source = insert_assertions(source, blocks)
    result = compile_source(source)
    if not result.ok or result.design is None:
        result = compile_source(artifact.source)
        source = artifact.source
    if not result.ok or result.design is None:
        return None
    return source, result.design


def representative_mutants(source, design):
    """One compiling mutant source per (mutation kind) found in ``source``."""
    signals = sorted(design.signals)
    lines = source.splitlines()
    chosen: dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        for candidate in enumerate_mutations(line, signals):
            if candidate.edit_kind in chosen:
                continue
            mutated = list(lines)
            mutated[number - 1] = candidate.buggy_line
            mutant = "\n".join(mutated)
            check = compile_source(mutant)
            if check.ok and check.design is not None:
                chosen[candidate.edit_kind] = mutant
    return chosen


def run_trace(design, compiled, seed=7):
    vectors = StimulusGenerator(design, seed=seed).mixed_stimulus(
        random_cycles=CYCLES
    ).vectors
    return CompiledSimulator(design, compiled=compiled).run(vectors)


def report_keys(report):
    return {name: outcome.comparison_key() for name, outcome in report.outcomes.items()}


# --------------------------------------------------------------------------- #
# the design-equality oracle
# --------------------------------------------------------------------------- #


def test_canonical_text_is_stable_across_elaborations_and_splits_mutants():
    for family in all_families():
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        again = compile_source(source).design
        assert design_canonical_text(design) == design_canonical_text(again), family.name
        for mutant in representative_mutants(source, design).values():
            mutant_text = design_canonical_text(compile_source(mutant).design)
            assert mutant_text != design_canonical_text(design), (family.name, mutant_text)


# --------------------------------------------------------------------------- #
# the differential sweep: every family x every mutation kind
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.name)
def test_incremental_relowering_is_byte_identical(family):
    """Full vs incremental lowering: identical traces and identical verdicts."""
    case = build_family_case(family)
    if case is None:
        pytest.skip(f"{family.name}: no compilable case")
    source, design = case
    base_compiled = compile_design(design)
    base_checker = CompiledAssertionChecker(design)
    mutants = representative_mutants(source, design)
    if not mutants:
        pytest.skip(f"{family.name}: no compiling mutants")
    reused_anywhere = 0
    for kind, mutant_source in sorted(mutants.items()):
        mutant = compile_source(mutant_source).design
        full = compile_design(mutant)
        incremental = compile_design(mutant, base=base_compiled)
        # Mutations that touch declarations or widths may legitimately
        # force a full relower (relower_fallback_reason set); the identity
        # below must hold either way.
        reused_anywhere += incremental.relower_nodes_reused
        full_trace = run_trace(mutant, full)
        incremental_trace = run_trace(mutant, incremental)
        assert full_trace.materialized() == incremental_trace.materialized(), (
            family.name,
            kind,
        )
        if mutant.assertions:
            full_check = CompiledAssertionChecker(mutant)
            incremental_check = CompiledAssertionChecker(mutant, base=base_checker)
            assert report_keys(incremental_check.check(incremental_trace)) == report_keys(
                full_check.check(full_trace)
            ), (family.name, kind)
            assert incremental_check.engine_choices == full_check.engine_choices
    # The sweep must actually exercise the reuse path, not fall back
    # everywhere: across this family's mutants some closures were reused.
    assert reused_anywhere > 0, family.name


def test_incompatible_base_falls_back_to_full_lowering():
    result = compile_source(
        "module dut_a(input wire clk, input wire [3:0] a, output wire [3:0] q);\n"
        "  assign q = a + 4'd1;\nendmodule\n"
    )
    other = compile_source(
        "module dut_a(input wire clk, input wire [7:0] a, output wire [7:0] q);\n"
        "  assign q = a + 8'd1;\nendmodule\n"
    )
    base = compile_design(result.design)
    relowered = compile_design(other.design, base=base)
    assert relowered.relower_fallback_reason == "signal widths changed"
    assert relowered.relower_nodes_reused == 0


# --------------------------------------------------------------------------- #
# eval-report differential: store state / workers change nothing
# --------------------------------------------------------------------------- #


def eval_jobs():
    jobs = []
    for family in all_families()[:3]:
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        mutants = representative_mutants(source, design)
        if not mutants:
            continue
        buggy = sorted(mutants.items())[0][1]
        buggy_lines = buggy.splitlines()
        golden_lines = source.splitlines()
        diff_line = next(
            i
            for i, (a, b) in enumerate(zip(golden_lines, buggy_lines), start=1)
            if a != b
        )
        fixes = (
            CandidateFix(diff_line, golden_lines[diff_line - 1], buggy_lines[diff_line - 1]),
            CandidateFix(diff_line, buggy_lines[diff_line - 1], buggy_lines[diff_line - 1]),
            CandidateFix(10_000, "assign nonsense = 1;", ""),
        )
        jobs.append(
            VerificationJob(
                case_name=f"case_{family.name}",
                buggy_source=buggy,
                fixes=fixes,
                seeds=(3, 5),
                cycles=CYCLES,
            )
        )
    assert jobs
    return jobs


def verdict_dicts(shards):
    return [[v.to_dict() for v in shard.verdicts] for shard in shards]


def full_lowering_verdicts(jobs):
    """The reference: every candidate lowered from scratch in a fresh store."""
    shards = []
    for job in jobs:
        verdicts = []
        for fix in job.fixes:
            verifier = SemanticVerifier(artifacts=ArtifactStore())
            patched, line_number, detail = verifier.apply_fix(job.buggy_source, fix)
            if patched is None:
                verdict = RepairVerdict(
                    status="not_applicable", seeds=job.seeds, cycles=job.cycles,
                    detail=detail,
                )
            else:
                verdict = verifier.verify_source(patched, job.seeds, cycles=job.cycles)
                verdict.applied_line_number = line_number
            verdicts.append(verdict.to_dict())
        shards.append(verdicts)
    return shards


def test_eval_reports_match_full_lowering_for_any_tier_and_workers(tmp_path):
    jobs = eval_jobs()
    baseline = full_lowering_verdicts(jobs)
    assert any(
        verdict["status"] == "pass" for shard in baseline for verdict in shard
    )
    variants = [
        dict(policy=JobPolicy(workers=1)),
        dict(policy=JobPolicy(workers=2)),
        dict(policy=JobPolicy(workers=2), cache_dir=tmp_path / "verdicts"),
    ]
    for options in variants:
        assert verdict_dicts(run_verification_jobs(jobs, **options)) == baseline, options


def test_verifier_base_artifacts_are_compiled_once_per_case(tmp_path):
    job = eval_jobs()[0]
    store = ArtifactStore()
    verifier = SemanticVerifier(artifacts=store)
    sources = {job.buggy_source}
    for fix in job.fixes:
        verifier.verify(job.buggy_source, fix, job.seeds, cycles=CYCLES)
        patched, _, _ = verifier.apply_fix(job.buggy_source, fix)
        if patched is not None:
            sources.add(patched)
    # One miss per distinct source: the buggy base was compiled once and
    # every candidate found it in the store.
    assert store.stats()["misses"] == len(sources) == len(store)
    # A second verifier (no verdict memo) over the same store compiles nothing.
    again = SemanticVerifier(artifacts=store)
    for fix in job.fixes:
        again.verify(job.buggy_source, fix, job.seeds, cycles=CYCLES)
    assert store.stats()["misses"] == len(sources)


# --------------------------------------------------------------------------- #
# the front door: every consumer elaborates through the store
# --------------------------------------------------------------------------- #


@pytest.fixture
def parse_counts(monkeypatch):
    """Parses per source text, counted wherever ``compile_source`` is bound.

    Every ``repro`` module that imported the function by name gets the
    counting wrapper too, and the process-wide store starts empty, so an
    earlier test's LRU cannot hide a parse.
    """
    import sys
    from collections import Counter

    import repro.artifacts.store as store_module
    import repro.hdl.lint as lint

    counts = Counter()
    original = lint.compile_source

    def counting(source, *args, **kwargs):
        counts[source] += 1
        return original(source, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "compile_source", None) is original:
            monkeypatch.setattr(module, "compile_source", counting)
    monkeypatch.setattr(store_module, "_DEFAULT_STORE", None)
    return counts


def test_each_mutant_and_case_source_is_parsed_once(parse_counts, monkeypatch):
    import repro.artifacts.store as store_module
    from repro.corpus.generator import CorpusGenerator
    from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
    from repro.eval.verifier import derive_verification_seeds
    from repro.model.case import RepairCase

    evicted = set()
    lookup = ArtifactStore._entry

    def recording_entry(store, source, base_source=None):
        before = set(store._lru)
        found = lookup(store, source, base_source)
        evicted.update(before - set(store._lru))
        return found

    monkeypatch.setattr(ArtifactStore, "_entry", recording_entry)
    config = PipelineConfig.small(workers=1)
    corpus = CorpusGenerator(config.corpus, config.job_policy).generate()
    datasets = DataAugmentationPipeline(config).run(corpus)
    # Stage 1 compiles each golden through the store, and Stage 2's SVA
    # validation finds it there -- unless the bounded LRU evicted it first
    # (this run compiles more sources than the LRU holds).
    goldens = [sample.source for sample in corpus.samples]
    parsed_twice = [
        source for source in goldens
        if parse_counts[source] != 1 and content_key(source) not in evicted
    ]
    assert goldens and not parsed_twice
    assert sum(parse_counts[source] == 1 for source in goldens) >= len(goldens) - 1
    mutants = {entry.buggy_source for entry in datasets.all_sva_entries}
    mutants |= {entry.buggy_source for entry in datasets.verilog_bug}
    assert mutants
    # Bug injection already elaborated every mutant it kept; Stage 2's
    # triage must reuse that elaboration, not parse the mutant again.
    reparsed = {source: parse_counts[source] for source in mutants if parse_counts[source] > 1}
    assert not reparsed

    entry = datasets.sva_eval_machine[0]
    monkeypatch.setattr(store_module, "_DEFAULT_STORE", None)
    parse_counts.clear()
    case = RepairCase.from_entry(entry)
    assert case.design is not None
    verdict = SemanticVerifier().verify(
        entry.buggy_source,
        CandidateFix(entry.line_number, entry.golden_line, entry.buggy_line),
        derive_verification_seeds(entry.name, entry.stimulus_seed),
    )
    assert verdict.status in ("pass", "assertion_fail")
    assert parse_counts[entry.buggy_source] == 1


# --------------------------------------------------------------------------- #
# the in-process LRU: bound, eviction, recompute
# --------------------------------------------------------------------------- #


def numbered_source(index):
    return (
        f"module dut_{index}(input wire clk, input wire [3:0] a, output wire [3:0] q);\n"
        f"  assign q = a + 4'd{index};\nendmodule\n"
    )


def test_lru_bound_evicts_and_recomputes():
    store = ArtifactStore(max_entries=2)
    sources = [numbered_source(i) for i in range(1, 4)]
    compiled = [store.compiled_design(source) for source in sources]
    assert all(c is not None for c in compiled)
    assert len(store) == 2
    assert store.evictions >= 1
    # The evicted source recomputes transparently (a fresh object, same
    # behaviour), and the most-recently-used entry is still cached.
    assert store.compiled_design(sources[2]) is compiled[2]
    recomputed = store.compiled_design(sources[0])
    assert recomputed is not None and recomputed is not compiled[0]
    assert ArtifactStore().max_entries == DEFAULT_LRU_ENTRIES == 64


def test_recompiles_count_misses_on_sources_compiled_before():
    """``artifact.recompiles`` counts a miss only when the store compiled
    that source before, so first compiles and hits never show in it."""
    from repro.obs.metrics import scoped_registry
    from repro.obs.report import render_report
    from repro.obs.trace import TraceData

    store = ArtifactStore(max_entries=1)
    first, second = numbered_source(1), numbered_source(2)
    with scoped_registry() as registry:
        store.compile(first)
        store.compile(first)  # a hit
        store.compile(second)  # evicts the first
        assert store.recompiles == 0
        store.compile(first)
        store.compile(second)
    assert store.stats()["recompiles"] == store.recompiles == 2
    assert registry.counters["artifact.recompiles"] == 2
    report = render_report(TraceData(metrics={"counters": registry.counters}))
    assert "evictions 3 · recompiles 2" in report
    assert "artifact.recompiles:" not in report  # shown once, in the cache line


def test_initial_block_design_is_lowered_once():
    # An initial block lowers like any other block; the second lookup is a
    # hit on the same lowering.
    source = (
        "module dut_x(input wire clk, output reg q);\n"
        "  initial q = 0;\n"
        "  always @(posedge clk) q <= ~q;\nendmodule\n"
    )
    store = ArtifactStore()
    first = store.compiled_design(source)
    assert store.compiled_design(source) is first
    assert store.misses == 1 and store.hits == 1
    assert len(first.initial_bodies) == 1


# --------------------------------------------------------------------------- #
# one entry per source; a base named by its source
# --------------------------------------------------------------------------- #


def one_line_edit(source):
    """``source`` with its first ``+`` on a nonblocking-assignment line made ``-``."""
    lines = source.split("\n")
    number = next(i for i, line in enumerate(lines) if "<=" in line and "+" in line)
    lines[number] = lines[number].replace("+", "-", 1)
    return "\n".join(lines)


def edited_family_case():
    """(augmented source, one-line edit of it) for the first family that has both."""
    for family in all_families():
        case = build_family_case(family)
        if case is None or not case[1].assertions:
            continue
        source = case[0]
        if any("<=" in line and "+" in line for line in source.split("\n")):
            return source, one_line_edit(source)
    raise AssertionError("no family has an editable clocked addition")


def test_edit_named_by_base_source_relowers_against_the_cached_base():
    source, edited = edited_family_case()
    store = ArtifactStore()
    base_compiled = store.compiled_design(source)
    base_checker = store.checker(source)
    compiled = store.compiled_design(edited, source)
    assert compiled is not None and compiled is not base_compiled
    assert compiled.relower_nodes_reused > 0
    assert compiled.relower_fallback_reason is None
    checker = store.checker(edited, source)
    assert checker.assertions_reused == len(store.elaborate_source(source)[0].assertions)
    assert store.checker(source) is base_checker
    # The edit's lowering is the same object on every later lookup.
    assert store.compiled_design(edited, source) is compiled
    assert store.compiled_design(edited) is compiled


def test_edit_after_base_eviction_recompiles_the_base_with_identical_verdicts():
    source, edited = edited_family_case()
    seeds = (3, 5)
    store = ArtifactStore(max_entries=2)
    warm = SemanticVerifier(artifacts=store)
    first = warm.verify_source(edited, seeds, cycles=CYCLES, base_source=source)
    assert store.misses == 2
    for index in (1, 2):  # evict both the edit and its base
        store.compile(numbered_source(index))
    assert store.evictions == 2
    cold = SemanticVerifier(artifacts=store)
    again = cold.verify_source(edited, seeds, cycles=CYCLES, base_source=source)
    # The base was compiled again, as was the edit against it.
    assert store.misses == 6
    assert store.recompiles == 2
    assert again.to_dict() == first.to_dict()
    reference = SemanticVerifier(artifacts=ArtifactStore()).verify_source(
        edited, seeds, cycles=CYCLES
    )
    assert again.to_dict() == reference.to_dict()


def test_one_eviction_drops_a_sources_parse_and_lowerings_together():
    first, second = numbered_source(1), numbered_source(2)
    store = ArtifactStore(max_entries=1)
    result = store.compile(first)
    compiled = store.compiled_design(first)
    checker = store.checker(first)
    dataflow = store.dataflow(first)
    assert len(store) == 1 and store.evictions == 0
    assert store.compile(first) is result and store.dataflow(first) is dataflow
    store.compile(second)
    assert len(store) == 1 and store.evictions == 1
    assert store.compiled_design(first) is not compiled
    assert store.checker(first) is not checker
    assert store.compile(first) is not result
    assert store.evictions == 2


def test_rejected_and_uncompilable_sources_are_answered_from_their_entry(monkeypatch):
    import repro.hdl.lint as lint
    import repro.sim.compile as sim_compile

    compiles, lowerings = [], []
    compile_source_fn, compile_design_fn = lint.compile_source, sim_compile.compile_design

    def counting_compile(source, *args, **kwargs):
        compiles.append(source)
        return compile_source_fn(source, *args, **kwargs)

    def counting_lower(design, *args, **kwargs):
        lowerings.append(design)
        return compile_design_fn(design, *args, **kwargs)

    monkeypatch.setattr(lint, "compile_source", counting_compile)
    monkeypatch.setattr(sim_compile, "compile_design", counting_lower)
    store = ArtifactStore()
    broken = "module dut_x(input wire clk, output wire q);\n  assign q = ;\nendmodule\n"
    for _ in range(2):
        design, error = store.elaborate_source(broken)
        assert design is None and error
    assert compiles == [broken]
    with pytest.raises(ValueError):
        store.compiled_design(broken)
    assert compiles == [broken]
    # An edit of a base that does not compile lowers from scratch.
    fixed = numbered_source(1)
    assert store.compiled_design(fixed, broken) is not None
    assert store.checker(fixed, broken) is not None
    assert compiles == [broken, fixed]
    lowerings.clear()
    # A design the lint tier rejects (here: a construct no simulator runs)
    # elaborates, yet has no lowering, and is never lowered.
    rejected = (
        "module dut_y(input wire clk, input wire [1:0] a, output reg [1:0] q,"
        " output reg r);\n"
        "  always @(posedge clk) {q[1], r} <= a;\nendmodule\n"
    )
    assert store.compile(rejected).design is not None
    for _ in range(2):
        design, error = store.elaborate_source(rejected)
        assert design is None and "unsupported-construct" in error
        with pytest.raises(ValueError):
            store.compiled_design(rejected)
    assert lowerings == []
    # An edit of it lowers from scratch: the rejected base is not lowered.
    repaired = rejected.replace("{q[1], r} <= a;", "{q, r} <= {a, a[0]};")
    compiled = store.compiled_design(repaired, rejected)
    assert compiled.relower_fallback_reason is None and compiled.relower_nodes_reused == 0
    assert lowerings == [store.compile(repaired).design]
    assert compiles == [broken, fixed, rejected, repaired]


# --------------------------------------------------------------------------- #
# ResultCache sharding: the two-level layout is the only one read
# --------------------------------------------------------------------------- #


def test_result_cache_two_level_sharding_and_legacy_read_through(tmp_path):
    from repro.runtime.cache import ResultCache, content_key

    cache = ResultCache(tmp_path)
    key = content_key("v", "fresh")
    cache.put(key, {"a": 1})
    assert (tmp_path / key[:2] / key[2:4] / f"{key}.json").exists()

    flat_key = content_key("v", "flat-era")
    (tmp_path / f"{flat_key}.json").write_text(json.dumps({"b": 2}))
    one_level_key = content_key("v", "one-level-era")
    (tmp_path / one_level_key[:2]).mkdir(exist_ok=True)
    (tmp_path / one_level_key[:2] / f"{one_level_key}.json").write_text(
        json.dumps({"c": 3})
    )

    # Entries in the older flat and one-level layouts are neither read nor
    # counted: they miss, and the caller recomputes them.
    assert cache.get(key) == {"a": 1}
    assert cache.get(flat_key) is None
    assert cache.get(one_level_key) is None
    assert len(cache) == 1
    assert cache.get(content_key("v", "absent")) is None

"""Differential suite for the compiled-artifact cache (repro.artifacts).

The hard invariant this file pins: **incremental relowering is
byte-identical to full recompilation** -- simulator traces, per-assertion
verdicts, and whole eval reports must not change with cache state, cache
tier, worker count, or relowering base.  The sweep covers every template
family crossed with one representative mutation per mutation kind, so
every lowering construct the corpus can produce goes through the
incremental path at least once.

Plus the store mechanics: fingerprint stability, the LRU bound/eviction
behaviour, the on-disk elaboration tier, and the two-level ResultCache
sharding with legacy-layout read-through.
"""

import json

import pytest

from repro.artifacts import (
    ArtifactStore,
    design_canonical_text,
    design_fingerprint,
)
from repro.bugs.mutators import enumerate_mutations
from repro.corpus.templates import all_families
from repro.eval.executor import VerificationJob, run_verification_jobs
from repro.eval.verifier import (
    CandidateFix,
    RepairVerdict,
    SemanticVerifier,
    VerifierConfig,
)
from repro.hdl.lint import compile_source
from repro.runtime import JobPolicy
from repro.sim.compile import CompiledSimulator, compile_design
from repro.sim.engine import SimulatorOptions
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import CheckerBackend
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
    options = SimulatorOptions(record_columns=True)
    return CompiledSimulator(design, options=options, compiled=compiled).run(vectors)


def report_keys(report):
    return {name: outcome.comparison_key() for name, outcome in report.outcomes.items()}


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #


def test_fingerprint_is_stable_across_elaborations_and_splits_mutants():
    for family in all_families():
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        again = compile_source(source).design
        assert design_fingerprint(design) == design_fingerprint(again), family.name
        for mutant in representative_mutants(source, design).values():
            mutant_design = compile_source(mutant).design
            assert design_fingerprint(mutant_design) != design_fingerprint(design), (
                family.name,
                design_canonical_text(mutant_design),
            )


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
    base_checker = CheckerBackend(design)
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
            full_check = CheckerBackend(mutant)
            incremental_check = CheckerBackend(mutant, base=base_checker)
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
# eval-report differential: store tier / workers change nothing
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
            verifier = SemanticVerifier(
                config=VerifierConfig(cycles=job.cycles), artifacts=ArtifactStore()
            )
            patched, line_number, detail = verifier.apply_fix(job.buggy_source, fix)
            if patched is None:
                verdict = RepairVerdict(
                    status="not_applicable", seeds=job.seeds, cycles=job.cycles,
                    detail=detail,
                )
            else:
                verdict = verifier.verify_source(patched, job.seeds, base=(None, None))
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
        dict(policy=JobPolicy(workers=1), artifact_dir=tmp_path / "artifacts"),
        dict(
            policy=JobPolicy(workers=2),
            artifact_dir=tmp_path / "artifacts",  # warm disk tier
            cache_dir=tmp_path / "verdicts",
        ),
    ]
    for options in variants:
        assert verdict_dicts(run_verification_jobs(jobs, **options)) == baseline, options


def test_verifier_base_artifacts_are_compiled_once_per_case(tmp_path):
    job = eval_jobs()[0]
    store = ArtifactStore()
    verifier = SemanticVerifier(
        config=VerifierConfig(cycles=CYCLES), artifacts=store
    )
    for fix in job.fixes:
        verifier.verify(job.buggy_source, fix, job.seeds)
    # The buggy base was elaborated and lowered exactly once, then memoised.
    assert len(verifier._bases) == 1
    before = store.stats()
    verifier.verify(job.buggy_source, job.fixes[0], job.seeds)
    assert store.stats()["misses"] == before["misses"]


# --------------------------------------------------------------------------- #
# the front door: every consumer elaborates through the store
# --------------------------------------------------------------------------- #


@pytest.fixture
def parse_counts(monkeypatch):
    """Parses per source text, counted wherever ``compile_source`` is bound.

    Every ``repro`` module that imported the function by name gets the
    counting wrapper too, and the process-wide stores start empty, so an
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
    monkeypatch.setattr(store_module, "_PROCESS_STORES", {})
    return counts


def test_each_mutant_and_case_source_is_parsed_once(parse_counts, monkeypatch):
    import repro.artifacts.store as store_module
    from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
    from repro.eval.verifier import derive_verification_seeds
    from repro.model.case import RepairCase

    datasets = DataAugmentationPipeline(PipelineConfig.small(workers=1)).run()
    mutants = {entry.buggy_source for entry in datasets.all_sva_entries}
    mutants |= {entry.buggy_source for entry in datasets.verilog_bug}
    assert mutants
    # Bug injection already elaborated every mutant it kept; Stage 2's
    # triage must reuse that elaboration, not parse the mutant again.
    reparsed = {source: parse_counts[source] for source in mutants if parse_counts[source] > 1}
    assert not reparsed

    entry = datasets.sva_eval_machine[0]
    monkeypatch.setattr(store_module, "_PROCESS_STORES", {})
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


def numbered_design(index):
    return compile_source(
        f"module dut_{index}(input wire clk, input wire [3:0] a, output wire [3:0] q);\n"
        f"  assign q = a + 4'd{index};\nendmodule\n"
    ).design


def test_lru_bound_evicts_and_recomputes():
    store = ArtifactStore(max_entries=2)
    designs = [numbered_design(i) for i in range(1, 4)]
    compiled = [store.compiled_design(d) for d in designs]
    assert all(c is not None for c in compiled)
    assert len(store) == 2
    assert store.evictions >= 1
    # The evicted design recomputes transparently (a fresh object, same
    # behaviour), and the most-recently-used entry is still cached.
    assert store.compiled_design(designs[2]) is compiled[2]
    recomputed = store.compiled_design(designs[0])
    assert recomputed is not None and recomputed is not compiled[0]


def test_lru_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_LRU", "1")
    store = ArtifactStore()
    assert store.max_entries == 1
    monkeypatch.setenv("REPRO_ARTIFACT_LRU", "not-a-number")
    from repro.artifacts import DEFAULT_LRU_ENTRIES

    assert ArtifactStore().max_entries == DEFAULT_LRU_ENTRIES


def test_uncompilable_designs_are_negative_cached():
    # The interpreter-only path: a design the compiled backend rejects is
    # probed once and then served the cached rejection.
    source = (
        "module dut_x(input wire clk, output reg q);\n"
        "  initial q = 0;\n"
        "  always @(posedge clk) q <= ~q;\nendmodule\n"
    )
    design = compile_source(source).design
    store = ArtifactStore()
    first = store.compiled_design(design)
    second = store.compiled_design(design)
    if first is None:
        assert second is None
        assert store.hits == 1
    else:  # the backend learned this construct; the cache must still hit
        assert second is first


# --------------------------------------------------------------------------- #
# the on-disk elaboration tier
# --------------------------------------------------------------------------- #


def test_disk_tier_shares_elaborations_and_compile_failures(tmp_path):
    source = (
        "module dut_x(input wire clk, input wire [3:0] a, output wire [3:0] q);\n"
        "  assign q = a + 4'd1;\nendmodule\n"
    )
    bad_source = "module dut_x(input wire clk;\nendmodule\n"
    writer = ArtifactStore(disk=tmp_path / "tier")
    design, error = writer.elaborate_source(source)
    assert design is not None and error == ""
    _, bad_error = writer.elaborate_source(bad_source)
    assert bad_error

    # A different process would open its own store over the same directory.
    reader = ArtifactStore(disk=tmp_path / "tier")
    again, error = reader.elaborate_source(source)
    assert error == "" and again is not None
    assert design_fingerprint(again) == design_fingerprint(design)
    _, bad_again = reader.elaborate_source(bad_source)
    assert bad_again == bad_error  # byte-identical verdict detail

    # And the memory-only store recomputes the same answers.
    memory = ArtifactStore()
    fresh, _ = memory.elaborate_source(source)
    assert design_fingerprint(fresh) == design_fingerprint(design)
    _, fresh_error = memory.elaborate_source(bad_source)
    assert fresh_error == bad_error


# --------------------------------------------------------------------------- #
# ResultCache sharding (satellite: two-level layout + legacy read-through)
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

    assert cache.get(key) == {"a": 1}
    assert cache.get(flat_key) == {"b": 2}
    assert cache.get(one_level_key) == {"c": 3}
    assert len(cache) == 3
    assert cache.get(content_key("v", "absent")) is None

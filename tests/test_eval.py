"""repro.eval tests: verifier verdicts, independent seeds, worker-count and
cache determinism of the benchmark harness, and semantic challenging-case
mining."""

import shutil
from pathlib import Path

import pytest

import repro
from repro.artifacts import ArtifactStore
from repro.dataaug.datasets import SvaBugEntry
from repro.analyze import build_dfg
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.eval.cache import VerdictCache, verdict_key
from repro.eval.harness import EvalConfig, EvalHarness
from repro.eval.reports import read_split, write_reports
from repro.eval.verifier import (
    DEFAULT_CYCLES,
    CandidateFix,
    RepairVerdict,
    VERIFIER_SOURCES,
    VERIFIER_VERSION,
    SemanticVerifier,
    derive_verification_seeds,
    verifier_version,
)
from repro.hdl.lint import compile_source
from repro.model.assertsolver_model import AssertSolverModel
from repro.model.case import RepairCase
from repro.model.challenging import (
    collect_challenging_cases,
    response_is_correct,
    response_matches_golden,
)
from repro.model.response import RepairEngine, RepairResponse
from repro.model.sft import SftConfig
from repro.runtime import JobPolicy
from repro.sva.checker import AssertionChecker


@pytest.fixture(scope="module")
def datasets():
    return DataAugmentationPipeline(PipelineConfig.small()).run()


@pytest.fixture(scope="module")
def sft_model(datasets):
    model = AssertSolverModel(seed=97)
    model.pretrain(datasets.verilog_pt)
    model.supervised_finetune(
        datasets.sva_bug_train, datasets.verilog_bug, config=SftConfig(epochs=4)
    )
    return model


def eval_config(**overrides) -> EvalConfig:
    defaults = dict(seed=2027, ks=(1, 3), verification_seeds=2)
    defaults.update(overrides)
    return EvalConfig(**defaults)


# ---------------------------------------------------------------------- #
# verifier
# ---------------------------------------------------------------------- #


def test_golden_fix_passes_and_unrepaired_design_fails(datasets):
    """The two verifier anchors: applying the golden line repairs every
    held-out case, and leaving the buggy line in place never counts."""
    verifier = SemanticVerifier()
    assert datasets.sva_eval_machine
    for entry in datasets.sva_eval_machine:
        seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
        golden = verifier.verify(
            entry.buggy_source,
            CandidateFix(entry.line_number, entry.golden_line, entry.buggy_line),
            seeds,
        )
        assert golden.passed, (entry.name, golden.status, golden.detail)
        assert golden.exercised, entry.name
        noop = verifier.verify(
            entry.buggy_source,
            CandidateFix(entry.line_number, entry.buggy_line, entry.buggy_line),
            seeds,
        )
        assert noop.status == "assertion_fail", (entry.name, noop.status)
        assert noop.failing_assertions


def test_broken_fix_is_a_compile_failure(datasets):
    entry = datasets.sva_eval_machine[0]
    verifier = SemanticVerifier()
    verdict = verifier.verify(
        entry.buggy_source,
        CandidateFix(entry.line_number, "this is not verilog (", entry.buggy_line),
        derive_verification_seeds(entry.name, entry.stimulus_seed),
    )
    assert verdict.status == "compile_fail"
    assert verdict.detail


def test_out_of_range_fix_is_not_applicable(datasets):
    entry = datasets.sva_eval_machine[0]
    verdict = SemanticVerifier().verify(
        entry.buggy_source,
        CandidateFix(10_000, "x <= 0;"),
        derive_verification_seeds(entry.name, entry.stimulus_seed),
    )
    assert verdict.status == "not_applicable"


def test_verification_seeds_never_reuse_the_mining_seed(datasets):
    for mining_seed in (0, 1, 2127, 0x7FFFFFFF):
        seeds = derive_verification_seeds("some_case", mining_seed, count=4)
        assert mining_seed not in seeds
        assert len(set(seeds)) == 4
        # Deterministic: same name, same seeds.
        assert seeds == derive_verification_seeds("some_case", mining_seed, count=4)
    for entry in datasets.all_sva_entries:
        assert entry.stimulus_seed not in derive_verification_seeds(
            entry.name, entry.stimulus_seed
        )


def test_verifier_cycles_override_controls_stimulus_length():
    """Per-call cycle budgets (used for per-entry stimulus_cycles) are
    honoured and keyed separately in the caches."""
    entry = semantic_entry()
    verifier = SemanticVerifier()
    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
    fix = CandidateFix(entry.line_number, entry.golden_line, entry.buggy_line)
    short = verifier.verify(entry.buggy_source, fix, seeds, cycles=8)
    default = verifier.verify(entry.buggy_source, fix, seeds)
    assert short.cycles == 8 and short.passed
    assert default.cycles == 48 and default.passed


_COMB_LOOP_BASE = """
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


def test_settling_comb_loop_candidate_simulates_to_pass():
    """A candidate that closes a combinational loop is never rejected
    statically: ``done = done | ...`` settles, so it simulates to a real pass."""
    fix = CandidateFix(
        line_number=0,
        bug_line="    assign done = (count == LIMIT);",
        fixed_line="    assign done = done | (count == LIMIT);",
    )
    verifier = SemanticVerifier()
    patched, _, _ = verifier.apply_fix(_COMB_LOOP_BASE, fix)
    assert build_dfg(compile_source(patched).design).combinational_cycles()
    verdict = verifier.verify(_COMB_LOOP_BASE, fix, (101, 102), cycles=24)
    assert verdict.status == "pass"


def test_cached_verdict_payload_with_provenance_loads_unchanged():
    """Verdict payloads cached before ``provenance`` was dropped still load,
    and re-serialise exactly as a freshly computed verdict would."""
    verdict = RepairVerdict(status="pass", seeds=(101, 102), cycles=24, exercised=True)
    old_payload = {**verdict.to_dict(), "provenance": "simulated"}
    assert "provenance" not in verdict.to_dict()
    assert RepairVerdict.from_dict(old_payload) == verdict


def test_zero_verification_seeds_are_refused(datasets):
    """Judging a source on no stimulus would pass it vacuously, so an empty
    seed tuple, ``EvalConfig(verification_seeds=0)`` and
    ``--verification-seeds 0`` are refused instead of scored.  So is a
    pass@0, which would verify one candidate and always report 0."""
    from repro.eval.__main__ import build_parser

    entry = datasets.sva_eval_machine[0]
    verifier = SemanticVerifier()
    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
    assert verifier.verify_source(entry.buggy_source, seeds).status == "assertion_fail"
    with pytest.raises(ValueError, match="at least one stimulus seed"):
        verifier.verify_source(entry.buggy_source, ())
    with pytest.raises(ValueError, match="verification_seeds"):
        eval_config(verification_seeds=0)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--verification-seeds", "0"])
    assert build_parser().parse_args(["--verification-seeds", "1"]).verification_seeds == 1
    with pytest.raises(ValueError, match="ks"):
        eval_config(ks=(0,))
    with pytest.raises(ValueError, match="ks"):
        eval_config(ks=(1, 0))
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--ks", "1", "0"])
    assert build_parser().parse_args(["--ks", "1", "3"]).ks == [1, 3]


def test_verdict_cache_round_trip(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    key = verdict_key("patched src", (1, 2), 48, "v1")
    assert cache.get(key) is None
    cache.put(key, {"status": "pass"})
    assert cache.get(key) == {"status": "pass"}
    # The key is content-addressed: any input change gives a different key.
    assert key != verdict_key("patched src2", (1, 2), 48, "v1")
    assert key != verdict_key("patched src", (1, 3), 48, "v1")
    assert key != verdict_key("patched src", (1, 2), 64, "v1")
    assert key != verdict_key("patched src", (1, 2), 48, "v2")


def test_cache_keys_on_the_patched_source_not_the_fix():
    """Two fixes with identical (line_number, fixed_line) that relocate to
    *different* lines via bug_line must never share a verdict."""
    entry = semantic_entry()
    verifier = SemanticVerifier()
    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
    relocated_ok = verifier.verify(
        entry.buggy_source,
        CandidateFix(10_000, "else y <= a | b;", bug_line="else y <= a & b;"),
        seeds,
    )
    relocated_broken = verifier.verify(
        entry.buggy_source,
        CandidateFix(10_000, "else y <= a | b;", bug_line="if (!rst_n) y <= 4'd0;"),
        seeds,
    )
    assert relocated_ok.status == "pass" and relocated_ok.applied_line_number == 10
    assert relocated_broken.status == "compile_fail"
    assert relocated_broken.applied_line_number == 9


@pytest.mark.parametrize(
    "stored",
    [{"seeds": [1]}, {"status": "bogus"}, {"status": "not_applicable"}],
    ids=["no_status", "unknown_status", "never_cached_status"],
)
def test_verdict_entry_with_an_uncached_status_is_a_corrupt_miss(tmp_path, stored):
    """A verdict-cache entry that is a JSON object but not a verdict
    ``verify_source`` could have written is a corrupt miss: re-verified and
    overwritten, never unpacked."""
    entry = semantic_entry()
    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
    fix = CandidateFix(entry.line_number, entry.golden_line, entry.buggy_line)
    patched = SemanticVerifier().apply_fix(entry.buggy_source, fix)[0]
    cache = VerdictCache(tmp_path / "cache")
    key = verdict_key(patched, seeds, DEFAULT_CYCLES, VERIFIER_VERSION)
    cache.put(key, stored)

    verdict = SemanticVerifier(cache=cache).verify(entry.buggy_source, fix, seeds)
    assert verdict.status == "pass"
    assert (cache.corrupt, cache.misses, cache.hits) == (1, 1, 0)
    assert cache.get(key)["status"] == "pass"


def test_verifier_version_is_a_digest_of_the_code_that_decides_verdicts(tmp_path):
    package = Path(repro.__file__).resolve().parent
    copy = tmp_path / "repro"
    for name in VERIFIER_SOURCES:
        if (package / name).is_dir():
            shutil.copytree(package / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(package / name, copy / name)
    # The digest reads the files' relative paths and bytes only.
    assert verifier_version(copy) == VERIFIER_VERSION
    (copy / "model").mkdir()
    (copy / "model" / "features.py").write_text("# not verdict code\n")
    assert verifier_version(copy) == VERIFIER_VERSION
    # Flipping one bit of any covered file changes the version.
    for name in ("hdl/lint.py", "sim/engine.py", "sva/kernel.py", "analyze/passes.py",
                 "eval/verifier.py"):
        target = copy / name
        data = target.read_bytes()
        target.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        assert verifier_version(copy) != VERIFIER_VERSION, name
        target.write_bytes(data)
    assert verifier_version(copy) == VERIFIER_VERSION


# ---------------------------------------------------------------------- #
# harness determinism
# ---------------------------------------------------------------------- #


def test_harness_is_worker_count_invariant(datasets, sft_model):
    serial = EvalHarness(eval_config(job_policy=JobPolicy(workers=1))).run(sft_model, datasets.sva_eval_machine)
    fanned = EvalHarness(eval_config(job_policy=JobPolicy(workers=4))).run(sft_model, datasets.sva_eval_machine)
    assert serial.summary() == fanned.summary()
    assert [case.to_dict() for case in serial.cases] == [case.to_dict() for case in fanned.cases]


def test_harness_is_cache_state_invariant(datasets, sft_model, tmp_path):
    cache_dir = tmp_path / "verdicts"
    cold = EvalHarness(eval_config(cache_dir=cache_dir)).run(sft_model, datasets.sva_eval_machine)
    warm = EvalHarness(eval_config(cache_dir=cache_dir, job_policy=JobPolicy(workers=2))).run(
        sft_model, datasets.sva_eval_machine
    )
    assert cold.summary() == warm.summary()
    assert [case.to_dict() for case in cold.cases] == [case.to_dict() for case in warm.cases]
    assert cold.cache_misses > 0
    assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses


class TreeWalkerStore(ArtifactStore):
    """A store whose checker is the tree-walking oracle."""

    def __init__(self):
        super().__init__()
        self.walkers = {}

    def checker(self, source, base_source=None):
        if source not in self.walkers:
            self.walkers[source] = AssertionChecker(self.elaborate_source(source)[0])
        return self.walkers[source]


def test_harness_is_checker_backend_invariant(datasets, sft_model):
    """Every verdict of a fanned-out harness run equals the verdict the
    tree-walking checker oracle gives the same candidate, serially."""
    config = eval_config(job_policy=JobPolicy(workers=2))
    report = EvalHarness(config).run(sft_model, datasets.sva_eval_machine)
    oracle = SemanticVerifier(artifacts=TreeWalkerStore())
    entries = {entry.name: entry for entry in datasets.sva_eval_machine}
    compared = 0
    for case in report.cases:
        entry = entries[case.name]
        responses = sft_model.propose_topk(RepairCase.from_entry(entry), k=config.k)
        assert len(responses) == len(case.candidates)
        for response, candidate in zip(responses, case.candidates):
            verdict = oracle.verify(
                entry.buggy_source,
                CandidateFix(response.line_number, response.fixed_line, response.bug_line),
                case.verification_seeds,
                cycles=entry.stimulus_cycles,
            )
            assert verdict.to_dict() == candidate.verdict.to_dict(), (case.name, candidate.rank)
            compared += 1
    assert compared > 0


def test_harness_is_entry_order_invariant(datasets, sft_model):
    forward = EvalHarness(eval_config()).run(sft_model, datasets.sva_eval_machine)
    backward = EvalHarness(eval_config()).run(
        sft_model, list(reversed(datasets.sva_eval_machine))
    )
    assert forward.summary() == backward.summary()


def test_reports_round_trip(datasets, sft_model, tmp_path):
    report = EvalHarness(eval_config()).run(sft_model, datasets.sva_eval_machine)
    paths = write_reports(report, tmp_path / "out", split=datasets.sva_eval_machine)
    assert paths["summary"].exists() and paths["cases"].exists()
    import json

    summary = json.loads(paths["summary"].read_text())
    assert summary["schema"] == "repro_eval/v1"
    assert "pass@1" in summary and "pass@3" in summary
    assert summary["cases"] == len(datasets.sva_eval_machine)
    restored = read_split(paths["split"])
    assert [e.to_dict() for e in restored] == [
        e.to_dict() for e in sorted(datasets.sva_eval_machine, key=lambda e: e.name)
    ]


def test_propose_topk_is_distinct_ranked_and_deterministic(datasets, sft_model):
    from repro.model.case import RepairCase

    case = RepairCase.from_entry(datasets.sva_eval_machine[0])
    first = sft_model.propose_topk(case, k=5)
    second = sft_model.propose_topk(case, k=5)
    assert [(r.line_number, r.fixed_line) for r in first] == [
        (r.line_number, r.fixed_line) for r in second
    ]
    keys = {(r.line_number, " ".join(r.fixed_line.split())) for r in first}
    assert len(keys) == len(first)
    confidences = [r.confidence for r in first]
    assert confidences == sorted(confidences, reverse=True)


# ---------------------------------------------------------------------- #
# semantic challenging-case mining
# ---------------------------------------------------------------------- #

_SEM_BUGGY = """module semor(
    input wire clk,
    input wire rst_n,
    input wire [3:0] a,
    input wire [3:0] b,
    output reg [3:0] y
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) y <= 4'd0;
        else y <= a & b;
    end
    property p_or;
        @(posedge clk) disable iff (!rst_n) $past(rst_n) |-> y == ($past(a) | $past(b));
    endproperty
    a_or: assert property (p_or) else $error("or mismatch");
endmodule
"""


def semantic_entry() -> SvaBugEntry:
    return SvaBugEntry(
        name="semor_sb0",
        design_name="semor",
        family="hand",
        origin="machine",
        spec="y registers the bitwise OR of a and b.",
        golden_source=_SEM_BUGGY.replace("a & b", "a | b"),
        buggy_source=_SEM_BUGGY,
        logs="simulation of semor: 1 assertion(s) failed\n"
        'failed assertion semor.a_or at cycle 5: "or mismatch"',
        failing_assertions=["a_or"],
        line_number=10,
        golden_line="        else y <= a | b;",
        buggy_line="        else y <= a & b;",
        edit_kind="op",
        is_conditional=False,
        is_direct=True,
        stimulus_seed=123,
    )


class ScriptedEngine(RepairEngine):
    """Returns a fixed response list regardless of sampling parameters."""

    name = "scripted"

    def __init__(self, responses):
        self._responses = responses

    def propose(self, case, samples=20, temperature=0.2, seed=0):
        return list(self._responses)

    def propose_topk(self, case, k=5, temperature=0.2):
        return list(self._responses[:k])


def test_semantic_correctness_accepts_equivalent_rewrites():
    entry = semantic_entry()
    verifier = SemanticVerifier()
    commuted = RepairResponse(
        bug_line="else y <= a & b;", fixed_line="else y <= b | a;", line_number=10
    )
    wrong = RepairResponse(
        bug_line="else y <= a & b;", fixed_line="else y <= a ^ b;", line_number=10
    )
    # Textually `b | a` differs from the golden `a | b`, but it behaves
    # identically -- the semantic check must accept it...
    assert response_is_correct(entry, commuted, verifier=verifier)
    # ...while the textual check alone rejects it.
    assert not response_matches_golden(entry, commuted)
    assert not response_is_correct(entry, wrong, verifier=verifier)


def test_vacuous_pass_is_not_a_correct_repair():
    """A rewrite that stops the assertion from ever firing simulates cleanly
    but repairs nothing: it must not count for mining or for pass@k."""
    entry = semantic_entry()
    verifier = SemanticVerifier()
    vacuous = RepairResponse(
        bug_line="@(posedge clk) disable iff (!rst_n) $past(rst_n) |-> y == ($past(a) | $past(b));",
        fixed_line="@(posedge clk) disable iff (!rst_n) 1'b0 |-> y == 4'd0;",
        line_number=13,
    )
    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
    verdict = verifier.verify(
        entry.buggy_source,
        CandidateFix(vacuous.line_number, vacuous.fixed_line, vacuous.bug_line),
        seeds,
    )
    assert verdict.passed and not verdict.exercised
    assert not response_is_correct(entry, vacuous, verifier=verifier)

    from repro.eval.harness import CandidateOutcome, CaseResult

    case = CaseResult(
        name=entry.name,
        design_name=entry.design_name,
        family=entry.family,
        length_bin=entry.length_bin,
        bug_type_labels=entry.bug_type_labels,
        verification_seeds=seeds,
        mining_seed=entry.stimulus_seed,
        candidates=[
            CandidateOutcome(
                rank=1,
                line_number=vacuous.line_number,
                fixed_line=vacuous.fixed_line,
                confidence=1.0,
                verdict=verdict,
            )
        ],
    )
    assert case.first_pass_rank is None and not case.passed_at(1)


def test_challenging_cases_are_mined_by_behaviour():
    entry = semantic_entry()
    engine = ScriptedEngine(
        [
            RepairResponse(
                bug_line="else y <= a & b;", fixed_line="else y <= b | a;", line_number=10
            ),
            RepairResponse(
                bug_line="else y <= a & b;", fixed_line="else y <= a ^ b;", line_number=10
            ),
            RepairResponse(  # duplicate of the wrong one: deduplicated before verification
                bug_line="else y <= a & b;", fixed_line="else y <= a ^ b;", line_number=10
            ),
        ]
    )
    triples, stats = collect_challenging_cases(engine, [entry], samples=3)
    assert stats == {"evaluated": 1, "challenging": 1, "incorrect_responses": 1}
    assert len(triples) == 1
    negatives = triples[0].negatives
    assert negatives == [(10, "else y <= a ^ b;")]

"""Fault-tolerance tests: the executor's three recovery paths (worker
exception, worker death, per-job hang) in serial and multi-worker modes,
bounded retries, cached-through quarantine decisions, crash-consistency of
the result cache, and the adopters' skipped-job / ``infra_error`` surfacing
-- all driven by the deterministic :class:`repro.runtime.FaultPlan`."""

import os
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime import (
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_RAISE,
    MAX_CHUNKSIZE,
    FaultPlan,
    InjectedFault,
    JobPolicy,
    JobTimeoutError,
    ResultCache,
    WorkerCrashError,
    auto_chunksize,
    content_key,
    default_workers,
    run_jobs,
)
from repro.runtime.faults import (
    PHASE_TIMEOUT,
    PHASE_WORKER,
    PHASE_WORKER_DEATH,
    default_fault_key,
)

JOBS = [f"job_{i}" for i in range(8)]
QUARANTINE = JobPolicy(on_error="quarantine")


# ---------------------------------------------------------------------- #
# worker functions (module-level so they pickle)
# ---------------------------------------------------------------------- #


def stamp(job):
    return {"job": job, "ok": True}


def record_and_stamp(job, context):
    """Leaves one marker file per executed job (to prove warm runs skip work)."""
    Path(context["dir"], f"{job}.ran").write_text("1")
    return {"job": job}


def raise_on_job_2(job):
    if job == "job_2":
        raise ValueError(f"boom {job}")
    return stamp(job)


def corpus_job_name(job):
    """Fault key for corpus build jobs: ``(family, params, name, seed)``."""
    return job[2]


def stage_job_key(job):
    """Fault key that names every pipeline job within its stage, so one
    victim faults in exactly one stage: corpus build tuples by design name,
    Stage-1 source texts by the text, named jobs by their name."""
    if isinstance(job, tuple):
        return "corpus:" + corpus_job_name(job)
    if isinstance(job, str):
        return "stage1:" + job
    return default_fault_key(job)


def assert_unaffected_jobs_match(outcomes, clean, faulted: set[str]):
    """Quarantine must be surgical: exactly ``faulted`` fails, the rest are
    byte-identical to the fault-free run."""
    assert len(outcomes) == len(clean)
    for job, outcome, expected in zip(JOBS, outcomes, clean):
        if job in faulted:
            assert not outcome.ok and outcome.result is None
            assert outcome.failure is not None
        else:
            assert outcome.ok and outcome.failure is None
            assert outcome.result == expected


# ---------------------------------------------------------------------- #
# recovery path 1: the worker function raises
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 4])
def test_quarantine_isolates_a_raised_exception(tmp_path, workers):
    plan = FaultPlan(tmp_path / "plan").inject("job_3", FAULT_RAISE)
    outcomes = run_jobs(JOBS, stamp, replace(QUARANTINE, workers=workers, faults=plan))
    assert_unaffected_jobs_match(outcomes, run_jobs(JOBS, stamp), {"job_3"})
    failure = outcomes[3].failure
    assert failure.phase == PHASE_WORKER
    assert failure.exception_type == "InjectedFault"
    assert "job_3" in failure.message
    assert "InjectedFault" in failure.traceback
    assert outcomes[3].attempts == 1


# ---------------------------------------------------------------------- #
# recovery path 2: the worker process dies mid-job
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers,isolate", [(1, True), (3, False)])
def test_quarantine_survives_a_worker_crash(tmp_path, workers, isolate):
    """A ``timeout`` puts even one worker in a pool, so its crash is contained."""
    plan = FaultPlan(tmp_path / "plan").inject("job_2", FAULT_CRASH)
    timeout = 60.0 if isolate else None
    policy = replace(QUARANTINE, workers=workers, timeout=timeout, faults=plan)
    outcomes = run_jobs(JOBS, stamp, policy)
    assert_unaffected_jobs_match(outcomes, run_jobs(JOBS, stamp), {"job_2"})
    assert outcomes[2].failure.phase == PHASE_WORKER_DEATH
    assert outcomes[2].failure.exception_type == "WorkerCrashError"


# ---------------------------------------------------------------------- #
# recovery path 3: the job hangs past its timeout
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 3])
def test_quarantine_reaps_a_hung_job(tmp_path, workers):
    plan = FaultPlan(tmp_path / "plan").inject("job_5", FAULT_HANG, hang_seconds=60.0)
    policy = replace(QUARANTINE, workers=workers, timeout=0.5, faults=plan)
    outcomes = run_jobs(JOBS, stamp, policy)
    assert_unaffected_jobs_match(outcomes, run_jobs(JOBS, stamp), {"job_5"})
    assert outcomes[5].failure.phase == PHASE_TIMEOUT
    assert outcomes[5].failure.exception_type == "JobTimeoutError"


# ---------------------------------------------------------------------- #
# bounded retries: flakes recover, hard faults are quarantined
# ---------------------------------------------------------------------- #


def test_flaky_raise_retries_to_an_identical_success(tmp_path):
    plan = FaultPlan(tmp_path / "plan").inject("job_1", FAULT_RAISE, times=2)
    outcomes = run_jobs(JOBS, stamp, replace(QUARANTINE, max_attempts=3, faults=plan))
    assert all(outcome.ok for outcome in outcomes)
    # Retries never change a successful result's value.
    assert [outcome.result for outcome in outcomes] == run_jobs(JOBS, stamp)
    assert outcomes[1].attempts == 3
    assert all(o.attempts == 1 for i, o in enumerate(outcomes) if i != 1)


def test_flaky_raise_recovers_in_raise_mode_too(tmp_path):
    plan = FaultPlan(tmp_path / "plan").inject("job_1", FAULT_RAISE, times=1)
    results = run_jobs(JOBS, stamp, JobPolicy(max_attempts=2, faults=plan))
    assert results == run_jobs(JOBS, stamp)


def test_crash_then_succeed_recovers_across_a_pool_rebuild(tmp_path):
    plan = FaultPlan(tmp_path / "plan").inject("job_0", FAULT_CRASH, times=1)
    results = run_jobs(JOBS, stamp, JobPolicy(workers=2, max_attempts=2, faults=plan))
    assert results == run_jobs(JOBS, stamp)


def test_exhausted_retries_still_quarantine(tmp_path):
    plan = FaultPlan(tmp_path / "plan").inject("job_4", FAULT_RAISE)  # every invocation
    outcomes = run_jobs(JOBS, stamp, replace(QUARANTINE, max_attempts=3, faults=plan))
    assert not outcomes[4].ok and outcomes[4].attempts == 3


# ---------------------------------------------------------------------- #
# raise mode: first exhausted failure aborts, with the right exception
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 3])
def test_raise_mode_propagates_the_original_exception(workers):
    with pytest.raises(ValueError, match="boom job_2"):
        run_jobs(JOBS, raise_on_job_2, JobPolicy(workers=workers))


def test_raise_mode_propagates_injected_faults(tmp_path):
    plan = FaultPlan(tmp_path / "plan").inject("job_0", FAULT_RAISE)
    with pytest.raises(InjectedFault):
        run_jobs(JOBS[:2], stamp, JobPolicy(faults=plan))


def test_raise_mode_surfaces_timeouts_and_crashes_as_typed_errors(tmp_path):
    hang = FaultPlan(tmp_path / "hang").inject("job_0", FAULT_HANG, hang_seconds=60.0)
    with pytest.raises(JobTimeoutError):
        run_jobs(JOBS[:2], stamp, JobPolicy(timeout=0.4, faults=hang))
    crash = FaultPlan(tmp_path / "crash").inject("job_0", FAULT_CRASH)
    with pytest.raises(WorkerCrashError):
        run_jobs(JOBS[:2], stamp, JobPolicy(timeout=60.0, faults=crash))


# ---------------------------------------------------------------------- #
# cached-through failures
# ---------------------------------------------------------------------- #


def test_quarantine_decisions_are_cached_through(tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    context = {"dir": str(markers)}
    key_fn = lambda job: content_key("faults/v1", job)  # noqa: E731
    plan = FaultPlan(tmp_path / "plan").inject("job_3", FAULT_RAISE)

    policy = replace(QUARANTINE, faults=plan)
    cold = run_jobs(
        JOBS, record_and_stamp, policy, context=context,
        cache=ResultCache(tmp_path / "cache"), key_fn=key_fn,
    )
    assert not cold[3].ok and sum(outcome.ok for outcome in cold) == len(JOBS) - 1

    for marker in markers.glob("*.ran"):
        marker.unlink()
    warm_cache = ResultCache(tmp_path / "cache")
    warm = run_jobs(
        JOBS, record_and_stamp, policy, context=context, cache=warm_cache, key_fn=key_fn
    )
    # Same outcomes (including the quarantine), with zero re-execution.
    assert warm == cold
    assert warm[3].failure.summary() == cold[3].failure.summary()
    assert list(markers.glob("*.ran")) == []
    assert warm_cache.hits == len(JOBS) and warm_cache.misses == 0


# ---------------------------------------------------------------------- #
# result-cache crash consistency
# ---------------------------------------------------------------------- #


def test_corrupt_cache_entries_read_as_misses_and_are_overwritten(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = content_key("v1", "x")
    cache.put(key, {"answer": 1})
    entry = next((tmp_path / "cache").glob("*/*/*.json"))
    entry.write_text('{"answer": 1')  # truncated mid-write by a crash

    reopened = ResultCache(tmp_path / "cache")
    assert reopened.get(key) is None and reopened.misses == 1
    reopened.put(key, {"answer": 2})
    assert reopened.get(key) == {"answer": 2}


def test_orphaned_tmp_files_are_invisible_and_swept_on_open(tmp_path):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    key = content_key("v1", "x")
    cache.put(key, {"answer": 1})
    orphan = cache._path(key).with_name(f"{key}.json.tmp99999")
    orphan.write_text('{"answer":')  # a killed writer's leftover

    # Never counted, never returned.
    assert len(ResultCache(root)) == 1
    assert ResultCache(root).get(key) == {"answer": 1}
    # A *fresh* tmp file (possibly a live writer's) survives reopening...
    assert orphan.exists()
    # ...but once it is stale, the next open sweeps it.
    backdated = os.stat(orphan).st_mtime - ResultCache.STALE_TMP_SECONDS - 1
    os.utime(orphan, (backdated, backdated))
    ResultCache(root)
    assert not orphan.exists()
    assert ResultCache(root).get(key) == {"answer": 1}


# ---------------------------------------------------------------------- #
# satellites: worker-override warning, chunk-size cap
# ---------------------------------------------------------------------- #


def test_default_workers_warns_once_per_bad_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "banana")
    with pytest.warns(RuntimeWarning, match="banana"):
        assert default_workers() >= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the second call must stay silent
        assert default_workers() >= 1


def test_auto_chunksize_is_capped():
    assert auto_chunksize(100_000, 8) == MAX_CHUNKSIZE
    assert auto_chunksize(0, 4) == 1
    assert auto_chunksize(100, 4) == 100 // 16


# ---------------------------------------------------------------------- #
# adopters: skipped-sample records and infra_error verdicts
# ---------------------------------------------------------------------- #


def test_corpus_generator_quarantines_failed_builds(tmp_path):
    from repro.corpus.generator import CorpusConfig, CorpusGenerator

    clean = CorpusGenerator(CorpusConfig(design_count=6)).generate()
    victim = clean.samples[2].name
    plan = FaultPlan(tmp_path / "plan", key_fn=corpus_job_name).inject(
        victim, FAULT_RAISE
    )
    corpus = CorpusGenerator(
        CorpusConfig(design_count=6), replace(QUARANTINE, faults=plan)
    ).generate()
    assert [s.name for s in corpus.samples] == [
        s.name for s in clean.samples if s.name != victim
    ]
    (record,) = corpus.skipped
    assert record["stage"] == "corpus" and record["name"] == victim
    assert record["exception_type"] == "InjectedFault"


def test_stage2_runner_quarantines_failed_samples(tmp_path):
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.dataaug.stage1 import run_stage1
    from repro.dataaug.stage2 import Stage2Config, Stage2Runner

    compiled = run_stage1(
        CorpusGenerator(CorpusConfig(design_count=6)).generate()
    ).compiled
    assert len(compiled) >= 2
    victim = compiled[0].name
    plan = FaultPlan(tmp_path / "plan").inject(victim, FAULT_RAISE)
    config = Stage2Config(random_cycles=16, max_bugs_per_design=2)
    faulted = Stage2Runner(config, replace(QUARANTINE, faults=plan)).run(compiled)
    clean = Stage2Runner(config, QUARANTINE).run(compiled)

    (record,) = faulted.skipped
    assert record["stage"] == "stage2" and record["name"] == victim
    # Every surviving sample's output is untouched by the quarantine.
    clean_names = {e.name for e in clean.sva_bug if e.design_name != victim}
    assert {e.name for e in faulted.sva_bug} == clean_names


@pytest.mark.parametrize("stage", ["corpus", "stage1", "stage2", "stage3"])
def test_pipeline_surfaces_quarantined_jobs_in_statistics(tmp_path, stage):
    """The pipeline's one policy reaches every stage: a job quarantined in
    any of them becomes exactly one skip record carrying that stage."""
    from repro.corpus.generator import CorpusGenerator
    from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig

    config = PipelineConfig.small()
    clean = DataAugmentationPipeline(config).run()
    samples = CorpusGenerator(config.corpus).generate().samples
    victims = {
        "corpus": (samples[2].name, "corpus:" + samples[2].name),
        "stage1": (samples[2].name, "stage1:" + samples[2].source),
        "stage2": (clean.sva_bug_train[0].design_name,) * 2,
        "stage3": (clean.sva_bug_train[0].name,) * 2,
    }
    name, key = victims[stage]
    plan = FaultPlan(tmp_path / "plan", key_fn=stage_job_key).inject(key, FAULT_RAISE)
    config = replace(config, job_policy=replace(QUARANTINE, faults=plan))
    datasets = DataAugmentationPipeline(config).run()

    (record,) = datasets.statistics.skipped_jobs
    assert record["stage"] == stage and record["name"] == name
    assert record["exception_type"] == "InjectedFault"
    if stage == "stage3":
        assert datasets.statistics.cot_generated == clean.statistics.cot_generated - 1
        entry = next(e for e in datasets.sva_bug_train if e.name == name)
        assert entry.cot is None and entry.cot_valid is False


def test_quarantine_mode_without_faults_is_byte_identical():
    """Graceful degradation must be free when nothing fails: the quarantine
    machinery with zero faults produces the exact datasets of raise mode."""
    from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig

    base = DataAugmentationPipeline(PipelineConfig.small()).run()
    config = replace(PipelineConfig.small(), job_policy=QUARANTINE)
    quarantined = DataAugmentationPipeline(config).run()
    assert [e.to_dict() for e in quarantined.sva_bug_train] == [
        e.to_dict() for e in base.sva_bug_train
    ]
    assert [e.to_dict() for e in quarantined.sva_eval_machine] == [
        e.to_dict() for e in base.sva_eval_machine
    ]
    assert vars(quarantined.statistics) == vars(base.statistics)
    assert quarantined.statistics.skipped_jobs == []


def test_verification_quarantine_yields_infra_error_verdicts(tmp_path):
    from repro.eval.executor import VerificationJob, run_verification_jobs
    from repro.eval.verifier import CandidateFix

    fixes = (CandidateFix(1, "assign y = x;"), CandidateFix(2, "assign y = ~x;"))
    jobs = [
        VerificationJob(
            case_name=name, buggy_source="not verilog", fixes=fixes,
            seeds=(11, 12), cycles=8,
        )
        for name in ("case_a", "case_b")
    ]
    plan = FaultPlan(tmp_path / "plan").inject("case_a", FAULT_RAISE)
    shards = run_verification_jobs(jobs, replace(QUARANTINE, faults=plan))
    clean = run_verification_jobs(jobs[1:])

    assert [v.status for v in shards[0].verdicts] == ["infra_error", "infra_error"]
    assert shards[0].verdicts[0].seeds == (11, 12)
    assert shards[0].verdicts[0].cycles == 8
    assert "InjectedFault" in shards[0].verdicts[0].detail
    # The unaffected case verified normally, identically to a clean run.
    assert [v.to_dict() for v in shards[1].verdicts] == [
        v.to_dict() for v in clean[0].verdicts
    ]
    assert all(v.status != "infra_error" for v in shards[1].verdicts)


def test_pass_rates_exclude_infra_error_cases():
    from repro.eval.harness import CandidateOutcome, CaseResult, EvalReport
    from repro.eval.verifier import RepairVerdict

    def case(name, verdict):
        return CaseResult(
            name=name, design_name="d", family="f", length_bin="0-50",
            bug_type_labels=["Direct"], verification_seeds=(1,), mining_seed=0,
            candidates=[
                CandidateOutcome(
                    rank=1, line_number=1, fixed_line="x", confidence=1.0,
                    verdict=verdict,
                )
            ],
        )

    passing = case("a", RepairVerdict(status="pass", exercised=True))
    infra = case("b", RepairVerdict(status="infra_error"))
    report = EvalReport(engine="stub", ks=(1,), cases=[passing, infra])
    assert infra.infra_error and not passing.infra_error
    # The infra case is excluded from the denominator, not scored as a miss.
    assert report.pass_rates == {"pass@1": 1.0}
    summary = report.summary()
    assert summary["infra_error_cases"] == 1
    assert summary["cases"] == 2
    assert summary["verdicts"]["infra_error"] == 1

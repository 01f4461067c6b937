"""repro.runtime tests: executor determinism, seeding, worker defaults and
the content-addressed result cache -- plus the guard that keeps bespoke
multiprocessing pools from creeping back into the migrated modules."""

import random
import zlib
from pathlib import Path

import pytest

from repro.runtime import (
    DEFAULT_WORKER_CAP,
    JobPolicy,
    ResultCache,
    content_key,
    default_workers,
    derive_seed,
    run_jobs,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------- #
# worker functions (module-level so they pickle)
# ---------------------------------------------------------------------- #


def square(job):
    return job * job

def seeded_draw(job, context):
    """A deterministic-by-derivation random draw: the per-job seed comes
    from the job identity, never from a shared stream."""
    rng = random.Random(derive_seed(context["seed"], job))
    return {"name": job, "value": rng.randint(0, 10**9)}


def record_call(job, context):
    """Leaves one marker file per executed job (to prove cache hits skip work)."""
    marker = Path(context["dir"]) / f"{job}.ran"
    marker.write_text("1")
    return {"job": job}


# ---------------------------------------------------------------------- #
# executor
# ---------------------------------------------------------------------- #


def test_run_jobs_preserves_submission_order():
    jobs = list(range(20))
    assert run_jobs(jobs, square, JobPolicy(workers=1)) == [j * j for j in jobs]
    assert run_jobs(jobs, square, JobPolicy(workers=4)) == [j * j for j in jobs]


def test_run_jobs_is_worker_count_invariant_with_derived_seeds():
    jobs = [f"design_{i:03d}" for i in range(12)]
    context = {"seed": 99}
    serial = run_jobs(jobs, seeded_draw, JobPolicy(workers=1), context=context)
    fanned = run_jobs(jobs, seeded_draw, JobPolicy(workers=3), context=context)
    assert serial == fanned
    # ...and independent of job order (modulo the reordering itself).
    reversed_out = run_jobs(
        list(reversed(jobs)), seeded_draw, JobPolicy(workers=2), context=context
    )
    assert reversed_out == list(reversed(serial))


def test_run_jobs_handles_empty_and_single_job_lists():
    assert run_jobs([], square, JobPolicy(workers=4)) == []
    assert run_jobs([7], square, JobPolicy(workers=4)) == [49]


@pytest.mark.parametrize(
    "fields",
    [{"on_error": "skip"}, {"max_attempts": 0}, {"timeout": 0}, {"timeout": -1.0}],
    ids=["on_error", "max_attempts", "zero_timeout", "negative_timeout"],
)
def test_job_policy_refuses_invalid_values_when_built(fields):
    """A bad policy fails where it is written, not when its first job runs
    (under ``EvalConfig.job_policy`` that is after every case is proposed);
    a zero timeout would make quarantine decisions race the clock."""
    with pytest.raises(ValueError):
        JobPolicy(**fields)


def test_derive_seed_matches_the_stage2_formula():
    assert derive_seed(11, "sample_a") == 11 ^ zlib.crc32(b"sample_a")
    assert derive_seed(11, "sample_a") != derive_seed(11, "sample_b")
    assert derive_seed(11, "a", "b") != derive_seed(11, "ab")


# ---------------------------------------------------------------------- #
# result cache
# ---------------------------------------------------------------------- #


def test_result_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = content_key("v1", "input")
    assert cache.get(key) is None and cache.misses == 1
    cache.put(key, {"answer": 42})
    assert cache.get(key) == {"answer": 42} and cache.hits == 1
    assert len(cache) == 1
    # Content-addressed: any input change gives a different key.
    assert key != content_key("v1", "input2")
    assert key != content_key("v2", "input")
    assert key != content_key("v1", "inp", "ut")


def test_run_jobs_cache_serves_warm_runs_without_recomputing(tmp_path):
    jobs = [f"j{i}" for i in range(6)]
    context = {"dir": str(tmp_path / "markers")}
    Path(context["dir"]).mkdir()
    key_fn = lambda job: content_key("test/v1", job)  # noqa: E731

    cold_cache = ResultCache(tmp_path / "cache")
    cold = run_jobs(jobs, record_call, JobPolicy(workers=2), context=context,
                    cache=cold_cache, key_fn=key_fn)
    assert cold == [{"job": job} for job in jobs]
    assert len(list(Path(context["dir"]).glob("*.ran"))) == 6
    assert cold_cache.misses == 6

    for marker in Path(context["dir"]).glob("*.ran"):
        marker.unlink()
    warm_cache = ResultCache(tmp_path / "cache")
    warm = run_jobs(jobs, record_call, JobPolicy(workers=2), context=context,
                    cache=warm_cache, key_fn=key_fn)
    assert warm == cold
    assert warm_cache.hits == 6 and warm_cache.misses == 0
    assert list(Path(context["dir"]).glob("*.ran")) == []  # nothing re-ran


def test_run_jobs_cache_requires_key_fn(tmp_path):
    with pytest.raises(ValueError):
        run_jobs([1], square, cache=ResultCache(tmp_path))


# ---------------------------------------------------------------------- #
# worker-count default
# ---------------------------------------------------------------------- #


def test_default_workers_env_override_and_cap(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "10000")
    assert default_workers() == DEFAULT_WORKER_CAP
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    assert 1 <= default_workers() <= DEFAULT_WORKER_CAP
    monkeypatch.delenv("REPRO_WORKERS")
    assert 1 <= default_workers() <= DEFAULT_WORKER_CAP


# ---------------------------------------------------------------------- #
# migration guard
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "module",
    [
        "repro/dataaug/stage2.py",
        "repro/dataaug/stage1.py",
        "repro/dataaug/stage3.py",
        "repro/corpus/generator.py",
        "repro/eval/executor.py",
    ],
)
def test_migrated_modules_have_no_bespoke_pools(module):
    """Every fan-out must route through repro.runtime -- no hand-rolled
    ``multiprocessing`` pools outside the executor itself, and no bespoke
    quarantine fold: each adopter runs its jobs through ``run_stage_jobs``."""
    text = (SRC / module).read_text()
    assert "multiprocessing" not in text, module
    assert "run_stage_jobs" in text, module
    assert '"quarantine"' not in text, module

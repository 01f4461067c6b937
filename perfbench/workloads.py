"""The three workloads: augment, solve and train.

Each workload has a set-up, whose result the timed phase reuses, and a
timed phase that repeats one identical, cold unit of work (pipeline runs
over the grid, a pass over the cases, a training round) until ``seconds``
have passed, at least once.  Operations run one at a time: a closed loop
with one client, ``workers=1``.  Inputs are generated from the workload
seed alone.

Every request's time is corrected to a reference host speed by a
:class:`~measure.HostClock`, which times a fixed reference loop ten times
a second throughout the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.corpus import spec as corpus_spec
from repro.corpus.corruptor import SyntaxCorruptor
from repro.corpus.generator import Corpus, CorpusSample
from repro.corpus.templates import all_families
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.eval.verifier import CandidateFix, SemanticVerifier, derive_verification_seeds
from repro.model.assertsolver_model import AssertSolverModel, ModelStage
from repro.model.case import RepairCase

from measure import HostClock

#: Every status :class:`~repro.eval.verifier.RepairVerdict` may carry.
VERDICT_STATUSES = frozenset(
    {"pass", "compile_fail", "sim_error", "assertion_fail", "not_applicable",
     "static_reject", "infra_error"}
)


@dataclass
class WorkloadResult:
    """What one timed phase did and what its output checks found."""

    clock: HostClock
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    repeats: int = 0
    #: When the timed phase started (``perf_counter``) and its wall time.
    started: float = 0.0
    elapsed_s: float = 0.0
    #: (request, start, end) of every request, in ``perf_counter`` seconds.
    requests: list = field(default_factory=list)
    pass_at: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def record(self, request: str, started: float) -> None:
        self.requests.append((request, started, time.perf_counter()))

    def latencies_ms(self) -> list:
        """Every request's time at the reference host speed, in ms."""
        return [1000.0 * self.clock.corrected(start, end) for _, start, end in self.requests]

    @property
    def ops_per_s(self) -> float:
        """Operations over the requests' total time at the reference speed."""
        busy_s = sum(self.latencies_ms()) / 1000.0
        return self.ops / busy_s if busy_s else 0.0

    @property
    def wall_ops_per_s(self) -> float:
        busy_s = sum(end - start for _, start, end in self.requests)
        return self.ops / busy_s if busy_s else 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)


def repeat(unit, seconds: float, result: WorkloadResult) -> None:
    """Run ``unit(index)`` until ``seconds`` have passed, at least once."""
    result.started = started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        unit(index)
        index += 1
    result.repeats = index
    result.elapsed_s = time.perf_counter() - started


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid(families) -> list:
    """``(family, point)`` for every point of each family's parameter grid."""
    return [(family, point) for family in families for point in range(len(family.parameter_grid))]


def grid_corpus(seed: int, designs, corrupted=None) -> Corpus:
    """The golden design at each ``(family, point)`` of ``designs``, and
    syntax-corrupted copies of ``corrupted`` of them (by default a fifth,
    at least one), which Stage 1 routes to pretraining.

    The golden designs are the same for every seed, small and large alike,
    so every seed has the same cost per operation; the seed draws the
    specs, the corrupted copies and, through the pipeline, the bugs, the
    stimulus and the split.  The package's generator draws the same grid
    but shuffles it, weights five long-design families 2-4x and jitters
    widths once the grid is used up, so one seed can draw a large design
    many bugs and move run times by a third.
    """
    rng = random.Random(seed)
    corpus = Corpus()
    for family, point in designs:
        artifact = family.build(f"{family.name}_{point:02d}", **family.parameter_grid[point])
        spec = corpus_spec.build_spec(artifact, seed=rng.randrange(1_000_000))
        corpus.samples.append(CorpusSample(artifact=artifact, spec=spec))
    if corrupted is None:
        corrupted = max(1, len(designs) // 5)
    corruptor = SyntaxCorruptor(seed=seed + 1)
    for sample in rng.sample(corpus.samples, corrupted):
        corpus.corrupted.append((sample, corruptor.corrupt(sample.source)))
    return corpus


def _pipeline(seed: int, designs, corrupted=None):
    corpus = grid_corpus(seed, designs, corrupted)
    config = PipelineConfig.default(seed=seed, design_count=len(corpus.samples), workers=1)
    return DataAugmentationPipeline(config).run(corpus)


def _failed_operation(result: WorkloadResult, count: int = 1) -> None:
    traceback.print_exc(file=sys.stderr)
    result.attempted += count
    result.failed += count


def _operation(recorder, operation_id: str):
    return recorder.operation(operation_id) if recorder is not None else nullcontext()


class Augment:
    """Serial data-augmentation pipeline runs; an operation is one SVA-Bug
    entry produced.  A request runs the pipeline on two consecutive golden
    designs of the grid, so that the split has a module to hold out; a
    repeat submits every design of the grid once.  The artifact cache
    holds far less than the other designs touch, so every request starts
    cold."""

    name = "augment"
    setup_repeats = 3

    def setup(self, seed: int):
        return seed

    def run(self, seed: int, seconds: float, clock: HostClock, recorder=None) -> WorkloadResult:
        result = WorkloadResult(clock)
        designs = grid(all_families())
        requests = [designs[start:start + 2] for start in range(0, len(designs), 2)]
        # A fifth of the designs get a corrupted copy, as in one pipeline
        # run over the whole grid.
        corrupted = set(random.Random(seed).sample(range(len(requests)), len(designs) // 5))

        def one_repeat(index: int) -> None:
            outputs, held_out = [], 0
            for number, pair in enumerate(requests):
                name = "+".join(f"{family.name}_{point:02d}" for family, point in pair)
                started = time.perf_counter()
                try:
                    with _operation(recorder, f"repeat-{index}/{name}"):
                        datasets = _pipeline(seed * 1000 + number, pair, int(number in corrupted))
                except Exception:
                    _failed_operation(result)
                    continue
                result.record(name, started)
                entries = datasets.sva_bug_train + datasets.sva_eval_machine
                skipped = datasets.statistics.skipped_jobs
                result.ops += len(entries)
                result.attempted += len(entries) + len(skipped)
                result.failed += len(skipped)
                result.check(not skipped, "the pipeline has skipped_jobs records")
                held_out += len(datasets.sva_eval_machine)
                outputs.append(
                    {
                        "sva_bug": [entry.to_dict() for entry in entries],
                        "verilog_bug": [entry.to_dict() for entry in datasets.verilog_bug],
                        "verilog_pt": [dataclasses.asdict(e) for e in datasets.verilog_pt],
                    }
                )
            result.check(held_out > 0, "the held-out split is empty")
            result.digests.append(_digest(outputs))

        repeat(one_repeat, seconds, result)
        result.check(len(set(result.digests)) == 1, "repeats on the same corpus disagree")
        return result


def half_grid() -> list:
    """The grid of every other family (14 of 27, 49 designs), with both
    longest-design families, ``multichannel_accumulator`` and
    ``status_datapath``.  ``solve`` and ``train`` build their datasets from
    it: the whole grid would make a ``solve`` run last one and a half
    minutes, three on a slow host."""
    return grid(all_families()[::2])


class Solve:
    """Propose-and-verify over every SVA-Bug case of one pipeline run on
    :func:`half_grid`; an operation is one solved case.  Set-up runs the
    pipeline, pretraining and SFT.  Each pass over the cases starts from a
    fresh model snapshot and a fresh verifier, so every request is a new
    buggy source."""

    name = "solve"
    setup_repeats = 3
    min_cases = 100
    k = 5

    def setup(self, seed: int):
        datasets = _pipeline(seed, half_grid())
        model = AssertSolverModel(seed=seed)
        model.pretrain(datasets.verilog_pt)
        model.supervised_finetune(datasets.sva_bug_train, datasets.verilog_bug)
        return datasets, model

    def run(self, state, seconds: float, clock: HostClock, recorder=None) -> WorkloadResult:
        datasets, model = state
        entries = sorted(
            datasets.sva_bug_train + datasets.sva_eval_machine, key=lambda entry: entry.name
        )
        held_out = {entry.name for entry in datasets.sva_eval_machine}
        result = WorkloadResult(clock)
        result.check(len(entries) >= self.min_cases, f"fewer than {self.min_cases} cases")
        ranks = {}

        def one_pass(index: int) -> None:
            outcomes = self._solve_pass(entries, model.snapshot(), result, recorder, index)
            result.digests.append(_digest(outcomes))
            ranks.update((name, rank) for name, rank, _ in outcomes if name in held_out)

        repeat(one_pass, seconds, result)
        result.check(len(set(result.digests)) == 1, "passes over the same cases disagree")
        for k in (1, self.k):
            passed = sum(rank is not None and rank <= k for rank in ranks.values())
            result.pass_at[k] = passed / len(ranks) if ranks else 0.0
        return result

    def _solve_pass(self, entries, engine, result: WorkloadResult, recorder, index: int):
        verifier = SemanticVerifier()
        outcomes = []
        for entry in entries:
            case_started = time.perf_counter()
            try:
                with _operation(recorder, f"pass-{index}/{entry.name}"):
                    case = RepairCase.from_entry(entry)
                    responses = engine.propose_topk(case, k=self.k, temperature=0.2)
                    seeds = derive_verification_seeds(entry.name, entry.stimulus_seed)
                    verdicts = [
                        verifier.verify(
                            entry.buggy_source,
                            CandidateFix(response.line_number, response.fixed_line,
                                         response.bug_line),
                            seeds,
                            cycles=entry.stimulus_cycles,
                        )
                        for response in responses
                    ]
            except Exception:
                _failed_operation(result)
                continue
            result.record(entry.name, case_started)
            statuses = [verdict.status for verdict in verdicts]
            result.attempted += 1
            result.failed += "infra_error" in statuses
            result.ops += 1
            result.check(bool(verdicts), "a case got no candidate")
            result.check(set(statuses) <= VERDICT_STATUSES, f"unknown verdict status in {statuses}")
            rank = next(
                (rank for rank, verdict in enumerate(verdicts, start=1)
                 if verdict.passed and verdict.exercised),
                None,
            )
            outcomes.append(
                (
                    entry.name,
                    rank,
                    [(r.line_number, r.fixed_line, v.to_dict())
                     for r, v in zip(responses, verdicts)],
                )
            )
        return outcomes

    def check_outputs(self, state, result: WorkloadResult) -> None:
        """After timing: the golden line of every held-out case verifies."""
        datasets, _ = state
        verifier = SemanticVerifier()
        for entry in datasets.sva_eval_machine:
            verdict = verifier.verify(
                entry.buggy_source,
                CandidateFix(entry.line_number, entry.golden_line, entry.buggy_line),
                derive_verification_seeds(entry.name, entry.stimulus_seed),
                cycles=entry.stimulus_cycles,
            )
            result.check(verdict.status == "pass", f"golden fix of {entry.name} does not verify")


class Train:
    """Pretraining, SFT and DPO (with challenging-case mining) of a fresh
    model on one pipeline run's datasets; an operation is one training
    example (SVA-Bug train entries plus Verilog-Bug entries), and each of
    the three steps is a request.  Set-up runs the pipeline on
    :func:`half_grid`; a round takes about twelve seconds."""

    name = "train"
    setup_repeats = 3

    def setup(self, seed: int):
        return seed, _pipeline(seed, half_grid())

    def run(self, state, seconds: float, clock: HostClock, recorder=None) -> WorkloadResult:
        seed, datasets = state
        examples = len(datasets.sva_bug_train) + len(datasets.verilog_bug)
        result = WorkloadResult(clock)
        steps = (
            ("pretrain", lambda model: model.pretrain(datasets.verilog_pt)),
            ("sft", lambda model: model.supervised_finetune(
                datasets.sva_bug_train, datasets.verilog_bug)),
            ("dpo", lambda model: model.learn_from_errors(datasets.sva_bug_train)),
        )

        def one_round(index: int) -> None:
            model = AssertSolverModel(seed=seed)
            try:
                for step, call in steps:
                    started = time.perf_counter()
                    with _operation(recorder, f"round-{index}/{step}"):
                        call(model)
                    result.record(step, started)
            except Exception:
                _failed_operation(result, examples)
                return
            result.ops += examples
            result.attempted += examples
            result.check(model.stage is ModelStage.DPO, "the model did not reach stage dpo")
            result.digests.append(_digest(model.policy.weights.to_dict()))

        repeat(one_round, seconds, result)
        result.check(len(set(result.digests)) <= 1, "rounds on the same data disagree")
        return result


WORKLOADS = {workload.name: workload for workload in (Augment(), Solve(), Train())}

"""Stage 1: filtering, deduplication and syntax checking.

Mirrors Section II Stage 1 of the paper:

1. drop samples without ``module``/``endmodule``,
2. drop samples with no functional logic (only declarations/initialisation),
3. drop duplicated code,
4. syntax-check everything with the compiler substitute; failing samples are
   routed into the Verilog-PT pretraining dataset together with their spec
   and an analysis of the compile failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.artifacts import default_store
from repro.corpus.generator import Corpus, CorpusSample
from repro.corpus.corruptor import CorruptedSample
from repro.dataaug.datasets import VerilogPTEntry
from repro.hdl.source import normalize_line
from repro.runtime import JobPolicy, run_stage_jobs


@dataclass
class Stage1Result:
    """Samples that survive to Stage 2, plus the Verilog-PT entries."""

    compiled: list[CorpusSample] = field(default_factory=list)
    verilog_pt: list[VerilogPTEntry] = field(default_factory=list)
    filtered_out: int = 0
    compile_failures: int = 0
    #: Samples whose check job was quarantined (``JobPolicy.on_error``):
    #: excluded from every downstream split, surfaced in pipeline stats.
    skipped: list[dict] = field(default_factory=list)


def has_module_envelope(source: str) -> bool:
    """Filter criterion 1: the sample must contain ``module`` and ``endmodule``."""
    return "module" in source and "endmodule" in source


def has_functional_logic(source: str) -> bool:
    """Filter criterion 2: the sample must contain behavioural logic, not just
    declarations or initialisation."""
    lowered = source.lower()
    return ("always" in lowered) or ("assign" in lowered)


def dedup_fingerprint(source: str) -> str:
    """Normalised fingerprint used for duplicate elimination (criterion 3)."""
    lines = [normalize_line(line) for line in source.split("\n")]
    return "\n".join(line for line in lines if line)


def analyse_compile_failure(render: str) -> str:
    """Build the 'analysis' text for a Verilog-PT entry from compiler diagnostics."""
    diagnostics = [line for line in render.splitlines() if "error" in line]
    if not diagnostics:
        return "the code failed to compile for an unspecified reason"
    return "the compiler reported: " + "; ".join(diagnostics[:3])


def _check_sample_job(source: str) -> dict:
    """Worker function: the per-sample filter facts and compile verdict.

    Pure in the source text, so the checks fan out while the
    order-dependent parts of Stage 1 (deduplication, routing) stay in the
    serial fold below.  A later-deduplicated sample wastes one compile in
    a worker; it cannot change the output.  The compile goes through the
    process's artifact store, so in a serial run Stage 2 finds the golden
    already compiled.
    """
    if not has_module_envelope(source) or not has_functional_logic(source):
        return {"filtered": True, "fingerprint": "", "compile_ok": False, "analysis": ""}
    compile_result = default_store().compile(source)
    return {
        "filtered": False,
        "fingerprint": dedup_fingerprint(source),
        "compile_ok": compile_result.ok,
        "analysis": (
            "" if compile_result.ok else analyse_compile_failure(compile_result.render())
        ),
    }


def run_stage1(corpus: Corpus, policy: JobPolicy = JobPolicy()) -> Stage1Result:
    """Run Stage 1 over a generated corpus.

    The per-sample work (filtering facts + the compile check, the stage's
    cost) fans out through :func:`repro.runtime.run_stage_jobs`;
    deduplication and routing fold the results serially in corpus order, so
    the output is byte-identical for any worker count.  A sample whose check
    job is quarantined is skipped (recorded in :attr:`Stage1Result.skipped`).
    """
    result = Stage1Result()
    seen: set[str] = set()

    considered: list[tuple[CorpusSample, str, CorruptedSample | None]] = [
        (sample, sample.source, None) for sample in corpus.samples
    ]
    considered.extend(
        (sample, corrupted.source, corrupted) for sample, corrupted in corpus.corrupted
    )
    checks, result.skipped = run_stage_jobs(
        "stage1",
        [source for _, source, _ in considered],
        _check_sample_job,
        policy,
        [sample.name for sample, _, _ in considered],
    )

    for (sample, source, corruption), check in zip(considered, checks):
        if check is None:  # quarantined: the sample is simply skipped
            continue
        if check["filtered"]:
            # Truncated/garbled samples can lose their envelope entirely; they
            # still carry structural value, so keep them for pretraining when a
            # ground-truth corruption explanation exists.
            if corruption is not None:
                result.verilog_pt.append(
                    VerilogPTEntry(
                        name=sample.name,
                        source=source,
                        spec=sample.spec,
                        analysis=corruption.explanation,
                        corruption_kind=corruption.corruption_kind,
                    )
                )
                result.compile_failures += 1
            else:
                result.filtered_out += 1
            continue
        if check["fingerprint"] in seen:
            result.filtered_out += 1
            continue
        seen.add(check["fingerprint"])
        if check["compile_ok"]:
            if corruption is None:
                result.compiled.append(sample)
            else:
                # A corruption that still compiles is not a useful PT entry.
                result.filtered_out += 1
            continue
        result.compile_failures += 1
        analysis = corruption.explanation if corruption is not None else check["analysis"]
        result.verilog_pt.append(
            VerilogPTEntry(
                name=sample.name,
                source=source,
                spec=sample.spec,
                analysis=analysis,
                corruption_kind=corruption.corruption_kind if corruption else "organic",
            )
        )
    return result

"""Dataset containers produced by the augmentation pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.corpus.metadata import length_bin
from repro.hdl.source import count_code_lines


@dataclass
class VerilogPTEntry:
    """One Verilog-PT (pretraining) entry: code that failed to compile + analysis."""

    name: str
    source: str
    spec: str
    analysis: str
    corruption_kind: str = ""

    def text(self) -> str:
        """The free-text form used for language-model pretraining."""
        return (
            f"The following Verilog code failed to compile.\n"
            f"Specification:\n{self.spec}\n"
            f"Code:\n{self.source}\n"
            f"Analysis of the failure: {self.analysis}\n"
        )


@dataclass
class VerilogBugEntry:
    """One Verilog-Bug entry: a bug that compiles but triggers no assertion."""

    name: str
    spec: str
    buggy_source: str
    golden_line: str
    buggy_line: str
    line_number: int
    edit_kind: str
    is_conditional: bool
    description: str = ""

    def question(self) -> str:
        return (
            "There is a Verilog design that contains a bug.\n"
            f"Specification:\n{self.spec}\n"
            f"Buggy Verilog:\n{self.buggy_source}\n"
            "Please give me a solution."
        )

    def answer(self) -> str:
        return f"Buggy line {self.line_number}: {self.buggy_line.strip()}\nCorrected code: {self.golden_line.strip()}"

    def to_dict(self) -> dict:
        """JSON-safe form (every field is a JSON-native scalar)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "VerilogBugEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


@dataclass
class SvaBugEntry:
    """One SVA-Bug entry: a bug that makes at least one assertion fail.

    This is the central record of the whole reproduction: the same structure
    backs the training data, the challenging-case mining for DPO, and the
    SVA-Eval benchmark cases.
    """

    name: str
    design_name: str
    family: str
    origin: str  # always "machine"; a dataset row field, so it stays in the rows
    spec: str
    golden_source: str  # golden design *with* the validated SVAs inserted
    buggy_source: str  # buggy design *with* the same SVAs inserted
    logs: str
    failing_assertions: list[str]
    line_number: int
    golden_line: str
    buggy_line: str
    edit_kind: str
    is_conditional: bool
    is_direct: bool
    mutation_name: str = ""
    description: str = ""
    cot: Optional[str] = None
    cot_valid: bool = False
    stimulus_seed: int = 0
    stimulus_cycles: int = 48

    @property
    def code_lines(self) -> int:
        return count_code_lines(self.buggy_source)

    @property
    def length_bin(self) -> str:
        return length_bin(self.code_lines)

    @property
    def bug_type_labels(self) -> list[str]:
        labels = ["Direct" if self.is_direct else "Indirect"]
        edit = {"var": "Var", "value": "Value", "op": "Op"}.get(self.edit_kind)
        if edit:
            labels.append(edit)
        labels.append("Cond" if self.is_conditional else "Non_cond")
        return labels

    def to_dict(self) -> dict:
        """JSON-safe form, used to persist the held-out evaluation split.

        Every field is a JSON-native scalar or list, so ``asdict`` is exact
        and automatically stays in sync with the dataclass definition.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SvaBugEntry":
        """Inverse of :meth:`to_dict` (round-trips a persisted split)."""
        return cls(**payload)


@dataclass
class DatasetStatistics:
    """Aggregate statistics reported by the pipeline (paper Section II numbers)."""

    corpus_samples: int = 0
    filtered_out: int = 0
    compile_failures: int = 0
    verilog_pt_entries: int = 0
    candidate_svas: int = 0
    validated_svas: int = 0
    injected_bugs: int = 0
    bugs_rejected_not_compiling: int = 0
    sva_bug_entries: int = 0
    verilog_bug_entries: int = 0
    cot_generated: int = 0
    cot_valid: int = 0
    #: Quarantined-job records (``on_error="quarantine"`` only): one JSON-safe
    #: dict per skipped job with ``stage``/``name`` and the failure summary.
    #: Empty in the default ``on_error="raise"`` mode.
    skipped_jobs: list[dict] = field(default_factory=list)


@dataclass
class AugmentedDatasets:
    """Everything the pipeline produces."""

    verilog_pt: list[VerilogPTEntry] = field(default_factory=list)
    verilog_bug: list[VerilogBugEntry] = field(default_factory=list)
    sva_bug_train: list[SvaBugEntry] = field(default_factory=list)
    sva_eval_machine: list[SvaBugEntry] = field(default_factory=list)
    statistics: DatasetStatistics = field(default_factory=DatasetStatistics)

    @property
    def all_sva_entries(self) -> list[SvaBugEntry]:
        return self.sva_bug_train + self.sva_eval_machine

    def distribution(self, entries: Optional[list[SvaBugEntry]] = None) -> dict[str, dict[str, int]]:
        """Counts per length bin and per bug-type label (the rows of Table II)."""
        entries = entries if entries is not None else self.sva_bug_train
        by_length: dict[str, int] = {}
        by_type: dict[str, int] = {}
        for entry in entries:
            by_length[entry.length_bin] = by_length.get(entry.length_bin, 0) + 1
            for label in entry.bug_type_labels:
                by_type[label] = by_type.get(label, 0) + 1
        return {"length": by_length, "bug_type": by_type}

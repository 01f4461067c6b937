"""The three-stage data-augmentation pipeline of Section II.

* Stage 1 (:mod:`repro.dataaug.stage1`): filtering, deduplication and syntax
  checking.  Non-compiling samples (plus their failure analysis and spec)
  become the Verilog-PT pretraining dataset.
* Stage 2 (:mod:`repro.dataaug.stage2`): SVA generation (template + mined),
  bug injection, and two-step validation with the compiler and the
  simulation/assertion checker.  Bug/SVA pairs that trigger assertion
  failures become SVA-Bug entries; bugs that compile but do not trigger any
  assertion become Verilog-Bug entries.
* Stage 3 (:mod:`repro.dataaug.stage3`): chain-of-thought generation and
  validation against the golden solution.

:mod:`repro.dataaug.pipeline` orchestrates the stages and produces the three
datasets plus the held-out machine-generated evaluation split (the 90/10
length-binned module-name split of the paper).
"""

from repro.dataaug.datasets import (
    AugmentedDatasets,
    DatasetStatistics,
    SvaBugEntry,
    VerilogBugEntry,
    VerilogPTEntry,
)
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig

__all__ = [
    "AugmentedDatasets",
    "DatasetStatistics",
    "SvaBugEntry",
    "VerilogBugEntry",
    "VerilogPTEntry",
    "DataAugmentationPipeline",
    "PipelineConfig",
]

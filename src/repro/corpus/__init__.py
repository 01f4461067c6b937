"""Synthetic Verilog corpus generation.

The paper augments 108,971 open-source Verilog samples pulled from Hugging
Face.  In this offline reproduction the corpus is produced by a parametric
design generator: ~20 design families (counters, accumulators, FIFOs, ALUs,
FSMs, arbiters, LFSRs, ...) swept over widths/depths/variants to give a pool
of compilable designs across all code-length bins of Table II, plus a
corruptor that manufactures the non-compiling samples used for the
Verilog-PT pretraining split.
"""

from repro.corpus.metadata import DesignArtifact, DesignFamily, PortSpec
from repro.corpus.generator import CorpusGenerator, CorpusConfig
from repro.corpus.corruptor import SyntaxCorruptor, CorruptedSample
from repro.corpus.spec import build_spec
from repro.corpus.templates import all_families, family_by_name

__all__ = [
    "DesignArtifact",
    "DesignFamily",
    "PortSpec",
    "CorpusGenerator",
    "CorpusConfig",
    "SyntaxCorruptor",
    "CorruptedSample",
    "build_spec",
    "all_families",
    "family_by_name",
]

"""AssertSolver reproduction package.

This package reproduces the system described in "Insights from Rights and
Wrongs: A Large Language Model for Solving Assertion Failures in RTL Design"
(DAC 2025).  It contains every substrate the paper depends on:

* :mod:`repro.runtime` -- the deterministic sharded-map execution runtime
  (worker pools, derived seeding, fault tolerance) every parallel workload
  plugs into, plus the on-disk store behind the verdict cache.
* :mod:`repro.hdl` -- a Verilog/SystemVerilog-subset front end (lexer,
  parser, elaborator, semantic linter) standing in for Icarus Verilog.
* :mod:`repro.analyze` -- the compile gate's lint tier and a signal
  dataflow graph.
* :mod:`repro.artifacts` -- the in-process compiled-artifact store, keyed
  by source text.
* :mod:`repro.sim` -- a cycle-accurate RTL simulator with 4-state values.
* :mod:`repro.sva` -- SystemVerilog Assertion parsing, trace checking and
  assertion mining.
* :mod:`repro.corpus` -- a synthetic Verilog corpus generator standing in for
  the Hugging Face Verilog corpus.
* :mod:`repro.bugs` -- the seven-type bug-injection engine of Table I.
* :mod:`repro.dataaug` -- the three-stage data-augmentation pipeline of
  Section II (Verilog-PT, Verilog-Bug, SVA-Bug datasets).
* :mod:`repro.model` -- the trainable repair policy (pretraining, SFT, DPO)
  that plays the role of the fine-tuned Deepseek-Coder model.
* :mod:`repro.eval` -- the semantic verifier, pass@k metrics and the
  ``python -m repro.eval`` evaluation runner.
* :mod:`repro.obs` -- span tracing, metrics and run reports.

The package root exports only :data:`__version__`; import the subpackages
directly.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

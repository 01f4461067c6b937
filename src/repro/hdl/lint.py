"""Semantic checking: the project's substitute for the Icarus Verilog compiler.

:func:`compile_source` runs the full front end (lex, parse, elaborate) and a
set of semantic lint checks, returning a :class:`CompileResult` with a pass /
fail verdict plus diagnostics.  The data-augmentation pipeline (Stage 1 and
Stage 2 of the paper) uses this exactly the way the paper uses ``iverilog``:
to reject syntactically broken corpus entries and to discard injected bugs
that merely break compilation instead of triggering an assertion.

The individual semantic checks live in :mod:`repro.analyze.passes` as
registered passes with stable ids; :func:`lint_design` runs exactly the
``lint``-tier subset, so every diagnostic a rejected corpus entry reports
names the pass that fired (its ``code``) and the advisory analysis passes
can never change what compiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, elaborate
from repro.hdl.errors import Diagnostic, DiagnosticSink, HdlError, Severity
from repro.hdl.parser import parse_source

__all__ = [
    "KNOWN_SYSTEM_FUNCTIONS",
    "KNOWN_SYSTEM_TASKS",
    "CompileResult",
    "compile_source",
    "lint_design",
]

#: System functions the simulator and checker understand.
KNOWN_SYSTEM_FUNCTIONS: frozenset[str] = frozenset(
    {
        "$past",
        "$rose",
        "$fell",
        "$stable",
        "$changed",
        "$onehot",
        "$onehot0",
        "$countones",
        "$clog2",
        "$signed",
        "$unsigned",
    }
)

#: System tasks allowed in procedural code (ignored by the simulator).
KNOWN_SYSTEM_TASKS: frozenset[str] = frozenset(
    {"$display", "$error", "$warning", "$info", "$fatal", "$finish", "$stop", "$monitor"}
)


@dataclass
class CompileResult:
    """Outcome of compiling one Verilog source text."""

    ok: bool
    diagnostics: list[Diagnostic] = field(default_factory=list)
    unit: Optional[ast.SourceUnit] = None
    design: Optional[ElaboratedDesign] = None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def render(self) -> str:
        """Render all diagnostics as a compiler log."""
        status = "compilation successful" if self.ok else "compilation failed"
        body = "\n".join(d.render() for d in self.diagnostics)
        return f"{status}\n{body}" if body else status


def compile_source(text: str, top: Optional[str] = None) -> CompileResult:
    """Parse, elaborate and lint ``text``; never raises for bad input."""
    sink = DiagnosticSink()
    try:
        unit = parse_source(text)
    except HdlError as exc:
        sink.diagnostics.append(exc.to_diagnostic())
        return CompileResult(ok=False, diagnostics=sink.diagnostics)
    try:
        design = elaborate(unit, top=top)
    except HdlError as exc:
        sink.diagnostics.append(exc.to_diagnostic())
        return CompileResult(ok=False, diagnostics=sink.diagnostics, unit=unit)
    lint_design(design, sink)
    ok = not sink.has_errors
    return CompileResult(ok=ok, diagnostics=sink.diagnostics, unit=unit, design=design)


def lint_design(design: ElaboratedDesign, sink: Optional[DiagnosticSink] = None) -> DiagnosticSink:
    """Run the compile-gate semantic passes, appending to ``sink``."""
    # Imported lazily: repro.hdl initialises before repro.analyze can.
    from repro.analyze.passes import lint_passes, run_passes

    return run_passes(design, passes=lint_passes(), sink=sink)


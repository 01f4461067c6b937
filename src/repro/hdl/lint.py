"""Semantic checking: the project's substitute for the Icarus Verilog compiler.

:func:`compile_source` runs the full front end (lex, parse, elaborate) and a
set of semantic lint checks, returning a :class:`CompileResult` with a pass /
fail verdict plus diagnostics.  The data-augmentation pipeline (Stage 1 and
Stage 2 of the paper) uses this exactly the way the paper uses ``iverilog``:
to reject syntactically broken corpus entries and to discard injected bugs
that merely break compilation instead of triggering an assertion.

The individual semantic checks live in :mod:`repro.analyze.passes` as
lint passes with stable ids; :func:`lint_design` runs them, so every
diagnostic a rejected corpus entry reports names the pass that fired (its
``code``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, elaborate
from repro.hdl.errors import Diagnostic, DiagnosticSink, HdlError, Severity
from repro.hdl.incremental import reparse_edit
from repro.hdl.parser import ItemSpan, parse_with_spans
from repro.obs.metrics import get_registry, labeled

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
    #: Where each body item of ``unit`` lies (see :func:`compile_source`'s
    #: ``base``); empty when the source did not parse.
    item_spans: tuple[ItemSpan, ...] = ()

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


def compile_source(text: str, base: Optional[CompileResult] = None) -> CompileResult:
    """Parse, elaborate and lint ``text``; never raises for bad input.

    ``base`` is the result of compiling a source that ``text`` may differ
    from in one line.  Then only the module item holding that line is
    re-lexed and re-parsed (:func:`repro.hdl.incremental.reparse_edit`) and
    the rest of the base's parse is reused; the spliced unit is elaborated
    and linted in full.  Any other edit, and any edit whose re-parse raises,
    takes the full path, so the result is the same with or without ``base``.
    The ambient registry counts ``hdl.reparse.items`` and
    ``hdl.reparse.fallback[<reason>]``.
    """
    if base is not None:
        result = _compile_edit(text, base)
        if result is not None:
            return result
    sink = DiagnosticSink()
    try:
        unit, spans = parse_with_spans(text)
    except HdlError as exc:
        sink.diagnostics.append(exc.to_diagnostic())
        return CompileResult(ok=False, diagnostics=sink.diagnostics)
    try:
        design = elaborate(unit)
    except HdlError as exc:
        sink.diagnostics.append(exc.to_diagnostic())
        return CompileResult(ok=False, diagnostics=sink.diagnostics, unit=unit, item_spans=spans)
    lint_design(design, sink)
    return CompileResult(
        ok=not sink.has_errors, diagnostics=sink.diagnostics, unit=unit, design=design,
        item_spans=spans,
    )


def _compile_edit(text: str, base: CompileResult) -> Optional[CompileResult]:
    """``text`` compiled by re-parsing one item of ``base``; None to fall back."""
    registry = get_registry()
    if base.unit is None:
        registry.inc(labeled("hdl.reparse.fallback", "base did not parse"))
        return None
    try:
        edit = reparse_edit(text, base.unit, base.item_spans)
        if isinstance(edit, str):
            registry.inc(labeled("hdl.reparse.fallback", edit))
            return None
        unit, spans = edit
        design = elaborate(unit)
    except HdlError:
        registry.inc(labeled("hdl.reparse.fallback", "hdl error"))
        return None
    registry.inc("hdl.reparse.items")
    sink = lint_design(design)
    return CompileResult(
        ok=not sink.has_errors, diagnostics=sink.diagnostics, unit=unit, design=design,
        item_spans=spans,
    )


def lint_design(design: ElaboratedDesign, sink: Optional[DiagnosticSink] = None) -> DiagnosticSink:
    """Run the compile-gate semantic passes, appending to ``sink``."""
    # Imported lazily: repro.hdl initialises before repro.analyze can.
    from repro.analyze.passes import run_passes

    return run_passes(design, sink=sink)


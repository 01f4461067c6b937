"""Verilog front end: lexer, parser, AST, elaboration and semantic linting.

This package is the reproduction's substitute for the Icarus Verilog
compiler used by the paper's data-augmentation pipeline.  It accepts the
Verilog-2001 subset emitted by :mod:`repro.corpus`, reports syntax and
semantic diagnostics, and produces an elaborated design representation
consumed by the simulator, the SVA checker, the bounded model checker and
the repair model's structural analyses.
"""

from repro.hdl.errors import (
    HdlError,
    LexError,
    ParseError,
    ElaborationError,
    Diagnostic,
    Severity,
)
from repro.hdl.lexer import Token, TokenKind, tokenize
from repro.hdl.parser import Parser, parse_source
from repro.hdl.elaborate import ElaboratedDesign, Elaborator, elaborate
from repro.hdl.lint import CompileResult, compile_source, lint_design
from repro.hdl.source import SourceFile, replace_line

__all__ = [
    "HdlError",
    "LexError",
    "ParseError",
    "ElaborationError",
    "Diagnostic",
    "Severity",
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "parse_source",
    "ElaboratedDesign",
    "Elaborator",
    "elaborate",
    "CompileResult",
    "compile_source",
    "lint_design",
    "SourceFile",
    "replace_line",
]

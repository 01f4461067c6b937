"""Diagnostics and exception types shared by the HDL front end."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """Severity level of a diagnostic emitted by the front end."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """A single compiler diagnostic.

    Attributes:
        severity: how serious the diagnostic is.
        message: human-readable description.
        line: 1-based source line the diagnostic refers to (0 = unknown).
        column: 1-based source column (0 = unknown).
        code: short machine-readable identifier, e.g. ``"undeclared-signal"``.
    """

    severity: Severity
    message: str
    line: int = 0
    column: int = 0
    code: str = ""

    def render(self) -> str:
        """Format the diagnostic the way a command-line compiler would."""
        location = f"{self.line}:{self.column}: " if self.line else ""
        tag = f" [{self.code}]" if self.code else ""
        return f"{location}{self.severity.value}: {self.message}{tag}"


class HdlError(Exception):
    """Base class for all HDL front-end errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0, code: str = ""):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.code = code

    def to_diagnostic(self) -> Diagnostic:
        """Convert the exception into an error-severity diagnostic."""
        return Diagnostic(
            severity=Severity.ERROR,
            message=self.message,
            line=self.line,
            column=self.column,
            code=self.code,
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_diagnostic().render()


class LexError(HdlError):
    """Raised when the lexer encounters an invalid character or literal."""


class ParseError(HdlError):
    """Raised when the parser cannot match the token stream to the grammar."""


class ElaborationError(HdlError):
    """Raised when a structurally valid design cannot be elaborated."""


@dataclass
class DiagnosticSink:
    """Accumulates diagnostics produced while processing one source file."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def error(self, message: str, line: int = 0, column: int = 0, code: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(Severity.ERROR, message, line=line, column=column, code=code)
        )

    def warning(self, message: str, line: int = 0, column: int = 0, code: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(Severity.WARNING, message, line=line, column=column, code=code)
        )

    def info(self, message: str, line: int = 0, column: int = 0, code: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(Severity.INFO, message, line=line, column=column, code=code)
        )

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def extend(self, other: "DiagnosticSink") -> None:
        self.diagnostics.extend(other.diagnostics)

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)

"""Assertion-failure log formatting and parsing.

The paper's SVA-Bug / SVA-Eval entries carry the simulator/verifier log that
reports which assertion failed (Fig. 1: ``failed assertion accu.valid_out_check``).
This module renders :class:`~repro.sva.checker.CheckReport` objects into that
log format and parses such logs back into structured form (the repair model
and the baselines extract the failing assertion names from the log text).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.sva.checker import CheckReport


@dataclass
class FailureLog:
    """Structured view of an assertion-failure log."""

    module: str
    failed_assertions: list[str] = field(default_factory=list)
    messages: dict[str, str] = field(default_factory=dict)
    fail_cycles: dict[str, int] = field(default_factory=dict)


def format_failure_log(module_name: str, report: CheckReport) -> str:
    """Render a check report the way the training/evaluation data expects.

    The format intentionally mirrors what a verification engineer would see:
    one line per failed assertion with the failing cycle and the assertion's
    error message, preceded by a summary line.
    """
    failures = report.failures
    if not failures:
        return f"simulation of {module_name}: all assertions passed"
    lines = [f"simulation of {module_name}: {len(report.failed_assertions)} assertion(s) failed"]
    seen: set[str] = set()
    for failure in failures:
        if failure.assertion in seen:
            continue
        seen.add(failure.assertion)
        line = f"failed assertion {module_name}.{failure.assertion} at cycle {failure.fail_cycle}"
        if failure.message:
            line += f': "{failure.message}"'
        lines.append(line)
    return "\n".join(lines)


_FAILED_LINE = re.compile(
    r"failed assertion (?P<module>[A-Za-z_][\w$]*)\.(?P<assertion>[A-Za-z_][\w$]*)"
    r"(?: at cycle (?P<cycle>\d+))?"
    r'(?::\s*"(?P<message>[^"]*)")?'
)


def parse_failure_log(text: str) -> FailureLog:
    """Parse a failure log produced by :func:`format_failure_log`.

    Unknown or free-form lines are ignored, so the parser also tolerates
    hand-written logs.
    """
    module = ""
    failed: list[str] = []
    messages: dict[str, str] = {}
    cycles: dict[str, int] = {}
    for line in text.splitlines():
        match = _FAILED_LINE.search(line)
        if not match:
            continue
        module = module or match.group("module")
        name = match.group("assertion")
        if name not in failed:
            failed.append(name)
        if match.group("message"):
            messages[name] = match.group("message")
        if match.group("cycle"):
            cycles[name] = int(match.group("cycle"))
    return FailureLog(module=module, failed_assertions=failed, messages=messages, fail_cycles=cycles)

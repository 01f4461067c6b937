"""Source-text utilities: line extraction, line replacement, normalisation.

Fix candidates produced by the repair model are *line rewrites*, so the whole
project needs a small, well-tested set of helpers for working with source
lines: pull a line out of a file, put a replacement back, and normalise lines
for comparison (the paper judges a repair correct by comparing the suggested
buggy line with the golden answer).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class SourceFile:
    """A Verilog source file held as text with convenient line access.

    Immutable: the text is split into lines once, on first use, and every
    later ``line()`` call indexes that list.  Callers must not mutate the
    list ``lines`` returns; ``with_line_replaced`` builds a new file.
    """

    text: str

    @cached_property
    def lines(self) -> list[str]:
        return self.text.split("\n")

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def line(self, number: int) -> str:
        """Return 1-based line ``number`` (without trailing newline)."""
        lines = self.lines
        if not 1 <= number <= len(lines):
            raise IndexError(f"line {number} out of range 1..{len(lines)}")
        return lines[number - 1]

    def with_line_replaced(self, number: int, new_line: str) -> "SourceFile":
        """Return a new source file with 1-based line ``number`` replaced."""
        lines = self.lines
        if not 1 <= number <= len(lines):
            raise IndexError(f"line {number} out of range 1..{len(lines)}")
        indentation = leading_whitespace(lines[number - 1])
        replacement = new_line if new_line.startswith((" ", "\t")) else indentation + new_line.strip()
        new_lines = lines[:number - 1] + [replacement] + lines[number:]
        return SourceFile(text="\n".join(new_lines))

    def find_line(self, fragment: str) -> int:
        """Return the first 1-based line number whose normalised text matches
        the normalised ``fragment`` (exact match), or containing it, or 0."""
        target = normalize_line(fragment)
        if not target:
            return 0
        for index, line in enumerate(self.lines, start=1):
            if normalize_line(line) == target:
                return index
        for index, line in enumerate(self.lines, start=1):
            if target in normalize_line(line):
                return index
        return 0

    def code_line_numbers(self) -> list[int]:
        """1-based numbers of lines that contain actual code (not blank/comment)."""
        numbers = []
        for index, line in enumerate(self.lines, start=1):
            stripped = strip_comment(line).strip()
            if stripped:
                numbers.append(index)
        return numbers


def leading_whitespace(line: str) -> str:
    """Return the leading whitespace of ``line``."""
    return line[: len(line) - len(line.lstrip())]


def strip_comment(line: str) -> str:
    """Remove a trailing ``//`` comment from a single line (string-unaware by design:
    the corpus never embeds ``//`` inside string literals)."""
    index = line.find("//")
    if index >= 0:
        return line[:index]
    return line


def normalize_line(line: str) -> str:
    """Normalise a code line for comparison: drop comments, collapse whitespace."""
    code = strip_comment(line)
    code = code.strip()
    code = re.sub(r"\s+", " ", code)
    # Remove spaces around punctuation so `a<=b;` and `a <= b ;` compare equal.
    code = re.sub(r"\s*([(){}\[\],;:=<>!&|^~+\-*/%@#?])\s*", r"\1", code)
    return code


def replace_line(text: str, number: int, new_line: str) -> str:
    """Convenience wrapper: 1-based line replacement in raw text."""
    return SourceFile(text).with_line_replaced(number, new_line).text


def lines_equivalent(left: str, right: str) -> bool:
    """True when two code lines are equal after normalisation."""
    return normalize_line(left) == normalize_line(right)


def count_code_lines(text: str) -> int:
    """Number of non-blank, non-comment lines (used for the length bins of Table II)."""
    return len(SourceFile(text).code_line_numbers())

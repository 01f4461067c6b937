"""Re-parse only the module item that a one-line edit touches.

Every Stage-2 mutant and every candidate repair is a source the artifact
store has just compiled with one line replaced.  The line count stays the
same, so every token off that line keeps its position, and only the body
item that holds the line can parse differently.  :func:`reparse_edit`
re-lexes that item's source extent (its :class:`~repro.hdl.parser.ItemSpan`),
parses it with :meth:`~repro.hdl.parser.Parser.parse_module_item` and
splices the new node into a shallow copy of the base unit.  Every other
node is shared with the base, which the read-only AST contract allows.

When the splice cannot be shown equal to a full parse, :func:`reparse_edit`
returns the reason instead and :func:`repro.hdl.lint.compile_source` parses
the whole text.  The guards:

* exactly one line differs and the line count is equal;
* the base has no ``/*`` and neither version of the line has ``"``, ``\\``,
  ``/*``, ``*/`` or a backtick, so no token or comment crosses a line
  boundary or the cut ends of the extent;
* the line lies inside exactly one recorded item, and the text outside the
  item's columns on that line is unchanged;
* the extent still starts with the same identifier or keyword and, when the
  line is the item's last, ends in a token that cannot run on into the
  unchanged rest of the line;
* the extent parses to exactly one body item that consumes every token and
  writes no port or parameter.

A lex or parse error propagates; the caller falls back on any ``HdlError``,
so every diagnostic comes from the full path.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Union

from repro.hdl import ast
from repro.hdl.lexer import Token, TokenKind, tokenize
from repro.hdl.parser import ItemSpan, Parser

#: Text that, on the edited line, could start or end a token or comment
#: spanning lines, or that lexes differently once the line is cut.
_UNSAFE_MARKS = ('"', "\\", "/*", "*/", "`")

_WORD = re.compile(r"[A-Za-z_][\w$]*")
_WORD_CHAR = re.compile(r"[\w$]")

#: The spliced unit and its item spans, or why the edit needs a full parse.
Edit = Union[tuple[ast.SourceUnit, tuple[ItemSpan, ...]], str]


def reparse_edit(text: str, base: ast.SourceUnit, spans: tuple[ItemSpan, ...]) -> Edit:
    """``text`` parsed by re-parsing one item of ``base``, or a fallback reason.

    ``spans`` are the item spans recorded when ``base`` was parsed.  Raises
    :class:`~repro.hdl.errors.HdlError` when the edited extent does not lex
    or parse.
    """
    base_text = base.text
    if "/*" in base_text:
        return "block comment"
    lines = text.split("\n")
    base_lines = base_text.split("\n")
    if len(lines) != len(base_lines):
        return "line count"
    index = _only_changed_line(lines, base_lines)
    if index < 0:
        return "not one line"
    new, old = lines[index], base_lines[index]
    if any(mark in new or mark in old for mark in _UNSAFE_MARKS):
        return "unsafe character"
    number = index + 1

    position = -1
    for k, candidate in enumerate(spans):
        if candidate.first_line > number:
            break
        if candidate.last_line >= number:
            if position >= 0:
                return "several items"
            position = k
    if position < 0:
        return "outside items"
    span = spans[position]

    # The edited line's part of the extent is new[start:end].
    start = span.first_column - 1 if number == span.first_line else 0
    end = len(new)
    suffix = ""
    if number == span.last_line:
        suffix = old[span.end_column - 1 :]
        end -= len(suffix)
        if not new.endswith(suffix):
            return "outside columns"
    if end < start or new[:start] != old[:start]:
        return "outside columns"

    cut = end if number == span.last_line else span.end_column - 1
    segment = lines[span.first_line - 1 : span.last_line]
    segment[-1] = segment[-1][:cut]
    segment[0] = segment[0][span.first_column - 1 :]
    tokens = tokenize("\n".join(segment), span.first_line, span.first_column)

    first = tokens[0]
    if first.line != span.first_line or first.column != span.first_column:
        return "first token"
    if number == span.first_line:
        word = _WORD.match(old, start)
        if word is None or word.group() != first.value:
            return "first token"
    if number == span.last_line and not _closes_extent(tokens[-2], number, end, suffix):
        return "last token"

    item = Parser(tokens, text).parse_module_item()
    if item is None:
        return "item parse"

    module = base.modules[span.module]
    items = list(module.items)
    items[span.item] = item
    modules = list(base.modules)
    modules[span.module] = dataclasses.replace(module, items=items)
    if cut + 1 != span.end_column:
        spans = spans[:position] + (span._replace(end_column=cut + 1),) + spans[position + 1 :]
    return ast.SourceUnit(modules=modules, text=text), spans


def _only_changed_line(lines: list[str], base_lines: list[str]) -> int:
    """Index of the one line that differs, or -1 for none or several."""
    for index, (line, base_line) in enumerate(zip(lines, base_lines)):
        if line != base_line:
            return index if lines[index + 1 :] == base_lines[index + 1 :] else -1
    return -1


def _closes_extent(last: Token, number: int, end: int, suffix: str) -> bool:
    """``last`` ends the extent at ``end`` and cannot join ``suffix``'s start.

    A punctuation mark is one character whatever follows it; a keyword
    stops at any character that cannot continue a word.  (``'`` may start a
    number, so it does not count.)
    """
    if last.line != number or last.column + len(last.value) != end + 1:
        return False
    if last.kind is TokenKind.PUNCT:
        return last.value != "'"
    return last.kind is TokenKind.KEYWORD and _WORD_CHAR.match(suffix) is None

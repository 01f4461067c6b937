"""Re-parse only what an edit of a compiled source touches.

Two edits reach the artifact store with a base source it has just
compiled, and :func:`reparse_edit` parses only their new text:

* **One replaced line.**  Every Stage-2 mutant and every candidate repair
  is its base with one line replaced.  The line count stays the same, so
  every token off that line keeps its position, and only the body item
  that holds the line can parse differently.  That item's source extent
  (its :class:`~repro.hdl.parser.ItemSpan`) is re-lexed, parsed with
  :meth:`~repro.hdl.parser.Parser.parse_module_item` and spliced into a
  shallow copy of the base unit.
* **Lines inserted before the last ``endmodule``.**  Stage 2's augmented
  golden is its golden with SVA blocks inserted there
  (:func:`repro.sva.generator.insert_assertions`).  The inserted lines and
  the ``endmodule`` line after them are lexed alone, parsed with
  :meth:`~repro.hdl.parser.Parser.parse_appended_items` and appended to a
  shallow copy of the last module.

Every other node is shared with the base, which the read-only AST contract
allows.  When the splice cannot be shown equal to a full parse,
:func:`reparse_edit` returns the reason instead and
:func:`repro.hdl.lint.compile_source` parses the whole text.  The base must
have no ``/*``.  The guards of a replaced line:

* exactly one line differs and the line count is equal;
* neither version of the line has ``"``, ``\\``, ``/*``, ``*/`` or a
  backtick, so no token or comment crosses a line boundary or the cut ends
  of the extent;
* the line lies inside exactly one recorded item, and the text outside the
  item's columns on that line is unchanged;
* the extent still starts with the same identifier or keyword and, when the
  line is the item's last, ends in a token that cannot run on into the
  unchanged rest of the line;
* the extent parses to exactly one body item that consumes every token and
  writes no port or parameter.

The guards of an insertion, which keep the lexer's state clean at both
ends of the inserted lines and the base's items parsing as before:

* the added lines are one run, inserted right before the base's last line
  that starts with ``endmodule``, and hold no ``/*``;
* the base's last recorded item span is the last item of its last module
  and ends above that line;
* lexed alone, the inserted lines and the rest of the text end in one
  ``endmodule`` token, the first on its line, and the inserted tokens do
  not start with ``else`` (which would continue the base's last item);
* the inserted tokens parse to whole body items that write no port or
  parameter.

A lex or parse error propagates; the caller falls back on any ``HdlError``,
so every diagnostic comes from the full path.
"""

from __future__ import annotations

import dataclasses
import re
from typing import NamedTuple, Union

from repro.hdl import ast
from repro.hdl.lexer import Token, TokenKind, tokenize
from repro.hdl.parser import ItemSpan, Parser

#: Text that, on the edited line, could start or end a token or comment
#: spanning lines, or that lexes differently once the line is cut.
_UNSAFE_MARKS = ('"', "\\", "/*", "*/", "`")

_WORD = re.compile(r"[A-Za-z_][\w$]*")
_WORD_CHAR = re.compile(r"[\w$]")


class Splice(NamedTuple):
    """An edit parsed incrementally: the unit, its item spans and the counter."""

    unit: ast.SourceUnit
    spans: tuple[ItemSpan, ...]
    #: ``hdl.reparse.items`` (one replaced line) or ``hdl.reparse.inserts``.
    counter: str


#: The splice, or why the edit needs a full parse.
Edit = Union[Splice, str]


def reparse_edit(text: str, base: ast.SourceUnit, spans: tuple[ItemSpan, ...]) -> Edit:
    """``text`` parsed by re-parsing only its edit of ``base``, or a fallback reason.

    ``spans`` are the item spans recorded when ``base`` was parsed.  Raises
    :class:`~repro.hdl.errors.HdlError` when the new text does not lex or
    parse.
    """
    base_text = base.text
    if "/*" in base_text:
        return "block comment"
    lines = text.split("\n")
    base_lines = base_text.split("\n")
    if len(lines) > len(base_lines):
        return _reparse_insertion(text, lines, base, base_lines, spans)
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
    return Splice(ast.SourceUnit(modules=modules, text=text), spans, "hdl.reparse.items")


def _reparse_insertion(
    text: str,
    lines: list[str],
    base: ast.SourceUnit,
    base_lines: list[str],
    spans: tuple[ItemSpan, ...],
) -> Edit:
    """``text`` as ``base`` with lines inserted before its last ``endmodule`` line."""
    at = _last_endmodule_line(base_lines)
    added = len(lines) - len(base_lines)
    if at < 0 or lines[:at] != base_lines[:at] or lines[at + added :] != base_lines[at:]:
        return "not an insertion"
    if any("/*" in line for line in lines[at : at + added]):
        return "block comment"
    index = len(base.modules) - 1
    module = base.modules[index]
    if (
        not spans
        or spans[-1].module != index
        or spans[-1].item != len(module.items) - 1
        or spans[-1].last_line > at
    ):
        return "last item"

    tokens = tokenize("\n".join(lines[at:]), at + 1, 1)
    closing = tokens[-2]  # the line at lines[at + added] lexes to at least one token
    endmodule_line = lines[at + added]
    if (
        not closing.is_keyword("endmodule")
        or closing.line != at + added + 1
        or closing.column != len(endmodule_line) - len(endmodule_line.lstrip()) + 1
    ):
        return "endmodule line"
    if tokens[0].is_keyword("else"):
        return "first token"

    parser = Parser(tokens, text)
    appended = parser.parse_appended_items(module, index)
    if appended is None:
        return "item parse"
    modules = list(base.modules)
    modules[index] = appended
    return Splice(
        ast.SourceUnit(modules=modules, text=text),
        spans + tuple(parser.item_spans),
        "hdl.reparse.inserts",
    )


def _last_endmodule_line(lines: list[str]) -> int:
    """Index of the last line that starts with ``endmodule``, or -1."""
    for index in range(len(lines) - 1, -1, -1):
        if lines[index].lstrip().startswith("endmodule"):
            return index
    return -1


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

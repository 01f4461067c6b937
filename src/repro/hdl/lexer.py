r"""Tokenizer for the Verilog-2001 / SVA subset used throughout the project.

The lexer is deliberately strict: anything outside the supported subset is
reported as a :class:`~repro.hdl.errors.LexError` with a line/column, which
is exactly what the data-augmentation pipeline needs from its "compiler"
stage (accept/reject plus a diagnostic).

:func:`tokenize` is one loop over a compiled alternation (``_MASTER``) whose
branches each match a whole token.  Every branch is maximal munch without
backtracking: a branch either ends in a class that cannot stop early
(``[\w$]*``, where ``\w`` is exactly ``str.isalnum() or "_"``) or in a
lookahead that rejects any character that could extend the token.  The rare
constructs -- block comments, strings with escapes, escaped identifiers,
tokens that start with or are cut by a non-ASCII character, and every
:class:`LexError` -- fall through to the one character-level branch,
:func:`_lex_slow`.  ``tests/test_lexer_differential.py`` keeps the previous
character-at-a-time lexer as the oracle this one must match token for token.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable
from dataclasses import dataclass

from repro.hdl.errors import LexError


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    SYSTEM_IDENT = "system_ident"  # $error, $past, $display ...
    NUMBER = "number"  # 12, 4'b1010, 8'hFF
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Keywords recognised by the parser.  Everything else that looks like an
#: identifier is an identifier.
KEYWORDS: frozenset[str] = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "logic",
        "integer",
        "parameter",
        "localparam",
        "assign",
        "always",
        "always_ff",
        "always_comb",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "for",
        "posedge",
        "negedge",
        "or",
        "property",
        "endproperty",
        "assert",
        "assume",
        "cover",
        "disable",
        "iff",
        "not",
        "signed",
        "genvar",
        "generate",
        "endgenerate",
        "function",
        "endfunction",
        "task",
        "endtask",
    }
)

#: Multi-character operators, longest first so that maximal munch works.
_MULTI_CHAR_OPERATORS: tuple[str, ...] = (
    "|=>",
    "|->",
    "<<<",
    ">>>",
    "===",
    "!==",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "<<",
    ">>",
    "##",
    "+:",
    "-:",
    "::",
    "**",
)

_SINGLE_CHAR_OPERATORS: frozenset[str] = frozenset("+-*/%&|^~!<>=?:#")

_PUNCTUATION: frozenset[str] = frozenset("()[]{},;.@'")


@dataclass(slots=True)
class Token:
    """A single lexical token with its source position (1-based).

    Slotted and never mutated after lexing; nothing hashes a token.
    """

    kind: TokenKind
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.value in ops

    def is_punct(self, *puncts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value in puncts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind.value}, {self.value!r}, {self.line}:{self.column})"


def _char_class(chars: frozenset[str]) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


#: Capture-group numbers of the ``_MASTER`` branches, in pattern order.
(_IDENT, _PUNCT, _NEWLINE, _OPERATOR, _NUMBER, _SKIP, _SYSTEM, _STRING, _END, _SLOW) = range(1, 11)

_BASES = "bBdDhHoO"

_PUNCT_CLASS = _char_class(_PUNCTUATION - {"'"})
_OPERATOR_ALTERNATION = "|".join(re.escape(op) for op in _MULTI_CHAR_OPERATORS)
_SINGLE_OPERATOR_CLASS = _char_class(_SINGLE_CHAR_OPERATORS - {"/"})

_MASTER: re.Pattern[str] = re.compile(
    r"[ \t\r]*(?:"
    # Identifier or keyword.
    r"([A-Za-z_][\w$]*)"
    # Punctuation.  A "'" before a base letter (or at the end) starts a number.
    rf"|({_PUNCT_CLASS}|'(?=[^{_BASES}]))"
    r"|(\n)"
    # Operators, longest first; "/" only when it starts no comment.
    rf"|({_OPERATOR_ALTERNATION}|{_SINGLE_OPERATOR_CLASS}|/(?![/*]))"
    # Sized or plain decimal number (a following "'" must start a valid base
    # and digits; a non-ASCII character may be a digit), or an unsized one.
    rf"|([0-9][0-9_]*(?:'[sS]?[{_BASES}][\w?]+|(?![0-9_']|[^\x00-\x7f]))|'[{_BASES}][\w?]+)"
    # Line comment or compiler directive (`timescale, `define ...).
    r"|(//[^\n]*|`[^\n]*)"
    r"|(\$\w+)"
    # String without escapes; the group is its value.
    r'|"([^"\\\n]*)"'
    r"|(\Z)"
    # Anything else: one character for _lex_slow.
    r"|(.))",
    re.DOTALL,
)

#: Character runs for the slow branch; each also matches the empty string.
_IDENT_TAIL: re.Pattern[str] = re.compile(r"[\w$]*")
_BASED_DIGITS: re.Pattern[str] = re.compile(r"[\w?]*")
_NON_SPACE: re.Pattern[str] = re.compile(r"\S*")
_ESCAPES: dict[str, str] = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Tokenize ``text`` and return the token list (including the EOF token).

    ``line`` and ``column`` place ``text``'s first character, so a slice of
    a larger source lexes to the positions it has there.  Raises
    :class:`LexError` on input outside the supported subset.
    """
    tokens: list[Token] = []
    append = tokens.append
    keyword, ident, punct = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT
    operator, number, system, string = (
        TokenKind.OPERATOR, TokenKind.NUMBER, TokenKind.SYSTEM_IDENT, TokenKind.STRING
    )
    line_start = 1 - column  # offset of the current line's first character
    pos = 0
    while True:
        for match in _MASTER.finditer(text, pos):
            branch = match.lastindex
            if branch == _IDENT:
                value = match.group(_IDENT)
                kind = keyword if value in KEYWORDS else ident
                append(Token(kind, value, line, match.start(_IDENT) - line_start + 1))
            elif branch == _PUNCT:
                append(Token(punct, match.group(_PUNCT), line, match.start(_PUNCT) - line_start + 1))
            elif branch == _NEWLINE:
                line += 1
                line_start = match.end()
            elif branch == _OPERATOR:
                column = match.start(_OPERATOR) - line_start + 1
                append(Token(operator, match.group(_OPERATOR), line, column))
            elif branch == _NUMBER:
                column = match.start(_NUMBER) - line_start + 1
                append(Token(number, match.group(_NUMBER), line, column))
            elif branch == _SYSTEM:
                column = match.start(_SYSTEM) - line_start + 1
                append(Token(system, match.group(_SYSTEM), line, column))
            elif branch == _STRING:
                # The column is the opening quote's, one before the group.
                column = match.start(_STRING) - line_start
                append(Token(string, match.group(_STRING), line, column))
            elif branch == _SLOW:
                pos = match.start(_SLOW)
                break
            # _SKIP and _END emit nothing.
        else:
            break
        pos, line, line_start = _lex_slow(text, pos, line, line_start, append)
    append(Token(TokenKind.EOF, "", line, len(text) - line_start + 1))
    return tokens


def _lex_slow(
    text: str, pos: int, line: int, line_start: int, append: Callable[[Token], None]
) -> tuple[int, int, int]:
    """Lex the one construct at ``pos`` that no fast branch took.

    Appends its token, if any, and returns the new ``(pos, line, line_start)``.
    """
    column = pos - line_start + 1
    ch = text[pos]
    if ch == "/":  # the fast branches leave only "/*" here
        close = text.find("*/", pos + 2)
        if close < 0:
            raise LexError("unterminated block comment", line, column, "unterminated-comment")
        end = close + 2
        newlines = text.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, end) + 1
        return end, line, line_start
    if ch == '"':
        return _lex_string(text, pos, line, line_start, append)
    if ch == "\\":
        # Escaped identifier: terminated by whitespace.
        end = _match_end(_NON_SPACE, text, pos + 1)
        append(Token(TokenKind.IDENT, text[pos + 1 : end], line, column))
        return end, line, line_start
    if ch == "$":  # "$" followed by no word character
        raise LexError("stray '$' in source", line, column, "stray-dollar")
    if ch.isdigit() or ch == "'":
        end = _lex_number_end(text, pos, line, column)
        append(Token(TokenKind.NUMBER, text[pos:end], line, column))
        return end, line, line_start
    if ch.isalpha():
        # Every keyword is ASCII, so this is an identifier.
        end = _match_end(_IDENT_TAIL, text, pos + 1)
        append(Token(TokenKind.IDENT, text[pos:end], line, column))
        return end, line, line_start
    raise LexError(f"unexpected character {ch!r}", line, column, "unexpected-character")


def _lex_number_end(text: str, pos: int, line: int, column: int) -> int:
    """End offset of the number at ``pos``: an optional size, then a base."""
    end = pos
    while end < len(text) and (text[end].isdigit() or text[end] == "_"):
        end += 1
    if end < len(text) and text[end] == "'":
        end += 1
        if end < len(text) and text[end] in "sS":
            end += 1
        if end >= len(text) or text[end] not in _BASES:
            raise LexError("malformed based literal", line, column, "bad-literal")
        digits_start = end + 1
        end = _match_end(_BASED_DIGITS, text, digits_start)
        if end == digits_start:
            raise LexError("based literal missing digits", line, column, "bad-literal")
    return end


def _lex_string(
    text: str, pos: int, line: int, line_start: int, append: Callable[[Token], None]
) -> tuple[int, int, int]:
    """Lex a string literal with escapes; an escaped newline starts a new line."""
    start_line, column = line, pos - line_start + 1
    chars: list[str] = []
    end = pos + 1
    while True:
        if end >= len(text):
            raise LexError("unterminated string literal", start_line, column, "unterminated-string")
        ch = text[end]
        if ch == '"':
            break
        if ch == "\n":
            raise LexError("newline in string literal", start_line, column, "newline-in-string")
        if ch == "\\":
            escaped = text[end + 1 : end + 2]
            chars.append(_ESCAPES.get(escaped, escaped))
            end += 2
            if escaped == "\n":
                line += 1
                line_start = end
            continue
        chars.append(ch)
        end += 1
    append(Token(TokenKind.STRING, "".join(chars), start_line, column))
    return end + 1, line, line_start


def _match_end(run: re.Pattern[str], text: str, pos: int) -> int:
    """End of the (possibly empty) ``run`` starting at ``pos``."""
    match = run.match(text, pos)
    return match.end() if match else pos

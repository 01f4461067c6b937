"""Differential test: the master-regex lexer against the character-level oracle.

:class:`Lexer` below is the project's previous lexer, kept verbatim (plus the
escaped-newline line count fix) as the oracle for
:func:`repro.hdl.lexer.tokenize`.  For every input the two must produce equal
``(kind, value, line, column)`` lists, or raise ``LexError`` with equal
message, line, column and code.  Inputs: every golden design of the 89-design
grid, with and without its template SVAs, and a syntax-corrupted variant of
each golden, every text a small pipeline run lexes (whole goldens, mutants
and corrupted entries, and the items and SVA blocks the incremental front
end re-lexes), and seeded random strings and splices over an alphabet
rich in the lexer's edge cases.
"""

from __future__ import annotations

import random

import pytest

import repro.hdl.parser as parser_module
from repro.hdl.errors import LexError
from repro.hdl.lexer import (
    _MULTI_CHAR_OPERATORS,
    _PUNCTUATION,
    _SINGLE_CHAR_OPERATORS,
    KEYWORDS,
    Token,
    TokenKind,
    tokenize,
)


class Lexer:
    """Converts Verilog source text into a list of :class:`Token` objects."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1
        self._tokens: list[Token] = []

    def tokenize(self) -> list[Token]:
        """Tokenize the whole input, raising :class:`LexError` on bad input."""
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch in " \t\r":
                self._advance(1)
            elif ch == "\n":
                self._advance_newline()
            elif ch == "/" and self._peek(1) == "/":
                self._skip_line_comment()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            elif ch == "`":
                self._skip_directive()
            elif ch == '"':
                self._lex_string()
            elif ch == "$":
                self._lex_system_ident()
            elif ch.isdigit() or (ch == "'" and self._peek(1) in "bBdDhHoO"):
                self._lex_number()
            elif ch.isalpha() or ch == "_" or ch == "\\":
                self._lex_identifier()
            else:
                self._lex_operator_or_punct()
        self._tokens.append(Token(TokenKind.EOF, "", self._line, self._column))
        return self._tokens

    # ------------------------------------------------------------------ #
    # low-level cursor helpers
    # ------------------------------------------------------------------ #

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._text):
            return self._text[index]
        return ""

    def _advance(self, count: int) -> None:
        self._pos += count
        self._column += count

    def _advance_newline(self) -> None:
        self._pos += 1
        self._line += 1
        self._column = 1

    def _emit(self, kind: TokenKind, value: str, line: int, column: int) -> None:
        self._tokens.append(Token(kind, value, line, column))

    # ------------------------------------------------------------------ #
    # token scanners
    # ------------------------------------------------------------------ #

    def _skip_line_comment(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos] != "\n":
            self._pos += 1
            self._column += 1

    def _skip_block_comment(self) -> None:
        start_line, start_col = self._line, self._column
        self._advance(2)
        while self._pos < len(self._text):
            if self._text[self._pos] == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            if self._text[self._pos] == "\n":
                self._advance_newline()
            else:
                self._advance(1)
        raise LexError("unterminated block comment", start_line, start_col, "unterminated-comment")

    def _skip_directive(self) -> None:
        """Skip a compiler directive (`timescale, `define ...) to end of line."""
        while self._pos < len(self._text) and self._text[self._pos] != "\n":
            self._pos += 1
            self._column += 1

    def _lex_string(self) -> None:
        start_line, start_col = self._line, self._column
        self._advance(1)
        chars: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise LexError("unterminated string literal", start_line, start_col, "unterminated-string")
            ch = self._text[self._pos]
            if ch == '"':
                self._advance(1)
                break
            if ch == "\n":
                raise LexError("newline in string literal", start_line, start_col, "newline-in-string")
            if ch == "\\":
                nxt = self._peek(1)
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
                if nxt == "\n":
                    self._pos += 1
                    self._advance_newline()
                else:
                    self._advance(2)
                continue
            chars.append(ch)
            self._advance(1)
        self._emit(TokenKind.STRING, "".join(chars), start_line, start_col)

    def _lex_system_ident(self) -> None:
        start_line, start_col = self._line, self._column
        start = self._pos
        self._advance(1)
        while self._pos < len(self._text) and (self._text[self._pos].isalnum() or self._text[self._pos] == "_"):
            self._advance(1)
        value = self._text[start : self._pos]
        if value == "$":
            raise LexError("stray '$' in source", start_line, start_col, "stray-dollar")
        self._emit(TokenKind.SYSTEM_IDENT, value, start_line, start_col)

    def _lex_number(self) -> None:
        start_line, start_col = self._line, self._column
        start = self._pos
        # Optional decimal size prefix.
        while self._pos < len(self._text) and (self._text[self._pos].isdigit() or self._text[self._pos] == "_"):
            self._advance(1)
        if self._pos < len(self._text) and self._text[self._pos] == "'":
            self._advance(1)
            if self._pos < len(self._text) and self._text[self._pos] in "sS":
                self._advance(1)
            if self._pos >= len(self._text) or self._text[self._pos] not in "bBdDhHoO":
                raise LexError("malformed based literal", start_line, start_col, "bad-literal")
            self._advance(1)
            digits_start = self._pos
            while self._pos < len(self._text) and (
                self._text[self._pos].isalnum() or self._text[self._pos] in "_?xXzZ"
            ):
                self._advance(1)
            if self._pos == digits_start:
                raise LexError("based literal missing digits", start_line, start_col, "bad-literal")
        value = self._text[start : self._pos]
        self._emit(TokenKind.NUMBER, value, start_line, start_col)

    def _lex_identifier(self) -> None:
        start_line, start_col = self._line, self._column
        start = self._pos
        if self._text[self._pos] == "\\":
            # Escaped identifier: terminated by whitespace.
            self._advance(1)
            while self._pos < len(self._text) and not self._text[self._pos].isspace():
                self._advance(1)
            value = self._text[start + 1 : self._pos]
            self._emit(TokenKind.IDENT, value, start_line, start_col)
            return
        while self._pos < len(self._text) and (
            self._text[self._pos].isalnum() or self._text[self._pos] in "_$"
        ):
            self._advance(1)
        value = self._text[start : self._pos]
        kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
        self._emit(kind, value, start_line, start_col)

    def _lex_operator_or_punct(self) -> None:
        start_line, start_col = self._line, self._column
        for op in _MULTI_CHAR_OPERATORS:
            if self._text.startswith(op, self._pos):
                self._advance(len(op))
                self._emit(TokenKind.OPERATOR, op, start_line, start_col)
                return
        ch = self._text[self._pos]
        if ch in _SINGLE_CHAR_OPERATORS:
            self._advance(1)
            self._emit(TokenKind.OPERATOR, ch, start_line, start_col)
            return
        if ch in _PUNCTUATION:
            self._advance(1)
            self._emit(TokenKind.PUNCT, ch, start_line, start_col)
            return
        raise LexError(f"unexpected character {ch!r}", start_line, start_col, "unexpected-character")


def oracle_tokenize(text: str) -> list[Token]:
    return Lexer(text).tokenize()


def lex_outcome(lex, text: str):
    """The token tuples ``lex`` produces for ``text``, or its error."""
    try:
        return [(token.kind, token.value, token.line, token.column) for token in lex(text)]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.column, exc.code)


def mismatches(texts) -> list[str]:
    return [text for text in texts if lex_outcome(oracle_tokenize, text) != lex_outcome(tokenize, text)]


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def grid_sources() -> list[str]:
    from repro.corpus.templates import all_families

    return [
        family.build(f"{family.name}_{point:02d}", **family.parameter_grid[point]).source
        for family in all_families()
        for point in range(len(family.parameter_grid))
    ]


@pytest.fixture(scope="module")
def augmented_sources() -> list[str]:
    """Each grid golden with its template SVAs inserted before ``endmodule``."""
    from repro.corpus.templates import all_families
    from repro.sva.generator import insert_assertions, template_assertion_blocks

    return [
        insert_assertions(artifact.source, template_assertion_blocks(
            artifact.template_svas, artifact.family))
        for family in all_families()
        for point, params in enumerate(family.parameter_grid)
        for artifact in (family.build(f"{family.name}_{point:02d}", **params),)
    ]


@pytest.fixture(scope="module")
def pipeline_run():
    """A small serial pipeline run and every text it lexed, in first-seen order.

    Both bindings of ``tokenize`` record: the parser's (whole sources) and the
    incremental front end's (re-parsed items and inserted SVA blocks, lexed
    at their line and column in the source).
    """
    import repro.artifacts.store as store_module
    import repro.hdl.incremental as incremental_module
    from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig

    seen: dict[str, None] = {}

    def recording(text: str, *args) -> list[Token]:
        seen.setdefault(text)
        return tokenize(text, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_module, "tokenize", recording)
        patch.setattr(incremental_module, "tokenize", recording)
        # A fresh store, so an earlier test's LRU cannot hide a parse.
        patch.setattr(store_module, "_DEFAULT_STORE", None)
        datasets = DataAugmentationPipeline(PipelineConfig.small(workers=1)).run()
    return datasets, list(seen)


@pytest.fixture(scope="module")
def pipeline_sources(pipeline_run) -> list[str]:
    return pipeline_run[1]


@pytest.fixture(scope="module")
def corrupted_sources(grid_sources) -> list[str]:
    from repro.corpus.corruptor import SyntaxCorruptor

    corruptor = SyntaxCorruptor(seed=7)
    return [corruptor.corrupt(source).source for source in grid_sources]


#: Fragments for random strings: every character class the lexer treats
#: specially, the non-ASCII cases (a letter, a superscript digit, an
#: Arabic-Indic digit, a vulgar fraction, an arrow), and multi-character
#: openers and closers.
ALPHABET: tuple[str, ...] = (
    *"abcsSxXzZbBdDhHoO_019 \t\n",
    "é", "²", "٣", "½", "→", "\f", "\r", "\\", '"', "'", "$", "`", "/*", "*/", "//",
    "\\\n", "4'b", "'h", "8'sd", "$display", "module", "begin", "é1", "?", "#",
    *sorted(_SINGLE_CHAR_OPERATORS), *sorted(_PUNCTUATION), *_MULTI_CHAR_OPERATORS,
)


def random_strings(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choices(ALPHABET, k=rng.randint(0, 24))) for _ in range(count)]


def splices(sources: list[str], count: int, seed: int) -> list[str]:
    """1-3 fragment splices into a window of up to eight lines of a real source."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        lines = rng.choice(sources).splitlines(keepends=True)
        first = rng.randrange(len(lines))
        window = "".join(lines[first : first + rng.randint(1, 8)])
        at = rng.randint(0, len(window))
        cut = rng.randint(0, 3)
        insert = "".join(rng.choices(ALPHABET, k=rng.randint(1, 3)))
        texts.append(window[:at] + insert + window[at + cut :])
    return texts


# --------------------------------------------------------------------------- #
# the differential checks
# --------------------------------------------------------------------------- #


def test_golden_grid_lexes_identically(grid_sources, augmented_sources):
    assert len(grid_sources) == len(augmented_sources) == 89
    assert mismatches(grid_sources + augmented_sources) == []


def test_pipeline_mutants_and_corrupted_sources_lex_identically(pipeline_run, corrupted_sources):
    datasets, sources = pipeline_run
    mutants = {entry.buggy_source for entry in datasets.all_sva_entries}
    mutants |= {entry.buggy_source for entry in datasets.verilog_bug}
    corrupted = [entry.source for entry in datasets.verilog_pt]
    assert mutants and corrupted
    # The incremental front end's texts are recorded too: SVA insertions.
    for construct in ("|=>", "$past", "disable iff"):
        assert any(construct in text for text in sources), construct
    # The pipeline re-lexes only the edited item of most mutants, so the
    # whole mutants are lexed here, straight from the datasets.
    assert mismatches(sources + sorted(mutants) + corrupted) == []
    assert mismatches(corrupted_sources) == []


def test_random_strings_lex_identically():
    texts = random_strings(12_000, seed=20)
    # Both outcomes are exercised: token streams and every error code.
    outcomes = [lex_outcome(tokenize, text) for text in texts]
    codes = {outcome[4] for outcome in outcomes if outcome[0] == "LexError"}
    assert codes == {
        "unexpected-character",
        "bad-literal",
        "stray-dollar",
        "unterminated-string",
        "unterminated-comment",
        "newline-in-string",
    }
    assert sum(outcome[0] != "LexError" for outcome in outcomes) > len(texts) // 3
    assert mismatches(texts) == []


def test_random_splices_into_real_sources_lex_identically(
    grid_sources, augmented_sources, pipeline_sources
):
    # The grid goldens hold no SVAs; the augmented ones keep SVA tokens in
    # the spliced texts.
    texts = splices(grid_sources + augmented_sources + pipeline_sources, 10_000, seed=21)
    assert mismatches(texts) == []


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \t",
        "'",
        "9'",
        "4'q",
        "4'b",
        "'b",
        "4'sb1z?_",
        "8'hé",
        "12é",
        "1²'b1",
        "²",
        "½",
        "é_$x",
        "ab→",
        "$é",
        "$",
        "$ x",
        "\\esc\u00a0x y",
        "\\",
        '"a\\\nb" c',
        '"a\\',
        '"a\nb"',
        "/* a\n b */ x",
        "/* open",
        "/*/ x",
        "a//c\n`define X 1\nb",
        "x\f",
        "a\r\nb",
        "|=>|->===<<<",
        "a ",
        "a\n\n  ",
    ],
)
def test_edge_cases_lex_identically(text):
    assert lex_outcome(tokenize, text) == lex_outcome(oracle_tokenize, text)


def test_compile_results_match_with_oracle_tokens(
    grid_sources, augmented_sources, pipeline_sources, corrupted_sources
):
    """``render()`` and the design's canonical text do not depend on the lexer."""
    from design_canon import design_canonical_text
    from repro.hdl.lint import compile_source

    def compiled(text: str):
        result = compile_source(text)
        return result.render(), design_canonical_text(result.design)

    texts = list(dict.fromkeys(
        grid_sources + augmented_sources + pipeline_sources + corrupted_sources
    ))
    expected = [compiled(text) for text in texts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_module, "tokenize", oracle_tokenize)
        actual = [compiled(text) for text in texts]
    assert [text for text, a, b in zip(texts, expected, actual) if a != b] == []

"""A Verilog-aware tokenizer for the language-model components.

The pretraining stage treats every Verilog-PT entry as a token sequence; this
tokenizer produces those sequences.  It splits source text (and the natural
language around it) into identifiers, numbers, operators and punctuation,
normalising numeric literals so the n-gram model generalises across constant
values.
"""

from __future__ import annotations

import re

_TOKEN_PATTERN = re.compile(
    r"\d+'[bdhoBDHO][0-9a-fA-F_xXzZ?]+"  # based literals
    r"|[A-Za-z_][A-Za-z0-9_$]*"  # identifiers and keywords
    r"|\d+"  # plain numbers
    r"|\|->|\|=>|<=|>=|==|!=|&&|\|\||<<|>>|##"  # multi-char operators
    r"|[-+*/%&|^~!<>=?:;,.(){}\[\]@#'\"$]"  # single characters
)

#: token emitted in place of any numeric literal (improves n-gram generalisation).
NUMBER_TOKEN = "<num>"

#: tokens bounding a line when scoring lines individually.
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"


def tokenize_text(text: str, normalise_numbers: bool = True) -> list[str]:
    """Tokenize Verilog (or mixed Verilog/English) text."""
    tokens: list[str] = []
    for match in _TOKEN_PATTERN.finditer(text):
        token = match.group(0)
        if normalise_numbers and (token[0].isdigit()):
            tokens.append(NUMBER_TOKEN)
        else:
            tokens.append(token)
    return tokens


def tokenize_line(line: str, normalise_numbers: bool = True) -> list[str]:
    """Tokenize one source line, wrapped in sentence boundary markers."""
    return [BOS_TOKEN, *tokenize_text(line, normalise_numbers), EOS_TOKEN]


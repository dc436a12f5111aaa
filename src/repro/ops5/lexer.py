"""Tokenizer for the OPS5 source syntax.

The lexer is one compiled master pattern matched across the source
(``_TOKEN_RE``); each match is one token, comment or whitespace run.
It understands:

* parentheses and braces,
* the arrow ``-->`` separating LHS from RHS,
* CE negation ``-`` (only when it directly precedes ``(``),
* attribute markers ``^attr``,
* variables ``<name>``,
* bar-quoted symbols ``|any text|``,
* comments ``; to end of line``,
* bare atoms, which :func:`repro.ops5.values.coerce_atom` types as
  numbers or symbols.

Positions are tracked so parse errors point at the source.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List

from .errors import LexError
from .values import Value, coerce_atom


class TokenType(enum.Enum):
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LDISJ = "<<"
    RDISJ = ">>"
    ARROW = "-->"
    NEGATION = "-"
    ATTRIBUTE = "^attr"
    VARIABLE = "<var>"
    ATOM = "atom"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    type: TokenType
    text: str
    value: Value
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type.name}({self.text!r})@{self.line}:{self.column}"


#: Atoms that are operators rather than values when seen in test position.
OPERATOR_ATOMS = {"=", "<>", "<", "<=", ">", ">=", "<=>"}


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, returning a list ending with an EOF token.

    Raises
    ------
    LexError
        On unterminated bar-quotes or unterminated variables.
    """
    return list(_scan(source))


#: One bare-atom character: anything but a delimiter or '<' (which
#: only starts operator atoms and variables).
_ATOM_CHAR = r"[^ \t\r\n(){}^;|<]"
#: One variable-name character: no delimiter, and the name ends at the
#: first '>'.
_VAR_CHAR = r"[^ \t\r\n(){}^;|>]"

#: One master pattern, alternatives in the order the scanner tries
#: them at each position.  Every character starts some alternative, so
#: consecutive matches tile the source.
_TOKEN_RE = re.compile("|".join((
    r"(?P<ws>[ \t\r\n]+)",
    r"(?P<comment>;[^\n]*)",
    # '-->' before '-('; '<<' but not '<<=' (that '<' scans below).
    r"(?P<punct>[(){}]|-->|-(?=\()|<<(?!=)|>>)",
    rf"(?P<attr>\^{_ATOM_CHAR}*)",
    r"(?P<op><=>|<[=>])",
    rf"(?P<var><{_VAR_CHAR}+>)",
    r"(?P<lt><)",
    # A doubled bar inside is a literal '|' (see values.format_value);
    # the closing bar is the first one not followed by another.
    r"(?P<quoted>\|(?:[^|]|\|\|)*\|(?!\|))",
    r"(?P<unterminated>\|)",
    rf"(?P<atom>{_ATOM_CHAR}+)",
    r"(?P<bad>[\s\S])",
)))

_PUNCT = {"(": TokenType.LPAREN, ")": TokenType.RPAREN,
          "{": TokenType.LBRACE, "}": TokenType.RBRACE,
          "-->": TokenType.ARROW, "-": TokenType.NEGATION,
          "<<": TokenType.LDISJ, ">>": TokenType.RDISJ}


def _scan(source: str) -> Iterator[Token]:
    line = 1
    line_start = 0  # index of the first character of the current line
    ATOM = TokenType.ATOM
    #: bare atom text -> its value; programs repeat a few symbols often
    atoms: Dict[str, Value] = {}
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        start = m.start()
        if kind == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "atom":
            value = atoms.get(text)
            if value is None:
                value = atoms[text] = coerce_atom(text)
            yield Token(ATOM, text, value, line, col)
        elif kind == "punct":
            yield Token(_PUNCT[text], text, text, line, col)
        elif kind == "attr":
            name = text[1:]
            if not name:
                raise LexError("empty attribute name after '^'", line, col)
            yield Token(TokenType.ATTRIBUTE, text, name, line, col)
        elif kind == "var":
            yield Token(TokenType.VARIABLE, text, text[1:-1], line, col)
        elif kind == "op" or kind == "lt":
            yield Token(ATOM, text, text, line, col)
        elif kind == "quoted":
            value = text[1:-1].replace("||", "|")
            yield Token(ATOM, f"|{value}|", value, line, col)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "unterminated":
            raise LexError("unterminated |quoted symbol|", line, col)
        elif kind == "bad":
            raise LexError(f"unexpected character {text!r}", line, col)
        # comment: skipped

    yield Token(TokenType.EOF, "", "", line, len(source) - line_start + 1)

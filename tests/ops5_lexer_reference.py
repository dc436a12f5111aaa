"""The OPS5 lexer's original per-character scanner, frozen as an oracle.

:mod:`repro.ops5.lexer` tokenizes with one compiled master pattern;
``tests/test_ops5_lexer.py`` holds it to this scanner token for token
(type, text, value, line, column) and error for error.  Do not edit:
it is the definition the production lexer is checked against.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.ops5.errors import LexError
from repro.ops5.lexer import Token, TokenType
from repro.ops5.values import coerce_atom

#: Characters that terminate a bare atom.
_DELIMITERS = set(" \t\r\n(){}^;|")


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* with the frozen scanner."""
    return list(scan(source))


def scan(source: str) -> Iterator[Token]:
    """The per-character scanner, verbatim."""
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == ";":
            while i < n and source[i] != "\n":
                advance()
            continue
        tok_line, tok_col = line, col
        if ch == "(":
            advance()
            yield Token(TokenType.LPAREN, "(", "(", tok_line, tok_col)
            continue
        if ch == ")":
            advance()
            yield Token(TokenType.RPAREN, ")", ")", tok_line, tok_col)
            continue
        if ch == "{":
            advance()
            yield Token(TokenType.LBRACE, "{", "{", tok_line, tok_col)
            continue
        if ch == "}":
            advance()
            yield Token(TokenType.RBRACE, "}", "}", tok_line, tok_col)
            continue
        if source.startswith("-->", i):
            advance(3)
            yield Token(TokenType.ARROW, "-->", "-->", tok_line, tok_col)
            continue
        if ch == "-" and i + 1 < n and source[i + 1] == "(":
            # CE negation; the '(' is produced as its own token next.
            advance()
            yield Token(TokenType.NEGATION, "-", "-", tok_line, tok_col)
            continue
        if ch == "^":
            advance()
            start = i
            while i < n and source[i] not in _DELIMITERS and source[i] != "<":
                advance()
            name = source[start:i]
            if not name:
                raise LexError("empty attribute name after '^'",
                               tok_line, tok_col)
            yield Token(TokenType.ATTRIBUTE, f"^{name}", name,
                        tok_line, tok_col)
            continue
        if source.startswith("<<", i) and not source.startswith("<<=", i):
            advance(2)
            yield Token(TokenType.LDISJ, "<<", "<<", tok_line, tok_col)
            continue
        if source.startswith(">>", i):
            advance(2)
            yield Token(TokenType.RDISJ, ">>", ">>", tok_line, tok_col)
            continue
        if ch == "<":
            # Could be a variable <x>, or one of the operators <, <=, <>, <=>.
            rest = source[i:i + 3]
            if rest.startswith("<=>"):
                advance(3)
                yield Token(TokenType.ATOM, "<=>", "<=>", tok_line, tok_col)
                continue
            if rest.startswith("<=") or rest.startswith("<>"):
                op = rest[:2]
                advance(2)
                yield Token(TokenType.ATOM, op, op, tok_line, tok_col)
                continue
            end = source.find(">", i + 1)
            newline = source.find("\n", i + 1)
            if (end == -1 or (newline != -1 and newline < end)
                    or end == i + 1):
                # A lone '<' operator (e.g. "^size < 5").
                advance()
                yield Token(TokenType.ATOM, "<", "<", tok_line, tok_col)
                continue
            name = source[i + 1:end]
            if any(c in _DELIMITERS for c in name):
                advance()
                yield Token(TokenType.ATOM, "<", "<", tok_line, tok_col)
                continue
            advance(end - i + 1)
            yield Token(TokenType.VARIABLE, f"<{name}>", name,
                        tok_line, tok_col)
            continue
        if ch == "|":
            # Scan to the closing bar; a doubled bar inside is a
            # literal "|" (see values.format_value).
            pieces = []
            j = i + 1
            while True:
                end = source.find("|", j)
                if end == -1:
                    raise LexError("unterminated |quoted symbol|",
                                   tok_line, tok_col)
                pieces.append(source[j:end])
                if end + 1 < n and source[end + 1] == "|":
                    pieces.append("|")
                    j = end + 2
                    continue
                break
            text = "".join(pieces)
            advance(end - i + 1)
            yield Token(TokenType.ATOM, f"|{text}|", text, tok_line,
                        tok_col)
            continue
        # Bare atom.
        start = i
        while i < n and source[i] not in _DELIMITERS and source[i] != "<":
            # Allow '<' inside atoms only for operator atoms handled above,
            # so stop at it here.
            advance()
        text = source[start:i]
        if not text:
            raise LexError(f"unexpected character {ch!r}", tok_line, tok_col)
        yield Token(TokenType.ATOM, text, coerce_atom(text),
                    tok_line, tok_col)

    yield Token(TokenType.EOF, "", "", line, col)

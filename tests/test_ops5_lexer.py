"""Unit tests for the OPS5 lexer."""

import ast
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops5.errors import LexError
from repro.ops5.lexer import Token, TokenType, tokenize
from repro.workloads import programs
from repro.workloads.match import MATCH_PROGRAMS

from tests import ops5_lexer_reference

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def types(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_parens(self):
        assert types("()") == [TokenType.LPAREN, TokenType.RPAREN]

    def test_braces(self):
        assert types("{}") == [TokenType.LBRACE, TokenType.RBRACE]

    def test_arrow(self):
        assert types("-->") == [TokenType.ARROW]

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF

    def test_attribute(self):
        toks = tokenize("^color")
        assert toks[0].type is TokenType.ATTRIBUTE
        assert toks[0].value == "color"

    def test_variable(self):
        toks = tokenize("<x>")
        assert toks[0].type is TokenType.VARIABLE
        assert toks[0].value == "x"

    def test_symbol_atom(self):
        assert values("blue") == ["blue"]

    def test_integer_atom(self):
        assert values("42") == [42]

    def test_negative_integer_atom(self):
        assert values("-42") == [-42]

    def test_float_atom(self):
        assert values("2.5") == [2.5]


class TestNegationVsMinus:
    def test_negation_before_paren(self):
        assert types("-(hand)") == [TokenType.NEGATION, TokenType.LPAREN,
                                    TokenType.ATOM, TokenType.RPAREN]

    def test_minus_number_not_negation(self):
        toks = tokenize("-5")
        assert toks[0].type is TokenType.ATOM
        assert toks[0].value == -5

    def test_arrow_not_split(self):
        # "-->" must not tokenize as NEGATION + something.
        assert types("--> x") == [TokenType.ARROW, TokenType.ATOM]


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">=", "<=>"])
    def test_operator_atoms(self, op):
        toks = tokenize(op)
        assert toks[0].type is TokenType.ATOM
        assert toks[0].value == op

    def test_less_than_followed_by_number(self):
        assert values("< 5") == ["<", 5]

    def test_le_vs_variable(self):
        # "<= 5" is the operator; "<x> 5" is a variable then a number.
        assert values("<= 5") == ["<=", 5]
        toks = tokenize("<x> 5")
        assert toks[0].type is TokenType.VARIABLE


class TestQuotingAndComments:
    def test_bar_quoted_symbol(self):
        toks = tokenize("|two words|")
        assert toks[0].type is TokenType.ATOM
        assert toks[0].value == "two words"

    def test_bar_quoted_preserves_specials(self):
        assert tokenize("|a(b)c|")[0].value == "a(b)c"

    def test_unterminated_bar_raises(self):
        with pytest.raises(LexError):
            tokenize("|oops")

    def test_doubled_bar_is_literal_bar(self):
        assert tokenize("|a||b|")[0].value == "a|b"

    def test_bar_only_symbol(self):
        assert tokenize("||||")[0].value == "|"

    def test_unterminated_after_doubled_bar_raises(self):
        with pytest.raises(LexError):
            tokenize("|a||")

    def test_comment_to_end_of_line(self):
        assert values("a ; comment (ignored)\nb") == ["a", "b"]

    def test_empty_attribute_raises(self):
        with pytest.raises(LexError):
            tokenize("^ foo")


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_variable_across_newline_is_operator(self):
        # "<" at end of line with no ">" before the newline is the
        # less-than operator, not a malformed variable.
        toks = tokenize("< \n x>")
        assert toks[0].type is TokenType.ATOM
        assert toks[0].value == "<"


class TestRealisticProduction:
    def test_full_production_token_stream(self):
        source = """
        (p clear-the-blue-block
          (block ^name <b2> ^color blue)
          -(hand ^state busy)
          -->
          (remove 2))
        """
        toks = tokenize(source)
        ttypes = [t.type for t in toks]
        assert TokenType.NEGATION in ttypes
        assert TokenType.ARROW in ttypes
        assert ttypes[-1] is TokenType.EOF
        variables = [t.value for t in toks if t.type is TokenType.VARIABLE]
        assert variables == ["b2"]


# -- the master pattern against the frozen per-character scanner -------------

def _outcome(lex, source):
    """Every token as a field tuple, or the error with its position."""
    try:
        return [(t.type, t.text, type(t.value), repr(t.value), t.line,
                 t.column) for t in lex(source)]
    except LexError as err:
        return ("LexError", str(err), err.line, err.column)


def _assert_same(source):
    assert _outcome(tokenize, source) \
        == _outcome(ops5_lexer_reference.tokenize, source)


def _example_sources():
    """Each example script's text, and every OPS5 program it embeds."""
    for path in sorted(EXAMPLES.glob("*.py")):
        text = path.read_text()
        yield path.name, text
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                if "(p " in node.value or "literalize" in node.value:
                    yield f"{path.name}:{node.lineno}", node.value


#: Characters that steer the scanner, weighted into generated sources.
_LEXICAL = list("()(){}^^<<>>||;;--= \t\r\n\n") + list("ab1.5e+x")


class TestAgainstFrozenScanner:
    @pytest.mark.parametrize("name", sorted(MATCH_PROGRAMS))
    @pytest.mark.parametrize("seed", range(4))
    def test_match_programs(self, name, seed):
        _assert_same(MATCH_PROGRAMS[name](seed))

    def test_examples(self):
        sources = list(_example_sources())
        assert len(sources) > len(list(EXAMPLES.glob("*.py")))
        for _, source in sources:
            _assert_same(source)

    def test_bundled_programs(self):
        for source in (programs.BLOCKS_WORLD, programs.MONKEY_AND_BANANAS,
                       programs.GRID_ROUTER):
            _assert_same(source)

    @pytest.mark.parametrize("source", [
        "", "^", "^ x", "^<x>", "|", "|a", "||", "|||", "||||", "|a||",
        "|a|||", "|a\nb|c", "<", "<>", "<=", "<=>", "<<", "<<=", "<<=x>",
        "<a<b>", "<a b>", "<a\nb>", "< \n x>", ">>", ">>=", ">>>", "-->",
        "--->", "-(", "- (", "a-->b", "x;c\n y", ";only", "\r\n\t(a)",
        "1.5e3 -7 +2 .5", "(p a (b ^c <d>) --> (make e ^f |g h|))",
    ])
    def test_edge_cases(self, source):
        _assert_same(source)

    @given(st.text(alphabet=st.sampled_from(_LEXICAL), max_size=60))
    def test_generated_lexical_soup(self, source):
        _assert_same(source)

    @given(st.text(max_size=40))
    def test_generated_unicode(self, source):
        _assert_same(source)

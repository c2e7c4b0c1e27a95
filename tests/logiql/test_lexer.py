"""Tokenizer tests."""

import pytest

from repro.logiql.lexer import ParseError, Token, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestBasics:
    def test_idents_and_punct(self):
        assert kinds("foo(x, y).") == [
            "IDENT", "LPAREN", "IDENT", "COMMA", "IDENT", "RPAREN", "DOT",
        ]

    def test_numbers(self):
        assert values("1 23 4.5 1e3 2.5e-2") == [1, 23, 4.5, 1000.0, 0.025]
        assert [type(v) for v in values("1 1.0")] == [int, float]

    def test_clause_dot_not_decimal(self):
        tokens = values("f(x) = 2.")
        assert tokens[-1] == "."
        assert tokens[-2] == 2

    def test_strings_with_escapes(self):
        assert values('"hello" "a\\"b" "x\\ny"') == ["hello", 'a"b', "x\ny"]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"abc')

    def test_booleans(self):
        tokens = tokenize("true false")
        assert tokens[0].kind == "BOOL" and tokens[0].value is True
        assert tokens[1].value is False

    def test_arrows_and_compounds(self):
        assert kinds("<- -> <= >= != << >> +=") == [
            "LARROW", "RARROW", "LE", "GE", "NE", "LSHIFT", "RSHIFT", "PLUSEQ",
        ]

    def test_namespaced_identifiers(self):
        assert values("lang:solve:variable")[0] == "lang:solve:variable"

    def test_colon_after_number_not_glued(self):
        assert kinds("2.0 : foo") == ["NUMBER", "COLON", "IDENT"]

    def test_comments(self):
        assert kinds("a // comment\n b") == ["IDENT", "IDENT"]
        assert kinds("a /* multi\nline */ b") == ["IDENT", "IDENT"]
        with pytest.raises(ParseError):
            tokenize("/* unterminated")

    def test_delta_and_at(self):
        assert kinds("+R(x) -R(x) ^R(x) R@start(x)")[:3] == [
            "PLUS", "IDENT", "LPAREN",
        ]
        assert "AT" in kinds("R@start(x)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("a # b")
        assert "line 1" in str(excinfo.value)

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    def test_backquote(self):
        assert kinds("`Stock") == ["BACKQUOTE", "IDENT"]

    def test_unicode_identifiers_and_namespaces(self):
        # an identifier runs over every str.isalnum() character
        assert values("café2_ñ(x) lang:ré:max x:1") == [
            "café2_ñ", "(", "x", ")", "lang:ré:max", "x", ":", 1]

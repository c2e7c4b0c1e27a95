"""Tokenizer for LogiQL source text."""

import re


class ParseError(ValueError):
    """Lexical or syntactic error, with position information."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = " at line {}, column {}".format(line, column)
        super().__init__(message + location)
        self.line = line
        self.column = column


class Token:
    """One lexical token."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return "Token({}, {!r})".format(self.kind, self.value)


_PUNCT = [
    ("<<", "LSHIFT"),
    (">>", "RSHIFT"),
    ("<-", "LARROW"),
    ("->", "RARROW"),
    ("<=", "LE"),
    (">=", "GE"),
    ("!=", "NE"),
    ("+=", "PLUSEQ"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("[", "LBRACK"),
    ("]", "RBRACK"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (".", "DOT"),
    ("!", "BANG"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    ("*", "STAR"),
    ("/", "SLASH"),
    ("%", "PERCENT"),
    ("=", "EQ"),
    ("<", "LT"),
    (">", "GT"),
    ("@", "AT"),
    ("`", "BACKQUOTE"),
    ("^", "CARET"),
    ("|", "PIPE"),
    (":", "COLON"),
    (";", "SEMI"),
]


#: the string escapes; any other escaped character stands for itself
ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def unescape(body):
    """A string literal's value, from the text between its quotes."""
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: ESCAPES.get(m.group(1), m.group(1)), body)


_PUNCT_KINDS = dict(_PUNCT)

#: a run of identifier characters: ``\w`` is exactly ``str.isalnum()``
#: or ``_``
_IDENT_CHARS = re.compile(r"\w*")


def _is_ident_start(ch):
    return ch.isalpha() or ch == "_"


def tokenize(text):
    """Tokenize LogiQL source into a list of :class:`Token`.

    Identifiers may contain namespace colons (``lang:solve:max``) —
    a colon glues two identifier parts together when it is directly
    surrounded by identifier characters.
    """
    tokens = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0

    def here():
        return line, i - line_start + 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
                i += 1
            if i + 1 >= n:
                raise ParseError("unterminated block comment", *here())
            i += 2
            continue
        if ch == '"':
            l0, c0 = here()
            i += 1
            parts = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    escape = text[i + 1]
                    parts.append(ESCAPES.get(escape, escape))
                    i += 2
                else:
                    if text[i] == "\n":
                        line += 1
                        line_start = i + 1
                    parts.append(text[i])
                    i += 1
            if i >= n:
                raise ParseError("unterminated string literal", l0, c0)
            i += 1
            tokens.append(Token("STRING", "".join(parts), l0, c0))
            continue
        if ch.isdigit():
            l0, c0 = here()
            start = i
            while i < n and text[i].isdigit():
                i += 1
            is_float = False
            if i + 1 < n and text[i] == "." and text[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                peek = i + 1
                if peek < n and text[peek] in "+-":
                    peek += 1
                if peek < n and text[peek].isdigit():
                    is_float = True
                    i = peek
                    while i < n and text[i].isdigit():
                        i += 1
            raw = text[start:i]
            value = float(raw) if is_float else int(raw)
            tokens.append(Token("NUMBER", value, l0, c0))
            continue
        if _is_ident_start(ch):
            l0, c0 = here()
            start = i
            i = _IDENT_CHARS.match(text, i).end()
            # namespace colons: ident ':' ident glue (lang:solve:max)
            while (
                i + 1 < n
                and text[i] == ":"
                and _is_ident_start(text[i + 1])
            ):
                i = _IDENT_CHARS.match(text, i + 1).end()
            name = text[start:i]
            if name == "true":
                tokens.append(Token("BOOL", True, l0, c0))
            elif name == "false":
                tokens.append(Token("BOOL", False, l0, c0))
            else:
                tokens.append(Token("IDENT", name, l0, c0))
            continue
        # longest first: a two-character punctuator, else one character
        punct = text[i:i + 2]
        kind = _PUNCT_KINDS.get(punct)
        if kind is None:
            punct = ch
            kind = _PUNCT_KINDS.get(ch)
        if kind is None:
            raise ParseError("unexpected character {!r}".format(ch), *here())
        tokens.append(Token(kind, punct, line, i - line_start + 1))
        i += len(punct)
    tokens.append(Token("EOF", None, line, i - line_start + 1))
    return tokens

"""Recursive-descent parser for LogiQL (paper §2.2).

Supported surface syntax:

* derivation rules ``Head <- Body.`` including facts (``Head <- .`` or
  ``Head.``), aggregation P2P rules ``Head <- agg<<u = sum(z)>> Body.``
  and the ``F[] += expr`` sum sugar, predict P2P rules
  (``... <- predict m = logist(v|f) Body.``);
* integrity constraints ``F -> G.`` including type declarations and
  entity declarations (``Product(p) -> .``), and soft constraints with
  a numeric weight prefix (``2.0 : F -> G.``);
* reactive rules over delta and versioned predicates
  (``+R``, ``-R``, ``^R``, ``R@start``);
* directives such as ``lang:solve:variable(`Stock).``;
* arithmetic terms, functional applications as terms
  (``sellingPrice[sku] - buyingPrice[sku]``), built-in scalar calls,
  and distribution terms (``Flip[0.01]``).
"""

from repro.logiql import ast
from repro.logiql.lexer import ParseError, tokenize

_PRIMITIVE_TYPES = {"int", "float", "decimal", "string", "boolean", "date"}
_BUILTIN_FNS = {
    "abs", "min", "max", "floor", "ceil", "sqrt", "exp", "log", "pow",
    "float", "int",
}
_AGG_FNS = {"sum", "count", "min", "max", "avg"}
_COMPARE_OPS = {"EQ": "=", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset=0):
        try:
            return self.tokens[self.position + offset]
        except IndexError:  # past the end: the EOF token
            return self.tokens[-1]

    def advance(self):
        token = self.tokens[self.position]
        if token.kind != "EOF":
            self.position += 1
        return token

    def check(self, kind, value=None):
        token = self.tokens[self.position]  # never past EOF
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind, value=None):
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind, what=None):
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                "expected {} but found {!r}".format(what or kind, token.value),
                token.line,
                token.column,
            )
        return self.advance()

    def error(self, message):
        token = self.peek()
        raise ParseError(message, token.line, token.column)

    # -- program ----------------------------------------------------------

    def parse_program(self):
        clauses = []
        while not self.check("EOF"):
            clauses.append(self.parse_clause())
        return ast.Program(clauses)

    def parse_clause(self):
        weight = None
        if self.check("NUMBER") and self.peek(1).kind == "COLON":
            weight = self.advance().value
            self.advance()  # colon
        elif (
            self.check("MINUS")
            and self.peek(1).kind == "NUMBER"
            and self.peek(2).kind == "COLON"
        ):
            self.advance()
            weight = -self.advance().value
            self.advance()  # colon

        # += sugar: F[keys] += expr.
        sugar = self._try_plus_equals()
        if sugar is not None:
            return sugar

        lhs = self.parse_atom_list(stop_kinds=("RARROW", "LARROW", "DOT"))
        if self.accept("RARROW"):
            if self.accept("DOT"):
                return ast.ConstraintClause(lhs, (), weight)
            rhs = self.parse_atom_list(stop_kinds=("DOT",))
            self.expect("DOT", "'.' at end of constraint")
            return ast.ConstraintClause(lhs, rhs, weight)
        if self.accept("LARROW"):
            if weight is not None:
                self.error("weights are only allowed on constraints")
            if len(lhs) != 1:
                self.error("rule head must be a single atom")
            head = lhs[0]
            agg = self._try_agg_clause()
            predict = self._try_predict_clause() if agg is None else None
            if self.accept("DOT"):
                return ast.RuleClause(head, (), agg, predict)
            body = self.parse_atom_list(stop_kinds=("DOT",))
            self.expect("DOT", "'.' at end of rule")
            return ast.RuleClause(head, body, agg, predict)
        self.expect("DOT", "'.', '<-' or '->' after clause")
        if weight is not None:
            self.error("weights are only allowed on constraints")
        if len(lhs) == 1 and isinstance(lhs[0], ast.RelAtom) and ":" in lhs[0].pred:
            atom = lhs[0]
            return ast.DirectiveClause(atom.pred, atom.terms)
        if len(lhs) != 1:
            self.error("a fact must be a single atom")
        return ast.RuleClause(lhs[0], ())

    def _try_plus_equals(self):
        """``F[keys] += expr.`` is sugar for a sum-aggregation rule."""
        start = self.position
        if not self.check("IDENT"):
            return None
        name = self.advance().value
        if not self.accept("LBRACK"):
            self.position = start
            return None
        keys = []
        if not self.check("RBRACK"):
            keys.append(self.parse_term())
            while self.accept("COMMA"):
                keys.append(self.parse_term())
        if not self.accept("RBRACK") or not self.accept("PLUSEQ"):
            self.position = start
            return None
        value = self.parse_term()
        body = []
        if self.accept("COMMA"):
            body = list(self.parse_atom_list(stop_kinds=("DOT",)))
        self.expect("DOT", "'.' at end of rule")
        result = ast.VarT("$agg")
        head = ast.FuncAtom(name, keys, result)
        agg = ast.AggClause("$agg", "sum", value)
        return ast.RuleClause(head, body, agg)

    def _try_agg_clause(self):
        if not (self.check("IDENT", "agg") and self.peek(1).kind == "LSHIFT"):
            return None
        self.advance()
        self.advance()
        result = self.expect("IDENT", "aggregation result variable").value
        self.expect("EQ")
        fn = self.expect("IDENT", "aggregation function").value
        if fn not in _AGG_FNS:
            self.error("unknown aggregation function {!r}".format(fn))
        self.expect("LPAREN")
        value = self.parse_term()
        self.expect("RPAREN")
        self.expect("RSHIFT", "'>>' closing aggregation")
        return ast.AggClause(result, fn, value)

    def _try_predict_clause(self):
        if not self.check("IDENT", "predict"):
            return None
        if self.peek(1).kind != "IDENT":
            return None
        self.advance()
        result = self.expect("IDENT", "predict result variable").value
        self.expect("EQ")
        fn = self.expect("IDENT", "predict function").value
        self.expect("LPAREN")
        target = self.parse_term()
        self.expect("PIPE", "'|' inside predict(...)")
        feature = self.parse_term()
        self.expect("RPAREN")
        return ast.PredictClause(result, fn, target, feature)

    # -- atoms --------------------------------------------------------------

    def parse_atom_list(self, stop_kinds):
        atoms = [self.parse_atom()]
        while self.accept("COMMA"):
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_atom(self):
        negated = bool(self.accept("BANG"))
        delta = None
        if self.peek().kind in ("PLUS", "MINUS", "CARET"):
            nxt = self.peek(1)
            after = self.peek(2)
            if nxt.kind == "IDENT" and after.kind in ("LPAREN", "LBRACK", "AT"):
                delta = {"PLUS": "+", "MINUS": "-", "CARET": "^"}[self.advance().kind]
        left = self.parse_term()
        op_kind = self.peek().kind
        if op_kind in _COMPARE_OPS:
            op = _COMPARE_OPS[op_kind]
            self.advance()
            right = self.parse_term()
            if op == "=" and isinstance(left, ast.FuncTerm):
                return ast.FuncAtom(
                    left.pred, left.keys, right, negated, delta, left.at_start
                )
            if op == "=" and isinstance(right, ast.FuncTerm) and isinstance(
                left, (ast.VarT, ast.NumT, ast.StrT, ast.BoolT)
            ) and delta is None and not negated:
                # x = price[s] reads more naturally flipped
                return ast.FuncAtom(
                    right.pred, right.keys, left, False, None, right.at_start
                )
            if negated or delta:
                self.error("comparisons cannot be negated or delta-marked")
            return ast.Comparison(op, left, right)
        # not a comparison: must be a relational atom or a type atom
        atom = self._term_to_atom(left, negated, delta)
        if atom is None:
            self.error("expected an atom")
        return atom

    def _term_to_atom(self, term, negated, delta):
        if isinstance(term, ast.CallT):
            if term.fn in _PRIMITIVE_TYPES and len(term.args) == 1:
                if negated or delta:
                    self.error("type atoms cannot be negated or delta-marked")
                return ast.TypeAtom(term.fn, term.args[0])
            return ast.RelAtom(term.fn, term.args, negated, delta)
        if isinstance(term, ast.FuncTerm):
            # R[keys] with no value: existence atom R[keys] = _
            return ast.FuncAtom(
                term.pred, term.keys, ast.Wildcard(), negated, delta, term.at_start
            )
        if isinstance(term, ast._RelTermAtom):
            return ast.RelAtom(term.pred, term.terms, negated, delta, term.at_start)
        return None

    # -- terms --------------------------------------------------------------

    def parse_term(self):
        return self._parse_additive()

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = "+" if self.advance().kind == "PLUS" else "-"
            right = self._parse_multiplicative()
            left = ast.Arith(op, left, right)
        return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while self.peek().kind in ("STAR", "SLASH", "PERCENT"):
            kind = self.advance().kind
            op = {"STAR": "*", "SLASH": "/", "PERCENT": "%"}[kind]
            right = self._parse_unary()
            left = ast.Arith(op, left, right)
        return left

    def _parse_unary(self):
        if self.accept("MINUS"):
            inner = self._parse_unary()
            if isinstance(inner, ast.NumT):
                return ast.NumT(-inner.value)
            return ast.Arith("-", ast.NumT(0), inner)
        return self._parse_primary()

    def _parse_primary(self):
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return ast.NumT(token.value)
        if token.kind == "STRING":
            self.advance()
            return ast.StrT(token.value)
        if token.kind == "BOOL":
            self.advance()
            return ast.BoolT(token.value)
        if token.kind == "BACKQUOTE":
            self.advance()
            name = self.expect("IDENT", "predicate name after backquote").value
            return ast.PredRef(name)
        if self.accept("LPAREN"):
            inner = self.parse_term()
            self.expect("RPAREN")
            return inner
        if token.kind == "IDENT":
            return self._parse_ident_term()
        self.error("expected a term")

    def _parse_ident_term(self):
        name = self.advance().value
        at_start = False
        if self.check("AT"):
            if self.peek(1).kind == "IDENT" and self.peek(1).value == "start":
                self.advance()
                self.advance()
                at_start = True
            else:
                self.error("expected @start")
        if name == "Flip" and self.check("LBRACK"):
            self.advance()
            param = self.parse_term()
            self.expect("RBRACK")
            return ast.FlipT(param)
        if self.accept("LBRACK"):
            # float[64](v) style sized type atom
            if (
                name in _PRIMITIVE_TYPES
                and self.check("NUMBER")
                and self.peek(1).kind == "RBRACK"
            ):
                self.advance()
                self.advance()
                self.expect("LPAREN")
                inner = self.parse_term()
                self.expect("RPAREN")
                return ast.CallT(name, [inner])
            keys = []
            if not self.check("RBRACK"):
                keys.append(self.parse_term())
                while self.accept("COMMA"):
                    keys.append(self.parse_term())
            self.expect("RBRACK")
            return ast.FuncTerm(name, keys, at_start)
        if self.accept("LPAREN"):
            args = []
            if not self.check("RPAREN"):
                args.append(self.parse_term())
                while self.accept("COMMA"):
                    args.append(self.parse_term())
            self.expect("RPAREN")
            if at_start:
                return ast._RelTermAtom(name, tuple(args), True)
            if name in _BUILTIN_FNS and name not in _PRIMITIVE_TYPES:
                return ast.CallT(name, args)
            if name in _PRIMITIVE_TYPES:
                return ast.CallT(name, args)
            return ast._RelTermAtom(name, tuple(args), False)
        if at_start:
            self.error("@start requires a predicate application")
        if name == "_":
            return ast.Wildcard()
        return ast.VarT(name)


def parse_program(text):
    """Parse LogiQL source into an :class:`ast.Program`."""
    return _Parser(tokenize(text)).parse_program()


def parse_clause(text):
    """Parse a single clause."""
    parser = _Parser(tokenize(text))
    clause = parser.parse_clause()
    if not parser.check("EOF"):
        parser.error("trailing input after clause")
    return clause

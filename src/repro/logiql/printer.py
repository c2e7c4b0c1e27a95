"""AST → LogiQL source: the inverse of :mod:`repro.logiql.parser`.

``parse_program(unparse(program)) == program`` for every program the
parser can produce.  Programs are rewritten as ASTs (the shard
coordinator splits an ``avg`` rule into its ``sum`` / ``count``
partial-state rules and builds per-shard selection queries) and travel
to other processes as text over the ordinary ``query`` verb, so the
printer is what keeps a rewrite from needing a wire change.
"""

from repro.logiql import ast

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _string(value):
    return '"{}"'.format("".join(_ESCAPES.get(ch, ch) for ch in value))


def _terms(terms):
    return ", ".join(_term(t) for t in terms)


def _term(node):
    if isinstance(node, ast.VarT):
        return node.name
    if isinstance(node, ast.Wildcard):
        return "_"
    if isinstance(node, ast.NumT):
        return repr(node.value)
    if isinstance(node, ast.StrT):
        return _string(node.value)
    if isinstance(node, ast.BoolT):
        return "true" if node.value else "false"
    if isinstance(node, ast.Arith):
        return "({} {} {})".format(_term(node.left), node.op, _term(node.right))
    if isinstance(node, ast.FuncTerm):
        return "{}{}[{}]".format(
            node.pred, "@start" if node.at_start else "", _terms(node.keys))
    if isinstance(node, ast.CallT):
        return "{}({})".format(node.fn, _terms(node.args))
    if isinstance(node, ast.FlipT):
        return "Flip[{}]".format(_term(node.param))
    if isinstance(node, ast.PredRef):
        return "`" + node.name
    if isinstance(node, ast._RelTermAtom):
        return "{}{}({})".format(
            node.pred, "@start" if node.at_start else "", _terms(node.terms))
    raise TypeError("not a LogiQL term: {!r}".format(node))


def _atom(node):
    if isinstance(node, (ast.RelAtom, ast.FuncAtom)):
        prefix = ("!" if node.negated else "") + (node.delta or "")
        name = prefix + node.pred + ("@start" if node.at_start else "")
        if isinstance(node, ast.RelAtom):
            return "{}({})".format(name, _terms(node.terms))
        return "{}[{}] = {}".format(name, _terms(node.keys), _term(node.value))
    if isinstance(node, ast.Comparison):
        return "{} {} {}".format(_term(node.left), node.op, _term(node.right))
    if isinstance(node, ast.TypeAtom):
        return "{}({})".format(node.type_name, _term(node.term))
    raise TypeError("not a LogiQL atom: {!r}".format(node))


def _atoms(atoms):
    return ", ".join(_atom(a) for a in atoms)


def _rule(clause):
    agg = clause.agg
    if agg is not None and agg.result_var.startswith("$"):
        # the ``F[k] += expr`` sugar: its result variable has no
        # surface spelling, so it prints back as the sugar
        head = "{}[{}] += {}".format(
            clause.head.pred, _terms(clause.head.keys), _term(agg.value))
        return ", ".join([head] + [_atom(a) for a in clause.body]) + "."
    parts = [_atom(clause.head), "<-"]
    if agg is not None:
        parts.append("agg<<{} = {}({})>>".format(
            agg.result_var, agg.fn, _term(agg.value)))
    if clause.predict is not None:
        predict = clause.predict
        parts.append("predict {} = {}({}|{})".format(
            predict.result_var, predict.fn, _term(predict.target),
            _term(predict.feature)))
    if clause.body:
        parts.append(_atoms(clause.body))
    return " ".join(parts) + "."


def _clause(clause):
    if isinstance(clause, ast.RuleClause):
        return _rule(clause)
    if isinstance(clause, ast.ConstraintClause):
        weight = "" if clause.weight is None else "{!r} : ".format(clause.weight)
        rhs = " " + _atoms(clause.rhs) if clause.rhs else " "
        return "{}{} ->{}.".format(weight, _atoms(clause.lhs), rhs)
    if isinstance(clause, ast.DirectiveClause):
        return "{}({}).".format(clause.name, _terms(clause.args))
    raise TypeError("not a LogiQL clause: {!r}".format(clause))


def unparse(node):
    """LogiQL source text of a :class:`~repro.logiql.ast.Program` or of
    a single clause."""
    if isinstance(node, ast.Program):
        return "\n".join(_clause(c) for c in node.clauses)
    return _clause(node)

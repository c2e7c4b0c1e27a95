"""Body IR: the engine-level representation of rule bodies.

The LogiQL compiler lowers parsed rules into this small algebra; the
planner and LFTJ executor consume it.  A rule body is a conjunction of:

* :class:`PredAtom` — (possibly negated) predicate atoms over variables
  and constants;
* :class:`CompareAtom` — comparisons between scalar expressions,
  applied as filters once their variables are bound;
* :class:`AssignAtom` — functional bindings ``var := expr`` evaluated
  as singleton iterators at the variable's level (the paper's virtual
  arithmetic predicates).

A rule compiled for a cached query shape (:mod:`repro.logiql.shapes`)
holds :class:`Param` where the text had a literal; each call binds the
values (:func:`bind`, :meth:`Const.value_in`).
"""

import math
import operator


class Var:
    """A variable reference inside an expression."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return self.name


class Const:
    """A literal constant inside an expression."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value and type(other.value) is type(self.value)

    def __hash__(self):
        return hash(("const", self.value))

    def __repr__(self):
        return repr(self.value)

    def value_in(self, params):
        """The constant's value under a call's shape parameters."""
        return self.value


class Param(Const):
    """The ``index``-th literal of a cached query shape: a constant
    whose value each call supplies.  ``negated`` is a literal under
    unary minus (``-1`` parses as the negation of ``1``).  Reading
    :attr:`value` is an error — a plan, projector or router must bind
    it with :meth:`value_in`."""

    __slots__ = ("index", "negated")

    def __init__(self, index, negated=False):
        self.index = index
        self.negated = negated

    @property
    def value(self):
        raise TypeError("unbound shape parameter {!r}".format(self))

    def value_in(self, params):
        value = params[self.index]
        return -value if self.negated else value

    def __neg__(self):
        return Param(self.index, not self.negated)

    def __eq__(self, other):
        return (isinstance(other, Param) and other.index == self.index
                and other.negated == self.negated)

    def __hash__(self):
        return hash(("param", self.index, self.negated))

    def __repr__(self):
        return "{}?{}".format("-" if self.negated else "", self.index)


_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_BUILTINS = {
    "abs": abs,
    "min": min,
    "max": max,
    "floor": math.floor,
    "ceil": math.ceil,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "pow": pow,
    "float": float,
    "int": int,
}


class BinOp:
    """A binary arithmetic expression."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _BINOPS:
            raise ValueError("unknown operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (
            isinstance(other, BinOp)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("binop", self.op, self.left, self.right))

    def __repr__(self):
        return "({} {} {})".format(self.left, self.op, self.right)


class Call:
    """A call to a built-in scalar function."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        if fn not in _BUILTINS:
            raise ValueError("unknown builtin {!r}".format(fn))
        self.fn = fn
        self.args = tuple(args)

    def __eq__(self, other):
        return isinstance(other, Call) and other.fn == self.fn and other.args == self.args

    def __hash__(self):
        return hash(("call", self.fn, self.args))

    def __repr__(self):
        return "{}({})".format(self.fn, ", ".join(map(repr, self.args)))


def eval_expr(expr, bindings):
    """Evaluate an expression under a ``{var_name: value}`` mapping."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return bindings[expr.name]
    if isinstance(expr, BinOp):
        return _BINOPS[expr.op](eval_expr(expr.left, bindings), eval_expr(expr.right, bindings))
    if isinstance(expr, Call):
        return _BUILTINS[expr.fn](*(eval_expr(a, bindings) for a in expr.args))
    raise TypeError("not an expression: {!r}".format(expr))


def expr_vars(expr):
    """The set of variable names occurring in an expression."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, BinOp):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, Call):
        names = set()
        for arg in expr.args:
            names |= expr_vars(arg)
        return names
    raise TypeError("not an expression: {!r}".format(expr))


class PredAtom:
    """A (possibly negated) predicate atom; args are ``Var``/``Const``."""

    __slots__ = ("pred", "args", "negated")

    def __init__(self, pred, args, negated=False):
        self.pred = pred
        self.args = tuple(args)
        self.negated = negated

    @property
    def arity(self):
        """Number of arguments."""
        return len(self.args)

    def var_names(self):
        """Ordered, deduplicated variable names of the atom."""
        names = []
        for arg in self.args:
            if isinstance(arg, Var) and arg.name not in names:
                names.append(arg.name)
        return names

    def __repr__(self):
        body = "{}({})".format(self.pred, ", ".join(map(repr, self.args)))
        return "!" + body if self.negated else body


_COMPARE_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class CompareAtom:
    """A comparison filter between two scalar expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _COMPARE_OPS:
            raise ValueError("unknown comparison {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def holds(self, bindings):
        """Evaluate the comparison under bound variables."""
        return _COMPARE_OPS[self.op](
            eval_expr(self.left, bindings), eval_expr(self.right, bindings)
        )

    def check(self):
        """:meth:`holds` as a closure, reading a variable compared with a
        variable or a constant directly."""
        if type(self) is CompareAtom and type(self.left) is Var and type(self.right) in (Var, Const):
            op, name, right = _COMPARE_OPS[self.op], self.left.name, self.right
            if type(right) is Var:
                return lambda bindings, other=right.name: op(bindings[name], bindings[other])
            return lambda bindings, value=right.value: op(bindings[name], value)
        return self.holds

    def var_names(self):
        """All variable names on either side."""
        return expr_vars(self.left) | expr_vars(self.right)

    def __repr__(self):
        return "({} {} {})".format(self.left, self.op, self.right)


class AssignAtom:
    """A functional binding ``var := expr`` (arithmetic, built-ins)."""

    __slots__ = ("var", "expr")

    def __init__(self, var, expr):
        self.var = var
        self.expr = expr

    def compute(self, bindings):
        """The value for ``var`` under bound variables."""
        return eval_expr(self.expr, bindings)

    def input_vars(self):
        """Variables the expression depends on."""
        return expr_vars(self.expr)

    def __repr__(self):
        return "{} := {}".format(self.var, self.expr)


def bind(node, params):
    """``node`` (an expression or a body atom) with every :class:`Param`
    replaced by a :class:`Const` of its value in ``params``; the node
    itself when it holds none."""
    if isinstance(node, Param):
        return Const(node.value_in(params))
    if isinstance(node, (Var, Const)):
        return node
    if isinstance(node, PredAtom):
        args = [bind(arg, params) for arg in node.args]
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return PredAtom(node.pred, args, node.negated)
    if isinstance(node, BinOp):
        left, right = bind(node.left, params), bind(node.right, params)
        if left is node.left and right is node.right:
            return node
        return BinOp(node.op, left, right)
    if isinstance(node, Call):
        args = [bind(arg, params) for arg in node.args]
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return Call(node.fn, args)
    if type(node) is CompareAtom:  # a subclass carries its own operands
        left, right = bind(node.left, params), bind(node.right, params)
        if left is node.left and right is node.right:
            return node
        return CompareAtom(node.op, left, right)
    if isinstance(node, AssignAtom):
        expr = bind(node.expr, params)
        return node if expr is node.expr else AssignAtom(node.var, expr)
    return node

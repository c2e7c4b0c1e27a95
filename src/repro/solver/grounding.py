"""Grounding LogiQL programs into linear programs (paper §2.3.1).

The translation follows the paper's scheme (after [33]): the integrity
constraints over *variable predicates* (free second-order variables
declared with ``lang:solve:variable``) are grounded by the query
machinery itself — the data part of each constraint body is enumerated
with LFTJ, the symbolic part becomes linear rows over one LP variable
per key tuple of each variable predicate.  Derived predicates that
depend on variable predicates (e.g. a ``sum`` aggregation like
``totalProfit``) are *linearized* into symbolic linear expressions.

Supported symbolic forms (a superset of the paper's running example):

* functional variable predicates whose key types are entity types
  (the key domain is the entity population);
* basic rules whose head value is a linear expression over symbolic
  values and data;
* ``sum`` (and ``count``) aggregations of linear expressions;
* hard constraints whose comparisons are linear in symbolic values.

Nonlinear usage (products of two symbolic values, symbolic comparisons
guarding data joins, min/max over symbolic values) raises
:class:`GroundingError`.
"""

from repro.engine import ir
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.solver.simplex import LinearProgram
from repro.storage.datum import PrimitiveType
from repro.storage.relation import Relation
from repro.storage.schema import EntityType


class GroundingError(ValueError):
    """The program is outside the linearizable fragment (or data is
    inconsistent with a hard constraint)."""


class LinExprS:
    """A symbolic linear expression: constant + Σ coeff · var."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const=0.0, coeffs=None):
        self.const = const
        self.coeffs = coeffs or {}

    @classmethod
    def var(cls, key):
        return cls(0.0, {key: 1.0})

    @property
    def is_constant(self):
        return not self.coeffs

    def __add__(self, other):
        other = _lift(other)
        coeffs = dict(self.coeffs)
        for key, coeff in other.coeffs.items():
            coeffs[key] = coeffs.get(key, 0.0) + coeff
        return LinExprS(self.const + other.const, coeffs)

    def __sub__(self, other):
        return self + (_lift(other) * -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, LinExprS):
            if scalar.is_constant:
                scalar = scalar.const
            elif self.is_constant:
                return scalar * self.const
            else:
                raise GroundingError("product of two symbolic values is nonlinear")
        return LinExprS(
            self.const * scalar, {k: c * scalar for k, c in self.coeffs.items()}
        )

    def __truediv__(self, scalar):
        if isinstance(scalar, LinExprS):
            if not scalar.is_constant:
                raise GroundingError("division by a symbolic value is nonlinear")
            scalar = scalar.const
        return self * (1.0 / scalar)

    def __repr__(self):
        parts = ["{:+g}·{}".format(c, k) for k, c in sorted(self.coeffs.items())]
        return "LinExprS({:+g} {})".format(self.const, " ".join(parts))


def _lift(value):
    if isinstance(value, LinExprS):
        return value
    return LinExprS(float(value))


def _eval_sym(expr, binding, symvals):
    """Evaluate an IR expression where some variables hold LinExprS."""
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.Var):
        if expr.name in symvals:
            return symvals[expr.name]
        return binding[expr.name]
    if isinstance(expr, ir.BinOp):
        left = _eval_sym(expr.left, binding, symvals)
        right = _eval_sym(expr.right, binding, symvals)
        symbolic = isinstance(left, LinExprS) or isinstance(right, LinExprS)
        if not symbolic:
            return _plain_binop(expr.op, left, right)
        left, right = _lift(left), _lift(right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
        raise GroundingError("operator {} is nonlinear over symbolic values".format(expr.op))
    if isinstance(expr, ir.Call):
        args = [_eval_sym(a, binding, symvals) for a in expr.args]
        if any(isinstance(a, LinExprS) for a in args):
            raise GroundingError(
                "builtin {} is nonlinear over symbolic values".format(expr.fn)
            )
        return ir._BUILTINS[expr.fn](*args)
    raise GroundingError("unsupported expression {!r}".format(expr))


def _plain_binop(op, left, right):
    return ir._BINOPS[op](left, right)


class Grounder:
    """Grounds the constraints of one workspace state into an LP."""

    def __init__(self, state, variable_preds, objective_pred, sense):
        self.variable_preds = list(variable_preds)
        self.objective_pred = objective_pred
        self.sense = sense
        self._row_cache = {}  # constraint index -> (rows, read_preds)
        self.refresh(state, changed_preds=None)

    # -- state management ------------------------------------------------------

    def refresh(self, state, changed_preds=None):
        """Point at (possibly updated) state; invalidate affected rows.

        With ``changed_preds`` given, only constraints reading one of
        those predicates are re-grounded — the incremental maintenance
        of the solver input the paper describes.
        """
        self.state = state
        self.artifacts = state.artifacts
        self.relations = state.env_with_defaults()
        self._symbolic = self._symbolic_closure()
        self._lin_cache = {}
        self._domains = None
        if changed_preds is None:
            self._row_cache.clear()
        else:
            changed = set(changed_preds)
            for index in list(self._row_cache):
                rows, read_preds = self._row_cache[index]
                if read_preds & changed:
                    del self._row_cache[index]

    def _symbolic_closure(self):
        symbolic = set(self.variable_preds)
        grew = True
        while grew:
            grew = False
            for rule in self.artifacts.derivation_rules:
                if rule.head_pred in symbolic:
                    continue
                if rule.body_preds() & symbolic:
                    symbolic.add(rule.head_pred)
                    grew = True
        return symbolic

    # -- variable domains -------------------------------------------------------

    def domains(self):
        """Key-tuple domain of every variable predicate."""
        if self._domains is not None:
            return self._domains
        domains = {}
        for pred in self.variable_preds:
            decl = self.artifacts.schema.get(pred)
            if decl is None or not decl.is_functional:
                raise GroundingError(
                    "variable predicate {} needs a functional declaration".format(pred)
                )
            key_types = decl.arg_types[:-1]
            key_sets = []
            for key_type in key_types:
                if not isinstance(key_type, EntityType):
                    raise GroundingError(
                        "variable predicate {} key must be an entity type".format(pred)
                    )
                population = self.relations.get(key_type.name)
                if population is None:
                    raise GroundingError(
                        "entity {} has no population".format(key_type.name)
                    )
                key_sets.append([t[0] for t in population])
            keys = [()]
            for values in key_sets:
                keys = [k + (v,) for k in keys for v in values]
            domains[pred] = sorted(keys)
        self._domains = domains
        return domains

    # -- symbolic references ------------------------------------------------------

    def _ref(self, pred, keys):
        """LinExprS for ``pred[keys]`` (LP variable or linearized view)."""
        if pred in self.variable_preds:
            return LinExprS.var((pred, keys))
        table = self._linearize(pred)
        expr = table.get(keys)
        if expr is None:
            raise GroundingError(
                "{}[{}] has no (symbolic) value".format(pred, keys)
            )
        return expr

    def _split_body(self, body):
        """Partition a body into data atoms vs symbolic atoms/assigns."""
        sym_vars = set()
        data_atoms, sym_atoms, post = [], [], []
        pending = list(body)
        changed = True
        while changed:
            changed = False
            remaining = []
            for atom in pending:
                if isinstance(atom, ir.PredAtom):
                    if atom.pred in self._symbolic:
                        if atom.negated:
                            raise GroundingError(
                                "negation over symbolic predicate {}".format(atom.pred)
                            )
                        sym_atoms.append(atom)
                        value_arg = atom.args[-1]
                        if isinstance(value_arg, ir.Var):
                            sym_vars.add(value_arg.name)
                        changed = True
                    else:
                        data_atoms.append(atom)
                        changed = True
                elif isinstance(atom, ir.AssignAtom):
                    if atom.input_vars() & sym_vars:
                        post.append(atom)
                        sym_vars.add(atom.var)
                        changed = True
                    else:
                        remaining.append(atom)
                elif isinstance(atom, ir.CompareAtom):
                    if atom.var_names() & sym_vars:
                        post.append(atom)
                        changed = True
                    else:
                        remaining.append(atom)
                else:
                    remaining.append(atom)
            pending = remaining
            if not changed and pending:
                data_atoms.extend(pending)
                pending = []
        return data_atoms, sym_atoms, post, sym_vars

    def _enumerate(self, data_atoms, sym_atoms, needed_vars):
        """Bindings of the data part; symbolic keys joined over domains."""
        atoms = list(data_atoms)
        env = dict(self.relations)
        domains = self.domains()
        for index, atom in enumerate(sym_atoms):
            key_args = atom.args[:-1]
            if atom.pred in self.variable_preds:
                if key_args:
                    name = "@domain:{}".format(atom.pred)
                    if name not in env:
                        env[name] = Relation.from_iter(
                            len(key_args), domains[atom.pred]
                        )
                    atoms.append(ir.PredAtom(name, key_args))
            else:
                table = self._linearize(atom.pred)
                name = "@domain:{}".format(atom.pred)
                if name not in env and key_args:
                    env[name] = Relation.from_iter(len(key_args), list(table))
                if key_args:
                    atoms.append(ir.PredAtom(name, key_args))
        if not atoms:
            return [{}], set()
        plan = build_plan(atoms, output_vars=sorted(needed_vars))
        read_preds = {a.pred for a in atoms if isinstance(a, ir.PredAtom)}
        bindings = []
        executor = LeapfrogTrieJoin(plan, env)
        order = plan.var_order
        for values in executor.run():
            bindings.append(dict(zip(order, values)))
        return bindings, read_preds

    def _linearize(self, pred):
        """``{keys: LinExprS}`` for a derived symbolic predicate."""
        cached = self._lin_cache.get(pred)
        if cached is not None:
            return cached
        rules = self.artifacts.ruleset.rules_by_head.get(pred)
        if not rules:
            raise GroundingError("no rules for symbolic predicate {}".format(pred))
        if len(rules) > 1:
            raise GroundingError(
                "symbolic predicate {} must have a single rule".format(pred)
            )
        rule = rules[0]
        data_atoms, sym_atoms, post, sym_vars = self._split_body(rule.body)
        needed = set()
        for atom in sym_atoms:
            needed |= {a.name for a in atom.args[:-1] if isinstance(a, ir.Var)}
        for atom in post:
            if isinstance(atom, ir.AssignAtom):
                needed |= atom.input_vars() - sym_vars
            else:
                needed |= atom.var_names() - sym_vars
        for arg in rule.head_args:
            if isinstance(arg, ir.Var) and arg.name not in sym_vars:
                needed.add(arg.name)
        if rule.agg is not None and rule.agg.value_var not in sym_vars:
            needed.add(rule.agg.value_var)
        bindings, _ = self._enumerate(data_atoms, sym_atoms, needed)
        table = {}
        for binding in bindings:
            symvals = {}
            for atom in sym_atoms:
                keys = tuple(
                    a.value if isinstance(a, ir.Const) else binding[a.name]
                    for a in atom.args[:-1]
                )
                value_arg = atom.args[-1]
                expr = self._ref(atom.pred, keys)
                if isinstance(value_arg, ir.Var):
                    symvals[value_arg.name] = expr
            for atom in post:
                if isinstance(atom, ir.AssignAtom):
                    symvals[atom.var] = _lift(
                        _eval_sym(atom.expr, binding, symvals)
                    )
                else:
                    raise GroundingError(
                        "comparison over symbolic values inside a rule body"
                    )
            if rule.agg is not None:
                if rule.agg.fn not in ("sum", "count"):
                    raise GroundingError(
                        "aggregation {} is nonlinear".format(rule.agg.fn)
                    )
                group = tuple(
                    a.value if isinstance(a, ir.Const) else binding.get(a.name)
                    for a in rule.head_args[:-1]
                )
                if rule.agg.fn == "count":
                    contribution = LinExprS(1.0)
                else:
                    value = rule.agg.value_var
                    contribution = _lift(
                        symvals.get(value, binding.get(value, 0.0))
                    )
                table[group] = table.get(group, LinExprS(0.0)) + contribution
            else:
                keys = tuple(
                    a.value if isinstance(a, ir.Const) else binding.get(a.name)
                    for a in rule.head_args[:-1]
                )
                value_arg = rule.head_args[-1]
                if isinstance(value_arg, ir.Const):
                    value = _lift(value_arg.value)
                elif value_arg.name in symvals:
                    value = symvals[value_arg.name]
                else:
                    value = _lift(binding[value_arg.name])
                if keys in table:
                    raise GroundingError(
                        "symbolic predicate {} not functional over data".format(pred)
                    )
                table[keys] = value
        self._lin_cache[pred] = table
        return table

    # -- constraint grounding --------------------------------------------------------

    def _ground_constraint(self, constraint):
        """Linear rows ``(coeff_map, op, bound)`` for one constraint."""
        lhs_data, lhs_sym, lhs_post, sym_vars = self._split_body(constraint.lhs)
        rhs_rows_atoms = []
        rhs_data_atoms = []
        for atom in constraint.rhs:
            if isinstance(atom, ir.PredAtom) and atom.pred in self._symbolic:
                lhs_sym.append(atom)
                value_arg = atom.args[-1]
                if isinstance(value_arg, ir.Var):
                    sym_vars.add(value_arg.name)
            elif isinstance(atom, ir.CompareAtom):
                rhs_rows_atoms.append(atom)
            elif isinstance(atom, ir.AssignAtom):
                rhs_rows_atoms.append(atom)
            else:
                rhs_data_atoms.append(atom)
        needed = set()
        for atom in lhs_sym:
            needed |= {a.name for a in atom.args[:-1] if isinstance(a, ir.Var)}
        for atom in rhs_rows_atoms + lhs_post:
            if isinstance(atom, ir.AssignAtom):
                needed |= atom.input_vars() - sym_vars
            else:
                needed |= atom.var_names() - sym_vars
        # RHS data atoms join into the enumeration so their value
        # variables bind; a coverage check afterwards detects LHS
        # bindings the data-side RHS cannot extend (a hard violation
        # no assignment to the variable predicates could repair).
        lhs_needed = set()
        for atom in lhs_data:
            if isinstance(atom, ir.PredAtom):
                lhs_needed |= {a.name for a in atom.args if isinstance(a, ir.Var)}
        lhs_needed &= needed | {
            a.name
            for atom in lhs_sym
            for a in atom.args[:-1]
            if isinstance(a, ir.Var)
        }
        bindings, read_preds = self._enumerate(
            lhs_data + rhs_data_atoms, lhs_sym, needed
        )
        if rhs_data_atoms and lhs_needed:
            lhs_only, _ = self._enumerate(lhs_data, lhs_sym, lhs_needed)
            key_vars = sorted(lhs_needed)
            covered = {
                tuple(b.get(name) for name in key_vars) for b in bindings
            }
            for binding in lhs_only:
                key = tuple(binding.get(name) for name in key_vars)
                if key not in covered:
                    raise GroundingError(
                        "hard constraint {} already violated by data at {}".format(
                            constraint.text, dict(zip(key_vars, key))
                        )
                    )
        rows = []
        for binding in bindings:
            symvals = {}
            for atom in lhs_sym:
                keys = tuple(
                    a.value if isinstance(a, ir.Const) else binding[a.name]
                    for a in atom.args[:-1]
                )
                value_arg = atom.args[-1]
                expr = self._ref(atom.pred, keys)
                if isinstance(value_arg, ir.Var):
                    symvals[value_arg.name] = expr
            for atom in lhs_post + rhs_rows_atoms:
                if isinstance(atom, ir.AssignAtom):
                    symvals[atom.var] = _lift(_eval_sym(atom.expr, binding, symvals))
                    continue
                left = _eval_sym(atom.left, binding, symvals)
                right = _eval_sym(atom.right, binding, symvals)
                if not isinstance(left, LinExprS) and not isinstance(right, LinExprS):
                    if not ir._COMPARE_OPS[atom.op](left, right):
                        raise GroundingError(
                            "hard constraint {} already violated by data".format(
                                constraint.text
                            )
                        )
                    continue
                rows.append(self._make_row(atom.op, _lift(left), _lift(right)))
        return rows, read_preds

    @staticmethod
    def _make_row(op, left, right):
        diff = left - right
        if op in ("<", "<="):
            return (diff.coeffs, "<=", -diff.const)
        if op in (">", ">="):
            negated = diff * -1.0
            return (negated.coeffs, "<=", -negated.const)
        if op == "=":
            return (diff.coeffs, "==", -diff.const)
        raise GroundingError("comparison {} cannot be grounded".format(op))

    # -- assembling the LP ------------------------------------------------------------

    def build(self, integer=False):
        """Assemble the :class:`LinearProgram`.

        Returns ``(lp, var_index, integer_vars)`` where ``var_index``
        maps ``(pred, keys)`` to LP column indices.
        """
        domains = self.domains()
        var_index = {}
        for pred in self.variable_preds:
            for keys in domains[pred]:
                var_index[(pred, keys)] = len(var_index)
        n = len(var_index)

        all_rows = []
        for index, constraint in enumerate(self.artifacts.constraints):
            if constraint.is_soft:
                continue
            cached = self._row_cache.get(index)
            if cached is None:
                preds = {
                    atom.pred
                    for atom in constraint.lhs + constraint.rhs
                    if isinstance(atom, ir.PredAtom)
                }
                if not preds & self._symbolic:
                    self._row_cache[index] = ([], set())
                    continue
                cached = self._ground_constraint(constraint)
                self._row_cache[index] = cached
            rows, _ = cached
            all_rows.extend(rows)

        objective = self._linearize(self.objective_pred)
        if len(objective) != 1:
            raise GroundingError("objective must be a single (nullary) value")
        objective_expr = next(iter(objective.values()))

        lp = LinearProgram(n, minimize=(self.sense == "min"))
        coeffs = [0.0] * n
        for key, coeff in objective_expr.coeffs.items():
            coeffs[var_index[key]] = coeff
        lp.set_objective(coeffs)
        for column in range(n):
            lp.set_bounds(column, None, None)
        for coeff_map, op, bound in all_rows:
            row = [0.0] * n
            for key, coeff in coeff_map.items():
                row[var_index[key]] = coeff
            if op == "<=":
                lp.add_ub(row, bound)
            else:
                lp.add_eq(row, bound)
        integer_vars = list(range(n)) if integer else []
        return lp, var_index, integer_vars

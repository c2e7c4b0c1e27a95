"""Engine-level rules, dependency analysis, and stratification.

A :class:`Rule` is a derivation rule lowered from LogiQL: a head atom
(with an optional aggregation — the paper's P2P rules), and a body of
IR atoms.  The *execution graph* (paper §3.3, Figure 6) has predicates
as nodes and rules as edges; strata are its condensation (SCCs in
reverse topological order), with the LogiQL stratification conditions:
negation and aggregation must not occur inside a recursive component.
"""

from repro.engine.ir import AssignAtom, CompareAtom, Const, PredAtom, Var
from repro.engine.planner import build_plan


AGG_FUNCTIONS = ("sum", "count", "min", "max", "avg")


class AggSpec:
    """Aggregation of a P2P rule: ``agg<<u = fn(z)>>``."""

    __slots__ = ("fn", "result_var", "value_var")

    def __init__(self, fn, result_var, value_var):
        if fn not in AGG_FUNCTIONS:
            raise ValueError("unknown aggregation {!r}".format(fn))
        self.fn = fn
        self.result_var = result_var
        self.value_var = value_var

    def __repr__(self):
        return "agg<<{} = {}({})>>".format(self.result_var, self.fn, self.value_var)


class Rule:
    """One derivation rule: ``head_pred(head_args) <- body``.

    For functional predicates the last head argument is the value and
    ``n_keys`` is set accordingly; ``agg`` marks a P2P aggregation rule
    whose last head argument must be ``agg.result_var``.
    """

    __slots__ = ("head_pred", "head_args", "body", "agg", "n_keys", "name",
                 "_plans", "_passes", "_columns")

    def __init__(self, head_pred, head_args, body, agg=None, n_keys=None, name=None):
        self.head_pred = head_pred
        self.head_args = tuple(head_args)
        self.body = list(body)
        self.agg = agg
        if n_keys is None:
            n_keys = len(self.head_args) - 1 if agg is not None else len(self.head_args)
        self.n_keys = n_keys
        self.name = name
        self._plans = {}  # var order (tuple or None) -> Plan
        self._passes = {}  # delta_pass arguments -> rewritten Rule
        self._columns = None  # prefix_columns() per body atom, once computed
        if agg is not None:
            last = self.head_args[-1]
            if not (isinstance(last, Var) and last.name == agg.result_var):
                raise ValueError(
                    "aggregate head must end with the result variable {}".format(
                        agg.result_var
                    )
                )

    def head_vars(self):
        """Variable names whose bindings must be enumerated distinctly.

        For plain rules: the head variables (other body variables are
        existential).  For aggregate rules: *every* variable bound by a
        positive atom or assignment — aggregation is over the multiset
        of distinct satisfying assignments, so none may be collapsed
        (two employees with equal salaries both contribute to a sum).
        """
        names = [a.name for a in self.head_args if isinstance(a, Var)]
        if self.agg is not None:
            names = [n for n in names if n != self.agg.result_var]
            seen = set(names)
            for atom in self.body:
                if isinstance(atom, PredAtom) and not atom.negated:
                    for arg in atom.args:
                        if isinstance(arg, Var) and arg.name not in seen:
                            seen.add(arg.name)
                            names.append(arg.name)
                elif isinstance(atom, AssignAtom) and atom.var not in seen:
                    seen.add(atom.var)
                    names.append(atom.var)
            if self.agg.value_var not in seen:
                names.append(self.agg.value_var)
        return names

    def body_preds(self, positive_only=False):
        """Predicate names referenced in the body."""
        names = set()
        for atom in self.body:
            if isinstance(atom, PredAtom) and (not positive_only or not atom.negated):
                names.add(atom.pred)
        return names

    def plan(self, var_order=None):
        """The LFTJ plan for this body, memoized per variable order —
        the engine's one plan memo, which lives and dies with the rule."""
        key = tuple(var_order) if var_order is not None else None
        plan = self._plans.get(key)
        if plan is None:
            plan = build_plan(self.body, var_order=var_order, output_vars=self.head_vars())
            self._plans[key] = plan
        return plan

    def has_plan(self, var_order=None):
        """True when :meth:`plan` for ``var_order`` is already memoized."""
        return (tuple(var_order) if var_order is not None else None) in self._plans

    def prefix_columns(self, position):
        """``(bound, local)`` argument positions of body atom
        ``position``: ``local`` holds *local* existential variables
        (used once in the whole body, not needed by the head, an
        assignment or a comparison) — the variables the planner treats
        as trailing wildcards — and ``bound`` the rest, the columns of
        the atom's changed prefixes.  A variable repeated in a negated
        atom is used once: it is one existential, its columns agreeing
        (:func:`~repro.engine.planner.same_columns`).  Memoized."""
        if self._columns is None:
            counts = {}
            protected = set(self.head_vars())
            for atom in self.body:
                if isinstance(atom, PredAtom):
                    names = [arg.name for arg in atom.args if isinstance(arg, Var)]
                    for name in set(names) if atom.negated else names:
                        counts[name] = counts.get(name, 0) + 1
                elif isinstance(atom, AssignAtom):
                    protected |= atom.input_vars() | {atom.var}
                else:
                    protected |= atom.var_names()
            locals_ = {name for name, count in counts.items() if count == 1} - protected
            self._columns = {}
            for index, atom in enumerate(self.body):
                if isinstance(atom, PredAtom):
                    local = tuple(p for p, arg in enumerate(atom.args)
                                  if isinstance(arg, Var) and arg.name in locals_)
                    bound = tuple(p for p in range(len(atom.args)) if p not in local)
                    self._columns[index] = bound, local
        return self._columns[position]

    def delta_pass(self, position, new="", old="", check=False):
        """This rule rewritten for a delta pass over body atom ``position``.

        Memoized on the rule next to its plans, so each pass is built,
        and planned, once per rule and thus once per program; the
        returned rule is shared and must not be changed.

        The pass ranges over a lead relation, placed *first* in the
        body, so the planner's first-appearance order binds its
        variables before any other level opens and every other atom is
        only probed under them (the semi-naive discipline: the delta
        drives the join).  The lead is one of:

        * ``@cand`` — the atom's changed prefixes: the atom becomes
          ``@cand`` over its bound :meth:`prefix_columns` (every argument
          when it has no local variable), or is dropped when none is
          bound.  ``check=True`` keeps the atom after the lead, so the
          pass's own join checks it — a negated atom's prefix absence;
        * ``@head``, with ``position=None`` — head tuples: ``@head``
          over the head's arguments, and the body kept whole, so the
          pass derives those of them that have a derivation.

        Predicate atoms before ``position`` read ``new + pred``, later
        ones ``old + pred``.  :meth:`~repro.engine.evaluator.Evaluator.run_pass`
        builds the lead and runs the pass.
        """
        key = (position, new, old, check)
        rule = self._passes.get(key)
        if rule is None:
            if position is None:
                lead, args = "@head", self.head_args
            else:
                atom_args = self.body[position].args
                lead, args = "@cand", [atom_args[p] for p in self.prefix_columns(position)[0]]
            body = [PredAtom(lead, args)] if args else []
            for index, atom in enumerate(self.body):
                if index == position and not check:
                    continue
                if isinstance(atom, PredAtom) and (new or old):
                    tag = new if index < position else old
                    atom = PredAtom(tag + atom.pred, atom.args, atom.negated)
                body.append(atom)
            rule = self._passes[key] = Rule(
                self.head_pred, self.head_args, body, self.agg, self.n_keys, self.name)
        return rule

    def __repr__(self):
        head = "{}({})".format(self.head_pred, ", ".join(map(repr, self.head_args)))
        agg = " {}".format(self.agg) if self.agg else ""
        return "{} <-{} {}".format(head, agg, ", ".join(map(repr, self.body)))


class StratificationError(ValueError):
    """Negation or aggregation through recursion (not stratifiable)."""


def _tarjan_sccs(nodes, successors):
    """Tarjan's strongly connected components, iterative.

    Returns SCCs in reverse topological order (callees first).
    """
    index_counter = [0]
    indices, lowlinks = {}, {}
    on_stack = set()
    stack = []
    result = []

    for start in nodes:
        if start in indices:
            continue
        work = [(start, iter(successors(start)))]
        indices[start] = lowlinks[start] = index_counter[0]
        index_counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, child_iter = work[-1]
            advanced = False
            for child in child_iter:
                if child not in indices:
                    indices[child] = lowlinks[child] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


def stratify(rules, edb_preds=()):
    """Partition derived predicates into evaluation strata.

    Returns ``(strata, recursive_flags)`` where ``strata`` is a list of
    predicate-name lists in dependency order and ``recursive_flags[i]``
    marks stratum ``i`` as recursive.  Raises
    :class:`StratificationError` when a negation or aggregation lies on
    a cycle.
    """
    derived = {rule.head_pred for rule in rules}
    positive_deps = {pred: set() for pred in derived}
    negative_deps = {pred: set() for pred in derived}
    for rule in rules:
        for atom in rule.body:
            if not isinstance(atom, PredAtom) or atom.pred not in derived:
                continue
            if atom.negated or rule.agg is not None:
                negative_deps[rule.head_pred].add(atom.pred)
            else:
                positive_deps[rule.head_pred].add(atom.pred)

    def successors(node):
        return sorted(positive_deps[node] | negative_deps[node])

    components = _tarjan_sccs(sorted(derived), successors)
    component_of = {}
    for index, component in enumerate(components):
        for pred in component:
            component_of[pred] = index

    recursive_flags = []
    for index, component in enumerate(components):
        members = set(component)
        recursive = len(component) > 1
        for pred in component:
            if pred in positive_deps[pred] or pred in negative_deps[pred]:
                recursive = True
        for pred in component:
            for dep in negative_deps[pred]:
                if dep in members:
                    raise StratificationError(
                        "negation/aggregation through recursion at {}".format(pred)
                    )
        recursive_flags.append(recursive)
    return [list(component) for component in components], recursive_flags


def dependency_cone(rules, library):
    """``rules`` plus the ``library`` rules they transitively read.

    A predicate headed by one of ``rules`` shadows a library definition
    of the same name (a query's auxiliary views win over installed
    ones, as they do in a workspace).  Whatever a cone body reads that
    no cone rule derives is a *base* predicate — exactly the data that
    evaluating ``rules`` can touch.
    """
    by_head = {}
    for rule in library:
        by_head.setdefault(rule.head_pred, []).append(rule)
    cone = list(rules)
    derived = {rule.head_pred for rule in cone}
    frontier = list(cone)
    while frontier:
        for pred in frontier.pop().body_preds():
            if pred not in derived and pred in by_head:
                derived.add(pred)
                cone.extend(by_head[pred])
                frontier.extend(by_head[pred])
    return cone

"""Bottom-up, set-at-a-time evaluation of rule programs (paper T1, §3.2).

The evaluator materializes derived predicates stratum by stratum:

* non-recursive strata evaluate each rule once with LFTJ and build
  *support counts* (number of derivations per head tuple) — the state
  rule-head maintenance needs (§3.2);
* aggregate (P2P) rules build per-group aggregation state;
* recursive strata run the semi-naive loop (:meth:`Evaluator.propagate`,
  delta-led rounds) and are maintained by delete-rederive on updates,
  which runs the same loop.

All materialization state is persistent, so workspace versions carry
their evaluation state with them at O(1) branch cost.
"""

from repro import obs
from repro.ds.pmap import PMap
from repro.ds.pset import PSet
from repro.engine.aggregates import AGGREGATES, agg_add
from repro.engine.columnar import make_join
from repro.engine.ir import Const, PredAtom, bind
from repro.engine.planner import PlanError, build_plan
from repro.engine.rules import stratify
from repro.storage.relation import Relation


class FunctionalDependencyViolation(ValueError):
    """Two rows assign different values to the functional key ``key`` of
    ``pred``; ``made`` says how they came (``derived``, ``written``)."""

    def __init__(self, pred, key, made="derived"):
        super().__init__("{}[{}] {} with conflicting values".format(pred, key, made))
        self.pred = pred
        self.key = key


class EvaluationError(ValueError):
    """Malformed rule set (mixed aggregate/plain rules, arity clash...)."""


class PredicateState:
    """Materialization state of one derived predicate.

    ``kind`` is ``"count"`` (support counts per tuple), ``"agg"``
    (per-group aggregation state), or ``"recursive"`` (set only,
    maintained by delete/rederive).  ``counts`` stores only counts
    above one: a tuple of the relation with no entry has exactly one
    derivation.
    """

    __slots__ = ("kind", "counts", "groups", "agg_fn")

    def __init__(self, kind, counts=None, groups=None, agg_fn=None):
        self.kind = kind
        self.counts = counts if counts is not None else PMap.EMPTY
        self.groups = groups if groups is not None else PMap.EMPTY
        self.agg_fn = agg_fn

    def replace(self, counts=None, groups=None):
        """A copy with updated persistent state."""
        return PredicateState(
            self.kind,
            counts if counts is not None else self.counts,
            groups if groups is not None else self.groups,
            self.agg_fn,
        )


class _HeadProjector:
    """Precomputed head projection for a fixed variable order: per head
    column, ``("c", value)`` for a constant (a shape parameter bound to
    its value in ``params``) or ``("v", position)`` for a variable's
    position in that order."""

    __slots__ = ("spec",)

    def __init__(self, rule, var_order, drop_last=False, params=()):
        index = {name: position for position, name in enumerate(var_order)}
        args = rule.head_args[:-1] if drop_last else rule.head_args
        self.spec = tuple(
            ("c", arg.value_in(params)) if isinstance(arg, Const)
            else ("v", index[arg.name])
            for arg in args
        )

    def __call__(self, binding):
        return tuple(
            value if tag == "c" else binding[value] for tag, value in self.spec
        )


class RuleSet:
    """A compiled set of derivation rules: strata, arities, rule groups."""

    def __init__(self, rules):
        self.rules = list(rules)
        self.rules_by_head = {}
        for rule in self.rules:
            self.rules_by_head.setdefault(rule.head_pred, []).append(rule)
        for pred, group in self.rules_by_head.items():
            has_agg = any(r.agg is not None for r in group)
            if has_agg and len(group) > 1:
                raise EvaluationError(
                    "predicate {} mixes aggregate and other rules".format(pred)
                )
            arities = {len(r.head_args) for r in group}
            if len(arities) > 1:
                raise EvaluationError("predicate {} has inconsistent arity".format(pred))
        self.strata, self.recursive_flags = stratify(self.rules)
        self.derived = set(self.rules_by_head)
        # predicates some rule body reads; a derived one no body reads
        # is an answer, consumed only by whoever asked for the evaluation
        self.read = set()
        for rule in self.rules:
            self.read |= rule.body_preds()

    def head_arity(self, pred):
        """Arity of a derived predicate's head."""
        return len(self.rules_by_head[pred][0].head_args)


class Evaluator:
    """Evaluates a :class:`RuleSet` over base relations.

    ``order_chooser(rule, relations)`` may supply LFTJ variable orders
    (the sampling optimizer plugs in here); by default the planner's
    first-appearance order is used.  Plans come from each rule's own
    memo (:meth:`~repro.engine.rules.Rule.plan`).  Each join picks its
    executor, the per-tuple pure LFTJ or the columnar one, from its
    input (:func:`~repro.engine.columnar.choose_backend`).

    ``params`` are the values of a cached query shape's literals
    (:mod:`repro.logiql.shapes`): every plan and head projection of this
    evaluation binds them, while the rules and their plan memos stay
    shared by every call of the shape.
    """

    def __init__(self, ruleset, *, order_chooser=None, params=()):
        self.ruleset = ruleset
        self.order_chooser = order_chooser
        self.params = params
        self._projectors = {}  # (rule, var order, drop_last) -> _HeadProjector

    def _order_for(self, rule, relations):
        if self.order_chooser is None:
            return None
        return self.order_chooser(rule, relations)

    def _executor(self, rule, relations, recorder):
        """``(plan, executor, exec_stats, join span attrs)`` for one run
        of ``rule``'s join.  When tracing is active a ``plan`` span
        records whether the rule's plan memo hit; with tracing off the
        executor runs with ``stats=None`` and counts nothing, and the
        attrs are empty."""
        var_order = self._order_for(rule, relations)
        cache = "hit" if rule.has_plan(var_order) else "miss"
        with obs.span("plan", rule=rule.head_pred, cache=cache):
            plan = self._bound_plan(rule, var_order)
        exec_stats = {} if obs.tracing() else None
        executor = make_join(plan, relations, recorder, stats=exec_stats)
        attrs = {} if exec_stats is None else {
            "rule": rule.name or rule.head_pred,
            "vars": len(plan.var_order),
            "backend": executor.backend,
            "reason": executor.reason,
        }
        return plan, executor, exec_stats, attrs

    def _bound_plan(self, rule, var_order):
        """``rule``'s memoized plan with this evaluation's parameters
        bound.  A body that does not plan raises as its literal text
        would: the error names the values, not the slots."""
        try:
            plan = rule.plan(var_order)
        except PlanError:
            if self.params:
                build_plan([bind(atom, self.params) for atom in rule.body],
                           var_order=var_order, output_vars=rule.head_vars())
            raise
        return plan.bind(self.params)

    def head_projector(self, rule, var_order, drop_last=False):
        """The :class:`_HeadProjector` of ``rule`` under this
        evaluation's parameters, memoized per variable order."""
        key = (rule, var_order, drop_last)
        projector = self._projectors.get(key)
        if projector is None:
            projector = self._projectors[key] = _HeadProjector(
                rule, var_order, drop_last, self.params)
        return projector

    def rule_bindings(self, rule, relations, recorder=None):
        """Iterate satisfying assignments of ``rule``'s body.

        Returns ``(var_order, iterator)``.  When tracing is active the
        iterator is wrapped in a ``join`` span carrying the execution's
        seek/next/open counts, the executor that ran (``backend``) and
        why it was picked (``reason``).
        """
        plan, executor, exec_stats, attrs = self._executor(
            rule, relations, recorder)
        run = executor.run()
        if exec_stats is not None:
            # the columnar executor bumps join.* itself
            bump_prefix = "join." if executor.backend == "pure" else None
            run = obs.traced_bindings("join", attrs, run, exec_stats, bump_prefix)
        return plan.var_order, run

    def run_pass(self, rule, position, prefixes, env, recorder=None,
                 new="", old="", check=False):
        """``(var_order, bindings)`` of one delta pass
        (:meth:`Rule.delta_pass`) over ``env``, led by ``prefixes``:
        atom ``position``'s changed prefixes, or with ``position=None``
        the heads to rederive.  The one place a lead relation is built:
        a :class:`PSet` leads as it is, any other iterable is
        deduplicated."""
        lead, arity = (("@head", len(rule.head_args)) if position is None
                       else ("@cand", len(rule.prefix_columns(position)[0])))
        scope = dict(env)
        scope[lead] = (Relation(arity, prefixes) if isinstance(prefixes, PSet)
                       else Relation.from_iter(arity, prefixes))
        return self.rule_bindings(
            rule.delta_pass(position, new, old, check), scope, recorder)

    # -- full evaluation ---------------------------------------------------

    def evaluate(self, base_relations, recorder=None, reuse=None,
                 keep_state=True):
        """Materialize every derived predicate.

        ``base_relations`` maps predicate name to :class:`Relation`.
        Returns ``(relations, states)`` where ``relations`` includes
        base and derived predicates and ``states`` holds per-predicate
        materialization state.

        ``reuse`` may supply ``(relations, states)`` for derived
        predicates known to be unaffected by a program change (live
        programming, §3.3): those are copied instead of recomputed.  A
        recursive stratum is reused only when every member is reusable.

        ``keep_state=False`` is for callers that read the rows and drop
        the rest (queries, exec rules): ``states`` is ``None``, no
        support counts or aggregate groups are built, and a
        non-recursive head no rule reads is left as its sorted row list
        instead of a :class:`Relation` (functional dependencies are
        still enforced).

        ``recorder`` (a
        :class:`~repro.engine.sensitivity.SensitivityRecorder`) records
        the sensitivity intervals of every join this evaluation runs.
        """
        relations = dict(base_relations)
        states = {} if keep_state else None
        reuse_relations, reuse_states = reuse if reuse is not None else ({}, {})
        for stratum, recursive in zip(self.ruleset.strata, self.ruleset.recursive_flags):
            if recursive:
                if all(pred in reuse_relations for pred in stratum):
                    for pred in stratum:
                        relations[pred] = reuse_relations[pred]
                        states[pred] = reuse_states[pred]
                else:
                    self._evaluate_recursive(stratum, relations, states, recorder)
            else:
                for pred in stratum:
                    if pred in reuse_relations:
                        relations[pred] = reuse_relations[pred]
                        states[pred] = reuse_states[pred]
                    else:
                        self._evaluate_nonrecursive(pred, relations, states, recorder)
        return relations, states

    def _evaluate_nonrecursive(self, pred, relations, states, recorder):
        group = self.ruleset.rules_by_head[pred]
        if group[0].agg is not None:
            self._evaluate_aggregate(pred, group[0], relations, states, recorder)
            return
        counts = {}
        for rule in group:
            var_order, bindings = self.rule_bindings(rule, relations, recorder)
            project = self.head_projector(rule, var_order)
            for binding in bindings:
                head = project(binding)
                counts[head] = counts.get(head, 0) + 1
        if states is None and pred not in self.ruleset.read:
            rows = sorted(counts)
            _check_functional(pred, group[0], rows)
            relations[pred] = rows
            return
        relation = Relation.from_iter(self.ruleset.head_arity(pred), counts)
        _check_functional(pred, group[0], relation)
        relations[pred] = relation
        if states is not None:
            states[pred] = PredicateState("count", counts=PMap.from_sorted_items(
                sorted((head, n) for head, n in counts.items() if n > 1)))

    def _evaluate_aggregate(self, pred, rule, relations, states, recorder):
        """One P2P aggregate rule.  A columnar join folds its code
        columns in numpy (:meth:`ColumnarTrieJoin.fold`); any other
        folds its bindings one at a time.  The ``join`` span's ``fold``
        says which ran: ``"vector"``, or ``"rows: <reason>"``."""
        fn = rule.agg.fn
        aggregate = AGGREGATES[fn]
        plan, executor, exec_stats, attrs = self._executor(
            rule, relations, recorder)
        project = self.head_projector(rule, plan.var_order, drop_last=True)
        value_position = plan.var_order.index(rule.agg.value_var)
        bump_prefix = "join." if executor.backend == "pure" else None
        with obs.traced_join("join", attrs, exec_stats, bump_prefix) as span_:
            if executor.backend == "columnar":
                fold, result = executor.fold(
                    fn, project.spec, value_position, states is not None)
            else:
                fold, result = "rows: pure join", executor.run()
            if fold == "vector":
                entries = result
            else:
                groups = {}
                rows = 0
                for binding in result:
                    rows += 1
                    group_key = project(binding)
                    state = groups.get(group_key)
                    if state is None:
                        state = aggregate.empty()
                    groups[group_key] = agg_add(fn, state, binding[value_position])
                entries = [
                    (group_key, aggregate.result(state), state)
                    for group_key, state in groups.items()
                ]
                if span_ is not None:
                    span_.attrs["rows"] = rows
            if span_ is not None:
                span_.attrs["fold"] = fold
        tuples = [group_key + (value,) for group_key, value, _ in entries]
        if states is None and pred not in self.ruleset.read:
            relations[pred] = sorted(tuples)
            return
        relations[pred] = Relation.from_iter(self.ruleset.head_arity(pred), tuples)
        if states is not None:
            states[pred] = PredicateState(
                "agg",
                groups=PMap.from_sorted_items(
                    sorted((group_key, state) for group_key, _, state in entries)),
                agg_fn=fn,
            )

    def _evaluate_recursive(self, stratum, relations, states, recorder):
        # round 0: every rule against the empty stratum relations seeds
        # the semi-naive loop
        frontier = {}
        for pred in stratum:
            relations[pred] = Relation.empty(self.ruleset.head_arity(pred))
        for pred in stratum:
            tuples = set()
            for rule in self.ruleset.rules_by_head[pred]:
                var_order, bindings = self.rule_bindings(rule, relations, recorder)
                project = self.head_projector(rule, var_order)
                tuples.update(project(binding) for binding in bindings)
            frontier[pred, False] = tuples
        for pred in stratum:
            relations[pred] = Relation.from_iter(
                self.ruleset.head_arity(pred), frontier[pred, False])
        rules = [rule for pred in stratum for rule in self.ruleset.rules_by_head[pred]]
        self.propagate(rules, frontier, relations,
                       lambda pred, tup: tup not in relations[pred], recorder)
        for pred in stratum:
            _check_functional(pred, self.ruleset.rules_by_head[pred][0], relations[pred])
            if states is not None:
                states[pred] = PredicateState("recursive")

    def propagate(self, rules, frontier, env, keep, recorder=None):
        """The semi-naive loop: the one fixpoint recursive evaluation
        and both DRed propagations (:mod:`repro.engine.dred`) run.

        ``frontier`` maps ``(pred, negated)`` to the changed tuples a
        positive (``negated=False``) or a negated atom of ``pred``
        ranges over.  Each round runs one pass (:meth:`run_pass`) per
        rule and changed body atom against ``env``, led by the atom's
        changed prefixes: its frontier tuples, projected on its bound
        columns when it has a local variable.  A positive atom is
        replaced by the lead; a negated one stays in the body, so the
        join checks it.  A derived head joins the next frontier when
        ``keep(pred, tup)`` says so and it was not found before; a kept
        head ``env`` lacks is added to ``env[pred]``, so later rounds
        read it.  The loop ends when a round keeps nothing.
        ``recorder`` records every pass's sensitivity intervals.

        Returns ``(found, rounds)``: the kept heads per head predicate
        of ``rules``, and the number of rounds run.
        """
        reads = {}  # (pred, negated) -> [(rule, body position)]
        for rule in rules:
            for position, atom in enumerate(rule.body):
                if isinstance(atom, PredAtom):
                    reads.setdefault((atom.pred, atom.negated), []).append((rule, position))
        found = {rule.head_pred: set() for rule in rules}
        frontier = {key: Relation.from_iter(env[key[0]].arity, tuples)
                    for key, tuples in frontier.items() if tuples and key in reads}
        rounds = 0
        while frontier:
            rounds += 1
            heads = {pred: set() for pred in found}
            for (pred, negated), changed in frontier.items():
                for rule, position in reads[pred, negated]:
                    bound, local = rule.prefix_columns(position)
                    prefixes = changed.tuples() if not local else {
                        tuple(t[p] for p in bound) for t in changed}
                    var_order, bindings = self.run_pass(
                        rule, position, prefixes, env, recorder, check=negated)
                    project = self.head_projector(rule, var_order)
                    heads[rule.head_pred].update(project(binding) for binding in bindings)
            frontier = {}
            for pred, derived in heads.items():
                fresh = {tup for tup in derived - found[pred] if keep(pred, tup)}
                if not fresh:
                    continue
                found[pred] |= fresh
                changed = Relation.from_iter(env[pred].arity, fresh)
                if (pred, False) in reads:
                    frontier[pred, False] = changed
                if any(tup not in env[pred] for tup in fresh):
                    env[pred] = env[pred].union(changed)
        return found, rounds


def _check_functional(pred, rule, relation, added=None):
    """Enforce the functional dependency of ``R[keys] = value`` heads
    (an aggregate's holds by construction: one row per group)."""
    if rule.agg is None and rule.n_keys < len(rule.head_args):
        check_keys(pred, rule.n_keys, relation, added)


def check_keys(pred, n_keys, relation, added=None, made="derived"):
    """Raise :class:`FunctionalDependencyViolation` when ``relation``
    (sorted rows) holds two rows for one ``n_keys``-column key.

    With ``added`` (the tuples a delta just added to ``relation``) only
    their keys are checked, each by one prefix lookup; without it the
    whole relation is scanned.  ``made`` names how the rows came.
    """
    if added is not None:
        for tup in added:
            key = tup[:n_keys]
            rows = relation.iter_prefix(key)
            next(rows)
            if next(rows, None) is not None:
                raise FunctionalDependencyViolation(pred, key, made)
        return
    previous_key = None
    for tup in relation:
        key = tup[:n_keys]
        if key == previous_key:
            raise FunctionalDependencyViolation(pred, key, made)
        previous_key = key

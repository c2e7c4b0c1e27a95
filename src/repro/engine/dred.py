"""Delete-rederive (DRed) maintenance [20].

Two roles in this system:

* the maintenance path for *recursive* strata inside
  :class:`~repro.engine.ivm.IncrementalEngine` (support counts are not
  well defined through recursion);
* the classical baseline the paper's maintenance algorithm "improves
  significantly on" — :class:`DRedEngine` maintains a whole program
  with DRed so benchmarks can compare it against the counting +
  sensitivity-index engine (experiment E5).

The algorithm, on the caller's evaluator (its backend and ``params``):

1. over-delete — :meth:`Evaluator.propagate`, the semi-naive loop
   recursive evaluation runs, seeded with what can take a derivation
   away (removed tuples for positive atoms, added ones for negated)
   over the old state, keeps every old tuple it reaches;
2. rederive — one batched pass per rule joins the over-deleted heads,
   as a leading ``@head`` relation, against the pruned state (old minus
   over-deleted, lower strata new); the heads it derives are restored;
3. insert — the same loop, seeded with the restored heads and what can
   add a derivation (added tuples for positive atoms, removed ones for
   negated), over the pruned state plus the restored heads, keeps
   every head not yet there.

Every pass rule is :meth:`Rule.delta_pass`, memoized on its rule, so a
program's DRed passes are built and planned once.
"""

from repro import obs
from repro import stats as global_stats
from repro.engine.evaluator import Evaluator
from repro.storage.relation import Delta, Relation


def maintain_recursive_stratum(evaluator, stratum, old_relations, new_relations, deltas):
    """DRed maintenance of one stratum of ``evaluator``'s rule set.

    ``new_relations`` holds updated lower strata and base predicates;
    the stratum's own entries are still the old versions.  ``deltas``
    holds the lower-level deltas.  Returns per-predicate deltas for the
    stratum (not yet applied).

    Each run is traced as an ``ivm.dred`` span whose attributes and the
    ``dred.*`` counters record the work: fixpoint rounds of both
    propagations, over-deleted tuples, over-deleted tuples that are in
    the result (rederived), and result tuples not in the old relation
    (inserted).
    """
    with obs.span("ivm.dred", preds=len(stratum)):
        global_stats.bump("dred.runs")
        return _dred_stratum(evaluator, stratum, old_relations, new_relations, deltas)


def _dred_stratum(evaluator, stratum, old_relations, new_relations, deltas):
    rules = [rule for pred in stratum for rule in evaluator.ruleset.rules_by_head[pred]]
    # 1. over-delete, over the old state
    overdeleted, rounds = evaluator.propagate(
        rules,
        {(pred, negated): delta.added if negated else delta.removed
         for pred, delta in deltas.items() for negated in (False, True)},
        dict(old_relations),
        lambda pred, tup: tup in old_relations[pred],
    )
    # 2. rederive, over the pruned state
    env = dict(new_relations)
    for pred in stratum:
        env[pred] = old_relations[pred].apply(Delta.from_iters((), overdeleted[pred]))
    frontier = {(pred, negated): delta.removed if negated else delta.added
                for pred, delta in deltas.items() for negated in (False, True)}
    for pred, tuples in _rederive(evaluator, rules, overdeleted, env).items():
        env[pred] = env[pred].apply(Delta.from_iters(tuples, ()))
        frontier[pred, False] = tuples
    # 3. insert, from the rederived heads and the lower strata's gains
    _, insert_rounds = evaluator.propagate(
        rules, frontier, env, lambda pred, tup: tup not in env[pred])
    rounds += insert_rounds

    # ``env`` now holds the exact new extension of every stratum
    # predicate; diff against the old versions for the net deltas
    result = {pred: old_relations[pred].diff(env[pred]) for pred in stratum}
    overdeleted_total = sum(len(tuples) for tuples in overdeleted.values())
    removed_total = sum(len(delta.removed) for delta in result.values())
    rederived_total = overdeleted_total - removed_total
    inserted_total = sum(len(delta.added) for delta in result.values())
    global_stats.bump("dred.rounds", rounds)
    if overdeleted_total:
        global_stats.bump("dred.overdeleted", overdeleted_total)
    if rederived_total:
        global_stats.bump("dred.rederived", rederived_total)
    if inserted_total:
        global_stats.bump("dred.inserted", inserted_total)
    obs.annotate(
        rounds=rounds,
        overdeleted=overdeleted_total,
        rederived=rederived_total,
        inserted=inserted_total,
    )
    return result


def _rederive(evaluator, rules, overdeleted, env):
    """The over-deleted heads that keep a derivation in ``env``: one
    pass per rule, led by those heads."""
    rederived = {pred: set() for pred in overdeleted}
    for rule in rules:
        heads = overdeleted[rule.head_pred]
        if not heads:
            continue
        probe = rule.delta_pass(None, "@head")
        scope = dict(env)
        scope["@head"] = Relation.from_iter(len(rule.head_args), heads)
        var_order, bindings = evaluator.rule_bindings(probe, scope)
        project = evaluator.head_projector(probe, var_order)
        rederived[rule.head_pred].update(project(binding) for binding in bindings)
    return rederived


class DRedEngine:
    """Whole-program DRed maintenance — the classical baseline.

    Same interface as :class:`~repro.engine.ivm.IncrementalEngine`
    (``initialize`` / ``apply``) but treats *every* stratum with
    delete/rederive and keeps no counts or sensitivity indices.
    """

    def __init__(self, ruleset):
        self.ruleset = ruleset
        self.evaluator = Evaluator(ruleset)

    def initialize(self, base_relations):
        """Full evaluation (no auxiliary state)."""
        relations, _ = self.evaluator.evaluate(base_relations)
        return relations

    def apply(self, relations, base_deltas):
        """Maintain all derived predicates under base deltas."""
        old_relations = dict(relations)
        new_relations = dict(relations)
        deltas = {}
        for pred, delta in base_deltas.items():
            normalized = delta.normalized(old_relations[pred])
            if normalized:
                deltas[pred] = normalized
                new_relations[pred] = old_relations[pred].apply(normalized)
        for stratum, recursive in zip(
            self.ruleset.strata, self.ruleset.recursive_flags
        ):
            has_agg = any(self.ruleset.is_aggregate(p) for p in stratum)
            if has_agg:
                # DRed does not handle aggregates; recompute them
                for pred in stratum:
                    sub = Evaluator(RuleSubset(self.ruleset, pred))
                    out, _ = sub.evaluate(new_relations)
                    delta = old_relations[pred].diff(out[pred])
                    new_relations[pred] = out[pred]
                    if delta:
                        deltas[pred] = delta
                continue
            stratum_deltas = maintain_recursive_stratum(
                self.evaluator, stratum, old_relations, new_relations, deltas
            )
            for pred, delta in stratum_deltas.items():
                if delta:
                    new_relations[pred] = new_relations[pred].apply(delta)
                    deltas[pred] = delta
        return new_relations, deltas


class RuleSubset:
    """A :class:`RuleSet`-shaped view containing one predicate's rules."""

    def __init__(self, ruleset, pred):
        self.rules = list(ruleset.rules_by_head[pred])
        self.rules_by_head = {pred: self.rules}
        self.strata = [[pred]]
        self.recursive_flags = [False]
        self.derived = {pred}
        self._parent = ruleset

    def head_arity(self, pred):
        return self._parent.head_arity(pred)

    def is_aggregate(self, pred):
        return self._parent.is_aggregate(pred)

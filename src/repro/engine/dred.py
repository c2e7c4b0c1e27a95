"""Delete-rederive (DRed) maintenance [20].

Two roles in this system:

* the maintenance path for *recursive* strata inside
  :class:`~repro.engine.ivm.IncrementalEngine` (support counts are not
  well defined through recursion);
* the classical baseline the paper's maintenance algorithm "improves
  significantly on" — :class:`~repro.engine.ivm.DRedEngine` runs the
  engine's maintenance loop with this algorithm for every stratum, so
  benchmarks can compare it against the counting engine
  (experiment E5).

The algorithm, on the caller's evaluator (and its ``params``):

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

Every pass runs through :meth:`Evaluator.run_pass` on its rule's
memoized :meth:`Rule.delta_pass`, so a program's DRed passes are built
and planned once.
"""

from repro import obs
from repro import stats as global_stats
from repro.storage.relation import Delta


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
    global_stats.bump("dred.overdeleted", overdeleted_total)
    global_stats.bump("dred.rederived", rederived_total)
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
        if heads:
            var_order, bindings = evaluator.run_pass(rule, None, heads, env)
            project = evaluator.head_projector(rule, var_order)
            rederived[rule.head_pred].update(project(binding) for binding in bindings)
    return rederived

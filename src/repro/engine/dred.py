"""Delete-rederive (DRed) maintenance [20].

Two roles in this system:

* the maintenance path for *recursive* strata inside
  :class:`~repro.engine.ivm.IncrementalEngine` (support counts are not
  well defined through recursion);
* the classical baseline the paper's maintenance algorithm "improves
  significantly on" — :class:`DRedEngine` maintains a whole program
  with DRed so benchmarks can compare it against the counting +
  sensitivity-index engine (experiment E5).

The algorithm: (1) over-delete — propagate deletions transitively using
the old state; (2) rederive — restore over-deleted tuples that still
have an alternative derivation; (3) insert — semi-naive propagation of
additions over the new state.
"""

from repro import obs
from repro import stats as global_stats
from repro.engine.evaluator import Evaluator
from repro.engine.ir import Const, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.rules import Rule
from repro.storage.relation import Delta, Relation


def _run_delta_pass(evaluator, rule, position, tuple_set, env, arity):
    """Head tuples derived when atom ``position`` ranges over
    ``tuple_set`` and every other atom reads ``env``."""
    delta_rule = rule.delta_pass(position, PredAtom("@delta", rule.body[position].args))
    env = dict(env)
    env["@delta"] = Relation.from_iter(arity, tuple_set)
    var_order, bindings = evaluator.rule_bindings(delta_rule, env)
    projector = evaluator.head_projector(delta_rule, var_order)
    return {projector(binding) for binding in bindings}


class _Derivability:
    """Cached existence checks: is tuple ``t`` derivable by ``rule``?

    Binds the head variables through one virtual single-tuple ``@head``
    predicate so the LFTJ plan is built once per rule (and bound to a
    cached shape's ``params``).
    """

    def __init__(self, rule, params=()):
        head_vars = []
        for arg in rule.head_args:
            if isinstance(arg, Var) and arg.name not in head_vars:
                head_vars.append(arg.name)
        body = [PredAtom("@head", [Var(name) for name in head_vars])] if head_vars else []
        body.extend(rule.body)
        self.rule = rule
        self.head_vars = head_vars
        self.probe = Rule(rule.head_pred, rule.head_args, body, None, rule.n_keys)
        self.params = params

    def derivable(self, tup, env):
        """True when ``tup`` has a derivation through this rule."""
        values = {}
        for arg, value in zip(self.rule.head_args, tup):
            if isinstance(arg, Const):
                if arg.value_in(self.params) != value:
                    return False
            else:
                if arg.name in values and values[arg.name] != value:
                    return False
                values[arg.name] = value
        probe_env = dict(env)
        probe_env["@head"] = Relation.from_iter(
            len(self.head_vars), [tuple(values[name] for name in self.head_vars)])
        plan = self.probe.plan().bind(self.params)
        executor = LeapfrogTrieJoin(plan, probe_env)
        for _ in executor.run():
            return True
        return False


def maintain_recursive_stratum(ruleset, stratum, old_relations, new_relations, deltas,
                               params=()):
    """DRed maintenance of one recursive stratum.

    ``new_relations`` holds updated lower strata and base predicates;
    the stratum's own entries are still the old versions.  ``deltas``
    holds the lower-level deltas; ``params`` bind a cached shape's
    literals.  Returns per-predicate deltas for the stratum (not yet
    applied).

    Each run is traced as an ``ivm.dred`` span whose attributes and the
    ``dred.*`` counters record the three phases' work: fixpoint rounds,
    over-deleted, rederived, and inserted tuple counts.
    """
    with obs.span("ivm.dred", preds=len(stratum)):
        global_stats.bump("dred.runs")
        return _dred_stratum(
            ruleset, stratum, old_relations, new_relations, deltas, params
        )


def _dred_stratum(ruleset, stratum, old_relations, new_relations, deltas, params):
    evaluator = Evaluator(ruleset, params=params)
    stratum_preds = set(stratum)
    rules = [rule for pred in stratum for rule in ruleset.rules_by_head[pred]]

    # Phase 1: over-delete.  Deletion-causing change of an atom is its
    # removed set for positive atoms and its added set for negated ones.
    overdeleted = {pred: set() for pred in stratum}
    frontier = {}
    for pred, delta in deltas.items():
        frontier[pred] = {
            "pos": set(delta.removed),
            "neg": set(delta.added),
        }

    rounds = 0
    pending = True
    while pending:
        pending = False
        rounds += 1
        new_frontier = {}
        for rule in rules:
            for position, atom in enumerate(rule.body):
                if not isinstance(atom, PredAtom):
                    continue
                changed = frontier.get(atom.pred)
                if not changed:
                    continue
                tuple_set = changed["neg"] if atom.negated else changed["pos"]
                if not tuple_set:
                    continue
                heads = _run_delta_pass(
                    evaluator,
                    rule,
                    position,
                    tuple_set,
                    old_relations,
                    old_relations[atom.pred].arity,
                )
                fresh = {
                    t
                    for t in heads
                    if t in old_relations[rule.head_pred]
                    and t not in overdeleted[rule.head_pred]
                }
                if fresh:
                    overdeleted[rule.head_pred] |= fresh
                    entry = new_frontier.setdefault(
                        rule.head_pred, {"pos": set(), "neg": set()}
                    )
                    entry["pos"] |= fresh
                    pending = True
        frontier = new_frontier

    # Phase 2: remove over-deleted tuples and rederive survivors.
    env = dict(new_relations)
    for pred in stratum:
        env[pred] = old_relations[pred].apply(
            Delta.from_iters((), overdeleted[pred])
        )
    checkers = {}
    rederived = {pred: set() for pred in stratum}
    progress = True
    while progress:
        progress = False
        for pred in stratum:
            for tup in sorted(overdeleted[pred] - rederived[pred]):
                for rule in ruleset.rules_by_head[pred]:
                    checker = checkers.get(id(rule))
                    if checker is None:
                        checker = checkers[id(rule)] = _Derivability(rule, params)
                    if checker.derivable(tup, env):
                        rederived[pred].add(tup)
                        env[pred] = env[pred].insert(tup)
                        progress = True
                        break

    # Phase 3: insert additions (semi-naive over the new state).
    insert_frontier = {}
    for pred, delta in deltas.items():
        insert_frontier[pred] = {
            "pos": set(delta.added),
            "neg": set(delta.removed),
        }
    inserted = {pred: set() for pred in stratum}
    while insert_frontier:
        rounds += 1
        new_frontier = {}
        for rule in rules:
            for position, atom in enumerate(rule.body):
                if not isinstance(atom, PredAtom):
                    continue
                changed = insert_frontier.get(atom.pred)
                if not changed:
                    continue
                tuple_set = changed["neg"] if atom.negated else changed["pos"]
                if not tuple_set:
                    continue
                heads = _run_delta_pass(
                    evaluator,
                    rule,
                    position,
                    tuple_set,
                    env,
                    env[atom.pred].arity,
                )
                fresh = {t for t in heads if t not in env[rule.head_pred]}
                if atom.negated and fresh:
                    # candidates sourced through a negated atom are not
                    # witnessed by the pass itself (the negation may
                    # still fail on another tuple); verify derivability
                    checker = checkers.get(id(rule))
                    if checker is None:
                        checker = checkers[id(rule)] = _Derivability(rule, params)
                    fresh = {t for t in fresh if checker.derivable(t, env)}
                if fresh:
                    inserted[rule.head_pred] |= fresh
                    env[rule.head_pred] = env[rule.head_pred].apply(
                        Delta.from_iters(fresh, ())
                    )
                    entry = new_frontier.setdefault(
                        rule.head_pred, {"pos": set(), "neg": set()}
                    )
                    entry["pos"] |= fresh
        insert_frontier = new_frontier

    # ``env`` now holds the exact new extension of every stratum
    # predicate (old - overdeleted + rederived + inserted); diff against
    # the old versions to produce the net deltas.
    result = {}
    for pred in stratum:
        result[pred] = old_relations[pred].diff(env[pred])
    overdeleted_total = sum(len(tuples) for tuples in overdeleted.values())
    rederived_total = sum(len(tuples) for tuples in rederived.values())
    inserted_total = sum(len(tuples) for tuples in inserted.values())
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
                self.ruleset, stratum, old_relations, new_relations, deltas
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

"""Probabilistic-programming Datalog (paper §2.3.3, after [5]).

Rule heads may draw from numerical probability distributions —
``Promotion[p] = Flip[0.01] <- .`` — defining a prior over database
states; integrity constraints condition the space on observations
(``Visited(c), Bought[c, p] = b -> Buys[c, p] = b.``).  Inference asks
for posteriors, e.g. the most likely value of ``Promotion[p]``.

Two inference engines:

* exact enumeration over the independent choices (exponential in the
  number of flips — fine for the paper-scale models);
* likelihood weighting / rejection sampling for larger spaces.
"""

import itertools
import random

from repro.engine import ir
from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.storage.relation import Relation
from repro.storage.schema import EntityType


class PPDLError(ValueError):
    """Ill-formed probabilistic program."""


class PPDLProgram:
    """Inference over the workspace's ``Flip`` rules.

    The prior: every body binding of every probabilistic rule draws an
    independent Bernoulli for its head key; ordinary derivation rules
    then extend each world; hard constraints act as observations that
    condition the space.
    """

    def __init__(self, workspace, max_flips=22):
        self.workspace = workspace
        self.state = workspace.state
        self.prob_rules = self.state.artifacts.prob_rules
        if not self.prob_rules:
            raise PPDLError("no probabilistic (Flip) rules in the workspace")
        self.max_flips = max_flips
        self._ordered_rules = self._order_rules()

    def _order_rules(self):
        """Probabilistic rules in dependency order (a rule reading a
        probabilistic head must come after it)."""
        heads = {rule.head_pred for rule in self.prob_rules}
        remaining = list(self.prob_rules)
        ordered = []
        resolved = set()
        while remaining:
            progressed = False
            for rule in list(remaining):
                needs = {
                    atom.pred
                    for atom in rule.body
                    if isinstance(atom, ir.PredAtom) and atom.pred in heads
                }
                if needs <= resolved:
                    ordered.append(rule)
                    resolved.add(rule.head_pred)
                    remaining.remove(rule)
                    progressed = True
            if not progressed:
                raise PPDLError("cyclic dependencies among probabilistic rules")
        return ordered

    def _head_domain(self, rule, env):
        """Bindings for head-key variables of a rule with a free head."""
        key_vars = [a.name for a in rule.head_args if isinstance(a, ir.Var)]
        body_vars = set()
        for atom in rule.body:
            if isinstance(atom, ir.PredAtom):
                body_vars |= {a.name for a in atom.args if isinstance(a, ir.Var)}
        free = [name for name in key_vars if name not in body_vars]
        if not free:
            return None
        decl = self.state.artifacts.schema.get(rule.head_pred)
        if decl is None:
            raise PPDLError(
                "free head variables of {} need a declaration".format(rule.head_pred)
            )
        atoms = []
        for name, arg_type in zip(free, decl.arg_types):
            if not isinstance(arg_type, EntityType):
                raise PPDLError(
                    "free head variable {} needs an entity key type".format(name)
                )
            atoms.append(ir.PredAtom(arg_type.name, [ir.Var(name)]))
        return atoms

    def _flip_sites(self, rule, env):
        """``(keys, parameter)`` for every grounding of one rule."""
        extra = self._head_domain(rule, env) or []
        body = list(rule.body) + extra
        key_vars = [a for a in rule.head_args]
        needed = {a.name for a in key_vars if isinstance(a, ir.Var)}
        needed |= ir.expr_vars(rule.param_expr)
        if body:
            plan = build_plan(body, output_vars=sorted(needed))
            order = list(plan.var_order)
            sites = []
            seen = set()
            for values in LeapfrogTrieJoin(plan, env).run():
                binding = dict(zip(order, values))
                keys = tuple(
                    a.value if isinstance(a, ir.Const) else binding[a.name]
                    for a in key_vars
                )
                if keys in seen:
                    continue
                seen.add(keys)
                parameter = ir.eval_expr(rule.param_expr, binding)
                sites.append((keys, parameter))
            return sites
        keys = tuple(a.value for a in key_vars)
        return [(keys, ir.eval_expr(rule.param_expr, {}))]

    # -- exact enumeration ---------------------------------------------------------

    def enumerate_worlds(self):
        """Yield ``(prior_probability, relations)`` for every world
        consistent with the observations (hard constraints)."""
        artifacts = self.state.artifacts
        base_env = self.state.env_with_defaults()
        checker = artifacts.checker

        def expand(rule_idx, env, probability):
            if rule_idx == len(self._ordered_rules):
                relations, _ = Evaluator(artifacts.ruleset).evaluate(env)
                violations = checker.check(relations)
                if not violations:
                    yield probability, relations
                return
            rule = self._ordered_rules[rule_idx]
            sites = self._flip_sites(rule, env)
            if len(sites) > self.max_flips:
                raise PPDLError(
                    "too many flips for exact enumeration ({})".format(len(sites))
                )
            for outcomes in itertools.product((1, 0), repeat=len(sites)):
                p = probability
                tuples = []
                for (keys, parameter), outcome in zip(sites, outcomes):
                    p *= parameter if outcome == 1 else (1.0 - parameter)
                    tuples.append(keys + (outcome,))
                if p == 0.0:
                    continue
                child = dict(env)
                child[rule.head_pred] = Relation.from_iter(
                    len(rule.head_args) + 1, tuples
                )
                yield from expand(rule_idx + 1, child, p)

        yield from expand(0, base_env, 1.0)

    def posterior(self, pred):
        """Posterior marginals ``{tuple: probability}`` of a predicate."""
        total = 0.0
        marginals = {}
        for probability, relations in self.enumerate_worlds():
            total += probability
            relation = relations.get(pred)
            if relation is None:
                continue
            for tup in relation:
                marginals[tup] = marginals.get(tup, 0.0) + probability
        if total == 0.0:
            raise PPDLError("all worlds violate the observations")
        return {tup: p / total for tup, p in marginals.items()}

    def map_world(self):
        """The most likely consistent world: ``(probability, relations)``."""
        best = None
        total = 0.0
        for probability, relations in self.enumerate_worlds():
            total += probability
            if best is None or probability > best[0]:
                best = (probability, relations)
        if best is None:
            raise PPDLError("all worlds violate the observations")
        return best[0] / total, best[1]

    # -- sampling ----------------------------------------------------------------

    def sample_posterior(self, pred, n_samples=1000, seed=0):
        """Rejection-sampling marginals of ``pred``."""
        rng = random.Random(seed)
        artifacts = self.state.artifacts
        base_env = self.state.env_with_defaults()
        counts = {}
        accepted = 0
        for _ in range(n_samples):
            env = dict(base_env)
            ok = True
            for rule in self._ordered_rules:
                tuples = []
                for keys, parameter in self._flip_sites(rule, env):
                    outcome = 1 if rng.random() < parameter else 0
                    tuples.append(keys + (outcome,))
                env[rule.head_pred] = Relation.from_iter(
                    len(rule.head_args) + 1, tuples
                )
            relations, _ = Evaluator(artifacts.ruleset).evaluate(env)
            if artifacts.checker.check(relations):
                continue
            accepted += 1
            relation = relations.get(pred)
            if relation is not None:
                for tup in relation:
                    counts[tup] = counts.get(tup, 0) + 1
        if accepted == 0:
            raise PPDLError("no samples consistent with the observations")
        return {tup: c / accepted for tup, c in counts.items()}

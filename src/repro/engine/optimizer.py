"""Sampling-based variable-order optimization (paper §3.2).

"The LogicBlox query optimizer uses sampling-based techniques: small
representative samples of predicates are maintained.  These samples are
used to compare candidate variable orderings for LFTJ evaluation, and,
consequently, also for automatic index creation."

The optimizer enumerates valid variable orders (respecting assignment
dependencies) and scores each with an AGM-flavoured *chain estimate*
computed from sampled prefix cardinalities: for every participating
atom the sample yields the distinct count of each column prefix, the
per-level extension ratio is ``distinct(k+1)/distinct(k)``, and the
estimated frontier after each level is the running product of the
**minimum** ratio over the participants (the intersection can extend no
faster than its tightest atom — the fractional-cover intuition behind
the AGM bound).  The estimated cost of an order is the sum of its level
frontiers; ties break in favour of orders needing fewer secondary
indexes.

This replaces exhaustively *running* LFTJ once per candidate order on
the samples: prefix cardinalities are counted once per (relation
version, column prefix) and shared across every candidate, so scoring
an order is arithmetic, not a join.  :func:`measure_order` — the
replay-based cost — remains available as the ground-truth instrument
tests and diagnostics compare the estimator against.
"""

import itertools

from repro.engine.ir import AssignAtom, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import PlanError, build_plan, default_var_order
from repro.storage.relation import Relation


def candidate_orders(rule, limit=120):
    """Valid variable orders for ``rule``'s body, capped at ``limit``.

    An order is valid when every assigned variable follows all its
    inputs.  The default (first-appearance) order is always included
    and listed first.
    """
    try:
        base = default_var_order(rule.body)
    except PlanError:
        return []
    plan = rule.plan()
    names = list(plan.var_order)
    deps = {}
    for atom in rule.body:
        if isinstance(atom, AssignAtom):
            deps.setdefault(atom.var, set()).update(atom.input_vars())
    orders = [tuple(names)]
    if len(names) <= 1:
        return orders
    seen = {tuple(names)}
    for permutation in itertools.permutations(names):
        if len(orders) >= limit:
            break
        if permutation in seen:
            continue
        positions = {name: i for i, name in enumerate(permutation)}
        valid = all(
            all(positions.get(dep, -1) < positions[var] for dep in var_deps)
            for var, var_deps in deps.items()
            if var in positions
        )
        if valid:
            seen.add(permutation)
            orders.append(permutation)
    return orders


def sample_relations(relations, sample_size, seed=0):
    """Down-sample every relation to at most ``sample_size`` tuples.

    Samples are cached per relation version (structural hash), the
    moral equivalent of the paper's maintained predicate samples.
    """
    sampled = {}
    for name, relation in relations.items():
        if len(relation) <= sample_size:
            sampled[name] = relation
        else:
            sampled[name] = Relation.from_iter(
                relation.arity, relation.sample(sample_size, seed)
            )
    return sampled


def measure_order(rule, relations, var_order):
    """Search steps LFTJ takes for this order on the given relations.

    The replay-based ground truth the estimator approximates; used by
    tests and diagnostics, not by the optimizer's scoring loop.
    """
    try:
        plan = rule.plan(var_order)
    except PlanError:
        return None
    stats = {}
    executor = LeapfrogTrieJoin(plan, relations, stats=stats)
    for _ in executor.run():
        pass
    steps = stats.get("steps", 0)
    indexes = sum(1 for ap in plan.atom_plans if plan.needs_index(ap))
    return steps, indexes


def prefix_cardinality(relation, columns, cache=None, cache_key=None):
    """Distinct count of ``relation`` projected onto ``columns``.

    ``cache`` (a dict) memoizes per ``(cache_key, columns)`` — the
    optimizer keys it by relation version so counts are shared across
    candidate orders and evaluation rounds.
    """
    columns = tuple(columns)
    if not columns:
        return 1
    if cache is not None:
        full_key = (cache_key, columns)
        count = cache.get(full_key)
        if count is not None:
            return count
    count = len({tuple(t[c] for c in columns) for t in relation})
    if cache is not None:
        cache[full_key] = count
    return count


def estimate_order_cost(rule, relations, var_order, cache=None):
    """AGM-style chain estimate of LFTJ cost for one variable order.

    Returns ``(cost, indexes)`` comparable with :func:`measure_order`'s
    result shape, or ``None`` when the order does not plan.  ``cost``
    is the sum over levels of the estimated binding-frontier size: the
    frontier grows by the minimum extension ratio
    ``distinct(prefix+1)/distinct(prefix)`` over the level's
    participating atoms, and an assignment level contributes one value
    per frontier row.
    """
    try:
        plan = rule.plan(var_order)
    except PlanError:
        return None
    ratios_of = []
    for atom_plan in plan.atom_plans:
        relation = relations[atom_plan.pred]
        cache_key = (atom_plan.pred, relation.structural_hash())
        n_const = len(atom_plan.const_prefix)
        counts = [
            prefix_cardinality(relation, atom_plan.perm[:length], cache, cache_key)
            for length in range(n_const + len(atom_plan.levels) + 1)
        ]
        ratios_of.append([
            counts[k + 1] / float(max(counts[k], 1)) for k in range(len(counts) - 1)
        ])
    frontier = 1.0
    cost = 0.0
    for level in range(len(plan.var_order)):
        participants = plan.participants[level]
        if participants:
            ratio = min(
                ratios_of[atom_index][len(plan.atom_plans[atom_index].const_prefix) + depth]
                for atom_index, depth in participants
            )
            frontier *= ratio
        cost += frontier
    indexes = sum(1 for ap in plan.atom_plans if plan.needs_index(ap))
    return cost, indexes


class SamplingOptimizer:
    """Pluggable ``order_chooser`` for :class:`Evaluator`.

    Scores every candidate order with the sampled chain estimate
    (:func:`estimate_order_cost`) and picks the cheapest, caching the
    decision per (rule, input-version) so repeated evaluation rounds do
    not re-optimize.  Prefix cardinalities are likewise cached per
    relation version, so adding a candidate order costs arithmetic
    only — no sample join replays.
    """

    def __init__(self, sample_size=256, max_candidates=24, seed=0):
        self.sample_size = sample_size
        self.max_candidates = max_candidates
        self.seed = seed
        self._cache = {}
        self._sample_cache = {}
        self._prefix_cache = {}  # (pred, version, columns) -> distinct count

    def _version_key(self, rule, relations):
        parts = [id(rule)]
        for pred in sorted(rule.body_preds()):
            relation = relations.get(pred)
            parts.append(relation.structural_hash() if relation is not None else 0)
        return tuple(parts)

    def _sampled(self, relations, preds):
        env = {}
        for pred in preds:
            relation = relations.get(pred)
            if relation is None:
                continue
            key = (pred, relation.structural_hash())
            sampled = self._sample_cache.get(key)
            if sampled is None:
                sampled = sample_relations({pred: relation}, self.sample_size, self.seed)[pred]
                self._sample_cache[key] = sampled
            env[pred] = sampled
        return env

    def __call__(self, rule, relations):
        """The chosen variable order for ``rule`` (or ``None`` for the
        planner default)."""
        if not any(isinstance(atom, PredAtom) for atom in rule.body):
            return None
        key = self._version_key(rule, relations)
        if key in self._cache:
            return self._cache[key]
        preds = rule.body_preds()
        if any(pred not in relations for pred in preds):
            # virtual predicates (delta passes): keep the default order
            self._cache[key] = None
            return None
        orders = candidate_orders(rule, self.max_candidates)
        if len(orders) <= 1:
            self._cache[key] = None
            return None
        env = self._sampled(relations, preds)
        best_order, best_cost = None, None
        for order in orders:
            cost = estimate_order_cost(rule, env, order, self._prefix_cache)
            if cost is None:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_order = order
        self._cache[key] = best_order
        return best_order

    def _scaled_steps(self, rule, relations, sampled_steps):
        """Extrapolate sampled steps to full-size inputs (linear in the
        down-sampling ratio of the largest body relation)."""
        ratio = 1.0
        for pred in rule.body_preds():
            relation = relations.get(pred)
            if relation is None:
                continue
            size = len(relation)
            if size > self.sample_size:
                ratio = max(ratio, size / float(self.sample_size))
        return int(sampled_steps * ratio)

    def explain_rule(self, rule, relations):
        """The optimizer's prediction for ``rule`` on these inputs.

        Returns ``(var_order, estimated_steps, indexes)`` with steps
        extrapolated to full input size — the EXPLAIN ANALYZE side of
        the estimate-vs-actual comparison — or ``None`` when the rule
        has no joinable body atoms or does not plan.  When the chooser
        kept the planner default, the default order is scored so every
        rule still gets an estimate."""
        if not any(isinstance(atom, PredAtom) for atom in rule.body):
            return None
        preds = rule.body_preds()
        if any(pred not in relations for pred in preds):
            return None
        order = self(rule, relations)
        if order is None:
            try:
                order = tuple(rule.plan().var_order)
            except PlanError:
                return None
        env = self._sampled(relations, preds)
        cost = estimate_order_cost(rule, env, order, self._prefix_cache)
        if cost is None:
            return None
        estimated = self._scaled_steps(rule, relations, cost[0])
        return order, estimated, cost[1]

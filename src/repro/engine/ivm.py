"""Incremental view maintenance (paper §3.2, T3).

The maintenance problem is split exactly as the paper describes:

* **Rule-body maintenance**: the set of satisfying assignments is
  maintained by *delta passes* — for a body ``A1, ..., Ak`` and a
  changed atom position ``i``, join ``new_1 .. new_{i-1}, Δ_i,
  old_{i+1} .. old_k`` (the telescoping identity makes the signed union
  over ``i`` exactly the change in the satisfying-assignment multiset).
  A changed atom is its *changed prefixes*, the columns holding no
  local existential variable: the delta's own tuples when there is no
  such column, else the projections whose existence the delta flips.
  Negated atoms flip the sign.  Every pass leads with those prefixes
  (:meth:`~repro.engine.evaluator.Evaluator.run_pass`), so its work is
  bounded by the delta.
* **Rule-head maintenance**: support counts per derived tuple for plain
  rules, stored only above one (a tuple derived once is counted by its
  presence in the relation); per-group aggregation state for P2P
  rules; recursive strata fall back to delete/rederive
  (:mod:`repro.engine.dred`).  A stratum's count or group changes are
  gathered first and written into their map once, as two sorted runs
  (:meth:`~repro.ds.pmap.PMap.write`); its row changes leave as a
  :class:`~repro.storage.relation.Delta` of sorted runs, which
  :meth:`~repro.storage.relation.Relation.apply` writes as they are.

One loop (:meth:`IncrementalEngine.apply`) visits every stratum a
changed predicate reaches; :class:`DRedEngine`, the E5 baseline, runs
it with DRed for every stratum.

Maintenance records no sensitivity intervals and reads none: §3.2's
whole-rule skip is not taken (DESIGN.md §3).  Only a transaction's
initial run records them, through the ``recorder`` it hands
:meth:`IncrementalEngine.initialize`; repair (§3.4) reads them to find
conflicts.
"""

from repro import obs
from repro import stats as global_stats
from repro.ds.pset import PSet
from repro.engine.aggregates import AGGREGATES, agg_add, agg_remove
from repro.engine.dred import maintain_recursive_stratum
from repro.engine.evaluator import Evaluator, RuleSet, _check_functional
from repro.engine.ir import PredAtom
from repro.engine.planner import prefix_exists, same_columns
from repro.storage.relation import Delta


class Materialization:
    """Relations + per-predicate state.

    Immutable snapshot: maintenance produces a new one, so
    materializations version and branch with workspaces.
    """

    __slots__ = ("relations", "states")

    def __init__(self, relations, states):
        self.relations = relations  # name -> Relation (base + derived)
        self.states = states  # name -> PredicateState


class IncrementalEngine:
    """Materializes a rule set and maintains it under base-data deltas.

    ``params`` bind a cached shape's literals
    (:class:`~repro.engine.evaluator.Evaluator`).
    """

    def __init__(self, ruleset, *, params=()):
        self.ruleset = ruleset
        self.evaluator = Evaluator(ruleset, params=params)

    # -- initial materialization --------------------------------------------

    def initialize(self, base_relations, reuse=None, recorder=None):
        """Full evaluation.

        ``reuse`` carries over the relations and states of predicates
        unaffected by a program change (the live-programming path,
        §3.3).  ``recorder`` (a
        :class:`~repro.engine.sensitivity.SensitivityRecorder`) records
        every join's sensitivity intervals.
        """
        return Materialization(*self.evaluator.evaluate(
            base_relations, recorder, reuse=reuse))

    # -- maintenance ---------------------------------------------------------

    def apply(self, mat, base_deltas):
        """Maintain the materialization under base-predicate deltas.

        ``base_deltas`` maps base predicate names to :class:`Delta`.
        Returns ``(new_materialization, all_deltas)`` where
        ``all_deltas`` includes the propagated deltas of every changed
        derived predicate (the paper's ``T^Δ`` "propagated forward to
        other rules").
        """
        with obs.span("ivm.apply", base_preds=len(base_deltas)) as span_:
            global_stats.bump("ivm.applies")
            old_relations = mat.relations
            new_relations = dict(old_relations)
            new_states = dict(mat.states)
            deltas = {}
            base_tuples = 0
            for pred, delta in base_deltas.items():
                base = old_relations.get(pred)
                if base is None:
                    raise KeyError("unknown base predicate {}".format(pred))
                normalized = delta.normalized(base)
                if normalized:
                    deltas[pred] = normalized
                    new_relations[pred] = base.apply(normalized)
                    base_tuples += len(normalized.added) + len(normalized.removed)
            global_stats.bump("ivm.delta_tuples", base_tuples)

            for stratum, recursive in zip(
                self.ruleset.strata, self.ruleset.recursive_flags
            ):
                rules = [rule for pred in stratum for rule in self.ruleset.rules_by_head[pred]]
                # a stratum none of whose rule bodies read a changed
                # predicate cannot change; skipping it before opening a
                # span keeps traces to the strata actually visited
                if not any(p in deltas for rule in rules for p in rule.body_preds()):
                    continue
                changed = self._maintain(stratum, recursive, rules, old_relations,
                                         new_relations, new_states, deltas)
                for pred, delta in changed.items():
                    if not delta:
                        continue
                    if not recursive:  # DRed counts its own work (dred.*)
                        global_stats.bump("ivm.delta_tuples",
                                          len(delta.added) + len(delta.removed))
                    new_relations[pred] = new_relations[pred].apply(delta)
                    _check_functional(pred, self.ruleset.rules_by_head[pred][0],
                                      new_relations[pred], delta.added)
                    deltas[pred] = delta
            if span_ is not None:
                span_.attrs.update(base_tuples=base_tuples, changed_preds=len(deltas))
            return Materialization(new_relations, new_states), deltas

    def _maintain(self, stratum, recursive, rules, old_relations, new_relations,
                  new_states, deltas):
        """The deltas of one visited stratum, not yet applied: DRed for
        a recursive stratum; else its one predicate's support counts or
        aggregate groups, updated by the signed passes of its rules."""
        if recursive:
            return maintain_recursive_stratum(
                self.evaluator, stratum, old_relations, new_relations, deltas)
        pred = stratum[0]
        agg = rules[0].agg
        kind = {"rules": len(rules)} if agg is None else {"agg": agg.fn}
        with obs.span("ivm.maintain", pred=pred, **kind) as span_:
            update = _update_counts if agg is None else _update_groups
            delta, new_states[pred], attrs = update(
                self.evaluator, pred, new_states[pred], new_relations[pred],
                self._passes(rules, old_relations, new_relations, deltas))
            if span_ is not None:
                span_.attrs.update(attrs)
        return {pred: delta}

    def _passes(self, rules, old_relations, new_relations, deltas):
        """Yield ``(rule, sign, var_order, bindings)`` per delta pass of
        ``rules``, one per changed body atom and sign
        (:func:`_changed_prefixes`).  A delta's runs are bulk-loaded
        into lead sets once, however many atoms read them as they are."""
        leads = {}  # pred -> its delta's (added, removed) lead sets
        for rule in rules:
            env = {tag + atom.pred: relations[atom.pred]
                   for atom in rule.body if isinstance(atom, PredAtom)
                   for tag, relations in (("@new:", new_relations), ("@old:", old_relations))}
            for position, atom in enumerate(rule.body):
                if not isinstance(atom, PredAtom) or not deltas.get(atom.pred):
                    continue
                for sign, prefixes in _changed_prefixes(
                    rule, position, deltas[atom.pred], old_relations, new_relations,
                    leads,
                ):
                    if prefixes:
                        var_order, bindings = self.evaluator.run_pass(
                            rule, position, prefixes, env, new="@new:", old="@old:")
                        yield rule, sign, var_order, bindings


def _changed_prefixes(rule, position, delta, old_relations, new_relations, leads):
    """``((1, gained), (-1, lost))``: the prefixes of body atom
    ``position`` whose truth ``delta`` flips (a negated atom swaps the
    two).

    An atom with no local column is its delta's tuples: each run is
    bulk-loaded as it is, with no second sort, once per predicate
    (``leads`` keeps the sets).
    For one with a local column, a prefix is a tuple's
    bound :meth:`~repro.engine.rules.Rule.prefix_columns`, and a
    changed tuple witnesses it (when its repeated local columns agree);
    an added prefix is kept when it is absent in the old relation, a
    removed one when it is absent in the new.  Each distinct prefix is
    probed once.
    """
    atom = rule.body[position]
    bound, local = rule.prefix_columns(position)
    if not local:
        sets = leads.get(atom.pred)
        if sets is None:
            sets = leads[atom.pred] = (PSet.from_sorted(delta.added),
                                       PSet.from_sorted(delta.removed))
        added, removed = sets
    else:
        perm = bound + local
        same = same_columns(atom.args, perm, len(bound))
        added, removed, seen = [], [], set()
        for kept, tuples, other in ((added, delta.added, old_relations[atom.pred]),
                                    (removed, delta.removed, new_relations[atom.pred])):
            for tup in tuples:
                prefix = tuple(tup[p] for p in bound)
                if prefix in seen or any(tup[perm[i]] != tup[perm[j]] for i, j in same):
                    continue
                seen.add(prefix)
                if not prefix_exists(other, perm, prefix, same):
                    kept.append(prefix)
    return ((1, removed), (-1, added)) if atom.negated else ((1, added), (-1, removed))


def _update_counts(evaluator, pred, state, present, passes):
    """``(delta or None, state, span attrs)`` of a counted predicate after
    ``passes``.  Only counts above one are stored: a head of the
    (pre-pass) relation ``present`` without an entry has one
    derivation."""
    count_changes = {}
    for rule, sign, var_order, bindings in passes:
        project = evaluator.head_projector(rule, var_order)
        for binding in bindings:
            head = project(binding)
            count_changes[head] = count_changes.get(head, 0) + sign
    counts = state.counts
    added, removed, writes, drops = [], [], [], []
    support_updates = 0
    for head, change in count_changes.items():
        if change == 0:
            continue
        support_updates += 1
        stored = counts.get(head)
        old_count = stored if stored is not None else int(head in present)
        new_count = old_count + change
        if new_count < 0:
            raise AssertionError("negative support count for {} {}".format(pred, head))
        if new_count > 1:
            writes.append((head, new_count))
        elif stored is not None:
            drops.append(head)
        if new_count == 0:
            removed.append(head)
        elif old_count == 0:
            added.append(head)
    count_writes = len(writes) + len(drops)
    global_stats.bump("ivm.support_updates", support_updates)
    global_stats.bump("ivm.count_writes", count_writes)
    if count_writes:
        writes.sort()
        drops.sort()
        state = state.replace(counts=counts.write(drops, writes))
    added.sort()
    removed.sort()
    return Delta(tuple(added), tuple(removed)) if added or removed else None, state, {
        "support_updates": support_updates, "count_writes": count_writes,
        "added": len(added), "removed": len(removed)}


def _update_groups(evaluator, pred, state, present, passes):
    """``(delta or None, state, span attrs)`` of an aggregate predicate after
    ``passes``: each binding adds its value to, or removes it from, its
    group's state."""
    fn = state.agg_fn
    aggregate = AGGREGATES[fn]
    groups = state.groups
    touched = {}  # group key -> its state before the passes, and after
    for rule, sign, var_order, bindings in passes:
        project = evaluator.head_projector(rule, var_order, drop_last=True)
        value_position = var_order.index(rule.agg.value_var)
        for binding in bindings:
            group_key = project(binding)
            value = binding[value_position]
            before_after = touched.get(group_key)
            if before_after is None:
                stored = groups.get(group_key)
                before_after = touched[group_key] = [stored, stored]
            current = before_after[1]
            if current is None:
                current = aggregate.empty()
            if sign > 0:
                before_after[1] = agg_add(fn, current, value)
            else:
                updated = agg_remove(fn, current, value)
                before_after[1] = None if updated.is_empty() else updated
    attrs = {"groups_touched": len(touched)}
    if not touched:
        return None, state, attrs
    global_stats.bump("ivm.support_updates", len(touched))
    added, removed, writes, drops = [], [], [], []
    for group_key, (old_state, new_state) in sorted(touched.items()):
        if new_state is not None:
            writes.append((group_key, new_state))
        elif old_state is not None:
            drops.append(group_key)
        old, new = (None if group is None or group.is_empty() else aggregate.result(group)
                    for group in (old_state, new_state))
        if old != new:
            if old is not None:
                removed.append(group_key + (old,))
            if new is not None:
                added.append(group_key + (new,))
    return (Delta(tuple(added), tuple(removed)),
            state.replace(groups=groups.write(drops, writes)), attrs)


class DRedEngine(IncrementalEngine):
    """Whole-program DRed maintenance — the classical baseline (E5).

    The engine's maintenance loop with delete/rederive
    (:mod:`repro.engine.dred`) for *every* stratum, an aggregate
    recomputed from scratch, and no counts read.  ``initialize`` /
    ``apply`` take and return plain relation dicts.
    """

    def __init__(self, ruleset):
        super().__init__(ruleset)

    def initialize(self, base_relations):
        """Full evaluation: the relations."""
        return super().initialize(base_relations).relations

    def apply(self, relations, base_deltas):
        """Maintain all derived predicates under base deltas: returns
        ``(relations, all_deltas)``."""
        mat, deltas = super().apply(Materialization(relations, {}), base_deltas)
        return mat.relations, deltas

    def _maintain(self, stratum, recursive, rules, old_relations, new_relations,
                  new_states, deltas):
        if rules[0].agg is None:
            return maintain_recursive_stratum(
                self.evaluator, stratum, old_relations, new_relations, deltas)
        fresh, _ = Evaluator(RuleSet(rules)).evaluate(new_relations)
        return {pred: old_relations[pred].diff(fresh[pred]) for pred in stratum}

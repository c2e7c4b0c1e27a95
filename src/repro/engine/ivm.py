"""Incremental view maintenance (paper §3.2, T3).

The maintenance problem is split exactly as the paper describes:

* **Rule-body maintenance**: the set of satisfying assignments is
  maintained by *delta passes* — for a body ``A1, ..., Ak`` and a
  changed atom position ``i``, join ``new_1 .. new_{i-1}, Δ_i,
  old_{i+1} .. old_k`` (the telescoping identity makes the signed union
  over ``i`` exactly the change in the satisfying-assignment multiset).
  Negated atoms flip the sign of their deltas.  Every pass leads with
  its delta atom, so its work is bounded by the delta; a rule is
  visited only when its body reads a changed predicate.
* **Rule-head maintenance**: support counts per derived tuple for plain
  rules, stored only above one (a tuple derived once is counted by its
  presence in the relation); per-group aggregation state for P2P
  rules; recursive strata fall back to delete/rederive
  (:mod:`repro.engine.dred`).

Sensitivity intervals are recorded only by an engine built with
``track_sensitivity=True`` — transaction repair (§3.4), which reads
them to find conflicts.  There, each pass records the regions it
explores into a pass-local recorder, which is then folded into the
rule's index to give the next version's index.  The index therefore
over-approximates the ideal trace sensitivities.  Maintenance never
reads them: §3.2's whole-rule skip is not taken (DESIGN.md §3).
"""

from repro import obs
from repro import stats as global_stats
from repro.ds.pmap import PMap
from repro.engine.aggregates import AGGREGATES, agg_add, agg_remove
from repro.engine.dred import maintain_recursive_stratum
from repro.engine.evaluator import Evaluator, PredicateState, _check_functional
from repro.engine.ir import PredAtom
from repro.engine.iterators import trie_iterator
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.storage.relation import Delta, Relation


class Materialization:
    """Relations + per-predicate state (+ per-rule sensitivities when
    the engine tracks them).

    Immutable snapshot: maintenance produces a new one, so
    materializations version and branch with workspaces.
    """

    __slots__ = ("relations", "states", "rule_indexes")

    def __init__(self, relations, states, rule_indexes=None):
        self.relations = relations  # name -> Relation (base + derived)
        self.states = states  # name -> PredicateState
        self.rule_indexes = rule_indexes or {}  # rule index -> SensitivityIndex


def _fold_into(indexes, rule_index, recorder):
    """Replace one rule's index by it folded with a finished pass."""
    if recorder is not None:
        index = indexes.get(rule_index) or SensitivityIndex()
        indexes[rule_index] = index.fold(recorder)


class IncrementalEngine:
    """Materializes a rule set and maintains it under base-data deltas.

    ``track_sensitivity`` makes every pass record its sensitivity
    intervals into the materialization's ``rule_indexes`` (transaction
    repair reads them); recording keeps those joins on the pure
    executor.  ``params`` bind a cached shape's literals
    (:class:`~repro.engine.evaluator.Evaluator`).
    """

    def __init__(self, ruleset, *, track_sensitivity=False, backend=None,
                 params=()):
        self.ruleset = ruleset
        self.track_sensitivity = track_sensitivity
        self.evaluator = Evaluator(ruleset, backend=backend, params=params)
        self._rule_index = {id(rule): i for i, rule in enumerate(ruleset.rules)}

    # -- initial materialization --------------------------------------------

    def initialize(self, base_relations, reuse=None):
        """Full evaluation.

        ``reuse`` carries over the relations and states of predicates
        unaffected by a program change (the live-programming path,
        §3.3).
        """
        recorders = {}

        def recorder_for(rule):
            index = self._rule_index[id(rule)]
            recorder = recorders.get(index)
            if recorder is None:
                recorder = recorders[index] = SensitivityRecorder()
            return recorder

        relations, states = self.evaluator.evaluate(
            base_relations, reuse=reuse,
            recorder_for=recorder_for if self.track_sensitivity else None,
        )
        return Materialization(relations, states, {
            index: SensitivityIndex().fold(recorder)
            for index, recorder in recorders.items()
        })

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
            indexes = dict(mat.rule_indexes)
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
                if recursive:
                    self._maintain_recursive(
                        stratum, old_relations, new_relations, new_states, deltas
                    )
                else:
                    for pred in stratum:
                        self._maintain_nonrecursive(
                            pred,
                            old_relations,
                            new_relations,
                            new_states,
                            deltas,
                            indexes,
                        )
            new_mat = Materialization(new_relations, new_states, indexes)
            if span_ is not None:
                span_.attrs["base_tuples"] = base_tuples
                span_.attrs["changed_preds"] = len(deltas)
            return new_mat, deltas

    def _signed_bindings(self, rule, old_relations, new_relations, deltas, recorder):
        """Yield ``(sign, var_order, binding)`` for every change to the
        rule body's satisfying-assignment set.

        Atoms without local variables use exact tuple-level telescoping
        (``new_1..new_{i-1}, Δ_i, old_{i+1}..old_k``; negation flips the
        delta's sign).  Atoms with local existential variables use
        existence-diff candidates: the atom's truth for a bound-prefix
        can only change where the delta touches it.  Every pass rule is
        the rule's memoized :meth:`~repro.engine.rules.Rule.delta_pass`.
        """
        for position, atom in enumerate(rule.body):
            if not isinstance(atom, PredAtom):
                continue
            delta = deltas.get(atom.pred)
            if delta is None or not delta:
                continue
            env = {}
            for other in rule.body:
                if isinstance(other, PredAtom):
                    env["@new:" + other.pred] = new_relations[other.pred]
                    env["@old:" + other.pred] = old_relations[other.pred]
            local_positions = rule.local_positions().get(position)
            if not local_positions:
                delta_rule = rule.delta_pass(position, "@delta", "@new:", "@old:")
                arity = new_relations[atom.pred].arity
                passes = [
                    (1, delta.added if not atom.negated else delta.removed),
                    (-1, delta.removed if not atom.negated else delta.added),
                ]
                for sign, tuple_set in passes:
                    if not tuple_set:
                        continue
                    env["@delta"] = Relation(arity, tuple_set)
                    var_order, bindings = self.evaluator.rule_bindings(
                        delta_rule, dict(env), recorder
                    )
                    for binding in bindings:
                        yield sign, var_order, binding
                continue
            # existence-diff path: the pass is led by ``@cand`` over the
            # bound prefixes, or has no lead when no position is bound
            bound_positions = tuple(
                p for p in range(len(atom.args)) if p not in local_positions
            )
            perm = bound_positions + local_positions
            old_rel = old_relations[atom.pred]
            new_rel = new_relations[atom.pred]
            candidates = {}
            for tup in list(delta.added) + list(delta.removed):
                partial = tuple(tup[p] for p in bound_positions)
                if partial in candidates:
                    continue
                exists_old = trie_iterator(old_rel, perm, partial).check_fixed_prefix()
                exists_new = trie_iterator(new_rel, perm, partial).check_fixed_prefix()
                diff = int(exists_new) - int(exists_old)
                if atom.negated:
                    diff = -diff
                candidates[partial] = diff
                if recorder is not None:
                    recorder.record_prefix(atom.pred, perm, partial)
            delta_rule = rule.delta_pass(position, "@cand", "@new:", "@old:")
            for sign in (1, -1):
                matching = [k for k, d in candidates.items() if d == sign]
                if not matching:
                    continue
                env["@cand"] = Relation.from_iter(len(bound_positions), matching)
                var_order, bindings = self.evaluator.rule_bindings(
                    delta_rule, dict(env), recorder
                )
                for binding in bindings:
                    yield sign, var_order, binding

    def _maintain_nonrecursive(
        self, pred, old_relations, new_relations, new_states, deltas, indexes
    ):
        group = self.ruleset.rules_by_head[pred]
        if group[0].agg is not None:
            self._maintain_aggregate(pred, group[0], old_relations, new_relations,
                                     new_states, deltas, indexes)
            return
        # a predicate none of whose rule bodies read a changed predicate
        # cannot change; skipping before opening a span keeps traces to
        # the predicates actually visited (a rule reading no changed
        # predicate has no delta pass, so it yields nothing below)
        if not any(p in deltas for rule in group for p in rule.body_preds()):
            return
        with obs.span("ivm.maintain", pred=pred, rules=len(group)) as span_:
            count_changes = {}
            for rule in group:
                rule_index = self._rule_index[id(rule)]
                recorder = SensitivityRecorder() if self.track_sensitivity else None
                projectors = {}
                for sign, var_order, binding in self._signed_bindings(
                    rule, old_relations, new_relations, deltas, recorder
                ):
                    projector = projectors.get(var_order)
                    if projector is None:
                        projector = projectors[var_order] = self.evaluator.head_projector(
                            rule, var_order)
                    head = projector(binding)
                    count_changes[head] = count_changes.get(head, 0) + sign
                _fold_into(indexes, rule_index, recorder)
            state = new_states[pred]
            # only counts above one are stored: a head of the (pre-pass)
            # relation without an entry has one derivation
            counts, present = state.counts, new_relations[pred]
            added, removed = [], []
            support_updates = count_writes = 0
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
                    counts = counts.set(head, new_count)
                    count_writes += 1
                elif stored is not None:
                    counts = counts.remove(head)
                    count_writes += 1
                if new_count == 0:
                    removed.append(head)
                elif old_count == 0:
                    added.append(head)
            if support_updates:
                global_stats.bump("ivm.support_updates", support_updates)
            if count_writes:
                global_stats.bump("ivm.count_writes", count_writes)
                new_states[pred] = state.replace(counts=counts)
            if span_ is not None:
                span_.attrs.update(support_updates=support_updates, count_writes=count_writes,
                                   added=len(added), removed=len(removed))
            if not added and not removed:
                return
            delta = Delta.from_iters(added, removed)
            global_stats.bump("ivm.delta_tuples", len(added) + len(removed))
            new_relations[pred] = new_relations[pred].apply(delta)
            _check_functional(pred, group[0], new_relations[pred], delta.added)
            deltas[pred] = delta

    def _maintain_aggregate(
        self, pred, rule, old_relations, new_relations, new_states, deltas, indexes
    ):
        if not any(p in deltas for p in rule.body_preds()):
            return
        rule_index = self._rule_index[id(rule)]
        with obs.span("ivm.maintain", pred=pred, agg=rule.agg.fn) as span_:
            recorder = SensitivityRecorder() if self.track_sensitivity else None
            aggregate = AGGREGATES[rule.agg.fn]
            state = new_states[pred]
            groups = state.groups
            touched_groups = {}
            projectors = {}
            for sign, var_order, binding in self._signed_bindings(
                rule, old_relations, new_relations, deltas, recorder
            ):
                spec = projectors.get(var_order)
                if spec is None:
                    spec = projectors[var_order] = (
                        self.evaluator.head_projector(rule, var_order, drop_last=True),
                        list(var_order).index(rule.agg.value_var),
                    )
                projector, value_position = spec
                group_key = projector(binding)
                value = binding[value_position]
                if group_key not in touched_groups:
                    touched_groups[group_key] = groups.get(group_key)
                current = groups.get(group_key)
                if current is None:
                    current = aggregate.empty()
                if sign > 0:
                    groups = groups.set(group_key, agg_add(rule.agg.fn, current, value))
                else:
                    updated = agg_remove(rule.agg.fn, current, value)
                    if updated.is_empty():
                        groups = groups.remove(group_key)
                    else:
                        groups = groups.set(group_key, updated)
            _fold_into(indexes, rule_index, recorder)
            if span_ is not None:
                span_.attrs["groups_touched"] = len(touched_groups)
            if not touched_groups:
                return
            global_stats.bump("ivm.support_updates", len(touched_groups))
            added, removed = [], []
            for group_key, old_state in touched_groups.items():
                old_tuple = (
                    group_key + (aggregate.result(old_state),)
                    if old_state is not None and not old_state.is_empty()
                    else None
                )
                new_state = groups.get(group_key)
                new_tuple = (
                    group_key + (aggregate.result(new_state),)
                    if new_state is not None and not new_state.is_empty()
                    else None
                )
                if old_tuple == new_tuple:
                    continue
                if old_tuple is not None:
                    removed.append(old_tuple)
                if new_tuple is not None:
                    added.append(new_tuple)
            new_states[pred] = state.replace(groups=groups)
            if not added and not removed:
                return
            delta = Delta.from_iters(added, removed)
            global_stats.bump("ivm.delta_tuples", len(added) + len(removed))
            new_relations[pred] = new_relations[pred].apply(delta)
            deltas[pred] = delta

    def _maintain_recursive(
        self, stratum, old_relations, new_relations, new_states, deltas
    ):
        body_preds = set()
        for pred in stratum:
            for rule in self.ruleset.rules_by_head[pred]:
                body_preds |= rule.body_preds()
        if not any(p in deltas for p in body_preds):
            return
        stratum_deltas = maintain_recursive_stratum(
            self.evaluator, stratum, old_relations, new_relations, deltas)
        for pred, delta in stratum_deltas.items():
            if delta:
                new_relations[pred] = new_relations[pred].apply(delta)
                deltas[pred] = delta

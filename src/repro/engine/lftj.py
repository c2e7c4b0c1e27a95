"""Leapfrog triejoin for arbitrary arity (paper §3.2).

Executes a :class:`~repro.engine.planner.Plan`: a backtracking search
through the trie of potential variable bindings, performing a unary
leapfrog join per variable, exactly as the paper describes.  LFTJ is
worst-case optimal for equi-joins [31, 42]: its running time is bounded
by the worst-case cardinality of the query result up to log factors.

Negation is a level operator: a negated atom whose level variable occurs
in it once is a cursor the level's ascending candidates seek forward, one
per parent binding (:meth:`~repro.engine.planner.Probe.cursor`); other
predicate filters are plan-resolved :class:`~repro.engine.planner.Probe`
lookups.

When given a :class:`SensitivityRecorder`, every iterator movement,
negation check, and constant-path probe records the sensitivity
intervals transaction repair reads (§3.4).
"""

from functools import partial

from repro.engine.iterators import SingletonIterator, trie_iterator
from repro.engine.leapfrog import leapfrog
from repro.engine.planner import Probe


class LeapfrogTrieJoin:
    """Executor for one planned rule body over a set of relations.

    ``relations`` maps predicate name to :class:`Relation`.  ``run()``
    yields one tuple of values per satisfying assignment, aligned with
    ``plan.var_order`` (set semantics is the caller's concern: LFTJ
    enumerates satisfying assignments, which are already distinct).
    """

    backend = "pure"
    reason = None

    def __init__(self, plan, relations, recorder=None, *, stats=None):
        self.plan = plan
        self.relations = relations
        self.recorder = recorder
        # optional dict: counts search steps for the optimizer plus
        # seek/next/open movements for the tracing layer (None = free)
        self.stats = stats

    def _check(self, entry):
        """A filter (a comparison or a :class:`Probe`) as a bindings check."""
        if isinstance(entry, Probe):
            return partial(entry.holds, self.relations, self.recorder)
        return entry.check()

    # -- the search ----------------------------------------------------------

    def run(self):
        """Yield all satisfying assignments as ``var_order``-aligned tuples."""
        plan = self.plan
        for comparison in plan.ground_filters:
            if not comparison.holds({}):
                return
        for probe in plan.ground_atoms:
            if not probe.holds(self.relations, self.recorder, {}):
                return
        iters = []
        for atom_plan in plan.atom_plans:
            relation = self.relations[atom_plan.pred]
            it = trie_iterator(relation, atom_plan.perm, atom_plan.const_prefix)
            if atom_plan.const_prefix:
                if self.recorder is not None:
                    for depth in range(len(atom_plan.const_prefix)):
                        self.recorder.record_prefix(atom_plan.pred, atom_plan.perm,
                                                    atom_plan.const_prefix[:depth + 1])
                if not it.check_fixed_prefix():
                    return
            iters.append(it)
        if not plan.var_order:
            yield ()
            return
        filters = [plan.filters[level] for level in range(len(plan.var_order))]
        self._checks = [[self._check(entry) for entry in entries] for entries in filters]
        self._antis = [[(i, e) for i, e in enumerate(f) if getattr(e, "cursor_perm", None)] for f in filters]
        yield from self._descend(0, iters, {}, {})

    def _descend(self, level, iters, bindings, opened):
        plan = self.plan
        var = plan.var_order[level]
        participants = plan.participants[level]
        stats = self.stats
        if stats is not None and participants:
            stats["opens"] = stats.get("opens", 0) + len(participants)
        level_iters = []
        trackers = []
        for atom_index, own_level in participants:
            it = iters[atom_index]
            it.open()
            level_iters.append(it)
            atom_plan = plan.atom_plans[atom_index]
            trackers.append(None if self.recorder is None else self.recorder.tracker(
                atom_plan.pred, atom_plan.perm, len(atom_plan.const_prefix) + own_level,
                it.context()))
        assign = plan.assigns.get(level)
        if assign is not None:
            level_iters.append(SingletonIterator(assign.compute(bindings)))
            trackers.append(None)

        checks = list(self._checks[level])
        for index, anti in self._antis[level]:
            checks[index] = anti.cursor(self.relations, self.recorder, stats, bindings, opened)
        last = level == len(plan.var_order) - 1
        for key in leapfrog(level_iters, trackers, stats):
            if stats is not None:
                stats["steps"] = stats.get("steps", 0) + 1
            bindings[var] = key
            for check in checks:
                if not check(bindings):
                    break
            else:
                if last:
                    yield tuple(bindings[name] for name in plan.var_order)
                else:
                    yield from self._descend(level + 1, iters, bindings, opened)
        for atom_index, _ in participants:
            iters[atom_index].up()
        bindings.pop(var, None)


def join_count(plan, relations):
    """Number of satisfying assignments (used by tests and benches)."""
    return sum(1 for _ in LeapfrogTrieJoin(plan, relations).run())

"""Integrity constraint checking (paper §2.2.1).

A hard constraint ``F -> G`` is the rule ``fail() <- F, !G``: the
compiler lowers each one to hidden derived rules
(:class:`~repro.logiql.compiler.Constraint`), the program adds them to
its rule set, and the incremental engine maintains the
violation view under every commit at the cost of the delta joins.
Checking is then reading those views: a constraint holds exactly when
its view is empty.

Pure primitive-type declarations are not constraints; the workspace
checks them per tuple.  Soft (weighted) constraints are never enforced
here — they define the MAP-inference objective in
:mod:`repro.prob.mln`.
"""

import itertools

from repro.engine.planner import PlanError
from repro.runtime.errors import TransactionAborted

#: violating bindings reported per constraint
VIOLATION_LIMIT = 10


def unchecked_reason(constraint):
    """Why hard ``constraint`` could never be checked, or ``None``: its
    rules cannot be planned, or it reads a transaction-local (delta or
    ``@start``) predicate, which no state materializes."""
    local = sorted(p for p in constraint.preds if p[0] in "+-" or p.endswith("@start"))
    if local:
        return "it reads transaction-local {}".format(local)
    for rule in constraint.rules:
        try:
            rule.plan()
        except PlanError as exc:
            return str(exc)
    return None


def refuse_unchecked(constraints):
    """Raise :class:`TransactionAborted` naming the first hard
    constraint of ``constraints`` that could never be checked — the
    program-edit path's refusal."""
    for constraint in constraints:
        reason = None if constraint.is_soft else unchecked_reason(constraint)
        if reason is not None:
            raise TransactionAborted(
                "constraint {} cannot be checked: {}".format(constraint.text, reason))


class ConstraintChecker:
    """Reads the violation views of a set of hard constraints.

    A constraint that could never be checked is set aside in
    ``unchecked`` as ``(constraint, reason)`` and its rules are left
    out of the program.  ``addblock`` refuses such constraints, so they
    only come from a checkpoint written before it did; it still opens,
    and removing the offending block restores full checking.
    """

    def __init__(self, constraints):
        self.constraints, self.unchecked = [], []
        for constraint in constraints:
            if constraint.is_soft:
                continue
            reason = unchecked_reason(constraint)
            if reason is None:
                self.constraints.append(constraint)
            else:
                self.unchecked.append((constraint, reason))

    def check(self, relations, changed_preds=None, exempt_preds=()):
        """Violations as ``(constraint, binding)`` pairs, up to
        :data:`VIOLATION_LIMIT` per constraint.

        ``relations`` must hold the violation views (any state's
        relations, or an evaluation of the program's rule set).
        ``changed_preds`` narrows the check to constraints that mention
        a changed predicate; ``None`` checks everything.
        ``exempt_preds`` suspends constraints mentioning those
        predicates — used for unsolved ``lang:solve:variable``
        predicates, which the system (not the user) must populate.
        """
        violations = []
        for constraint in self.constraints:
            if changed_preds is not None and not constraint.preds & changed_preds:
                continue
            if not constraint.preds.isdisjoint(exempt_preds):
                continue
            failed = relations.get(constraint.fail_pred)
            if not failed:
                continue
            for row in itertools.islice(failed, VIOLATION_LIMIT):
                violations.append((constraint, dict(zip(constraint.fail_vars, row))))
        return violations

"""Transaction repair: full serializability without locks (paper §3.4).

Every transaction runs on its own O(1) branch of the workspace and
produces:

* **transaction effects** — the base-predicate deltas it wants to
  commit (``+inventory[l] = 1`` etc.); and
* **transaction sensitivities** — the intervals of the input workspace
  its execution depended on, recorded by LFTJ while evaluating the
  transaction's reactive rules.

Two concurrent transactions conflict when the first one's *effects*
intersect the second one's *sensitivities*.  Conflicts are not resolved
by blocking: the second transaction is *repaired* — its reactive-rule
materialization is incrementally maintained under the incoming
corrections (the first transaction's effects), exactly the machinery of
§3.2.  Composing pairs yields the binary transaction circuit of
Figure 7; a whole batch commits together, serializable in circuit
order.
"""

import itertools
import time

from repro import obs
from repro import stats as global_stats
from repro.engine.evaluator import FunctionalDependencyViolation
from repro.engine.ir import PredAtom
from repro.engine.ivm import IncrementalEngine
from repro.engine.planner import base_pred
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.logiql.compiler import start_pred
from repro.logiql.shapes import compile_shape
from repro.runtime.errors import TransactionAborted
from repro.storage.relation import Delta, Relation


class PreparedTransaction:
    """One transaction in the repair framework (Figure 7a).

    Built from LogiQL reactive source, compiled once per shape
    (:mod:`repro.logiql.shapes`); ``execute`` runs it against a
    workspace state, together with the reactive rules that state's
    program installs, after which ``effects`` / ``sensitivity`` are
    available and ``correct`` may be called any number of times with
    incoming corrections.  Every exec runs here, whichever verb or
    transport carries it.
    """

    def __init__(self, source, name=None):
        shape, params = compile_shape(source)
        block = shape.block
        if (block.rules or block.constraints or block.decls or block.entities
                or block.directives or block.predict_rules or block.prob_rules):
            raise TransactionAborted(
                "exec transactions may only contain reactive logic; "
                "use addblock for facts, declarations and derivation rules")
        self.name = name
        # the shape's rules are shared; this transaction's state is its
        # engine's (delta rules, materialization) and its literals
        self._shape = shape
        self._params = params
        self.ruleset = None
        self.engine = None
        self._mat = None
        self._recorder = None  # the execute run's, until sensitivity() reads it
        self._index = None
        self.effects = {}
        self.repair_count = 0
        self.execute_seconds = 0.0
        self.repair_seconds = 0.0

    def _extract_effects(self):
        """One base delta per written predicate, empty ones included (a
        write matching no row still names its target, so committing it
        meets the derived-predicate check), in name order, read off the
        ``+p`` / ``-p`` relations as they are.  A row both inserted and
        deleted is deleted."""
        relations = self._mat.relations
        effects = {}
        for pred in sorted({head[1:] for head in self.ruleset.derived}):
            added, removed = (relations.get(sign + pred, ()) for sign in "+-")
            effects[pred] = Delta(tuple(t for t in added if t not in removed),
                                  tuple(removed))
        self.effects = effects

    def _env(self, state):
        """The ``@start`` environment of ``state``, plus an empty relation
        for every predicate a body reads that neither the state nor the
        rules supply (a ``+p`` / ``-p`` no rule here derives)."""
        env = state.start_env()
        derived = self.ruleset.derived
        for rule in self.ruleset.rules:
            for atom in rule.body:
                if (isinstance(atom, PredAtom) and atom.pred not in env
                        and atom.pred not in derived):
                    env[atom.pred] = Relation.empty(
                        state.artifacts.arity_of(atom.pred) or len(atom.args))
        return env

    @staticmethod
    def _maintain(step, *args):
        """``step(*args)``; a ``+p`` / ``-p`` head with two values for
        one key aborts the transaction as its commit would."""
        try:
            return step(*args)
        except FunctionalDependencyViolation as exc:
            raise TransactionAborted("{}[{}] written with conflicting values".format(
                base_pred(exc.pred), exc.key)) from None

    # -- the transaction interface (Figure 7a) --------------------------------

    def execute(self, state, *, record=True):
        """Run against ``state``; records effects and sensitivities.

        ``record=False`` is for a caller that checks this run against no
        other transaction (a bare :meth:`Workspace.exec`): the run records
        nothing, so each join picks its executor freely, and a later
        :meth:`sensitivity` call records on demand."""
        with obs.span("repair.execute", txn=self.name) as span_:
            global_stats.bump("repair.executes")
            started = time.perf_counter()
            self.ruleset = self._shape.reactive_ruleset(
                state.artifacts.reactive_rules)
            self.engine = IncrementalEngine(self.ruleset, params=self._params)
            self._recorder = SensitivityRecorder() if record else None
            self._index = None
            self._mat = self._maintain(
                self.engine.initialize, self._env(state), None, self._recorder)
            self._extract_effects()
            self.execute_seconds = time.perf_counter() - started
            global_stats.observe("repair.execute.seconds", self.execute_seconds)
            if span_ is not None:
                span_.attrs["effects"] = len(self.effects)
            return self.effects

    def sensitivity(self):
        """The sensitivity index of this transaction's run, built on the
        first call.  After a repair, or after a run that recorded
        nothing, it is that of one recorded evaluation over the
        (corrected) inputs (``_mat``'s non-derived relations): what a
        fresh run on that state records."""
        if self._index is None:
            recorder = self._recorder
            if recorder is None:
                recorder = SensitivityRecorder()
                derived = self.ruleset.derived
                self.engine.evaluator.evaluate(
                    {name: relation for name, relation in self._mat.relations.items()
                     if name not in derived},
                    recorder, keep_state=False)
            self._index, self._recorder = SensitivityIndex(recorder), None
        return self._index

    def relevant_corrections(self, corrections):
        """The corrections this transaction must be repaired with: all
        of them when any tuple lands inside its sensitivity intervals,
        none otherwise.  Changes outside the intervals cannot alter the
        run, but once one inside does, the repaired run may read where
        the others landed (for ``A(x), B(x)``: ``A(7)`` outside, then
        ``B(7)`` inside)."""
        index = self.sensitivity()
        for pred, delta in corrections.items():
            for tup in itertools.chain(delta.added, delta.removed):
                if index.tuple_affects(pred, tup):
                    return dict(corrections)
        return {}

    def correct(self, corrections):
        """Incrementally repair under corrections (a dict of base
        deltas); updates effects.  This is the Figure 7(a) corrections
        input: the transaction's reactive materialization is maintained,
        not re-executed, and records nothing (the next
        :meth:`sensitivity` re-records)."""
        with obs.span("repair.correct", txn=self.name) as span_:
            global_stats.bump("repair.corrects")
            started = time.perf_counter()
            start_deltas = {}
            for pred, delta in corrections.items():
                name = start_pred(pred)
                if name in self._mat.relations:
                    start_deltas[name] = delta
            if start_deltas:
                self._mat, _ = self._maintain(
                    self.engine.apply, self._mat, start_deltas)
                self._recorder = self._index = None
                self._extract_effects()
            self.repair_count += 1
            elapsed = time.perf_counter() - started
            self.repair_seconds += elapsed
            global_stats.observe("repair.correct.seconds", elapsed)
            if span_ is not None:
                span_.attrs["corrected_preds"] = len(start_deltas)
            return self.effects


def compose_corrections(first, second):
    """Compose two correction maps (apply ``first``, then ``second``)."""
    composed = dict(first)
    for pred, delta in second.items():
        if pred in composed:
            composed[pred] = composed[pred].then(delta)
        else:
            composed[pred] = delta
    return composed


def repair_circuit(members, start=None):
    """The Figure 7(b) circuit: compose ``members`` (anything with
    ``relevant_corrections``, ``correct`` and ``effects``) left to
    right, repairing member *i* when ``start(member)`` (what changed
    since its snapshot) followed by the effects of members ``0..i-1``
    meets its sensitivities.  Returns ``(composite, repaired,
    failed)``; a member whose step raises is in ``failed`` as
    ``(member, error)`` and its effects do not compose."""
    composite = {}
    repaired = []
    failed = []
    for member in members:
        try:
            corrections = start(member) if start is not None else {}
            if composite:
                corrections = compose_corrections(corrections, composite)
            relevant = (
                member.relevant_corrections(corrections) if corrections else {})
            if relevant:
                member.correct(relevant)
                repaired.append(member)
        except Exception as exc:
            failed.append((member, exc))
            continue
        composite = compose_corrections(composite, member.effects)
    return composite, repaired, failed


class RepairScheduler:
    """Commits a batch of concurrent transactions serializably (Fig 7b).

    All transactions execute against the same initial workspace version
    (each on its own conceptual branch — O(1)).  :func:`repair_circuit`
    then composes them left to right, and the combined effects commit
    through the workspace's incremental maintenance and constraint
    checking as one group.
    """

    def __init__(self, workspace):
        self.workspace = workspace
        self.stats = {
            "transactions": 0,
            "repairs": 0,
            "execute_seconds": 0.0,
            "repair_seconds": 0.0,
        }

    def run(self, transactions, commit=True):
        """Execute + repair + (optionally) commit a batch.

        ``transactions`` are LogiQL sources or
        :class:`PreparedTransaction` objects.  Returns the list of
        prepared transactions (with per-txn stats filled in).
        """
        # the scheduler drives engine work outside the workspace's own
        # transaction methods, so route counters into its sink explicitly
        with self.workspace.stats_scope():
            with obs.span("txn.repair_batch", batch=len(transactions)) as span_:
                state = self.workspace.state
                prepared = [
                    txn
                    if isinstance(txn, PreparedTransaction)
                    else PreparedTransaction(txn)
                    for txn in transactions
                ]
                # Phase 1: run all transactions against the same branch point.
                for txn in prepared:
                    txn.execute(state)
                    self.stats["transactions"] += 1
                    self.stats["execute_seconds"] += txn.execute_seconds
                # Phase 2: compose left-to-right, repairing on conflict.
                composite, repaired, failed = repair_circuit(prepared)
                if failed:
                    raise failed[0][1]
                self.stats["repairs"] += len(repaired)
                self.stats["repair_seconds"] += sum(
                    txn.repair_seconds for txn in repaired)
                if span_ is not None:
                    span_.attrs["repairs"] = len(repaired)
                # Phase 3: commit the composite effects as one group.
                if commit and composite:
                    self.workspace._apply_deltas(state, composite)
                return prepared

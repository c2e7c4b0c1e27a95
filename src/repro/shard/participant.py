"""The shard participant: a service's side of the cross-shard circuit.

A sharded commit is not 2PC: there is no blocking prepared state
holding locks.  The coordinator (:mod:`repro.shard.coordinator`) runs
the transaction-repair circuit of Figure 7(b) *across* shards: every
shard executes the transaction against its own snapshot
(``shard_prepare``), the coordinator composes the shards' effects into
corrections and repairs each shard against the others' writes
(``shard_repair``), then commits the final composed deltas shard by
shard (``shard_commit``).  A local commit racing the circuit
invalidates the token's snapshot; the shard refuses to repair locally
(that would diverge it from its siblings) and the coordinator re-runs
the whole circuit from fresh snapshots.

:class:`ShardParticipant` is a mixin of
:class:`~repro.service.TransactionService`.  It reaches the committer
only through the host's ``_commit_pending`` and ``_barrier``, and reads
the host's ``workspace``, ``config``, ``_admission``, ``_counters``,
``_watermark`` and ``_ensure_open``.
"""

import functools
import itertools
import threading
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.runtime.errors import ConflictError, ReproError
from repro.runtime.result import TxnResult
from repro.shard.shardmap import ShardMap
from repro.storage.relation import Delta
from repro.txn.repair import PreparedTransaction, repair_circuit

_names = itertools.count(1)


class _ShardTxn:
    """A cross-shard transaction parked between ``shard_prepare`` and
    the coordinator's ``shard_commit`` / ``shard_abort`` order.

    ``shard_commit`` sets ``effects`` to the coordinator's final
    composed deltas and queues this object as the committer's member.
    A local head move that meets the prepared run's reads *or* those
    writes makes its ``correct`` raise :class:`ConflictError`: the
    deltas are final, and repairing them here would diverge this shard
    from the siblings the coordinator already reconciled.
    """

    __slots__ = ("txn", "source", "snapshot", "ticket", "name", "effects")

    def __init__(self, txn, source, snapshot, ticket):
        self.txn = txn
        self.source = source
        self.snapshot = snapshot
        self.ticket = ticket
        self.name = txn.name
        self.effects = None

    @property
    def repair_count(self):
        return self.txn.repair_count

    def relevant_corrections(self, corrections):
        # the prepared run's reads take every correction or none
        return self.txn.relevant_corrections(corrections) or {
            pred: delta for pred, delta in corrections.items()
            if pred in self.effects}

    def correct(self, relevant):
        raise ConflictError(
            "cross-shard transaction {} invalidated by a local commit; "
            "the coordinator must re-run the circuit".format(self.name),
            preds=relevant,
        )

    def execute(self, state):
        """No-op for the serial-commit fallback: the composed deltas are
        coordinator-final and must be applied verbatim or not at all —
        not at all once ``state`` installs other reactive rules than
        the prepared run's."""
        if state.artifacts.reactive_rules != self.snapshot.state.artifacts.reactive_rules:
            raise ConflictError(
                "the installed reactive rules changed under cross-shard "
                "transaction {}; the coordinator must re-run the "
                "circuit".format(self.name))
        return self.effects


class ShardParticipant:
    """The ``shard_*`` verbs a service serves to a shard coordinator."""

    def _init_participant(self):
        self._shard_held = {}  # token -> _ShardTxn parked for the coordinator
        self._shard_lock = threading.Lock()
        self._shard_seq = itertools.count(1)

    def _drop_parked(self):
        """Release every parked transaction (the service is closing: no
        coordinator circuit can complete once this shard is gone)."""
        with self._shard_lock:
            held, self._shard_held = list(self._shard_held.values()), {}
        for item in held:
            self._admission.release(item.ticket)

    def shard_identity(self):
        """This service's ``(index, count)`` in a sharded fleet, or
        ``None`` when unsharded."""
        if self.config.shard_count is None:
            return None
        return (self.config.shard_index, self.config.shard_count)

    def _resolve_shard_identity(self, shard_index, shard_count):
        configured = self.shard_identity()
        if shard_index is None and shard_count is None:
            if configured is None:
                raise ReproError(
                    "service has no shard identity configured and the "
                    "coordinator supplied none")
            return configured
        if shard_index is None or shard_count is None:
            raise ReproError(
                "shard_index and shard_count must be supplied together")
        supplied = (int(shard_index), int(shard_count))
        if configured is not None and supplied != configured:
            raise ReproError(
                "shard identity mismatch: coordinator says {}/{} but this "
                "service is configured as {}/{}".format(
                    supplied[0], supplied[1], configured[0], configured[1]))
        return supplied

    @staticmethod
    def _split_effects(effects, partition, index, count):
        """Split a delta map into rows this shard owns (replicated
        predicates, plus partitioned rows the shard map places here)
        and *foreign* rows the coordinator must redistribute to their
        owners."""
        shard_map = ShardMap(count, partition)
        own = {}
        foreign = {}
        for pred, delta in effects.items():
            if not shard_map.is_partitioned(pred):
                own[pred] = delta
                continue
            parts = shard_map.split_delta(pred, delta)
            mine = parts.pop(index, None)
            if mine is not None:
                own[pred] = mine
            if parts:
                # the parts hold disjoint rows: composing them is union
                foreign[pred] = functools.reduce(Delta.then, parts.values())
        return own, foreign

    def _shard_get(self, token, *, pop=False):
        with self._shard_lock:
            held = self._shard_held.get(token)
            if pop and held is not None:
                del self._shard_held[token]
        if held is None:
            raise ReproError("unknown shard transaction token {!r}".format(token))
        return held

    def shard_prepare(self, source, *, name=None, partition=None,
                      shard_index=None, shard_count=None, timeout=None):
        """Phase 1 of a cross-shard commit: execute ``source`` against
        this shard's head snapshot and park the prepared transaction
        under a token.

        Returns ``{"token", "effects", "foreign", "watermark"}`` where
        ``effects`` holds the deltas this shard owns and ``foreign``
        the partitioned rows owned by sibling shards (the coordinator
        redistributes those).  The owned deltas are staged — the
        write-target check, maintenance and constraint check — against
        the snapshot, so those aborts surface before any shard commits;
        nothing is applied to the head.
        """
        self._ensure_open()
        index, count = self._resolve_shard_identity(shard_index, shard_count)
        if name is None:
            name = "shard-txn-{}".format(next(_names))
        with _stats.scope(self._counters):
            _stats.bump("shard.prepares")
            ticket = self._admission.admit(
                kind="shard_prepare", timeout_s=timeout)
            parked = False
            try:
                with _obs.span("shard.prepare", txn=name):
                    snapshot = self.workspace.version()
                    txn = PreparedTransaction(source, name=name)
                    txn.execute(snapshot.state)
                    own, foreign = self._split_effects(
                        txn.effects, partition, index, count)
                    if own:
                        # stage (validate + maintain + check) without
                        # touching the head: a refused write aborts
                        # the circuit before any shard commits
                        self.workspace._stage_deltas(snapshot.state, own)
                    token = "shard-{}-{}".format(
                        index, next(self._shard_seq))
                    with self._shard_lock:
                        self._shard_held[token] = _ShardTxn(
                            txn, source, snapshot, ticket)
                    parked = True
                    return {
                        "token": token,
                        "effects": own,
                        "foreign": foreign,
                        "watermark": self._watermark,
                    }
            finally:
                if not parked:
                    self._admission.release(ticket)

    def shard_repair(self, token, corrections, *, partition=None,
                     shard_index=None, shard_count=None):
        """Phase 2: repair a parked shard transaction against sibling
        shards' corrections (their owned effects plus redistributed
        rows), re-split the repaired effects, and return them."""
        self._ensure_open()
        index, count = self._resolve_shard_identity(shard_index, shard_count)
        held = self._shard_get(token)
        with _stats.scope(self._counters), \
                _obs.span("shard.repair", txn=held.name):
            _, _, failed = repair_circuit([held.txn], lambda txn: corrections)
            if failed:
                raise failed[0][1]
            own, foreign = self._split_effects(
                held.txn.effects, partition, index, count)
            return {
                "effects": own,
                "foreign": foreign,
                "repairs": held.txn.repair_count,
            }

    def shard_commit(self, token, deltas, *, timeout=None):
        """Phase 3: commit a parked shard transaction with the
        coordinator's final composed deltas, through the ordinary
        pipeline from the parked snapshot; a local write since prepare
        raises :class:`ConflictError` (see :class:`_ShardTxn`)."""
        self._ensure_open()
        held = self._shard_get(token, pop=True)
        started = time.perf_counter()
        held.effects = dict(deltas)
        with _stats.scope(self._counters):
            _stats.bump("shard.commits")
            try:
                with _obs.span("shard.commit", txn=held.name):
                    result, error = self._commit_pending(
                        held, held.source, held.snapshot, held.ticket,
                        started)
                    if result is not None:
                        return result
                    _stats.bump("service.aborts")
                    raise error
            finally:
                self._admission.release(held.ticket)

    def shard_abort(self, token):
        """Drop a parked shard transaction (idempotent)."""
        with self._shard_lock:
            held = self._shard_held.pop(token, None)
        if held is None:
            return {"aborted": False}
        self._admission.release(held.ticket)
        with _stats.scope(self._counters):
            _stats.bump("shard.aborts")
        return {"aborted": True}

    def shard_apply(self, deltas, *, timeout=None):
        """Apply raw deltas through the barrier path (serialized with
        the write stream, IVM + constraint checked).  The coordinator
        uses this to redistribute misplaced rows to their owning shard
        and to compensate committed shards when a sibling's commit
        fails mid-circuit."""
        started = time.perf_counter()

        def run(ws):
            sink = {}
            with _stats.scope(sink):
                applied = ws._apply_deltas(ws.version().state, deltas)
            _stats.bump("shard.applies")
            return TxnResult(
                status="committed",
                kind="exec",
                deltas=dict(applied),
                stats=sink,
                attempts=1,
                repairs=0,
                latency_s=time.perf_counter() - started,
            )

        return self._barrier(run, "shard_apply", timeout)

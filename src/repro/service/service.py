"""The concurrent transaction service (paper pillars 2 + 6, served).

:class:`TransactionService` turns the single-threaded ``Workspace``
into a concurrent transaction manager following the paper's optimistic
branch-merge discipline:

* **Writers** (``exec``) run on their own O(1) branch snapshot of the
  head version — execution never blocks other writers or readers.
  Executed transactions queue for commit; a single committer thread
  drains the queue in arrival order.  For each transaction the
  committer *diffs the snapshot against the moved head* (a structural
  ``PMap.diff``, cost proportional to what actually changed) and
  merge-commits by incrementally repairing the transaction when that
  diff meets its recorded sensitivities
  (:func:`repro.txn.repair.repair_circuit`).
  Irreconcilable conflicts (repair failures, injected faults) surface
  as :class:`~repro.runtime.errors.ConflictError`; the submitting thread
  retries on a fresh snapshot with truncated exponential backoff and
  deterministic jitter, up to the configured budget.

* **Group commit**: every transaction queued when the committer wakes
  is composed into one commit group (each member repaired against the
  accumulated effects of the members before it — the Figure 7(b)
  circuit) and applied through one IVM pass + one constraint check.
  This is what makes throughput *scale with writer count* even on one
  interpreter: per-commit overhead is amortized over the batch.  If
  the composed group violates a constraint, the committer falls back to
  serial re-execution of the members so the violator alone aborts.

* **Readers** (``query``/``rows``) are lock-free: they pin the head
  version (one reference) and evaluate against that immutable snapshot
  while the head moves on.

* **DDL** (``addblock``/``removeblock``/``load``) rides the same queue
  as a *barrier*: the committer flushes the group in front of it, runs
  the verb on the head, and continues — full serialization with the
  write stream, no extra locking.

* **Admission control** bounds the in-flight window and sheds load
  with typed :class:`Overloaded` errors; per-transaction deadlines
  abort with :class:`TxnTimeout` at whichever stage they expire.

The ``shard_*`` verbs a shard coordinator drives come from
:class:`repro.shard.participant.ShardParticipant`.

Instrumentation: ``service.*`` counters/histograms/gauges through
:mod:`repro.stats`, and ``service.exec`` / ``service.commit_batch`` /
``service.query`` spans through :mod:`repro.obs`.
"""

import contextlib
import itertools
import random
import threading
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.ds.pset import PSet
from repro.ds.treap import MISSING
from repro.runtime.errors import ConflictError, ReproError, TransactionAborted
from repro.runtime.result import TxnResult
from repro.runtime.workspace import Workspace, evaluate_query
from repro.service.admission import AdmissionController
from repro.service.config import BACKOFF_BASE_S, BACKOFF_CAP_S, ServiceConfig
from repro.shard.participant import ShardParticipant
from repro.storage.relation import Relation
from repro.txn.repair import PreparedTransaction, repair_circuit

_txn_counter = itertools.count(1)
_WAIT_SLICE_S = 0.05


class _Pending:
    """One executed write transaction queued for commit: the member the
    committer's :func:`~repro.txn.repair.repair_circuit` composes.

    ``traced`` snapshots whether the *submitting* thread was tracing
    when the transaction was queued — the committer uses it to decide
    whether to capture its commit span for this member even though the
    committer thread itself has no collector (client-driven tracing).
    ``commit_span`` receives the serialized ``service.commit_batch``
    span tree after commit, for grafting into the submitter's trace."""

    __slots__ = ("txn", "source", "snapshot", "ticket", "event", "error",
                 "committed", "changes", "attempt", "sink", "traced",
                 "commit_span", "fire")

    def __init__(self, txn, source, snapshot, ticket, attempt, sink, fire):
        self.txn = txn
        self.source = source
        self.snapshot = snapshot
        self.ticket = ticket
        self.event = threading.Event()
        self.error = None
        self.committed = False
        self.changes = {}
        self.attempt = attempt
        self.sink = sink
        self.traced = _obs.tracing()
        self.commit_span = None
        self.fire = fire

    @property
    def effects(self):
        return self.txn.effects

    def relevant_corrections(self, corrections):
        return self.txn.relevant_corrections(corrections)

    def correct(self, relevant):
        """Repair at the ``repair`` fault point; a failure that is not an
        abort becomes a retryable :class:`ConflictError`."""
        self.fire("repair", self.txn.name)
        try:
            return self.txn.correct(relevant)
        except TransactionAborted:
            raise
        except Exception as exc:
            raise ConflictError(
                "repair failed: {}".format(exc), preds=relevant) from exc


class _Barrier:
    """A verb the committer must run serialized with the write stream."""

    __slots__ = ("fn", "kind", "ticket", "event", "error", "result")

    def __init__(self, fn, kind, ticket):
        self.fn = fn
        self.kind = kind
        self.ticket = ticket
        self.event = threading.Event()
        self.error = None
        self.result = None


class TransactionService(ShardParticipant):
    """Concurrent transaction manager + session layer over a workspace.

    All constructor flags are keyword-only.  The service owns the
    workspace's branch head: while the service is open, drive all
    writes through it (direct ``Workspace`` verbs would race the
    committer).  Reads may go anywhere — states are immutable.
    """

    #: this endpoint's fleet role; replicas advertise ``"replica"``
    #: through their service facade, a real service is the leader
    role = "leader"

    def __init__(self, workspace=None, *, config=None, faults=None):
        self.config = config if config is not None else ServiceConfig()
        recovered = False
        if workspace is None:
            workspace = self._recover_workspace(self.config)
            recovered = True
        self.workspace = workspace
        self.faults = faults
        self._admission = AdmissionController(
            max_pending=self.config.max_pending,
            default_timeout_s=self.config.default_timeout_s,
            retry_after_s=BACKOFF_CAP_S,
        )
        self._queue = []
        self._queue_cond = threading.Condition()
        self._committer = None
        self._closed = False
        # this service's counters: every verb and the committer run
        # under ``_stats.scope(self._counters)``
        self._counters = {}
        self._rng = random.Random(0)  # fixed seed: backoff jitter replays
        self._rng_lock = threading.Lock()
        # the commit watermark: highest committed transaction sequence
        # number.  Written only on the committer thread; read (as one
        # atomic int) from any thread.  A service recovered from a
        # checkpoint resumes the sequence from the manifest's recorded
        # watermark, so watermarks stay monotonic across restarts.
        self._watermark = 0
        self._checkpoint_seq = 0
        self._checkpoint_watermark = 0
        self._ckpt_cond = threading.Condition()
        if self.config.checkpoint_path:
            from repro.storage.pager import read_manifest

            manifest = read_manifest(self.config.checkpoint_path)
            if manifest is not None:
                self._checkpoint_seq = manifest["seq"]
                self._checkpoint_watermark = manifest.get("watermark", 0)
                if recovered:
                    self._watermark = self._checkpoint_watermark
        self._commit_seq = itertools.count(self._watermark + 1)
        self._sessions = itertools.count(1)
        # commits since the last durable checkpoint; touched only by the
        # committer thread (auto-checkpoint) and close()
        self._commits_since_checkpoint = 0
        self._checkpoint_count = 0
        self._init_participant()
        if self.config.slow_txn_s is not None:
            _obs.set_slow_txn_threshold(self.config.slow_txn_s)

    @staticmethod
    def _recover_workspace(config):
        """Restart recovery: reopen the checkpoint named by the config
        (when one exists), else start from an empty workspace."""
        if config.checkpoint_path:
            from repro.storage.pager import has_checkpoint

            if has_checkpoint(config.checkpoint_path):
                _stats.bump("service.recoveries")
                return Workspace.open(config.checkpoint_path)
        return Workspace()

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Drain the commit queue, stop the committer thread, and (when
        configured) write a final durable checkpoint."""
        with self._queue_cond:
            if self._closed:
                return
            self._closed = True
            self._queue_cond.notify_all()
        if self._committer is not None:
            self._committer.join()
        self._drop_parked()
        if (
            self.config.checkpoint_path
            and self.config.checkpoint_on_shutdown
        ):
            self._checkpoint_now()
        # release long-poll watchers so a draining leader never strands
        # a replica's heartbeat request for the full watch timeout
        with self._ckpt_cond:
            self._ckpt_cond.notify_all()

    def _checkpoint_now(self):
        """Write a checkpoint to the configured path.  Runs only on the
        committer thread or after it has drained, so it never races a
        commit."""
        fault_fire = None
        if self.faults is not None:
            fault_fire = lambda point: self.faults.fire(point, "checkpoint")
        watermark = self._watermark
        result = self.workspace.checkpoint(
            self.config.checkpoint_path, fault_fire=fault_fire,
            watermark=watermark,
        )
        self._commits_since_checkpoint = 0
        self._checkpoint_count += 1
        # wake every long-poll watcher (replica heartbeat/notify path):
        # a new checkpoint is durable and ready to delta-sync
        with self._ckpt_cond:
            self._checkpoint_seq = result["seq"]
            self._checkpoint_watermark = watermark
            self._ckpt_cond.notify_all()
        return result

    def checkpoint(self, *, timeout=None):
        """Write a durable checkpoint now, serialized with the write
        stream (a barrier, like DDL).  Returns the pager's counter dict."""
        if self.config.checkpoint_path is None:
            raise ReproError("service has no checkpoint_path configured")
        return self._barrier(
            lambda ws: self._checkpoint_now(), "checkpoint", timeout)

    def serve(self, host="127.0.0.1", port=0):
        """Expose this service over TCP: starts (and returns) a
        :class:`repro.net.ReproServer` bound to ``host:port`` (port 0
        picks a free port — read it back from ``server.port``).  The
        caller owns the server's lifecycle; ``server.stop()`` drains
        connections without closing this service."""
        from repro.net.server import ReproServer

        return ReproServer(self, host=host, port=port, faults=self.faults).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _ensure_open(self):
        if self._closed:
            raise ReproError("service is closed")

    def _fire(self, point, txn_name):
        if self.faults is not None:
            self.faults.fire(point, txn_name)

    # -- client surface: reads -------------------------------------------------

    def query(self, source, *, answer=None):
        """Evaluate a query lock-free against the current head snapshot;
        returns the answer rows (use :meth:`query_result` for the
        structured form)."""
        return self.query_result(source, answer=answer).rows

    def query_result(self, source, *, answer=None):
        """Lock-free read returning a full :class:`TxnResult`."""
        started = time.perf_counter()
        sink = {}
        with _stats.scope(self._counters), _obs.span("service.query") as span_:
            with _stats.scope(sink):
                _stats.bump("service.queries")
                state = self.workspace.version().state  # pinned snapshot
                rows = evaluate_query(state, source, answer)
            if span_ is not None:
                span_.attrs["rows"] = len(rows)
        return TxnResult(
            status="committed",
            kind="query",
            rows=rows,
            stats=sink,
            span_id=span_.sid if span_ is not None else None,
            latency_s=time.perf_counter() - started,
        )

    def rows(self, pred):
        """Current rows of a predicate at the head snapshot."""
        return list(self.workspace.version().state.relation(pred))

    # -- client surface: writes ------------------------------------------------

    def exec(self, source, *, timeout=None, name=None):
        """Run a reactive write transaction concurrently; returns its
        :class:`TxnResult` once committed.

        Raises :class:`Overloaded` (shed at admission),
        :class:`TxnTimeout` (deadline), :class:`ConflictError` (after
        the retry budget), or :class:`TransactionAborted` subclasses
        from constraint checking — the head is untouched in all cases.
        """
        self._ensure_open()
        if name is None:
            name = "txn-{}".format(next(_txn_counter))
        started = time.perf_counter()
        with _stats.scope(self._counters):
            ticket = self._admission.admit(kind="exec", timeout_s=timeout)
            try:
                with _obs.span("service.exec", txn=name) as span_:
                    result = self._run_write(source, name, ticket, started)
                    if span_ is not None:
                        span_.attrs["attempts"] = result.attempts
                        result.span_id = span_.sid
                    return result
            finally:
                self._admission.release(ticket)

    def _run_write(self, source, name, ticket, started):
        attempt = 0
        while True:
            attempt += 1
            if attempt == 1:
                self._fire("admission", name)
            self._fire("execute", name)
            snapshot = self.workspace.version()  # O(1) branch of the head
            txn = PreparedTransaction(source, name=name)
            # nested inside the service scope: the per-attempt sink only
            # becomes the TxnResult's stats field
            sink = {}
            with _stats.scope(sink):
                txn.execute(snapshot.state)
            ticket.check("transaction {} missed its deadline before commit",
                         name)
            result, error = self._commit_pending(
                txn, source, snapshot, ticket, started, attempt, sink)
            if result is not None:
                return result
            if isinstance(error, ConflictError) and attempt <= self.config.max_retries:
                _stats.bump("service.retries")
                self._backoff(attempt, ticket)
                ticket.check("transaction {} timed out while retrying", name)
                continue
            _stats.bump("service.aborts")
            raise error

    def _commit_pending(self, txn, source, snapshot, ticket, started,
                        attempt=1, sink=None):
        """Queue an executed transaction for the committer and wait for
        it.  Returns ``(TxnResult, None)`` once committed, else
        ``(None, error)``."""
        pending = _Pending(txn, source, snapshot, ticket, attempt,
                           {} if sink is None else sink, self._fire)
        self._enqueue(pending)
        self._await(pending)
        if not pending.committed:
            return None, pending.error
        if pending.commit_span is not None:
            # stitch the committer-side span tree (closed, with final
            # counters) under the submitter's span
            _obs.graft(pending.commit_span, origin="committer")
        _stats.observe("service.commit.seconds", time.perf_counter() - started)
        return TxnResult(
            status="committed",
            kind="exec",
            deltas=pending.changes,
            stats=pending.sink,
            attempts=pending.attempt,
            repairs=pending.txn.repair_count,
            latency_s=time.perf_counter() - started,
        ), None

    def _backoff(self, attempt, ticket):
        base = BACKOFF_BASE_S * (2 ** (attempt - 1))
        with self._rng_lock:
            jitter = self._rng.random()
        delay = min(BACKOFF_CAP_S, base) * (0.5 + jitter)
        remaining = ticket.remaining()
        delay = max(0.0, min(delay, remaining))
        if delay:
            time.sleep(delay)

    # -- client surface: DDL barriers ------------------------------------------

    def addblock(self, source, *, name=None, timeout=None):
        """Install a block, serialized with the write stream."""
        return self._barrier(
            lambda ws: ws.addblock(source, name=name), "addblock", timeout)

    def removeblock(self, name, *, timeout=None):
        """Remove a block, serialized with the write stream."""
        return self._barrier(
            lambda ws: ws.removeblock(name), "removeblock", timeout)

    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load, serialized with the write stream."""
        tuples = list(tuples)
        remove = list(remove)
        return self._barrier(
            lambda ws: ws.load(pred, tuples, remove), "load", timeout)

    def _barrier(self, fn, kind, timeout):
        self._ensure_open()
        with _stats.scope(self._counters):
            ticket = self._admission.admit(kind=kind, timeout_s=timeout)
            try:
                barrier = _Barrier(fn, kind, ticket)
                self._enqueue(barrier)
                self._await(barrier)
                if barrier.error is not None:
                    _stats.bump("service.aborts")
                    raise barrier.error
                return barrier.result
            finally:
                self._admission.release(ticket)

    # -- the commit pipeline ---------------------------------------------------

    def _enqueue(self, item):
        with self._queue_cond:
            if self._closed:
                raise ReproError("service is closed")
            self._queue.append(item)
            depth = len(self._queue)
            if self._committer is None:
                self._committer = threading.Thread(
                    target=self._committer_loop,
                    name="repro-service-committer",
                    daemon=True,
                )
                self._committer.start()
            self._queue_cond.notify_all()
        _stats.gauge("service.queue_depth", depth)
        _stats.observe("service.queue.depth", depth)

    def _await(self, item):
        while not item.event.wait(_WAIT_SLICE_S):
            with self._queue_cond:
                committer_dead = (
                    self._closed
                    and (self._committer is None or not self._committer.is_alive())
                )
            if committer_dead and not item.event.is_set():
                raise ReproError("service closed before the transaction finished")

    def _committer_loop(self):
        with _stats.scope(self._counters):
            while True:
                with self._queue_cond:
                    while not self._queue and not self._closed:
                        self._queue_cond.wait()
                    if not self._queue and self._closed:
                        return
                    batch = self._queue
                    self._queue = []
                _stats.gauge("service.queue_depth", 0)
                try:
                    self._process_batch(batch)
                except BaseException as exc:  # defensive: never strand writers
                    for item in batch:
                        if not item.event.is_set():
                            item.error = item.error or exc
                            item.event.set()

    def _maybe_auto_checkpoint(self):
        """Committer-thread hook: checkpoint when enough commits have
        accumulated.  Runs *before* the commits' waiters are released,
        so once a client has seen a watermark the checkpoint carrying
        it is already published — a replica that syncs after the write
        returned is never behind it.  A failing checkpoint (disk
        trouble, injected fault) must not take down the commit
        pipeline — the previous checkpoint is still intact, so we count
        the error and carry on."""
        every = self.config.checkpoint_every_n_commits
        if not every or self._commits_since_checkpoint < every:
            return
        try:
            self._checkpoint_now()
        except Exception:
            _stats.bump("service.checkpoint_errors")

    def _process_batch(self, batch):
        """Commit a drained queue: groups of writes, barriers between."""
        group = []
        for item in batch:
            if isinstance(item, _Pending):
                group.append(item)
                continue
            if group:
                self._commit_group(group)
                group = []
            self._run_barrier(item)
        if group:
            self._commit_group(group)

    def _run_barrier(self, barrier):
        try:
            barrier.ticket.check("{} barrier missed its deadline", barrier.kind)
            barrier.result = barrier.fn(self.workspace)
            if barrier.kind in ("addblock", "removeblock", "load", "shard_apply"):
                self._commits_since_checkpoint += 1
                # DDL moves state too: advance the watermark so
                # read-your-writes covers schema changes and bulk loads
                self._watermark = next(self._commit_seq)
                self._maybe_auto_checkpoint()
        except Exception as exc:
            barrier.error = exc
        finally:
            barrier.event.set()

    def _commit_group(self, group):
        """Compose and commit one group of executed transactions.

        When any member's submitter was tracing, the committer records
        the ``service.commit_batch`` span even though this thread has
        no collector of its own, *closes* it (so wall time and counter
        deltas are final), and only then hands the serialized span tree
        to the committed members and fires their events — the waiting
        writers graft it into their own traces, which is how one
        distributed transaction becomes one span tree.
        """
        # a throwaway collector makes tracing() true on this thread so
        # real spans are recorded; the root is exported via the
        # captured span object, not the profile
        needs_collector = not _obs.tracing() and any(p.traced for p in group)
        with _obs.Profile() if needs_collector else contextlib.nullcontext():
            committed, batch_span = self._commit_members(group)
        span_dict = batch_span.to_dict() if batch_span is not None else None
        if committed:
            self._maybe_auto_checkpoint()
        for pending in committed:
            pending.commit_span = span_dict
            pending.event.set()

    def _commit_members(self, group):
        """The batch commit itself: :func:`repair_circuit` over the
        group, then one apply of the composite (serial re-execution if
        it violates a constraint).  Returns ``(committed_members,
        batch_span)`` — committed members have ``committed`` set but
        their events NOT fired; the caller fires them once the span is
        closed.  Members that abort or time out get their events set
        here (there is nothing to graft for them)."""
        committed = []
        with _obs.span("service.commit_batch", batch=len(group)) as batch_span:
            _stats.bump("service.batches")
            _stats.observe("service.batch.size", len(group))
            head = self.workspace.version()
            diff_cache = {}

            def start(pending):
                pending.ticket.check("transaction {} missed its deadline in "
                                     "the commit queue", pending.txn.name)
                self._fire("commit", pending.txn.name)
                if (pending.snapshot.state.artifacts.reactive_rules
                        != head.state.artifacts.reactive_rules):
                    # a barrier changed the installed reactive rules since
                    # the run: its effects are not the head program's
                    pending.txn.execute(head.state)
                    pending.snapshot = head
                return self._corrections_since(
                    pending.snapshot, head, diff_cache)

            composite, repaired, failed = repair_circuit(group, start)
            for pending, exc in failed:
                pending.error = exc
                pending.event.set()
            members = [pending for pending in group if pending.error is None]
            if batch_span is not None:
                batch_span.attrs["repaired"] = len(repaired)
            if members:
                try:
                    if composite:
                        self.workspace._apply_deltas(head.state, composite)
                except TransactionAborted:
                    _stats.bump("service.batch_fallbacks")
                    committed = self._commit_serially(members)
                except Exception as exc:
                    for pending in members:
                        pending.error = exc
                        pending.event.set()
                else:
                    self._record_commits(members, head.state)
                    committed = members
        return committed, batch_span

    def _commit_serially(self, members):
        """Fallback when the composed group aborts: re-execute each
        member alone on the evolving head so the violator is the one
        that aborts.  (Re-execution, not repair: a member may have been
        repaired against group effects that are no longer committing.)
        Returns the members that committed (events deferred, like
        :meth:`_commit_members`); aborted members get theirs set here."""
        committed = []
        for pending in members:
            try:
                head = self.workspace.version()
                pending.txn.execute(head.state)
                if pending.txn.effects:
                    self.workspace._apply_deltas(
                        head.state, pending.txn.effects)
            except Exception as exc:
                pending.error = exc
                pending.event.set()
            else:
                self._record_commits([pending], head.state)
                committed.append(pending)
        return committed

    def _record_commits(self, members, state):
        """Mark members committed and advance the watermark — without
        firing their events; the committer does that after the
        batch span has closed so waiters never see a half-built span.

        Each member's ``changes`` are the rows its effects changed in
        ``state``, the head the members were composed onto, after the
        members before it; a delta that changes nothing is dropped."""
        # pred -> (its rows before the last member writing it, that
        # member's change): the rows after it are built only when a later
        # member writes the predicate too
        written = {}
        for pending in members:
            pending.changes = {}
            for pred, delta in pending.txn.effects.items():
                if pred in written:
                    rows, change = written[pred]
                    before = rows.write(change.removed, change.added)
                else:
                    relation = state.base_relations.get(pred)
                    before = PSet.EMPTY if relation is None else relation.tuples()
                change = delta.normalized(before)
                if change:
                    pending.changes[pred] = change
                written[pred] = (before, change)
            self._watermark = next(self._commit_seq)
            _stats.bump("service.commits")
            self._commits_since_checkpoint += 1
            pending.committed = True

    def _corrections_since(self, snapshot, head, cache):
        """Base + derived deltas turning ``snapshot`` into ``head``.

        Base relations come from a structural :meth:`PMap.diff` (it
        prunes shared subtrees, so cost tracks the edit distance, not
        the database size); derived views are compared by identity,
        which the IVM engine preserves for untouched predicates.
        """
        old_state, new_state = snapshot.state, head.state
        if old_state is new_state:
            return {}
        cached = cache.get(id(old_state))
        if cached is not None:
            return cached
        pairs = list(old_state.base_relations.diff(new_state.base_relations))
        old_rels, new_rels = old_state.relations, new_state.relations
        for pred in (set(new_state.artifacts.ruleset.derived)
                     | set(old_state.artifacts.ruleset.derived)):
            pairs.append((pred, old_rels.get(pred, MISSING),
                          new_rels.get(pred, MISSING)))
        corrections = {}
        for pred, old_rel, new_rel in pairs:
            if old_rel is new_rel:
                continue
            if old_rel is MISSING:
                old_rel = Relation.empty(new_rel.arity)
            elif new_rel is MISSING:
                new_rel = Relation.empty(old_rel.arity)
            delta = old_rel.diff(new_rel)
            if delta:
                corrections[pred] = delta
        cache[id(old_state)] = corrections
        return corrections

    # -- fleet surface ---------------------------------------------------------

    @property
    def commit_watermark(self):
        """Highest committed transaction sequence number (0 before the
        first commit).  Stamped on every network response; the basis of
        session consistency (read-your-writes) across the fleet."""
        return self._watermark

    def watch(self, seq=0, timeout_s=10.0):
        """Long-poll for a checkpoint newer than ``seq``.

        Blocks until the durable checkpoint sequence exceeds ``seq`` or
        ``timeout_s`` elapses, then returns the current fleet status —
        so one round-trip is both the replica's change notification
        *and* the leader heartbeat (a reply within the timeout proves
        the leader alive even when nothing changed)."""
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        with self._ckpt_cond:
            while (
                self._checkpoint_seq <= seq
                and not self._closed
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._ckpt_cond.wait(remaining)
        _stats.bump("service.watches")
        return self.status()

    def promote(self):
        """A service is already the leader: promotion is a no-op that
        reports the current :meth:`status`."""
        return self.status()

    def status(self):
        """This endpoint's fleet coordinates: role, commit watermark,
        and the sequence/watermark of its durable checkpoint."""
        out = {
            "role": self.role,
            "watermark": self._watermark,
            "checkpoint_seq": self._checkpoint_seq,
            "checkpoint_watermark": self._checkpoint_watermark,
        }
        if self.config.shard_count is not None:
            out["shard"] = {
                "index": self.config.shard_index,
                "count": self.config.shard_count,
            }
        return out

    # -- introspection ---------------------------------------------------------

    def service_stats(self):
        """Counters attributed to this service's transactions, plus the
        admission window and commit-queue levels."""
        counters = dict(self._counters)
        with self._queue_cond:
            queued = len(self._queue)
        counters["in_flight"] = self._admission.depth
        counters["queued"] = queued
        counters["committed"] = counters.get("service.commits", 0)
        counters["checkpoints"] = self._checkpoint_count
        counters["watermark"] = self._watermark
        counters["role"] = self.role
        return counters

    def telemetry(self, *, ring_tail=32):
        """The live telemetry payload: process counters, gauges,
        histogram quantiles, span totals, the slow-transaction log,
        the last ``ring_tail`` snapshot-ring entries, and this
        service's own counters — assembled without touching the
        committer, so it is safe to poll at any rate."""
        payload = _obs.telemetry_snapshot(ring_tail=ring_tail)
        payload["service"] = self.service_stats()
        return payload

    def explain(self, source, *, answer=None):
        """EXPLAIN ANALYZE: run ``source`` as a query against the
        current head snapshot (lock-free, like :meth:`query`) with the
        sampling optimizer engaged, and return an
        :class:`~repro.obs.ExplainReport` pairing estimated against
        actual per-rule join cost."""
        _stats.bump("service.explains")
        state = self.workspace.version().state  # pinned snapshot
        return _obs.explain_query(state, source, answer)

    # -- sessions --------------------------------------------------------------

    def session(self, *, name=None, timeout=None):
        """Open a :class:`~repro.service.session.Session` on this service."""
        from repro.service.session import Session

        if name is None:
            name = "session-{}".format(next(self._sessions))
        return Session(self, name=name, timeout=timeout)

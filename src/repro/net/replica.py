"""Checkpoint-shipping read replicas — first-class serving endpoints.

A :class:`Replica` follows a leader server's durable checkpoints and
serves read-only queries from its own local copy of the workspace.
The shipping protocol is a *Merkle delta sync* over the pager's
content-addressed record store:

1. The follower fetches the leader's committed checkpoint manifest
   (``sync_manifest``).  A manifest names the treap *roots* of every
   relation and predicate state — 16-byte blake2b addresses of
   immutable records.
2. Starting from those roots, the follower walks the trees top-down,
   fetching **only addresses it does not already hold**
   (``sync_records``, batched).  Children are discovered from the
   fetched node payloads themselves (:func:`~repro.storage.pager.node_children`);
   a locally-known address prunes its entire subtree, because content
   addressing makes "same address" mean "same subtree".
3. The fetched records are ingested into the local
   :class:`~repro.storage.pager.CheckpointStore` with the same staged
   commit protocol as a local checkpoint (pack fsync → dir fsync →
   atomic manifest replace), and the workspace is rebuilt from it.

Because checkpoints share structure (persistent treaps), a one-tuple
change on the leader perturbs only the spine above that tuple —
O(log n) nodes — and step 2 fetches exactly those: a warm replica's
delta sync transfers O(log n) records, not O(n).  The test suite
asserts this on the ``pager.sync.fetched_records`` counter.

**Read-serving.**  :meth:`Replica.serve` runs the *same* TCP server
surface as the leader (:class:`~repro.net.server.ReproServer` over a
:class:`_ReplicaService` facade): read verbs answer from the synced
checkpoint and every response is stamped with its **commit
watermark** — the sequence number of the last leader write that
checkpoint reflects — while write verbs are refused with a typed
:class:`~repro.net.protocol.ReplicaReadOnly` naming the leader.  A
cluster client (:mod:`repro.net.cluster`) can therefore fan reads out
across the fleet and enforce session consistency from the stamps
alone.

**Following.**  :meth:`Replica.follow` no longer sleeps on a fixed
interval: it parks one long-poll ``watch`` round-trip on the leader,
which returns the moment a newer checkpoint commits (change
notification) or at the heartbeat deadline (liveness proof).  A leader
that stops answering for ``leader_timeout_s`` triggers **election**:
every replica probes the configured ``peers``, and the most-caught-up
one — highest watermark, ties broken by smallest endpoint string, so
every prober picks the same winner — is promoted to a full
write-serving :class:`~repro.service.TransactionService` recovered
from its local checkpoint.  Losers re-point their follow loop at the
new leader.

    from repro.net import Replica

    replica = Replica("leader-host", 7411, "/var/lib/repro/replica")
    replica.sync()                  # one cold/delta sync
    replica.serve(port=7412)        # read-serving TCP endpoint
    replica.follow()                # watch-driven following + failover
    print(replica.query("_(s, v) <- inventory[s] = v."))
    replica.close()

``python -m repro.net.replica --leader HOST:PORT --path DIR --port N``
runs a standalone serving replica until SIGTERM.
"""

import threading
import time

from repro import stats as _stats
from repro import obs as _obs
from repro.net.client import NetSession
from repro.net.protocol import (
    DEFAULT_PORT,
    VERBS,
    ReplicaReadOnly,
    VerbSurface,
    serve_verb,
)
from repro.runtime.errors import ReproError
from repro.runtime.workspace import Workspace
from repro.storage.pager import (
    CheckpointStore,
    manifest_addresses,
    node_children,
)

#: how many addresses one sync_records request carries
_FETCH_BATCH = 256


class Replica(VerbSurface):
    """A read-serving follower of one leader's checkpoint stream.

    Its session surface is the shared
    :class:`~repro.net.protocol.VerbSurface`: reads answer from the
    synced checkpoint, write verbs raise :class:`ReplicaReadOnly`
    naming the leader, and after :meth:`promote` every verb is served
    by the promoted service."""

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, path=None, *,
                 name=None, peers=(), config=None, max_staleness_s=None,
                 **client_kwargs):
        if path is None:
            raise ValueError("Replica needs a local checkpoint directory")
        self.host = host
        self.port = port
        self.path = path
        self.name = name or "replica@{}:{}".format(host, port)
        #: ``"host:port"`` serving endpoints of the *other* fleet
        #: members — the electorate probed when the leader goes dark
        self.peers = [str(p) for p in peers if p]
        #: this replica's own serving endpoint (set by :meth:`serve`)
        self.endpoint = None
        self._client_kwargs = client_kwargs
        self._client = None
        self._store = CheckpointStore(path)
        self._workspace = None
        self._watermark = 0
        self._lock = threading.Lock()
        self._sync_cond = threading.Condition()
        self._poller = None
        self._stop = threading.Event()
        self._seq = None
        self._server = None
        self._facade = None
        self._config = config
        self._promoted = None
        #: self-advertised staleness bound: a replica that has not
        #: heard from its leader within this many seconds tells read
        #: routers (via :meth:`status`) to route around it, instead of
        #: them discovering the lag one stale read at a time.  ``None``
        #: advertises no bound.
        self.max_staleness_s = (
            None if max_staleness_s is None else float(max_staleness_s))
        self._last_leader_contact = time.monotonic()
        if self._store.manifest is not None:
            # resume from the locally durable checkpoint before the
            # first contact with the leader
            self._rebuild()

    # -- syncing ---------------------------------------------------------------

    @property
    def seq(self):
        """Sequence number of the checkpoint this replica *serves* —
        updated only after the synced workspace is rebuilt and visible
        to readers (``None`` before the first sync)."""
        return self._seq

    @property
    def watermark(self):
        """Commit watermark of the checkpoint this replica serves: the
        sequence number of the last leader write it reflects (0 before
        the first sync).  After promotion, the live leader watermark."""
        svc = self._promoted
        if svc is not None:
            return svc.commit_watermark
        return self._watermark

    def sync(self):
        """Pull the leader's latest checkpoint if it is newer than ours.

        Returns a summary dict: ``seq``, ``fetched_records`` (how many
        records crossed the wire — O(log n) for a warm replica),
        ``ingested`` (False when we were already current).

        When tracing is on, the ``replica.sync`` span roots one
        distributed trace: each ``sync_manifest`` / ``sync_records``
        round-trip sends the span's trace context with the request and
        grafts the leader's ``net.request`` subtree back underneath it.
        """
        with self._lock:
            self._check_open()
            if self._promoted is not None:
                raise ReproError(
                    "{} was promoted to leader; it no longer syncs".format(
                        self.name))
            with _obs.span("replica.sync", path=self.path) as span:
                manifest = self._session().sync_manifest()
                # a manifest round-trip is proof of leader contact,
                # whether or not anything new gets ingested
                self._last_leader_contact = time.monotonic()
                if self._store.seq is not None and \
                        manifest["seq"] <= self._store.seq:
                    if span is not None:
                        span.attrs["ingested"] = False
                    return {"seq": self._store.seq, "fetched_records": 0,
                            "ingested": False}
                records = self._fetch_delta(manifest)
                self._store.ingest(manifest, records)
                self._rebuild()
                if span is not None:
                    span.attrs["seq"] = manifest["seq"]
                    span.attrs["fetched_records"] = len(records)
                return {"seq": manifest["seq"],
                        "fetched_records": len(records), "ingested": True}

    def _fetch_delta(self, manifest):
        """The Merkle walk: fetch every record reachable from the
        manifest's roots that the local store lacks, discovering tree
        children from the fetched payloads themselves."""
        records = {}

        def missing(addr):
            return addr and addr not in records \
                and not self._store.known(addr)

        frontier = [a for a in manifest_addresses(manifest) if missing(a)]
        client = self._session()
        while frontier:
            batch, frontier = frontier[:_FETCH_BATCH], frontier[_FETCH_BATCH:]
            # the same subtree can be reachable from two parents; drop
            # addresses a previous batch already brought home
            want = list(dict.fromkeys(a for a in batch if a not in records))
            if not want:
                continue
            fetched = client.sync_records(want)
            _stats.bump("pager.sync.fetched_records", len(fetched))
            got = set()
            for addr, payload in fetched:
                got.add(addr)
                records[addr] = payload
                for child in node_children(payload):
                    if missing(child):
                        frontier.append(child)
            lost = set(want) - got
            if lost:
                raise ValueError(
                    "leader could not serve {} record(s) of checkpoint "
                    "{} (e.g. {}); its checkpoint moved mid-walk — "
                    "retry the sync".format(
                        len(lost), manifest["seq"],
                        sorted(lost)[0].hex()))
        return records

    def _rebuild(self):
        workspace = Workspace()
        self._store.restore_into(workspace)
        self._workspace = workspace
        self._seq = self._store.seq
        self._watermark = self._store.watermark or 0
        # readers parked in watch() wake to the new checkpoint
        with self._sync_cond:
            self._sync_cond.notify_all()

    # -- following (watch-driven, with failover) -------------------------------

    def follow(self, *, heartbeat_s=5.0, leader_timeout_s=10.0):
        """Start the follower thread.

        One blocked ``watch`` round-trip on the leader is both change
        notification (it returns the moment a newer checkpoint commits,
        and the follower syncs immediately) and heartbeat (a reply
        within ``heartbeat_s`` proves the leader alive even when
        nothing changed) — no fixed-interval sleeping.  A leader that
        has not answered for ``leader_timeout_s`` is declared dead;
        with ``peers`` configured the replica runs the deterministic
        election (see :meth:`promote`), otherwise it keeps retrying and
        serving its last synced checkpoint.

        One initial sync runs immediately, raising on failure so
        misconfiguration surfaces at the call site — except a leader
        that simply has no checkpoint yet (a fresh fleet booting before
        its first write): the follower starts anyway and picks up
        checkpoint 1 when it lands.
        """
        self._check_open()
        if self._poller is not None:
            return
        try:
            self.sync()
        except ReproError as exc:
            if "has not committed a checkpoint" not in str(exc):
                raise
        self._stop.clear()
        self._poller = threading.Thread(
            target=self._follow_loop, args=(heartbeat_s, leader_timeout_s),
            name=self.name + "/follow", daemon=True)
        self._poller.start()

    def _follow_loop(self, heartbeat_s, leader_timeout_s):
        last_ok = time.monotonic()
        while not self._stop.is_set() and self._promoted is None:
            try:
                status = self._session().watch(
                    seq=self._seq or 0, timeout_s=heartbeat_s)
                if status.get("checkpoint_seq", 0) > (self._seq or 0):
                    self.sync()
                last_ok = time.monotonic()
                # a watch reply is leader contact even when nothing
                # changed: the heartbeat bounds our staleness
                self._last_leader_contact = last_ok
            except ReproError:
                # transient leader outage: keep serving the last synced
                # checkpoint, keep probing — until the timeout says the
                # leader is dead, not slow
                _stats.bump("net.replica.sync_errors")
                if time.monotonic() - last_ok >= leader_timeout_s:
                    if self._handle_leader_loss():
                        return
                    last_ok = time.monotonic()
                elif self._stop.wait(min(heartbeat_s, 0.25)):
                    return

    def stop(self):
        """Stop the follower thread (the replica keeps serving reads)."""
        poller = self._poller
        if poller is None:
            return
        self._stop.set()
        if poller is not threading.current_thread():
            poller.join()
        self._poller = None

    # -- election and promotion ------------------------------------------------

    def _handle_leader_loss(self):
        """The leader went dark: elect and install a new one.

        Every replica probes the same electorate and applies the same
        rule — highest watermark wins, ties broken by smallest endpoint
        string — so they all pick the same winner without coordination.
        The winner promotes itself; losers also *send* ``promote`` to
        the winner (idempotent), so promotion converges even when the
        winner's own detection lags, then re-point their follow loop.

        Returns True when this replica should stop following (it became
        the leader).
        """
        _stats.bump("net.replica.leader_losses")
        probes = {ep: st for ep, st in self._probe_peers().items()
                  if st is not None}
        # a peer that already promoted wins outright
        for ep, st in sorted(probes.items()):
            if st.get("role") == "leader":
                self._repoint(ep)
                return False
        candidates = {ep: int(st.get("watermark") or 0)
                      for ep, st in probes.items()}
        if self.endpoint is not None:
            candidates[self.endpoint] = self.watermark
        if not candidates:
            return False  # nobody reachable: keep serving, keep probing
        winner = min(candidates, key=lambda ep: (-candidates[ep], ep))
        _stats.bump("net.replica.elections")
        if winner == self.endpoint:
            self.promote()
            return True
        try:
            self._rpc(winner, "promote")
        except ReproError:
            return False  # winner unreachable now: re-probe next round
        self._repoint(winner)
        return False

    def _probe_peers(self):
        """``{endpoint: status-dict-or-None}`` for every configured peer."""
        return {ep: self._rpc(ep, "status", swallow=True)
                for ep in self.peers if ep != self.endpoint}

    def _rpc(self, endpoint, verb, *, swallow=False):
        host, _, port = endpoint.rpartition(":")
        try:
            with NetSession(host, int(port), name=self.name + "/probe",
                            connect_timeout_s=2.0,
                            socket_timeout_s=5.0) as peer:
                return getattr(peer, verb)()
        except (ReproError, OSError):
            if swallow:
                return None
            raise

    def _repoint(self, endpoint):
        """Follow a different leader from now on."""
        host, _, port = endpoint.rpartition(":")
        with self._lock:
            if self._client is not None:
                self._client.close()
                self._client = None
            self.host, self.port = host, int(port)
        _stats.bump("net.replica.repoints")

    def _serve_promote(self):
        """Promote this replica to a full write-serving leader.

        Builds a :class:`~repro.service.TransactionService` recovered
        from the local checkpoint directory — the watermark picks up
        exactly where the synced checkpoint left off, so commit
        sequence numbers stay monotone across the failover — and stops
        following.  The serving facade flips its advertised role to
        ``leader`` and starts routing write verbs to the new service.
        Idempotent.  Returns the post-promotion status dict.
        """
        with self._lock:
            self._check_open()
            if self._promoted is None:
                from repro.service import TransactionService

                self._promoted = TransactionService(
                    config=self._service_config())
                _stats.bump("net.replica.promotions")
                with self._sync_cond:
                    self._sync_cond.notify_all()
        self.stop()
        return self.status()

    @property
    def promoted(self):
        """The post-promotion :class:`TransactionService` (None while
        still a follower)."""
        return self._promoted

    # -- the verbs a following replica answers for itself -----------------------
    #
    # ``_serve_<verb>``: what :meth:`_verb` calls *before* promotion
    # (afterwards the promoted service answers everything).

    def _serve_status(self):
        """This endpoint's fleet coordinates (same shape as
        :meth:`TransactionService.status`), plus the leader it follows."""
        return {
            "role": "replica",
            "watermark": self._watermark,
            "checkpoint_seq": self._seq or 0,
            "checkpoint_watermark": self._watermark,
            "leader": "{}:{}".format(self.host, self.port),
            "staleness_s": round(self.staleness_s, 3),
            "max_staleness_s": self.max_staleness_s,
        }

    @property
    def staleness_s(self):
        """Seconds since this replica last heard from its leader (a
        watch heartbeat or a sync manifest both count) — an upper bound
        on how far behind the served snapshot can be.  0.0 once
        promoted: a leader is never stale relative to itself."""
        if self._promoted is not None:
            return 0.0
        return max(0.0, time.monotonic() - self._last_leader_contact)

    def _serve_watch(self, seq=0, timeout_s=10.0):
        """Long-poll until this replica serves a checkpoint newer than
        ``seq`` (or the timeout elapses); returns :meth:`status`.
        Chained replicas and cluster clients heartbeat through this."""
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        with self._sync_cond:
            while (
                (self._seq or 0) <= seq
                and not self._closed
                and self._promoted is None
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._sync_cond.wait(remaining)
        _stats.bump("replica.watches")
        return self.status()

    def _serve_stats(self):
        """A follower has no commit pipeline to count: its status plus
        the electorate it would probe."""
        status = self._serve_status()
        status["peers"] = list(self.peers)
        return status

    def _serve_telemetry(self, ring_tail=32):
        payload = _obs.telemetry_snapshot(ring_tail=ring_tail)
        payload["service"] = self._serve_stats()
        return payload

    # -- serving ---------------------------------------------------------------

    def serve(self, host="127.0.0.1", port=0):
        """Start this replica's TCP serving endpoint — the *same*
        server surface as the leader (same frame protocol, same verbs,
        same chunked streaming), fronting the synced checkpoint: read
        verbs answer stamped with the replica's watermark, write verbs
        raise :class:`ReplicaReadOnly` naming the leader.  Returns the
        :class:`~repro.net.server.ReproServer` (``server.address``
        carries the kernel-chosen port when ``port=0``)."""
        from repro.net.server import ReproServer

        self._check_open()
        if self._server is not None:
            return self._server
        if self._facade is None:
            self._facade = _ReplicaService(self, self._service_config())
        self._server = ReproServer(self._facade, host=host, port=port)
        self._server.start()
        self.endpoint = "{}:{}".format(*self._server.address)
        _stats.bump("net.replica.serving")
        return self._server

    def _service_config(self):
        from repro.service import ServiceConfig

        if self._config is not None:
            return self._config
        # post-promotion writes must checkpoint eagerly: the fleet's
        # only change-shipping channel *is* the checkpoint stream
        return ServiceConfig(
            checkpoint_path=self.path, checkpoint_every_n_commits=1)

    # -- the session surface ---------------------------------------------------

    def _verb(self, spec, args):
        """Serve one verb.  Once promoted, the promoted service serves
        everything.  Before that, write verbs are refused, the fleet
        verbs a replica answers for itself go to ``_serve_<verb>``,
        and reads run against the synced checkpoint."""
        svc = self._promoted
        if svc is not None:
            return serve_verb(svc, spec, args)
        if spec.write:
            raise self.read_only_error(spec.name)
        own = getattr(self, "_serve_" + spec.name, None)
        if own is not None:
            return own(**args)
        return serve_verb(self._ws(), spec, args)

    def read_only_error(self, verb):
        """The typed refusal every write verb gets here — also what the
        server answers wire clients with (``ReproServer`` asks the
        service it fronts)."""
        return ReplicaReadOnly(
            "{} is read-only: {} must go to the leader at {}:{}".format(
                self.name, verb, self.host, self.port))

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Stop following and serving, release the leader connection."""
        if self._closed:
            return
        self.stop()
        self._closed = True
        with self._sync_cond:
            self._sync_cond.notify_all()
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._promoted is not None:
            self._promoted.close()
        if self._client is not None:
            self._client.close()
            self._client = None

    def _session(self):
        if self._client is None:
            self._client = NetSession(
                self.host, self.port, name=self.name,
                **self._client_kwargs)
        return self._client

    def _ws(self):
        self._check_open()
        if self._workspace is None:
            raise ReplicaReadOnly(
                "{} has not synced a checkpoint yet; call sync() "
                "first".format(self.name))
        return self._workspace

    def _check_open(self):
        if self._closed:
            raise ReplicaReadOnly("{} is closed".format(self.name))

    def __repr__(self):
        return "Replica({}:{} -> {}, seq={}, watermark={})".format(
            self.host, self.port, self.path, self.seq, self.watermark)


class _ReplicaService:
    """The service a serving replica hands to ``ReproServer``: the
    fleet coordinates the server reads off a service (``role``,
    ``commit_watermark``, the write refusal) plus one delegate per
    service method in the registry, all into :meth:`Replica._verb` —
    so the advertised role flips to ``leader`` on promotion and the
    *same socket* starts accepting writes.
    """

    faults = None

    def __init__(self, replica, config):
        self._replica = replica
        self.config = config
        self.read_only_error = replica.read_only_error

    @property
    def role(self):
        return "leader" if self._replica.promoted is not None else "replica"

    @property
    def commit_watermark(self):
        return self._replica.watermark

    def shard_identity(self):
        return None


def _delegate(spec):
    def method(self, **kwargs):
        return self._replica._verb(spec, kwargs)
    method.__name__ = spec.service
    return method


for _spec in VERBS.values():
    if _spec.service:
        setattr(_ReplicaService, _spec.service, _delegate(_spec))


# -- CLI ----------------------------------------------------------------------


def main(argv=None):
    """``python -m repro.net.replica``: run one serving replica until
    SIGTERM/SIGINT — sync from the leader, serve reads, follow with
    heartbeat failover."""
    import argparse
    import signal

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--leader", required=True, metavar="HOST:PORT",
                        help="the leader's serving endpoint")
    parser.add_argument("--path", required=True,
                        help="local checkpoint directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="serving port (0: kernel-chosen)")
    parser.add_argument("--peers", default="",
                        help="comma-separated serving endpoints of the "
                             "other replicas (the failover electorate)")
    parser.add_argument("--heartbeat", type=float, default=2.0,
                        help="leader heartbeat period in seconds")
    parser.add_argument("--leader-timeout", type=float, default=6.0,
                        help="declare the leader dead after this many "
                             "seconds without a heartbeat reply")
    parser.add_argument("--max-staleness", type=float, default=None,
                        help="advertise this staleness bound in status(); "
                             "cluster clients drop the replica from read "
                             "rotation while it lags past the bound")
    args = parser.parse_args(argv)

    host, _, port = args.leader.rpartition(":")
    replica = Replica(
        host, int(port), args.path,
        peers=[p.strip() for p in args.peers.split(",") if p.strip()],
        max_staleness_s=args.max_staleness)
    replica.serve(host=args.host, port=args.port)
    replica.follow(heartbeat_s=args.heartbeat,
                   leader_timeout_s=args.leader_timeout)
    print("repro.net.replica serving on {} (leader {})".format(
        replica.endpoint, args.leader), flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        print("stopping...", flush=True)
        replica.close()
        print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

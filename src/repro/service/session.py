"""Client sessions: the user-facing handle onto a transaction service.

``repro.connect()`` is the one-line entry point::

    import repro

    session = repro.connect()
    session.addblock("inventory[s] = v -> string(s), int(v).")
    session.load("inventory", [("widget", 50)])
    session.exec('^inventory["widget"] = x <- '
                 'inventory@start["widget"] = y, x = y - 1.')
    print(session.query("_(s, v) <- inventory[s] = v."))
    session.close()

Many sessions can share one service (``service.session()`` or
``connect(service=...)``); each carries its own name (stamped onto
transaction names for tracing) and default timeout.  A session opened
by ``connect()`` *owns* its service and closes it with the session.
"""

import itertools

from repro.net.protocol import CONSISTENCY_MODES, VerbSurface, serve_verb

_session_counter = itertools.count(1)


class Session(VerbSurface):
    """One client's handle onto a :class:`TransactionService`.

    Thin by design: the verb methods are the shared
    :class:`~repro.net.protocol.VerbSurface`; a session adds naming,
    default deadlines, and lifecycle, and all scheduling lives in the
    service.  Safe to use from the owning thread; open one session per
    client thread.
    """

    def __init__(self, service, *, name=None, timeout=None,
                 consistency="session", owns_service=False):
        self.service = service
        self.name = name or "session-{}".format(next(_session_counter))
        self.timeout = timeout
        #: accepted for surface parity with the tcp:// and cluster://
        #: transports; a single local service serves every read from
        #: the committed head, so all three modes are trivially honored
        self.consistency = consistency
        self._owns_service = owns_service
        self._txns = itertools.count(1)

    @property
    def watermark(self):
        """The service's commit watermark — the sequence number of the
        last committed write.  Local reads always see it (a single
        service has no replication lag), so this is the same
        read-your-writes anchor the network sessions track."""
        return self.service.commit_watermark

    def _verb(self, spec, args):
        """Every verb is one call on the service's method of that name."""
        self._check_open()
        self._stamp(spec, args)
        return serve_verb(self.service, spec, args)

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Close the session (and its service, when it owns one)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_service:
            self.service.close()

    def __repr__(self):
        return "Session({}, {})".format(self.name,
                                        "closed" if self._closed else "open")


def connect(target=None, *, service=None, name=None, timeout=None,
            consistency="session", **config):
    """Open a session — the one entry point for every transport.

    ``target`` selects where the session lands; the verb surface is
    the same on all of them:

    * ``connect()`` — fresh in-memory workspace, fresh service (owned
      by the returned session: closing the session closes the service).
    * ``connect("/var/lib/repro/db")`` — durable local service: the
      path is the checkpoint directory, recovered on startup and
      checkpointed back on close.
    * ``connect("tcp://host:7411")`` — network session onto one
      :class:`~repro.net.server.ReproServer`
      (:class:`~repro.net.client.NetSession`).
    * ``connect("cluster://leader:7411,r1:7412,r2:7413")`` — cluster
      session over a replica fleet
      (:class:`~repro.net.cluster.ClusterSession`): writes routed to
      the leader, reads fanned out across replicas.
    * ``connect("shards://s0:7411,s1:7412,s2:7413", partition={...})``
      — coordinator over a horizontally sharded fleet
      (:class:`~repro.shard.ShardedWorkspace`): partitioned EDB
      predicates hash-fragmented across the shards, co-partitioned
      programs pushed shard-local, cross-shard writes committed by the
      repair circuit.  Endpoint order is shard order; each server's
      HELLO shard advertisement is checked against it.
    * ``connect(workspace)`` — fresh service over an existing
      :class:`~repro.runtime.workspace.Workspace`.
    * ``connect(service=svc)`` — another session on a shared service.

    ``consistency`` (``"strong"`` / ``"session"`` / ``"eventual"``) is
    honored by every transport: it governs which commit watermarks a
    read may be served from (see :mod:`repro.net.cluster`); a single
    local service serves every read from the committed head, so all
    modes hold there trivially.

    Extra keyword arguments go to the transport: ServiceConfig fields
    for local sessions (e.g. ``connect(max_pending=8, max_retries=2)``,
    ``connect(checkpoint_path=p)``), constructor options for the
    network sessions (timeouts, frame limits, failover policy).
    """
    if consistency not in CONSISTENCY_MODES:
        raise ValueError(
            "consistency must be one of {}, got {!r}".format(
                "/".join(CONSISTENCY_MODES), consistency))
    if isinstance(target, str):
        if service is not None:
            raise TypeError(
                "pass either a target url/path or service=, not both")
        if target.startswith("tcp://"):
            from repro.net.client import NetSession

            host, _, port = target[len("tcp://"):].rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    "tcp target must be tcp://host:port, got {!r}".format(
                        target))
            return NetSession(host, int(port), name=name, timeout=timeout,
                              consistency=consistency, **config)
        if target.startswith("cluster://"):
            from repro.net.cluster import ClusterSession

            endpoints = [
                e for e in target[len("cluster://"):].split(",") if e.strip()]
            return ClusterSession(endpoints, name=name, timeout=timeout,
                                  consistency=consistency, **config)
        if target.startswith("shards://"):
            from repro.shard import ShardedWorkspace

            endpoints = [
                e for e in target[len("shards://"):].split(",") if e.strip()]
            if not endpoints:
                raise ValueError(
                    "shards target must list endpoints: "
                    "shards://h1:p1,h2:p2,...")
            return ShardedWorkspace.connect(endpoints, **config)
        # a plain string is a local checkpoint directory
        config.setdefault("checkpoint_path", target)
        target = None

    from repro.service.config import ServiceConfig
    from repro.service.service import TransactionService

    owns = service is None
    if service is None:
        cfg = ServiceConfig(**config)
        service = TransactionService(target, config=cfg)
    elif config:
        raise TypeError(
            "config kwargs {} ignored when an existing service is passed".format(
                sorted(config)))
    return Session(service, name=name, timeout=timeout,
                   consistency=consistency, owns_service=owns)

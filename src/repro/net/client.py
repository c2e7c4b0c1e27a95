"""The blocking client library: ``repro.connect("tcp://host:port")``.

A :class:`NetSession` is the network twin of the in-process
:class:`~repro.service.session.Session` — the *same verb surface*
(``exec`` / ``query`` / ``query_result`` / ``addblock`` /
``removeblock`` / ``load`` / ``rows`` / ``checkpoint`` / ``close``,
context-manager lifecycle) returning the *same shapes*
(:class:`~repro.runtime.result.TxnResult` with real
:class:`~repro.storage.relation.Delta` objects, plain row lists for
``query``), so code written against a local session runs unchanged
against a server:

    import repro

    session = repro.connect("tcp://db.example.com:7411")
    session.addblock("inventory[s] = v -> string(s), int(v).")
    session.exec('^inventory["widget"] = 5.')
    print(session.query("_(s, v) <- inventory[s] = v."))
    session.close()

Error fidelity: server-side failures arrive as typed error frames and
re-raise as the *same* :class:`~repro.runtime.errors.ReproError`
subclass with the same message and payload attributes (``preds`` on a
:class:`ConflictError`, ``retry_after_s`` on :class:`Overloaded`, ...),
so retry logic written for local sessions works over the wire.

Reconnect policy: the HELLO handshake hands the client the *service's*
backoff policy (max retries, base, cap).  Which verbs may transparently
reconnect and retry is not hard-coded here: it is derived from the
single verb registry in :mod:`repro.net.protocol` — read verbs
(``query`` / ``rows`` / ``stats`` / the sync ops / ...) retry under
that policy when the transport fails; write verbs (``exec``, DDL,
``load``) never auto-retry across a transport failure — the commit
status is unknown — and raise a typed
:class:`~repro.net.protocol.ConnectionLost` instead of hanging.

Consistency: every response is stamped with the server's **commit
watermark** (the sequence number of the last committed write the
serving checkpoint reflects), and the session tracks the highest
watermark it has ever observed in :attr:`NetSession.watermark`.  Under
the default ``consistency="session"`` a data read answered *below* the
session's own watermark — a replica that has not yet caught up to this
client's last write, or a leader restarted from an old checkpoint —
raises a typed :class:`~repro.net.protocol.StaleRead` rather than
silently returning stale rows (read-your-writes).  ``"eventual"``
accepts any watermark; ``"strong"`` additionally refuses data reads
answered by a non-leader.  The cluster client
(:class:`repro.net.cluster.ClusterSession`) builds its replica routing
and stale-retry policy on exactly these primitives.

Threading: like local sessions, one ``NetSession`` per thread.
"""

import itertools
import socket
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_PORT,
    F_CHUNK,
    F_ERROR,
    F_GOODBYE,
    F_HELLO,
    F_REQUEST,
    F_RESPONSE,
    CONSISTENCY_MODES,
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameDecoder,
    ProtocolError,
    StaleRead,
    VerbSurface,
    encode_frame,
    error_from_wire,
)

_session_counter = itertools.count(1)

#: fallback reconnect policy until the server's HELLO supplies one
_DEFAULT_POLICY = {
    "max_retries": 5,
    "backoff_base_s": 0.05,
    "backoff_cap_s": 1.0,
}


class NetSession(VerbSurface):
    """One client's blocking connection to a :class:`ReproServer`.

    The verb methods are the shared
    :class:`~repro.net.protocol.VerbSurface`; every verb blocks until
    its response (or typed error) frame arrives.  Requests carry ids,
    so the transport supports pipelining — this synchronous client
    simply doesn't overlap its own calls.
    """

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, *, name=None,
                 timeout=None, consistency="session", connect_timeout_s=5.0,
                 socket_timeout_s=60.0,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                "consistency must be one of {}, got {!r}".format(
                    "/".join(CONSISTENCY_MODES), consistency))
        self.host = host
        self.port = port
        self.name = name or "net-session-{}".format(next(_session_counter))
        self.timeout = timeout
        self.consistency = consistency
        self.connect_timeout_s = connect_timeout_s
        self.socket_timeout_s = socket_timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.policy = dict(_DEFAULT_POLICY)
        self._server_trace = False
        #: highest commit watermark this session has ever *observed* in
        #: a response — monotone, survives reconnects, the anchor of
        #: session consistency (read-your-writes)
        self.watermark = 0
        #: watermark stamped on the most recent response (None before
        #: the first verb); unlike :attr:`watermark` this can go *down*
        #: when a later read lands on a laggier server
        self.last_watermark = None
        #: role / watermark the connected server advertised in HELLO
        self.server_role = None
        self.server_watermark = 0
        #: ``{"index": i, "count": n}`` when the server is a member of
        #: a sharded fleet (advertised in HELLO), else ``None``
        self.server_shard = None
        self._sock = None
        self._decoder = None
        self._inbox = []
        self._ids = itertools.count(1)
        self._txns = itertools.count(1)
        self._connect()

    # -- transport -------------------------------------------------------------

    def _connect(self):
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
        except OSError as exc:
            raise ConnectionLost(
                "cannot connect to {}:{}: {}".format(
                    self.host, self.port, exc)) from exc
        sock.settimeout(self.socket_timeout_s)
        self._sock = sock
        self._decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        self._inbox = []
        _stats.bump("net.client.connects")
        self._send_raw(encode_frame(F_HELLO, {
            "proto": PROTOCOL_VERSION, "client": self.name}))
        ftype, payload = self._next_frame()
        if ftype == F_ERROR:
            raise error_from_wire(payload.get("error") or {})
        if ftype != F_HELLO:
            raise ProtocolError(
                "expected HELLO from server, got {}".format(ftype))
        policy = payload.get("policy") or {}
        self.policy = {**_DEFAULT_POLICY, **policy}
        # only servers that advertise the capability ever see trace_ctx,
        # so connecting to an old peer degrades to untraced requests
        self._server_trace = bool(payload.get("trace"))
        self.server_role = payload.get("role", "leader")
        # the server's HELLO watermark is advertisement, not history:
        # it must NOT raise self.watermark, or a fresh session against
        # a current leader would flag every replica read as stale
        self.server_watermark = int(payload.get("watermark") or 0)
        self.server_shard = payload.get("shard")

    def _drop_connection(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sock = None
        self._decoder = None
        self._inbox = []

    def _send_raw(self, data):
        try:
            self._sock.sendall(data)
            _stats.bump("net.client.bytes_out", len(data))
        except OSError as exc:
            raise ConnectionLost(
                "send failed to {}:{}: {}".format(
                    self.host, self.port, exc)) from exc

    def _next_frame(self):
        if self._inbox:
            return self._inbox.pop(0)
        while True:
            try:
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                raise ConnectionLost(
                    "no response from {}:{} within {}s".format(
                        self.host, self.port, self.socket_timeout_s)) from exc
            except OSError as exc:
                raise ConnectionLost(
                    "recv failed from {}:{}: {}".format(
                        self.host, self.port, exc)) from exc
            if not data:
                if self._decoder.buffered:
                    _stats.bump("net.client.torn_frames")
                    raise ConnectionLost(
                        "connection to {}:{} closed mid-frame ({} bytes of "
                        "a partial frame buffered)".format(
                            self.host, self.port, self._decoder.buffered))
                raise ConnectionLost(
                    "connection to {}:{} closed by server".format(
                        self.host, self.port))
            _stats.bump("net.client.bytes_in", len(data))
            frames = self._decoder.feed(data)
            if frames:
                self._inbox.extend(frames[1:])
                return frames[0]

    # -- request/response ------------------------------------------------------

    def _verb(self, spec, args):
        """One verb over the wire: stamp and encode the arguments,
        round-trip, decode the result.  Whether a transport failure
        reconnects and re-sends is the registry's call
        (``spec.retryable``), not a per-call-site flag: read verbs
        retry, write verbs never do."""
        self._check_open()
        self._stamp(spec, args)
        args = spec.args_to_wire(args)
        with _obs.span("net.call", op=spec.op) as span_:
            result, rows = self._call_inner(spec, args, span_)
        return spec.result.from_wire(result, rows)

    def _call_inner(self, spec, args, span_):
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._sock is None:
                    self._connect()
                outcome = self._roundtrip(spec, args, span_)
                if span_ is not None:
                    span_.attrs["attempts"] = attempt
                return outcome
            except (ConnectionLost, ProtocolError) as exc:
                self._drop_connection()
                max_retries = self.policy["max_retries"]
                if not spec.retryable or attempt > max_retries:
                    if isinstance(exc, ProtocolError):
                        raise
                    raise ConnectionLost(
                        "{} (op {}{})".format(
                            exc, spec.op,
                            "" if spec.retryable else
                            "; not retried: commit status unknown")) from exc
                _stats.bump("net.client.reconnects")
                self._backoff(attempt)

    def _roundtrip(self, spec, args, span_):
        """Send one request and collect its reply.  A traced call's
        span gets ``encode_us`` (the request frame) and ``wait_us``
        (writing it until the reply is decoded)."""
        rid = next(self._ids)
        request = {"id": rid, "op": spec.op, "args": args}
        if self._server_trace:
            ctx = _obs.trace_context()
            if ctx is not None:
                request["trace_ctx"] = ctx
        started = time.perf_counter()
        data = encode_frame(
            F_REQUEST, request, max_frame_bytes=self.max_frame_bytes)
        sent = time.perf_counter()
        self._send_raw(data)
        _stats.bump("net.client.requests")
        rows = []
        while True:
            ftype, payload = self._next_frame()
            if ftype == F_CHUNK and payload.get("id") == rid:
                rows.extend(payload.get("rows") or ())
                continue
            if ftype == F_RESPONSE and payload.get("id") == rid:
                if span_ is not None:
                    span_.attrs["encode_us"] = (sent - started) * 1e6
                    span_.attrs["wait_us"] = (time.perf_counter() - sent) * 1e6
                trace = payload.get("trace")
                if trace is not None:
                    # stitch the server's span tree under our net.call
                    # span: one client transaction, one trace
                    _obs.graft(trace, origin="server")
                self._observe_watermark(spec, payload.get("watermark"))
                return payload.get("result") or {}, rows
            if ftype == F_ERROR:
                if payload.get("id") in (rid, None):
                    raise error_from_wire(payload.get("error") or {})
                continue  # stale error for an abandoned request id
            if ftype == F_GOODBYE:
                # server draining: the socket will close; surface it as
                # a transport failure so idempotent verbs reconnect
                raise ConnectionLost(
                    "server {}:{} is draining".format(self.host, self.port))
            raise ProtocolError(
                "unexpected frame {} for request {}".format(ftype, rid))

    def _backoff(self, attempt):
        base = self.policy["backoff_base_s"] * (2 ** (attempt - 1))
        time.sleep(min(self.policy["backoff_cap_s"], base))

    def _observe_watermark(self, spec, wm):
        """Session-consistency bookkeeping on every stamped response.

        A data read (routing class ``read``) below the session's own
        watermark is refused *before* the result reaches the caller;
        the error is typed (:class:`StaleRead`) so the cluster client
        can route the retry instead of surfacing stale rows.  Every
        other class answers from whatever the peer has — those verbs
        are *how* staleness is measured.
        """
        if wm is None:  # pre-watermark peer: nothing to enforce
            return
        wm = int(wm)
        self.last_watermark = wm
        if spec.route == "read":
            if self.consistency == "strong" and self.server_role not in (
                    None, "leader"):
                _stats.bump("net.client.stale_reads")
                raise StaleRead(
                    "strong-consistency read answered by {} {}:{} "
                    "(watermark {}); route it to the leader".format(
                        self.server_role, self.host, self.port, wm))
            if self.consistency != "eventual" and wm < self.watermark:
                _stats.bump("net.client.stale_reads")
                raise StaleRead(
                    "read answered at watermark {} but this session has "
                    "observed {}; {}:{} is behind".format(
                        wm, self.watermark, self.host, self.port))
        if wm > self.watermark:
            self.watermark = wm

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Close the connection (a GOODBYE, then the socket)."""
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            try:
                self._send_raw(encode_frame(F_GOODBYE, {"client": self.name}))
            except ConnectionLost:
                pass
            self._drop_connection()

    def __repr__(self):
        return "NetSession({}:{}, {}, {})".format(
            self.host, self.port, self.name,
            "closed" if self._closed else "open")

"""The repro TCP server: a network front end for the transaction service.

``ReproServer`` listens on a socket and speaks the frame protocol of
:mod:`repro.net.protocol`, turning the in-process
:class:`~repro.service.TransactionService` into a database *server*:

* **One thread per connection** — an accept thread hands every
  accepted socket to a thread of its own, which handshakes (HELLO
  exchange, which also hands the client the service's retry/backoff
  policy), then reads a request, runs its verb inline and writes the
  reply.  A version is immutable, so serving a request needs no lock
  and no coordinator: it crosses no thread from socket to reply, and
  its ``obs`` spans are recorded on that one thread.
* **Backpressure through TCP** — a connection serves its requests in
  order, one at a time; requests a client pipelines wait in the
  socket, so a fast writer fills its own TCP window, not the server.
  Past that, the service's :class:`AdmissionController` sheds load
  with typed ``Overloaded`` frames carrying a retry-after hint, and
  connections past ``net_max_connections`` are refused the same way.
* **Streaming results** — query answers larger than
  ``net_chunk_rows`` stream as bounded CHUNK frames, written one by
  one, so a million-row answer never materializes as one frame on
  either side.
* **Graceful drain** — ``stop()`` (wired to SIGTERM in the CLI) stops
  accepting, sends GOODBYE to every connection, lets in-flight requests
  finish within the drain budget, then closes.
* **Replica feed** — ``sync_manifest`` / ``sync_records`` serve the
  durable checkpoint's manifest and content-addressed records to read
  replicas (:mod:`repro.net.replica`), straight from the pack files.

Fault injection: the service's :class:`FaultInjector` gains two
transport points here — ``net_send`` (before writing a response frame;
``drop`` closes the connection instead, ``truncate`` sends half the
frame and closes) and ``net_recv`` (after reading a request frame) —
so tests can prove clients survive torn frames with typed errors.

``python -m repro.net.server --port 7411 --checkpoint-path ./ckpt``
runs a standalone leader.
"""

import argparse
import contextlib
import signal
import socket
import struct
import sys
import threading
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.net.protocol import (
    F_CHUNK,
    F_ERROR,
    F_GOODBYE,
    F_HELLO,
    F_REQUEST,
    F_RESPONSE,
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    VERBS,
    ProtocolError,
    decode_frame_body,
    encode_frame,
    error_to_wire,
    serve_verb,
    stream_rows,
    trace_to_wire,
    verb_spec,
)
from repro.runtime.errors import Overloaded, ReproError
from repro.service.config import BACKOFF_BASE_S, BACKOFF_CAP_S

_HANDSHAKE_TIMEOUT_S = 10.0
#: ceiling on one ``watch`` long-poll: a client asking for more is
#: clamped, so a dead replica's request never parks its thread for long
_WATCH_CAP_S = 30.0


class _Conn:
    """One accepted connection: its socket, a buffered reader over it,
    and the lock that keeps reply frames and the drain's GOODBYE from
    interleaving."""

    __slots__ = ("sock", "rfile", "write_lock", "thread")

    def __init__(self, sock):
        self.sock = sock
        self.rfile = sock.makefile("rb", buffering=65536)
        self.write_lock = threading.Lock()
        self.thread = None

    def abort(self):
        """Cut the connection from any thread: a thread blocked reading
        or writing it wakes with EOF or an error, and closes it."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)


class ReproServer:
    """Threaded TCP server fronting one :class:`TransactionService`.

    ``start()`` binds the listening socket and starts the accept
    thread, so the server embeds in tests and REPLs as easily as it
    runs standalone; ``stop()`` drains it.  ``address`` holds the bound
    ``(host, port)`` after start — pass ``port=0`` to let the OS pick.

    The service it fronts supplies ``config``, ``faults``, ``role``,
    ``commit_watermark``, ``shard_identity()``, ``read_only_error(op)``
    (consulted only while ``role`` is not ``"leader"``) and the service
    methods the verb registry names.
    """

    #: the verb registry requests are validated and dispatched against
    verbs = VERBS

    def __init__(self, service, host="127.0.0.1", port=0, *, faults=None):
        self.service = service
        self.host = host
        self.port = port
        self.faults = faults if faults is not None else service.faults
        cfg = service.config
        self.chunk_rows = cfg.net_chunk_rows
        self.max_connections = cfg.net_max_connections
        self.address = None
        self._listener = None
        self._thread = None
        # guards _conns, _inflight and the gauges that publish them
        self._lock = threading.Lock()
        self._conns = set()
        self._inflight = 0
        self._draining = False
        self._owns_sampler = False
        self._sync_store = None
        self._sync_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Bind the listening socket and start accepting; returns self."""
        if self._thread is not None:
            raise ReproError("server already started")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        try:
            self._listener = socket.create_server(
                (self.host, self.port), family=family, backlog=128)
        except OSError as exc:
            raise ReproError("could not bind {}:{}: {}".format(
                self.host, self.port, exc)) from None
        self.address = self._listener.getsockname()[:2]
        # publish the kernel-chosen port when bound with port=0
        self.host, self.port = self.address
        cfg = self.service.config
        if cfg.telemetry_interval_s > 0:
            _obs.start_sampler(cfg.telemetry_interval_s,
                               capacity=cfg.telemetry_ring)
            self._owns_sampler = True
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True)
        self._thread.start()
        return self

    def stop(self, *, drain_s=5.0):
        """Graceful drain from any thread: stop accepting, GOODBYE every
        connection, wait up to ``drain_s`` for in-flight requests, then
        close.  Idempotent."""
        with self._lock:
            if self._listener is None or self._draining:
                return
            self._draining = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux: the endpoint would go on accepting (and refusing)
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=10.0)
        goodbye = encode_frame(F_GOODBYE, {"reason": "draining"})
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            with conn.write_lock, contextlib.suppress(OSError):
                conn.sock.sendall(goodbye)
        deadline = time.monotonic() + drain_s
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.02)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.abort()
        deadline = time.monotonic() + 1.0
        for conn in conns:
            if conn.thread is not threading.current_thread():
                conn.thread.join(max(0.0, deadline - time.monotonic()))
        if self._owns_sampler:
            self._owns_sampler = False
            _obs.stop_sampler()

    def __enter__(self):
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._draining:
                    return
                time.sleep(0.01)  # a peer reset before accept, or EMFILE
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                count = len(self._conns)
                refused = self._draining or count >= self.max_connections
                if not refused:
                    conn = _Conn(sock)
                    self._conns.add(conn)
                    _stats.gauge("net.connections", count + 1)
            if refused:
                self._refuse(sock, count)
                continue
            _stats.bump("net.connections_accepted")
            conn.thread = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-net-conn", daemon=True)
            conn.thread.start()

    def _refuse(self, sock, count):
        error = Overloaded(
            "server draining" if self._draining else
            "server at connection capacity ({})".format(count),
            depth=count,
            limit=self.max_connections,
            retry_after_s=BACKOFF_CAP_S,
        )
        _stats.bump("net.connections_refused")
        with contextlib.suppress(OSError):
            sock.sendall(encode_frame(
                F_ERROR, {"id": None, "error": error_to_wire(error)}))
        sock.close()

    def _serve_conn(self, conn):
        """The connection's thread: handshake, then read a request, run
        it and write its reply, one at a time, until EOF, GOODBYE, a
        transport fault or the drain."""
        try:
            if self._handshake(conn):
                while self._serve_next(conn):
                    pass
        except OSError:
            pass
        except ProtocolError as exc:
            self._send_error(conn, None, exc)
        finally:
            with self._lock:
                self._conns.discard(conn)
                _stats.gauge("net.connections", len(self._conns))
            conn.rfile.close()
            conn.sock.close()

    def _handshake(self, conn):
        conn.sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        frame = self._read_frame(conn)
        conn.sock.settimeout(None)
        if frame is None:
            return False
        (ftype, _), _ = frame
        if ftype != F_HELLO:
            raise ProtocolError(
                "expected HELLO, got {}".format(ftype))
        reply = {
            "proto": PROTOCOL_VERSION,
            "server": "repro",
            # fleet coordinates: a cluster client routes from the
            # handshake alone (reads to replicas, writes to the leader)
            "role": self.service.role,
            "watermark": self.service.commit_watermark,
            "chunk_rows": self.chunk_rows,
            # trace-context negotiation: clients only attach trace_ctx
            # to requests after seeing this capability, so an old server
            # (no "trace" key) is never sent one and an old client
            # simply ignores the key — interop both ways
            "trace": True,
            "policy": {
                "max_retries": self.service.config.max_retries,
                "backoff_base_s": BACKOFF_BASE_S,
                "backoff_cap_s": BACKOFF_CAP_S,
            },
        }
        # a shard server advertises its fleet identity up front so a
        # coordinator can verify its shard map against every member
        # before routing a single row
        identity = self.service.shard_identity()
        if identity is not None:
            reply["shard"] = {"index": identity[0], "count": identity[1]}
        return self._send_frames(conn, [(F_HELLO, reply)], op="hello")

    def _read_frame(self, conn):
        """``((ftype, payload), recv_us)`` for the next frame, or
        ``None`` at EOF (a torn frame included).  ``recv_us`` times the
        read and decode from the moment the header arrived."""
        header = conn.rfile.read(4)
        if len(header) < 4:
            return None
        started = time.perf_counter()
        (length,) = struct.unpack("<I", header)
        if length > DEFAULT_MAX_FRAME_BYTES:
            raise ProtocolError(
                "incoming frame of {} bytes exceeds the {} byte limit".format(
                    length, DEFAULT_MAX_FRAME_BYTES))
        body = conn.rfile.read(length)
        if len(body) < length:
            return None
        _stats.bump("net.bytes_in", 4 + length)
        _stats.bump("net.frames_in")
        frame = decode_frame_body(body)
        return frame, (time.perf_counter() - started) * 1e6

    def _serve_next(self, conn):
        """Read one frame and answer it; False once the connection is
        done."""
        frame = None if self._draining else self._read_frame(conn)
        if frame is None or self._draining:
            return False
        (ftype, payload), recv_us = frame
        payload = payload if isinstance(payload, dict) else {}
        rid, op = payload.get("id"), payload.get("op")
        if self.faults is not None:
            try:
                action = self.faults.fire("net_recv", op)
            except ReproError as exc:
                return self._send_error(conn, rid, exc)
            if action == "drop":
                _stats.bump("net.faults.recv_dropped")
                return True
            if action == "truncate":
                _stats.bump("net.faults.recv_torn")
                return False
        if ftype == F_GOODBYE:
            return False
        if ftype != F_REQUEST:
            raise ProtocolError(
                "unexpected frame type {} from client".format(ftype))
        _stats.bump("net.requests")
        self._count_inflight(1)
        try:
            try:
                frames = self._dispatch(
                    rid, op, payload.get("args") or {},
                    payload.get("trace_ctx"), recv_us)
            except Exception as exc:
                _stats.bump("net.request_errors")
                if not isinstance(exc, ReproError):
                    exc = ReproError("internal server error: {!r}".format(exc))
                frames = [(F_ERROR, {"id": rid, "error": error_to_wire(exc)})]
            return self._send_frames(conn, frames, op=op)
        finally:
            self._count_inflight(-1)

    def _count_inflight(self, step):
        with self._lock:
            self._inflight += step
            _stats.gauge("net.inflight", self._inflight)

    # -- request dispatch ------------------------------------------------------

    def _dispatch(self, rid, op, args, trace_ctx=None, recv_us=None):
        """Run one verb on the service and build the response frames.

        When the request carried a ``trace_ctx``, the whole dispatch
        *continues the client's trace*: the ``net.request`` root adopts
        the remote trace id (installing a throwaway collector when
        tracing is otherwise off, so client-driven tracing costs the
        server nothing between traced requests), and the finished span
        tree — including the committer's grafted batch span — is
        attached to the RESPONSE frame for the client to stitch."""
        traced = trace_ctx is not None
        collector = (_obs.Profile() if traced and not _obs.tracing()
                     else contextlib.nullcontext())
        with _obs.remote_context(trace_ctx), collector:
            with _obs.span("net.request", op=op) as span_:
                frames = self._dispatch_op(rid, op, args)
                if span_ is not None:
                    span_.attrs["frames"] = len(frames)
                    if recv_us is not None:
                        span_.attrs["recv_us"] = recv_us
        if traced and span_ is not None:
            self._attach_trace(frames, span_)
        return frames

    @staticmethod
    def _attach_trace(frames, span_):
        """Put the closed request span tree on the RESPONSE payload."""
        record = trace_to_wire(span_.to_dict())
        for ftype, payload in frames:
            if ftype == F_RESPONSE and isinstance(payload, dict):
                payload["trace"] = record

    def _dispatch_op(self, rid, op, args):
        """Decode the arguments, serve the verb, encode the result —
        all from the verb's one registry entry."""
        svc = self.service
        # one registry decides routability: an op outside it fails here
        # with the same typed error every layer raises for it, and a
        # write verb on a read-only endpoint is refused *before* the
        # backend sees it
        spec = verb_spec(op, self.verbs)
        if spec.write and svc.role != "leader":
            raise svc.read_only_error(op)
        kwargs = spec.args_from_wire(args)
        own = getattr(self, "_serve_" + op, None)
        value = own(**kwargs) if own else serve_verb(svc, spec, kwargs)
        result = spec.result.to_wire(value)
        chunks = (stream_rows(result["txn"], self.chunk_rows)
                  if spec.streams else ())
        frames = [(F_CHUNK, {"id": rid, "rows": chunk}) for chunk in chunks]
        if frames:
            _stats.bump("net.chunked_queries")
        # every response carries the commit watermark of the state it
        # was served from — the session-consistency stamp
        frames.append((F_RESPONSE, {
            "id": rid, "result": result, "watermark": svc.commit_watermark}))
        return frames

    # -- verbs the server answers itself (``_serve_<op>``) ----------------------

    def _stamped(self, status):
        """A service's status plus the endpoint it was reached at."""
        status = dict(status)
        status["endpoint"] = "{}:{}".format(*self.address)
        return status

    def _serve_status(self):
        return self._stamped(self.service.status())

    def _serve_promote(self):
        return self._stamped(self.service.promote())

    def _serve_watch(self, seq=0, timeout_s=None):
        """The long-poll parks only this connection's thread, clamped
        to a ceiling so a client cannot park it forever."""
        status = self.service.watch(seq=seq, timeout_s=min(
            float(timeout_s or _WATCH_CAP_S), _WATCH_CAP_S))
        _stats.bump("net.watches")
        return status

    # the replica feed: served straight from the durable pack files

    def _serve_sync_manifest(self):
        from repro.storage.pager import NodeStore, read_manifest

        path = self.service.config.checkpoint_path
        if not path:
            raise ReproError(
                "leader has no checkpoint_path configured; replicas "
                "sync from durable checkpoints")
        with self._sync_lock:
            manifest = read_manifest(path)
            if manifest is None:
                raise ReproError(
                    "leader has not committed a checkpoint yet; run "
                    "checkpoint() first")
            if self._sync_store is None:
                self._sync_store = NodeStore(path)
            self._sync_store.load_packs(manifest["packs"])
            return manifest

    def _serve_sync_records(self, addrs):
        with self._sync_lock:
            store = self._sync_store
            if store is None:
                raise ReproError("sync_manifest must precede sync_records")
            records = store.read_records(addrs)
            _stats.bump("net.sync.records_served", len(records))
            return records

    # -- frame writing ---------------------------------------------------------

    def _send_frames(self, conn, frames, *, op=None):
        """Write frames one by one under the connection's write lock;
        returns False when a transport fault (injected or real) killed
        the connection.

        A traced reply's span tree rides in its RESPONSE frame, so its
        ``send_us`` is stamped just before that frame is encoded: the
        frames ahead of it, written, and the RESPONSE encoded without
        the trace (what an untraced reply encodes), not its write."""
        started = time.perf_counter()
        try:
            with conn.write_lock:
                for ftype, payload in frames:
                    action = None
                    if self.faults is not None:
                        action = self.faults.fire("net_send", op)
                    trace = payload.get("trace") if ftype == F_RESPONSE else None
                    if trace is not None:
                        untraced = dict(payload)
                        del untraced["trace"]
                        encode_frame(ftype, untraced)
                        trace["attrs"]["send_us"] = (
                            time.perf_counter() - started) * 1e6
                    data = encode_frame(ftype, payload)
                    if action == "drop":
                        _stats.bump("net.faults.send_dropped")
                        conn.abort()
                        return False
                    if action == "truncate":
                        _stats.bump("net.faults.send_torn")
                        conn.sock.sendall(data[:max(1, len(data) // 2)])
                        conn.abort()
                        return False
                    conn.sock.sendall(data)
                    _stats.bump("net.bytes_out", len(data))
                    _stats.bump("net.frames_out")
            return True
        except OSError:
            conn.abort()
            return False

    def _send_error(self, conn, rid, exc):
        return self._send_frames(
            conn, [(F_ERROR, {"id": rid, "error": error_to_wire(exc)})])


# -- CLI ----------------------------------------------------------------------


def main(argv=None):
    """``python -m repro.net.server``: run a standalone leader until
    SIGTERM/SIGINT, then drain gracefully."""
    from repro.net.protocol import DEFAULT_PORT
    from repro.service import ServiceConfig, TransactionService

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--checkpoint-path", default=None,
                        help="durable checkpoint dir (enables replicas)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="auto-checkpoint every N commits")
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--trace", default=None,
                        help="stream obs spans to this JSONL file")
    parser.add_argument("--telemetry-interval", type=float, default=1.0,
                        help="snapshot-ring sampling period in seconds "
                             "(0 disables the sampler)")
    parser.add_argument("--slow-txn", type=float, default=None,
                        help="log transactions slower than this many seconds")
    parser.add_argument("--shard-index", type=int, default=None,
                        help="this server's index in a sharded fleet")
    parser.add_argument("--shard-count", type=int, default=None,
                        help="total shard count of the fleet")
    parser.add_argument("--max-connections", type=int,
                        default=ServiceConfig.net_max_connections,
                        help="accepted-connection cap (default %(default)s)")
    args = parser.parse_args(argv)

    if args.trace:
        _obs.trace_to(args.trace)
    service = TransactionService(config=ServiceConfig(
        max_pending=args.max_pending,
        checkpoint_path=args.checkpoint_path,
        checkpoint_every_n_commits=args.checkpoint_every,
        telemetry_interval_s=args.telemetry_interval,
        slow_txn_s=args.slow_txn,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
        net_max_connections=args.max_connections,
    ))
    server = ReproServer(service, host=args.host, port=args.port)
    server.start()
    print("repro.net serving on {}:{}".format(*server.address), flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        print("draining...", flush=True)
        server.stop()
        service.close()
        if args.trace:
            _obs.trace_file_off()
        print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repro TCP server: a network front end for the transaction service.

``ReproServer`` listens on a socket and speaks the frame protocol of
:mod:`repro.net.protocol`, turning the in-process
:class:`~repro.service.TransactionService` into a database *server*:

* **Per-connection sessions** — each accepted connection handshakes
  (HELLO exchange, which also hands the client the service's
  retry/backoff policy) and then submits pipelined requests; responses
  carry request ids and may complete out of order, so one connection
  can have many transactions in flight.
* **Blocking verbs off the loop** — the event loop never runs LogiQL.
  Requests dispatch to a thread pool where the service's verbs execute
  (and where their ``obs`` spans are recorded, thread-locally and
  therefore correctly); the loop only frames bytes.
* **Backpressure, twice** — per-connection in-flight requests are
  bounded by a semaphore: past the bound the server simply stops
  reading that socket, pushing back through TCP.  Past that, the
  service's own :class:`AdmissionController` sheds load with typed
  ``Overloaded`` frames carrying a retry-after hint.  Writes go through
  ``drain()`` so a slow reader stalls its own responses, not the server.
* **Streaming results** — query answers larger than
  ``net_chunk_rows`` stream as bounded CHUNK frames, so a million-row
  answer never materializes as one frame on either side.
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
import asyncio
import concurrent.futures
import contextlib
import os
import signal
import struct
import sys
import threading

from repro import obs as _obs
from repro import stats as _stats
from repro.net.protocol import (
    F_CHUNK,
    F_ERROR,
    F_GOODBYE,
    F_HELLO,
    F_REQUEST,
    F_RESPONSE,
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

_HANDSHAKE_TIMEOUT_S = 10.0


class _Conn:
    """Per-connection state: transport, pipelining bound, in-flight tasks."""

    __slots__ = ("reader", "writer", "write_lock", "sem", "tasks", "peer",
                 "alive")

    def __init__(self, reader, writer, inflight_bound):
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.sem = asyncio.Semaphore(inflight_bound)
        self.tasks = set()
        self.peer = writer.get_extra_info("peername")
        self.alive = True


class ReproServer:
    """Asyncio TCP server fronting one :class:`TransactionService`.

    The event loop runs in a dedicated thread (``start()`` /
    ``stop()``), so the server embeds in tests and REPLs as easily as
    it runs standalone.  ``address`` holds the bound ``(host, port)``
    after start — pass ``port=0`` to let the OS pick.

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
        self.inflight_per_conn = cfg.net_inflight_per_conn
        self.max_frame_bytes = cfg.net_max_frame_bytes
        self.address = None
        self._loop = None
        self._thread = None
        self._server = None
        self._conns = set()
        self._draining = False
        self._inflight = 0
        self._started = threading.Event()
        self._startup_error = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=min(32, (os.cpu_count() or 4) * 4),
            thread_name_prefix="repro-net",
        )
        # watch long-polls park a thread for seconds at a time; they get
        # their own (lazily grown) pool so a fleet of heartbeating
        # replicas never starves the verb executor
        self._executors = {"watch": concurrent.futures.ThreadPoolExecutor(
            max_workers=64, thread_name_prefix="repro-net-watch",
        )}
        self._sync_store = None
        self._sync_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Start serving on a dedicated event-loop thread; returns self
        once the listening socket is bound."""
        if self._thread is not None:
            raise ReproError("server already started")
        cfg = self.service.config
        if cfg.telemetry_interval_s > 0:
            _obs.start_sampler(cfg.telemetry_interval_s,
                               capacity=cfg.telemetry_ring)
            self._owns_sampler = True
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._start_async())
        except Exception as exc:
            self._startup_error = ReproError(
                "could not bind {}:{}: {}".format(self.host, self.port, exc))
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _start_async(self):
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        # publish the kernel-chosen port when bound with port=0
        self.host, self.port = self.address

    def stop(self, *, drain_s=5.0):
        """Graceful drain from any thread: stop accepting, GOODBYE every
        connection, wait up to ``drain_s`` for in-flight requests, then
        close.  Idempotent."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain_s), loop)
        try:
            future.result(timeout=drain_s + 10.0)
        except concurrent.futures.TimeoutError:  # pragma: no cover
            pass
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._executor.shutdown(wait=False)
        self._executors["watch"].shutdown(wait=False)
        if getattr(self, "_owns_sampler", False):
            self._owns_sampler = False
            _obs.stop_sampler()

    def __enter__(self):
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    async def _shutdown(self, drain_s):
        if self._draining:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        goodbye = encode_frame(F_GOODBYE, {"reason": "draining"})
        for conn in list(self._conns):
            try:
                async with conn.write_lock:
                    conn.writer.write(goodbye)
                    await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        deadline = self._loop.time() + drain_s
        while self._loop.time() < deadline:
            if not any(conn.tasks for conn in self._conns):
                break
            await asyncio.sleep(0.02)
        for conn in list(self._conns):
            await self._abort_conn(conn)

    # -- connection handling ---------------------------------------------------

    async def _handle_conn(self, reader, writer):
        if self._draining or len(self._conns) >= self.max_connections:
            error = Overloaded(
                "server draining" if self._draining else
                "server at connection capacity ({})".format(len(self._conns)),
                depth=len(self._conns),
                limit=self.max_connections,
                retry_after_s=self.service.config.backoff_cap_s,
            )
            _stats.bump("net.connections_refused")
            try:
                writer.write(encode_frame(
                    F_ERROR, {"id": None, "error": error_to_wire(error)}))
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            return
        conn = _Conn(reader, writer, self.inflight_per_conn)
        self._conns.add(conn)
        _stats.bump("net.connections_accepted")
        _stats.gauge("net.connections", len(self._conns))
        try:
            if await self._handshake(conn):
                await self._read_loop(conn)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except ProtocolError as exc:
            await self._send_error(conn, None, exc)
        finally:
            if conn.tasks:
                await asyncio.wait(conn.tasks, timeout=5.0)
            self._conns.discard(conn)
            _stats.gauge("net.connections", len(self._conns))
            await self._abort_conn(conn)

    async def _handshake(self, conn):
        frame = await asyncio.wait_for(
            self._read_frame(conn), timeout=_HANDSHAKE_TIMEOUT_S)
        if frame is None:
            return False
        ftype, payload = frame
        if ftype != F_HELLO:
            raise ProtocolError(
                "expected HELLO, got {}".format(ftype))
        cfg = self.service.config
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
                "max_retries": cfg.max_retries,
                "backoff_base_s": cfg.backoff_base_s,
                "backoff_cap_s": cfg.backoff_cap_s,
            },
        }
        # a shard server advertises its fleet identity up front so a
        # coordinator can verify its shard map against every member
        # before routing a single row
        identity = self.service.shard_identity()
        if identity is not None:
            reply["shard"] = {"index": identity[0], "count": identity[1]}
        return await self._send_frames(conn, [(F_HELLO, reply)], op="hello")

    async def _read_frame(self, conn):
        """One frame off the socket, or ``None`` on clean EOF."""
        try:
            header = await conn.reader.readexactly(4)
        except asyncio.IncompleteReadError:
            return None
        (length,) = struct.unpack("<I", header)
        if length > self.max_frame_bytes:
            raise ProtocolError(
                "incoming frame of {} bytes exceeds the {} byte limit".format(
                    length, self.max_frame_bytes))
        body = await conn.reader.readexactly(length)
        _stats.bump("net.bytes_in", 4 + length)
        _stats.bump("net.frames_in")
        return decode_frame_body(body)

    async def _read_loop(self, conn):
        while conn.alive and not self._draining:
            frame = await self._read_frame(conn)
            if frame is None:
                return
            ftype, payload = frame
            op = payload.get("op") if isinstance(payload, dict) else None
            if self.faults is not None:
                try:
                    action = self.faults.fire("net_recv", op)
                except ReproError as exc:
                    await self._send_error(
                        conn,
                        payload.get("id") if isinstance(payload, dict) else None,
                        exc)
                    continue
                if action == "drop":
                    _stats.bump("net.faults.recv_dropped")
                    continue
                if action == "truncate":
                    _stats.bump("net.faults.recv_torn")
                    await self._abort_conn(conn)
                    return
            if ftype == F_GOODBYE:
                return
            if ftype != F_REQUEST:
                raise ProtocolError(
                    "unexpected frame type {} from client".format(ftype))
            # pipelining bound: block the read loop (and thus the
            # socket) until a slot frees — backpressure through TCP
            await conn.sem.acquire()
            task = self._loop.create_task(self._serve_request(conn, payload))
            conn.tasks.add(task)
            task.add_done_callback(
                lambda t, c=conn: (c.tasks.discard(t), c.sem.release()))

    # -- request dispatch ------------------------------------------------------

    async def _serve_request(self, conn, payload):
        rid = payload.get("id")
        op = payload.get("op")
        args = payload.get("args") or {}
        trace_ctx = payload.get("trace_ctx")
        _stats.bump("net.requests")
        self._inflight += 1
        _stats.gauge("net.inflight", self._inflight)
        try:
            try:
                frames = await self._loop.run_in_executor(
                    self._executors.get(op, self._executor),
                    self._dispatch, rid, op, args, trace_ctx)
            except ReproError as exc:
                _stats.bump("net.request_errors")
                frames = [(F_ERROR, {"id": rid, "error": error_to_wire(exc)})]
            except Exception as exc:
                _stats.bump("net.request_errors")
                frames = [(F_ERROR, {"id": rid, "error": error_to_wire(
                    ReproError("internal server error: {!r}".format(exc)))})]
            await self._send_frames(conn, frames, op=op)
        finally:
            self._inflight -= 1
            _stats.gauge("net.inflight", self._inflight)

    def _dispatch(self, rid, op, args, trace_ctx=None):
        """Run one verb on the service (worker thread, blocking) and
        build the response frames.

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
        """The long-poll runs on its own executor, clamped to the
        configured ceiling so a client cannot park a thread forever."""
        cap = self.service.config.net_watch_cap_s
        status = self.service.watch(
            seq=seq, timeout_s=min(float(timeout_s or cap), cap))
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
            records = []
            for addr in addrs:
                if addr in store:
                    records.append((addr, store.get(addr)))
            store.drop_payload_cache()
            _stats.bump("net.sync.records_served", len(records))
            return records

    # -- frame writing ---------------------------------------------------------

    async def _send_frames(self, conn, frames, *, op=None):
        """Write frames under the connection's write lock; returns False
        when a transport fault (injected or real) killed the connection."""
        try:
            async with conn.write_lock:
                for ftype, payload in frames:
                    action = None
                    if self.faults is not None:
                        action = self.faults.fire("net_send", op)
                    data = encode_frame(
                        ftype, payload, max_frame_bytes=self.max_frame_bytes)
                    if action == "drop":
                        _stats.bump("net.faults.send_dropped")
                        await self._abort_conn(conn)
                        return False
                    if action == "truncate":
                        _stats.bump("net.faults.send_torn")
                        conn.writer.write(data[:max(1, len(data) // 2)])
                        try:
                            await conn.writer.drain()
                        except ConnectionError:
                            pass
                        await self._abort_conn(conn)
                        return False
                    conn.writer.write(data)
                    _stats.bump("net.bytes_out", len(data))
                    _stats.bump("net.frames_out")
                await conn.writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            await self._abort_conn(conn)
            return False

    async def _send_error(self, conn, rid, exc):
        await self._send_frames(
            conn, [(F_ERROR, {"id": rid, "error": error_to_wire(exc)})])

    async def _abort_conn(self, conn):
        if not conn.alive:
            return
        conn.alive = False
        try:
            conn.writer.close()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass


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
    parser.add_argument("--mode", default="repair", choices=("repair", "occ"))
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
    parser.add_argument("--max-connections", type=int, default=None,
                        help="accepted-connection cap (default {})".format(
                            ServiceConfig.net_max_connections))
    args = parser.parse_args(argv)

    if args.trace:
        _obs.trace_to(args.trace)
    knobs = {}
    if args.max_connections is not None:
        knobs["net_max_connections"] = args.max_connections
    service = TransactionService(config=ServiceConfig(
        max_pending=args.max_pending,
        mode=args.mode,
        checkpoint_path=args.checkpoint_path,
        checkpoint_every_n_commits=args.checkpoint_every,
        telemetry_interval_s=args.telemetry_interval,
        slow_txn_s=args.slow_txn,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
        **knobs,
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

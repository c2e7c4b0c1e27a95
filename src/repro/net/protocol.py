"""The repro wire protocol: length-prefixed, versioned binary frames.

The network boundary reuses the *durability* codec as its value codec:
:func:`repro.storage.pager.encode_value` is already a canonical,
deterministic, msgpack-free binary encoding of the whole LogiQL value
universe (None/bool/int/float/str/bytes, tuples, lists, dicts, the
BOTTOM/TOP sentinels, aggregation states), so request arguments, answer
rows, and checkpoint records ship over TCP in exactly the bytes they
occupy on disk.  One codec, one set of invariants.

Frame layout (all integers little-endian)::

    +----------------+-----------+--------+------------------+
    | length u32     | version u8| type u8| payload bytes    |
    +----------------+-----------+--------+------------------+

``length`` counts everything after itself (version + type + payload),
so a reader needs exactly two reads per frame; the payload is one
encoded value (conventionally a dict).  Frames are bounded by
``max_frame_bytes`` — an oversized length is a protocol error, not an
allocation.

Frame types:

* ``HELLO``    — handshake, both directions.  The server's reply
  carries the protocol version, the service's retry/backoff policy
  (so clients honor the *server's* policy, not a hardcoded one), the
  row-chunk size for streamed results, and — since the fleet tier —
  the endpoint's ``role`` (``"leader"`` / ``"replica"``) and current
  commit ``watermark``, so a cluster client can route reads and writes
  from the handshake alone.
* ``REQUEST``  — ``{"id": n, "op": str, "args": {...}}``.  Requests may
  be pipelined; responses carry the id and may complete out of order.
  A tracing client adds ``"trace_ctx": {"trace": id, "span": sid}``
  (sent only after the server's HELLO advertised ``"trace": True``, so
  old peers never see the key; dict payloads tolerate unknown keys in
  both directions regardless).
* ``RESPONSE`` — ``{"id": n, "result": {...}}`` terminal success.
  Every response is stamped with ``"watermark"``: the commit watermark
  of the state it was served from (on a replica, the watermark of the
  synced checkpoint) — the basis of session consistency.  When
  the request carried a ``trace_ctx``, the server attaches ``"trace"``:
  its serialized span tree for the request (a
  :meth:`repro.obs.Span.to_dict` payload, scrubbed by
  :func:`trace_to_wire`), which the client grafts back under its own
  open span — one transaction, one stitched tree.
* ``CHUNK``    — ``{"id": n, "rows": [...]}`` partial answer rows for a
  streaming query; zero or more precede the RESPONSE.
* ``ERROR``    — ``{"id": n | None, "error": {...}}`` a typed error
  frame (see below); ``id`` is None for connection-level errors.
* ``GOODBYE``  — server is draining; finish in-flight work and
  reconnect elsewhere/later.

**Typed error frames.**  Every :class:`~repro.runtime.errors.ReproError`
subclass round-trips the wire: :func:`error_to_wire` captures the
class name, the exception args, and the class's declared payload
attributes (``preds``, ``deadline_s``, ``retry_after_s``, ...);
:func:`error_from_wire` rebuilds an instance of the same class with
the same ``str()`` and the same payload attributes, without re-running
``__init__`` (which would re-derive the message and double-append
suffixes).  Unknown class names — a newer server talking to an older
client — degrade to a plain :class:`ReproError` carrying the original
type name, never a crash.
"""

import inspect
import io
import struct
import time

from repro.runtime.errors import ReproError
from repro.storage.pager import decode_value, encode_value

PROTOCOL_VERSION = 1
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024
DEFAULT_PORT = 7411

_HEADER = struct.Struct("<I")
_HEADER_LEN = 4

# -- frame types --------------------------------------------------------------

F_HELLO = 0x01
F_REQUEST = 0x02
F_RESPONSE = 0x03
F_CHUNK = 0x04
F_ERROR = 0x05
F_GOODBYE = 0x06

FRAME_NAMES = {
    F_HELLO: "HELLO",
    F_REQUEST: "REQUEST",
    F_RESPONSE: "RESPONSE",
    F_CHUNK: "CHUNK",
    F_ERROR: "ERROR",
    F_GOODBYE: "GOODBYE",
}


# -- net error taxonomy -------------------------------------------------------


class NetError(ReproError):
    """Base class of errors raised by the network layer itself."""


class ProtocolError(NetError):
    """The peer sent bytes that are not a well-formed protocol frame
    (bad version, oversized length, undecodable payload)."""


class ConnectionLost(NetError, ConnectionError):
    """The transport failed mid-conversation: a torn frame, an EOF
    while a response was outstanding, or a refused reconnect.  For
    non-idempotent verbs the commit status of the in-flight transaction
    is unknown — the server may or may not have applied it."""


class ReplicaReadOnly(NetError):
    """A write verb was invoked on a read replica; writes must go to
    the leader."""


class StaleRead(NetError):
    """A session-consistency read could not be served at (or above) the
    client's own watermark: every reachable endpoint — including, after
    fallback, the leader — answered from a commit watermark below the
    highest one this session has already observed.  Seen in practice
    only when leadership moved to a replica whose last synced
    checkpoint predates the client's last write."""


class LeaderUnavailable(NetError):
    """The cluster client could not find a writable leader among its
    endpoints (all down, or every reachable endpoint is a replica and
    none has promoted yet)."""


#: the consistency modes every transport accepts (local workspace
#: path, single tcp:// server, cluster:// fleet): ``strong`` = reads
#: only from the leader; ``session`` = read-your-writes against the
#: session's observed watermark; ``eventual`` = any replica, any lag
CONSISTENCY_MODES = ("strong", "session", "eventual")


# -- framing ------------------------------------------------------------------


def encode_frame(ftype, payload, *, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
    """One wire frame for ``payload`` (any codec-encodable value)."""
    body = encode_value(payload)
    length = len(body) + 2
    if length > max_frame_bytes:
        raise ProtocolError(
            "frame of {} bytes exceeds the {} byte limit".format(
                length, max_frame_bytes))
    out = io.BytesIO()
    out.write(_HEADER.pack(length))
    out.write(bytes((PROTOCOL_VERSION, ftype)))
    out.write(body)
    return out.getvalue()


def decode_frame_body(body):
    """``(ftype, payload)`` from a frame body (version + type + bytes)."""
    if len(body) < 2:
        raise ProtocolError("truncated frame body ({} bytes)".format(len(body)))
    version, ftype = body[0], body[1]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported protocol version {} (this side speaks {})".format(
                version, PROTOCOL_VERSION))
    if ftype not in FRAME_NAMES:
        raise ProtocolError("unknown frame type 0x{:02x}".format(ftype))
    try:
        payload = decode_value(body[2:])
    except (ValueError, IndexError, struct.error) as exc:
        raise ProtocolError("undecodable frame payload: {}".format(exc)) from exc
    return ftype, payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    TCP delivers bytes, not frames: a single ``recv`` may hold half a
    frame or three and a half.  Feed whatever arrives; complete frames
    come back in order, partial bytes are buffered for the next feed.
    """

    def __init__(self, *, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def buffered(self):
        """Bytes held waiting for the rest of a frame (0 between frames
        — nonzero at EOF means the peer tore a frame mid-send)."""
        return len(self._buffer)

    def feed(self, data):
        """Consume ``data``; return the list of completed
        ``(ftype, payload)`` frames."""
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < _HEADER_LEN:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    "incoming frame of {} bytes exceeds the {} byte "
                    "limit".format(length, self.max_frame_bytes))
            if len(self._buffer) < _HEADER_LEN + length:
                return frames
            body = bytes(self._buffer[_HEADER_LEN:_HEADER_LEN + length])
            del self._buffer[:_HEADER_LEN + length]
            frames.append(decode_frame_body(body))


# -- typed error frames -------------------------------------------------------

#: extra payload attributes carried per error class, beyond the args.
#: Keys are class *names* so the table survives import-order games.
_WIRE_ATTRS = {
    "ConstraintViolation": ("violations",),
    "ConflictError": ("preds",),
    "TxnTimeout": ("deadline_s",),
    "Overloaded": ("depth", "limit", "retry_after_s"),
}


class _WireConstraint:
    """Client-side stand-in for a compiled constraint inside a decoded
    :class:`ConstraintViolation` — carries the source text only."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text

    def __str__(self):
        return self.text


def _encode_attr(name, value):
    if name == "violations":
        return [
            [str(getattr(constraint, "text", None) or constraint), binding]
            for constraint, binding in value
        ]
    return value


def _decode_attr(name, value):
    if name == "violations":
        return [(_WireConstraint(text), binding) for text, binding in value]
    return value


def error_registry():
    """Every currently-importable :class:`ReproError` subclass, by name
    (including :class:`ReproError` itself).  The wire protocol promises
    to round-trip all of them; the test suite checks this exhaustively.
    """
    registry = {ReproError.__name__: ReproError}
    stack = [ReproError]
    while stack:
        for subclass in stack.pop().__subclasses__():
            if subclass.__name__ not in registry:
                registry[subclass.__name__] = subclass
                stack.append(subclass)
    return registry


def error_to_wire(exc):
    """The typed wire record of one :class:`ReproError` (or, for a
    foreign exception, of a :class:`ReproError` wrapping its repr)."""
    if not isinstance(exc, ReproError):
        return {
            "type": ReproError.__name__,
            "args": ("unexpected server error: {!r}".format(exc),),
            "attrs": {},
        }
    attrs = {}
    for name in _WIRE_ATTRS.get(type(exc).__name__, ()):
        attrs[name] = _encode_attr(name, getattr(exc, name, None))
    args = tuple(
        arg if isinstance(arg, (str, int, float, bool, bytes)) or arg is None
        else str(arg)
        for arg in exc.args
    )
    return {"type": type(exc).__name__, "args": args, "attrs": attrs}


def error_from_wire(record):
    """Rebuild the typed exception encoded by :func:`error_to_wire`.

    The instance is built with ``__new__`` + ``Exception.__init__`` so
    the message (already formatted once, server-side) is preserved
    verbatim — class ``__init__`` methods that append payload summaries
    must not run twice.
    """
    name = record.get("type") or ReproError.__name__
    args = tuple(record.get("args") or ())
    cls = error_registry().get(name)
    if cls is None:
        message = args[0] if args else ""
        return ReproError("remote {}: {}".format(name, message))
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    for attr_name in _WIRE_ATTRS.get(name, ()):
        value = record.get("attrs", {}).get(attr_name)
        setattr(exc, attr_name, _decode_attr(attr_name, value))
    return exc


# -- trace payloads over the wire ---------------------------------------------


_CODEC_SCALARS = (str, int, float, bool, bytes)


def trace_to_wire(record):
    """A :meth:`repro.obs.Span.to_dict` tree made codec-safe.

    Span attributes are arbitrary Python values (call sites annotate
    freely); the pager codec only encodes its value universe.  Scalars
    pass through, containers recurse, anything else degrades to its
    ``repr`` — a trace must never be the reason a response frame fails
    to encode."""
    def scrub(value):
        if value is None or isinstance(value, _CODEC_SCALARS):
            return value
        if isinstance(value, dict):
            return {str(key): scrub(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [scrub(item) for item in value]
        return repr(value)

    return scrub(record)


# -- delta maps over the wire -------------------------------------------------
#
# The shard verbs ship raw effect/correction maps (``{pred: Delta}``)
# between coordinator and shards, in the same ``(added, removed)`` row
# shape TxnResult deltas already use.


def deltas_to_wire(deltas):
    """``{pred: Delta}`` as a codec-safe dict."""
    return {
        pred: (list(delta.added), list(delta.removed))
        for pred, delta in (deltas or {}).items()
    }


def deltas_from_wire(record):
    """Rebuild a ``{pred: Delta}`` map encoded by :func:`deltas_to_wire`."""
    from repro.storage.relation import Delta

    return {
        pred: Delta.from_iters(added, removed)
        for pred, (added, removed) in (record or {}).items()
    }


# -- TxnResult over the wire --------------------------------------------------


def result_to_wire(result):
    """A :class:`~repro.runtime.result.TxnResult` as a codec-safe dict.

    Deltas ship as ``{pred: (added_rows, removed_rows)}``; stats are
    already a flat counter dict.
    """
    return {
        "status": result.status,
        "kind": result.kind,
        "deltas": {
            pred: (list(delta.added), list(delta.removed))
            for pred, delta in result.deltas.items()
        },
        "stats": dict(result.stats),
        "span_id": result.span_id,
        "block": result.block,
        "attempts": result.attempts,
        "repairs": result.repairs,
        "latency_s": result.latency_s,
        "rows": None if result.rows is None else list(result.rows),
    }


def stream_rows(record, chunk_rows):
    """Split an answer larger than ``chunk_rows`` off a
    :func:`result_to_wire` record: the rows come back as bounded chunks
    (to travel as CHUNK frames ahead of the RESPONSE) and the record
    keeps only their total.  Smaller answers stay inline: ``[]``."""
    rows = record["rows"] or ()
    if len(rows) <= chunk_rows:
        return []
    record["rows"], record["rows_total"] = None, len(rows)
    return [rows[i:i + chunk_rows] for i in range(0, len(rows), chunk_rows)]


def result_from_wire(record, *, rows=None):
    """Rebuild the :class:`TxnResult`; ``rows`` supplies rows collected
    from CHUNK frames when the server streamed them out-of-band."""
    from repro.runtime.result import TxnResult
    from repro.storage.relation import Delta

    wire_rows = record.get("rows")
    if wire_rows is None and rows is not None:
        wire_rows = rows
    return TxnResult(
        status=record.get("status", "committed"),
        kind=record.get("kind", "exec"),
        deltas={
            pred: Delta.from_iters(added, removed)
            for pred, (added, removed) in record.get("deltas", {}).items()
        },
        rows=wire_rows,
        stats=dict(record.get("stats") or {}),
        span_id=record.get("span_id"),
        block=record.get("block"),
        attempts=record.get("attempts", 1),
        repairs=record.get("repairs", 0),
        latency_s=record.get("latency_s"),
    )


# -- the verb registry ---------------------------------------------------------


class VerbNotServed(NetError):
    """The verb is in the registry but this transport (or the service
    behind it) cannot serve it -- ``explain`` on a ``shards://``
    coordinator, a ``member`` verb on a ``cluster://`` session, the
    replication feed on a service without checkpoints."""


class Codec:
    """One paired wire encoding: ``to_wire`` runs on the sending side,
    ``from_wire`` on the receiving side.  Arguments are sent by the
    client; results by the server, whose ``from_wire`` also receives
    the rows that streamed ahead of the response as CHUNK frames."""

    __slots__ = ("to_wire", "from_wire")

    def __init__(self, to_wire=None, from_wire=None):
        self.to_wire = to_wire or (lambda value: value)
        self.from_wire = from_wire or (lambda value: value)


def _keyed(key, to_wire=None, from_wire=None):
    """A result that travels boxed as ``{key: payload}``."""
    inner = Codec(to_wire, from_wire)
    return Codec(lambda value: {key: inner.to_wire(value)},
                 lambda result, rows: inner.from_wire(result[key]))


def _effects(convert):
    """A shard reply with ``convert`` applied to its two delta maps."""
    return lambda reply, rows=None: {
        key: convert(value) if key in ("effects", "foreign") else value
        for key, value in reply.items()}


def _explain_from_wire(record):
    from repro.obs import ExplainReport

    return ExplainReport.from_dict(record)


_ROWS = Codec(lambda rows: [tuple(row) for row in rows],
              lambda rows: rows or ())
_ADDRS = Codec(list, lambda addrs: addrs or ())
_DELTAS = Codec(deltas_to_wire, deltas_from_wire)
_RAW = Codec(from_wire=lambda result, rows: result)
_TXN = Codec(
    lambda txn: {"txn": result_to_wire(txn)},
    lambda result, rows: result_from_wire(result["txn"], rows=rows or None))
_STATUS = _keyed("status")
_EFFECTS = Codec(_effects(deltas_to_wire), _effects(deltas_from_wire))

#: routing classes: who may answer a verb.  ``write`` -- the leader
#: only (replicas refuse it, a cluster routes it to the leader);
#: ``read`` -- any member, checked against the session's watermark
#: under the consistency mode (a cluster fans it out over replicas);
#: ``leader-read`` -- introspection of the authoritative endpoint,
#: never consistency-checked (a cluster asks its leader, a shard
#: coordinator asks every shard); ``member`` -- the replication and
#: election protocol between two specific endpoints, meaningful only on
#: a direct connection; ``shard-circuit`` -- the coordinator-to-shard
#: commit protocol, routed like a write.
ROUTES = ("write", "read", "leader-read", "member", "shard-circuit")

VERBS = {}


class VerbSpec:
    """Everything the system knows about one verb.

    ``op``         the wire op; ``name`` the session method (they
                   differ only for ``query_result``, op ``query``).
    ``signature``  the session method's :class:`inspect.Signature`;
                   ``doc`` its one docstring.
    ``route``      the routing class (see :data:`ROUTES`); ``write`` is
                   derived from it.
    ``retryable``  idempotent: a client may reconnect and re-send it
                   after a transport failure (default: every non-write).
    ``service``    the service method that serves it (default: the same
                   name; ``None``: the endpoint itself is the answer).
    ``stamp``      a service argument the *session* fills in with its
                   per-transaction name instead of the caller.
    ``streams``    the result's rows may travel as CHUNK frames.
    ``result`` / ``args``  the result's and per-argument wire codecs.
    """

    __slots__ = ("op", "name", "signature", "doc", "route", "write",
                 "retryable", "service", "stamp", "streams", "result",
                 "has_timeout", "_encoders", "_wire_params")

    def __init__(self, prototype, *, route, op=None, service="", stamp=None,
                 retryable=None, streams=False, result=_RAW, args=()):
        if route not in ROUTES:
            raise ValueError("unknown routing class {!r}".format(route))
        self.name = prototype.__name__
        self.op = op or self.name
        self.signature = inspect.signature(prototype)
        self.doc = prototype.__doc__
        self.route = route
        self.write = route in ("write", "shard-circuit")
        self.retryable = not self.write if retryable is None else retryable
        self.service = self.name if service == "" else service
        self.stamp = stamp
        self.streams = streams
        self.result = result
        params = list(self.signature.parameters.values())[1:]  # not self
        self.has_timeout = any(p.name == "timeout" for p in params)
        args = dict(args)
        self._encoders = tuple(
            (name, codec.to_wire) for name, codec in args.items())
        self._wire_params = tuple(
            (p.name, p.default is p.empty,
             args[p.name].from_wire if p.name in args else None)
            for p in params)
        if stamp:
            self._wire_params += ((stamp, False, None),)

    def args_to_wire(self, args):
        """Encode a stub's by-name arguments in place for the REQUEST."""
        for name, encode in self._encoders:
            args[name] = encode(args[name])
        return args

    def args_from_wire(self, wire):
        """The service call's keyword arguments from a REQUEST's
        ``args``: unknown keys are ignored, absent optional ones take
        the service's default, an absent required one is a typed error."""
        kwargs = {}
        for name, required, decode in self._wire_params:
            if name in wire:
                value = wire[name]
                kwargs[name] = decode(value) if decode else value
            elif required:
                raise ReproError(
                    "{} needs argument {!r}".format(self.op, name))
        return kwargs

    def __repr__(self):
        return "VerbSpec({!r}, route={!r}, retryable={})".format(
            self.op, self.route, self.retryable)


def verb(*, table=VERBS, stub=True, **contract):
    """Declare a verb: register the decorated prototype's
    :class:`VerbSpec` in ``table`` under its wire op and replace the
    prototype with the session stub compiled from it (``stub=False``
    keeps a prototype that implements the session method itself)."""
    def declare(prototype):
        spec = VerbSpec(prototype, **contract)
        table[spec.op] = spec
        return _compile_stub(spec) if stub else prototype
    return declare


def _compile_stub(spec):
    """A real function with the prototype's exact signature and
    docstring whose body hands the arguments, by name, to the
    transport's ``_verb`` -- compiled once here, so a call does no
    signature binding and no attribute magic."""
    names = list(spec.signature.parameters)[1:]
    source = "def {}{}:\n    return self._verb(_spec, {{{}}})\n".format(
        spec.name, spec.signature,
        ", ".join("{0!r}: {0}".format(name) for name in names))
    namespace = {"_spec": spec}
    exec(source, namespace)
    stub = namespace[spec.name]
    stub.__doc__ = spec.doc
    stub.__qualname__ = "VerbSurface." + spec.name
    stub.__module__ = __name__
    return stub


def verb_spec(op, table=VERBS):
    """The :class:`VerbSpec` for wire op ``op``; raises a typed error
    for ops outside the registry, so an unknown verb fails identically
    on every layer that consults the table."""
    spec = table.get(op)
    if spec is None:
        raise ReproError("unknown op {!r}".format(op))
    return spec


def serve_verb(target, spec, kwargs):
    """Serve ``spec`` from ``target`` (a service, a workspace): call
    its service method by name.  A target without the method does not
    serve the verb -- a typed refusal, never ``AttributeError``."""
    if spec.service is None:
        return {}
    method = getattr(target, spec.service, None)
    if method is None:
        raise VerbNotServed("{} is not served by {}".format(
            spec.name, type(target).__name__))
    return method(**kwargs)


class VerbSurface:
    """The session verb surface, identical on every transport.

    ``Session`` (in-process), ``NetSession`` (``tcp://``),
    ``ClusterSession`` (``cluster://``), ``Replica`` and
    ``ShardedWorkspace`` (``shards://``) all inherit these methods; a
    transport supplies only ``_verb(spec, args)`` -- where a verb with
    these by-name arguments goes -- plus real implementations of the
    verbs it has logic of its own for.  A verb a transport cannot
    serve raises :class:`VerbNotServed`.

    Adding a verb: (1) declare its prototype here -- signature,
    docstring, ``@verb(route=...)``; (2) name its ``result`` / ``args``
    codecs if the value is not already codec-safe; (3) implement the
    service method on ``TransactionService``; (4) nothing else -- the
    stubs, the server's dispatch, the replica's refusal and the
    cluster's routing follow from the table; (5) ``test_api_surface``
    checks all five transports agree.
    """

    _closed = False

    # -- transactions ----------------------------------------------------------

    @verb(route="write", stamp="name", result=_TXN)
    def exec(self, source, *, timeout=None):
        """Submit a write transaction; blocks until it commits
        (returning its :class:`TxnResult`) or aborts with a typed
        error: :class:`Overloaded` (shed at admission),
        :class:`TxnTimeout`, :class:`ConflictError` (after the retry
        budget) or a constraint violation.  The session stamps each
        transaction ``"<session>/txn-N"`` for tracing."""

    @verb(route="write", result=_TXN)
    def addblock(self, source, *, name=None, timeout=None):
        """Install a block of logic (serialized with the write stream)."""

    @verb(route="write", result=_TXN, args={"name": Codec(str)})
    def removeblock(self, name, *, timeout=None):
        """Remove a block by name, or by the :class:`TxnResult` that
        installed it (serialized with the write stream)."""

    @verb(route="write", result=_TXN, args={"tuples": _ROWS, "remove": _ROWS})
    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load (and/or remove) rows of one base predicate
        (serialized with the write stream)."""

    @verb(route="write", result=_keyed("counters"))
    def checkpoint(self, *, timeout=None):
        """Write a durable checkpoint now (serialized with the write
        stream); returns the pager's counter dict.  Requires a
        ``checkpoint_path`` -- ``repro.connect("/path")`` locally,
        ``--checkpoint-path`` on a server."""

    # -- reads -----------------------------------------------------------------

    @verb(op="query", route="read", streams=True, result=_TXN)
    def query_result(self, source, *, answer=None):
        """Lock-free read of the head snapshot returning the structured
        :class:`TxnResult` (large answers stream back in bounded
        chunks)."""

    def query(self, source, *, answer=None):
        """Lock-free read returning plain rows:
        ``query_result(...).rows``."""
        return self.query_result(source, answer=answer).rows

    @verb(route="read", result=_keyed("rows"))
    def rows(self, pred):
        """Current rows of a predicate at the head snapshot."""

    @verb(route="read", result=_keyed(
        "explain", lambda report: trace_to_wire(report.to_dict()),
        _explain_from_wire))
    def explain(self, source, *, answer=None):
        """EXPLAIN ANALYZE: run ``source`` as a query with the sampling
        optimizer engaged and return an :class:`~repro.obs.ExplainReport`
        pairing its estimated per-rule join cost with the executed
        join's actual movement counts."""

    # -- introspection ---------------------------------------------------------

    @verb(route="leader-read", service="service_stats", result=_keyed("stats"))
    def stats(self):
        """The service's counters: commits, conflicts, repairs, the
        admission window, queue depth, role and watermark."""

    @verb(route="leader-read", result=_keyed("telemetry", trace_to_wire))
    def telemetry(self, *, ring_tail=32):
        """Live telemetry snapshot (counters, gauges, histogram
        quantiles, span totals, the slow-transaction log, the last
        ``ring_tail`` snapshot-ring entries) -- served without touching
        the committer."""

    @verb(route="leader-read", result=_STATUS)
    def status(self):
        """The endpoint's fleet coordinates: ``role``, commit
        ``watermark``, ``checkpoint_seq`` / ``checkpoint_watermark``
        (the durable frontier) and, over the wire, its ``endpoint``."""

    @verb(route="leader-read", service=None, stub=False)
    def ping(self):
        """Round-trip latency through this transport, in seconds."""
        started = time.perf_counter()
        self._verb(VERBS["ping"], {})
        return time.perf_counter() - started

    # -- fleet protocol (replication feed, heartbeat, election) ----------------

    @verb(route="member", result=_STATUS,
          args={"seq": Codec(from_wire=lambda seq: int(seq or 0))})
    def watch(self, seq=0, *, timeout_s=10.0):
        """Long-poll until the endpoint owns a checkpoint newer than
        ``seq`` or ``timeout_s`` elapses (a server clamps it to its
        30 s ceiling); returns :meth:`status` either way.  One
        blocked round-trip is both change notification and liveness
        heartbeat -- how replicas follow a leader without polling."""

    @verb(route="member", retryable=False, result=_STATUS)
    def promote(self):
        """Promote the endpoint to leader (a no-op on one that already
        is); returns its post-promotion :meth:`status`."""

    @verb(route="member", result=_keyed("manifest"))
    def sync_manifest(self):
        """The leader's committed checkpoint manifest."""

    @verb(route="member", result=_keyed("records"), args={"addrs": _ADDRS})
    def sync_records(self, addrs):
        """Fetch content-addressed records by address: ``[(addr,
        payload), ...]`` for the addresses the endpoint holds."""

    # -- cross-shard commit circuit (driven by repro.shard) --------------------

    @verb(route="shard-circuit", result=_EFFECTS)
    def shard_prepare(self, source, *, name=None, partition=None,
                      shard_index=None, shard_count=None, timeout=None):
        """Execute a transaction on the shard's snapshot and park it;
        returns ``{"token", "effects", "foreign", "watermark"}`` --
        the deltas the shard owns and the rows owned by siblings."""

    @verb(route="shard-circuit", result=_EFFECTS,
          args={"corrections": _DELTAS})
    def shard_repair(self, token, corrections, *, partition=None,
                     shard_index=None, shard_count=None):
        """Repair a parked shard transaction against sibling shards'
        corrections; returns its re-split ``effects`` / ``foreign``."""

    @verb(route="shard-circuit", result=_TXN, args={"deltas": _DELTAS})
    def shard_commit(self, token, deltas, *, timeout=None):
        """Commit a parked shard transaction with the coordinator's
        final composed deltas."""

    @verb(route="shard-circuit", retryable=True)
    def shard_abort(self, token):
        """Drop a parked shard transaction (idempotent)."""

    @verb(route="shard-circuit", result=_TXN, args={"deltas": _DELTAS})
    def shard_apply(self, deltas, *, timeout=None):
        """Apply raw deltas on the shard (serialized with its write
        stream; IVM + constraint checked)."""

    # -- what every session shares ---------------------------------------------

    def _stamp(self, spec, args):
        """Fill in what the session supplies rather than the caller:
        its default deadline and the transaction name."""
        if spec.has_timeout and args["timeout"] is None:
            args["timeout"] = self.timeout
        if spec.stamp:
            args[spec.stamp] = "{}/txn-{}".format(self.name, next(self._txns))

    def _check_open(self):
        if self._closed:
            raise ReproError("session {} is closed".format(self.name))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

"""Golden wire frames: what a client sends and a server answers, per verb.

:func:`record` drives one call of every verb in the registry through a
real :class:`NetSession` and a real :class:`ReproServer` joined by an
in-memory loopback (no sockets, no threads), over a canned service with
fixed return values, and returns ``{label: {"request": hex, "response":
hex}}`` — the exact bytes of the REQUEST frame and of the CHUNK/RESPONSE
frames that answer it.

``golden_frames.json`` is this function's output **at commit bbbe02b**,
the parent of the PR that derived stubs and dispatch from the verb
table (there the server spelled ``_serve_sync_*`` as ``_sync_*``; the
module was otherwise run unchanged).  ``test_protocol`` asserts today's
code still produces those bytes.  Regenerate only for a deliberate
protocol change: ``PYTHONPATH=src python -m tests.net.golden_frames``.
"""

import json
import os
import sys

from repro.net import NetSession, ReproServer, client as _client
from repro.net.protocol import (
    F_ERROR,
    F_HELLO,
    F_REQUEST,
    FrameDecoder,
    encode_frame,
    error_to_wire,
)
from repro.obs import ExplainReport
from repro.runtime.errors import ReproError
from repro.runtime.result import TxnResult
from repro.service import ServiceConfig
from repro.storage.relation import Delta

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_frames.json")

DELTAS = {"p": Delta.from_iters([(1, "a"), (2, "b")], [(3, "c")])}
EFFECTS = {"effects": DELTAS, "foreign": {"q": Delta.from_iters([(9,)], [])}}
STATUS = {"role": "leader", "watermark": 7, "checkpoint_seq": 3,
          "checkpoint_watermark": 6}


def _txn(kind, **fields):
    return TxnResult(
        status="committed", kind=kind, stats={"join.seeks": 3},
        span_id=None, attempts=2, repairs=1, latency_s=0.25, **fields)


class CannedService:
    """Fixed answers under the service method names the server calls."""

    faults = None
    role = "leader"
    commit_watermark = 7

    def __init__(self):
        self.config = ServiceConfig()

    def shard_identity(self):
        return None

    def exec(self, source, *, timeout=None, name=None):
        return _txn("exec", deltas=DELTAS)

    def query_result(self, source, *, answer=None):
        return _txn("query", rows=[(i, str(i)) for i in range(5)])

    def addblock(self, source, *, name=None, timeout=None):
        return _txn("addblock", block=name)

    def removeblock(self, name, *, timeout=None):
        return _txn("removeblock", block=name)

    def load(self, pred, tuples, remove=(), *, timeout=None):
        return _txn("load", deltas={pred: Delta.from_iters(tuples, remove)})

    def rows(self, pred):
        return [(1, "a"), (2, "b")]

    def checkpoint(self, *, timeout=None):
        return {"nodes_written": 4, "bytes": 512, "seq": 3}

    def service_stats(self):
        return {"committed": 5, "queued": 0, "role": "leader"}

    def telemetry(self, *, ring_tail=32):
        return {"counters": {"service.commits": 5}, "ring": [], "pid": 1}

    def explain(self, source, *, answer=None):
        return ExplainReport(source, answer or "_", 1, 0.5, "pure", [
            {"rule": "_", "executions": 1, "actual_steps": 4, "rows": 1,
             "var_order": ["x", "y"], "estimated_steps": 5,
             "indexes": None, "error_ratio": 1.2}])

    def status(self):
        return dict(STATUS)

    def watch(self, seq=0, timeout_s=10.0):
        return dict(STATUS, watched=[seq, timeout_s])

    def promote(self):
        return dict(STATUS)

    def shard_prepare(self, source, **kwargs):
        return dict(EFFECTS, token="shard-0-1", watermark=7)

    def shard_repair(self, token, corrections, **kwargs):
        assert isinstance(corrections["p"], Delta)
        return dict(EFFECTS, repairs=1)

    def shard_commit(self, token, deltas, *, timeout=None):
        return _txn("exec", deltas=deltas)

    def shard_abort(self, token):
        return {"aborted": True}

    def shard_apply(self, deltas, *, timeout=None):
        return _txn("exec", deltas=deltas)


class Loopback:
    """A socket whose far end is ``server._dispatch``: every frame sent
    is served synchronously and the answer queued for ``recv``."""

    def __init__(self, server):
        self.server = server
        self.decoder = FrameDecoder()
        self.sent = []
        self.received = []
        self.inbox = b""

    def settimeout(self, timeout):
        pass

    def close(self):
        pass

    def sendall(self, data):
        for ftype, payload in self.decoder.feed(data):
            if ftype == F_HELLO:
                frames = [(F_HELLO, {
                    "proto": 1, "server": "repro", "role": "leader",
                    "watermark": 7, "trace": False, "policy": {}})]
            elif ftype == F_REQUEST:
                self.sent.append(bytes(data))
                try:
                    frames = self.server._dispatch(
                        payload["id"], payload["op"], payload["args"], None)
                except ReproError as exc:
                    frames = [(F_ERROR, {"id": payload["id"],
                                         "error": error_to_wire(exc)})]
                self.received.append(
                    b"".join(encode_frame(*frame) for frame in frames))
                self.inbox += self.received[-1]
                continue
            else:
                continue
            self.inbox += b"".join(encode_frame(*frame) for frame in frames)

    def recv(self, size):
        data, self.inbox = self.inbox[:size], self.inbox[size:]
        return data


#: label -> (session method, positional args, keyword args)
CALLS = {
    "exec": ("exec", ("+p(1).",), {"timeout": 2.5}),
    "addblock": ("addblock", ("p(x) -> int(x).",), {"name": "b1"}),
    "removeblock": ("removeblock", ("b1",), {}),
    "load": ("load", ("p", [[1, "a"], (2, "b")], [(3, "c")]), {}),
    "checkpoint": ("checkpoint", (), {}),
    "query": ("query", ("_(x) <- p(x).",), {"answer": "_"}),
    "query_result": ("query_result", ("_(x) <- p(x).",), {}),
    "rows": ("rows", ("p",), {}),
    "stats": ("stats", (), {}),
    "telemetry": ("telemetry", (), {"ring_tail": 4}),
    "explain": ("explain", ("_(x) <- p(x).",), {}),
    "ping": ("ping", (), {}),
    "status": ("status", (), {}),
    "watch": ("watch", (), {"seq": 2, "timeout_s": 0.5}),
    "promote": ("promote", (), {}),
    "sync_manifest": ("sync_manifest", (), {}),
    "sync_records": ("sync_records", ([b"\x01" * 16, b"\x02" * 16],), {}),
    "shard_prepare": ("shard_prepare", ("+p(1).",), {
        "partition": {"p": 0}, "shard_index": 0, "shard_count": 3}),
    "shard_repair": ("shard_repair", ("shard-0-1", DELTAS), {
        "partition": {"p": 0}, "shard_index": 0, "shard_count": 3}),
    "shard_commit": ("shard_commit", ("shard-0-1", DELTAS), {}),
    "shard_abort": ("shard_abort", ("shard-0-1",), {}),
    "shard_apply": ("shard_apply", (DELTAS,), {"timeout": 1.0}),
}


def record():
    """``{label: {"request": hex, "response": hex}}`` for every call in
    :data:`CALLS`, plus ``query_chunked`` (the same query against a
    server whose chunk size is below the answer's row count)."""
    server = ReproServer(CannedService())
    server.address = ("127.0.0.1", 7411)
    server._serve_sync_manifest = lambda: {"seq": 3, "packs": ["n-1.pack"]}
    server._serve_sync_records = lambda addrs: [
        (addr, b"payload") for addr in addrs]
    frames = {}
    real_connect = _client.socket.create_connection
    try:
        for label, chunk_rows in [(k, 1000) for k in CALLS] + [
                ("query_chunked", 2)]:
            verb, args, kwargs = CALLS.get(label, CALLS["query"])
            server.chunk_rows = chunk_rows
            wire = Loopback(server)
            _client.socket.create_connection = lambda *a, **k: wire
            with NetSession("golden", 7411, name="golden") as session:
                getattr(session, verb)(*args, **kwargs)
            (request,), (response,) = wire.sent, wire.received
            frames[label] = {
                "request": request.hex(), "response": response.hex()}
    finally:
        _client.socket.create_connection = real_connect
    return frames


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

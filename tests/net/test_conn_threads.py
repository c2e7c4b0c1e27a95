"""The server's threading model: one thread per connection serves its
requests inline and in order, a parked verb holds only its own
connection, and a stopped endpoint stops accepting."""

import socket
import threading
import time

import pytest

from repro import stats
from repro.net import NetSession, ReproServer
from repro.net.protocol import (
    F_HELLO,
    F_REQUEST,
    F_RESPONSE,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
)
from repro.service import ServiceConfig, TransactionService


@pytest.fixture()
def server():
    service = TransactionService(config=ServiceConfig(max_pending=8))
    with ReproServer(service) as srv:
        yield srv
    service.close()


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def test_verb_runs_on_the_thread_that_read_its_frame(server):
    readers, runners = [], []
    read_frame = server._read_frame
    service_stats = server.service.service_stats

    def reading(conn):
        readers.append(threading.current_thread())
        return read_frame(conn)

    def running():
        runners.append(threading.current_thread())
        return service_stats()

    server._read_frame = reading
    server.service.service_stats = running
    with NetSession(server.host, server.port) as s:
        s.stats()
    (runner,) = runners
    assert runner is readers[-1]
    assert runner is not threading.current_thread()


def test_pipelined_requests_answer_in_order(server):
    with socket.create_connection((server.host, server.port)) as sock:
        sock.sendall(encode_frame(F_HELLO, {"proto": PROTOCOL_VERSION}))
        decoder = FrameDecoder()
        sock.sendall(b"".join(
            encode_frame(F_REQUEST, {"id": rid, "op": "ping", "args": {}})
            for rid in (1, 2, 3)))
        frames = []
        while len(frames) < 4:
            data = sock.recv(65536)
            assert data
            frames.extend(decoder.feed(data))
    assert frames[0][0] == F_HELLO
    assert [(ftype, payload["id"]) for ftype, payload in frames[1:]] == [
        (F_RESPONSE, 1), (F_RESPONSE, 2), (F_RESPONSE, 3)]


def test_stopped_server_refuses_connections(server):
    with NetSession(server.host, server.port) as s:
        s.ping()
    server.stop(drain_s=1.0)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((server.host, server.port), timeout=2.0)


def test_parked_watch_does_not_delay_another_connection(server):
    with NetSession(server.host, server.port) as s:
        seq = s.status()["checkpoint_seq"]

    def watch():
        with NetSession(server.host, server.port) as w:
            w.watch(seq=seq, timeout_s=3.0)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        assert _wait_for(lambda: server._inflight == 1)
        with NetSession(server.host, server.port) as s:
            started = time.perf_counter()
            s.addblock("p(x) -> int(x).", name="b")
            assert s.query("_(x) <- p(x).") == []
            elapsed = time.perf_counter() - started
        assert watcher.is_alive()
        assert elapsed < 2.0
    finally:
        watcher.join()


def test_closed_sessions_give_their_threads_back(server):
    with NetSession(server.host, server.port):
        assert _wait_for(lambda: stats.gauges().get("net.connections") == 1)
        threads = threading.active_count()
        for _ in range(50):
            NetSession(server.host, server.port).close()
        assert _wait_for(lambda: stats.gauges()["net.connections"] == 1)
        assert _wait_for(lambda: threading.active_count() <= threads)

"""Live server ↔ client tests: verb surface, result shapes, chunked
streaming, pipelined connections, concurrent clients, typed errors."""

import threading

import pytest

from repro import ConstraintViolation, TxnResult, UnknownPredicate
from repro.net import NetSession, ReproServer
from repro.net.protocol import ConnectionLost
from repro.runtime.errors import ReproError
from repro.service import ServiceConfig, TransactionService
from repro.storage.relation import Delta


@pytest.fixture()
def server():
    service = TransactionService(config=ServiceConfig(
        max_pending=32, net_chunk_rows=8))
    with ReproServer(service) as srv:
        yield srv
    service.close()


@pytest.fixture()
def session(server):
    with NetSession(server.host, server.port) as s:
        yield s


def test_hello_carries_service_policy(server, session):
    assert session.policy["max_retries"] == server.service.config.max_retries
    assert session.policy["backoff_base_s"] == 0.001
    assert session.policy["backoff_cap_s"] == 0.05


def test_exec_returns_txnresult_with_deltas(session):
    session.addblock("p(x) -> int(x).", name="b1")
    result = session.exec("+p(1). +p(2).")
    assert isinstance(result, TxnResult)
    assert result.status == "committed" and result.kind == "exec"
    assert isinstance(result.deltas["p"], Delta)
    assert sorted(result.deltas["p"].added) == [(1,), (2,)]
    assert result.latency_s is not None


def test_query_roundtrip(session):
    session.addblock("p(x) -> int(x).", name="b1")
    session.load("p", [(i,) for i in range(5)])
    assert sorted(session.query("_(x) <- p(x).")) == [(i,) for i in range(5)]
    result = session.query_result("_(x) <- p(x).")
    assert isinstance(result, TxnResult) and result.kind == "query"
    assert sorted(result.rows) == [(i,) for i in range(5)]


def test_large_answer_streams_in_chunks(server, session):
    session.addblock("p(x) -> int(x).", name="b1")
    n = 100  # >> net_chunk_rows=8, so the answer crosses in CHUNK frames
    session.load("p", [(i,) for i in range(n)])
    rows = session.query("_(x) <- p(x).")
    assert sorted(rows) == [(i,) for i in range(n)]


def test_rows_and_removeblock(session):
    session.addblock("p(x) -> int(x).", name="b1")
    session.load("p", [(1,), (2,)], remove=())
    assert sorted(session.rows("p")) == [(1,), (2,)]
    removed = session.removeblock("b1")
    assert removed.kind == "removeblock"


def test_constraint_violation_is_typed_over_the_wire(session):
    session.addblock("inv[s] = v -> string(s), int(v).\n"
                     "inv[s] = v -> v >= 0.", name="inv")
    with pytest.raises(ConstraintViolation) as info:
        session.exec('^inv["widget"] = -1.')
    assert info.value.violations
    # server state unchanged
    assert session.rows("inv") == []


def test_unknown_predicate_is_typed_over_the_wire(session):
    with pytest.raises(UnknownPredicate):
        session.rows("never_declared")


def test_ping_and_stats(session):
    assert session.ping() < 5.0
    stats = session.stats()
    assert "committed" in stats and "in_flight" in stats


def test_checkpoint_requires_configuration(session):
    with pytest.raises(ReproError):
        session.checkpoint()


def test_closed_session_refuses_verbs(server):
    s = NetSession(server.host, server.port)
    s.close()
    with pytest.raises(ReproError):
        s.query("_(x) <- p(x).")


def test_concurrent_clients_share_one_server(server):
    admin = NetSession(server.host, server.port)
    admin.addblock("counter[k] = v -> string(k), int(v).", name="c")
    admin.load("counter", [("k{}".format(i), 0) for i in range(8)])
    errors = []

    def client(index):
        try:
            with NetSession(server.host, server.port) as s:
                for _ in range(5):
                    s.exec('^counter["k{0}"] = x <- '
                           'counter@start["k{0}"] = y, x = y + 1.'
                           .format(index))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert sorted(admin.rows("counter")) == [
        ("k{}".format(i), 5) for i in range(8)]
    admin.close()


def test_session_reconnects_for_idempotent_reads(server, session):
    session.addblock("p(x) -> int(x).", name="b1")
    session.load("p", [(1,)])
    assert session.query("_(x) <- p(x).") == [(1,)]
    # tear the client's transport out from under it; the next read
    # must transparently reconnect under the server's policy
    session._sock.close()
    session._sock = None
    assert session.query("_(x) <- p(x).") == [(1,)]


def test_graceful_stop_sends_goodbye(server):
    s = NetSession(server.host, server.port)
    s.addblock("p(x) -> int(x).", name="b1")
    server.stop(drain_s=2.0)
    # the server is gone: a non-idempotent verb surfaces a typed
    # transport error instead of hanging
    with pytest.raises(ConnectionLost):
        s.exec("+p(1).")
    s.close()


def test_server_refuses_connections_past_capacity():
    service = TransactionService(config=ServiceConfig(
        net_max_connections=2))
    with ReproServer(service) as srv:
        a = NetSession(srv.host, srv.port)
        b = NetSession(srv.host, srv.port)
        from repro.runtime.errors import Overloaded
        with pytest.raises((Overloaded, ConnectionLost)) as info:
            c = NetSession(srv.host, srv.port)
            c.ping()
        if isinstance(info.value, Overloaded):
            assert info.value.retry_after_s is not None
        a.close()
        b.close()
    service.close()


def test_service_serve_convenience():
    service = TransactionService()
    server = service.serve()
    try:
        with NetSession(server.host, server.port) as s:
            s.addblock("p(x) -> int(x).", name="b1")
            s.exec("+p(7).")
            assert s.rows("p") == [(7,)]
    finally:
        server.stop()
        service.close()

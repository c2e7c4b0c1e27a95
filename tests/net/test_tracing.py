"""Distributed tracing across the network tier: HELLO negotiation,
one stitched trace per TCP transaction (client -> server -> committer,
and replica -> leader for checkpoint sync), plus the telemetry and
explain wire verbs and the ``obs top`` dashboard."""

import io
import os

import pytest

from repro import obs
from repro.net import NetSession, Replica, ReproServer
from repro.net.protocol import F_RESPONSE
from repro.obs import ExplainReport
from repro.service import ServiceConfig, TransactionService


@pytest.fixture()
def server():
    service = TransactionService(config=ServiceConfig(max_pending=32))
    with ReproServer(service) as srv:
        yield srv
    service.close()


@pytest.fixture()
def session(server):
    with NetSession(server.host, server.port) as s:
        yield s


def _walk(span_):
    yield span_
    for child in span_.children:
        yield from _walk(child)


class TestNegotiation:
    def test_hello_advertises_trace_capability(self, session):
        assert session._server_trace is True

    def test_untraced_dispatch_attaches_no_trace(self, server):
        frames = server._dispatch(1, "ping", {}, None)
        (ftype, payload), = frames
        assert ftype == F_RESPONSE
        assert "trace" not in payload

    def test_traced_dispatch_attaches_closed_span(self, server):
        ambient = obs.tracing()  # REPRO_TRACE=1 keeps tracing on throughout
        frames = server._dispatch(
            2, "ping", {}, {"trace": "T-test", "span": 11})
        (ftype, payload), = frames
        assert ftype == F_RESPONSE
        record = payload["trace"]
        assert record["name"] == "net.request"
        assert record["attrs"]["op"] == "ping"
        assert record["attrs"]["remote_parent"] == 11
        assert record["wall_s"] >= 0.0  # span closed before serialization
        # the per-request collector is gone: the server thread is left
        # tracing exactly as much as it was before the request
        assert obs.tracing() == ambient


class TestStitchedTraces:
    def test_exec_yields_one_stitched_trace(self, session):
        session.addblock("edge(x, y) -> int(x), int(y).", name="b1")
        with obs.Profile() as prof:
            result = session.exec("+edge(1, 2). +edge(2, 3).")
        assert result.status == "committed"
        # exactly one root: the client's net.call span
        (root,) = prof.roots
        assert root.name == "net.call" and root.attrs["op"] == "exec"
        assert root.trace_id
        spans = list(_walk(root))
        by_origin = {}
        for span_ in spans:
            origin = span_.attrs.get("origin")
            if origin:
                by_origin.setdefault(origin, []).append(span_.name)
        # the server continued our trace...
        assert "net.request" in by_origin["server"]
        # ...and the committer's batch span was grafted inside it
        assert "service.commit_batch" in by_origin["committer"]
        names = {span_.name for span_ in spans}
        assert "service.exec" in names and "commit" in names
        # remote spans keep their server-side ids for cross-log joins
        remote = [s for s in spans if "remote_sid" in s.attrs]
        assert remote
        # local sids stay process-unique after the graft
        sids = [s.sid for s in spans]
        assert len(sids) == len(set(sids))

    def test_stitched_trace_times_the_request_path(self, session):
        with obs.Profile() as prof:
            session.ping()
        (root,) = prof.roots
        assert root.name == "net.call"
        served = root.find("net.request")
        assert served.attrs["origin"] == "server"
        for attrs, keys in ((root.attrs, ("encode_us", "wait_us")),
                            (served.attrs, ("recv_us", "send_us"))):
            for key in keys:
                assert attrs[key] > 0, key
        # the server's parts run one after another inside the client's wait
        server_us = (served.attrs["recv_us"] + served.wall_s * 1e6
                     + served.attrs["send_us"])
        assert server_us < root.attrs["wait_us"]

    def test_each_write_of_a_session_gets_its_own_trace_name(self, session):
        # one naming rule on every transport: "<session>/txn-N" (a net
        # session used to stamp every write "<session>/txn")
        session.addblock("p(x) -> int(x).", name="b1")
        names = []
        for value in (1, 2):
            with obs.Profile() as prof:
                session.exec("+p({}).".format(value))
            names.append(prof.find("service.exec").attrs["txn"])
        assert names == [session.name + "/txn-1", session.name + "/txn-2"]

    def test_query_trace_carries_server_subtree(self, session):
        session.addblock("p(x) -> int(x).", name="b1")
        session.load("p", [(i,) for i in range(10)])
        with obs.Profile() as prof:
            rows = session.query("_(x) <- p(x).")
        assert len(rows) == 10
        roots = [r for r in prof.roots if r.attrs.get("op") == "query"]
        (root,) = roots
        names = {span_.name for span_ in _walk(root)}
        assert "net.request" in names and "service.query" in names

    def test_untraced_client_records_nothing(self, session):
        session.addblock("q(x) -> int(x).", name="b2")
        ambient = obs.tracing()  # REPRO_TRACE=1 keeps tracing on throughout
        before = [root.sid for root in obs.last_roots()]
        session.exec("+q(1).")
        assert obs.tracing() == ambient
        fresh = [r for r in obs.last_roots() if r.sid not in before]
        # nothing is recorded unless tracing is ambient — and then it is
        # the client's own call span, not a leaked server collector
        assert [r.name for r in fresh] == (["net.call"] if ambient else [])

    def test_replica_sync_roots_a_distributed_trace(self, tmp_path):
        service = TransactionService(config=ServiceConfig(
            checkpoint_path=str(tmp_path / "leader")))
        try:
            with ReproServer(service) as srv:
                with NetSession(srv.host, srv.port) as s:
                    s.addblock("item[k] = v -> int(k), int(v).", name="items")
                    s.load("item", [(i, i) for i in range(50)])
                    s.checkpoint()
                with Replica(srv.host, srv.port,
                             os.path.join(str(tmp_path), "r1")) as rep:
                    with obs.Profile() as prof:
                        info = rep.sync()
                    assert info["ingested"]
            root = next(r for r in prof.roots if r.name == "replica.sync")
            spans = list(_walk(root))
            calls = [s for s in spans if s.name == "net.call"]
            assert {c.attrs["op"] for c in calls} >= {
                "sync_manifest", "sync_records"}
            served = [s for s in spans
                      if s.name == "net.request"
                      and s.attrs.get("origin") == "server"]
            assert served  # the leader's subtrees grafted under our root
        finally:
            service.close()


class TestTelemetryVerb:
    def test_telemetry_over_the_wire(self, server, session):
        session.addblock("p(x) -> int(x).", name="b1")
        session.exec("+p(1).")
        payload = session.telemetry(ring_tail=4)
        assert payload["counters"]["service.commits"] >= 1
        assert payload["service"]["committed"] >= 1
        assert "span_totals" in payload and "slow_txns" in payload
        assert payload["pid"] == os.getpid()  # in-process server

    def test_ring_streams_when_sampler_configured(self, tmp_path):
        service = TransactionService(config=ServiceConfig(
            telemetry_interval_s=0.02, telemetry_ring=8))
        try:
            with ReproServer(service) as srv:
                with NetSession(srv.host, srv.port) as s:
                    deadline = 100
                    ring = []
                    while not ring and deadline:
                        ring = s.telemetry(ring_tail=4).get("ring") or []
                        deadline -= 1
                    assert ring
                    seqs = [e["seq"] for e in ring]
                    assert seqs == sorted(seqs)
        finally:
            service.close()


class TestExplainVerb:
    def test_explain_over_the_wire(self, session):
        session.addblock("edge(x, y) -> int(x), int(y).", name="b1")
        session.exec("+edge(1, 2). +edge(2, 3). +edge(1, 3).")
        report = session.explain(
            "_(x, z) <- edge(x, y), edge(y, z).")
        assert isinstance(report, ExplainReport)
        assert report.row_count == 1
        (rule,) = report.rules
        assert rule["actual_steps"] > 0
        assert rule["estimated_steps"] is not None
        assert rule["error_ratio"] is not None
        assert "EXPLAIN ANALYZE" in report.format()


class TestTopDashboard:
    def test_top_once_renders(self, server, session):
        session.addblock("p(x) -> int(x).", name="b1")
        session.exec("+p(1).")
        from repro.obs import top

        out = io.StringIO()
        rc = top.main(["{}:{}".format(server.host, server.port), "--once"],
                      out=out)
        assert rc == 0
        text = out.getvalue()
        assert "repro top" in text
        assert "service.commits" in text or "counters" in text

"""Snapshot of the public API surface.

These tests pin the names exported from ``repro`` / ``repro.service``,
the :class:`TxnResult` field set, and the error taxonomy, so accidental
surface changes fail loudly instead of breaking clients."""

import contextlib
import dataclasses
import inspect
import time

import pytest

import repro
from repro import (
    ConflictError,
    ConstraintViolation,
    Overloaded,
    ReproError,
    TransactionAborted,
    TxnResult,
    TxnTimeout,
    UnknownPredicate,
    Workspace,
)
from repro.engine.columnar import make_join
from repro.engine.evaluator import Evaluator
from repro.engine.ivm import IncrementalEngine
from repro.engine.lftj import LeapfrogTrieJoin
from repro.obs import explain_query
from repro.runtime.workspace import evaluate_query
from repro.txn.repair import PreparedTransaction


class TestExports:
    def test_top_level_all(self):
        assert set(repro.__all__) == {
            "Workspace",
            "Workbook",
            "connect",
            "TxnResult",
            "ReproError",
            "TransactionAborted",
            "ConstraintViolation",
            "ConflictError",
            "TxnTimeout",
            "Overloaded",
            "UnknownPredicate",
            "__version__",
        }

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_service_exports(self):
        import repro.service as service

        assert set(service.__all__) == {
            "TransactionService",
            "ServiceConfig",
            "Session",
            "connect",
            "AdmissionController",
            "Ticket",
            "FaultInjector",
            "InjectedCrash",
        }
        for name in service.__all__:
            assert getattr(service, name) is not None

    def test_connect_is_the_session_entry_point(self):
        session = repro.connect()
        try:
            assert type(session).__name__ == "Session"
        finally:
            session.close()


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(TransactionAborted, ReproError)
        assert issubclass(ConstraintViolation, TransactionAborted)
        assert issubclass(ConflictError, TransactionAborted)
        assert issubclass(TxnTimeout, TransactionAborted)
        assert issubclass(Overloaded, ReproError)
        assert issubclass(UnknownPredicate, ReproError)

    def test_compat_mixins(self):
        # pre-0.2 client code caught stdlib types; keep that working
        assert issubclass(TransactionAborted, RuntimeError)
        assert issubclass(Overloaded, RuntimeError)
        assert issubclass(UnknownPredicate, KeyError)

    def test_payloads(self):
        assert ConflictError("c", preds=["p"]).preds == ["p"]
        assert TxnTimeout("t", deadline_s=1.5).deadline_s == 1.5
        error = Overloaded("o", depth=9, limit=8)
        assert (error.depth, error.limit) == (9, 8)


class TestTxnResult:
    def test_field_snapshot(self):
        fields = {f.name for f in dataclasses.fields(TxnResult)}
        assert fields == {
            "status",
            "kind",
            "deltas",
            "rows",
            "stats",
            "span_id",
            "block",
            "attempts",
            "repairs",
            "latency_s",
        }

    def test_workspace_verbs_return_results(self):
        ws = Workspace()
        added = ws.addblock("p(x) -> int(x).", name="b1")
        assert isinstance(added, TxnResult)
        assert added.kind == "addblock" and added.block == "b1"
        assert str(added) == "b1"
        loaded = ws.load("p", [(1,)])
        assert isinstance(loaded, TxnResult) and loaded.committed
        result = ws.exec("+p(2).")
        assert isinstance(result, TxnResult)
        assert result.kind == "exec" and result.status == "committed"
        assert "p" in result.deltas
        assert result.changed_predicates() == ["p"]
        assert result.latency_s is not None and result.latency_s >= 0
        # removeblock accepts the result object addblock returned
        removed = ws.removeblock(ws.addblock("q(x) -> int(x).", name="b7"))
        assert removed.kind == "removeblock" and removed.block == "b7"

    def test_query_result(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x).", name="b1")
        ws.load("p", [(1,), (2,)])
        result = ws.query_result("_(x) <- p(x).")
        assert isinstance(result, TxnResult)
        assert result.kind == "query"
        assert sorted(result.rows) == [(1,), (2,)]
        # plain query still returns bare rows
        assert sorted(ws.query("_(x) <- p(x).")) == [(1,), (2,)]

    def test_to_dict(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x).", name="b1")
        result = ws.exec("+p(1).")
        snapshot = result.to_dict()
        assert snapshot["status"] == "committed"
        assert snapshot["kind"] == "exec"
        assert "p" in snapshot["deltas"]


class TestNetSessionSurface:
    """The network session mirrors the local session: same verbs, same
    result shapes, so code written against one runs against the other."""

    def test_net_exports(self):
        import repro.net as net

        assert set(net.__all__) == {
            "DEFAULT_PORT",
            "PROTOCOL_VERSION",
            "ClusterSession",
            "ConnectionLost",
            "LeaderUnavailable",
            "NetError",
            "NetSession",
            "ProtocolError",
            "Replica",
            "ReplicaReadOnly",
            "ReproServer",
            "StaleRead",
            "VerbNotServed",
        }
        for name in net.__all__:
            assert getattr(net, name) is not None

    def test_every_transport_has_every_session_verb(self):
        # the registry is the surface: every verb it declares is a
        # method with that exact signature on all five transports
        from repro.net import ClusterSession, NetSession, Replica
        from repro.net.protocol import VERBS
        from repro.service.session import Session
        from repro.shard import ShardedWorkspace

        transports = (
            Session, NetSession, ClusterSession, Replica, ShardedWorkspace)
        assert len(VERBS) == 21
        surface = {spec.name: spec.signature for spec in VERBS.values()}
        surface["query"] = surface["query_result"]
        for verb, signature in surface.items():
            for transport in transports:
                method = getattr(transport, verb)
                assert inspect.signature(method) == signature, (
                    transport.__name__, verb)
                assert method.__doc__, (transport.__name__, verb)
        for transport in transports:
            for name in ("close", "__enter__", "__exit__"):
                assert callable(getattr(transport, name)), name

    def test_every_verb_is_declared_once(self):
        from repro.net.protocol import ROUTES, VERBS

        for op, spec in VERBS.items():
            assert spec.op == op and spec.route in ROUTES
            assert spec.write == (spec.route in ("write", "shard-circuit"))
            assert spec.doc and spec.signature is not None
        # the only verbs whose retry contract is not their class default
        assert {s.op for s in VERBS.values()
                if s.retryable == s.write} == {"promote", "shard_abort"}
        assert VERBS["query"].name == "query_result"
        assert VERBS["stats"].service == "service_stats"
        assert VERBS["exec"].stamp == "name"

    def test_a_refused_verb_is_a_typed_error_on_every_transport(self, tmp_path):
        from repro.net import ClusterSession, Replica, VerbNotServed
        from repro.shard import ShardedWorkspace

        with repro.connect() as session:
            with pytest.raises(VerbNotServed):
                session.sync_manifest()  # no checkpoint feed in-process
        with ClusterSession(["127.0.0.1:7411"]) as cluster:
            with pytest.raises(VerbNotServed, match="tcp://"):
                cluster.promote()  # a member verb needs one endpoint
        with ShardedWorkspace.local(2, partition={"p": 0}) as sharded:
            for refused in (lambda: sharded.explain("_(x) <- p(x)."),
                            lambda: sharded.watch(),
                            lambda: sharded.shard_abort("token")):
                with pytest.raises(VerbNotServed):
                    refused()
        with Replica("127.0.0.1", 1, str(tmp_path / "r")) as replica:
            with pytest.raises(ReproError):
                replica.exec("+p(1).")  # ReplicaReadOnly names the leader

    def test_sharded_workspace_serves_the_admin_verbs(self):
        from repro.shard import ShardedWorkspace

        with ShardedWorkspace.local(2, partition={"p": 0}) as sharded:
            with pytest.raises(TypeError):
                sharded.addblock("p(x) -> int(x).", "positional-name")
            sharded.addblock("p(x) -> int(x).", name="b1")
            sharded.load("p", [(i,) for i in range(6)])
            with pytest.raises(TypeError):
                sharded.query("_(x) <- p(x).", "_")
            result = sharded.query_result("_(x) <- p(x).", answer="_")
            assert isinstance(result, TxnResult) and result.kind == "query"
            assert result.rows == sharded.query("_(x) <- p(x).")
            assert len(result.rows) == 6
            stats = sharded.stats()
            assert [s["role"] for s in stats] == ["leader", "leader"]
            assert all("counters" in t for t in sharded.telemetry(ring_tail=2))
            assert sharded.ping() >= 0.0
            with pytest.raises(ReproError, match="checkpoint_path"):
                sharded.checkpoint()

    def test_adding_a_verb_is_one_table_entry(self, tmp_path):
        # two throw-away verbs declared in a *copy* of the registry are
        # routable on client, server, local session, cluster and
        # replica with no other code: stubs, dispatch, refusal and
        # routing all follow from the declaration
        from repro.net import (
            ClusterSession, NetSession, Replica, ReplicaReadOnly,
            ReproServer, VerbNotServed)
        from repro.net.protocol import VERBS, verb
        from repro.service import ServiceConfig, Session, TransactionService

        table = dict(VERBS)

        class Extra:
            @verb(table=table, route="read")
            def echo(self, value, *, times=1):
                """Throw-away read verb."""

            @verb(table=table, route="write")
            def poke(self, value):
                """Throw-away write verb."""

        assert set(table) - set(VERBS) == {"echo", "poke"}

        class Service(TransactionService):
            def echo(self, value, *, times=1):
                return {"echo": [value] * times}

            def poke(self, value):
                return {"poked": value}

        class Server(ReproServer):
            verbs = table

        class Local(Extra, Session): pass
        class Client(Extra, NetSession): pass
        class Cluster(Extra, ClusterSession): pass
        class Follower(Extra, Replica): pass

        service = Service(config=ServiceConfig(
            checkpoint_path=str(tmp_path / "leader")))
        try:
            with Server(service) as server:
                with Local(service) as local:
                    assert local.echo("hi") == {"echo": ["hi"]}
                endpoint = "{}:{}".format(server.host, server.port)
                with Client(server.host, server.port) as client:
                    assert str(inspect.signature(client.echo)) == \
                        "(value, *, times=1)"
                    assert client.echo("hi", times=2) == {"echo": ["hi", "hi"]}
                    assert client.poke(3) == {"poked": 3}
                    with pytest.raises(ReproError, match="needs argument"):
                        client._verb(table["echo"], {})
                    client.addblock("p(x) -> int(x).", name="b1")
                    client.checkpoint()
                with Cluster([endpoint]) as cluster:
                    assert cluster.echo("fan") == {"echo": ["fan"]}
                    assert cluster.poke(5) == {"poked": 5}
                with Follower(server.host, server.port,
                              str(tmp_path / "replica")) as follower:
                    assert follower.sync()["ingested"]
                    with pytest.raises(ReplicaReadOnly, match="poke"):
                        follower.poke(1)
                    with pytest.raises(VerbNotServed):
                        follower.echo("a workspace has no echo")
            # a server on the stock table has never heard of the verb
            with ReproServer(service) as stock:
                with Client(stock.host, stock.port) as client:
                    with pytest.raises(ReproError, match="unknown op"):
                        client.echo("hi")
        finally:
            service.close()

    def test_every_transport_tracks_a_watermark(self):
        # the session-consistency anchor is part of the surface: all
        # three transports expose the highest observed commit watermark
        from repro.net import ClusterSession

        with repro.connect() as session:
            assert session.watermark == 0
            session.addblock("p(x) -> int(x).")
            assert session.watermark > 0  # local writes advance it
        with ClusterSession(["127.0.0.1:7411"]) as cluster:
            assert cluster.watermark == 0  # nothing observed yet

    def test_net_errors_are_repro_errors(self):
        from repro.net import (
            ConnectionLost,
            LeaderUnavailable,
            NetError,
            ProtocolError,
            ReplicaReadOnly,
            StaleRead,
        )

        assert issubclass(NetError, ReproError)
        assert issubclass(ProtocolError, NetError)
        assert issubclass(ReplicaReadOnly, NetError)
        assert issubclass(ConnectionLost, NetError)
        assert issubclass(ConnectionLost, ConnectionError)
        assert issubclass(StaleRead, NetError)
        assert issubclass(LeaderUnavailable, NetError)

    def test_same_shapes_against_a_live_server(self):
        import repro.net
        from repro.service import TransactionService

        service = TransactionService()
        server = service.serve()
        local = repro.connect()
        try:
            remote = repro.connect(
                "tcp://{}:{}".format(server.host, server.port))
            for session in (local, remote):
                added = session.addblock("p(x) -> int(x).", name="b1")
                assert isinstance(added, TxnResult)
                assert added.kind == "addblock" and added.block == "b1"
                loaded = session.load("p", [(1,)])
                assert isinstance(loaded, TxnResult) and loaded.committed
                result = session.exec("+p(2).")
                assert isinstance(result, TxnResult)
                assert result.kind == "exec" and result.status == "committed"
                assert result.changed_predicates() == ["p"]
                assert sorted(result.deltas["p"].added) == [(2,)]
                assert result.latency_s is not None and result.latency_s >= 0
                qr = session.query_result("_(x) <- p(x).")
                assert isinstance(qr, TxnResult) and qr.kind == "query"
                assert sorted(qr.rows) == [(1,), (2,)]
                assert sorted(session.query("_(x) <- p(x).")) == [(1,), (2,)]
                assert sorted(session.rows("p")) == [(1,), (2,)]
                removed = session.removeblock("b1")
                assert removed.kind == "removeblock" and removed.block == "b1"
                session.close()
        finally:
            local.close()
            server.stop()
            service.close()


@contextlib.contextmanager
def _transport(kind):
    """A fresh target of one transport kind: a bare workspace, an
    in-process session, ``tcp://`` or ``cluster://`` to a served
    service, or two in-process shards behind the coordinator."""
    from repro.service import TransactionService
    from repro.shard import ShardedWorkspace

    if kind == "workspace":
        yield Workspace()
    elif kind == "session":
        with repro.connect() as session:
            yield session
    elif kind == "shards":
        with ShardedWorkspace.local(
                2, partition={"E": 0, "lineitem": 0}) as sharded:
            yield sharded
    else:
        service = TransactionService()
        server = service.serve()
        try:
            url = "{}://{}:{}".format(kind, server.host, server.port)
            with repro.connect(url) as remote:
                yield remote
        finally:
            server.stop()
            service.close()


class TestDerivedWrites:
    """IVM alone maintains derived predicates: whichever transport
    carries it, a write to one aborts with the same typed error and
    leaves every view equal to a fresh evaluation of its rule."""

    SCHEMA = (
        "E(x, y) -> int(x), int(y).\n"
        "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
    )
    VIEWS = (
        "R(x) <- E(x, _).\n"
        "cnt[] = n <- agg<<n = count(y)>> E(_, y).\n"
        "total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).\n"
    )
    #: view -> a query of its defining rule
    RULES = {
        "R": "_(x) <- E(x, _).",
        "cnt": "_(n) <- agg<<n = count(y)>> E(_, y).",
        "total": "_(o, s) <- agg<<s = sum(q)>> lineitem(o, l, q).",
    }
    WRITES = (
        "+R(5).",
        "-R(1).",
        "+cnt[] = 9.",
        "+total[o] = 7 <- lineitem@start(o, _, _).",
        # matches no row: refused all the same, not an empty commit
        "+R(x) <- E@start(x, _), x > 100.",
    )

    def _install(self, target):
        target.addblock(self.SCHEMA, name="schema")
        target.addblock(self.VIEWS, name="views")
        target.load("E", [(1, 2), (2, 3), (3, 4)])
        target.load("lineitem", [(o, 10 * o, o + 1) for o in range(6)])

    def _assert_views_hold(self, target):
        for view, rule in self.RULES.items():
            rows = sorted(tuple(r) for r in target.rows(view))
            assert rows == sorted(tuple(r) for r in target.query(rule)), view

    @pytest.mark.parametrize(
        "kind", ["workspace", "session", "tcp", "cluster", "shards"])
    def test_a_derived_write_is_refused_on_every_transport(self, kind):
        with _transport(kind) as target:
            self._install(target)
            for write in self.WRITES:
                with pytest.raises(TransactionAborted,
                                   match="cannot write to derived predicate"):
                    target.exec(write)
            self._assert_views_hold(target)

    def test_a_derived_write_aborts_alone_in_its_commit_group(self):
        import threading

        from repro.service import TransactionService

        with TransactionService() as service:
            self._install(service)
            held, release = threading.Event(), threading.Event()

            def hold(ws):
                held.set()
                release.wait(10)

            # park the committer in a barrier so both writes queue
            # behind it and are drained as one commit group
            holder = threading.Thread(
                target=service._barrier, args=(hold, "hold", 10))
            holder.start()
            assert held.wait(10)
            outcomes = {}

            def write(label, source):
                try:
                    outcomes[label] = service.exec(source, timeout=10).status
                except TransactionAborted as exc:
                    outcomes[label] = str(exc)

            writers = [
                threading.Thread(target=write, args=("derived", "+R(9).")),
                threading.Thread(target=write, args=("base", "+E(7, 8).")),
            ]
            for writer in writers:
                writer.start()
            deadline = time.time() + 10
            while (service.service_stats()["queued"] < 2
                   and time.time() < deadline):
                time.sleep(0.005)
            release.set()
            for thread in [holder] + writers:
                thread.join(10)
            assert outcomes == {
                "derived": "cannot write to derived predicate R",
                "base": "committed",
            }
            assert service.service_stats()["service.batch_fallbacks"] == 1
            assert (7, 8) in service.rows("E")
            assert (9,) not in service.rows("R")
            self._assert_views_hold(service)


class TestUnifiedConnect:
    """``repro.connect`` is the one entry point for every transport:
    a workspace path, ``tcp://host:port``, or ``cluster://a,b,c`` —
    with the consistency keyword honored by all of them."""

    def test_no_target_is_a_local_session(self):
        with repro.connect() as session:
            assert type(session).__name__ == "Session"
            assert session.consistency == "session"

    def test_path_target_is_a_durable_local_session(self, tmp_path):
        path = str(tmp_path / "db")
        with repro.connect(path) as session:
            assert type(session).__name__ == "Session"
            assert session.service.config.checkpoint_path == path
            session.addblock("p(x) -> int(x).")
            session.load("p", [(7,)])
            session.checkpoint()
        # the path *is* the database: reconnecting recovers it
        with repro.connect(path) as session:
            assert session.rows("p") == [(7,)]

    def test_tcp_target_is_a_net_session(self):
        from repro.net import NetSession
        from repro.service import TransactionService

        service = TransactionService()
        server = service.serve()
        try:
            url = "tcp://{}:{}".format(server.host, server.port)
            with repro.connect(url, consistency="eventual") as session:
                assert isinstance(session, NetSession)
                assert session.consistency == "eventual"
                assert session.server_role == "leader"
        finally:
            server.stop()
            service.close()

    def test_cluster_target_is_a_cluster_session(self):
        from repro.net import ClusterSession

        # membership is lazy: no sockets open until the first verb
        url = "cluster://127.0.0.1:7411,127.0.0.1:7412,127.0.0.1:7413"
        with repro.connect(url) as session:
            assert isinstance(session, ClusterSession)
            assert session.endpoints() == [
                "127.0.0.1:7411", "127.0.0.1:7412", "127.0.0.1:7413"]
            assert session.consistency == "session"

    def test_consistency_is_validated_up_front(self):
        with pytest.raises(ValueError):
            repro.connect(consistency="serializable-ish")
        with pytest.raises(ValueError):
            repro.connect("cluster://127.0.0.1:7411", consistency="nope")


class TestKeywordOnlyConstructors:
    def test_workspace_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            Workspace(True)

    @pytest.mark.parametrize(
        "ctor, keywords",
        [(Workspace.__init__, set()), (Workspace.open, set())],
        ids=["init", "open"],
    )
    def test_workspace_keyword_sets(self, ctor, keywords):
        params = inspect.signature(ctor).parameters.values()
        assert {p.name for p in params if p.kind is p.KEYWORD_ONLY} == keywords

    @pytest.mark.parametrize(
        "target, keywords",
        [
            (Evaluator, {"order_chooser", "params"}),
            (IncrementalEngine, {"params"}),
            (PreparedTransaction, set()),
            (evaluate_query, set()),
            (explain_query, {"sample_size", "max_candidates"}),
            (LeapfrogTrieJoin, {"stats"}),
            (make_join, {"stats", "backend"}),
        ],
        ids=["evaluator", "incremental_engine", "prepared_transaction",
             "evaluate_query", "explain_query", "leapfrog_trie_join",
             "make_join"],
    )
    def test_engine_keyword_sets(self, target, keywords):
        # each join picks its executor and plans come from each rule's
        # memo (``params`` are a cached shape's literals, bound per
        # call): nothing here threads a cache or backend through, and
        # every join reads relations through treap iterators (no caller
        # picks a storage representation); only ``make_join`` can force
        # an executor, for benchmarks and executor tests
        params = inspect.signature(target).parameters.values()
        assert {p.name for p in params if p.kind is p.KEYWORD_ONLY} == keywords

    def test_evaluator_flags_are_keyword_only(self):
        from repro.engine.evaluator import Evaluator, RuleSet

        with pytest.raises(TypeError):
            Evaluator(RuleSet([]), None)

    def test_service_flags_are_keyword_only(self):
        from repro.service import ServiceConfig, TransactionService

        with pytest.raises(TypeError):
            TransactionService(None, ServiceConfig())

    def test_service_config_has_one_conflict_policy(self):
        from repro.service import ServiceConfig

        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "max_pending", "default_timeout_s", "max_retries",
            "checkpoint_path", "checkpoint_every_n_commits",
            "checkpoint_on_shutdown", "net_chunk_rows",
            "net_max_connections", "telemetry_interval_s", "telemetry_ring",
            "slow_txn_s", "shard_index", "shard_count",
        ]
        # conflicts are always repaired: there is no mode to pick
        with pytest.raises(TypeError):
            repro.connect(mode="occ")

"""Client sessions and the ``repro.connect`` entry point."""

import pytest

import repro
from repro import TxnResult, Workspace, obs
from repro.runtime.errors import ReproError
from repro.service import ServiceConfig, TransactionService, connect


class TestConnect:
    def test_connect_owns_a_fresh_service(self):
        session = repro.connect()
        try:
            session.addblock("p(x) -> int(x).", name="schema")
            session.load("p", [(1,)])
            assert session.rows("p") == [(1,)]
        finally:
            session.close()
        # closing an owning session closes its service
        with pytest.raises(ReproError):
            session.service.exec("+p(2).")

    def test_connect_over_existing_workspace(self):
        ws = Workspace()
        ws.addblock('c[s] = v -> string(s), int(v).', name="schema")
        ws.load("c", [("k", 1)])
        with connect(ws) as session:
            session.exec('^c["k"] = x <- c@start["k"] = y, x = y + 1.')
        assert ws.rows("c") == [("k", 2)]

    def test_connect_config_kwargs(self):
        with connect(max_pending=2, max_retries=7) as session:
            assert session.service.config.max_pending == 2
            assert session.service.config.max_retries == 7

    def test_connect_rejects_config_with_shared_service(self):
        with TransactionService() as service:
            with pytest.raises(TypeError):
                connect(service=service, max_pending=4)

    def test_shared_service_sessions(self):
        with TransactionService(config=ServiceConfig()) as service:
            service.addblock('c[s] = v -> string(s), int(v).', name="schema")
            service.load("c", [("k", 0)])
            one = connect(service=service, name="one")
            two = connect(service=service, name="two")
            one.exec('^c["k"] = x <- c@start["k"] = y, x = y + 1.')
            two.exec('^c["k"] = x <- c@start["k"] = y, x = y + 1.')
            assert service.rows("c") == [("k", 2)]
            # closing a non-owning session leaves the service running
            one.close()
            two.exec('^c["k"] = x <- c@start["k"] = y, x = y + 1.')
            two.close()


class TestSessionBehavior:
    def test_session_names_transactions(self):
        with connect(name="alice") as session:
            session.addblock('c[s] = v -> string(s), int(v).', name="schema")
            session.load("c", [("k", 0)])
            with obs.Profile() as prof:
                session.exec('^c["k"] = x <- c@start["k"] = y, x = y + 1.')
            assert prof.find("service.exec").attrs["txn"] == "alice/txn-1"

    def test_closed_session_refuses_verbs(self):
        session = repro.connect()
        session.close()
        with pytest.raises(ReproError):
            session.query("_(x) <- p(x).")
        # idempotent close
        session.close()

    def test_verbs_return_txn_results(self):
        with repro.connect() as session:
            added = session.addblock("p(x) -> int(x).", name="schema")
            assert isinstance(added, TxnResult) and added.block == "schema"
            loaded = session.load("p", [(1,), (2,)])
            assert isinstance(loaded, TxnResult) and loaded.committed
            result = session.exec("+p(3).")
            assert isinstance(result, TxnResult) and "p" in result.deltas
            assert session.query("_(x) <- p(x).") == [(1,), (2,), (3,)]
            structured = session.query_result("_(x) <- p(x).")
            assert structured.rows == [(1,), (2,), (3,)]
            removed = session.removeblock("schema")
            assert removed.kind == "removeblock"

    def test_session_default_timeout_flows_to_service(self):
        with connect(timeout=30) as session:
            session.addblock("p(x) -> int(x).", name="schema")
            result = session.exec("+p(1).")
            assert result.committed

"""The concurrent transaction service: scheduling, repair, group commit."""

import threading

import pytest

from repro import (
    ConflictError,
    ConstraintViolation,
    TxnResult,
    Workspace,
)
from repro.service import ServiceConfig, TransactionService

COUNTER = 'counter[s] = v -> string(s), int(v).\n'
BUMP = '^counter["hits"] = x <- counter@start["hits"] = y, x = y + 1.'


def make_service(**config):
    service = TransactionService(config=ServiceConfig(**config))
    service.addblock(COUNTER, name="schema")
    service.load("counter", [("hits", 0)])
    return service


class TestBasics:
    def test_exec_returns_txn_result(self):
        with make_service() as service:
            result = service.exec(BUMP)
            assert isinstance(result, TxnResult)
            assert result.committed and result.kind == "exec"
            assert result.attempts == 1
            assert service.rows("counter") == [("hits", 1)]

    def test_reads_are_lock_free_on_head_snapshots(self):
        with make_service() as service:
            service.exec(BUMP)
            assert service.query('_(v) <- counter["hits"] = v.') == [(1,)]
            result = service.query_result('_(v) <- counter["hits"] = v.')
            assert result.kind == "query" and result.rows == [(1,)]

    def test_ddl_barriers_serialize_with_writes(self):
        with make_service() as service:
            added = service.addblock(
                'doubled[s] = v -> string(s), int(v).\n'
                'doubled[s] = v <- counter[s] = c, v = c * 2.\n',
                name="view")
            assert added.kind == "addblock" and added.block == "view"
            service.exec(BUMP)
            assert service.rows("doubled") == [("hits", 2)]
            removed = service.removeblock("view")
            assert removed.kind == "removeblock"

    def test_service_over_existing_workspace(self):
        ws = Workspace()
        ws.addblock(COUNTER, name="schema")
        ws.load("counter", [("hits", 5)])
        with TransactionService(ws) as service:
            service.exec(BUMP)
        assert ws.rows("counter") == [("hits", 6)]

    def test_constraint_violation_aborts_cleanly(self):
        with make_service() as service:
            service.addblock('counter[s] = v -> v >= 0.', name="nonneg")
            with pytest.raises(ConstraintViolation):
                service.exec('^counter["hits"] = x <- '
                             'counter@start["hits"] = y, x = y - 1.')
            # head untouched, service still live
            assert service.rows("counter") == [("hits", 0)]
            assert service.exec(BUMP).committed

    def test_close_is_idempotent_and_drains(self):
        service = make_service()
        service.exec(BUMP)
        service.close()
        service.close()
        from repro.runtime.errors import ReproError

        with pytest.raises(ReproError):
            service.exec(BUMP)


class TestConcurrency:
    def test_conflicting_writers_all_commit_via_repair(self):
        with make_service(max_pending=16) as service:
            threads, errors = [], []

            def writer():
                try:
                    for _ in range(5):
                        service.exec(BUMP)
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            for _ in range(8):
                threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # every increment survived: repair serialized all 40 bumps
            assert service.rows("counter") == [("hits", 40)]
            stats = service.service_stats()
            assert stats["service.commits"] == 40
            assert stats["committed"] == 40

    def test_commit_history_is_a_serializable_order(self):
        with make_service(max_pending=16) as service:
            start = service.commit_watermark

            def writer(n):
                for _ in range(n):
                    service.exec(BUMP)

            threads = [
                threading.Thread(target=writer, args=(4,)) for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # every read-modify-write saw its predecessor's value (the
            # serial outcome), and each commit took exactly one sequence
            # number
            assert service.rows("counter") == [("hits", 24)]
            assert service.commit_watermark == start + 24
            assert service.service_stats()["committed"] == 24

    def test_disjoint_writers_group_commit(self):
        with make_service(max_pending=16) as service:
            service.load("counter", [("w{}".format(i), 0) for i in range(4)])
            src = ('^counter["w{0}"] = x <- '
                   'counter@start["w{0}"] = y, x = y + 1.')

            def writer(i):
                for _ in range(5):
                    service.exec(src.format(i))

            threads = [
                threading.Thread(target=writer, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            rows = dict(service.rows("counter"))
            assert all(rows["w{}".format(i)] == 5 for i in range(4))
            stats = service.service_stats()
            # batching happened: fewer batches than commits
            assert stats["service.batches"] <= stats["service.commits"]


class TestOccMode:
    def test_occ_exhausted_retries_raise_conflict(self):
        from repro.service import FaultInjector

        faults = FaultInjector()
        # every commit attempt conflicts (2 attempts = 1 + max_retries)
        faults.script("commit", "conflict", times=2)
        service = TransactionService(
            config=ServiceConfig(max_retries=1), faults=faults)
        with service:
            service.addblock(COUNTER, name="schema")
            service.load("counter", [("hits", 0)])
            with pytest.raises(ConflictError):
                service.exec(BUMP)
            stats = service.service_stats()
            assert stats["service.aborts"] == 1
            assert stats["service.retries"] == 1


class TestGroupCommitFallback:
    def test_composite_violation_falls_back_to_serial(self):
        """Two txns that are individually fine but jointly violate a
        constraint: the group apply aborts, the serial fallback commits
        the first and aborts the second."""
        from repro.service import FaultInjector

        faults = FaultInjector()
        hold = threading.Event()
        # hold the committer until both writers are queued, forcing one group
        faults.script("commit", "block", times=1, event=hold)
        service = TransactionService(
            config=ServiceConfig(max_pending=8), faults=faults)
        with service:
            service.addblock(
                'stock[s] = v -> string(s), int(v).\n'
                'stock[s] = v -> v >= 0.\n', name="schema")
            service.load("stock", [("gadget", 1)])
            src = ('^stock["gadget"] = x <- '
                   'stock@start["gadget"] = y, x = y - 1.')
            outcomes = []

            def writer():
                try:
                    outcomes.append(service.exec(src, timeout=10).status)
                except ConstraintViolation:
                    outcomes.append("aborted")

            threads = [threading.Thread(target=writer) for _ in range(2)]
            for t in threads:
                t.start()
            # both queued behind the held committer, then release it
            import time

            deadline = time.time() + 5
            while service.service_stats()["queued"] < 2 and time.time() < deadline:
                time.sleep(0.005)
            hold.set()
            for t in threads:
                t.join()
            assert sorted(outcomes) == ["aborted", "committed"]
            assert service.rows("stock") == [("gadget", 0)]
            assert service.service_stats().get("service.batch_fallbacks", 0) >= 1


class TestStatsSurface:
    def test_service_stats_counters(self):
        with make_service() as service:
            service.exec(BUMP)
            service.query('_(v) <- counter["hits"] = v.')
            stats = service.service_stats()
            assert stats["service.admitted"] >= 1
            assert stats["service.commits"] == 1
            assert stats["service.queries"] == 1
            assert stats["in_flight"] == 0
            assert stats["queued"] == 0

    def test_result_carries_stats_and_span(self):
        with make_service() as service:
            result = service.exec(BUMP)
            assert isinstance(result.stats, dict)
            assert result.latency_s is not None

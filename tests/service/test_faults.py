"""Deterministic fault injection, admission control, and deadlines."""

import threading
import time

import pytest

from repro import Overloaded, TxnTimeout
from repro.service import (
    AdmissionController,
    FaultInjector,
    InjectedCrash,
    ServiceConfig,
    TransactionService,
)

COUNTER = 'counter[s] = v -> string(s), int(v).\n'
BUMP = '^counter["hits"] = x <- counter@start["hits"] = y, x = y + 1.'


def make_service(faults=None, **config):
    service = TransactionService(
        config=ServiceConfig(**config), faults=faults)
    service.addblock(COUNTER, name="schema")
    service.load("counter", [("hits", 0)])
    return service


class TestFaultInjector:
    def test_script_validates_points_and_actions(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.script("nowhere", "delay")
        with pytest.raises(ValueError):
            faults.script("commit", "explode")

    def test_scripts_replay_fifo_and_record(self):
        faults = FaultInjector()
        faults.script("execute", "delay", seconds=0.0, times=2)
        with make_service(faults=faults) as service:
            service.exec(BUMP)
            service.exec(BUMP)
            service.exec(BUMP)  # script exhausted: fires nothing
        assert [(point, action) for point, action, _ in faults.fired] == [
            ("execute", "delay"),
            ("execute", "delay"),
        ]
        assert faults.pending("execute") == 0

    def test_injected_conflict_is_retried(self):
        faults = FaultInjector()
        faults.script("commit", "conflict", times=1)
        with make_service(faults=faults, max_retries=3) as service:
            result = service.exec(BUMP)
            assert result.committed and result.attempts == 2
            stats = service.service_stats()
            assert stats["service.retries"] == 1
            assert service.rows("counter") == [("hits", 1)]

    def test_injected_crash_aborts_without_retry(self):
        faults = FaultInjector()
        faults.script("commit", "crash", times=1)
        with make_service(faults=faults, max_retries=3) as service:
            with pytest.raises(InjectedCrash):
                service.exec(BUMP)
            assert service.service_stats()["service.aborts"] == 1
            # head untouched, next transaction commits
            assert service.exec(BUMP).committed
            assert service.rows("counter") == [("hits", 1)]

    def test_match_restricts_to_named_txn(self):
        faults = FaultInjector()
        faults.script("commit", "crash", match="victim")
        with make_service(faults=faults) as service:
            assert service.exec(BUMP, name="innocent").committed
            with pytest.raises(InjectedCrash):
                service.exec(BUMP, name="victim")
            assert service.exec(BUMP, name="innocent-2").committed

    def test_block_controls_interleaving(self):
        """Holding the committer lets a test deterministically build a
        multi-writer group commit."""
        faults = FaultInjector()
        release = threading.Event()
        faults.script("commit", "block", event=release)
        with make_service(faults=faults, max_pending=8) as service:
            results = []

            def writer():
                results.append(service.exec(BUMP, timeout=10))

            threads = [threading.Thread(target=writer) for _ in range(3)]
            threads[0].start()
            # the committer drains the first writer alone, then blocks at
            # its commit point; the other two queue up behind it
            deadline = time.time() + 5
            while not faults.fired and time.time() < deadline:
                time.sleep(0.005)
            for t in threads[1:]:
                t.start()
            while service.service_stats()["queued"] < 2 and time.time() < deadline:
                time.sleep(0.005)
            release.set()
            for t in threads:
                t.join()
            assert len(results) == 3 and all(r.committed for r in results)
            assert service.rows("counter") == [("hits", 3)]
            # batch one: the held writer; batch two: the two that queued
            # up while it was held — a deterministic group commit
            assert service.service_stats()["service.batches"] == 2


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self):
        controller = AdmissionController(max_pending=2, default_timeout_s=1.0)
        t1 = controller.admit(kind="exec")
        t2 = controller.admit(kind="exec")
        with pytest.raises(Overloaded) as info:
            controller.admit(kind="exec")
        assert info.value.limit == 2
        controller.release(t1)
        t3 = controller.admit(kind="exec")
        controller.release(t2)
        controller.release(t3)
        assert controller.depth == 0

    def test_service_rejects_beyond_window(self):
        faults = FaultInjector()
        hold = threading.Event()
        faults.script("commit", "block", event=hold)
        with make_service(faults=faults, max_pending=1) as service:
            started = threading.Event()
            holder_result = []

            def holder():
                started.set()
                holder_result.append(service.exec(BUMP, timeout=10))

            thread = threading.Thread(target=holder)
            thread.start()
            started.wait()
            deadline = time.time() + 5
            while service.service_stats()["in_flight"] < 1 and time.time() < deadline:
                time.sleep(0.005)
            with pytest.raises(Overloaded):
                service.exec(BUMP)
            assert service.service_stats()["service.overloads"] == 1
            hold.set()
            thread.join()
            assert holder_result and holder_result[0].committed

    def test_ticket_deadlines(self):
        controller = AdmissionController(max_pending=4, default_timeout_s=0.01)
        ticket = controller.admit(kind="exec")
        assert not ticket.expired()
        time.sleep(0.02)
        assert ticket.expired()
        assert ticket.remaining() == 0.0
        controller.release(ticket)

    def test_exec_timeout_raises_txn_timeout(self):
        faults = FaultInjector()
        faults.script("execute", "delay", seconds=0.05)
        with make_service(faults=faults, default_timeout_s=0.02) as service:
            with pytest.raises(TxnTimeout):
                service.exec(BUMP)
            assert service.service_stats()["service.timeouts"] >= 1
            # a roomier per-call deadline overrides the default
            assert service.exec(BUMP, timeout=5).committed


class TestBackoffDeterminism:
    def test_jitter_is_seeded(self):
        def run():
            faults = FaultInjector()
            faults.script("commit", "conflict", times=2)
            with make_service(faults=faults, max_retries=5) as service:
                result = service.exec(BUMP)
                return result.attempts

        assert run() == run() == 3

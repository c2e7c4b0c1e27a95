"""Deterministic fault injection, admission control, and deadlines."""

import threading
import time

import pytest

from repro import Overloaded, TxnTimeout, Workspace
from repro.datasets.txnload import alpha_transactions, setup_inventory
from repro.runtime.errors import ConflictError
from repro.service import (
    AdmissionController,
    FaultInjector,
    InjectedCrash,
    ServiceConfig,
    TransactionService,
)
from repro.txn.repair import PreparedTransaction, RepairScheduler

COUNTER = 'counter[s] = v -> string(s), int(v).\n'
BUMP = '^counter["hits"] = x <- counter@start["hits"] = y, x = y + 1.'


NOTE = "note(n) -> int(n).\n"


def make_service(faults=None, **config):
    service = TransactionService(
        config=ServiceConfig(**config), faults=faults)
    service.addblock(COUNTER + NOTE, name="schema")
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


def commit_as_one_group(service, faults, sources):
    """Commit ``sources`` as one group, in order.  A ``holder`` write of
    ``note(1)`` blocks the committer at its ``commit`` point while each
    source executes and queues; then all are released together.
    Returns each source's ``TxnResult`` or error, in order."""
    release = threading.Event()
    faults.script("commit", "block", event=release, match="holder")
    outcomes = {}

    def run(name, source):
        try:
            outcomes[name] = service.exec(source, name=name, timeout=30)
        except Exception as exc:
            outcomes[name] = exc

    deadline = time.time() + 10
    threads = [threading.Thread(target=run, args=("holder", "+note(1)."))]
    threads[0].start()
    while not faults.fired and time.time() < deadline:
        time.sleep(0.005)
    names = ["m{}".format(i) for i in range(len(sources))]
    for count, (name, source) in enumerate(zip(names, sources), 1):
        threads.append(threading.Thread(target=run, args=(name, source)))
        threads[-1].start()
        while (service.service_stats()["queued"] < count
               and time.time() < deadline):
            time.sleep(0.005)
    release.set()
    for thread in threads:
        thread.join()
    assert outcomes["holder"].committed
    return [outcomes[name] for name in names]


def repair_firings(faults):
    return [(action, txn) for point, action, txn in faults.fired
            if point == "repair"]


class TestRepairFaultPoint:
    """The ``repair`` point fires inside the group circuit, for the one
    member whose snapshot missed an earlier member's write."""

    def test_repair_conflict_is_retried(self):
        faults = FaultInjector()
        faults.script("repair", "conflict")
        with make_service(faults=faults, max_pending=8,
                          max_retries=3) as service:
            first, second = commit_as_one_group(service, faults, [BUMP, BUMP])
            assert first.committed and first.repairs == 0
            assert first.attempts == 1
            # retried on a fresh snapshot, where nothing needs repair
            assert second.committed and second.attempts == 2
            assert service.service_stats()["service.retries"] == 1
            assert service.rows("counter") == [("hits", 2)]
        assert repair_firings(faults) == [("conflict", "m1")]

    def test_repair_crash_aborts_only_the_matched_member(self):
        faults = FaultInjector()
        faults.script("repair", "crash", match="m1")
        # m1 adds 10: had its unrepaired effects composed, m2 would see them
        bump_ten = BUMP.replace("y + 1", "y + 10")
        with make_service(faults=faults, max_pending=8,
                          max_retries=3) as service:
            outcomes = commit_as_one_group(
                service, faults, [BUMP, bump_ten, BUMP])
            assert isinstance(outcomes[1], InjectedCrash)
            assert outcomes[0].committed and outcomes[0].repairs == 0
            # m2 composes after m0 alone: m1's effects never joined
            assert outcomes[2].committed and outcomes[2].repairs == 1
            assert service.service_stats()["service.aborts"] == 1
            assert service.rows("counter") == [("hits", 2)]
        assert repair_firings(faults) == [("crash", "m1")]

    def test_failed_repair_surfaces_as_a_conflict(self, monkeypatch):
        original = PreparedTransaction.correct

        def correct(txn, corrections):
            if txn.name == "m1":
                raise RuntimeError("boom")
            return original(txn, corrections)

        monkeypatch.setattr(PreparedTransaction, "correct", correct)
        faults = FaultInjector()
        with make_service(faults=faults, max_pending=8,
                          max_retries=0) as service:
            first, second = commit_as_one_group(service, faults, [BUMP, BUMP])
            assert first.committed
            assert isinstance(second, ConflictError)
            assert "repair failed: boom" in str(second)
            assert "counter" in second.preds
            assert service.rows("counter") == [("hits", 1)]


class TestGroupCommitIsTheCircuit:
    def test_one_group_commits_like_the_scheduler_and_serially(self):
        """One ``alpha_transactions`` batch committed as a single
        service group ends where ``RepairScheduler.run`` and serial
        ``Workspace.exec`` end, with the same repair per member."""
        batch = alpha_transactions(30, 8, 2.0, seed=37)
        scheduler_ws, serial_ws = Workspace(), Workspace()
        for ws in (scheduler_ws, serial_ws):
            setup_inventory(ws, 30)
        prepared = RepairScheduler(scheduler_ws).run(batch)
        for source in batch:
            serial_ws.exec(source)
        faults = FaultInjector()
        service = TransactionService(
            config=ServiceConfig(max_pending=len(batch) + 1), faults=faults)
        with service:
            setup_inventory(service, 30)
            service.addblock(NOTE)
            results = commit_as_one_group(service, faults, batch)
            for pred in ("inventory", "place_order"):
                assert (sorted(service.rows(pred))
                        == sorted(scheduler_ws.rows(pred))
                        == sorted(serial_ws.rows(pred)))
            assert [r.repairs for r in results] == [
                txn.repair_count for txn in prepared]
            assert any(r.repairs for r in results)
            # the batch was one group: holder's, then the batch's
            assert service.service_stats()["service.batches"] == 2

    def test_a_moved_view_repairs_a_member_that_read_it(self):
        # the holder's note(1) reaches the member only through the view
        # it reads: the derived side of the snapshot-to-head diff
        with make_service(faults=FaultInjector(), max_pending=8) as service:
            service.addblock("seen(n) <- note(n).\ncopy(n) -> int(n).")
            [result] = commit_as_one_group(
                service, service.faults, ["+copy(n) <- seen@start(n)."])
            assert result.committed and result.repairs == 1
            assert service.rows("copy") == [(1,)]


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

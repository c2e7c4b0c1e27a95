"""One exec path: every transport runs an ``exec``'s reactive logic as a
:class:`~repro.txn.repair.PreparedTransaction`.

Whichever transport carries an exec, it commits the same rows, fires the
program's installed reactive rules, and refuses a source holding anything
but reactive rules."""

import re
import threading

import pytest

from repro import ConflictError, TransactionAborted, Workspace
from repro import stats
from repro.shard import ShardedWorkspace
from tests.runtime.test_api_surface import _transport

TRANSPORTS = ["workspace", "session", "tcp", "shards"]

SCHEMA = (
    "E(x, y) -> int(x), int(y).\n"
    "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
    'inventory[s] = v -> string(s), int(v).\n'
    "seen(x) -> int(x).\n"
)
PREDS = ("E", "lineitem", "inventory", "seen")

#: exec source -> the base predicates it writes
SHAPES = {
    # read-modify-write of a functional predicate
    '^inventory["a"] = v + 1 <- inventory@start["a"] = v.': {"inventory"},
    # a multi-fact insert and delete
    "+E(7, 8). +E(8, 9). -E(1, 2).": {"E"},
    # matches no row: its empty delta still meets the derived-write
    # check, and the result reports no change
    "-E(100, 100).": {"E"},
    # partly no-ops, on both shards of `E`
    "+E(1, 2). -E(100, 100). +E(51, 1). +E(52, 1).": {"E"},
    # a join on @start
    "+seen(x) <- E@start(x, _), lineitem@start(x, _, _).": {"seen"},
    # a negation on @start
    "+seen(x) <- E@start(x, _), !lineitem@start(x, _, _).": {"seen"},
}


def _install(target):
    target.addblock(SCHEMA, name="schema")
    target.load("E", [(1, 2), (2, 3), (3, 4)])
    target.load("lineitem", [(o, 10 * o, o + 1) for o in range(3)])
    target.load("inventory", [("a", 3), ("b", 5)])


def _snapshot(target):
    return {pred: sorted(tuple(r) for r in target.rows(pred)) for pred in PREDS}


def _rows(deltas):
    return {pred: (sorted(tuple(t) for t in delta.added),
                   sorted(tuple(t) for t in delta.removed))
            for pred, delta in deltas.items()}


class TestEffectsAreTheSameOnEveryTransport:
    """A bare workspace and every served transport commit the same rows
    and report the same change for each exec shape: the rows its commit
    changed, not the rows its source named."""

    @pytest.mark.parametrize("kind", TRANSPORTS[1:])
    @pytest.mark.parametrize("source", list(SHAPES))
    def test_exec_shape(self, kind, source):
        oracle = Workspace()
        _install(oracle)
        before = _snapshot(oracle)
        expected = oracle.exec(source)
        with _transport(kind) as target:
            _install(target)
            assert _snapshot(target) == before
            result = target.exec(source)
            assert result.status == expected.status == "committed"
            assert set(expected.deltas) <= SHAPES[source]
            assert _rows(result.deltas) == _rows(expected.deltas)
            assert _snapshot(target) == _snapshot(oracle)

    def test_a_group_reports_each_members_own_change(self):
        """Members committed as one group: each reports the rows it
        changed on top of the head and the members before it."""
        from repro.service import FaultInjector
        from tests.service.test_faults import commit_as_one_group, make_service

        faults = FaultInjector()
        with make_service(faults=faults, max_pending=8) as service:
            outcomes = commit_as_one_group(service, faults, [
                "+note(7). +note(8).",
                "+note(7). +note(9). -note(1).",
                "-note(8). -note(50).",
            ])
            assert [_rows(result.deltas) for result in outcomes] == [
                {"note": ([(7,), (8,)], [])},
                {"note": ([(9,)], [(1,)])},
                {"note": ([], [(8,)])},
            ]
            assert service.rows("note") == [(7,), (9,)]


class TestInstalledReactiveRulesFire:
    """A reactive rule installed by ``addblock`` fires in every later
    exec, on the exec's own delta predicates."""

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_an_installed_reactive_rule_fires(self, kind):
        with _transport(kind) as target:
            target.addblock("+B(x) <- +A(x).", name="react")
            target.exec("+A(1).")
            assert [tuple(r) for r in target.rows("A")] == [(1,)]
            assert [tuple(r) for r in target.rows("B")] == [(1,)]
            target.exec("+A(2).")
            assert [tuple(r) for r in target.rows("B")] == [(1,), (2,)]
            target.removeblock("react")
            target.exec("+A(3).")
            assert [tuple(r) for r in target.rows("B")] == [(1,), (2,)]

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_an_installed_rule_may_not_write_a_derived_predicate(self, kind):
        with _transport(kind) as target:
            _install(target)
            target.addblock("v(x) <- E(x, _).", name="view")
            with pytest.raises(TransactionAborted,
                               match="cannot write to derived predicate v"):
                target.addblock("+v(x) <- +A(x).", name="react")
            assert target.exec("+E(9, 9).").status == "committed"
            assert (9,) in [tuple(r) for r in target.rows("v")]

    def test_an_installed_rule_reads_the_start_state(self):
        ws = Workspace()
        ws.addblock(
            'req(s) -> string(s). inv[s] = n -> string(s), int(n).\n'
            "+inv[s] = 1 <- +req(s), !inv@start[s] = _.\n")
        ws.load("inv", [("y", 5)])
        ws.exec('+req("x"). +req("y").')
        assert ws.rows("inv") == [("x", 1), ("y", 5)]

    def test_a_partitioned_write_runs_the_circuit_while_rules_are_installed(self):
        with ShardedWorkspace.local(2, partition={"E": 0}) as sharded:
            sharded.addblock("E(x, y) -> int(x), int(y). B(x) -> int(x).")
            counters = {}
            with stats.scope(counters):
                sharded.exec("+E(1, 2).")
            assert counters.get("shard.single_shard_execs") == 1
            sharded.addblock("+B(x) <- +E(x, _).", name="react")
            counters = {}
            with stats.scope(counters):
                sharded.exec("+E(5, 6).")
            assert not counters.get("shard.single_shard_execs")
            assert counters.get("shard.circuits") == 1
            # the replicated write lands on every shard, not on the
            # partition key's owner alone
            for index in range(2):
                assert sharded._pool.backend(index).rows("B") == [(5,)]


class TestAnExecHoldsReactiveLogicOnly:
    """A fact, a declaration or a derivation rule in an exec is refused
    with one message, before anything commits."""

    SOURCES = (
        "p(1).",
        "p(x) -> int(x).",
        "q(x) -> .",
        "v(x) <- E(x, _).",
        "+E(9, 9). p(1).",
    )

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_a_non_reactive_exec_is_refused(self, kind):
        with _transport(kind) as target:
            _install(target)
            before = _snapshot(target)
            for source in self.SOURCES:
                with pytest.raises(TransactionAborted,
                                   match="only contain reactive logic"):
                    target.exec(source)
            assert _snapshot(target) == before
            assert target.exec("+E(9, 9).").status == "committed"


class TestAProgramChangeBetweenExecuteAndCommit:
    """A served exec that ran before an ``addblock`` / ``removeblock``
    barrier but commits after it commits the effects of the program it
    commits on: the barrier's reactive rules fire (or no longer do)."""

    @staticmethod
    def _exec_across(service, monkeypatch, barrier):
        """Run ``+A(1).`` on ``service``, letting ``barrier(service)``
        commit after the exec executed and before it queues."""
        from repro.service import service as service_module

        executed, go = threading.Event(), threading.Event()

        class Held(service_module.PreparedTransaction):
            def execute(self, state):
                super().execute(state)
                if self.name == "held" and not executed.is_set():
                    executed.set()
                    assert go.wait(10)

        monkeypatch.setattr(service_module, "PreparedTransaction", Held)
        outcome = {}
        writer = threading.Thread(target=lambda: outcome.update(
            result=service.exec("+A(1).", name="held", timeout=30)))
        writer.start()
        assert executed.wait(10)
        barrier(service)
        go.set()
        writer.join()
        return outcome["result"]

    def test_an_addblock_before_the_commit_fires_its_rule(self, monkeypatch):
        from repro.service import TransactionService

        with TransactionService() as service:
            service.addblock("A(x) -> int(x). B(x) -> int(x).")
            result = self._exec_across(
                service, monkeypatch,
                lambda s: s.addblock("+B(x) <- +A(x).", name="react"))
            assert result.status == "committed"
            assert service.rows("A") == [(1,)]
            assert service.rows("B") == [(1,)]

    def test_a_removeblock_before_the_commit_stops_its_rule(self, monkeypatch):
        from repro.service import TransactionService

        with TransactionService() as service:
            service.addblock("A(x) -> int(x). B(x) -> int(x).")
            service.addblock("+B(x) <- +A(x).", name="react")
            result = self._exec_across(
                service, monkeypatch, lambda s: s.removeblock("react"))
            assert result.status == "committed"
            assert service.rows("A") == [(1,)]
            assert service.rows("B") == []

    def test_a_prepared_shard_transaction_conflicts(self):
        from repro.service import TransactionService

        with TransactionService() as service:
            service.addblock("A(x) -> int(x). B(x) -> int(x).")
            prepared = service.shard_prepare(
                "+A(1).", partition={}, shard_index=0, shard_count=1)
            service.addblock("+B(x) <- +A(x).", name="react")
            with pytest.raises(ConflictError, match="reactive rules changed"):
                service.shard_commit(prepared["token"], prepared["effects"])
            assert service.rows("A") == []


class TestAFunctionalBasePredicateKeepsOneValuePerKey:
    """A write giving a functional base predicate a second value for a
    key aborts, on every transport — an installed reactive rule's write
    too."""

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_a_second_value_for_a_key_aborts(self, kind):
        with _transport(kind) as target:
            _install(target)
            with pytest.raises(TransactionAborted,
                               match="conflicting values"):
                target.exec('+inventory["a"] = 1.')
            with pytest.raises(TransactionAborted,
                               match="conflicting values"):
                target.load("inventory", [("b", 7)])
            target.exec('^inventory["a"] = 4 <- .')
            target.load("inventory", [("b", 6)], remove=[("b", 5)])
            assert _snapshot(target)["inventory"] == [("a", 4), ("b", 6)]

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_an_installed_rule_may_not_add_a_second_value(self, kind):
        # §3.3's block: its plain `req` reads req@start, so every exec
        # after a request re-emits +inv[s] = 1
        with _transport(kind) as target:
            target.addblock(
                "req(s) -> string(s). inv[s] = n -> string(s), int(n).\n"
                "note(x) -> int(x).\n"
                "+inv[s] = 1 <- req(s).\n", name="stock")
            target.exec('+req("x").')
            target.exec("+note(1).")
            assert [tuple(r) for r in target.rows("inv")] == [("x", 1)]
            # a load fires no reactive rule
            target.load("inv", [("x", 5)], remove=[("x", 1)])
            assert [tuple(r) for r in target.rows("inv")] == [("x", 5)]
            with pytest.raises(TransactionAborted,
                               match="conflicting values"):
                target.exec("+note(2).")
            assert [tuple(r) for r in target.rows("inv")] == [("x", 5)]
            assert [tuple(r) for r in target.rows("note")] == [(1,)]

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_one_transaction_writing_two_values_for_a_key_aborts(self, kind):
        with _transport(kind) as target:
            _install(target)
            before = _snapshot(target)
            for source in ('+inventory["c"] = 1. +inventory["c"] = 2.',
                           '+inventory["c"] = v <- inventory@start(_, v).'):
                with pytest.raises(TransactionAborted, match=re.escape(
                        "inventory[('c',)] written with conflicting values")):
                    target.exec(source)
            assert _snapshot(target) == before

    @pytest.mark.parametrize("kind", ["workspace", "session", "tcp"])
    def test_block_facts_meet_the_key_check(self, kind):
        with _transport(kind) as target:
            _install(target)
            before = _snapshot(target)
            with pytest.raises(TransactionAborted, match=re.escape(
                    "inv[('x',)] written with conflicting values")):
                target.addblock('inv[s] = n -> string(s), int(n).\n'
                                'inv["x"] = 1. inv["x"] = 2.', name="two")
            # a block fact against a loaded row
            with pytest.raises(TransactionAborted, match=re.escape(
                    "inventory[('a',)] written with conflicting values")):
                target.addblock('inventory["a"] = 9.', name="clash")
            assert _snapshot(target) == before
            target.addblock('inventory["z"] = 9.', name="fresh")
            assert ("z", 9) in [tuple(r) for r in target.rows("inventory")]

    def test_a_repair_writing_two_values_for_a_key_aborts(self):
        """The group's earlier writes give the member's rule a second
        value when it is repaired: the member aborts, the rest commit."""
        from repro.service import FaultInjector
        from tests.service.test_faults import commit_as_one_group, make_service

        faults = FaultInjector()
        with make_service(faults=faults, max_pending=8) as service:
            note, keyed = commit_as_one_group(service, faults, [
                "+note(2).", '+counter["c"] = v <- note@start(v).'])
            assert note.committed
            assert isinstance(keyed, TransactionAborted)
            assert str(keyed) == "counter[('c',)] written with conflicting values"
            assert service.rows("counter") == [("hits", 0)]
            assert service.rows("note") == [(1,), (2,)]

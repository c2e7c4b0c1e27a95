"""Transaction repair: effects, sensitivities, serializability."""

import random

import pytest

from repro import Workspace
from repro.datasets.txnload import alpha_transactions, item_name, setup_inventory
from repro.txn.locking import LockingScheduler, lock_rows_of
from repro.txn.repair import (
    PreparedTransaction,
    RepairScheduler,
    compose_corrections,
    repair_circuit,
)
from repro.storage.relation import Delta


def make_ws(n_items=20, initial=5):
    ws = Workspace()
    setup_inventory(ws, n_items, initial=initial)
    return ws


def decrement(item):
    return ('^inventory["{0}"] = x <- inventory@start["{0}"] = y, '
            "x = y - 1.".format(item))


class TestPreparedTransaction:
    def test_effects_recorded(self):
        ws = make_ws()
        txn = PreparedTransaction(decrement(item_name(0)))
        effects = txn.execute(ws.state)
        assert set(effects["inventory"].removed) == {(item_name(0), 5)}
        assert set(effects["inventory"].added) == {(item_name(0), 4)}

    def test_sensitivity_covers_read_row(self):
        ws = make_ws()
        txn = PreparedTransaction(decrement(item_name(3)))
        txn.execute(ws.state)
        index = txn.sensitivity()
        assert index.tuple_affects("inventory", (item_name(3), 5))
        assert not index.tuple_affects("inventory", (item_name(7), 5))

    def test_conflict_detection(self):
        ws = make_ws()
        a = PreparedTransaction(decrement(item_name(0)))
        b_same = PreparedTransaction(decrement(item_name(0)))
        b_other = PreparedTransaction(decrement(item_name(1)))
        a.execute(ws.state)
        b_same.execute(ws.state)
        b_other.execute(ws.state)
        assert b_same.relevant_corrections(a.effects) == a.effects
        assert b_other.relevant_corrections(a.effects) == {}

    def test_repair_updates_effects(self):
        ws = make_ws()
        a = PreparedTransaction(decrement(item_name(0)))
        b = PreparedTransaction(decrement(item_name(0)))
        a.execute(ws.state)
        b.execute(ws.state)
        # both computed 5 -> 4; after correction b must compute 4 -> 3
        b.correct(a.effects)
        assert set(b.effects["inventory"].added) == {(item_name(0), 3)}
        assert b.repair_count == 1

    def test_repeated_corrections(self):
        ws = make_ws()
        txns = [PreparedTransaction(decrement(item_name(0))) for _ in range(4)]
        for txn in txns:
            txn.execute(ws.state)
        composite, repaired, failed = repair_circuit(txns)
        assert set(composite["inventory"].added) == {(item_name(0), 1)}
        assert repaired == txns[1:] and failed == []

    def test_later_correction_makes_a_skipped_one_relevant(self):
        """``A(7)`` lies outside the run's sensitivity; ``B(7)`` then
        makes it matter.  Each repair equals re-executing on the
        corrected state."""
        ws = Workspace()
        ws.addblock("A(x) -> int(x). B(x) -> int(x). out(x) -> int(x).")
        ws.load("A", [(5,)])
        ws.load("B", [(1,), (9,)])
        source = "+out(x) <- A@start(x), B@start(x)."

        def serial(change):
            ws.exec(change)
            return PreparedTransaction(source).execute(ws.state)

        def rows(effects):
            return {p: (set(d.added), set(d.removed)) for p, d in effects.items()}

        txn = PreparedTransaction(source)
        # nothing matches, but the effects still name the written target
        assert rows(txn.execute(ws.state)) == {"out": (set(), set())}

        first = {"A": Delta.from_iters([(7,)], ())}
        assert txn.relevant_corrections(first) == {}
        accumulated = compose_corrections(first, {"B": Delta.from_iters([(7,)], ())})
        txn.correct(txn.relevant_corrections(accumulated))
        assert rows(txn.effects) == rows(serial("+A(7). +B(7).")) == {"out": ({(7,)}, set())}
        # and deleting A(7) retracts it
        retract = {"A": Delta.from_iters((), [(7,)])}
        txn.correct(txn.relevant_corrections(retract))
        assert rows(txn.effects) == rows(serial("-A(7).")) == {"out": (set(), set())}

    def test_non_reactive_source_rejected(self):
        from repro.runtime.errors import TransactionAborted

        with pytest.raises(TransactionAborted):
            PreparedTransaction("view(x) <- base(x).")


class TestRepairScheduler:
    def test_serializable_equals_serial(self):
        for alpha in (0.5, 2.0, 6.0):
            batch = alpha_transactions(30, 8, alpha, seed=int(alpha * 10))
            repair_ws = make_ws(30)
            serial_ws = make_ws(30)
            scheduler = RepairScheduler(repair_ws)
            scheduler.run(batch)
            for source in batch:
                serial_ws.exec(source)
            assert repair_ws.rows("inventory") == serial_ws.rows("inventory")
            assert repair_ws.rows("place_order") == serial_ws.rows("place_order")

    def test_derived_views_maintained_on_commit(self):
        ws = make_ws(5, initial=1)
        batch = [decrement(item_name(0))]
        RepairScheduler(ws).run(batch)
        # item0 hit zero and is in auto_order -> place_order fires
        assert (item_name(0),) in ws.relation("place_order")

    def test_stats_counted(self):
        ws = make_ws(10)
        batch = [decrement(item_name(0)), decrement(item_name(0)),
                 decrement(item_name(5))]
        scheduler = RepairScheduler(ws)
        scheduler.run(batch)
        assert scheduler.stats["transactions"] == 3
        assert scheduler.stats["repairs"] == 1  # only the duplicate item
        # one name per count: a repaired transaction is the conflict
        assert set(scheduler.stats) == {
            "transactions", "repairs", "execute_seconds", "repair_seconds"}

    def test_disjoint_batch_no_repairs(self):
        ws = make_ws(10)
        batch = [decrement(item_name(i)) for i in range(5)]
        scheduler = RepairScheduler(ws)
        scheduler.run(batch)
        assert scheduler.stats["repairs"] == 0
        assert dict(ws.rows("inventory"))[item_name(2)] == 4

    def test_no_commit_mode(self):
        ws = make_ws(5)
        scheduler = RepairScheduler(ws)
        scheduler.run([decrement(item_name(0))], commit=False)
        assert dict(ws.rows("inventory"))[item_name(0)] == 5


class TestLockingBaseline:
    def test_lock_rows(self):
        effects = {"inventory": Delta.from_iters([("a", 4)], [("a", 5)])}
        assert lock_rows_of(effects) == {("inventory", ("a",))}

    def test_conflict_counting(self):
        ws = make_ws(10)
        batch = [decrement(item_name(0)), decrement(item_name(0)),
                 decrement(item_name(1))]
        scheduler = LockingScheduler(ws)
        scheduler.run(batch)
        assert scheduler.stats["lock_conflicts"] == 1
        assert scheduler.stats["wait_edges"] == [(0, 1)]

    def test_birthday_paradox_shape(self):
        """Expected pairwise conflicts grow ~alpha^2 (paper §3.4)."""
        n_items, n_txns = 400, 12
        conflict_rates = []
        for alpha in (0.5, 2.0, 6.0):
            batch = alpha_transactions(n_items, n_txns, alpha, seed=7)
            ws = make_ws(n_items, initial=100)
            scheduler = LockingScheduler(ws)
            scheduler.run(batch)
            pairs = n_txns * (n_txns - 1) / 2
            conflict_rates.append(scheduler.stats["lock_conflicts"] / pairs)
        assert conflict_rates[0] < conflict_rates[1] < conflict_rates[2]
        assert conflict_rates[0] < 0.4
        assert conflict_rates[2] > 0.8


def _one_tuple_corrections(domain):
    """Every single-row insert and delete over ``domain`` (pred -> rows)."""
    for pred, rows in domain.items():
        for row in rows:
            yield {pred: Delta.from_iters([row], ())}
            yield {pred: Delta.from_iters((), [row])}


class TestRepairedSensitivityIsAFreshRun:
    """After ``correct``, ``sensitivity()`` is that of a fresh
    transaction run on a workspace holding the corrected rows: the same
    intervals, and the same answer to every later one-row correction."""

    CASES = {
        "functional_rmw": (
            "inventory[s] = v -> string(s), int(v).",
            {"inventory": [("a", 5), ("b", 7), ("d", 1)]},
            '^inventory["b"] = x <- inventory@start["b"] = y, x = y - 1.',
            '^inventory["b"] = 9. +inventory["c"] = 2.',
            {"inventory": [(s, v) for s in "abcde" for v in (1, 2, 5, 7, 9)]},
        ),
        "negated_atom": (
            "E(x, y) -> int(x), int(y). seen(x) -> int(x).",
            {"E": [(1, 2), (3, 4), (5, 6)], "seen": [(3,)]},
            "+seen(x) <- E@start(x, _), !seen@start(x).",
            "+seen(1). +E(7, 8). -E(5, 6).",
            {"E": [(x, y) for x in range(9) for y in (2, 4, 8)],
             "seen": [(x,) for x in range(9)]},
        ),
        "aggregate_head": (
            "amount(g, i, v) -> string(g), int(i), int(v). "
            "total[g] = t -> string(g), int(t).",
            {"amount": [("a", 1, 10), ("a", 2, 20), ("b", 1, 5)]},
            '^total["a"] = t <- agg<<t = sum(v)>> amount@start("a", _, v).',
            '+amount("a", 3, 4). -amount("a", 1, 10). +amount("c", 1, 1).',
            {"amount": [(g, i, v) for g in "abc" for i in range(4)
                        for v in (4, 10)]},
        ),
        "recursive": (
            "E(x, y) -> int(x), int(y). seed(x) -> int(x). R(x) -> int(x).",
            {"E": [(1, 2), (2, 3), (4, 5), (6, 7)], "seed": [(1,)]},
            "+R(z) <- seed@start(z). +R(z) <- +R(y), E@start(y, z).",
            "+E(3, 4). -E(1, 2). +E(1, 6).",
            {"E": [(x, y) for x in range(8) for y in range(8)],
             "seed": [(x,) for x in range(8)]},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_corrected_sensitivity_equals_a_fresh_run(self, case):
        schema, rows, source, first, domain = self.CASES[case]
        workspaces = []
        for _ in range(2):
            ws = Workspace()
            ws.addblock(schema)
            for pred, tuples in rows.items():
                ws.load(pred, tuples)
            workspaces.append(ws)
        ws, corrected_ws = workspaces
        committed = PreparedTransaction(first)
        committed.execute(ws.state)
        corrected_ws.exec(first)

        repaired = PreparedTransaction(source)
        repaired.execute(ws.state)
        repaired.sensitivity()  # built before the repair, then dropped
        relevant = repaired.relevant_corrections(committed.effects)
        assert relevant
        repaired.correct(relevant)
        fresh = PreparedTransaction(source)
        fresh.execute(corrected_ws.state)

        assert ({p: (set(d.added), set(d.removed)) for p, d in repaired.effects.items()}
                == {p: (set(d.added), set(d.removed)) for p, d in fresh.effects.items()})
        assert repaired.sensitivity().by_pred == fresh.sensitivity().by_pred
        answers = set()
        for corrections in _one_tuple_corrections(domain):
            answer = repaired.relevant_corrections(corrections)
            assert answer == fresh.relevant_corrections(corrections), corrections
            answers.add(bool(answer))
        assert answers == {True, False}

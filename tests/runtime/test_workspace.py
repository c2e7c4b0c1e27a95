"""Workspace transactions: exec, query, addblock/removeblock, branches."""

import pytest

from repro import ConstraintViolation, TransactionAborted, UnknownPredicate, Workspace
from repro.engine.ivm import Materialization
from repro.runtime.state import WorkspaceState
from repro.storage.relation import Delta


@pytest.fixture
def retail():
    ws = Workspace()
    ws.addblock(
        """
        Product(p) -> .
        Stock[p] = v -> Product(p), float(v).
        spacePerProd[p] = v -> Product(p), float(v).
        totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x,
            spacePerProd[p] = y, z = x * y.
        """,
        name="core",
    )
    ws.load("Product", [("a",), ("b",)])
    ws.load("spacePerProd", [("a", 1.0), ("b", 2.0)])
    ws.load("Stock", [("a", 3.0), ("b", 4.0)])
    return ws


class TestExec:
    def test_functional_update(self, retail):
        retail.exec('^Stock["a"] = x <- Stock@start["a"] = y, x = y + 1.0.')
        assert dict(retail.rows("Stock"))["a"] == 4.0
        assert retail.rows("totalShelf") == [(12.0,)]

    def test_insert_and_delete(self, retail):
        retail.exec('+Product("c").')
        assert ("c",) in retail.relation("Product")
        retail.exec('-Product("c").')
        assert ("c",) not in retail.relation("Product")

    def test_conditional_reactive_rule(self, retail):
        retail.exec(
            '^Stock["a"] = 0.0 <- Stock@start["a"] = y, y > 2.0.'
        )
        assert dict(retail.rows("Stock"))["a"] == 0.0
        # condition now false: second run is a no-op
        result = retail.exec(
            '^Stock["a"] = 99.0 <- Stock@start["a"] = y, y > 2.0.'
        )
        assert not result.deltas
        assert dict(retail.rows("Stock"))["a"] == 0.0

    def test_write_to_derived_rejected(self, retail):
        with pytest.raises(TransactionAborted):
            retail.exec("+totalShelf[] = 5.0 <- .")

    def test_derivation_rule_in_exec_rejected(self, retail):
        with pytest.raises(TransactionAborted):
            retail.exec("v(p) <- Product(p).")

    def test_abort_leaves_state_untouched(self, retail):
        ws2 = Workspace()
        ws2.addblock("n[] = v -> int(v). n[] = v -> v >= 0.", name="t")
        ws2.load("n", [(5,)])
        with pytest.raises(ConstraintViolation):
            ws2.exec("^n[] = 0 - 1 <- .")
        assert ws2.rows("n") == [(5,)]

    def test_cascading_deltas(self, retail):
        # one exec rule writes +aux, another reads it
        ws = Workspace()
        ws.addblock("a(x) -> int(x). b(x) -> int(x).", name="d")
        ws.exec("+a(1). +b(x) <- +a(x).")
        assert ws.rows("a") == [(1,)] and ws.rows("b") == [(1,)]

    def test_staging_leaves_the_pinned_state_alone(self):
        ws = Workspace()
        ws.addblock("a(x) -> int(x). a(x) -> x >= 0.", name="d")
        head = ws.state
        mat = head.materialization
        # a state whose materialization has never seen `a`
        pinned = WorkspaceState(head.artifacts, head.base_relations, Materialization(
            {k: v for k, v in mat.relations.items() if k != "a"},
            mat.states), head.meta_state)
        keys = set(pinned.materialization.relations)
        staged, _ = ws._stage_deltas(pinned, {"a": Delta.from_iters([(1,)], ())})
        assert set(pinned.materialization.relations) == keys
        assert list(staged.relation("a")) == [(1,)]


class TestQuery:
    def test_simple_query(self, retail):
        rows = retail.query("_(p, v) <- Stock[p] = v, v > 3.5.")
        assert rows == [("b", 4.0)]

    def test_query_with_aux_view(self, retail):
        rows = retail.query(
            """
            aux[p] = z <- Stock[p] = v, spacePerProd[p] = s, z = v * s.
            _(p) <- aux[p] = z, z > 5.0.
            """
        )
        assert rows == [("b",)]

    def test_query_does_not_commit(self, retail):
        before = retail.version()
        retail.query("_(p) <- Product(p).")
        assert retail.version() is before

    def test_query_reads_derived(self, retail):
        rows = retail.query("_(u) <- totalShelf[] = u.")
        assert rows == [(11.0,)]

    def test_reactive_query_rejected(self, retail):
        with pytest.raises(TransactionAborted):
            retail.query("+Product(p) <- Product(p).")


class TestLiveProgramming:
    def test_addblock_materializes(self, retail):
        retail.addblock("double[] = v <- totalShelf[] = u, v = u * 2.0.",
                        name="dbl")
        assert retail.rows("double") == [(22.0,)]

    def test_incremental_addblock_reuses(self, retail):
        old_shelf = retail.state.materialization.relations["totalShelf"]
        retail.addblock("unrelated(x) <- Product(x).", name="u")
        new_shelf = retail.state.materialization.relations["totalShelf"]
        assert new_shelf is old_shelf  # carried over, not recomputed

    def test_formula_edit_revises(self, retail):
        retail.addblock("m[] = v <- totalShelf[] = u, v = u + 1.0.", name="m")
        assert retail.rows("m") == [(12.0,)]
        retail.addblock("m[] = v <- totalShelf[] = u, v = u + 2.0.", name="m")
        assert retail.rows("m") == [(13.0,)]

    def test_removeblock(self, retail):
        retail.addblock("x(p) <- Product(p).", name="x")
        retail.removeblock("x")
        with pytest.raises(UnknownPredicate):
            retail.rows("x")
        with pytest.raises(KeyError):
            retail.removeblock("x")

    def test_block_facts(self):
        ws = Workspace()
        ws.addblock('cost["w"] = 3.5 <- . cost["g"] = 4.5 <- .', name="costs")
        assert ws.rows("cost") == [("g", 4.5), ("w", 3.5)]
        ws.removeblock("costs")
        # the block's facts are retracted; the (now empty) base
        # predicate remains known
        assert ws.rows("cost") == []

    def test_addblock_chains_views(self, retail):
        retail.addblock("a[] = v <- totalShelf[] = u, v = u + 1.0.", name="a")
        retail.addblock("b[] = v <- a[] = u, v = u * 10.0.", name="b")
        assert retail.rows("b") == [(120.0,)]
        # editing the middle block revises downstream only
        retail.exec('^Stock["a"] = 4.0 <- .')
        assert retail.rows("b") == [(130.0,)]


class TestBranching:
    def test_branch_isolation(self, retail):
        retail.create_branch("scenario")
        retail.switch("scenario")
        retail.exec('^Stock["a"] = 100.0 <- .')
        assert retail.rows("totalShelf") == [(108.0,)]
        retail.switch("main")
        assert retail.rows("totalShelf") == [(11.0,)]

    def test_branch_sees_program_changes_independently(self, retail):
        retail.create_branch("dev")
        retail.switch("dev")
        retail.addblock("devview(p) <- Product(p).", name="dev-only")
        assert retail.rows("devview")
        retail.switch("main")
        with pytest.raises(UnknownPredicate):
            retail.rows("devview")

    def test_delete_branch(self, retail):
        retail.create_branch("tmp")
        retail.delete_branch("tmp")
        assert "tmp" not in retail.branches()

    def test_switch_unknown_branch(self, retail):
        with pytest.raises(KeyError):
            retail.switch("nope")


class TestConstraintEnforcement:
    def test_entity_membership(self, retail):
        with pytest.raises(ConstraintViolation):
            retail.load("Stock", [("ghost", 1.0)])

    def test_type_check(self, retail):
        with pytest.raises(ConstraintViolation):
            retail.load("Stock", [("a", "not-a-float")])

    def test_inclusion_dependency(self):
        ws = Workspace()
        ws.addblock(
            """
            Product(p) -> .
            Stock[p] = v -> Product(p), float(v).
            Product(p) -> Stock[p] = _.
            """,
            name="t",
        )
        with pytest.raises(ConstraintViolation):
            ws.load("Product", [("a",)])  # a has no stock yet
        # loading both atomically is fine: two execs vs one
        ws.exec('+Product("a"). +Stock["a"] = 1.0.')
        assert ws.rows("Stock") == [("a", 1.0)]

    def test_addblock_checks_existing_data(self):
        ws = Workspace()
        ws.addblock("n[] = v -> int(v).", name="d")
        ws.load("n", [(-5,)])
        with pytest.raises(ConstraintViolation):
            ws.addblock("n[] = v -> v >= 0.", name="guard")

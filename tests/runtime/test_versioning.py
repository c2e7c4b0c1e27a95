"""Time travel, version DAGs, and failure injection at the workspace level."""

import pytest

from repro import ConstraintViolation, TransactionAborted, Workspace
from repro.engine.evaluator import FunctionalDependencyViolation


@pytest.fixture
def ws():
    workspace = Workspace()
    workspace.addblock(
        """
        n[] = v -> int(v).
        hist(x) -> int(x).
        doubled[] = u <- n[] = v, u = v * 2.
        """,
        name="m",
    )
    workspace.load("n", [(1,)])
    return workspace


class TestTimeTravel:
    def test_branch_any_past_version(self, ws):
        past = ws.version()
        ws.exec("^n[] = 2 <- .")
        ws.exec("^n[] = 3 <- .")
        assert ws.rows("n") == [(3,)]
        # branch the past version (paper T4: "we can branch any past
        # version of the database")
        ws._graph.branch_version(past, "past")
        ws.switch("past")
        assert ws.rows("n") == [(1,)]
        assert ws.rows("doubled") == [(2,)]
        ws.switch("main")
        assert ws.rows("n") == [(3,)]

    def test_version_dag_parents(self, ws):
        v1 = ws.version()
        ws.exec("^n[] = 2 <- .")
        v2 = ws.version()
        assert v2.parent_ids == (v1.id,)

    def test_aborted_txn_leaves_no_version(self, ws):
        before = ws.version()
        with pytest.raises(TransactionAborted):
            ws.exec("+doubled[] = 9 <- .")  # write to derived
        assert ws.version() is before

    def test_queries_leave_no_version(self, ws):
        before = ws.version()
        ws.query("_(v) <- n[] = v.")
        assert ws.version() is before


class TestFailureInjection:
    def test_fd_violation_mid_transaction(self, ws):
        """Two reactive rules deriving conflicting values for one key
        abort atomically."""
        with pytest.raises((TransactionAborted, FunctionalDependencyViolation,
                            ConstraintViolation)):
            ws.exec("+n[] = 7 <- . +n[] = 8 <- .")
        # nothing leaked
        assert ws.rows("n") == [(1,)]
        assert ws.rows("doubled") == [(2,)]

    def test_unknown_predicate_write(self, ws):
        with pytest.raises(TransactionAborted):
            ws.load("no_such_pred_anywhere", [(1,)])

    def test_arity_mismatch(self, ws):
        with pytest.raises(TransactionAborted):
            ws.load("hist", [(1, 2)])

    def test_bad_syntax_leaves_state(self, ws):
        from repro.logiql.parser import ParseError

        before = ws.version()
        with pytest.raises(ParseError):
            ws.addblock("this is (not logiql")
        assert ws.version() is before

    def test_stratification_error_leaves_state(self, ws):
        from repro.engine.rules import StratificationError

        before = ws.version()
        with pytest.raises(StratificationError):
            ws.addblock(
                """
                p(x) <- hist(x), !q(x).
                q(x) <- hist(x), !p(x).
                """,
                name="bad",
            )
        assert ws.version() is before
        assert "bad" not in ws.blocks()

    def test_violating_block_not_installed(self, ws):
        with pytest.raises(ConstraintViolation):
            ws.addblock("n[] = v -> v >= 100.", name="impossible")
        assert "impossible" not in ws.blocks()
        # and the workspace still works
        ws.exec("^n[] = 5 <- .")
        assert ws.rows("doubled") == [(10,)]


class TestStateSharing:
    def test_branches_share_structure(self, ws):
        ws.load("hist", [(i,) for i in range(2000)])
        base_relation = ws.relation("hist")
        ws.create_branch("b")
        ws.switch("b")
        assert ws.relation("hist") is base_relation  # zero copying
        ws.exec("+hist(99999).")
        assert ws.relation("hist") is not base_relation
        # diffing the two versions is proportional to the change
        delta = base_relation.diff(ws.relation("hist"))
        assert set(delta.added) == {(99999,)}
        assert not delta.removed

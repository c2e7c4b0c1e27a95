"""Workspace.profile(): the end-to-end transaction trace surface.

The acceptance shape: a triangle-query transaction traced through
``workspace.profile()`` yields a span tree containing plan, join (with
seek/next counts), and IVM spans — and the counter deltas recorded by
the spans equal the workspace's ``engine_stats()`` totals over the same
window (both observe the identical bump stream through the thread's
scope stack).
"""

from repro import Workspace
from repro.logiql import shapes


def triangle_workspace():
    ws = Workspace()
    ws.addblock(
        "edge(x, y) -> int(x), int(y).\n"
        "tri(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).\n"
    )
    return ws


def load_edges(ws, n=14):
    ws.load(
        "edge",
        [(a, b) for a in range(n) for b in range(n) if a < b and (a + b) % 3],
    )


class TestProfileSpanTree:
    def test_transaction_lifecycle_spans(self):
        ws = triangle_workspace()
        with ws.profile() as prof:
            load_edges(ws)
            ws.query("_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).")
        names = {s.name for s in prof.walk()}
        assert "txn.load" in names
        assert "txn.query" in names
        assert "compile" in names
        assert "plan" in names
        assert "join" in names
        assert "ivm.apply" in names
        assert "constraints.check" in names
        # the load commits through IVM and maintains the tri view
        load_root = prof.find("txn.load")
        assert load_root.find("commit") is not None
        assert load_root.find("ivm.maintain") is not None

    def test_join_spans_carry_movement_counts(self):
        ws = triangle_workspace()
        load_edges(ws)
        with ws.profile() as prof:
            rows = ws.query("_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).")
        assert rows  # non-trivial workload
        join = prof.find("join")
        assert join is not None
        assert join.attrs["rows"] == len(rows)
        root = prof.find("txn.query")
        if join.attrs.get("backend") == "columnar":
            # vectorized movements: batched seeks instead of opens/nexts
            assert join.attrs.get("vector_seeks", 0) > 0
            assert root.counters.get("join.vector_seeks", 0) == join.attrs[
                "vector_seeks"
            ]
        else:
            assert join.attrs.get("seeks", 0) + join.attrs.get("nexts", 0) > 0
            assert join.attrs.get("opens", 0) > 0
            # the same movements were bumped as join.* counters in-window
            assert root.counters.get("join.seeks", 0) == join.attrs.get("seeks", 0)
            assert root.counters.get("join.nexts", 0) == join.attrs.get("nexts", 0)

    def test_plan_span_records_cache_disposition(self):
        ws = triangle_workspace()
        load_edges(ws)
        shapes._SHAPES.clear()  # another test may have planned this shape
        with ws.profile() as prof:
            ws.query("_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).")
            ws.exec("+edge(0, 3).")
        dispositions = {p.attrs["cache"] for p in prof.find_all("plan")}
        # the ad-hoc query's fresh shape is planned cold; the installed
        # tri rule's maintenance passes reuse the plans its rules memoized
        assert dispositions == {"hit", "miss"}

    def test_ivm_spans_record_delta_sizes(self):
        ws = triangle_workspace()
        load_edges(ws)
        with ws.profile() as prof:
            ws.exec("+edge(1, 2).")
        apply_span = prof.find("ivm.apply")
        assert apply_span is not None
        assert apply_span.attrs["base_tuples"] >= 1
        maintain = prof.find("ivm.maintain")
        assert maintain is not None and maintain.attrs["pred"] == "tri"

    def test_profile_counters_equal_engine_stats_window(self):
        ws = triangle_workspace()
        load_edges(ws)
        ws.reset_engine_stats()
        with ws.profile() as prof:
            ws.query("_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).")
            ws.exec("+edge(0, 3).")
        stats = ws.engine_stats()
        stats.pop("columnar", None)  # derived summary, not a raw counter
        assert stats == prof.counters()
        assert stats.get("ivm.applies", 0) >= 1

    def test_untraced_transactions_record_nothing(self):
        ws = triangle_workspace()
        load_edges(ws)
        with ws.profile() as prof:
            pass  # nothing executed while collecting
        ws.query("_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).")
        assert prof.roots == []


class TestEngineStatsSurface:
    def test_histograms_record_transaction_timers(self):
        from repro import stats as global_stats

        ws = triangle_workspace()
        load_edges(ws)
        hists = global_stats.histograms()
        assert hists["txn.addblock.seconds"]["count"] >= 1
        assert hists["txn.load.seconds"]["count"] >= 1
        assert hists["txn.load.seconds"]["sum"] > 0.0

"""EXPLAIN ANALYZE and the slow-transaction log."""

import pytest

from repro import Workspace, obs
from repro import stats
from repro.obs import ExplainReport


@pytest.fixture
def no_slow_log():
    """Isolate the process-wide slow-transaction log and threshold."""
    was = obs.slow_txn_threshold()
    obs.set_slow_txn_threshold(None)
    obs.clear_slow_txn_log()
    yield
    obs.set_slow_txn_threshold(was)
    obs.clear_slow_txn_log()


@pytest.fixture
def triangle_ws():
    ws = Workspace()
    ws.addblock("edge(x, y) -> int(x), int(y).")
    ws.exec("+edge(1, 2). +edge(2, 3). +edge(1, 3). "
            "+edge(3, 4). +edge(1, 4).")
    return ws


class TestExplainQuery:
    def test_estimates_paired_with_actuals(self, triangle_ws):
        report = triangle_ws.explain(
            "_(x, y, z) <- edge(x, y), edge(y, z), edge(x, z).")
        assert isinstance(report, ExplainReport)
        assert report.row_count == 2  # (1,2,3) and (1,3,4)
        assert report.answer == "_"
        (rule,) = report.rules
        assert rule["rule"] == "_"
        assert rule["executions"] >= 1
        assert rule["actual_steps"] > 0
        assert rule["estimated_steps"] is not None
        assert rule["var_order"] and len(rule["var_order"]) == 3
        assert rule["error_ratio"] == pytest.approx(
            (rule["estimated_steps"] + 1.0) / (rule["actual_steps"] + 1.0))

    def test_negation_cursor_moves_are_reported(self, force_executor):
        force_executor("pure")  # the anti-seek is the pure join's
        ws = Workspace()
        ws.addblock("edge(x, y) -> int(x), int(y).")
        ws.exec("+edge(1, 2). +edge(2, 3). +edge(1, 3). +edge(3, 4). +edge(1, 4).")
        query = "_(z) <- edge(2, y), edge(y, z), !edge(2, z)."
        with obs.Profile() as profile:
            assert ws.query(query) == [(4,)]
        (join,) = [s for s in profile.find_all("join") if s.attrs.get("rule") == "_"]
        assert join.attrs["anti_seeks"] > 0
        assert join.counters["join.anti_seeks"] == join.attrs["anti_seeks"]
        (rule,) = ws.explain(query).rules
        assert rule["anti_seeks"] > 0

    def test_actuals_survive_an_ambient_open_span(self, triangle_ws):
        # inside someone else's span (a traced server request) the
        # explain span is a child, not a root: the report must still
        # find its own join spans
        with obs.Profile() as outer:
            with obs.span("net.request"):
                report = triangle_ws.explain(
                    "_(x, z) <- edge(x, y), edge(y, z).")
        (rule,) = report.rules
        assert rule["executions"] >= 1 and rule["actual_steps"] > 0
        assert outer.find("explain") is not None  # still in the ambient trace

    def test_error_ratio_feeds_histogram(self, triangle_ws):
        before = stats.histograms().get("optimizer.estimate_error", {})
        triangle_ws.explain("_(x, z) <- edge(x, y), edge(y, z).")
        after = stats.histograms()["optimizer.estimate_error"]
        assert after["count"] > before.get("count", 0)
        assert "p50" in after and "p99" in after

    def test_multi_rule_report(self, triangle_ws):
        report = triangle_ws.explain(
            "hop(x, z) <- edge(x, y), edge(y, z). "
            "_(x, z) <- hop(x, z), edge(x, z).")
        labels = {rule["rule"] for rule in report.rules}
        assert labels == {"hop", "_"}
        for rule in report.rules:
            assert rule["executions"] >= 1

    def test_report_roundtrips_and_formats(self, triangle_ws):
        report = triangle_ws.explain("_(x, y) <- edge(x, y).")
        rebuilt = ExplainReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        text = rebuilt.format()
        assert "EXPLAIN ANALYZE" in text
        assert "est/act" in text

    def test_reactive_rules_rejected(self, triangle_ws):
        from repro import TransactionAborted

        with pytest.raises(TransactionAborted):
            triangle_ws.explain("+edge(9, 9).")


class TestSlowTxnLog:
    def test_disabled_by_default(self, no_slow_log):
        assert obs.maybe_record_slow("exec", "t1", 999.0) is None
        assert obs.slow_txn_log() == []

    def test_records_over_threshold(self, no_slow_log):
        obs.set_slow_txn_threshold(0.5)
        assert obs.maybe_record_slow("exec", "fast", 0.1) is None
        entry = obs.maybe_record_slow(
            "exec", "slow", 0.9, counters={"join.seeks": 5})
        assert entry is not None
        log = obs.slow_txn_log()
        assert len(log) == 1
        assert log[0]["kind"] == "exec" and log[0]["name"] == "slow"
        assert log[0]["latency_s"] == 0.9
        assert log[0]["counters"] == {"join.seeks": 5}

    def test_log_is_bounded(self, no_slow_log):
        obs.set_slow_txn_threshold(0.001)
        for i in range(100):
            obs.maybe_record_slow("exec", "t{}".format(i), 1.0)
        log = obs.slow_txn_log()
        assert len(log) == 64
        assert log[-1]["name"] == "t99"  # newest retained

    def test_workspace_txns_feed_the_log(self, no_slow_log):
        obs.set_slow_txn_threshold(1e-9)  # everything is "slow"
        ws = Workspace()
        ws.addblock("p(x) -> int(x).")
        ws.exec("+p(1).")
        log = obs.slow_txn_log()
        kinds = {entry["kind"] for entry in log}
        assert "exec" in kinds
        assert all(entry["latency_s"] > 0 for entry in log)

    def test_trace_coordinates_recorded_when_tracing(self, no_slow_log):
        obs.set_slow_txn_threshold(1e-9)
        ws = Workspace()
        ws.addblock("p(x) -> int(x).")
        with obs.Profile():
            ws.exec("+p(1).")
        entries = [e for e in obs.slow_txn_log() if e["kind"] == "exec"]
        assert entries and "trace" in entries[-1]
        assert entries[-1]["trace"]
        assert isinstance(entries[-1]["span"], int)

    def test_service_config_sets_threshold(self, no_slow_log):
        from repro.service import ServiceConfig, TransactionService

        service = TransactionService(
            config=ServiceConfig(slow_txn_s=123.0))
        try:
            assert obs.slow_txn_threshold() == 123.0
        finally:
            service.close()

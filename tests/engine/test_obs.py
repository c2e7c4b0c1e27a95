"""The tracing layer itself: spans, scopes, exporters, overhead."""

import gc
import io
import json
import sys
import threading

import pytest

from repro import obs
from repro import stats as global_stats


@pytest.fixture
def untraced():
    """Force tracing fully off (the suite may run under REPRO_TRACE=1)."""
    was_forced = obs._forced
    obs.disable()
    yield
    obs._set_forced(was_forced)


class TestSpansDisabled:
    def test_span_is_noop_without_collector(self, untraced):
        assert not obs.tracing()
        with obs.span("anything", foo=1) as span_:
            assert span_ is None
        assert obs.current() is None

    def test_annotate_without_span_is_noop(self, untraced):
        obs.annotate(x=1)  # must not raise


class TestSpanTree:
    def test_nesting_and_counters(self):
        with obs.Profile() as prof:
            with obs.span("outer", kind="test"):
                global_stats.bump("obs_test.outer_only")
                with obs.span("inner"):
                    global_stats.bump("obs_test.both", 3)
        assert len(prof.roots) == 1
        outer = prof.roots[0]
        assert outer.name == "outer"
        assert outer.attrs == {"kind": "test"}
        assert [c.name for c in outer.children] == ["inner"]
        # the child's bumps land in every enclosing window
        assert outer.counters["obs_test.both"] == 3
        assert outer.counters["obs_test.outer_only"] == 1
        assert outer.children[0].counters == {"obs_test.both": 3}
        assert outer.wall_s >= outer.children[0].wall_s >= 0.0

    def test_find_and_walk(self):
        with obs.Profile() as prof:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("b"):
                    pass
        assert prof.find("b") is not None
        assert len(prof.find_all("b")) == 2
        assert [s.name for s in prof.walk()] == ["a", "b", "b"]

    def test_profile_counters_sum_roots(self):
        with obs.Profile() as prof:
            with obs.span("first"):
                global_stats.bump("obs_test.sum", 2)
            with obs.span("second"):
                global_stats.bump("obs_test.sum", 5)
        assert prof.counters()["obs_test.sum"] == 7

    def test_abandoned_generator_span_is_folded_in(self):
        def gen():
            with obs.span("leaky"):
                yield 1
                yield 2

        with obs.Profile() as prof:
            with obs.span("parent"):
                iterator = gen()
                assert next(iterator) == 1
                # drop the generator without exhausting it; closing the
                # parent must not lose or orphan the open child span
                del iterator
        parent = prof.roots[0]
        assert parent.name == "parent"
        names = {s.name for s in parent.walk()}
        assert "leaky" in names or prof.find("leaky") is not None


class TestForcedMode:
    def test_enable_records_into_ambient_ring(self):
        was_forced = obs._forced
        obs.enable()
        try:
            assert obs.tracing()
            with obs.span("ambient-root"):
                pass
            roots = obs.last_roots()
            assert roots and roots[-1].name == "ambient-root"
        finally:
            obs._set_forced(was_forced)

    def test_ring_is_bounded(self):
        was_forced = obs._forced
        obs.enable()
        try:
            for _ in range(obs._AMBIENT_LIMIT + 50):
                with obs.span("flood"):
                    pass
            assert len(obs.last_roots()) <= obs._AMBIENT_LIMIT
        finally:
            obs._set_forced(was_forced)

    def test_enable_counts_garbage_collections(self):
        """Forced tracing hooks the cyclic GC once: a forced full
        collection bumps both collection counters and adds its time;
        :func:`obs.disable` removes the hook."""
        was_forced = obs._forced
        obs.enable()
        try:
            obs.enable()
            assert gc.callbacks.count(obs.core._count_gc) == 1
            before = global_stats.snapshot()
            gc.collect()
            counted = global_stats.delta_since(before)
            assert counted["runtime.gc_collections"] == 1
            assert counted["runtime.gc_full_collections"] == 1
            assert counted["runtime.gc_ms"] > 0
            obs.disable()
            assert obs.core._count_gc not in gc.callbacks
            before = global_stats.snapshot()
            gc.collect()
            assert "runtime.gc_collections" not in global_stats.delta_since(before)
        finally:
            obs._set_forced(was_forced)

    def test_gc_hook_takes_no_lock(self, monkeypatch):
        """A collection can start inside :func:`stats.bump`'s locked
        region; the hook, run there, must still return."""
        monkeypatch.setattr(global_stats, "_lock", threading.Lock())

        def collect_while_locked():
            with global_stats._lock:
                obs.core._count_gc("start", {"generation": 0})
                obs.core._count_gc("stop", {"generation": 0})

        thread = threading.Thread(target=collect_while_locked, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_gc_counting_under_concurrent_bumps(self):
        """Four threads bumping under a scope while making cyclic
        garbage: every collection, whichever thread ran it, is counted
        once (the interpreter's own count is the reference)."""
        errors = []

        def work():
            try:
                with global_stats.scope():
                    for _ in range(20000):
                        global_stats.bump("obs_test.gc_stress")
                        cycle = []
                        cycle.append(cycle)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        def counts():
            gc.disable()  # no collection between the two readings
            try:
                return (sum(gen["collections"] for gen in gc.get_stats()),
                        global_stats.snapshot())
            finally:
                gc.enable()

        was_forced = obs._forced
        interval = sys.getswitchinterval()
        obs.enable()
        sys.setswitchinterval(1e-5)
        try:
            collections, before = counts()
            threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            collections_after, after = counts()
        finally:
            sys.setswitchinterval(interval)
            obs._set_forced(was_forced)
        assert not errors
        counted = {key: after.get(key, 0) - before.get(key, 0)
                   for key in ("runtime.gc_collections", "obs_test.gc_stress")}
        assert counted == {"runtime.gc_collections": collections_after - collections,
                           "obs_test.gc_stress": 4 * 20000}
        assert collections_after > collections


class TestThreadIsolation:
    def test_collector_only_sees_own_thread(self):
        seen = {}

        def other_thread():
            with obs.span("other"):
                pass

        with obs.Profile() as prof:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            with obs.span("mine"):
                pass
            seen["names"] = [s.name for s in prof.walk()]
        assert seen["names"] == ["mine"]


class TestExporters:
    def _sample_profile(self):
        with obs.Profile() as prof:
            with obs.span("root", kind="sample"):
                global_stats.bump("obs_test.export")
                with obs.span("child"):
                    pass
        return prof

    def test_jsonl_roundtrip(self, tmp_path):
        prof = self._sample_profile()
        path = tmp_path / "trace.jsonl"
        prof.to_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        by_name = {r["name"]: r for r in records}
        assert by_name["root"]["parent"] is None
        assert by_name["child"]["parent"] == by_name["root"]["id"]
        assert by_name["root"]["counters"]["obs_test.export"] == 1

    def test_format_renders_tree(self):
        prof = self._sample_profile()
        text = prof.format()
        assert "root" in text and "child" in text
        assert "kind=sample" in text

    def test_prometheus_text(self):
        global_stats.bump("obs_test.prom", 2)
        with global_stats.timer("obs_test.prom.seconds"):
            pass
        text = obs.prometheus_text()
        assert "# TYPE repro_obs_test_prom counter" in text
        assert "# TYPE repro_obs_test_prom_seconds summary" in text
        assert "repro_obs_test_prom_seconds_count" in text

    def test_span_totals_aggregate(self):
        before = obs.span_totals().get("totals-probe", {"count": 0})["count"]
        with obs.Profile():
            with obs.span("totals-probe"):
                pass
        after = obs.span_totals()["totals-probe"]
        assert after["count"] == before + 1
        assert after["wall_s"] >= 0.0


class TestTimers:
    def test_timer_observes_duration(self):
        with global_stats.timer("obs_test.timer.seconds"):
            pass
        with global_stats.timer("obs_test.timer.seconds"):
            pass
        hist = global_stats.histograms()["obs_test.timer.seconds"]
        assert hist["count"] >= 2
        assert hist["sum"] >= hist["min"] >= 0.0
        assert hist["max"] >= hist["min"]


class TestDemo:
    def test_demo_cli_writes_trace(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        out = io.StringIO()
        was_forced = obs._forced
        try:
            prof = obs._demo(jsonl_path=str(path), out=out)
        finally:
            obs._set_forced(was_forced)
        assert path.exists() and path.read_text().strip()
        # the demo runs addblock + load + query transactions
        names = {s.name for s in prof.walk()}
        assert "txn.addblock" in names
        assert "txn.query" in names
        assert "join" in names


class TestTraceContext:
    def test_no_context_outside_spans(self, untraced):
        assert obs.trace_context() is None

    def test_root_span_mints_a_trace_id(self):
        with obs.Profile():
            with obs.span("root"):
                ctx = obs.trace_context()
                assert ctx is not None
                assert ctx["trace"] and isinstance(ctx["trace"], str)
                assert isinstance(ctx["span"], int)
        assert obs.trace_context() is None

    def test_nested_span_shares_trace_points_at_leaf(self):
        with obs.Profile():
            with obs.span("root"):
                outer = obs.trace_context()
                with obs.span("leaf"):
                    inner = obs.trace_context()
                assert inner["trace"] == outer["trace"]
                assert inner["span"] != outer["span"]

    def test_remote_context_adopts_trace(self):
        with obs.Profile() as prof:
            with obs.remote_context({"trace": "T-remote", "span": 42}):
                with obs.span("continued"):
                    ctx = obs.trace_context()
                    assert ctx["trace"] == "T-remote"
        root = prof.roots[0]
        assert root.trace_id == "T-remote"
        assert root.attrs["remote_parent"] == 42

    def test_remote_context_visible_before_any_span(self):
        with obs.remote_context({"trace": "T-ambient", "span": 7}):
            ctx = obs.trace_context()
        assert ctx == {"trace": "T-ambient", "span": 7}
        assert obs.trace_context() is None

    def test_malformed_remote_context_is_noop(self):
        with obs.remote_context(None):
            pass
        with obs.remote_context({"span": 1}):  # no trace id
            assert obs.trace_context() is None
        with obs.remote_context("garbage"):
            pass

    def test_span_from_dict_mints_fresh_local_sids(self):
        record = {"sid": 5, "name": "remote", "wall_s": 0.25,
                  "attrs": {"op": "exec"}, "counters": {"join.seeks": 3},
                  "children": [{"sid": 6, "name": "inner", "wall_s": 0.1}]}
        rebuilt = obs.span_from_dict(record)
        assert rebuilt.name == "remote"
        assert rebuilt.attrs["remote_sid"] == 5
        assert rebuilt.sid != 5  # process-unique local id
        assert rebuilt.counters == {"join.seeks": 3}
        (child,) = rebuilt.children
        assert child.attrs["remote_sid"] == 6

    def test_graft_attaches_under_current_span(self):
        with obs.Profile() as prof:
            with obs.span("local"):
                grafted = obs.graft(
                    {"sid": 9, "name": "remote", "wall_s": 0.0},
                    origin="server")
                assert grafted is not None
        root = prof.roots[0]
        (child,) = root.children
        assert child.name == "remote"
        assert child.attrs["origin"] == "server"

    def test_graft_without_open_span_is_noop(self, untraced):
        assert obs.graft({"sid": 1, "name": "x", "wall_s": 0.0}) is None

    def test_graft_bad_record_is_noop(self):
        with obs.Profile():
            with obs.span("local"):
                assert obs.graft("not-a-span") is None

    def test_trace_id_survives_jsonl(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        was_forced = obs._forced
        obs.trace_to(str(path))
        try:
            with obs.span("root"):
                with obs.span("leaf"):
                    pass
        finally:
            # trace_to force-enables tracing and trace_file_off leaves
            # it on (server CLI semantics) — restore for test isolation
            obs.trace_file_off()
            obs._set_forced(was_forced)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        traces = {l["trace"] for l in lines}
        assert len(traces) == 1  # both spans stamped with the one trace
        roots = [l for l in lines if l["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "root"


class TestConcurrentAmbientRing:
    def test_ring_under_concurrent_writers(self):
        """Each thread's ambient ring is private: concurrent flooding
        never corrupts another thread's ring or exceeds the bound."""
        was_forced = obs._forced
        obs.enable()
        errors = []

        def flood(tag):
            try:
                for i in range(obs._AMBIENT_LIMIT + 40):
                    with obs.span("flood-{}".format(tag), i=i):
                        with obs.span("inner"):
                            pass
                roots = obs.last_roots()
                assert 0 < len(roots) <= obs._AMBIENT_LIMIT
                # the ring only holds this thread's roots, in order
                assert all(r.name == "flood-{}".format(tag) for r in roots)
                seq = [r.attrs["i"] for r in roots]
                assert seq == sorted(seq)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=flood, args=(t,))
                   for t in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            obs._set_forced(was_forced)
        assert errors == []

    def test_trace_ids_unique_across_threads(self):
        was_forced = obs._forced
        obs.enable()
        seen = []
        lock = threading.Lock()

        def work():
            local = []
            for _ in range(50):
                with obs.span("unique"):
                    local.append(obs.trace_context()["trace"])
            with lock:
                seen.extend(local)

        threads = [threading.Thread(target=work) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            obs._set_forced(was_forced)
        assert len(seen) == len(set(seen)) == 200

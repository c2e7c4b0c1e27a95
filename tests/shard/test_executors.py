"""ShardExecutorPool: calls run inside the submitter's trace and
counter scopes, one at a time per backend."""

import sys
import threading
import time

from repro import obs, stats
from repro.shard import ShardExecutorPool


class _Backend:
    def __init__(self):
        self.inside = 0
        self.overlapped = False

    def work(self, n):
        self.inside += 1
        if self.inside > 1:
            self.overlapped = True
        with obs.span("backend.work"):
            for _ in range(n):
                stats.bump("test.worker_bumps")
        time.sleep(0.001)
        self.inside -= 1
        return threading.current_thread().name

    def ambient(self):
        """(innermost span open around this call, active sinks)."""
        span_ = obs.current()
        return span_ and span_.name, len(stats.active_scopes())


def test_worker_spans_and_counters_land_in_the_callers_context():
    with ShardExecutorPool([_Backend(), _Backend(), _Backend()]) as pool:
        counters = {}
        with obs.Profile() as profile, stats.scope(counters):
            with obs.span("caller") as caller:
                threads = pool.gather(pool.broadcast("work", 5))
        assert threading.current_thread().name not in threads
        # one root (the caller's), one child per shard call, and the
        # worker's own spans nested under that child
        assert [root.name for root in profile.roots] == ["caller"]
        calls = caller.children
        assert [c.name for c in calls] == ["shard.call"] * 3
        assert sorted(c.attrs["shard"] for c in calls) == [0, 1, 2]
        assert all(c.children[0].name == "backend.work" for c in calls)
        # bumps made on the workers count in the caller's scope and span
        assert counters["test.worker_bumps"] == 15
        assert caller.counters["test.worker_bumps"] == 15
        assert all(c.counters["test.worker_bumps"] == 5 for c in calls)


def test_worker_context_is_restored_after_a_carried_call():
    with ShardExecutorPool([_Backend()]) as pool:  # one worker thread
        with obs.Profile(), stats.scope({}), obs.span("caller"):
            assert pool.submit(0, "ambient").result() == ("shard.call", 3)
        assert pool.submit(0, "ambient").result() == (None, 0)


def test_shared_sink_loses_no_update_and_backends_never_overlap():
    backends = [_Backend() for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ShardExecutorPool(backends) as pool:
            counters = {}
            with stats.scope(counters):
                # three calls per shard in one wave: same-shard calls
                # queue behind the backend's lock
                futures = [pool.submit(i % 4, "work", 200)
                           for i in range(12)]
                done = [f.result(timeout=30) for f in futures]
            assert len(done) == 12
            assert counters["test.worker_bumps"] == 12 * 200
            assert not any(b.overlapped for b in backends)
    finally:
        sys.setswitchinterval(interval)

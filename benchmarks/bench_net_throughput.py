"""Network overhead: TCP sessions vs in-process sessions, and replica
cold vs delta sync.

Three artifacts, all in ``BENCH_net.json``:

* **commit throughput** — the inventory soak driven through in-process
  sessions and through ``repro.net`` TCP sessions against the same
  service; ``extra_info`` reports commits/s for both and the TCP/local
  ratio (the wire tax on the write path).
* **query latency** — p50/p99 of a point query over TCP vs in-process
  (per-request framing + loopback round trip vs a function call).
* **ping latency** — p50/p99 of a ``ping``, which does no work: over
  TCP it is the request path alone (codec, socket, server thread).
* **replica sync** — records fetched by a cold sync of an N-tuple
  workspace vs by a delta sync after a one-tuple change; structural
  sharing should make the delta O(log n), and the gate below asserts
  a >= 10x gap (cold moves the tree, delta moves a spine).
"""

import os
import threading
import time

import pytest

from repro.net import NetSession, Replica
from repro.service import ServiceConfig, TransactionService
from repro import stats as engine_stats
from conftest import SMOKE, pedantic, sizes

TOTAL_TXNS = sizes(160, 16)
WRITERS = 4
ITEMS = sizes(32, 8)
QUERY_REPS = sizes(300, 20)
REPLICA_N = sizes(2000, 64)

INVENTORY = ("inventory[s] = v -> string(s), int(v).\n"
             "inventory[s] = v -> v >= 0.\n")


def _drive_writers(make_session, pool, txns):
    errors = []

    def writer(index):
        session = make_session(index)
        owned = pool[index::WRITERS]
        for k in range(txns):
            item = owned[k % len(owned)]
            try:
                session.exec(
                    '^inventory["{0}"] = x <- '
                    'inventory@start["{0}"] = y, x = y - 1.'.format(item))
            except Exception as exc:  # pragma: no cover - asserted below
                errors.append(exc)
        session.close()

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(WRITERS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, errors


def run_commits(transport):
    """The soak through one transport; returns commits/s."""
    txns = TOTAL_TXNS // WRITERS
    service = TransactionService(
        config=ServiceConfig(max_pending=WRITERS * 2))
    server = service.serve() if transport == "tcp" else None
    try:
        service.addblock(INVENTORY, name="schema")
        pool = ["item-{}".format(i) for i in range(ITEMS)]
        service.load("inventory", [(item, txns + 1) for item in pool])
        if transport == "tcp":
            make_session = lambda i: NetSession(
                server.host, server.port, name="bench-writer-{}".format(i))
        else:
            make_session = lambda i: service.session(
                name="bench-writer-{}".format(i))
        elapsed, errors = _drive_writers(make_session, pool, txns)
        commits = txns * WRITERS
        return {
            "transport": transport,
            "elapsed_s": elapsed,
            "commits": commits,
            "commits_per_s": commits / elapsed if elapsed else 0.0,
            "errors": len(errors),
        }
    finally:
        if server is not None:
            server.stop()
        service.close()


COMMITS = {}


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_commit_throughput(benchmark, transport):
    outcome = pedantic(benchmark, run_commits, transport, rounds=2)
    assert outcome["errors"] == 0
    COMMITS[transport] = outcome
    extra = {
        "transport": transport,
        "commits_per_s": round(outcome["commits_per_s"], 1),
    }
    if "local" in COMMITS and "tcp" in COMMITS:
        local = COMMITS["local"]["commits_per_s"]
        tcp = COMMITS["tcp"]["commits_per_s"]
        extra["tcp_vs_local"] = round(tcp / local, 3) if local else 0.0
    benchmark.extra_info.update(**extra)


def run_query_latency(transport, verb="query"):
    """Latencies of a point query (or a ``ping``) per transport;
    returns the p50 and p99 in microseconds."""
    service = TransactionService()
    server = service.serve() if transport == "tcp" else None
    try:
        service.addblock("p(x) -> int(x).", name="b1")
        service.load("p", [(i,) for i in range(100)])
        if transport == "tcp":
            session = NetSession(server.host, server.port)
        else:
            session = service.session()
        latencies = []
        for _ in range(QUERY_REPS):
            started = time.perf_counter()
            if verb == "ping":
                session.ping()
            else:
                assert session.query("_(x) <- p(x), x = 7.") == [(7,)]
            latencies.append(time.perf_counter() - started)
        session.close()
        latencies.sort()
        return {
            "transport": transport,
            "p50_us": latencies[len(latencies) // 2] * 1e6,
            "p99_us": latencies[int(len(latencies) * 0.99)] * 1e6,
        }
    finally:
        if server is not None:
            server.stop()
        service.close()


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_query_latency(benchmark, transport):
    outcome = pedantic(benchmark, run_query_latency, transport, rounds=2)
    benchmark.extra_info.update(
        transport=transport,
        query_p50_us=round(outcome["p50_us"], 1),
        query_p99_us=round(outcome["p99_us"], 1),
    )


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_ping_latency(benchmark, transport):
    outcome = pedantic(
        benchmark, run_query_latency, transport, "ping", rounds=2)
    benchmark.extra_info.update(
        transport=transport,
        ping_p50_us=round(outcome["p50_us"], 1),
        ping_p99_us=round(outcome["p99_us"], 1),
    )


def run_replica_sync(tmp_base):
    """Cold-sync an N-tuple workspace, then delta-sync a one-tuple
    change; returns both fetched-record counts."""
    leader_dir = os.path.join(tmp_base, "leader")
    replica_dir = os.path.join(tmp_base, "replica")
    service = TransactionService(
        config=ServiceConfig(checkpoint_path=leader_dir))
    server = service.serve()
    try:
        service.addblock("item[k] = v -> int(k), int(v).", name="items")
        service.load("item", [(i, i) for i in range(REPLICA_N)])
        service.checkpoint()
        replica = Replica(server.host, server.port, replica_dir)
        cold_sink = {}
        with engine_stats.scope(cold_sink):
            replica.sync()
        service.exec("^item[3] = 999999.")
        service.checkpoint()
        delta_sink = {}
        with engine_stats.scope(delta_sink):
            replica.sync()
        assert replica.query("_(v) <- item[3] = v.") == [(999999,)]
        replica.close()
        return {
            "n": REPLICA_N,
            "cold_records": cold_sink.get("pager.sync.fetched_records", 0),
            "delta_records": delta_sink.get("pager.sync.fetched_records", 0),
        }
    finally:
        server.stop()
        service.close()


def test_replica_sync_records(benchmark, tmp_path_factory):
    def run():
        return run_replica_sync(str(tmp_path_factory.mktemp("net-bench")))

    outcome = pedantic(benchmark, run, rounds=1)
    benchmark.extra_info.update(
        replica_n=outcome["n"],
        cold_sync_records=outcome["cold_records"],
        delta_sync_records=outcome["delta_records"],
    )
    assert outcome["delta_records"] > 0
    if not SMOKE:
        # the Merkle walk's point: a one-tuple change ships a spine,
        # not a tree
        assert outcome["delta_records"] * 10 <= outcome["cold_records"], outcome

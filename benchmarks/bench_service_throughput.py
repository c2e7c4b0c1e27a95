"""Service throughput: committed transactions/sec vs concurrent writers.

The concurrent transaction service schedules writers on O(1) branch
snapshots and merge-commits them in groups (one IVM pass + one
constraint check per batch).  Per-commit costs are dominated by the
fixed part — constraint checking walks the constrained relation — so
group commit should *increase* committed-txn throughput with writer
count even under the GIL.  The gate below asserts the acceptance
criterion: >= 2x throughput at 8 low-conflict writers vs. 1 writer,
on an identical dataset.

Emits ``BENCH_service.json`` (see conftest's module alias) with
commits/sec, batch counts, and abort/retry rates per writer count.
"""

import threading
import time

import pytest

from repro.service import ServiceConfig, TransactionService
from conftest import SMOKE, pedantic, sizes

TOTAL_TXNS = sizes(240, 16)
ITEMS = sizes(32, 8)
WRITER_COUNTS = [1, 2, 8]

INVENTORY = ("inventory[s] = v -> string(s), int(v).\n"
             "inventory[s] = v -> v >= 0.\n")

#: best observed run per writer count, for the scaling gate below
BEST = {}


def run_soak(writers):
    """Drive ``TOTAL_TXNS`` low-conflict decrements through ``writers``
    concurrent sessions over one fixed-size inventory."""
    txns = TOTAL_TXNS // writers
    service = TransactionService(
        config=ServiceConfig(max_pending=writers * 2))
    with service:
        service.addblock(INVENTORY, name="schema")
        pool = ["item-{}".format(i) for i in range(ITEMS)]
        service.load("inventory", [(item, txns + 1) for item in pool])
        errors = []

        def writer(index):
            session = service.session(name="writer-{}".format(index))
            owned = pool[index::writers]
            for k in range(txns):
                item = owned[k % len(owned)]
                try:
                    session.exec(
                        '^inventory["{0}"] = x <- '
                        'inventory@start["{0}"] = y, x = y - 1.'.format(item))
                except Exception as exc:  # pragma: no cover - gate fails below
                    errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = service.service_stats()

    commits = stats.get("service.commits", 0)
    outcome = {
        "writers": writers,
        "elapsed_s": elapsed,
        "commits": commits,
        "commits_per_s": commits / elapsed if elapsed else 0.0,
        "batches": stats.get("service.batches", 0),
        "retries": stats.get("service.retries", 0),
        "aborts": stats.get("service.aborts", 0),
        "repair_merges": stats.get("repair.corrects", 0),
        "errors": len(errors),
    }
    best = BEST.get(writers)
    if best is None or outcome["commits_per_s"] > best["commits_per_s"]:
        BEST[writers] = outcome
    return outcome


@pytest.mark.parametrize("writers", WRITER_COUNTS)
def test_service_throughput(benchmark, writers):
    outcome = pedantic(benchmark, run_soak, writers, rounds=2)
    assert outcome["errors"] == 0
    assert outcome["commits"] == (TOTAL_TXNS // writers) * writers
    txns = outcome["commits"]
    benchmark.extra_info.update(
        writers=writers,
        commits_per_s=round(outcome["commits_per_s"], 1),
        batches=outcome["batches"],
        mean_batch_size=round(txns / outcome["batches"], 2)
        if outcome["batches"] else 0,
        retry_rate=round(outcome["retries"] / txns, 4),
        abort_rate=round(outcome["aborts"] / txns, 4),
        repair_merges=outcome["repair_merges"],
    )


@pytest.mark.skipif(SMOKE, reason="smoke mode checks crashes, not scaling")
def test_group_commit_scaling_gate():
    """Acceptance gate: 8 low-conflict writers commit >= 2x the
    transactions/sec of a single writer on the same dataset."""
    assert 1 in BEST and 8 in BEST, "throughput benchmarks did not run"
    single = BEST[1]["commits_per_s"]
    eight = BEST[8]["commits_per_s"]
    ratio = eight / single if single else 0.0
    print("\nservice throughput: 1 writer {:.1f}/s, 8 writers {:.1f}/s "
          "({:.2f}x)".format(single, eight, ratio))
    assert ratio >= 2.0, (
        "group commit failed to scale: {:.1f} -> {:.1f} commits/s "
        "({:.2f}x < 2x)".format(single, eight, ratio))

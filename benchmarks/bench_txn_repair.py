"""E6 — transaction repair vs row-level locking (paper §3.4).

The paper's analysis: with n items and per-item touch probability
α·n^(−1/2), two transactions share α² items in expectation (birthday
paradox).  "Row-level locking is a bottleneck when α >= 1 ... Even for
α = 1, parallel speedup is sharply limited; and for α = 10 almost no
parallel speedup is possible.  Transaction repair allows us to achieve
near-linear parallel speedup in the number of cores, even for high
values of α such as α = 10."

Method (DESIGN.md substitution): execution and repair costs are
measured for real on this engine, single-threaded; the wall-clock on c
cores comes from the deterministic schedulers in
:mod:`repro.txn.simcores` (Brent bound for the repair circuit;
wait-for replay for strict 2PL).
"""

import pytest

from repro import Workspace
from repro.datasets.txnload import alpha_transactions, setup_inventory
from repro.txn import (
    LockingScheduler,
    RepairScheduler,
    simulate_locking,
    simulate_parallel,
)
from conftest import SMOKE, pedantic, sizes

N_ITEMS = sizes(120, 40)
N_TXNS = sizes(12, 4)
CORES = [1, 2, 4, 8, 16]


def build_workspace():
    ws = Workspace()
    setup_inventory(ws, N_ITEMS, initial=50)
    return ws


def run_repair(alpha):
    batch = alpha_transactions(N_ITEMS, N_TXNS, alpha, seed=int(alpha * 100))
    ws = build_workspace()
    scheduler = RepairScheduler(ws)
    prepared = scheduler.run(batch)
    return scheduler, prepared


def run_locking(alpha):
    batch = alpha_transactions(N_ITEMS, N_TXNS, alpha, seed=int(alpha * 100))
    ws = build_workspace()
    scheduler = LockingScheduler(ws)
    scheduler.run(batch)
    return scheduler


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_repair_batch(benchmark, alpha):
    scheduler, _ = pedantic(benchmark, run_repair, alpha, rounds=2)
    benchmark.extra_info.update(
        alpha=alpha,
        repairs=scheduler.stats["repairs"],
    )


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_locking_batch(benchmark, alpha):
    scheduler = pedantic(benchmark, run_locking, alpha, rounds=2)
    benchmark.extra_info.update(
        alpha=alpha, lock_conflicts=scheduler.stats["lock_conflicts"]
    )


@pytest.mark.skipif(SMOKE, reason="smoke mode checks crashes, not shape")
def test_speedup_curves(benchmark):
    """The paper's speedup-vs-cores contrast across α."""
    print("\nspeedup at 16 cores (repair vs locking), measured costs:")
    print("  alpha    repairs  repair@16  locking@16")
    final = {}
    for alpha in (0.1, 1.0, 10.0):
        scheduler, prepared = run_repair(alpha)
        exec_costs = [t.execute_seconds for t in prepared]
        repair_costs = [t.repair_seconds for t in prepared]
        locking = run_locking(alpha)
        repair_speedup = simulate_parallel(exec_costs, repair_costs, 1) / (
            simulate_parallel(exec_costs, repair_costs, 16)
        )
        lock_base = simulate_locking(
            locking.stats["exec_seconds"], locking.stats["wait_edges"], 1
        )
        lock_speedup = lock_base / simulate_locking(
            locking.stats["exec_seconds"], locking.stats["wait_edges"], 16
        )
        final[alpha] = (repair_speedup, lock_speedup)
        print("  %5.1f  %9d  %9.2f  %10.2f" % (
            alpha, scheduler.stats["repairs"], repair_speedup, lock_speedup))
    # shapes from the paper: locking collapses as alpha grows;
    # repair keeps scaling even at alpha = 10
    assert final[0.1][1] > 2.0, "locking should scale at alpha = 0.1"
    assert final[10.0][1] < 2.0, "locking should collapse at alpha = 10"
    assert final[10.0][0] > final[10.0][1], "repair must beat locking at alpha=10"
    assert final[1.0][0] > 1.5
    benchmark.extra_info["speedups"] = {str(k): v for k, v in final.items()}
    pedantic(benchmark, run_repair, 0.1, rounds=1)


def test_serializability_spotcheck(benchmark):
    """Both schedulers commit identical states (full serializability)."""
    def check():
        batch = alpha_transactions(N_ITEMS, 6, 4.0, seed=5)
        a, b = build_workspace(), build_workspace()
        RepairScheduler(a).run(batch)
        LockingScheduler(b).run(batch)
        assert a.rows("inventory") == b.rows("inventory")
        assert a.rows("place_order") == b.rows("place_order")

    pedantic(benchmark, check, rounds=2)

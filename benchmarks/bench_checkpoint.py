"""E8 — durable checkpoint cost: incremental vs full rewrite.

The pager's claim (DESIGN.md §7): because treaps are uniquely
represented and content-addressed, a re-checkpoint prices at the
*delta*, not the database.  An unchanged workspace re-checkpoints with
zero node writes; a single-tuple update rewrites only the O(log n)
root path plus the touched derived state, orders of magnitude below
the initial full write.

Measured here on a workspace with a base relation, a filter view, and
an aggregation, so the checkpoint carries relations, support counts,
and aggregate group state.
"""

import os
import shutil
import statistics
import time

import pytest

from repro.runtime.workspace import Workspace
from conftest import SMOKE, pedantic, sizes

BLOCK = """
item[k] = v -> int(k), int(v).
big(k) <- item[k] = v, v > 5.
total[] = u <- agg<<u = sum(v)>> item[k] = v.
"""

N = sizes(3000, 100)


def build_workspace():
    ws = Workspace()
    ws.addblock(BLOCK, name="items")
    ws.load("item", [(i, i % 10) for i in range(N)])
    return ws


def test_full_checkpoint(benchmark, tmp_path):
    """Cost of writing the whole workspace into an empty store."""
    ws = build_workspace()
    counter = [0]

    def full():
        counter[0] += 1
        path = str(tmp_path / "cp{}".format(counter[0]))
        return ws.checkpoint(path)

    result = pedantic(benchmark, full, rounds=3)
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["nodes_written"] = result["nodes_written"]
    assert result["nodes_written"] > 0


def test_incremental_checkpoint(benchmark, tmp_path):
    """Cost of re-checkpointing after a single-tuple update."""
    ws = build_workspace()
    path = str(tmp_path / "cp")
    ws.checkpoint(path)
    key = [N]

    def delta_then_checkpoint():
        key[0] += 1
        ws.load("item", [(key[0], 3)])
        return ws.checkpoint(path)

    result = pedantic(benchmark, delta_then_checkpoint, rounds=3)
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["nodes_written"] = result["nodes_written"]


def test_restore(benchmark, tmp_path):
    """Cost of ``Workspace.open`` — decode, no re-derivation."""
    ws = build_workspace()
    path = str(tmp_path / "cp")
    ws.checkpoint(path)

    result = pedantic(benchmark, Workspace.open, path, rounds=3)
    assert result.rows("total") == ws.rows("total")
    benchmark.extra_info["rows"] = N


@pytest.mark.skipif(SMOKE, reason="smoke mode checks crashes, not shape")
def test_incremental_shape(benchmark, tmp_path):
    """The structural-sharing gate, asserted on node-write counters:

    * an unchanged workspace re-checkpoints with **zero** writes;
    * a single-tuple delta writes < 10% of the initial node count
      (the root path and touched derived state, not the database);
    * the incremental write is also faster than a full rewrite;
    * a one-tuple re-checkpoint after 2,000 commits takes ≤ 2× the one
      after 20 (the manifest lists the branch heads, not the history).
    """
    ws = build_workspace()
    path = str(tmp_path / "cp")

    started = time.perf_counter()
    first = ws.checkpoint(path)
    full_time = time.perf_counter() - started

    unchanged = ws.checkpoint(path)
    assert unchanged["nodes_written"] == 0, unchanged
    assert unchanged["bytes_written"] == 0, unchanged

    ws.load("item", [(N + 1, 3)])
    started = time.perf_counter()
    delta = ws.checkpoint(path)
    delta_time = time.perf_counter() - started

    assert 0 < delta["nodes_written"] < first["nodes_written"] / 10, (
        first, delta)
    assert delta_time < full_time, (full_time, delta_time)

    extra = (N + 2, 3)
    commits = [0]

    def recheckpoint_after(history):
        """Median of 7 one-tuple re-checkpoints, taken once ``history``
        commits (each toggling one tuple) have been made."""
        samples = []
        while len(samples) < 7:
            present = commits[0] % 2
            ws.load("item", [] if present else [extra], remove=[extra] if present else [])
            commits[0] += 1
            if commits[0] >= history:
                started = time.perf_counter()
                ws.checkpoint(path)
                samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    short_history = recheckpoint_after(20)
    long_history = recheckpoint_after(2000)
    assert long_history <= 2 * short_history, (short_history, long_history)

    print("\ncheckpoint: full {} nodes {:.4f}s  delta {} nodes {:.4f}s".format(
        first["nodes_written"], full_time,
        delta["nodes_written"], delta_time))
    print("one-tuple re-checkpoint: after 20 commits {:.4f}s  after 2,000 {:.4f}s".format(
        short_history, long_history))
    benchmark.extra_info.update(
        full_nodes=first["nodes_written"], delta_nodes=delta["nodes_written"],
        full_s=full_time, delta_s=delta_time,
        recheckpoint_after_20_commits_s=short_history,
        recheckpoint_after_2000_commits_s=long_history,
    )
    pedantic(benchmark, ws.checkpoint, path, rounds=2)

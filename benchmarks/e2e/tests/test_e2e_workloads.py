"""Op streams are a pure function of the seed."""

import collections
import itertools
import os
import subprocess
import sys

import pytest

import workloads as wl
from conftest import E2E, ROOT

NAMES = list(wl.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_seeds_give_identical_streams(name):
    spec = wl.WORKLOADS[name]
    assert wl.stream_hash(spec, 7, "smoke") == wl.stream_hash(spec, 7, "smoke")
    assert wl.stream_hash(spec, 7, "smoke") != wl.stream_hash(spec, 8, "smoke")


def test_streams_do_not_depend_on_pythonhashseed():
    script = (
        "import sys; sys.path[:0] = [{!r}, {!r}]\n"
        "import workloads as wl\n"
        "print([wl.stream_hash(s, 3, 'smoke') for s in wl.WORKLOADS.values()])"
    ).format(E2E, os.path.join(ROOT, "src"))
    outputs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        outputs.add(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("name", NAMES)
def test_every_block_holds_the_declared_mix(name):
    spec = wl.WORKLOADS[name]
    data = spec.data(5, spec.sizes["smoke"])
    size = len(spec.block)
    ops = list(itertools.islice(spec.stream(5, data), 4 * size))
    for start in range(0, len(ops), size):
        kinds = collections.Counter(op.kind for op in ops[start:start + size])
        assert kinds == collections.Counter(spec.block)


def test_oltp_keys_are_skewed():
    spec = wl.OLTP
    data = spec.data(5, spec.sizes["full"])
    hits = collections.Counter(
        op.args[0] for op in itertools.islice(spec.stream(5, data), 4000)
        if op.kind in ("point", "rmw"))
    hot = sum(n for _, n in hits.most_common(len(data.loads[0][1]) // 10))
    assert 0.4 < hot / sum(hits.values()) < 0.6   # a tenth of the keys


def test_two_owner_writes_cross_shards():
    spec = wl.SHARDS
    data = spec.data(5, spec.sizes["smoke"])
    placement = wl.ShardMap(wl.N_SHARDS, wl.SHARD_PARTITION)
    crossing = [op for op in itertools.islice(spec.stream(5, data), 200)
                if op.kind == "exec2"]
    assert crossing
    for op in crossing:
        rows = op.args[0] or op.args[1]
        assert len({placement.shard_of_key(row[0]) for row in rows}) == 2

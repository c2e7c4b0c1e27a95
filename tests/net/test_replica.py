"""Checkpoint-shipping read replicas: cold sync equality, O(log n)
delta sync (asserted on pager counters), read-only enforcement,
restart from local disk, and background following."""

import os
import shutil
import time

import pytest

from repro import stats as _stats
from repro.net import NetSession, Replica, ReproServer
from repro.net.protocol import ReplicaReadOnly
from repro.service import ServiceConfig, TransactionService
from repro.storage import pager
from repro.storage.pager import NodeStore, read_manifest

N = 2000


@pytest.fixture()
def leader(tmp_path):
    service = TransactionService(config=ServiceConfig(
        checkpoint_path=str(tmp_path / "leader")))
    with ReproServer(service) as server:
        with NetSession(server.host, server.port) as s:
            s.addblock("item[k] = v -> int(k), int(v).", name="items")
            s.load("item", [(i, i * 7) for i in range(N)])
            s.checkpoint()
        yield server, str(tmp_path)
    service.close()


def test_cold_sync_matches_leader(leader):
    server, tmp = leader
    with Replica(server.host, server.port, os.path.join(tmp, "r1")) as rep:
        info = rep.sync()
        assert info["ingested"] and info["fetched_records"] > 0
        assert sorted(rep.rows("item")) == [(i, i * 7) for i in range(N)]
        assert rep.query("_(v) <- item[3] = v.") == [(21,)]


class _CountingFile:
    """A pack file whose reads add their byte counts to ``read``."""

    def __init__(self, fh, read):
        self._fh = fh
        self._read = read

    def read(self, *args):
        data = self._fh.read(*args)
        self._read[0] += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_cold_sync_reads_each_record_once(leader, monkeypatch):
    """The feed reads a batch's records at their offsets: a cold sync
    of every record (many 256-record batches) reads at most twice their
    bytes from the leader's packs, not a whole pack per batch."""
    server, tmp = leader
    leader_dir = os.path.join(tmp, "leader")
    store = NodeStore(leader_dir)
    store.load_packs(read_manifest(leader_dir)["packs"])
    record_bytes = sum(len(store.get(addr)) for addr in store.addresses())
    with NetSession(server.host, server.port) as s:
        s.sync_manifest()  # the leader indexes its packs before counting
    read = [0]

    def counting_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.path.dirname(path) == leader_dir and path.endswith(".pack"):
            return _CountingFile(fh, read)
        return fh

    monkeypatch.setattr(pager, "open", counting_open, raising=False)
    with Replica(server.host, server.port, os.path.join(tmp, "r0")) as rep:
        info = rep.sync()
    assert info["fetched_records"] == len(store) > 256
    assert 0 < read[0] <= 2 * record_bytes, (read[0], record_bytes)


def test_delta_sync_fetches_o_log_n_records(leader):
    server, tmp = leader
    with Replica(server.host, server.port, os.path.join(tmp, "r2")) as rep:
        cold = {}
        with _stats.scope(cold):
            rep.sync()
        cold_fetched = cold.get("pager.sync.fetched_records", 0)
        assert cold_fetched > 100  # the cold sync moved the whole tree

        # one-tuple change on the leader, new checkpoint
        with NetSession(server.host, server.port) as s:
            s.exec("^item[3] = 999.")
            s.checkpoint()

        delta = {}
        with _stats.scope(delta):
            info = rep.sync()
        assert info["ingested"]
        fetched = delta.get("pager.sync.fetched_records", 0)
        # structural sharing: only the spine above the changed tuple
        # (plus a handful of metadata roots) crosses the wire —
        # O(log n), not O(n)
        assert 0 < fetched <= 64, fetched
        assert fetched * 5 < cold_fetched, (fetched, cold_fetched)
        assert rep.query("_(v) <- item[3] = v.") == [(999,)]
        assert len(rep.rows("item")) == N


def test_sync_is_idempotent_when_current(leader):
    server, tmp = leader
    with Replica(server.host, server.port, os.path.join(tmp, "r3")) as rep:
        rep.sync()
        info = rep.sync()
        assert info["ingested"] is False
        assert info["fetched_records"] == 0


def test_replica_rejects_writes(leader):
    server, tmp = leader
    with Replica(server.host, server.port, os.path.join(tmp, "r4")) as rep:
        rep.sync()
        for verb in (lambda: rep.exec("+item[9] = 9."),
                     lambda: rep.addblock("q(x) -> int(x)."),
                     lambda: rep.removeblock("items"),
                     lambda: rep.load("item", [(9, 9)])):
            with pytest.raises(ReplicaReadOnly):
                verb()


def test_replica_restarts_from_local_checkpoint(leader):
    server, tmp = leader
    path = os.path.join(tmp, "r5")
    with Replica(server.host, server.port, path) as rep:
        rep.sync()
        seq = rep.seq
    # a fresh replica process on the same directory serves reads
    # before ever contacting the leader
    with Replica(server.host, server.port, path) as rep2:
        assert rep2.seq == seq
        assert rep2.query("_(v) <- item[3] = v.") == [(21,)]
        # and a subsequent sync is a no-op (already current)
        assert rep2.sync()["ingested"] is False


def test_follow_picks_up_new_checkpoints(leader):
    server, tmp = leader
    with Replica(server.host, server.port, os.path.join(tmp, "r6")) as rep:
        rep.follow(heartbeat_s=0.5)
        first = rep.seq
        with NetSession(server.host, server.port) as s:
            s.exec("^item[5] = 555.")
            s.checkpoint()
        deadline = time.time() + 10.0
        while rep.seq == first and time.time() < deadline:
            time.sleep(0.05)
        assert rep.seq > first
        assert rep.query("_(v) <- item[5] = v.") == [(555,)]
        rep.stop()


def test_sync_from_a_manifest_listing_recorders(tmp_path):
    """A leader serving a checkpoint whose manifest still lists
    sensitivity ``recorders`` blobs: the replica walks the treap roots
    only, never fetches a blob, and serves the leader's rows."""
    fixture = os.path.join(os.path.dirname(__file__), os.pardir, "storage",
                           "fixtures", "parent_checkpoint")
    path = str(tmp_path / "leader")
    shutil.copytree(fixture, path)
    blobs = {bytes.fromhex(addr)
             for state in read_manifest(path)["states"].values()
             for addr in state["recorders"].values()}
    assert blobs
    service = TransactionService(config=ServiceConfig(checkpoint_path=path))
    try:
        with ReproServer(service) as server:
            with Replica(server.host, server.port, str(tmp_path / "r")) as rep:
                assert rep.sync()["ingested"]
                assert not any(rep._store.known(addr) for addr in blobs)
                for pred in ("E", "F", "tri", "outdeg", "from3", "hop", "lonely"):
                    assert rep.rows(pred) == service.workspace.rows(pred)
    finally:
        service.close()


def test_unsynced_replica_refuses_reads(leader):
    server, tmp = leader
    with Replica(server.host, server.port, os.path.join(tmp, "r7")) as rep:
        with pytest.raises(ReplicaReadOnly):
            rep.rows("item")

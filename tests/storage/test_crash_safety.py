"""Crash safety: a checkpoint killed mid-write must be invisible.

The durability protocol is: write + fsync the new pack, fsync the
directory, *then* atomically rename the manifest.  A crash anywhere
before the rename leaves the previous manifest — and therefore the
previous checkpoint — fully intact; orphaned packs from the aborted
attempt are never referenced and their names are reused (with
truncation) by the next successful checkpoint.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.runtime.workspace import Workspace
from repro.service.faults import FaultInjector, InjectedCrash
from repro.storage.pager import read_manifest

BLOCK = """
item[k] = v -> int(k), int(v).
doubled[k] = u <- item[k] = v, u = v * 2.
"""


def build_workspace():
    ws = Workspace()
    ws.addblock(BLOCK, name="items")
    ws.load("item", [(i, i * 10) for i in range(20)])
    return ws


def snapshot(ws):
    return {
        "item": ws.rows("item"),
        "doubled": ws.rows("doubled"),
        "hash": ws.relation("item").structural_hash(),
        "head": ws.version().id,
    }


def assert_matches(ws, expected):
    assert ws.rows("item") == expected["item"]
    assert ws.rows("doubled") == expected["doubled"]
    assert ws.relation("item").structural_hash() == expected["hash"]
    assert ws.version().id == expected["head"]


class TestInjectedCrash:
    def test_crash_between_pack_and_manifest(self, tmp_path):
        """The scripted fault fires after the pack is durable but
        before the manifest swap — the paradigmatic torn checkpoint."""
        ws = build_workspace()
        ws.checkpoint(str(tmp_path))
        committed = snapshot(ws)
        manifest_before = read_manifest(str(tmp_path))

        ws.load("item", [(99, 990)])
        faults = FaultInjector().script("checkpoint", "crash")
        with pytest.raises(InjectedCrash):
            ws.checkpoint(str(tmp_path), fault_fire=faults.fire)

        # the manifest is bit-identical to the pre-crash one...
        assert read_manifest(str(tmp_path)) == manifest_before
        # ...and restore recovers the previous checkpoint exactly
        assert_matches(Workspace.open(str(tmp_path)), committed)

    def test_recheckpoint_after_crash_succeeds(self, tmp_path):
        ws = build_workspace()
        ws.checkpoint(str(tmp_path))
        ws.load("item", [(99, 990)])
        faults = FaultInjector().script("checkpoint", "crash")
        with pytest.raises(InjectedCrash):
            ws.checkpoint(str(tmp_path), fault_fire=faults.fire)

        # same workspace retries: the orphaned pack's name is reused
        # (truncating it) and the delta lands
        result = ws.checkpoint(str(tmp_path))
        assert result["nodes_written"] > 0
        ws2 = Workspace.open(str(tmp_path))
        assert (99, 990) in ws2.relation("item")
        assert ws2.rows("doubled") == ws.rows("doubled")

    def test_retry_writes_what_a_crash_free_twin_writes(self, tmp_path):
        """Addresses a crashed attempt set on its nodes do not prune the
        retry: it writes every record the crash-free checkpoint of the
        same state writes."""
        ws, twin = build_workspace(), build_workspace()
        for workspace, name in ((ws, "crashed"), (twin, "twin")):
            workspace.checkpoint(str(tmp_path / name))
            workspace.load("item", [(99, 990)])
        faults = FaultInjector().script("checkpoint", "crash")
        with pytest.raises(InjectedCrash):
            ws.checkpoint(str(tmp_path / "crashed"), fault_fire=faults.fire)

        retry = ws.checkpoint(str(tmp_path / "crashed"))
        clean = twin.checkpoint(str(tmp_path / "twin"))
        assert retry["nodes_written"] == clean["nodes_written"] > 0
        assert retry["store_nodes"] == clean["store_nodes"]
        assert_matches(Workspace.open(str(tmp_path / "crashed")), snapshot(ws))

    def test_crash_on_first_checkpoint_leaves_no_manifest(self, tmp_path):
        ws = build_workspace()
        faults = FaultInjector().script("checkpoint", "crash")
        with pytest.raises(InjectedCrash):
            ws.checkpoint(str(tmp_path), fault_fire=faults.fire)
        assert read_manifest(str(tmp_path)) is None
        with pytest.raises(FileNotFoundError):
            Workspace.open(str(tmp_path))


class TestHardKill:
    def test_os_exit_mid_checkpoint(self, tmp_path):
        """Kill the interpreter with os._exit (no cleanup handlers, no
        flushing) between the pack write and the manifest swap, then
        assert a fresh process recovers the previous checkpoint."""
        ws = build_workspace()
        ws.checkpoint(str(tmp_path))
        committed = snapshot(ws)
        manifest_before = read_manifest(str(tmp_path))

        script = textwrap.dedent("""
            import os, sys
            from repro.runtime.workspace import Workspace
            ws = Workspace.open(sys.argv[1])
            ws.load("item", [(777, 7770)])
            def die(point):
                os._exit(42)
            ws.checkpoint(sys.argv[1], fault_fire=die)
            raise SystemExit("checkpoint returned past the kill point")
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 42, proc.stderr

        # the aborted attempt left an orphan pack; the manifest must
        # not reference it and recovery must not read it
        manifest = read_manifest(str(tmp_path))
        assert manifest == manifest_before
        on_disk = {n for n in os.listdir(str(tmp_path)) if n.endswith(".pack")}
        assert set(manifest["packs"]) <= on_disk
        assert_matches(Workspace.open(str(tmp_path)), committed)

    def test_truncated_orphan_pack_is_ignored(self, tmp_path):
        """Even a torn (partially written) orphan pack must not break
        recovery: only manifest-listed packs are ever indexed."""
        ws = build_workspace()
        ws.checkpoint(str(tmp_path))
        committed = snapshot(ws)
        # simulate a torn write from a crashed successor checkpoint
        with open(os.path.join(str(tmp_path), "nodes-000002.pack"), "wb") as fh:
            fh.write(b"\x01\x02\x03")  # shorter than one record header
        assert_matches(Workspace.open(str(tmp_path)), committed)

        # and the next real checkpoint reuses + truncates the name
        ws.load("item", [(5, 999)], remove=[(5, 50)])
        ws.checkpoint(str(tmp_path))
        ws3 = Workspace.open(str(tmp_path))
        assert (5, 999) in ws3.relation("item")
        assert (5, 50) not in ws3.relation("item")

"""Durable checkpoint/restore: round-trip fidelity and incrementality.

The contract under test (paper §3: unique representation makes
durability log-free): ``Workspace.checkpoint`` → ``Workspace.open``
reproduces the workspace bit-identically — relation contents AND treap
structure (structural hashes), support counts, aggregation state,
IVM behavior, installed blocks, and the branch heads — while repeated
checkpoints write only the nodes that changed, and the manifest grows
with the heads, not with the history behind them.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.ds import treap
from repro.ds.pmap import PMap
from repro.ds.pset import PSet
from repro.engine.aggregates import MultisetState, SumState
from repro.runtime.errors import ConstraintViolation, TransactionAborted
from repro.runtime.workspace import Workspace
from repro.storage.datum import BOTTOM, TOP
from repro.storage.pager import (
    CheckpointStore,
    decode_value,
    encode_value,
    has_checkpoint,
    manifest_addresses,
    node_children,
    read_manifest,
)
from repro.storage.relation import Relation
from repro.stats import scope as stats_scope
from repro.txn.repair import PreparedTransaction

RETAIL = """
Product(p) -> string(p).
Stock[p] = v -> string(p), float(v).
inStock(p) <- Product(p), Stock[p] = v, v > 0.0.
totalShelf[] = u <- agg<<u = sum(v)>> Stock[p] = v.
"""


@pytest.fixture
def retail():
    ws = Workspace()
    ws.addblock(RETAIL, name="retail")
    ws.load("Product", [("a",), ("b",), ("c",)])
    ws.load("Stock", [("a", 4.0), ("b", 8.0), ("c", 0.0)])
    return ws


def reopened(ws, path):
    ws.checkpoint(str(path))
    return Workspace.open(str(path))


class TestCodec:
    def test_value_round_trip(self):
        values = [
            None, True, False, 0, 1, -1, 2**70, -(2**70), 0.5, -2.5,
            "", "héllo", b"\x00\xff", (1, "a", (2.0, None)), [1, [2], 3],
            {"k": 1, 2: "v"}, BOTTOM, TOP,
        ]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_encoding_canonical(self):
        assert encode_value((1, "a")) == encode_value((1, "a"))
        assert encode_value(1) != encode_value(1.0)
        assert encode_value(True) != encode_value(1)

    def test_agg_states(self):
        out = decode_value(encode_value(SumState(12.5, 3)))
        assert (out.total, out.count) == (12.5, 3)
        ms = MultisetState(PMap.from_dict({1.0: 2, 3.0: 1}), 3)
        out = decode_value(encode_value(ms))
        assert out.count == 3
        assert list(out.values.items()) == [(1.0, 2), (3.0, 1)]

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())


class TestRoundTrip:
    def test_rows_and_structure_bit_identical(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        for pred in ("Product", "Stock", "inStock", "totalShelf"):
            assert retail.rows(pred) == ws2.rows(pred)
            assert (
                retail.relation(pred).structural_hash()
                == ws2.relation(pred).structural_hash()
            )

    def test_support_counts_restored(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        for pred, state in retail.state.materialization.states.items():
            restored = ws2.state.materialization.states[pred]
            assert restored.kind == state.kind
            assert restored.agg_fn == state.agg_fn
            assert list(restored.counts.items()) == list(state.counts.items())
            assert list(restored.groups) == list(state.groups)

    def test_blocks_restored(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        assert ws2.blocks() == retail.blocks()

    def test_meta_state_restored(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        meta1 = retail.state.meta_state
        meta2 = ws2.state.meta_state
        assert meta2.block_facts == meta1.block_facts
        for pred in ("lang_edb", "lang_idb", "need_frame"):
            assert meta2.rows(pred) == meta1.rows(pred)

    def test_branches_restored(self, retail, tmp_path):
        retail.create_branch("scratch")
        retail.switch("scratch")
        retail.load("Product", [("d",)])
        retail.switch("main")
        ws2 = reopened(retail, tmp_path)
        assert ws2.branches() == ["main", "scratch"]
        assert ws2.branch == "main"
        assert ws2.rows("Product") == [("a",), ("b",), ("c",)]
        ws2.switch("scratch")
        assert ws2.rows("Product") == [("a",), ("b",), ("c",), ("d",)]

    def test_branch_heads_restored(self, retail, tmp_path):
        retail.create_branch("scratch")
        retail.switch("scratch")
        ws2 = reopened(retail, tmp_path)
        assert ws2.branches() == retail.branches()
        assert ws2.branch == "scratch"
        for name in retail.branches():
            head, head2 = retail._graph.head(name), ws2._graph.head(name)
            assert head2.id == head.id
            assert head2.parent_ids == ()

    def test_new_versions_do_not_collide(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        restored_ids = {v.id for v in ws2._graph.heads().values()}
        ws2.load("Product", [("z",)])
        assert ws2.version().id not in restored_ids

    def test_ivm_works_after_restore(self, retail, tmp_path):
        # incremental maintenance (not re-derivation) must continue
        # correctly from the restored support counts and sensitivities
        ws2 = reopened(retail, tmp_path)
        for ws in (retail, ws2):
            ws.exec('^Stock["c"] = 5.0 <- .')
            ws.exec('-Product("a").')
        assert ws2.rows("inStock") == retail.rows("inStock")
        assert ws2.rows("totalShelf") == retail.rows("totalShelf")
        assert (
            ws2.relation("inStock").structural_hash()
            == retail.relation("inStock").structural_hash()
        )

    def test_addblock_works_after_restore(self, retail, tmp_path):
        ws2 = reopened(retail, tmp_path)
        for ws in (retail, ws2):
            ws.addblock("lowStock(p) <- Stock[p] = v, v < 5.0.", name="low")
        assert ws2.rows("lowStock") == retail.rows("lowStock")

    def test_empty_workspace_round_trips(self, tmp_path):
        ws2 = reopened(Workspace(), tmp_path)
        assert ws2.branches() == ["main"]
        assert ws2.blocks() == []


class TestIncrementality:
    def test_unchanged_recheckpoint_writes_nothing(self, retail, tmp_path):
        first = retail.checkpoint(str(tmp_path))
        second = retail.checkpoint(str(tmp_path))
        assert first["nodes_written"] > 0
        assert second["nodes_written"] == 0
        assert second["bytes_written"] == 0

    def test_small_delta_writes_small(self, retail, tmp_path):
        first = retail.checkpoint(str(tmp_path))
        retail.exec('+Product("zz").')
        third = retail.checkpoint(str(tmp_path))
        assert 0 < third["nodes_written"] < first["nodes_written"]

    def test_shared_subtrees_written_once(self, retail, tmp_path):
        # a branch shares all its structure with its parent: the branch
        # itself must cost zero node writes
        retail.checkpoint(str(tmp_path))
        retail.create_branch("twin")
        result = retail.checkpoint(str(tmp_path))
        assert result["nodes_written"] == 0

    def test_fresh_store_still_incremental_after_open(self, retail, tmp_path):
        # restore sets every node's address, so the first checkpoint
        # from a reopened workspace is a no-op too
        ws2 = reopened(retail, tmp_path)
        result = ws2.checkpoint(str(tmp_path))
        assert result["nodes_written"] == 0

    def test_another_directory_gets_a_complete_checkpoint(self, retail, tmp_path):
        """Addresses a node got from one store do not prune the walk in
        another: a second, empty directory receives every record, for the
        workspace that wrote the first and for one opened from it."""
        first = retail.checkpoint(str(tmp_path / "a"))
        opened = Workspace.open(str(tmp_path / "a"))
        for ws, path in ((retail, tmp_path / "b"), (opened, tmp_path / "c")):
            result = ws.checkpoint(str(path))
            assert result["nodes_written"] == first["nodes_written"]
            assert result["store_nodes"] == first["store_nodes"]
            assert _head_state(path) == _head_state(tmp_path / "a")
            again = Workspace.open(str(path))
            assert again.rows("Stock") == retail.rows("Stock")
            assert again.rows("totalShelf") == retail.rows("totalShelf")

    def test_live_nodes_track_data_not_checkpoints(self, tmp_path):
        """A checkpoint store pins no superseded treap node: after 40 and
        after 400 one-key commits, each checkpointed, a 1,000-key
        workspace holds the same number of live nodes (within 5 %)."""
        ws = Workspace()
        ws.addblock("inventory[s] = v -> string(s), int(v).")
        ws.load("inventory", [("sku%05d" % i, i) for i in range(1000)])
        path = str(tmp_path)

        def live_after(commits):
            for _ in range(commits):
                ws.exec('^inventory["sku00017"] = x <- '
                        'inventory@start["sku00017"] = y, x = y + 1.')
                ws.checkpoint(path)
            gc.collect()
            return sum(isinstance(o, treap.Node) for o in gc.get_objects())

        warm = live_after(40)
        later = live_after(360)
        assert later <= 1.05 * warm, (warm, later)

    def test_one_key_commit_checkpoint_encodes_only_spines(self, tmp_path, monkeypatch):
        """After a one-key ``^inventory`` commit a checkpoint encodes the
        treap nodes above that key and no other record, at 1,000 keys
        as at 4,000."""
        from repro.storage import pager

        def encoded(keys):
            ws = Workspace()
            ws.addblock(
                "inventory[s] = v -> string(s), int(v).\n"
                "inventory[s] = v -> v >= 0.\n"
                "cat[s] = c -> string(s), string(c).\n"
                "bycat[c] = t <- agg<<t = sum(v)>> inventory[s] = v, cat[s] = c.\n"
            )
            ws.load("inventory", [("sku%05d" % i, 500 + i) for i in range(keys)])
            ws.load("cat", [("sku%05d" % i, "c%d" % (i % 7)) for i in range(keys)])
            path = str(tmp_path / str(keys))
            ws.checkpoint(path)
            ws.exec('^inventory["sku00017"] = x <- inventory@start["sku00017"] = y, '
                    "x = y - 1.")
            counts = {"nodes": 0, "values": 0}

            def counting(kind, real):
                def wrapper(*args):
                    counts[kind] += 1
                    return real(*args)
                return wrapper

            with monkeypatch.context() as patched:
                patched.setattr(pager, "_encode_node", counting("nodes", pager._encode_node))
                patched.setattr(pager, "encode_value", counting("values", pager.encode_value))
                ws.checkpoint(path)
            return counts

        small, large = encoded(1000), encoded(4000)
        assert small["values"] == large["values"] == 0
        assert 0 < small["nodes"] <= large["nodes"] <= 2 * small["nodes"]

    def test_exec_and_checkpoint_fold_no_sensitivity(self, retail, tmp_path):
        # the exec's own transaction records (repair reads it); view
        # maintenance and the checkpoint fold nothing beyond it
        source = '^Stock["c"] = 5.0 <- .'
        alone = {}
        with stats_scope(alone):
            PreparedTransaction(source).execute(retail.state)
        retail.reset_engine_stats()
        retail.exec(source)
        retail.checkpoint(str(tmp_path))
        stats = retail.engine_stats()
        assert stats["ivm.applies"] == 1 and stats["pager.checkpoints"] == 1
        assert (stats.get("sensitivity.folded", 0)
                == alone.get("sensitivity.folded", 0))


class TestManifest:
    def test_crash_before_first_manifest_leaves_nothing(self, tmp_path):
        assert not has_checkpoint(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            CheckpointStore(str(tmp_path)).restore_into(Workspace())

    def test_manifest_names_packs_and_roots(self, retail, tmp_path):
        retail.checkpoint(str(tmp_path))
        manifest = read_manifest(str(tmp_path))
        assert manifest["seq"] == 1
        assert manifest["packs"] == ["nodes-000001.pack"]
        for name in manifest["packs"]:
            assert os.path.exists(os.path.join(str(tmp_path), name))
        state = manifest["states"][str(manifest["branches"]["main"])]
        assert set(state["base"]) == {"Product", "Stock"}
        assert "inStock" in state["relations"]
        assert "retail" in state["blocks"]

    def test_manifest_lists_heads_not_history(self, tmp_path):
        """A one-branch workspace checkpointed after 20 and after 2,000
        commits: each manifest lists its head alone, and the second is
        larger only by the pack name its checkpoint added."""
        ws = Workspace()
        ws.addblock("n(v) -> int(v).", name="b")
        ws.load("n", [(0,)])
        path = str(tmp_path)
        manifests, sizes, done = [], [], 0
        for commits in (20, 2000):
            for i in range(done, commits):
                ws.load("n", [(i + 1,)], remove=[(i,)])
            done = commits
            ws.checkpoint(path)
            manifests.append(read_manifest(path))
            sizes.append(os.path.getsize(os.path.join(path, "MANIFEST.json")))
        first, second = manifests
        for manifest in manifests:
            head = manifest["branches"]["main"]
            assert list(manifest["branches"].values()) == [head]
            assert list(manifest["states"]) == [str(head)]
        assert second["packs"] == first["packs"] + ["nodes-000002.pack"]
        # the head id is written twice: branches, states
        id_growth = 2 * (len(str(second["branches"]["main"]))
                         - len(str(first["branches"]["main"])))
        assert sizes[1] - sizes[0] == len(',\n  "nodes-000002.pack"') + id_growth

    def test_heads_sharing_a_version_share_a_state_record(self, retail, tmp_path):
        retail.create_branch("twin")
        retail._graph.move_head("twin", retail.version())
        retail.checkpoint(str(tmp_path))
        manifest = read_manifest(str(tmp_path))
        head = retail.version().id
        assert manifest["branches"] == {"main": head, "twin": head}
        assert list(manifest["states"]) == [str(head)]
        ws2 = Workspace.open(str(tmp_path))
        assert ws2._graph.head("twin") is ws2._graph.head("main")

    def test_unsupported_format_rejected(self, retail, tmp_path):
        retail.checkpoint(str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["format"] = 99
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="unsupported checkpoint format 99"):
            read_manifest(str(tmp_path))

    def test_corrupt_record_detected(self, retail, tmp_path):
        retail.checkpoint(str(tmp_path))
        pack = os.path.join(str(tmp_path), "nodes-000001.pack")
        with open(pack, "r+b") as fh:
            fh.seek(25)
            byte = fh.read(1)
            fh.seek(25)
            fh.write(bytes((byte[0] ^ 0xFF,)))
        with pytest.raises(ValueError, match="digest mismatch"):
            Workspace.open(str(tmp_path))

    def test_checkpoint_without_violation_views_opens(self, tmp_path):
        """A checkpoint written before constraints were views stores no
        ``$`` relations; opening derives them, and the meta-state comes
        from the blocks, so data and program edits are both checked."""
        ws = Workspace()
        ws.addblock("n(v) -> int(v). n(v) -> v >= 0. d(v) <- n(v).", name="b")
        ws.load("n", [(1,), (2,)])
        ws.checkpoint(str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for state in manifest["states"].values():
            for key in ("relations", "pred_states"):
                state[key] = {p: v for p, v in state[key].items() if p[0] != "$"}
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        reopened = Workspace.open(str(tmp_path))
        [constraint] = reopened.state.artifacts.constraints
        assert reopened.rows(constraint.fail_pred) == []
        with pytest.raises(ConstraintViolation):
            reopened.addblock("n(0 - 1).", name="f")
        with pytest.raises(ConstraintViolation):
            reopened.load("n", [(-1,)])
        reopened.load("n", [(3,)])
        assert reopened.rows("d") == [(1,), (2,), (3,)]

    def test_checkpoint_with_unchecked_constraint_opens(self, tmp_path, monkeypatch):
        """A constraint that can never be checked, saved by a version
        that accepted it: the workspace opens with it set aside, and its
        block can be removed."""
        ws = Workspace()
        ws.addblock("p(x) -> int(x). q(x) -> int(x).", name="decl")
        with monkeypatch.context() as patched:
            patched.setattr("repro.runtime.workspace.refuse_unchecked", lambda _: None)
            ws.addblock("p(x), x > y -> q(x).", name="bad")
        ws.load("p", [(1,)])
        ws.checkpoint(str(tmp_path))
        reopened = Workspace.open(str(tmp_path))
        assert reopened.rows("p") == [(1,)]
        [(constraint, _)] = reopened.state.artifacts.checker.unchecked
        assert "x > y" in constraint.text
        reopened.removeblock("bad")
        assert reopened.state.artifacts.checker.unchecked == []
        with pytest.raises(TransactionAborted, match=r"x > y"):
            reopened.addblock("p(x), x > y -> q(x).", name="bad")
        assert reopened.blocks() == ["decl"]


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _head_state(path):
    manifest = read_manifest(str(path))
    return manifest["states"][str(manifest["branches"]["main"])]


def _tree_nodes(node):
    if node is not None:
        yield node
        yield from _tree_nodes(node.left)
        yield from _tree_nodes(node.right)


class TestSensitivityPayload:
    def test_golden_root_addresses(self, tmp_path):
        """Root addresses recorded at the commit before the treap hash
        was derived from ``prio`` and the recorder payload was merged."""
        ws = Workspace()
        ws.addblock(
            "edge(x, y) -> int(x), int(y). label(x, s) -> int(x), string(s).\n"
            "tri(a,b,c) <- edge(a,b), edge(b,c), edge(a,c).\n"
            "outdeg[a] = n <- agg<<n = count(b)>> edge(a, b)."
        )
        ws.load("edge", [(i, (i * 3 + 1) % 20) for i in range(20)]
                + [(i, (i + 1) % 20) for i in range(20)]
                + [(1, 2), (2, 3), (1, 3)])
        ws.load("label", [(i, "n%d" % i) for i in range(10)])
        ws.checkpoint(str(tmp_path))
        state = _head_state(tmp_path)
        assert state["base"] == {
            "edge": [2, "158390c5015c72ef9070053ebd76df4b"],
            "label": [2, "c393b936ddeab43af0c153cca3270663"],
        }
        assert state["relations"]["outdeg"] == [2, "16684766b84a9037f522407d812e79be"]
        assert state["relations"]["tri"] == [3, "440606a3e0134795ab8e8fb55dc285a9"]
        assert state["pred_states"]["outdeg"]["groups"] == "2ebe3c7e92ea265ad24f56f8b68bb311"
        # re-recorded when support counts of one stopped being stored:
        # every triangle has one derivation, so the map is empty
        assert state["pred_states"]["tri"]["counts"] == ""

        # maintained writes, recorded before a delta's runs were written
        # into each treap in one descent: an insert into non-empty
        # relations, a delete, and a write to a relation with a promoted
        # (1, 0) index; ``both`` keeps support counts above one
        ws.addblock("both(a, b) <- edge(a, b). both(a, b) <- edge(b, a).",
                    name="both")
        golden = {
            '+edge(3, 1). +edge(7, 3). +label(12, "n12").': (
                "cdc0caf4a3c850d268b9d38eee33b759", "7601c80e9ff6fa3ebf9b1a8befe9f96f",
                "a55ff7062c732a86393dae1e9d4f6abc", "9de3e830cbf257e2608f064df3353937",
                "c256800e1193099c8d463c21b734f8ac", "573b9a44a34455cd9e27360afc43d89b",
                "e8e34a78701e05a3b80b1151374c7096"),
            '-edge(1, 3). -label(4, "n4").': (
                "d919351f10a5bea269b46a0c51bc9f73", "e2267df08c10afe61c36c50ee62677b5",
                "a55ff7062c732a86393dae1e9d4f6abc", "0de661964aa616709072f32a39ce2d9b",
                "fb035f14c8888c56f74f0d354a418212", "6342c565fee614cc3b5fea88f44e458f",
                "bb774691fbfa7216970ab1980918c8d1"),
            "+edge(9, 5). -edge(4, 5).": (
                "1f07ce8f56cbc42dee745c73277dbddc", "e2267df08c10afe61c36c50ee62677b5",
                "8add341eb2af471b761a0a1e393526a9", "0de661964aa616709072f32a39ce2d9b",
                "e64d2b735ec362443cf60ba3da6c4f12", "840d6c12a4beee409f1f78dccdc21477",
                "a1b83971b992722aa040da72007cdf50"),
        }
        for text, addresses in golden.items():
            if text.startswith("+edge(9"):
                ws.query("_(x) <- edge(x, 5).")  # builds the (1, 0) index
            with stats_scope() as counted:
                ws.exec(text)
            if text.startswith("+edge(9"):
                assert counted.get("relation.index_promotions", 0) >= 1
            ws.checkpoint(str(tmp_path))
            state = _head_state(tmp_path)
            relations, pred_states = state["relations"], state["pred_states"]
            assert (state["base"]["edge"][1], state["base"]["label"][1],
                    relations["both"][1], pred_states["both"]["counts"],
                    relations["outdeg"][1], pred_states["outdeg"]["groups"],
                    relations["tri"][1]) == addresses, text

    def test_checkpoint_with_raw_intervals_still_opens(self, tmp_path):
        """``fixtures/parent_checkpoint`` was written when manifests
        listed each rule's sensitivity intervals as a ``recorders``
        blob (every raw interval, 1,784 of them), and in format 1, which
        stored every support count, ones included.  The field is
        ignored: the workspace opens with the relations and the
        per-row support a fresh load of its base rows derives, and
        maintenance carries on from them, dropping a stored one when
        its row goes."""
        path = tmp_path / "checkpoint"
        shutil.copytree(os.path.join(FIXTURES, "parent_checkpoint"), path)
        assert all(state["recorders"] for state in read_manifest(str(path))["states"].values())
        ws = Workspace.open(str(path))
        fresh = Workspace()
        fresh.addblock(_head_state(path)["blocks"]["views"], name="views")
        for pred in ("E", "F"):
            fresh.load(pred, ws.rows(pred))

        def contents(workspace):
            mat = workspace.state.materialization
            return (
                {pred: list(relation) for pred, relation in mat.relations.items()},
                {
                    pred: {row: state.counts.get(row, 1) for row in mat.relations[pred]}
                    for pred, state in mat.states.items() if state.kind == "count"
                },
            )

        assert read_manifest(str(path))["format"] == 1
        from3 = ws.state.materialization.states["from3"]
        assert dict(from3.counts.items()) == {(4,): 1}
        assert contents(ws) == contents(fresh)
        for workspace in (ws, fresh):
            workspace.exec("+E(3, 11).")
        assert (11,) in ws.relation("from3")
        assert contents(ws) == contents(fresh)
        # E(3, 4) is from3(4)'s one derivation, stored as an explicit 1
        for workspace in (ws, fresh):
            workspace.exec("-E(3, 4).")
        assert (4,) not in ws.relation("from3")
        assert dict(ws.state.materialization.states["from3"].counts.items()) == {}
        assert contents(ws) == contents(fresh)

    def test_older_checkpoint_relations_equal_fresh_loads(self, tmp_path):
        """Restored nodes hash lazily with the formula fresh nodes use:
        every relation of ``fixtures/parent_checkpoint`` equals the same
        rows bulk-loaded now, and diffs against them to nothing."""
        path = tmp_path / "checkpoint"
        shutil.copytree(os.path.join(FIXTURES, "parent_checkpoint"), path)
        ws = Workspace.open(str(path))
        relations = ws.state.materialization.relations
        assert {"E", "F", "tri", "outdeg"} <= set(relations)
        for pred, relation in relations.items():
            fresh = Relation.from_iter(relation.arity, list(relation))
            assert relation == fresh, pred
            assert relation.structural_hash() == fresh.structural_hash(), pred
            assert not relation.diff(fresh), pred

    def test_manifest_references_no_blob_records(self, retail, tmp_path):
        """Every record a manifest names is a treap root, and a state
        record carries no ``recorders`` field."""
        retail.exec('^Stock["c"] = 5.0 <- .')
        retail.checkpoint(str(tmp_path))
        manifest = read_manifest(str(tmp_path))
        store = CheckpointStore(str(tmp_path)).store
        assert not any("recorders" in state for state in manifest["states"].values())
        roots = manifest_addresses(manifest)
        assert roots and all(addr in store for addr in roots)
        reachable = set()
        frontier = list(roots)
        while frontier:
            addr = frontier.pop()
            if addr and addr not in reachable:
                reachable.add(addr)
                frontier.extend(node_children(store.get(addr)))
        assert reachable == set(store.addresses())

    def test_restored_nodes_carry_their_key_hash_as_priority(self, retail, tmp_path):
        from repro.ds.hashing import stable_hash

        ws = reopened(retail, tmp_path)
        for relation in ws.state.materialization.relations.values():
            nodes = list(_tree_nodes(relation.tuples()._root))
            assert all(node.prio == stable_hash(node.key) for node in nodes)


class TestCrossProcess:
    def test_restore_in_fresh_interpreter(self, retail, tmp_path):
        """The real durability claim: a different process (different
        PYTHONHASHSEED) restores identical contents and structure."""
        retail.checkpoint(str(tmp_path))
        script = textwrap.dedent("""
            import sys
            from repro.runtime.workspace import Workspace
            ws = Workspace.open(sys.argv[1])
            print(ws.rows("inStock"))
            print(ws.rows("totalShelf"))
            print(ws.relation("Product").structural_hash())
            ws.exec('+Product("zz").')
            print(ws.checkpoint(sys.argv[1])["nodes_written"])
        """)
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED="12345"),
        ).stdout.splitlines()
        assert out[0] == repr(retail.rows("inStock"))
        assert out[1] == repr(retail.rows("totalShelf"))
        assert out[2] == repr(retail.relation("Product").structural_hash())
        # the child's post-delta checkpoint was incremental, and this
        # process can restore what the child wrote
        assert 0 < int(out[3]) < 20
        ws3 = Workspace.open(str(tmp_path))
        assert ("zz",) in ws3.relation("Product")

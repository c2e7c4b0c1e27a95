"""Durable workspace checkpoints with structural sharing (paper §3).

The paper's purely functional storage makes durability almost free of
machinery: because treap nodes are immutable and uniquely represented,
persisting a workspace is writing the nodes that are not yet on disk
and atomically swapping a root pointer — no write-ahead log, no redo
recovery.  This module is that subsystem:

* **Content-addressed node store** — every treap node is encoded with a
  deterministic binary codec and stored under the blake2b-128 digest of
  its encoding (a Merkle address: the encoding embeds the children's
  addresses).  Structurally shared subtrees therefore serialize to the
  *same* record and are written exactly once, no matter how many
  relations, branches, or historical versions reference them.  Records
  live in append-only ``nodes-NNNNNN.pack`` files.

* **Incremental checkpoints** — a checkpoint walks each root and prunes
  the walk at every node whose address (``Node.addr``, set when a node
  is first encoded or restored) is already in the store's committed
  index.  Every node that survived from the previous checkpoint or was
  restored from this one carries such an address, so work is
  proportional to the diff since the last checkpoint, mirroring the
  version-DAG diffing of §3.

* **Atomic manifest** — after the new pack is fsynced, a manifest
  naming the branch heads and, per distinct head, the root address of
  every predicate (plus support counts above one, aggregation state
  and block sources) is written to a temp file, fsynced, and
  atomically renamed over ``MANIFEST.json``.  It holds nothing restore does not read, so
  its size follows the heads, not the history behind them.  A crash at
  *any* point leaves the previous manifest — and therefore the
  previous checkpoint — intact; an orphaned partial pack is simply
  never referenced.

Restore (``Workspace.open``) decodes the node records back into treap
nodes — priorities and memoized hashes are recomputed and must agree
with the stored addresses, which both verifies integrity and depends on
:func:`repro.ds.hashing.stable_hash` being process-independent — and
rebuilds relations, support counts and aggregation groups directly.  No
stored derived predicate is re-derived from base data (only views the
checkpoint predates, such as constraint violation views, are); the
program artifacts (compiled blocks) and the program-sized
meta-materialization are rebuilt, deterministically, from block
sources.  Each head restores as a version without parents (a version
records its parents by id and holds none of them, so there is no
in-memory history to rebuild).
"""

import io
import json
import os
import struct
from hashlib import blake2b

from repro import obs as _obs
from repro import stats as _stats
from repro.ds import treap
from repro.ds.hashing import stable_hash
from repro.ds.pmap import PMap
from repro.ds.pset import PSet
from repro.storage.datum import BOTTOM, TOP

MANIFEST_NAME = "MANIFEST.json"
# format 2: a state record's ``counts`` holds only support counts above
# one.  A format-1 record's full counts still read right (its explicit
# ones are stored counts, dropped as those tuples change).
FORMAT_VERSION = 2
READABLE_FORMATS = (1, 2)

_ADDR_BYTES = 16

# -- deterministic value codec ----------------------------------------------
#
# Tag-prefixed binary encoding of the value universe that appears inside
# persistent structures: datum values (None/bool/int/float/str/bytes and
# tuples thereof), support counts (int), aggregation states, and the
# sensitivity sentinels BOTTOM/TOP.  Encoding is canonical (one byte
# string per value), which is what makes content addresses stable.

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_BOTTOM = 0x0A
_T_TOP = 0x0B
_T_SUM_STATE = 0x0C
_T_MULTISET_STATE = 0x0D


def _write_varint(out, value):
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(buf):
    result = 0
    shift = 0
    while True:
        byte = buf.read(1)[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7


def _encode_into(out, value):
    if value is None:
        out.write(bytes((_T_NONE,)))
    elif value is True:
        out.write(bytes((_T_TRUE,)))
    elif value is False:
        out.write(bytes((_T_FALSE,)))
    elif isinstance(value, int):
        out.write(bytes((_T_INT,)))
        # zigzag maps ..., -2, -1, 0, 1, ... to 3, 1, 0, 2, ... so the
        # varint stays short for small magnitudes of either sign
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        _write_varint(out, zigzag)
    elif isinstance(value, float):
        out.write(bytes((_T_FLOAT,)))
        out.write(struct.pack("<d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.write(bytes((_T_STR,)))
        _write_varint(out, len(data))
        out.write(data)
    elif isinstance(value, bytes):
        out.write(bytes((_T_BYTES,)))
        _write_varint(out, len(value))
        out.write(value)
    elif isinstance(value, tuple):
        out.write(bytes((_T_TUPLE,)))
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, list):
        out.write(bytes((_T_LIST,)))
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        # sorted by encoded key so dict encodings are canonical even for
        # keys that are not mutually orderable
        items = sorted(
            ((encode_value(k), v) for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        out.write(bytes((_T_DICT,)))
        _write_varint(out, len(items))
        for key_bytes, item in items:
            out.write(key_bytes)
            _encode_into(out, item)
    elif value is BOTTOM:
        out.write(bytes((_T_BOTTOM,)))
    elif value is TOP:
        out.write(bytes((_T_TOP,)))
    else:
        from repro.engine.aggregates import MultisetState, SumState

        if isinstance(value, SumState):
            out.write(bytes((_T_SUM_STATE,)))
            _encode_into(out, value.total)
            _write_varint(out, value.count)
        elif isinstance(value, MultisetState):
            out.write(bytes((_T_MULTISET_STATE,)))
            _write_varint(out, value.count)
            items = list(value.values.items())  # ascending, deterministic
            _write_varint(out, len(items))
            for item, multiplicity in items:
                _encode_into(out, item)
                _write_varint(out, multiplicity)
        else:
            raise TypeError(
                "cannot durably encode {!r} (type {})".format(
                    value, type(value).__name__
                )
            )


def encode_value(value):
    """Canonical byte encoding of one value."""
    out = io.BytesIO()
    _encode_into(out, value)
    return out.getvalue()


def _decode_from(buf):
    tag = buf.read(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        zigzag = _read_varint(buf)
        return (zigzag >> 1) ^ -(zigzag & 1)
    if tag == _T_FLOAT:
        return struct.unpack("<d", buf.read(8))[0]
    if tag == _T_STR:
        length = _read_varint(buf)
        return buf.read(length).decode("utf-8")
    if tag == _T_BYTES:
        length = _read_varint(buf)
        return buf.read(length)
    if tag == _T_TUPLE:
        length = _read_varint(buf)
        return tuple(_decode_from(buf) for _ in range(length))
    if tag == _T_LIST:
        length = _read_varint(buf)
        return [_decode_from(buf) for _ in range(length)]
    if tag == _T_DICT:
        length = _read_varint(buf)
        result = {}
        for _ in range(length):
            key = _decode_from(buf)
            result[key] = _decode_from(buf)
        return result
    if tag == _T_BOTTOM:
        return BOTTOM
    if tag == _T_TOP:
        return TOP
    if tag == _T_SUM_STATE:
        from repro.engine.aggregates import SumState

        total = _decode_from(buf)
        count = _read_varint(buf)
        return SumState(total, count)
    if tag == _T_MULTISET_STATE:
        from repro.engine.aggregates import MultisetState

        count = _read_varint(buf)
        length = _read_varint(buf)
        values = PMap.from_sorted_items(
            (_decode_from(buf), _read_varint(buf)) for _ in range(length)
        )
        return MultisetState(values, count)
    raise ValueError("corrupt record: unknown tag 0x{:02x}".format(tag))


def decode_value(data):
    """Decode one value from its canonical encoding."""
    return _decode_from(io.BytesIO(data))


def _addr_of(payload):
    return blake2b(payload, digest_size=_ADDR_BYTES).digest()


def _encode_node(key, value, left_addr, right_addr):
    """One treap node record: child addresses (Merkle) + key + value."""
    out = io.BytesIO()
    flags = (1 if left_addr else 0) | (2 if right_addr else 0)
    out.write(bytes((flags,)))
    if left_addr:
        out.write(left_addr)
    if right_addr:
        out.write(right_addr)
    _encode_into(out, key)
    _encode_into(out, value)
    return out.getvalue()


# -- the on-disk node store --------------------------------------------------


class _PackWriter:
    """Accumulates one checkpoint attempt's new records.  Everything
    here is staged: nothing becomes visible to later checkpoints until
    the manifest swap commits the attempt."""

    __slots__ = ("pending", "bytes_written")

    def __init__(self):
        self.pending = {}  # addr -> payload, insertion (= post) order
        self.bytes_written = 0

    def add(self, addr, payload):
        self.pending[addr] = payload
        self.bytes_written += len(payload) + _ADDR_BYTES + 4


def _verified(addr, payload, pack_name, offset):
    """``payload``, unless it does not hash to ``addr``."""
    if _addr_of(payload) != addr:
        raise ValueError(
            "corrupt record in {} at offset {}: digest mismatch".format(
                pack_name, offset
            )
        )
    return payload


class NodeStore:
    """Content-addressed records across the checkpoint's pack files.

    The index maps an address to ``(pack_name, offset, length)``; pack
    payloads are read lazily and cached per pack.  Only packs named in
    the committed manifest are trusted — a partial pack left by a crash
    is invisible (and its name is reused by the next checkpoint).
    """

    def __init__(self, directory):
        self.directory = directory
        self._index = {}
        self._pack_bytes = {}
        self._loaded_packs = set()

    def load_packs(self, pack_names):
        """Index the records of the manifest's committed packs."""
        for name in pack_names:
            if name in self._loaded_packs:
                continue
            path = os.path.join(self.directory, name)
            with open(path, "rb") as fh:
                offset = 0
                while True:
                    header = fh.read(_ADDR_BYTES + 4)
                    if not header:
                        break
                    if len(header) < _ADDR_BYTES + 4:
                        raise ValueError(
                            "corrupt pack {}: truncated header".format(name)
                        )
                    addr = header[:_ADDR_BYTES]
                    (length,) = struct.unpack(
                        "<I", header[_ADDR_BYTES:_ADDR_BYTES + 4]
                    )
                    payload_offset = offset + _ADDR_BYTES + 4
                    fh.seek(length, os.SEEK_CUR)
                    self._index[addr] = (name, payload_offset, length)
                    offset = payload_offset + length
            self._loaded_packs.add(name)

    def __contains__(self, addr):
        return addr in self._index

    def __len__(self):
        return len(self._index)

    def addresses(self):
        """The set of record addresses this store holds (for replica
        delta-sync: a follower fetches only addresses it lacks)."""
        return frozenset(self._index)

    def get(self, addr):
        """The payload stored at ``addr`` (digest-verified)."""
        name, offset, length = self._index[addr]
        blob = self._pack_bytes.get(name)
        if blob is None:
            with open(os.path.join(self.directory, name), "rb") as fh:
                blob = fh.read()
            self._pack_bytes[name] = blob
        return _verified(addr, blob[offset:offset + length], name, offset)

    def read_records(self, addrs):
        """``[(addr, payload)]`` for the ``addrs`` this store holds, in
        request order and digest-verified.  Each payload is read at its
        offset, with one ``open`` per pack, and no pack bytes are kept
        (the replica feed; restore's whole-pack :meth:`get` caches)."""
        by_pack = {}
        for addr in addrs:
            location = self._index.get(addr)
            if location is not None:
                by_pack.setdefault(location[0], []).append((location[1], location[2], addr))
        payloads = {}
        for name, records in by_pack.items():
            with open(os.path.join(self.directory, name), "rb", buffering=0) as fh:
                for offset, length, addr in sorted(records):
                    fh.seek(offset)
                    payloads[addr] = _verified(addr, fh.read(length), name, offset)
        return [(addr, payloads[addr]) for addr in addrs if addr in payloads]

    def drop_payload_cache(self):
        """Release cached pack bytes (kept only for restore speed)."""
        self._pack_bytes.clear()

    def write_pack(self, name, writer):
        """Write and fsync one pack; returns the record locations.

        Deliberately does NOT index the records yet: until the manifest
        referencing this pack is atomically committed, these records
        must stay invisible — a crashed checkpoint followed by a retry
        would otherwise prune its walk against nodes that only live in
        an unreferenced orphan pack.  Call :meth:`commit_pack` after
        the manifest swap.
        """
        path = os.path.join(self.directory, name)
        offset = 0
        locations = {}
        with open(path, "wb") as fh:
            for addr, payload in writer.pending.items():
                fh.write(addr)
                fh.write(struct.pack("<I", len(payload)))
                locations[addr] = (name, offset + _ADDR_BYTES + 4, len(payload))
                fh.write(payload)
                offset += _ADDR_BYTES + 4 + len(payload)
            fh.flush()
            os.fsync(fh.fileno())
        return locations

    def commit_pack(self, name, locations):
        """Make a written pack's records visible (manifest committed)."""
        self._index.update(locations)
        self._loaded_packs.add(name)


def _fsync_dir(path):
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- checkpoint / restore ----------------------------------------------------


class CheckpointStore:
    """One durable checkpoint directory: node packs + atomic manifest.

    Repeated checkpoints of the same workspace are incremental because
    each node carries its own content address (``Node.addr``): any node
    that survived from the previous checkpoint — which, by structural
    sharing, is almost all of them — has an address already in the
    store's index and prunes its whole subtree from the walk.  Restored
    nodes get their address too, so the first checkpoint after a
    restart is just as incremental.  The address lives and dies with
    the node; the store holds no reference to any node.
    """

    def __init__(self, path):
        self.path = path
        self.store = NodeStore(path)
        self._manifest = None
        os.makedirs(path, exist_ok=True)
        manifest = read_manifest(path)
        if manifest is not None:
            self.store.load_packs(manifest["packs"])
            self._manifest = manifest

    # -- write side ----------------------------------------------------------

    def _write_tree(self, node, writer):
        """Post-order walk writing unseen nodes; returns the root address.

        Prunes at a node whose address is committed in this store or
        staged by this attempt; an address set by a crashed attempt or
        by another store is neither, so its subtree is walked again.
        """
        if node is None:
            return b""
        addr = node.addr
        if addr is not None and (addr in self.store or addr in writer.pending):
            _stats.bump("pager.nodes_pruned")
            return addr
        left = self._write_tree(node.left, writer)
        right = self._write_tree(node.right, writer)
        payload = _encode_node(node.key, node.value, left, right)
        addr = _addr_of(payload)
        if addr in self.store or addr in writer.pending:
            _stats.bump("pager.nodes_skipped")
        else:
            writer.add(addr, payload)
            _stats.bump("pager.nodes_written")
        node.addr = addr
        return addr

    def _relation_ref(self, relation, writer):
        return [relation.arity, self._write_tree(relation.tuples()._root, writer).hex()]

    def _state_record(self, state, writer):
        """Serialize one :class:`WorkspaceState` into a manifest record."""
        record = {}
        record["blocks"] = {}
        for name, block in state.artifacts.blocks.items():
            if block.source is None:
                raise ValueError(
                    "block {!r} was compiled from an AST, not source text; "
                    "only source-installed blocks are checkpointable".format(name)
                )
            record["blocks"][name] = block.source
        record["base"] = {
            pred: self._relation_ref(rel, writer)
            for pred, rel in state.base_relations.items()
        }
        mat = state.materialization
        record["relations"] = {
            pred: self._relation_ref(rel, writer)
            for pred, rel in sorted(mat.relations.items())
        }
        record["pred_states"] = {
            pred: {
                "kind": pstate.kind,
                "agg_fn": pstate.agg_fn,
                "counts": self._write_tree(pstate.counts._root, writer).hex(),
                "groups": self._write_tree(pstate.groups._root, writer).hex(),
            }
            for pred, pstate in sorted(mat.states.items())
        }
        return record

    def checkpoint(self, workspace, *, fault_fire=None, watermark=None):
        """Write one durable checkpoint of ``workspace``.

        ``watermark`` — the commit watermark (highest committed
        transaction sequence number) the checkpointed state reflects;
        recorded in the manifest so replicas serving this checkpoint
        can stamp responses with it and a restarted service resumes
        its sequence from it.

        Returns the counter dict (nodes written/skipped/pruned, bytes,
        manifest sequence number).  Crash-safe: the previous manifest
        stays valid until the new one is atomically renamed in.
        """
        with _obs.span("checkpoint", path=self.path) as span_:
            result = self._checkpoint_locked(workspace, fault_fire, watermark)
            if span_ is not None:
                span_.attrs.update(result)
        return result

    def _checkpoint_locked(self, workspace, fault_fire, watermark=None):
        previous = self._manifest
        seq = (previous["seq"] + 1) if previous else 1
        packs = list(previous["packs"]) if previous else []
        pack_name = "nodes-{:06d}.pack".format(seq)

        writer = _PackWriter()
        graph = workspace._graph
        heads = graph.heads()
        head_states = {version.id: version.state for version in heads.values()}
        states = {
            str(vid): self._state_record(state, writer)
            for vid, state in sorted(head_states.items())
        }

        locations = None
        if writer.pending:
            locations = self.store.write_pack(pack_name, writer)
            _fsync_dir(self.path)
            packs.append(pack_name)
        _stats.bump("pager.bytes_written", writer.bytes_written)

        if fault_fire is not None:
            # the crash-safety window: pack durable, manifest not yet
            # swapped — a crash here must leave the previous checkpoint
            # fully intact (and the in-memory index unstained, so a
            # retry re-walks and re-writes the orphaned records)
            fault_fire("checkpoint")

        manifest = {
            "format": FORMAT_VERSION,
            "seq": seq,
            "watermark": int(watermark) if watermark is not None else (
                previous.get("watermark", 0) if previous else 0),
            "packs": packs,
            "root_name": graph.root_name,
            "current_branch": workspace.branch,
            "branches": {name: version.id for name, version in heads.items()},
            "states": states,
        }
        self._commit_manifest(manifest, pack_name, locations)
        _stats.bump("pager.checkpoints")
        return {
            "seq": seq,
            "nodes_written": len(writer.pending),
            "bytes_written": writer.bytes_written,
            "store_nodes": len(self.store),
        }

    def _commit_manifest(self, manifest, pack_name, locations):
        """Atomically swap in ``manifest`` (its pack already durable):
        fsync a temp file, rename it over the manifest, fsync the
        directory, and only then index the new pack's records."""
        tmp_path = os.path.join(self.path, MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, os.path.join(self.path, MANIFEST_NAME))
        _fsync_dir(self.path)
        if locations is not None:
            self.store.commit_pack(pack_name, locations)
        self._manifest = manifest

    # -- replica ingest ------------------------------------------------------

    @property
    def manifest(self):
        """The committed manifest dict, or ``None`` before the first
        checkpoint/ingest."""
        return self._manifest

    @property
    def seq(self):
        """Sequence number of the committed checkpoint (``None`` when
        the directory holds no checkpoint yet)."""
        return self._manifest["seq"] if self._manifest else None

    @property
    def watermark(self):
        """Commit watermark recorded in the committed checkpoint —
        the highest transaction sequence number the checkpointed state
        reflects (0 for pre-watermark checkpoints, ``None`` when the
        directory holds no checkpoint yet)."""
        if self._manifest is None:
            return None
        return self._manifest.get("watermark", 0)

    def known(self, addr):
        """True when ``addr`` is already resident in the local store."""
        return addr in self.store

    def ingest(self, manifest, records):
        """Adopt a leader's checkpoint: write the fetched ``records``
        (``{addr: payload}`` — only the addresses this store lacked)
        into a local pack, then commit a local manifest.

        The manifest is the leader's except for ``packs``, which must
        name *local* pack files; everything else (states, branches,
        seq) transfers verbatim because records are content
        addressed — the same addresses resolve on either side.  The
        staged commit is :meth:`checkpoint`'s: pack fsync → dir fsync →
        :meth:`_commit_manifest`, so a replica crash mid-sync leaves its
        previous checkpoint intact.
        """
        for addr, payload in records.items():
            if _addr_of(payload) != addr:
                raise ValueError(
                    "sync record digest mismatch for {}".format(addr.hex()))
        previous = self._manifest
        packs = list(previous["packs"]) if previous else []
        pack_name = "sync-{:06d}.pack".format(manifest["seq"])
        locations = None
        if records:
            writer = _PackWriter()
            for addr, payload in records.items():
                writer.add(addr, payload)
            locations = self.store.write_pack(pack_name, writer)
            _fsync_dir(self.path)
            packs.append(pack_name)
            _stats.bump("pager.sync.records_ingested", len(records))
            _stats.bump("pager.sync.bytes_ingested", writer.bytes_written)
        local_manifest = dict(manifest, packs=packs)
        self._commit_manifest(local_manifest, pack_name, locations)
        _stats.bump("pager.sync.ingests")
        return {
            "seq": local_manifest["seq"],
            "records_ingested": len(records),
            "packs": len(packs),
        }

    # -- read side -----------------------------------------------------------

    def _load_tree(self, addr_hex, node_cache):
        if not addr_hex:
            return None
        addr = bytes.fromhex(addr_hex) if isinstance(addr_hex, str) else addr_hex
        cached = node_cache.get(addr)
        if cached is not None:
            return cached
        payload = self.store.get(addr)
        buf = io.BytesIO(payload)
        flags = buf.read(1)[0]
        left_addr = buf.read(_ADDR_BYTES) if flags & 1 else b""
        right_addr = buf.read(_ADDR_BYTES) if flags & 2 else b""
        key = _decode_from(buf)
        value = _decode_from(buf)
        left = self._load_tree(left_addr, node_cache)
        right = self._load_tree(right_addr, node_cache)
        node = treap.Node(key, value, stable_hash(key), left, right)
        node.addr = addr
        node_cache[addr] = node
        _stats.bump("pager.nodes_read")
        return node

    def _restore_state(self, record, caches):
        from repro.engine.evaluator import PredicateState
        from repro.engine.ivm import Materialization
        from repro.logiql.compiler import compile_program
        from repro.meta.metaengine import MetaEngine
        from repro.runtime.state import ProgramArtifacts, WorkspaceState
        from repro.storage.relation import Relation

        node_cache, relation_cache, program_cache = caches

        blocks_key = tuple(sorted(record["blocks"].items()))
        program = program_cache.get(blocks_key)
        if program is None:
            blocks = PMap.from_dict(
                {
                    name: compile_program(source)
                    for name, source in record["blocks"].items()
                }
            )
            # the meta-state too is derived from the compiled blocks,
            # never read back: the checkpoint may predate rules the
            # compiler now emits (a constraint's violation rules), and
            # program edits are revised through their edges
            program = (ProgramArtifacts(blocks), MetaEngine().of_blocks(blocks))
            program_cache[blocks_key] = program
        artifacts, meta_state = program

        def load_relation(ref):
            arity, addr_hex = ref
            key = (arity, addr_hex)
            relation = relation_cache.get(key)
            if relation is None:
                root = self._load_tree(addr_hex, node_cache)
                relation = Relation(arity, PSet(root))
                relation_cache[key] = relation
            return relation

        base_relations = PMap.from_dict(
            {pred: load_relation(ref) for pred, ref in record["base"].items()}
        )
        relations = {
            pred: load_relation(ref)
            for pred, ref in record["relations"].items()
        }
        states = {}
        for pred, entry in record["pred_states"].items():
            states[pred] = PredicateState(
                entry["kind"],
                counts=PMap(self._load_tree(entry["counts"], node_cache)),
                groups=PMap(self._load_tree(entry["groups"], node_cache)),
                agg_fn=entry["agg_fn"],
            )
        # an older checkpoint's ``recorders`` (sensitivity blobs) are ignored
        materialization = Materialization(relations, states)
        if not artifacts.ruleset.derived <= states.keys():
            # written before some hidden view existed (a constraint's
            # violation view): derive just the missing ones
            materialization = artifacts.engine.initialize(
                relations, reuse=(relations, states))
        return WorkspaceState(artifacts, base_relations, materialization, meta_state)

    def restore_into(self, workspace):
        """Point ``workspace`` at this store's committed checkpoint."""
        from repro.ds.versions import Version, VersionGraph, ensure_version_counter

        manifest = self._manifest
        if manifest is None:
            raise FileNotFoundError(
                "no checkpoint manifest in {}".format(self.path)
            )
        with _obs.span("restore", path=self.path):
            caches = ({}, {}, {})
            # one version per distinct head; an older manifest's list of
            # every ancestor is ignored (no ancestor id exceeds its head's)
            versions = {
                int(vid): Version.restore(
                    int(vid), self._restore_state(record, caches))
                for vid, record in manifest["states"].items()
            }
            ensure_version_counter(max(versions, default=0))
            heads = {
                name: versions[vid]
                for name, vid in manifest["branches"].items()
            }
            workspace._graph = VersionGraph.restore(heads, manifest["root_name"])
            branch = manifest.get("current_branch", manifest["root_name"])
            workspace.branch = branch if branch in heads else manifest["root_name"]
            self.store.drop_payload_cache()
        _stats.bump("pager.restores")
        return workspace


# -- replica sync surface -----------------------------------------------------
#
# A read replica (repro.net.replica) ships checkpoints over the wire by
# Merkle walk: starting from the manifest's root addresses it fetches
# only records missing from its local store, discovering children from
# the fetched node payloads.  These helpers expose exactly the address
# structure that walk needs, without decoding node keys/values.


def node_children(payload):
    """``(left_addr, right_addr)`` of one encoded treap node record
    (``b""`` for an absent child).  Only the Merkle header is parsed."""
    flags = payload[0]
    offset = 1
    left = b""
    right = b""
    if flags & 1:
        left = payload[offset:offset + _ADDR_BYTES]
        offset += _ADDR_BYTES
    if flags & 2:
        right = payload[offset:offset + _ADDR_BYTES]
    return left, right


def manifest_addresses(manifest):
    """The treap root addresses (raw 16 bytes) a checkpoint manifest
    references; walk them via :func:`node_children`.  An older
    manifest's ``recorders`` blobs are not among them: nothing reads
    them."""
    tree_roots = set()

    def add_tree(addr_hex):
        if addr_hex:
            tree_roots.add(bytes.fromhex(addr_hex))

    for record in manifest.get("states", {}).values():
        for ref in record.get("base", {}).values():
            add_tree(ref[1])
        for ref in record.get("relations", {}).values():
            add_tree(ref[1])
        for entry in record.get("pred_states", {}).values():
            add_tree(entry["counts"])
            add_tree(entry["groups"])
    return tree_roots


def read_manifest(path):
    """The committed manifest of a checkpoint directory, or ``None``."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        return None
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") not in READABLE_FORMATS:
        raise ValueError(
            "unsupported checkpoint format {} in {}".format(
                manifest.get("format"), manifest_path
            )
        )
    return manifest


def has_checkpoint(path):
    """True when ``path`` holds a committed checkpoint manifest."""
    return os.path.exists(os.path.join(path, MANIFEST_NAME))

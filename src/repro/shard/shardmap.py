"""The shard map: deterministic hash placement of EDB rows.

A :class:`ShardMap` is the cluster's partitioning manifest: the shard
count, the partition spec (``{pred: key_column}``), and optionally the
shard endpoints.  Placement is ``stable_hash(row[key_column]) % n`` —
:func:`repro.ds.hashing.stable_hash` is type-tagged and process-
independent (strings hash through blake2b), so every coordinator,
shard, and restarted process agrees on row ownership regardless of
``PYTHONHASHSEED``.  Re-fragmenting the same rows to the same N is a
bit-identical no-op, which is what makes shard-local results safe to
recombine against a single-process oracle.
"""

from repro.ds.hashing import stable_hash

MANIFEST_VERSION = 1


class ShardMap:
    """Placement manifest for one sharded workspace.

    ``partition`` maps each partitioned base predicate to the column
    its rows are hashed on; predicates absent from the spec are
    *replicated* (present in full on every shard).
    """

    __slots__ = ("n_shards", "partition", "endpoints")

    def __init__(self, n_shards, partition=None, endpoints=None):
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got {}".format(n_shards))
        self.n_shards = n_shards
        self.partition = {}
        for pred, col in (partition or {}).items():
            col = int(col)
            if col < 0:
                raise ValueError(
                    "partition column for {} must be >= 0, got {}".format(
                        pred, col))
            self.partition[pred] = col
        self.endpoints = list(endpoints) if endpoints else []
        if self.endpoints and len(self.endpoints) != self.n_shards:
            raise ValueError(
                "{} endpoints for {} shards".format(
                    len(self.endpoints), self.n_shards))

    # -- placement -------------------------------------------------------------

    def is_partitioned(self, pred):
        return pred in self.partition

    def key_col(self, pred):
        """The hashed column of a partitioned predicate (or ``None``)."""
        return self.partition.get(pred)

    def shard_of_key(self, key):
        """The shard owning a partition-key value."""
        return stable_hash(key) % self.n_shards

    def shard_of(self, pred, row):
        """The shard owning ``row`` of ``pred`` (``None`` if replicated)."""
        col = self.partition.get(pred)
        if col is None:
            return None
        return self._owner(pred, col, row)

    def _owner(self, pred, col, row):
        # every placement goes through here: a row narrower than its
        # partition column is refused, never indexed past its end
        if col >= len(row):
            raise ValueError(
                "row {!r} of {} is narrower than partition column {}".format(
                    row, pred, col))
        return stable_hash(row[col]) % self.n_shards

    def fragment(self, pred, rows):
        """Split ``rows`` of a partitioned predicate into per-shard
        fragments; returns a list of ``n_shards`` row lists, each in the
        input's order (fragmenting is order- and content-deterministic,
        so re-sharding the same rows is a no-op)."""
        col = self.partition.get(pred)
        if col is None:
            raise ValueError("{} is not partitioned".format(pred))
        fragments = [[] for _ in range(self.n_shards)]
        for row in rows:
            fragments[self._owner(pred, col, row)].append(row)
        return fragments

    def split_delta(self, pred, delta):
        """Fragment one :class:`~repro.storage.relation.Delta` of a
        partitioned predicate; returns ``{shard_index: Delta}`` with
        empty shards omitted."""
        from repro.storage.relation import Delta

        added = self.fragment(pred, delta.added)
        removed = self.fragment(pred, delta.removed)
        return {
            index: Delta.from_iters(added[index], removed[index])
            for index in range(self.n_shards) if added[index] or removed[index]
        }

    # -- manifest --------------------------------------------------------------

    def manifest(self):
        """The wire/JSON form of this map (advertised over HELLO)."""
        return {
            "version": MANIFEST_VERSION,
            "n_shards": self.n_shards,
            "partition": dict(self.partition),
            "endpoints": list(self.endpoints),
        }

    @classmethod
    def from_manifest(cls, record):
        if record.get("version") != MANIFEST_VERSION:
            raise ValueError(
                "unsupported shard manifest version {!r}".format(
                    record.get("version")))
        return cls(
            record["n_shards"],
            partition=record.get("partition"),
            endpoints=record.get("endpoints"),
        )

    def __eq__(self, other):
        return (
            isinstance(other, ShardMap)
            and self.n_shards == other.n_shards
            and self.partition == other.partition
            and self.endpoints == other.endpoints
        )

    def __repr__(self):
        return "ShardMap(n={}, partition={})".format(
            self.n_shards, self.partition)

"""Horizontally sharded workspaces with distributed LFTJ.

EDB relations are hash-partitioned by a deterministic key column
(:func:`repro.ds.hashing.stable_hash`, so placement is identical across
processes and ``PYTHONHASHSEED`` values) across N ``repro.net`` shard
servers.  A :class:`ShardedWorkspace` coordinator fragments loads,
pushes co-partitioned programs shard-local, recombines scatter results
(dedup/merge for rows, aggregate group-state folding for aggregates),
and drives cross-shard commits through the transaction-repair circuit
(each shard prepares a branch diff; the coordinator composes
corrections and commits — no classic two-phase commit).

Entry points::

    import repro

    ws = repro.connect("shards://h1:7411,h2:7412,h3:7413",
                       partition={"ballot": 0})

or, in-process (tests, oracles)::

    from repro.shard import ShardedWorkspace

    ws = ShardedWorkspace.local(3, partition={"ballot": 0})
"""

from repro.shard.shardmap import ShardMap

__all__ = [
    "ShardedWorkspace",
    "ShardError",
    "ShardCommitError",
    "ShardExecutorPool",
    "ShardMap",
]


def __getattr__(name):
    # a shard server's service needs only the placement map; the
    # coordinator and its executor pool load on first use
    if name in __all__:
        from repro.shard import coordinator

        return getattr(coordinator, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name))

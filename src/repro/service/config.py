"""Service tuning knobs (all keyword-only, all defaulted)."""

from dataclasses import dataclass

#: Retry backoff of the service, also advertised to clients in HELLO's
#: ``policy``: truncated exponential from the base, capped at the cap.
BACKOFF_BASE_S = 0.001
BACKOFF_CAP_S = 0.05


@dataclass(kw_only=True)
class ServiceConfig:
    """Configuration of a :class:`~repro.service.TransactionService`.

    Admission control:

    * ``max_pending`` — hard cap on in-flight write transactions
      (executing or queued for commit).  The service sheds load past it
      by raising :class:`~repro.runtime.errors.Overloaded` instead of
      queuing unboundedly.
    * ``default_timeout_s`` — per-transaction deadline when the caller
      does not pass one; ``None`` disables deadlines.

    Conflict handling: every commit-time conflict is repaired against
    the moved head (transaction repair, paper §3.4).  A transaction
    whose repair fails, a conflict injected by a fault, and a conflict
    under a cross-shard commit (whose deltas are coordinator-final)
    raise :class:`ConflictError` and are retried from a fresh snapshot.

    * ``max_retries`` — bounded retry budget after retryable conflicts.
      Retries back off exponentially from :data:`BACKOFF_BASE_S`,
      capped at :data:`BACKOFF_CAP_S`, with jitter from a service-owned
      PRNG of fixed seed.

    Durability (:mod:`repro.storage.pager`):

    * ``checkpoint_path`` — directory for durable checkpoints.  When
      set, a service built without an explicit workspace *recovers* the
      checkpointed state on startup, and the shutdown/auto-checkpoint
      knobs below become active.
    * ``checkpoint_every_n_commits`` — the committer writes a
      checkpoint after every N committed transactions (0 disables
      auto-checkpointing).  Checkpoints run on the committer thread,
      serialized with the write stream, and are incremental: cost
      tracks the delta since the previous one.
    * ``checkpoint_on_shutdown`` — write a final checkpoint in
      :meth:`~repro.service.TransactionService.close` (after the
      committer drains) so a clean restart loses nothing.

    Network serving (:mod:`repro.net`, read by the TCP server fronting
    this service):

    * ``net_chunk_rows`` — streamed query results are split into CHUNK
      frames of at most this many rows (bounds per-frame memory on
      both sides).
    * ``net_max_connections`` — accepted-connection cap; excess
      connections are refused with a typed ``Overloaded`` frame.

    Observability (:mod:`repro.obs`):

    * ``telemetry_interval_s`` — when > 0, the TCP server starts the
      background telemetry sampler at this period, filling the bounded
      snapshot ring the ``telemetry`` wire verb (and ``obs top``)
      serves; 0 disables the sampler (the verb still returns a live
      snapshot).
    * ``telemetry_ring`` — snapshot-ring capacity (entries retained).
    * ``slow_txn_s`` — transactions slower than this many seconds are
      recorded into the slow-transaction log with their counter deltas
      and trace coordinates; ``None`` defers to the
      ``REPRO_SLOW_TXN_S`` environment override (default: disabled,
      one flag test per transaction).

    Sharding (:mod:`repro.shard`):

    * ``shard_index`` / ``shard_count`` — this service's identity in a
      hash-partitioned fleet (``0 <= index < count``).  A configured
      shard identity is advertised in the HELLO handshake and in
      ``status()``, and the shard verbs cross-check it against the
      coordinator's shard map.  Both must be set together; both
      ``None`` (default) means the service is unsharded.

    Join executors are not configured here: each join picks its own
    (:func:`repro.engine.columnar.choose_backend`).
    """

    max_pending: int = 64
    default_timeout_s: float = 30.0
    max_retries: int = 5
    checkpoint_path: str = None
    checkpoint_every_n_commits: int = 0
    checkpoint_on_shutdown: bool = True
    net_chunk_rows: int = 512
    net_max_connections: int = 64
    telemetry_interval_s: float = 0.0
    telemetry_ring: int = 128
    slow_txn_s: float = None
    shard_index: int = None
    shard_count: int = None

    def __post_init__(self):
        if (self.shard_index is None) != (self.shard_count is None):
            raise ValueError(
                "shard_index and shard_count must be set together")
        if self.shard_count is not None:
            if self.shard_count < 1:
                raise ValueError("shard_count must be >= 1")
            if not (0 <= self.shard_index < self.shard_count):
                raise ValueError(
                    "shard_index must be in [0, {}), got {}".format(
                        self.shard_count, self.shard_index))
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.checkpoint_every_n_commits < 0:
            raise ValueError("checkpoint_every_n_commits must be >= 0")
        if self.checkpoint_every_n_commits and not self.checkpoint_path:
            raise ValueError(
                "checkpoint_every_n_commits requires checkpoint_path")
        for knob in ("net_chunk_rows", "net_max_connections",
                     "telemetry_ring"):
            if getattr(self, knob) < 1:
                raise ValueError("{} must be >= 1".format(knob))
        if self.telemetry_interval_s < 0:
            raise ValueError("telemetry_interval_s must be >= 0")
        if self.slow_txn_s is not None and self.slow_txn_s <= 0:
            raise ValueError("slow_txn_s must be positive (or None)")

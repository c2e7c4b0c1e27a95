"""Remote shard executors: the fan-out layer of :mod:`repro.shard`.

A :class:`ShardExecutorPool` fronts one verb call per shard with the
same futures discipline :class:`~repro.engine.pool.JoinWorkerPool`
uses for in-process domain shards: submit one task per shard, get the
futures back in shard order, consume results as they land.  Backends
are duck-typed — an in-process
:class:`~repro.service.TransactionService` and a
:class:`~repro.net.client.NetSession` expose the same verb surface, so
``ShardedWorkspace.local(...)`` (tests, single-machine scale-up) and
``repro.connect("shards://...")`` (separate server processes) run the
identical coordinator code path.

Per-verb concurrency is one in-flight call per shard: the coordinator
fans a wave out, folds the results, then fans out the next wave.  Like
the sessions it wraps, a pool (and the coordinator above it) is a
one-thread-at-a-time object.
"""

import concurrent.futures

from repro import stats as _stats


class ShardExecutorPool:
    """One worker thread per shard, reused across waves."""

    def __init__(self, backends, *, name="shards"):
        backends = list(backends)
        if not backends:
            raise ValueError("ShardExecutorPool needs at least one backend")
        self._backends = backends
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=len(backends),
            thread_name_prefix="repro-{}".format(name))
        self._closed = False

    def backend(self, index):
        return self._backends[index]

    def submit(self, index, verb, *args, **kwargs):
        """One verb call against one shard; returns its future."""
        self._check_open()
        backend = self._backends[index]
        _stats.bump("shard.calls")
        return self._executor.submit(getattr(backend, verb), *args, **kwargs)

    def broadcast(self, verb, *args, **kwargs):
        """The same call against every shard; futures in shard order."""
        self._check_open()
        _stats.bump("shard.fanouts")
        return [self.submit(i, verb, *args, **kwargs)
                for i in range(len(self._backends))]

    @staticmethod
    def gather(futures):
        """Results of ``futures`` in order.  Waits for *all* of them
        before raising, so no shard call is left running when the
        caller starts error handling; re-raises the first failure."""
        done = [None] * len(futures)
        first_error = None
        for index, future in enumerate(futures):
            try:
                done[index] = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return done

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)

    def _check_open(self):
        if self._closed:
            raise RuntimeError("shard executor pool is closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

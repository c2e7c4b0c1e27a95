"""Remote shard executors: the fan-out layer of :mod:`repro.shard`.

A :class:`ShardExecutorPool` fronts one verb call per shard: submit
one task per shard, get the futures back in shard order, consume
results as they land.  Backends
are duck-typed — an in-process
:class:`~repro.service.TransactionService` and a
:class:`~repro.net.client.NetSession` expose the same verb surface, so
``ShardedWorkspace.local(...)`` (tests, single-machine scale-up) and
``repro.connect("shards://...")`` (separate server processes) run the
identical coordinator code path.

Concurrency is one in-flight call per shard, enforced by a lock per
backend (a session is a one-thread-at-a-time object): a wave may hold
several calls for the same shard — the exchange fetches one selection
per predicate — and they run back to back while other shards proceed.
The coordinator fans a wave out, folds the results, then fans out the
next wave; like the sessions it wraps, the pool's *caller* side is
one-thread-at-a-time.

Each call runs inside the submitting thread's ambient context
(:func:`repro.obs.carry`): when the caller is tracing, the call is a
``shard.call`` child span of the span that submitted it, and counters
bumped on the worker land in the caller's ``stats`` scopes.
"""

import concurrent.futures
import threading

from repro import obs as _obs
from repro import stats as _stats


class ShardExecutorPool:
    """One worker thread per shard, reused across waves."""

    def __init__(self, backends, *, name="shards"):
        backends = list(backends)
        if not backends:
            raise ValueError("ShardExecutorPool needs at least one backend")
        self._backends = backends
        self._locks = [threading.Lock() for _ in backends]
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=len(backends),
            thread_name_prefix="repro-{}".format(name))
        self._closed = False

    def backend(self, index):
        return self._backends[index]

    def submit(self, index, verb, *args, **kwargs):
        """One verb call against one shard; returns its future."""
        self._check_open()
        _stats.bump("shard.calls")
        return self._executor.submit(
            self._call, _obs.carry(), index, verb, args, kwargs)

    def _call(self, carried, index, verb, args, kwargs):
        call = getattr(self._backends[index], verb)
        with self._locks[index]:
            if carried is None:
                return call(*args, **kwargs)
            with carried, _obs.span("shard.call", shard=index, verb=verb):
                return call(*args, **kwargs)

    def broadcast(self, verb, *args, **kwargs):
        """The same call against every shard; futures in shard order."""
        self._check_open()
        _stats.bump("shard.fanouts")
        return [self.submit(i, verb, *args, **kwargs)
                for i in range(len(self._backends))]

    @staticmethod
    def settle(futures):
        """Wait for *every* future — no shard call is left running when
        the caller starts error handling.  Returns ``(results, failed)``:
        ``results[i]`` is ``None`` for a failed slot, ``failed`` is
        ``[(slot, exception), ...]`` in slot order."""
        results = [None] * len(futures)
        failed = []
        for slot, future in enumerate(futures):
            try:
                results[slot] = future.result()
            except BaseException as exc:  # noqa: BLE001 - handed to the caller
                failed.append((slot, exc))
        return results, failed

    @classmethod
    def gather(cls, futures):
        """Results of ``futures`` in order; once all have settled,
        re-raises the first failure."""
        results, failed = cls.settle(futures)
        if failed:
            raise failed[0][1]
        return results

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

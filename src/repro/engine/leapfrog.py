"""Unary leapfrog join (paper §3.2, Figure 3).

Joins k linear iterators by repeatedly taking the iterator at the
smallest key and seeking it to the current largest key, "leapfrogging"
until all iterators agree.  The join itself implements the same linear
iterator contract, so it plugs directly into the trie-level search of
the full LFTJ.

Every movement optionally reports to a recorder, producing the
*sensitivity intervals* of the run: ``seek(v)`` landing at ``u`` records
``[v, u]``, ``next()`` from ``a`` landing at ``b`` records ``[a, b]``,
initial positioning records ``[-inf, first]``, and running off the end
closes with ``+inf`` — exactly the intervals listed for Figure 3.

When given a ``stats`` dict the join counts its iterator movements
(``seeks`` / ``nexts``) — the per-iterator cost accounting Veldhuizen's
LFTJ paper frames its complexity analysis in.  With ``stats=None`` (the
default) no counting work happens at all.

:func:`leapfrog` yields the join's keys; it scans a lone iterator
directly, reporting what a one-iterator join would.
"""

from repro.storage.datum import BOTTOM, TOP


class LeapfrogJoin:
    """Leapfrog intersection of linear iterators.

    ``iters`` is a non-empty list of objects honouring the linear
    iterator contract.  ``trackers`` is an optional parallel list whose
    entries expose ``record(low, high)`` (or ``None`` for untracked
    iterators).
    """

    __slots__ = ("_iters", "_trackers", "_stats", "_p", "_at_end", "key")

    def __init__(self, iters, trackers=None, stats=None):
        self._iters = iters
        self._trackers = trackers if trackers is not None else [None] * len(iters)
        self._stats = stats  # optional dict counting seeks/nexts
        self._p = 0
        self._at_end = False
        self.key = None
        self._init()

    def _record(self, index, low, high):
        tracker = self._trackers[index]
        if tracker is not None:
            tracker.record(low, high)

    def _init(self):
        for index, it in enumerate(self._iters):
            if it.at_end():
                self._record(index, BOTTOM, TOP)
                self._at_end = True
            else:
                self._record(index, BOTTOM, it.key())
        if self._at_end:
            return
        order = sorted(range(len(self._iters)), key=lambda i: self._iters[i].key())
        self._iters = [self._iters[i] for i in order]
        self._trackers = [self._trackers[i] for i in order]
        self._p = 0
        self._search()

    def _search(self):
        iters = self._iters
        count = len(iters)
        stats = self._stats
        p = self._p
        max_key = iters[p - 1].key() if count > 1 else iters[0].key()
        while True:
            it = iters[p]
            key = it.key()
            if key == max_key:
                self.key = key
                self._p = p
                return
            if stats is not None:
                stats["seeks"] = stats.get("seeks", 0) + 1
            it.seek(max_key)
            if it.at_end():
                self._record(p, max_key, TOP)
                self._at_end = True
                self.key = None
                self._p = p
                return
            landed = it.key()
            self._record(p, max_key, landed)
            max_key = landed
            p = (p + 1) % count

    def at_end(self):
        """True when the intersection is exhausted."""
        return self._at_end

    def next(self):
        """Advance to the next common key."""
        it = self._iters[self._p]
        previous = it.key()
        stats = self._stats
        if stats is not None:
            stats["nexts"] = stats.get("nexts", 0) + 1
        it.next()
        if it.at_end():
            self._record(self._p, previous, TOP)
            self._at_end = True
            self.key = None
            return
        self._record(self._p, previous, it.key())
        self._p = (self._p + 1) % len(self._iters)
        self._search()

    def seek(self, value):
        """Position at the least common key >= ``value``."""
        it = self._iters[self._p]
        stats = self._stats
        if stats is not None:
            stats["seeks"] = stats.get("seeks", 0) + 1
        it.seek(value)
        if it.at_end():
            self._record(self._p, value, TOP)
            self._at_end = True
            self.key = None
            return
        self._record(self._p, value, it.key())
        self._p = (self._p + 1) % len(self._iters)
        self._search()


def leapfrog(iters, trackers, stats=None):
    """The keys common to ``iters``, ascending (``trackers`` as for LeapfrogJoin)."""
    if len(iters) > 1:
        join = LeapfrogJoin(iters, trackers, stats)
        while not join.at_end():
            yield join.key
            join.next()
        return
    it, tracker = iters[0], trackers[0]
    previous, key = BOTTOM, TOP if it.at_end() else it.key()
    while True:
        if tracker is not None:
            tracker.record(previous, key)
        if key is TOP:
            return
        yield key
        if stats is not None:
            stats["nexts"] = stats.get("nexts", 0) + 1
        previous, key = key, it.next()

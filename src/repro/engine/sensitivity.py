"""Sensitivity intervals and indices (paper §3.2).

As LFTJ runs, every ``seek``/``next`` skips a region of each input
predicate; a change landing inside a skipped region *cannot* affect the
result, while a change inside a recorded *sensitivity interval* may.
The recorded intervals — per atom occurrence, per trie level, under the
*context* of the values bound at earlier levels — serve transaction
repair: intersecting one transaction's *effects* with another's
*sensitivities* detects conflicts without locks (§3.4).  (The paper
also skips untouched rules during view maintenance, §3.2; this engine
does not — its delta passes are already bounded by the delta, see
DESIGN.md §3.)

Only a transaction records (:class:`~repro.txn.repair.PreparedTransaction`):
its one run hands one :class:`SensitivityRecorder` to every join, and
the :class:`SensitivityIndex` built from it sorts and sweeps each
context's intervals once, when a repair first asks.  Maintenance passes
record nothing.
"""

from bisect import bisect_right

from repro import stats as global_stats
from repro.storage.datum import BOTTOM, TOP


class _Tracker:
    """Sink for one (occurrence, level, context); collects raw intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        self.intervals = intervals

    def record(self, low, high):
        """Record that changes within ``[low, high]`` may matter."""
        self.intervals.add((low, high))


class _NullTracker:
    """Sink for virtual predicates that carry no sensitivity."""

    __slots__ = ()

    def record(self, low, high):
        """Ignore the interval."""


_NULL_TRACKER = _NullTracker()


def canonical_pred(name):
    """Map a recorded atom's predicate name to the real predicate.

    A transaction's ``P@start`` input is ``P``.  Purely virtual inputs
    (a semi-naive pass's ``@cand`` lead) carry no user-visible
    sensitivity and map to ``None``.
    """
    if name.startswith("@"):
        return None
    if name.endswith("@start"):
        name = name[: -len("@start")]
    return name


class SensitivityRecorder:
    """Collects the sensitivity intervals of one run.

    Organized as ``pred -> perm -> level -> context -> {(low, high)}``
    where ``(pred, perm)`` identifies an atom *occurrence* by the storage
    permutation of its columns, and *context* is the permuted prefix
    (constants included) under which the level was explored.
    """

    __slots__ = ("_data",)

    def __init__(self):
        self._data = {}

    def tracker(self, pred, perm, level, context):
        """A ``record(low, high)`` sink for the given site."""
        pred = canonical_pred(pred)
        if pred is None:
            return _NULL_TRACKER
        levels = self._data.setdefault(pred, {}).setdefault(tuple(perm), {})
        contexts = levels.setdefault(level, {})
        return _Tracker(contexts.setdefault(tuple(context), set()))

    def record_prefix(self, pred, perm, prefix):
        """Record point sensitivity on a bound prefix under ``perm``
        (existence probes: any change below the prefix may matter)."""
        if not prefix:
            self.record_everything(pred)
            return
        self.tracker(pred, perm, len(prefix) - 1, prefix[:-1]).record(
            prefix[-1], prefix[-1]
        )

    def record_everything(self, pred):
        """Record total sensitivity on ``pred`` (conservative fallback,
        e.g. for aggregations that scan whole groups)."""
        self.tracker(pred, (0,), 0, ()).record(BOTTOM, TOP)


def _merge(intervals):
    """One context's intervals as parallel sorted ``(lows, highs)``
    lists, by one sort and one sweep.

    An interval is coalesced with those it *strictly* overlaps.
    Touching intervals (``[6,8]`` and ``[8,10]``) stay separate — the
    paper reports them that way — and lookups remain correct for them
    because they pick the last interval whose low endpoint does not
    exceed the probed value.
    """
    lows, highs = [], []
    for low, high in sorted(intervals):
        if highs and low < highs[-1]:
            if highs[-1] < high:
                highs[-1] = high
        else:
            lows.append(low)
            highs.append(high)
    return lows, highs


class SensitivityIndex:
    """Queryable sensitivity intervals of one recorded run: per
    context, sorted and pairwise non-overlapping.

    Built once from a :class:`SensitivityRecorder`; ``by_pred`` maps
    ``pred -> perm -> level -> context -> (lows, highs)`` (parallel
    lists) and is read-only.
    """

    __slots__ = ("by_pred", "_total")

    def __init__(self, recorder):
        self.by_pred = {}
        self._total = set()  # predicates with blanket sensitivity
        merged = 0
        for pred, perms in recorder._data.items():
            by_perm = self.by_pred[pred] = {}
            for perm, levels in perms.items():
                by_level = by_perm[perm] = {}
                for level, contexts in levels.items():
                    by_level[level] = {
                        context: _merge(raw) for context, raw in contexts.items()}
                    merged += sum(len(raw) for raw in contexts.values())
                    if level == 0 and (BOTTOM, TOP) in contexts.get((), ()):
                        self._total.add(pred)
        global_stats.bump("sensitivity.folded", merged)

    def tuple_affects(self, pred, tup):
        """May inserting or deleting ``tup`` in ``pred`` change the run?"""
        pred = canonical_pred(pred)
        if pred is None:
            return False
        if pred in self._total:
            return True
        identity = tuple(range(len(tup)))
        for perm, levels in self.by_pred.get(pred, {}).items():
            permuted = tuple(tup[i] for i in perm) if perm != identity else tup
            for level, contexts in levels.items():
                if level >= len(permuted):
                    continue
                entry = contexts.get(permuted[:level])
                if entry is None:
                    continue
                lows, highs = entry
                value = permuted[level]
                position = bisect_right(lows, value)
                if position and not highs[position - 1] < value:
                    return True
        return False

    def intervals_for(self, pred, perm=None):
        """Merged intervals for inspection/testing.

        Returns ``{level: {context: [(low, high), ...]}}``; with
        ``perm=None`` the first recorded permutation for ``pred``.
        """
        perms = self.by_pred.get(pred, {})
        for recorded_perm in sorted(perms):
            if perm is not None and tuple(perm) != recorded_perm:
                continue
            return {
                level: {
                    context: list(zip(lows, highs))
                    for context, (lows, highs) in contexts.items()
                }
                for level, contexts in perms[recorded_perm].items()
            }
        return {}

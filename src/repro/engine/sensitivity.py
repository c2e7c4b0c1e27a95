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

One evaluation pass records into a pass-local :class:`SensitivityRecorder`;
:meth:`SensitivityIndex.fold` then merges what the pass saw into the
contexts it touched and returns the next version's index.  An index is
never modified after it is built, so versions share every untouched
context and a commit's bookkeeping is proportional to what its passes
recorded, not to the history before it.
"""

from bisect import bisect_left, bisect_right

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
    """Map delta-pass predicate names back to their real predicate.

    Incremental passes rename atoms to ``@new:P`` / ``@old:P``; their
    sensitivities belong to ``P``.  Purely virtual inputs (a pass's
    ``@cand`` or ``@head`` lead) carry no user-visible sensitivity and
    map to ``None``.
    """
    if name.startswith("@new:") or name.startswith("@old:"):
        name = name.split(":", 1)[1]
    if name.startswith("@"):
        return None
    if name.endswith("@start"):
        name = name[: -len("@start")]
    return name


class SensitivityRecorder:
    """Collects the sensitivity intervals of one evaluation pass.

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

    def predicates(self):
        """Names of predicates with recorded sensitivities."""
        return set(self._data)


_NO_INTERVALS = ((), ())


def _fold_context(entry, raw):
    """One context's ``(lows, highs)`` extended by the ``raw`` intervals.

    The lists stay sorted and pairwise non-overlapping: an interval is
    coalesced with the stored ones it *strictly* overlaps.  Touching
    intervals (``[6,8]`` and ``[8,10]``) stay separate — the paper
    reports them that way — and lookups remain correct for them because
    they pick the last interval whose low endpoint does not exceed the
    probed value.  The result does not depend on the order intervals
    arrive in.  ``entry`` is shared with older index versions, so it is
    copied before the first change and returned as-is when ``raw`` adds
    nothing.
    """
    lows, highs = entry
    owned = False
    for low, high in raw:
        # stored intervals overlapping (low, high) are contiguous: they
        # start below ``high`` and end above ``low``
        end = bisect_left(lows, high)
        start = end
        while start and low < highs[start - 1]:
            start -= 1
        if start == end:
            if end < len(lows) and lows[end] == low and highs[end] == high:
                continue  # a point recorded before
        else:
            if lows[start] < low:
                low = lows[start]
            if high < highs[end - 1]:
                high = highs[end - 1]
            if end - start == 1 and low == lows[start] and high == highs[start]:
                continue  # inside one stored interval
        if not owned:
            lows, highs, owned = list(lows), list(highs), True
        lows[start:end] = [low]
        highs[start:end] = [high]
    return (lows, highs) if owned else entry


class SensitivityIndex:
    """Queryable sensitivity intervals: per context, sorted and disjoint.

    ``by_pred`` maps ``pred -> perm -> level -> context -> (lows, highs)``
    (parallel lists) and is read-only once the index is built.
    """

    __slots__ = ("by_pred", "_total")

    def __init__(self, by_pred=None, total=frozenset()):
        self.by_pred = by_pred if by_pred is not None else {}
        self._total = total  # predicates with blanket sensitivity

    def fold(self, recorder):
        """This index extended by one pass's recordings, as a new index.

        Only the contexts the pass touched are visited; ``self`` is left
        as it was and shares every context the pass added nothing to.
        """
        if not recorder._data:
            return self
        by_pred = dict(self.by_pred)
        total = set()
        folded = 0
        for pred, perms in recorder._data.items():
            new_perms = by_pred[pred] = dict(by_pred.get(pred, ()))
            for perm, levels in perms.items():
                new_levels = new_perms[perm] = dict(new_perms.get(perm, ()))
                for level, contexts in levels.items():
                    stored = new_levels.get(level, {})
                    changed = {}
                    for context, raw in contexts.items():
                        folded += len(raw)
                        entry = stored.get(context, _NO_INTERVALS)
                        merged = _fold_context(entry, raw)
                        if merged is not entry:
                            changed[context] = merged
                    if changed:
                        new_levels[level] = {**stored, **changed}
                    if level == 0 and (BOTTOM, TOP) in contexts.get((), ()):
                        total.add(pred)
        global_stats.bump("sensitivity.folded", folded)
        return SensitivityIndex(by_pred, self._total | total)

    @classmethod
    def union(cls, indexes):
        """One index covering everything any of ``indexes`` covers."""
        recorder = SensitivityRecorder()
        for index in indexes:
            for pred, perms in index.by_pred.items():
                for perm, levels in perms.items():
                    for level, contexts in levels.items():
                        for context, (lows, highs) in contexts.items():
                            recorder.tracker(
                                pred, perm, level, context
                            ).intervals.update(zip(lows, highs))
        return cls().fold(recorder)

    def predicates(self):
        """Names of predicates this run is sensitive to."""
        return set(self.by_pred)

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

"""Span recorder and the self-time / ladder arithmetic of the traced pass.

Pure: nothing here imports ``repro``.  Spans are kept in memory as
``Span`` tuples and written as JSON lines when a workload ends.  A
root span is one op (``op.<kind>``, carrying the op's index as the
identifier its children share); children wrap the ladder and replay
calls the benchmark makes into each layer's public functions.
"""

import json
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "sid name start end parent op")


class SpanRecorder:
    """Collects spans from any number of threads; each thread nests its
    own spans (a thread-local stack supplies the parent)."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def span(self, name, op=None):
        return _Open(self, name, op)

    def _sid(self):
        with self._lock:
            self._next += 1
            return self._next

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


class _Open:
    __slots__ = ("rec", "name", "op", "sid", "parent", "start", "end")

    def __init__(self, rec, name, op):
        self.rec, self.name, self.op = rec, name, op

    def __enter__(self):
        rec = self.rec
        stack = rec._local.__dict__.setdefault("stack", [])
        self.sid = rec._sid()
        if stack:
            self.parent = stack[-1].sid
            if self.op is None:
                self.op = stack[-1].op
        else:
            self.parent = None
        stack.append(self)
        self.start = rec._clock()
        return self

    def __exit__(self, *exc):
        self.end = self.rec._clock()
        self.rec._local.stack.pop()
        self.rec.spans.append(Span(
            self.sid, self.name, self.start, self.end, self.parent, self.op))
        return False

    @property
    def seconds(self):
        return self.end - self.start


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """``{sid: seconds}``: each span's duration minus the part of its
    interval that its child spans cover (children clipped to the parent,
    overlapping children counted once)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
            if min(c.end, span.end) > max(c.start, span.start)
        ]
        out[span.sid] = (span.end - span.start) - covered(clipped)
    return out


def self_time_by_name(spans):
    """Self time summed per span name."""
    own = self_times(spans)
    totals = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.sid]
    return totals


def ladder_rows(rung_totals):
    """Per-rung overhead rows from the totals of an ordered ladder.

    ``rung_totals`` is ``[(rung, seconds), ...]`` bottom rung first; a
    rung's row is its total minus the total of the rung below it, so
    the rows sum to the top rung by construction."""
    rows = []
    below = 0.0
    for rung, total in rung_totals:
        rows.append((rung, total - below))
        below = total
    return rows


def unattributed_shares(rung_totals, replay_by_rung):
    """``{rung: share}``: the part of each rung's own row that no
    replay span accounts for, as a share of that rung's total.  Every
    rung of the ladder gets an entry, so a rung with no replay rows
    reports its whole row as unattributed and none is dropped."""
    shares = {}
    totals = dict(rung_totals)
    for rung, row in ladder_rows(rung_totals):
        total = totals[rung]
        explained = replay_by_rung.get(rung, 0.0)
        shares[rung] = (row - explained) / total if total > 0 else 0.0
    return shares

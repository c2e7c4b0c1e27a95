"""Process-wide engine counters, timers, and counter scopes.

The paper's performance claims (§3.2) are only reproducible if the
engine can report *why* it is fast: how often plans and indexes were
reused instead of rebuilt, how many seeks a join took, how many joins
ran columnar.  This module is the single sink those layers bump —
storage must not import the engine, so the counters live above both.

Three primitives:

* **Counters** — plain monotonically increasing integers in one flat
  dict, named ``subsystem.verb`` (``relation.index_hits``, ``join.seeks``).
  Tests and benchmarks take a :func:`snapshot` before and after the
  region of interest and compare deltas, so concurrent suites never
  interfere through absolute values.
* **Scopes** — per-thread stacks of sink dicts.  Every :func:`bump`
  lands in the global dict *and* in each sink active on the calling
  thread, so a workspace (or a tracing span) can attribute exactly the
  counter increments of its own window without diffing global state:
  two workspaces counting in parallel never cross-contaminate.
* **Histograms / timers** — :func:`observe` records a value into a
  count/sum/min/max histogram plus a bounded cyclic sample window
  (last :data:`SAMPLE_WINDOW` observations) from which
  :func:`histograms` derives p50/p90/p99 nearest-rank quantiles;
  :func:`timer` is the context-manager form for wall-clock durations
  (named ``subsystem.verb.seconds``).

A sink dict may be active on several threads at once (a fan-out
caller hands its stack to worker threads with :func:`swap_scopes`):
:func:`bump` updates sinks under the same lock as the global counters.
"""

import threading
import time

_lock = threading.Lock()
_counters = {}
_histograms = {}  # key -> [count, sum, min, max, samples]
_gauges = {}

#: How many recent observations each histogram retains for quantiles.
#: Old values are overwritten cyclically, so memory per histogram is
#: bounded no matter how long the process runs.
SAMPLE_WINDOW = 512

#: The quantiles :func:`histograms` exports, as (label, fraction).
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))
_scopes = threading.local()


def _sink_stack():
    stack = getattr(_scopes, "stack", None)
    if stack is None:
        stack = _scopes.stack = []
    return stack


def bump(key, amount=1):
    """Increment counter ``key`` by ``amount`` (globally and in every
    scope sink active on this thread).  A zero increment is a no-op so
    sinks never accumulate spurious zero-valued entries."""
    if not amount:
        return
    stack = getattr(_scopes, "stack", None)
    with _lock:
        if stack:
            for sink in stack:
                sink[key] = sink.get(key, 0) + amount
        _counters[key] = _counters.get(key, 0) + amount


def bump_unlocked(key, amount):
    """Add ``amount`` to global counter ``key`` without the lock and
    without the scope sinks.  Only for the garbage-collector hook of
    :mod:`repro.obs`, which can fire inside any allocation — one made
    while :func:`bump` holds the lock included.  Nothing else writes its
    keys and collections never overlap, so no update is lost."""
    _counters[key] = _counters.get(key, 0) + amount


def get(key):
    """Current value of one counter (0 if never bumped)."""
    return _counters.get(key, 0)


def snapshot():
    """A copy of all counters at this instant."""
    with _lock:
        return dict(_counters)


def delta_since(before):
    """Counter increases since ``before`` (a prior :func:`snapshot`)."""
    now = snapshot()
    keys = set(now) | set(before)
    return {
        key: now.get(key, 0) - before.get(key, 0)
        for key in keys
        if now.get(key, 0) != before.get(key, 0)
    }


# -- scopes -----------------------------------------------------------------


def push_scope(sink=None):
    """Push a sink dict onto this thread's scope stack; returns it."""
    if sink is None:
        sink = {}
    _sink_stack().append(sink)
    return sink


def pop_scope(sink):
    """Remove ``sink`` — and anything pushed above it — from the stack."""
    stack = getattr(_scopes, "stack", None)
    if not stack:
        return
    for index in range(len(stack) - 1, -1, -1):
        if stack[index] is sink:
            del stack[index:]
            return


def active_scopes():
    """The sinks active on this thread, outermost first."""
    return tuple(getattr(_scopes, "stack", None) or ())


def swap_scopes(stack):
    """Install ``stack`` (a list of sink dicts, or ``None``) as this
    thread's scope stack and return the one it replaces — how a worker
    thread counts into its caller's sinks for the length of one task,
    then puts its own stack back."""
    previous = getattr(_scopes, "stack", None)
    _scopes.stack = stack
    return previous


class scope:
    """Context manager collecting this thread's bumps into ``sink``.

    Re-entrant per sink: if the same dict is already active on this
    thread's stack (a transaction path entered twice), it is not pushed
    again, so each bump counts exactly once per sink.
    """

    __slots__ = ("sink", "_added")

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else {}
        self._added = False

    def __enter__(self):
        stack = _sink_stack()
        if not any(entry is self.sink for entry in stack):
            stack.append(self.sink)
            self._added = True
        return self.sink

    def __exit__(self, *exc):
        if self._added:
            pop_scope(self.sink)
            self._added = False
        return False


# -- histograms / timers -----------------------------------------------------


def observe(key, value):
    """Record ``value`` into histogram ``key`` (count/sum/min/max plus
    a cyclic window of the last :data:`SAMPLE_WINDOW` values)."""
    with _lock:
        entry = _histograms.get(key)
        if entry is None:
            _histograms[key] = [1, value, value, value, [value]]
        else:
            samples = entry[4]
            if len(samples) < SAMPLE_WINDOW:
                samples.append(value)
            else:
                samples[entry[0] % SAMPLE_WINDOW] = value
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value


def _quantiles(samples):
    """Nearest-rank quantiles of ``samples`` as ``{label: value}``."""
    ordered = sorted(samples)
    last = len(ordered) - 1
    return {
        label: ordered[min(last, int(fraction * len(ordered)))]
        for label, fraction in QUANTILES
    }


class timer:
    """Context manager observing its wall-clock duration in seconds."""

    __slots__ = ("key", "_started")

    def __init__(self, key):
        self.key = key
        self._started = None

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        observe(self.key, time.perf_counter() - self._started)
        return False


def gauge(key, value):
    """Set gauge ``key`` to ``value`` (a point-in-time level, not a
    monotone counter — the service layer reports queue depth and
    in-flight transaction counts this way)."""
    with _lock:
        _gauges[key] = value


def gauges():
    """Snapshot of every gauge."""
    with _lock:
        return dict(_gauges)


def histograms():
    """Snapshot of every histogram as
    ``{key: {count,sum,min,max,p50,p90,p99}}`` (quantiles are
    nearest-rank over the bounded sample window, so they describe
    recent behaviour, while count/sum/min/max are lifetime)."""
    with _lock:
        out = {}
        for key, e in _histograms.items():
            entry = {"count": e[0], "sum": e[1], "min": e[2], "max": e[3]}
            entry.update(_quantiles(e[4]))
            out[key] = entry
        return out


def reset():
    """Zero every counter and histogram (test isolation only)."""
    with _lock:
        _counters.clear()
        _histograms.clear()
        _gauges.clear()

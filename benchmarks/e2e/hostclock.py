"""A clock that discounts what the host takes away.

The benchmark runs on a few cores of a shared host.  For seconds or
minutes at a time the host gives a core less than it shows: the same
fixed work takes a quarter to a third longer, in wall time *and* in
the CPU time the guest is charged, while ``/proc/stat`` reports no
steal.  Raw times of the same code then spread by 20–30 % between runs
— more than any bound the benchmark could usefully set.

So the client thread of an untraced run measures the host as it goes:
after an op, if 50 ms have passed since the last time, it runs a fixed
piece of interpreter work (a *burst*, about 1.8 ms) and notes the CPU
time the thread was charged for it.  ``REFERENCE_S`` over that time is
the speed the host gave just then.  The benchmark integrates the speed
over an interval to get its length in *reference seconds*: the seconds
the interval would have taken on a host that does a burst in
``REFERENCE_S``, which is this host when nobody disturbs it.  On a
quiet host the factor is 1.0 and the corrected time is the wall time.

The burst runs on the thread that has just waited for the op, so it
sees the core the work ran on (exactly, for the in-process workloads;
for the ones with server processes, one of the two cores the work moves
between).  A calibrator in a process of its own was tried first and
dropped: the host slows cores one by one, and a second process always
sits on the *other* core — it made the single-process workloads
noisier, not steadier.

The correction comes from a signal independent of the program under
test — a stall, a GC pause or a slow path in the program slows the
program, not the burst — so it removes host noise without also removing
regressions.  Every run prints the factor and the raw, uncorrected
values beside the corrected ones.
"""

import bisect
import time

#: CPU seconds one burst takes on the undisturbed baseline host (2 vCPUs
#: of a Xeon at 2.1 GHz, CPython 3.11); a constant of the benchmark:
#: both sides of an A/B divide by the same number
REFERENCE_S = 0.00178
GAP_S = 0.05
LOOP = 20000


def burst_cpu_seconds():
    """Do the fixed work; the CPU seconds this thread was charged."""
    before = time.thread_time()
    x = 0
    for i in range(LOOP):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return time.thread_time() - before


class HostClock:
    """Host speed sampled by bursts; the speed a burst saw holds for the
    time since the burst before it."""

    def __init__(self):
        self.cpu_s = 0.0  # what the bursts themselves were charged
        self._times, self._reference = [], []
        self.sample()

    def sample(self, cpu_seconds=None, now=None):
        """Take one burst (or, for tests, take its two readings)."""
        if cpu_seconds is None:
            cpu_seconds = burst_cpu_seconds()
            now = time.perf_counter()
        self.cpu_s += cpu_seconds
        elapsed = 0.0
        if self._times:
            elapsed = (self._reference[-1] +
                       (now - self._times[-1]) * REFERENCE_S / cpu_seconds)
        self._times.append(now)
        self._reference.append(elapsed)

    def tick(self, now):
        """Called between ops: a burst when one is due."""
        if now - self._times[-1] >= GAP_S:
            self.sample()

    def _at(self, t):
        times, reference = self._times, self._reference
        k = min(max(bisect.bisect_right(times, t), 1), len(times) - 1)
        slope = (reference[k] - reference[k - 1]) / (times[k] - times[k - 1])
        return reference[k - 1] + (t - times[k - 1]) * slope

    def seconds(self, start, end):
        """The length of ``[start, end]`` (``perf_counter`` readings) in
        reference seconds; past the first or last burst its speed holds."""
        return self._at(end) - self._at(start)

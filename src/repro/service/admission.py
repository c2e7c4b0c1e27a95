"""Admission control: a bounded in-flight window with deadlines.

The service never queues unboundedly: past ``max_pending`` concurrent
write transactions it *sheds load*, rejecting the submission with a
typed :class:`~repro.runtime.errors.Overloaded` carrying the observed
depth, so well-behaved clients can back off instead of piling on.

Each admitted transaction gets a :class:`Ticket` holding its deadline
(monotonic clock); the execute and commit paths consult
:meth:`Ticket.expired` so a transaction that cannot make its deadline
aborts with :class:`~repro.runtime.errors.TxnTimeout` rather than
holding a slot.
"""

import math
import threading
import time

from repro import stats as _stats
from repro.runtime.errors import Overloaded, TxnTimeout


class Ticket:
    """One admitted transaction's admission record."""

    __slots__ = ("kind", "admitted_at", "deadline")

    def __init__(self, kind, admitted_at, deadline):
        self.kind = kind
        self.admitted_at = admitted_at
        self.deadline = deadline  # monotonic seconds, math.inf when none

    def remaining(self):
        """Seconds until the deadline, floored at zero (``math.inf``
        when undeadlined)."""
        return max(0.0, self.deadline - time.monotonic())

    def expired(self):
        """True once the deadline has passed."""
        return time.monotonic() >= self.deadline

    def check(self, message, *args):
        """Raise :class:`TxnTimeout` (``message.format(*args)``), counted
        as ``service.timeouts``, once the deadline has passed."""
        if self.expired():
            _stats.bump("service.timeouts")
            raise TxnTimeout(message.format(*args), deadline_s=self.deadline)


class AdmissionController:
    """Counts in-flight transactions; rejects past the cap."""

    def __init__(self, *, max_pending=64, default_timeout_s=30.0,
                 retry_after_s=0.05):
        self.max_pending = max_pending
        self.default_timeout_s = default_timeout_s
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._in_flight = 0

    @property
    def depth(self):
        """Current number of admitted, unfinished transactions."""
        with self._lock:
            return self._in_flight

    def admit(self, *, kind="exec", timeout_s=None):
        """Admit one transaction or raise :class:`Overloaded`.

        ``timeout_s`` overrides the configured default deadline;
        ``None`` means "use the default", and a default of ``None``
        means no deadline at all.
        """
        now = time.monotonic()
        with self._lock:
            if self._in_flight >= self.max_pending:
                _stats.bump("service.overloads")
                raise Overloaded(
                    "service at capacity ({} in-flight transactions)".format(
                        self._in_flight),
                    depth=self._in_flight,
                    limit=self.max_pending,
                    retry_after_s=self.retry_after_s,
                )
            self._in_flight += 1
            depth = self._in_flight
        _stats.bump("service.admitted")
        _stats.gauge("service.in_flight", depth)
        _stats.observe("service.admission.depth", depth)
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        deadline = math.inf if timeout_s is None else now + timeout_s
        return Ticket(kind, now, deadline)

    def release(self, ticket):
        """Return the slot held by ``ticket``."""
        with self._lock:
            self._in_flight -= 1
            depth = self._in_flight
        _stats.gauge("service.in_flight", depth)

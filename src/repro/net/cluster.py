"""The cluster client: one session over a leader + replica fleet.

``repro.connect("cluster://leader:7411,r1:7412,r2:7413")`` returns a
:class:`ClusterSession` speaking the same verb surface as a local
:class:`~repro.service.session.Session` or a single-server
:class:`~repro.net.client.NetSession`, but routed:

* **Writes go to the leader.**  Which endpoint that is comes from the
  HELLO/status role advertisement, not configuration order — after a
  failover the client re-resolves by probing until a member reports
  ``role == "leader"`` (a promoted replica), raising a typed
  :class:`~repro.net.protocol.LeaderUnavailable` if none appears
  within the deadline.
* **Reads fan out across replicas**, round-robin, skipping members
  that recently failed a transport round-trip (excluded for
  ``exclude_s``, then re-tried).  The leader is the fallback of last
  resort, so reads keep answering through a full replica outage.
* **Session consistency is enforced centrally.**  Every response is
  stamped with the commit watermark of the state it was served from;
  the cluster session tracks the highest watermark it has observed
  (its own writes included).  Under ``consistency="session"`` a read
  answered below that watermark is *not returned*: the client retries
  the next replica, optionally waits ``stale_wait_s`` for the fleet to
  catch up, and finally falls back to the leader — which is
  definitionally current — so read-your-writes holds across the whole
  fleet.  ``"eventual"`` takes any replica's answer as-is;
  ``"strong"`` sends every read to the leader.

Write failover is deliberately conservative: a write that fails after
the request may have reached the old leader is **not** retried (the
commit status is unknown) unless ``retry_writes_on_failover=True``
opts into at-least-once. A write that provably never reached a server
(connection establishment failed) is always safe to retry against the
newly resolved leader.

Threading: like the sessions it is built from, one ``ClusterSession``
per thread.
"""

import itertools
import time

from repro import stats as _stats
from repro.net.client import NetSession
from repro.net.protocol import (
    CONSISTENCY_MODES,
    ConnectionLost,
    LeaderUnavailable,
    ProtocolError,
    ReplicaReadOnly,
    VerbNotServed,
    VerbSurface,
)
from repro.runtime.errors import ReproError

_session_counter = itertools.count(1)


def _parse_endpoint(endpoint):
    host, _, port = str(endpoint).strip().rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            "cluster endpoint must be 'host:port', got {!r}".format(endpoint))
    return host, int(port)


class _Member:
    """One fleet endpoint: its lazily opened session and what the
    cluster has learned about it (role, watermark, health)."""

    __slots__ = ("endpoint", "host", "port", "session", "role",
                 "watermark", "excluded_until", "lag_excluded",
                 "lag_probe_at")

    def __init__(self, endpoint):
        self.endpoint = "{}:{}".format(*_parse_endpoint(endpoint))
        self.host, self.port = _parse_endpoint(endpoint)
        self.session = None
        self.role = None  # unknown until the first HELLO/status
        self.watermark = 0
        self.excluded_until = 0.0
        # lag self-exclusion: the member's own advertised staleness
        # bound said "don't read from me"; re-probed, not timed out
        self.lag_excluded = False
        self.lag_probe_at = 0.0

    def excluded(self):
        return time.monotonic() < self.excluded_until


class ClusterSession(VerbSurface):
    """One client's consistency-aware view of a replica fleet."""

    def __init__(self, endpoints, *, name=None, timeout=None,
                 consistency="session", stale_wait_s=0.05, exclude_s=1.0,
                 leader_wait_s=10.0, retry_writes_on_failover=False,
                 lag_probe_s=1.0, **client_kwargs):
        members = [_Member(ep) for ep in endpoints if str(ep).strip()]
        if not members:
            raise ValueError("ClusterSession needs at least one endpoint")
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                "consistency must be one of {}, got {!r}".format(
                    "/".join(CONSISTENCY_MODES), consistency))
        self.name = name or "cluster-session-{}".format(
            next(_session_counter))
        self.timeout = timeout
        self.consistency = consistency
        self.stale_wait_s = stale_wait_s
        self.exclude_s = exclude_s
        self.leader_wait_s = leader_wait_s
        self.retry_writes_on_failover = retry_writes_on_failover
        #: how often (at most) to re-check a member's self-advertised
        #: staleness bound with a status() probe; 0 disables the check
        self.lag_probe_s = lag_probe_s
        self._client_kwargs = client_kwargs
        self._members = {m.endpoint: m for m in members}
        self._order = [m.endpoint for m in members]
        self._rr = 0
        #: highest commit watermark this session has observed — its own
        #: writes included, so it anchors read-your-writes fleet-wide
        self.watermark = 0

    # -- membership ------------------------------------------------------------

    def endpoints(self):
        """Configured endpoints in routing order."""
        return list(self._order)

    def fleet_stats(self):
        """What this client currently believes about the fleet: per
        member its last known role, watermark, and exclusion state,
        plus the session's own watermark."""
        return {
            "watermark": self.watermark,
            "consistency": self.consistency,
            "members": {
                m.endpoint: {
                    "role": m.role,
                    "watermark": m.watermark,
                    "excluded": m.excluded(),
                    "lag_excluded": m.lag_excluded,
                }
                for m in self._members.values()
            },
        }

    def _session_for(self, member):
        if member.session is None:
            member.session = NetSession(
                member.host, member.port,
                name="{}/{}".format(self.name, member.endpoint),
                timeout=self.timeout,
                # staleness is judged fleet-wide here, against the
                # cluster watermark — member sessions must not veto
                consistency="eventual",
                **self._client_kwargs)
            member.role = member.session.server_role
            member.watermark = member.session.server_watermark
        return member.session

    def _drop(self, member):
        if member.session is not None:
            try:
                member.session.close()
            except ReproError:  # pragma: no cover
                pass
            member.session = None

    def _exclude(self, member):
        member.excluded_until = time.monotonic() + self.exclude_s
        self._drop(member)
        _stats.bump("fleet.exclusions")

    def _observe(self, member):
        wm = member.session.last_watermark
        if wm is None:
            return None
        member.watermark = wm
        if wm > self.watermark:
            self.watermark = wm
        return wm

    # -- routing ---------------------------------------------------------------

    def _verb(self, spec, args):
        """Route one verb by its routing class: reads fan out over the
        replicas, writes (and the shard circuit) go to the leader, and
        ``leader-read`` verbs ask the leader, who speaks for the fleet.
        ``member`` verbs address one specific endpoint — open a
        ``tcp://`` session to it instead."""
        self._check_open()
        if spec.route == "read":
            return self._read(spec, args)
        if spec.write:
            return self._write(spec, args)
        if spec.route == "member":
            raise VerbNotServed(
                "{} addresses one endpoint, not a fleet: connect to the "
                "member with tcp://host:port".format(spec.name))
        member = self._resolve_leader()
        out = self._session_for(member)._verb(spec, dict(args))
        self._observe(member)
        return out

    def _read(self, spec, args):
        """Round-robin across replicas, skip stale/excluded members,
        fall back to the leader (always current) last."""
        swept = 0
        while True:
            stale = 0
            for member in self._read_candidates():
                session = self._session_for_safe(member)
                if session is None:
                    continue
                if not self._lag_ok(member, session):
                    # the member itself says it is lagging past its
                    # advertised bound — route around it up front
                    # instead of discovering the lag via StaleRead
                    continue
                try:
                    # a copy per attempt: the member session stamps and
                    # encodes its arguments in place
                    out = session._verb(spec, dict(args))
                except (ConnectionLost, ProtocolError):
                    self._exclude(member)
                    continue
                except ReplicaReadOnly:
                    # an unsynced replica refuses reads until its first
                    # checkpoint lands: cool it off, try the next member
                    self._exclude(member)
                    continue
                wm = self._observe(member)
                if (
                    self.consistency == "session"
                    and member.role != "leader"
                    and wm is not None
                    and wm < self.watermark
                ):
                    # this replica hasn't caught up to our own history:
                    # its (valid, but stale) answer must not be returned
                    _stats.bump("fleet.stale_skips")
                    stale += 1
                    continue
                _stats.bump("fleet.reads")
                return out
            if stale and not swept and self.stale_wait_s > 0:
                # every live replica was behind: give the checkpoint
                # stream one beat to land before burdening the leader
                swept += 1
                time.sleep(self.stale_wait_s)
                continue
            break
        # all replicas down, stale, or excluded — the leader serves
        _stats.bump("fleet.leader_fallbacks")
        member = self._resolve_leader()
        out = self._session_for(member)._verb(spec, dict(args))
        self._observe(member)
        _stats.bump("fleet.reads")
        return out

    def _read_candidates(self):
        """Non-leader members, round-robin rotated, healthy first;
        ``consistency="strong"`` yields nothing — reads go straight to
        the leader fallback."""
        if self.consistency == "strong":
            return
        n = len(self._order)
        self._rr = (self._rr + 1) % n
        rotated = self._order[self._rr:] + self._order[:self._rr]
        for endpoint in rotated:
            member = self._members[endpoint]
            if member.role == "leader" or member.excluded():
                continue
            yield member

    def _lag_ok(self, member, session):
        """Lag-based self-exclusion: honor the staleness bound the
        member advertises in its own ``status()``.  Probes at most
        every ``lag_probe_s`` seconds per member; between probes the
        last verdict stands.  Members advertising no bound (leaders,
        old replicas) always pass."""
        if not self.lag_probe_s:
            return True
        now = time.monotonic()
        if now < member.lag_probe_at:
            return not member.lag_excluded
        member.lag_probe_at = now + self.lag_probe_s
        try:
            status = session.status()
        except (ConnectionLost, ProtocolError):
            self._exclude(member)
            return False
        member.role = status.get("role") or member.role
        bound = status.get("max_staleness_s")
        lag = status.get("staleness_s")
        lagging = bound is not None and lag is not None and lag > bound
        if lagging and not member.lag_excluded:
            _stats.bump("fleet.lag_exclusions")
        member.lag_excluded = lagging
        return not lagging

    def _session_for_safe(self, member):
        try:
            return self._session_for(member)
        except (ConnectionLost, ProtocolError):
            self._exclude(member)
            return None

    def _write(self, spec, args):
        """Route to the leader; on connection loss re-resolve it (a
        replica may have been promoted) and retry only when safe."""
        attempts = 0
        while True:
            attempts += 1
            member = self._resolve_leader()
            session = self._session_for_safe(member)
            if session is None:
                if attempts > 2:
                    raise LeaderUnavailable(
                        "leader {} keeps refusing connections".format(
                            member.endpoint))
                continue
            sent_nothing = False
            try:
                out = session._verb(spec, dict(args))
            except ConnectionLost as exc:
                # a connect-phase failure provably never sent the
                # request; anything later may have committed
                sent_nothing = "cannot connect" in str(exc)
                member.role = None  # stop believing it is the leader
                self._exclude(member)
                if attempts <= 2 and (
                        sent_nothing or self.retry_writes_on_failover):
                    _stats.bump("fleet.write_failovers")
                    continue
                raise ConnectionLost(
                    "{} (write {} not retried: commit status "
                    "unknown)".format(exc, spec.name)) from exc
            self._observe(member)
            _stats.bump("fleet.writes")
            return out

    def _resolve_leader(self):
        """The member currently advertising ``role == "leader"`` —
        probing the fleet (and waiting out an in-flight promotion, up
        to ``leader_wait_s``) when the last known leader is gone."""
        for member in self._members.values():
            if member.role == "leader" and not member.excluded():
                return member
        deadline = time.monotonic() + self.leader_wait_s
        while True:
            _stats.bump("fleet.leader_probes")
            for endpoint in self._order:
                member = self._members[endpoint]
                try:
                    status = self._session_for(member).status()
                except (ConnectionLost, ProtocolError):
                    self._drop(member)
                    continue
                member.role = status.get("role")
                member.watermark = int(status.get("watermark") or 0)
                if member.role == "leader":
                    member.excluded_until = 0.0
                    return member
            if time.monotonic() >= deadline:
                raise LeaderUnavailable(
                    "no member of {} advertises the leader role (probed "
                    "for {:.1f}s — election still converging, or the "
                    "fleet is down)".format(
                        ",".join(self._order), self.leader_wait_s))
            time.sleep(0.1)

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Close every member session."""
        if self._closed:
            return
        self._closed = True
        for member in self._members.values():
            self._drop(member)

    def __repr__(self):
        return "ClusterSession({}, {}, watermark={})".format(
            ",".join(self._order), self.consistency, self.watermark)

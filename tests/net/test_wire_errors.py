"""Typed error frames: every ReproError subclass round-trips the wire
with the same class, message, and payload attributes.

The exhaustiveness check is structural: the factory table below is
asserted to cover :func:`error_registry` exactly, so adding a new error
class without teaching the wire (and this test) about it fails loudly.
"""

import pytest

from repro.net.protocol import (
    ConnectionLost,
    LeaderUnavailable,
    NetError,
    ProtocolError,
    ReplicaReadOnly,
    StaleRead,
    VerbNotServed,
    _WireConstraint,
    error_from_wire,
    error_registry,
    error_to_wire,
)
from repro.runtime.errors import (
    ConflictError,
    ConstraintViolation,
    Overloaded,
    ReproError,
    TransactionAborted,
    TxnTimeout,
    UnknownPredicate,
)
from repro.service.faults import InjectedCrash
from repro.shard import ShardCommitError, ShardError


class _FakeConstraint:
    text = "inventory[s] = v -> v >= 0"


# one representative instance per error class, payload attributes loaded
FACTORIES = {
    "ReproError": lambda: ReproError("base failure"),
    "TransactionAborted": lambda: TransactionAborted("txn aborted"),
    "ConstraintViolation": lambda: ConstraintViolation(
        [(_FakeConstraint(), {"s": "widget", "v": -1})]),
    "ConflictError": lambda: ConflictError(
        "write-write conflict", preds=("inventory", "orders")),
    "TxnTimeout": lambda: TxnTimeout(
        "deadline elapsed after 1.5s", deadline_s=1.5),
    "Overloaded": lambda: Overloaded(
        "admission queue full", depth=65, limit=64, retry_after_s=0.05),
    "UnknownPredicate": lambda: UnknownPredicate("no such predicate: foo"),
    "InjectedCrash": lambda: InjectedCrash("injected crash at commit"),
    "NetError": lambda: NetError("generic net failure"),
    "ProtocolError": lambda: ProtocolError("bad frame"),
    "ConnectionLost": lambda: ConnectionLost("peer vanished mid-frame"),
    "ReplicaReadOnly": lambda: ReplicaReadOnly("writes go to the leader"),
    "StaleRead": lambda: StaleRead("replica fleet behind watermark 42"),
    "LeaderUnavailable": lambda: LeaderUnavailable("no leader among 3 endpoints"),
    "VerbNotServed": lambda: VerbNotServed("explain is not served by shards://"),
    "ShardError": lambda: ShardError("block is not shard-local-exact"),
    "ShardCommitError": lambda: ShardCommitError(
        "compensation of committed shards failed"),
}


def test_factories_cover_registry_exactly():
    registry = error_registry()
    assert set(FACTORIES) == set(registry), (
        "error classes changed: wire round-trip coverage must be updated "
        "(missing: {}, stale: {})".format(
            set(registry) - set(FACTORIES), set(FACTORIES) - set(registry)))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_roundtrip_preserves_class_and_message(name):
    original = FACTORIES[name]()
    rebuilt = error_from_wire(error_to_wire(original))
    assert type(rebuilt) is type(original)
    assert str(rebuilt) == str(original)
    assert rebuilt.args == tuple(
        a if isinstance(a, (str, int, float, bool, bytes)) or a is None
        else str(a) for a in original.args)


def test_overloaded_retry_after_survives():
    rebuilt = error_from_wire(error_to_wire(
        Overloaded("busy", depth=10, limit=8, retry_after_s=0.25)))
    assert rebuilt.retry_after_s == 0.25
    assert rebuilt.depth == 10
    assert rebuilt.limit == 8


def test_txn_timeout_deadline_survives():
    rebuilt = error_from_wire(error_to_wire(
        TxnTimeout("too slow", deadline_s=2.5)))
    assert rebuilt.deadline_s == 2.5


def test_conflict_preds_survive():
    rebuilt = error_from_wire(error_to_wire(
        ConflictError("conflict", preds=("b", "a"))))
    assert rebuilt.preds == ["a", "b"]
    # message was formatted once server-side; no double suffix
    assert str(rebuilt).count("predicates:") == 1


def test_constraint_violations_survive_as_text():
    original = ConstraintViolation(
        [(_FakeConstraint(), {"s": "widget", "v": -1})])
    rebuilt = error_from_wire(error_to_wire(original))
    assert str(rebuilt) == str(original)
    [(constraint, binding)] = rebuilt.violations
    assert isinstance(constraint, _WireConstraint)
    assert constraint.text == _FakeConstraint.text
    assert binding == {"s": "widget", "v": -1}


def test_back_compat_mixins_survive():
    assert isinstance(
        error_from_wire(error_to_wire(TransactionAborted("x"))), RuntimeError)
    assert isinstance(
        error_from_wire(error_to_wire(UnknownPredicate("x"))), KeyError)
    assert isinstance(
        error_from_wire(error_to_wire(ConnectionLost("x"))), ConnectionError)


def test_unknown_class_degrades_to_base():
    rebuilt = error_from_wire(
        {"type": "FutureFancyError", "args": ("from the future",),
         "attrs": {}})
    assert type(rebuilt) is ReproError
    assert "FutureFancyError" in str(rebuilt)
    assert "from the future" in str(rebuilt)


def test_foreign_exception_wrapped():
    wire = error_to_wire(ValueError("not a repro error"))
    rebuilt = error_from_wire(wire)
    assert type(rebuilt) is ReproError
    assert "not a repro error" in str(rebuilt)

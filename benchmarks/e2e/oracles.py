"""Correctness oracles: what every answer of a run must have been.

Each oracle walks the executed ops after the measured phase (so the
check costs the run no time), rebuilding the expected state in plain
Python, and then reconciles the final relations.  It returns a list of
failure descriptions; one op contributes at most one.
"""

import collections
import math

from repro.engine.evaluator import Evaluator, RuleSet
from repro.logiql.compiler import compile_program
from repro.runtime.workspace import Workspace
from repro.storage.relation import Relation

import harness
import workloads as wl


def _rows(rows):
    rows = [tuple(r) for r in rows]
    try:
        return sorted(rows)
    except TypeError:  # a wrong answer may mix types; it must still compare
        return sorted(rows, key=repr)


def _close(got, want):
    """Row lists equal, floats compared to a relative 1e-9."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class _Report:
    def __init__(self):
        self.failures = []

    def op(self, entry, got, want):
        if not _close(_rows(got), _rows(want)):
            self.failures.append("op {} {} {!r}: got {!r}, expected {!r}".format(
                entry.ordinal, entry.op.kind, entry.op.text,
                _rows(got)[:3], _rows(want)[:3]))

    def final(self, what, got, want):
        if not _close(_rows(got), _rows(want)):
            self.failures.append("final {}: {} rows, expected {}".format(
                what, len(got), len(want)))


def _answered(log, report):
    """The entries in the order they ran; an op that raised is a failure
    and is dropped (its effect is unknown)."""
    for entry in log:
        if entry.error is not None:
            report.failures.append("op {} {} raised {!r}".format(
                entry.ordinal, entry.op.kind, entry.error))
        else:
            yield entry


# -- oltp_tcp: client-side key model + sum reconciliation ----------------------

def check_oltp(data, log, target):
    """One client writes and waits for every reply, so every value and
    every category sum is known exactly at every read."""
    report = _Report()
    inventory = dict(data.loads[0][1])
    cat = dict(data.loads[1][1])
    totals = collections.Counter()
    for key, value in inventory.items():
        totals[cat[key]] += value
    for entry in _answered(log, report):
        kind, args = entry.op.kind, entry.op.args
        if kind == "point":
            report.op(entry, entry.result, [(inventory[args[0]],)])
        elif kind == "rmw":
            inventory[args[0]] -= 1
            totals[cat[args[0]]] -= 1
        elif kind == "view":
            report.op(entry, entry.result, [(totals[args[0]],)])
    session = target.session
    report.final("inventory", session.rows("inventory"), inventory.items())
    report.final("sum(inventory)", session.query(wl.OLTP_SUM),
                 [(sum(inventory.values()),)])
    report.final("bycat", session.rows("bycat"), totals.items())
    return report.failures


# -- analytics_local: brute-force Python answers -------------------------------

def analytics_expected(adj, op):
    kind = op.kind
    if kind == "tri_all":
        return [(a, b, c) for a in adj for b in adj[a] if a < b
                for c in adj[b] if b < c and c in adj[a]]
    n = op.args[0]
    out = adj.get(n, ())
    if kind == "tri_node":
        return [(b, c) for b in out for c in adj.get(b, ())
                if b < c and c in out]
    if kind == "outdeg":
        return [(len(out),)] if out else []
    two = {c for b in out for c in adj.get(b, ())}
    if kind == "hop2":
        return [(c,) for c in two]
    return [(c,) for c in two if c not in out and c != n]  # anti


def check_analytics(data, log, target):
    report = _Report()
    adj = collections.defaultdict(set)
    for a, b in data.loads[0][1]:
        adj[a].add(b)
    memo = {}
    for entry in _answered(log, report):
        want = memo.get(entry.op.text)
        if want is None:
            want = memo[entry.op.text] = analytics_expected(adj, entry.op)
        report.op(entry, entry.result, want)
    report.final("E", target.session.rows("E"), data.loads[0][1])
    return report.failures


# -- ivm_views: edge-set model + full recompute of the views -------------------

def check_ivm(data, log, target):
    report = _Report()
    adj = collections.defaultdict(set)
    for a, b in data.loads[0][1]:
        adj[a].add(b)
    notes = []
    for entry in _answered(log, report):
        op = entry.op
        if op.kind == "note":
            notes.append(op.args)
        elif op.cls == "exec":
            for a, b in op.args[0]:
                adj[a].add(b)
            for a, b in op.args[1]:
                adj[a].discard(b)
        else:
            view, n = op.args
            out = adj.get(n, ())
            if view == "outdeg":
                want = [(len(out),)] if out else []
            elif view == "tri":
                want = [(b, c) for b in out if n < b
                        for c in adj.get(b, ()) if b < c and c in out]
            else:
                want = [(c,) for c in {c for b in out for c in adj.get(b, ())}]
            report.op(entry, entry.result, want)
    session = target.session
    edges = [(a, b) for a in adj for b in adj[a]]
    report.final("E", session.rows("E"), edges)
    ruleset = RuleSet(compile_program(data.schema + data.views).rules)
    relations, _ = Evaluator(ruleset).evaluate({
        "E": Relation.from_iter(2, edges),
        "note": Relation.from_iter(2, notes)})
    for view in ("tri", "outdeg", "reach2"):
        report.final(view, session.rows(view), list(relations[view]))
    return report.failures


# -- shard_orders: row model + single-process Workspace replay -----------------

def check_shards(data, log, target):
    report = _Report()
    initial = set(data.loads[1][1])
    lines = set(initial)
    for entry in _answered(log, report):
        op = entry.op
        if op.cls == "exec":
            lines.update(op.args[0])
            lines.difference_update(op.args[1])
        elif op.kind == "keyed":
            which, order = op.args
            mine = [(l, q) for o, l, q in lines if o == order]
            report.op(entry, entry.result, mine if which == "lines"
                      else [(sum(q for _, q in mine),)])
        else:
            total = sum(q for _, _, q in lines)
            report.op(entry, entry.result, [(total,)] if op.kind == "sum"
                      else [(total / len(lines),)])
    fleet = target.session
    oracle = Workspace()
    harness.install(oracle, data)
    oracle.load("lineitem", sorted(lines - initial), sorted(initial - lines))
    report.final("lineitem model", oracle.rows("lineitem"), lines)
    for pred in ("order", "lineitem", "total"):
        report.final(pred, fleet.rows(pred), oracle.rows(pred))
    for text in (wl.SHARD_SUM, wl.SHARD_AVG):
        report.final(text, fleet.query(text), oracle.query(text))
    return report.failures


CHECKS = {
    "oltp_tcp": check_oltp,
    "analytics_local": check_analytics,
    "ivm_views": check_ivm,
    "shard_orders": check_shards,
}

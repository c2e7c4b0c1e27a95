"""Partial-state aggregate folding: ``avg`` (and every other aggregate)
over a sharded fleet equals the single-process oracle — bit-for-bit on
integers, within a stated bound on floats."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro import stats
from repro.logiql.parser import parse_program
from repro.runtime.workspace import Workspace
from repro.shard import ShardedWorkspace
from tests.shard.test_sharded_workspace import spy_fetches

SCHEMA = (
    "order(o, c) -> int(o), string(c).\n"
    "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
)
PARTITION = {"order": 0, "lineitem": 0}
AVG_QUERIES = [
    # no group: one global state
    "_[] = v <- agg<<v = avg(q)>> lineitem(o, l, q).",
    # grouped by the partition key: each group lives on one shard
    "_[o] = v <- agg<<v = avg(q)>> lineitem(o, l, q).",
    # grouped by a non-partition key through a join: groups span shards
    "_[c] = v <- agg<<v = avg(q)>> order(o, c), lineitem(o, l, q).",
]

item = st.tuples(st.integers(0, 11), st.integers(0, 30),
                 st.integers(-50, 50))
# one step: rows to insert, and how many of the live rows to delete
step = st.tuples(st.lists(item, max_size=12), st.integers(0, 8))


def _pair(n_shards=3):
    sharded = ShardedWorkspace.local(n_shards, dict(PARTITION))
    oracle = Workspace()
    for target in (sharded, oracle):
        target.addblock(SCHEMA, name="schema")
        target.load("order", [(o, "c{}".format(o % 3)) for o in range(12)])
    return sharded, oracle


@settings(max_examples=25, deadline=None)
@given(st.lists(step, max_size=4))
def test_avg_equals_oracle_bit_for_bit_under_inserts_and_deletes(steps):
    sharded, oracle = _pair()
    with sharded:
        live = set()
        # the empty input comes first: no row, no ZeroDivisionError
        for added, n_removed in [((), 0)] + steps:
            removed = sorted(live - set(added))[:n_removed]
            live.difference_update(removed)
            live.update(added)
            for target in (sharded, oracle):
                target.load("lineitem", added, remove=removed)
            counters = {}
            with stats.scope(counters):
                for q in AVG_QUERIES:
                    want = sorted(tuple(r) for r in oracle.query(q))
                    got = sharded.query(q)
                    assert got == want
                    assert [type(r[-1]) for r in got] == [
                        type(r[-1]) for r in want]
            assert counters.get("shard.gather_queries", 0) == 0


def test_float_partials_fold_within_the_stated_bound():
    """Float sums are not bit-equal across accumulation orders; the
    fold adds one ``math.fsum`` rounding on top of the shards' own, and
    stays within ``rel_tol=1e-12`` of the single-process value."""
    rng = random.Random(20260926)
    schema = "reading(s, t, x) -> int(s), int(t), float(x).\n"
    rows = [(s, t, rng.uniform(1e-3, 1e3) * 10 ** rng.randrange(-3, 4))
            for s in range(40) for t in range(50)]
    sharded = ShardedWorkspace.local(3, {"reading": 0})
    oracle = Workspace()
    with sharded:
        for target in (sharded, oracle):
            target.addblock(schema, name="schema")
            target.load("reading", rows)
        for fn in ("sum", "avg"):
            for head in ("_[]", "_[t]"):
                q = "{} = v <- agg<<v = {}(x)>> reading(s, t, x).".format(
                    head, fn)
                got = sharded.query(q)
                want = sorted(tuple(r) for r in oracle.query(q))
                assert [r[:-1] for r in got] == [r[:-1] for r in want]
                for g, w in zip(got, want):
                    assert math.isclose(g[-1], w[-1], rel_tol=1e-12)
        # integer aggregates over the same fleet stay exact
        q = "_[] = n <- agg<<n = count(x)>> reading(s, t, x)."
        assert sharded.query(q) == [(len(rows),)]


def test_avg_rewrite_ships_sum_and_count_in_one_wave():
    sharded, oracle = _pair(2)
    with sharded:
        for target in (sharded, oracle):
            target.load("lineitem", [(o, o, o - 4) for o in range(12)])
        sent = spy_fetches(sharded)
        # an auxiliary rule rides along unchanged; a relational head works
        q = ("neg(o, q) <- lineitem(o, l, q), q < 0.\n"
             "a(c, v) <- agg<<v = avg(q)>> order(o, c), neg(o, q).")
        assert sharded.query(q) == sorted(
            tuple(r) for r in oracle.query(q))
        assert len(sent) == 2 and sent[0] == sent[1]
        text, answer = sent[0]
        assert answer == "shard:state"
        heads = [c.head.pred for c in parse_program(text).clauses]
        assert heads == ["neg", "shard:partial:sum", "shard:partial:count",
                         "shard:state"]

"""In-process sharded workspace: the equivalence property suite (every
sharded result bit-identical to a single-process oracle) plus the
cross-shard commit circuit's failure modes."""

import pytest

from repro import obs, stats
from repro.runtime.errors import ConflictError, TransactionAborted
from repro.runtime.workspace import Workspace
from repro.shard import ShardCommitError, ShardError, ShardedWorkspace
from repro.storage.relation import Delta

SCHEMA = (
    "order(o, c) -> int(o), string(c).\n"
    "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
    "rate(n, v) -> string(n), int(v).\n"
)
PARTITION = {"order": 0, "lineitem": 0}
ORDERS = [(i, "c{}".format(i % 5)) for i in range(40)]
ITEMS = [(i % 40, i, (i * 7) % 23) for i in range(120)]
RATES = [("std", 3), ("bulk", 2)]


def make_pair(n_shards=3):
    sharded = ShardedWorkspace.local(n_shards, dict(PARTITION))
    oracle = Workspace()
    for target in (sharded, oracle):
        target.addblock(SCHEMA, name="schema")
        target.load("order", ORDERS)
        target.load("lineitem", ITEMS)
        target.load("rate", RATES)
    return sharded, oracle


def oracle_rows(oracle, pred):
    return sorted(tuple(r) for r in oracle.rows(pred))


def oracle_query(oracle, source, answer=None):
    return sorted(tuple(r) for r in oracle.query(source, answer))


def traced_query(sharded, source):
    """``(rows, the shard.query span, the counters it bumped)``."""
    counters = {}
    with obs.Profile() as profile, stats.scope(counters):
        rows = sharded.query(source)
    return rows, profile.find("shard.query"), counters


def spy_fetches(sharded):
    """Wrap every backend's ``query``; returns the list that collects
    the ``(program text, answer)`` of each query a shard is sent."""
    seen = []
    for index in range(sharded.shard_map.n_shards):
        backend = sharded._pool.backend(index)

        def spy(source, _query=backend.query, **kwargs):
            seen.append((source, kwargs.get("answer")))
            return _query(source, **kwargs)

        backend.query = spy
    return seen


class TestEquivalence:
    """Same verbs against the sharded fleet and a single process; every
    observable must match bit-for-bit (integer workloads, so aggregate
    recombination is exact)."""

    def test_partitioned_and_replicated_extensions(self):
        sharded, oracle = make_pair()
        with sharded:
            for pred in ("order", "lineitem", "rate"):
                assert sharded.rows(pred) == oracle_rows(oracle, pred)

    def test_fragments_are_disjoint_and_cover(self):
        sharded, oracle = make_pair()
        with sharded:
            fragments = [
                sorted(tuple(r)
                       for r in sharded._pool.backend(i).rows("order"))
                for i in range(3)
            ]
            merged = [row for frag in fragments for row in frag]
            assert len(merged) == len(set(merged))  # disjoint
            assert sorted(merged) == oracle_rows(oracle, "order")
            assert sum(1 for frag in fragments if frag) > 1  # actually split

    def test_copartitioned_view_addblock(self):
        sharded, oracle = make_pair()
        view = "total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).\n"
        with sharded:
            sharded.addblock(view, name="totals")
            oracle.addblock(view, name="totals")
            assert sharded.rows("total") == oracle_rows(oracle, "total")

    def test_scatter_query_deduplicates(self):
        sharded, oracle = make_pair()
        q = "cust(c) <- order(o, c)."
        with sharded:
            assert sharded.query(q) == oracle_query(oracle, q)

    def test_copartitioned_join_query(self):
        sharded, oracle = make_pair()
        q = "big(o, c, q) <- order(o, c), lineitem(o, l, q), q > 15."
        with sharded:
            assert sharded.query(q) == oracle_query(oracle, q)

    @pytest.mark.parametrize("fn,exp", [
        ("sum", None), ("count", None), ("min", None), ("max", None)])
    def test_partial_aggregates_recombine(self, fn, exp):
        sharded, oracle = make_pair()
        q = "g[] = s <- agg<<s = {}(q)>> lineitem(o, l, q).".format(fn)
        with sharded:
            rows = sharded.query(q)
            assert rows == oracle_query(oracle, q)
            assert len(rows) == 1

    def test_grouped_partial_aggregate(self):
        sharded, oracle = make_pair()
        # group key is the *customer*, not the partition key: per-shard
        # partials per customer must fold across shards
        q = ("perCust[c] = s <- agg<<s = sum(q)>> "
             "order(o, c), lineitem(o, l, q).")
        with sharded:
            assert sharded.query(q) == oracle_query(oracle, q)

    def test_avg_folds_partial_state(self):
        sharded, oracle = make_pair()
        q = "a[] = v <- agg<<v = avg(q)>> lineitem(o, l, q)."
        with sharded:
            rows, span_, counters = traced_query(sharded, q)
            assert rows == oracle_query(oracle, q)
            assert span_.attrs["mode"] == "fold"
            # one wave, no base data moved to the coordinator
            assert counters.get("shard.gather_queries", 0) == 0
            assert counters["shard.calls"] == 3
            assert len(span_.find_all("shard.call")) == 3

    def test_broken_query_runs_the_pruned_exchange(self):
        sharded, oracle = make_pair()
        # join keyed on different variables: not shard-local
        q = "pair(a, b) <- order(a, c), order(b, c), a < b."
        with sharded:
            fetched = spy_fetches(sharded)
            rows, span_, counters = traced_query(sharded, q)
            assert rows == oracle_query(oracle, q)
            assert span_.attrs["mode"] == "exchange"
            assert counters["shard.gather_queries"] == 1
            assert span_.attrs["preds_fetched"] == ["order"]
            assert span_.attrs["rows_fetched"] == len(ORDERS)
            # the spy saw every text a shard was sent: lineitem never moved
            assert fetched and all("lineitem" not in t for t, _ in fetched)

    def test_exchange_pushes_literals_into_the_fetch(self):
        sharded, oracle = make_pair()
        with sharded:
            # one atom has no literal: order moves once, not per atom
            q = "pair(b) <- order(7, c), order(b, c)."
            rows, span_, _ = traced_query(sharded, q)
            assert rows == oracle_query(oracle, q) and rows
            assert span_.attrs["rows_fetched"] == len(ORDERS)
            # every atom pins a literal: only matching rows move
            q = ('pair(a, b) <- order(a, "c1"), order(b, "c2"), a < b.')
            rows, span_, _ = traced_query(sharded, q)
            assert rows == oracle_query(oracle, q) and rows
            assert span_.attrs["mode"] == "exchange"
            assert span_.attrs["rows_fetched"] == sum(
                1 for _, c in ORDERS if c in ("c1", "c2"))

    def test_exchange_over_a_view_fetches_only_its_base_predicates(self):
        sharded, oracle = make_pair()
        views = ("total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).\n"
                 "cust(c) <- order(o, c).\n")
        # total is keyed by o, the join is on s: no shard holds both sides
        q = "same(a, b) <- total[a] = s, total[b] = s, a < b."
        with sharded:
            for target in (sharded, oracle):
                target.addblock(views, name="views")
            rows, span_, _ = traced_query(sharded, q)
            assert rows == oracle_query(oracle, q) and rows
            assert span_.attrs["mode"] == "exchange"
            assert span_.attrs["preds_fetched"] == ["lineitem"]
            assert span_.attrs["rows_fetched"] == len(ITEMS)

    def test_exchange_negation_and_replicated_base(self):
        sharded, oracle = make_pair()
        # negation over a scattered auxiliary view, joined with a
        # replicated predicate (fetched from one shard, not three)
        q = ("cust(c) <- order(o, c).\n"
             "_(n) <- rate(n, v), !cust(n).")
        with sharded:
            sharded.load("rate", [("c1", 9)])
            oracle.load("rate", [("c1", 9)])
            rows, span_, counters = traced_query(sharded, q)
            assert rows == oracle_query(oracle, q) == [("bulk",), ("std",)]
            assert span_.attrs["preds_fetched"] == ["order", "rate"]
            assert counters["shard.calls"] == 3 + 1

    def test_exchange_fails_when_a_shard_fetch_fails(self):
        from repro.net.client import ConnectionLost

        sharded, _ = make_pair()
        q = "pair(a, b) <- order(a, c), order(b, c), a < b."
        with sharded:
            victim = sharded._pool.backend(1)
            original = victim.query
            settled = []

            def lost(source, **kwargs):
                raise ConnectionLost("shard 1 went away")

            def slow(source, **kwargs):
                rows = original_last(source, **kwargs)
                settled.append(len(rows))
                return rows

            last = sharded._pool.backend(2)
            original_last = last.query
            victim.query, last.query = lost, slow
            try:
                # a lost fragment is an error, never an empty relation
                with pytest.raises(ConnectionLost):
                    sharded.query(q)
                assert settled  # the wave settled before the raise
            finally:
                victim.query, last.query = original, original_last

    def test_exchange_treats_an_unknown_predicate_as_empty(self):
        from repro.runtime.errors import UnknownPredicate

        sharded, oracle = make_pair()
        q = ("pair(a, b) <- order(a, c), order(b, c), !nowhere(a, b), "
             "a < b.")
        with sharded:
            victim = sharded._pool.backend(0)
            original = victim.query

            def unknown(source, **kwargs):
                if "nowhere" in source:
                    raise UnknownPredicate("nowhere")
                return original(source, **kwargs)

            victim.query = unknown
            try:
                rows = sharded.query(q)
                assert rows == oracle_query(oracle, q) and rows
            finally:
                victim.query = original

    def test_literal_key_query_routes_to_owner(self):
        sharded, oracle = make_pair()
        q = "mine(l, q) <- lineitem(7, l, q)."
        with sharded:
            from repro import stats as _stats

            counters = {}
            with _stats.scope(counters):
                rows = sharded.query(q)
            assert rows == oracle_query(oracle, q)
            assert counters.get("shard.single_shard_queries") == 1

    def test_a_query_shape_is_classified_once_per_installed_program(self, monkeypatch):
        from repro.shard import coordinator

        calls = []
        real = coordinator.classify_rules

        def spy(rules, *args, **kwargs):
            calls.append(len(rules))
            return real(rules, *args, **kwargs)

        monkeypatch.setattr(coordinator, "classify_rules", spy)
        sharded, oracle = make_pair()
        shape = "_(l, q) <- lineitem({}, l, q). // classify-once"
        with sharded:
            assert sharded.query(shape.format(7)) == oracle_query(oracle, shape.format(7))
            del calls[:]
            assert sharded.query(shape.format(8)) == oracle_query(oracle, shape.format(8))
            assert calls == []
            view = "big(o) <- lineitem(o, _, q), q > 20."
            sharded.addblock(view, name="view")
            oracle.addblock(view, name="view")
            del calls[:]
            assert sharded.query(shape.format(9)) == oracle_query(oracle, shape.format(9))
            assert calls == [1]

    def test_replicated_query_routes_to_one_shard(self):
        sharded, oracle = make_pair()
        q = "r(n, v) <- rate(n, v)."
        with sharded:
            assert sharded.query(q) == oracle_query(oracle, q)

    def test_load_with_removals(self):
        sharded, oracle = make_pair()
        gone = ORDERS[::7]
        with sharded:
            sharded.load("order", [], remove=gone)
            oracle.load("order", [], remove=gone)
            assert sharded.rows("order") == oracle_rows(oracle, "order")


class TestExecRouting:
    def test_literal_key_write_routes_single_shard(self):
        sharded, oracle = make_pair()
        src = '+order(1000, "c9"). +lineitem(1000, 777, 5).'
        with sharded:
            from repro import stats as _stats

            counters = {}
            with _stats.scope(counters):
                result = sharded.exec(src)
            # both writes hash key 1000: one shard, no circuit
            assert result.committed
            assert counters.get("shard.single_shard_execs") == 1
            assert not counters.get("shard.circuits")
            oracle.exec(src)
            assert sharded.rows("order") == oracle_rows(oracle, "order")
            assert sharded.rows("lineitem") == oracle_rows(
                oracle, "lineitem")

    def test_cross_shard_write_runs_circuit(self):
        sharded, oracle = make_pair()
        src = "".join(
            '+order({}, "cx").'.format(1000 + i) for i in range(6))
        with sharded:
            from repro import stats as _stats

            counters = {}
            with _stats.scope(counters):
                result = sharded.exec(src)
            assert result.committed and result.kind == "exec"
            assert counters.get("shard.circuits") == 1
            oracle.exec(src)
            assert sharded.rows("order") == oracle_rows(oracle, "order")

    def test_cross_write_sends_no_repair(self):
        # every shard runs the whole program, so the rows a sibling
        # redistributes to it are already in its own effects
        sharded, oracle = make_pair(2)
        src = "".join(
            '+order({0}, "cx"). +lineitem({0}, 1, 2).'.format(2000 + i)
            for i in range(6))
        with sharded:
            counters = {}
            with stats.scope(counters):
                result = sharded.exec(src)
            assert counters.get("shard.circuits") == 1
            assert counters.get("shard.repaired_members", 0) == 0
            assert result.repairs == 0
            oracle.exec(src)
            for pred in ("order", "lineitem"):
                assert sharded.rows(pred) == oracle_rows(oracle, pred)

    def test_rule_driven_write_matches_oracle(self):
        sharded, oracle = make_pair()
        # derived write fanning out from partitioned reads into the
        # partitioned predicate itself (same key: stays owned)
        src = ('+lineitem(o, 9000, 1) <- order(o, c), c = "c1".')
        with sharded:
            sharded.exec(src)
            oracle.exec(src)
            assert sharded.rows("lineitem") == oracle_rows(
                oracle, "lineitem")

    def test_replicated_write_lands_everywhere(self):
        sharded, oracle = make_pair()
        src = '+rate("promo", 1).'
        with sharded:
            sharded.exec(src)
            oracle.exec(src)
            assert sharded.rows("rate") == oracle_rows(oracle, "rate")
            for index in range(3):
                assert ("promo", 1) in {
                    tuple(r)
                    for r in sharded._pool.backend(index).rows("rate")}

    def test_derived_replicated_write_deduplicates(self):
        sharded, oracle = make_pair()
        # every shard derives a subset of the same replicated write from
        # its fragment; the union must be one logical write per row
        src = '+rate(c, 1) <- order(o, c).'
        with sharded:
            sharded.exec(src)
            oracle.exec(src)
            assert sharded.rows("rate") == oracle_rows(oracle, "rate")


class TestRefusals:
    def test_broken_block_refused(self):
        sharded, _ = make_pair()
        with sharded:
            with pytest.raises(ShardError):
                sharded.addblock(
                    "bad(o, l) <- order(o, c), lineitem(l, o, q).")
            assert "bad" not in " ".join(sharded.blocks())

    def test_avg_partial_refused_at_addblock(self):
        sharded, _ = make_pair()
        with sharded:
            # an installed view materializes per-shard *means*, which do
            # not recombine; the per-shard *state* a query folds is not
            # kept (keeping the partition variable is the way out)
            with pytest.raises(ShardError):
                sharded.addblock(
                    "a[] = v <- agg<<v = avg(q)>> lineitem(o, l, q).")

    def test_failed_addblock_rolls_back_everywhere(self):
        sharded, _ = make_pair()
        with sharded:
            # second block redefines total with a broken rule: refused
            # before any shard sees it
            sharded.addblock(
                "total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).",
                name="totals")
            with pytest.raises(ShardError):
                sharded.addblock(
                    "report(s) <- total[o] = s, o > 100000.\n"
                    "bad(o, l) <- order(o, c), lineitem(l, o, q).")
            assert sharded.blocks() == ["schema", "totals"]
            # the refusal fired before any shard saw the block: no
            # shard derives report
            for index in range(3):
                assert sharded._pool.backend(index).query(
                    "_(s) <- report(s).") == []

    def test_narrow_row_aborts_like_the_oracle(self):
        # the row is narrower than its partition column: placement
        # refuses it with the oracle's error class, not an IndexError
        with ShardedWorkspace.local(2, partition={"p": 1}) as sharded:
            for target in (sharded, Workspace()):
                target.addblock("p(x, y) -> int(x), int(y).")
                with pytest.raises(TransactionAborted, match="arity mismatch"):
                    target.load("p", [(1,)])
                target.load("p", [(1, 2)])
                # no stored row is that narrow: removing one changes nothing
                target.load("p", [], remove=[(1,)])
                assert [tuple(r) for r in target.rows("p")] == [(1, 2)]

    def test_closed_coordinator_rejects_verbs(self):
        sharded, _ = make_pair()
        sharded.close()
        with pytest.raises(Exception):
            sharded.rows("order")


class TestCircuitFailures:
    def test_commit_failure_compensates_committed_prefix(self):
        sharded, oracle = make_pair()
        with sharded:
            before = {
                pred: sharded.rows(pred)
                for pred in ("order", "lineitem", "rate")}
            victim = sharded._pool.backend(2)
            original = victim.shard_commit

            def boom(token, deltas, **kwargs):
                victim.shard_abort(token)
                raise RuntimeError("shard 2 crashed at commit")

            victim.shard_commit = boom
            src = "".join(
                '+order({}, "cx").'.format(1000 + i) for i in range(6))
            with pytest.raises(RuntimeError):
                sharded.exec(src)
            victim.shard_commit = original
            # the committed prefix was rolled back: nothing changed
            for pred, rows in before.items():
                assert sharded.rows(pred) == rows

    def test_conflict_retries_whole_circuit(self):
        sharded, oracle = make_pair()
        with sharded:
            victim = sharded._pool.backend(0)
            original = victim.shard_commit
            calls = {"n": 0}

            def flaky(token, deltas, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    victim.shard_abort(token)
                    raise ConflictError("raced a local commit")
                return original(token, deltas, **kwargs)

            victim.shard_commit = flaky
            src = "".join(
                '+order({}, "cx").'.format(1000 + i) for i in range(6))
            result = sharded.exec(src)
            victim.shard_commit = original
            assert result.committed and result.attempts == 2
            oracle.exec(src)
            assert sharded.rows("order") == oracle_rows(oracle, "order")

    def test_compensation_failure_raises_commit_error(self):
        sharded, _ = make_pair()
        with sharded:
            src = "".join(
                '+order({}, "cx").'.format(1000 + i) for i in range(6))
            last = sharded._pool.backend(2)
            first = sharded._pool.backend(0)
            original_commit = last.shard_commit
            original_apply = first.shard_apply

            def boom(token, deltas, **kwargs):
                last.shard_abort(token)
                raise RuntimeError("late crash")

            def no_apply(deltas, **kwargs):
                raise RuntimeError("compensation also failed")

            last.shard_commit = boom
            first.shard_apply = no_apply
            try:
                with pytest.raises(ShardCommitError):
                    sharded.exec(src)
            finally:
                last.shard_commit = original_commit
                first.shard_apply = original_apply


class TestConnectRouting:
    def test_connect_requires_endpoints(self):
        import repro

        with pytest.raises(ValueError):
            repro.connect("shards://")


def test_corrections_skip_rows_the_shard_derived_itself():
    r1, r2 = (1, "a"), (2, "b")
    with ShardedWorkspace.local(2, {"order": 0}) as sharded:
        own = {0: {"order": Delta.from_iters([r1], [])}, 1: {}}
        incoming = {0: {"order": ({r1, r2}, set())}, 1: {}}
        assert sharded._corrections_for(0, own, incoming) == {
            "order": ({r2}, set())}

"""Incremental view maintenance: equivalence with recomputation, cost
proportionality, and the rule-level short-circuit."""

import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.ivm import IncrementalEngine
from repro.engine.rules import AggSpec, Rule
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.storage.relation import Delta, Relation

TRIANGLE_RULES = [
    Rule("tri", [Var("a"), Var("b"), Var("c")],
         [PredAtom("E", [Var("a"), Var("b")]),
          PredAtom("E", [Var("b"), Var("c")]),
          PredAtom("E", [Var("a"), Var("c")])]),
]


def fresh_eval(rules, relations):
    out, _ = Evaluator(RuleSet(rules)).evaluate(relations)
    return out


class TestBasicMaintenance:
    def test_insert_creates_triangle(self):
        E = Relation.from_iter(2, [(1, 2), (2, 3)])
        engine = IncrementalEngine(RuleSet(TRIANGLE_RULES))
        mat = engine.initialize({"E": E})
        assert len(mat.relations["tri"]) == 0
        mat, deltas = engine.apply(mat, {"E": Delta.from_iters([(1, 3)], ())})
        assert set(mat.relations["tri"]) == {(1, 2, 3)}
        assert set(deltas["tri"].added) == {(1, 2, 3)}

    def test_delete_removes_triangle(self):
        E = Relation.from_iter(2, [(1, 2), (2, 3), (1, 3)])
        engine = IncrementalEngine(RuleSet(TRIANGLE_RULES))
        mat = engine.initialize({"E": E})
        assert len(mat.relations["tri"]) == 1
        mat, deltas = engine.apply(mat, {"E": Delta.from_iters((), [(2, 3)])})
        assert len(mat.relations["tri"]) == 0
        assert set(deltas["tri"].removed) == {(1, 2, 3)}

    def test_counting_keeps_multiply_derived(self):
        # proj(y) derived from two tuples; deleting one keeps it
        A = Relation.from_iter(2, [(1, 9), (2, 9)])
        rules = [Rule("proj", [Var("y")], [PredAtom("A", [Var("x"), Var("y")])])]
        engine = IncrementalEngine(RuleSet(rules))
        mat = engine.initialize({"A": A})
        mat, deltas = engine.apply(mat, {"A": Delta.from_iters((), [(1, 9)])})
        assert set(mat.relations["proj"]) == {(9,)}
        assert "proj" not in deltas  # no visible change
        mat, deltas = engine.apply(mat, {"A": Delta.from_iters((), [(2, 9)])})
        assert len(mat.relations["proj"]) == 0

    def test_noop_delta(self):
        E = Relation.from_iter(2, [(1, 2)])
        engine = IncrementalEngine(RuleSet(TRIANGLE_RULES))
        mat = engine.initialize({"E": E})
        mat2, deltas = engine.apply(mat, {"E": Delta.from_iters([(1, 2)], ())})
        assert not deltas
        assert mat2.relations["E"] == mat.relations["E"]

    def test_unknown_base_pred_rejected(self):
        engine = IncrementalEngine(RuleSet(TRIANGLE_RULES))
        mat = engine.initialize({"E": Relation.empty(2)})
        with pytest.raises(KeyError):
            engine.apply(mat, {"nope": Delta.from_iters([(1,)], ())})


class TestSensitivityShortCircuit:
    def test_unaffected_delta_skips_rule(self):
        """One recorder across the run's rules: ``other`` reads ``F``
        only under the constant 7, so an ``F`` row elsewhere cannot
        change the run, and maintaining one under 7 leaves ``tri`` be."""
        E = Relation.from_iter(2, [(1, 2), (2, 3), (1, 3)])
        # view over a *different* predicate entirely
        rules = TRIANGLE_RULES + [
            Rule("other", [Var("x")], [PredAtom("F", [Var("x"), Const(7)])]),
        ]
        engine = IncrementalEngine(RuleSet(rules))
        recorder = SensitivityRecorder()
        mat = engine.initialize({"E": E, "F": Relation.empty(2)}, recorder=recorder)
        index = SensitivityIndex(recorder)
        assert index.tuple_affects("E", (5, 6))
        assert index.tuple_affects("F", (4, 7))
        assert not index.tuple_affects("F", (4, 8))
        mat, deltas = engine.apply(mat, {"F": Delta.from_iters([(4, 7)], ())})
        assert set(mat.relations["other"]) == {(4,)}
        assert "tri" not in deltas


class TestAggregateMaintenance:
    RULES = [
        Rule("total", [Var("k"), Var("u")],
             [PredAtom("A", [Var("k"), Var("e"), Var("v")])],
             agg=AggSpec("sum", "u", "v"), n_keys=1),
        Rule("peak", [Var("k"), Var("u")],
             [PredAtom("A", [Var("k"), Var("e"), Var("v")])],
             agg=AggSpec("max", "u", "v"), n_keys=1),
    ]

    def test_sum_updates(self):
        A = Relation.from_iter(3, [("g", 1, 10.0), ("g", 2, 5.0)])
        engine = IncrementalEngine(RuleSet(self.RULES))
        mat = engine.initialize({"A": A})
        assert set(mat.relations["total"]) == {("g", 15.0)}
        mat, deltas = engine.apply(mat, {"A": Delta.from_iters([("g", 3, 2.0)], ())})
        assert set(mat.relations["total"]) == {("g", 17.0)}
        assert set(deltas["total"].removed) == {("g", 15.0)}
        assert set(deltas["total"].added) == {("g", 17.0)}

    def test_max_survives_non_extremum_delete(self):
        A = Relation.from_iter(3, [("g", 1, 10.0), ("g", 2, 30.0)])
        engine = IncrementalEngine(RuleSet(self.RULES))
        mat = engine.initialize({"A": A})
        mat, deltas = engine.apply(mat, {"A": Delta.from_iters((), [("g", 1, 10.0)])})
        assert set(mat.relations["peak"]) == {("g", 30.0)}
        assert "peak" not in deltas

    def test_max_recomputes_on_extremum_delete(self):
        A = Relation.from_iter(3, [("g", 1, 10.0), ("g", 2, 30.0)])
        engine = IncrementalEngine(RuleSet(self.RULES))
        mat = engine.initialize({"A": A})
        mat, _ = engine.apply(mat, {"A": Delta.from_iters((), [("g", 2, 30.0)])})
        assert set(mat.relations["peak"]) == {("g", 10.0)}

    def test_group_disappears(self):
        A = Relation.from_iter(3, [("g", 1, 10.0)])
        engine = IncrementalEngine(RuleSet(self.RULES))
        mat = engine.initialize({"A": A})
        mat, deltas = engine.apply(mat, {"A": Delta.from_iters((), [("g", 1, 10.0)])})
        assert len(mat.relations["total"]) == 0
        assert len(mat.relations["peak"]) == 0


class TestRandomizedEquivalence:
    PROGRAM = [
        Rule("tri", [Var("a"), Var("b"), Var("c")],
             [PredAtom("E", [Var("a"), Var("b")]),
              PredAtom("E", [Var("b"), Var("c")]),
              PredAtom("E", [Var("a"), Var("c")])]),
        Rule("lonely", [Var("x")],
             [PredAtom("V", [Var("x")]),
              PredAtom("E", [Var("x"), Var("w")], negated=True)]),
        Rule("outdeg", [Var("x"), Var("u")],
             [PredAtom("E", [Var("x"), Var("y")])],
             agg=AggSpec("count", "u", "y"), n_keys=1),
        Rule("tc", [Var("x"), Var("y")], [PredAtom("E", [Var("x"), Var("y")])]),
        Rule("tc", [Var("x"), Var("z")],
             [PredAtom("tc", [Var("x"), Var("y")]),
              PredAtom("E", [Var("y"), Var("z")])]),
    ]

    def test_long_random_run(self):
        rng = random.Random(99)
        dom = 10
        E = Relation.from_iter(
            2,
            {(rng.randrange(dom), rng.randrange(dom)) for _ in range(25)},
        )
        V = Relation.from_iter(1, [(i,) for i in range(dom)])
        ruleset = RuleSet(self.PROGRAM)
        engine = IncrementalEngine(ruleset)
        mat = engine.initialize({"E": E, "V": V})
        for step in range(25):
            added = {
                (rng.randrange(dom), rng.randrange(dom))
                for _ in range(rng.randrange(3))
            }
            removed = set(
                rng.sample(list(mat.relations["E"]),
                           min(len(mat.relations["E"]), rng.randrange(3)))
            )
            mat, _ = engine.apply(
                mat, {"E": Delta.from_iters(added - removed, removed)}
            )
            fresh = fresh_eval(self.PROGRAM, {"E": mat.relations["E"], "V": V})
            for pred in ("tri", "lonely", "outdeg", "tc"):
                assert set(mat.relations[pred]) == set(fresh[pred]), (step, pred)


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
        ),
        max_size=8,
    ),
)
def test_property_ivm_equals_recompute(initial, updates):
    rules = [
        Rule("join", [Var("a"), Var("c")],
             [PredAtom("E", [Var("a"), Var("b")]),
              PredAtom("E", [Var("b"), Var("c")])]),
        Rule("nonref", [Var("x")],
             [PredAtom("E", [Var("x"), Var("y")]),
              PredAtom("E", [Var("x"), Var("x")], negated=True)]),
        # a repeated existential: x has an edge and E has no self-loop
        Rule("noloop", [Var("x")],
             [PredAtom("E", [Var("x"), Var("y")]),
              PredAtom("E", [Var("w"), Var("w")], negated=True)]),
    ]
    engine = IncrementalEngine(RuleSet(rules))
    mat = engine.initialize({"E": Relation.from_iter(2, initial)})
    for op, tup in updates:
        delta = (
            Delta.from_iters([tup], ()) if op == "add" else Delta.from_iters((), [tup])
        )
        mat, _ = engine.apply(mat, {"E": delta})
        fresh = fresh_eval(rules, {"E": mat.relations["E"]})
        assert set(mat.relations["join"]) == set(fresh["join"])
        assert set(mat.relations["nonref"]) == set(fresh["nonref"])
        assert set(mat.relations["noloop"]) == set(fresh["noloop"]) == {
            (x,) for x, _ in mat.relations["E"]
            if all(a != b for a, b in mat.relations["E"])}


# -- support counts are stored only above one ---------------------------------

SUPPORT_RULES = [
    # reach2: one derivation per middle node b
    Rule("reach2", [Var("a"), Var("c")],
         [PredAtom("E", [Var("a"), Var("b")]), PredAtom("E", [Var("b"), Var("c")])]),
    # two rules for one head: (x, y) and (y, x) both edges, or x == y
    Rule("sym", [Var("x"), Var("y")], [PredAtom("E", [Var("x"), Var("y")])]),
    Rule("sym", [Var("x"), Var("y")], [PredAtom("E", [Var("y"), Var("x")])]),
    # existential projection: c is local, so one derivation per b
    Rule("hop", [Var("a")],
         [PredAtom("E", [Var("a"), Var("b")]), PredAtom("E", [Var("b"), Var("c")])]),
    # negation: one derivation per y without a back edge
    Rule("oneway", [Var("x")],
         [PredAtom("E", [Var("x"), Var("y")]),
          PredAtom("E", [Var("y"), Var("x")], negated=True)]),
]


def derivations(edges):
    """Per view and head: its number of derivations, counted naively."""
    out = {"reach2": {}, "sym": {}, "hop": {}, "oneway": {}}

    def count(pred, head):
        out[pred][head] = out[pred].get(head, 0) + 1

    for a, b in edges:
        for b2, c in edges:
            if b == b2:
                count("reach2", (a, c))
        count("sym", (a, b))
        count("sym", (b, a))
        if (b, a) not in edges:
            count("oneway", (a,))
    for a, b in edges:
        if any(b == b2 for b2, _ in edges):
            count("hop", (a,))
    return out


def assert_support_matches(mat, expected):
    """Rows are the heads with a derivation; stored counts are exactly
    the counts above one."""
    for pred, support in expected.items():
        assert set(mat.relations[pred]) == set(support), pred
        stored = dict(mat.states[pred].counts.items())
        assert stored == {h: n for h, n in support.items() if n > 1}, pred


@pytest.mark.parametrize("backend", ["pure", "columnar"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    initial=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    updates=st.lists(
        st.tuples(
            st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
            st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
        ),
        max_size=8,
    ),
)
def test_property_stored_counts_are_the_ones_above_one(force_executor, backend, initial,
                                                      updates):
    force_executor(backend)
    ruleset = RuleSet(SUPPORT_RULES)
    engine = IncrementalEngine(ruleset)
    mat = engine.initialize({"E": Relation.from_iter(2, initial)})
    assert_support_matches(mat, derivations(set(initial)))
    for added, removed in updates:
        delta = Delta.from_iters(added - removed, removed)
        mat, _ = engine.apply(mat, {"E": delta})
        edges = set(mat.relations["E"])
        fresh = Evaluator(ruleset).evaluate({"E": mat.relations["E"]})[0]
        for pred in ("reach2", "sym", "hop", "oneway"):
            assert list(mat.relations[pred]) == list(fresh[pred]), pred
        assert_support_matches(mat, derivations(edges))


# -- versions own their materializations; commit cost follows the delta ------

IVM_VIEWS = (
    "E(x, y) -> int(x), int(y).\n"
    "tri(a, b, c) <- E(a, b), E(b, c), E(a, c), a < b, b < c.\n"
    "outdeg[a] = n <- agg<<n = count(b)>> E(a, b).\n"
    "reach2(a, c) <- E(a, b), E(b, c).\n"
)


def views_workspace(n_nodes=300):
    """The ``ivm_views`` data set of ``benchmarks/e2e`` (labels unshuffled)."""
    from repro import Workspace
    from repro.datasets.graphs import powerlaw_graph

    ws = Workspace()
    ws.addblock(IVM_VIEWS, name="views")
    ws.load("E", powerlaw_graph(n_nodes, 3, seed=20150531))
    return ws


def materialized(mat):
    """Per predicate: its rows and, when it has them, its support counts."""
    return {
        pred: (list(relation), list(mat.states[pred].counts.items())
               if pred in mat.states else None)
        for pred, relation in mat.relations.items()
    }


class TestVersionsOwnTheirSensitivities:
    """A version's materialization — rows and support counts; the
    workspace records no sensitivity intervals — is never changed by
    work staged on it."""

    def test_staging_on_a_snapshot_leaves_it_unchanged(self):
        ws, control = views_workspace(60), views_workspace(60)
        snapshot = ws.version()
        before = materialized(snapshot.state.materialization)
        staged = {"E": Delta.from_iters([(500, 501), (501, 7), (7, 500)], ())}
        new_state, _ = ws._stage_deltas(snapshot.state, staged)
        assert materialized(new_state.materialization) != before
        assert materialized(snapshot.state.materialization) == before
        # the staged transaction never committed: later versions must not
        # carry what it derived
        for workspace in (ws, control):
            workspace.exec("+E(3, 41).")
        assert materialized(ws.state.materialization) == materialized(
            control.state.materialization
        )

    def test_concurrent_staging_on_one_snapshot(self):
        import sys
        import threading

        ws = views_workspace(60)
        snapshot = ws.version()
        before = materialized(snapshot.state.materialization)
        errors = []

        def stage(offset):
            try:
                for step in range(200):
                    edge = (offset + step, (offset + 7 * step) % 60)
                    ws._stage_deltas(
                        snapshot.state, {"E": Delta.from_iters([edge], ())}
                    )
            except BaseException as error:  # reported by the assert below
                errors.append(error)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=stage, args=(offset,), daemon=True)
                for offset in (1000, 2000)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert materialized(snapshot.state.materialization) == before


def test_commit_bookkeeping_does_not_grow_with_history():
    """Alternating insert/delete of one edge: no commit folds a
    sensitivity interval, and the materialization after 120 commits is
    the one after 20."""
    ws = views_workspace()
    ws.reset_engine_stats()
    stored = {}
    for commit in range(1, 121):
        ws.exec("+E(17, 203)." if commit % 2 else "-E(17, 203).")
        if commit in (20, 120):
            stored[commit] = materialized(ws.state.materialization)
    assert stored[120] == stored[20]
    assert ws.engine_stats()["ivm.applies"] == 120
    assert "sensitivity.folded" not in ws.engine_stats()


def test_maintenance_and_repair_joins_carry_no_recorder(monkeypatch):
    """Only a transaction's initial run records sensitivity: no join of
    :meth:`IncrementalEngine.apply` (counting, aggregate and DRed
    strata) or of :meth:`PreparedTransaction.correct` gets a recorder."""
    from repro import Workspace
    from repro.engine import evaluator
    from repro.txn.repair import PreparedTransaction

    recorders = []
    make_join = evaluator.make_join

    def spy(plan, relations, recorder=None, **kwargs):
        recorders.append(recorder)
        return make_join(plan, relations, recorder, **kwargs)

    monkeypatch.setattr(evaluator, "make_join", spy)
    a, b, c, n = Var("a"), Var("b"), Var("c"), Var("n")
    engine = IncrementalEngine(RuleSet(TRIANGLE_RULES + [
        Rule("outdeg", [a, n], [PredAtom("E", [a, b])],
             agg=AggSpec("count", "n", "b"), n_keys=1),
        Rule("reach", [a, b], [PredAtom("E", [a, b])]),
        Rule("reach", [a, c], [PredAtom("reach", [a, b]), PredAtom("E", [b, c])]),
    ]))
    mat = engine.initialize({"E": Relation.from_iter(2, [(1, 2), (2, 3), (1, 3)])})
    del recorders[:]
    mat, deltas = engine.apply(mat, {"E": Delta.from_iters([(3, 1)], [(1, 2)])})
    assert {"tri", "outdeg", "reach"} <= set(deltas)
    assert recorders and recorders == [None] * len(recorders)

    ws = Workspace()
    ws.addblock("inventory[s] = v -> string(s), int(v).")
    ws.load("inventory", [("a", 5)])
    first, second = (PreparedTransaction(
        '^inventory["a"] = x <- inventory@start["a"] = y, x = y - 1.')
        for _ in range(2))
    first.execute(ws.state)
    second.execute(ws.state)
    del recorders[:]
    second.correct(second.relevant_corrections(first.effects))
    assert set(second.effects["inventory"].added) == {("a", 3)}
    assert recorders and recorders == [None] * len(recorders)


def test_a_bare_exec_records_nothing_and_a_session_exec_records(monkeypatch):
    """Nothing checks a bare :meth:`Workspace.exec` against another
    transaction, so its run hands no join a recorder and a big
    rule-driven exec runs columnar; a session's exec, which the service
    may have to repair, still records."""
    import repro
    from repro import Workspace, stats
    from repro.engine import evaluator

    recorders = []
    make_join = evaluator.make_join

    def spy(plan, relations, recorder=None, **kwargs):
        recorders.append(recorder)
        return make_join(plan, relations, recorder, **kwargs)

    monkeypatch.setattr(evaluator, "make_join", spy)
    schema = "E(x, y) -> int(x), int(y). F(x, y) -> int(x), int(y)."
    rows = [(i, (i * 7) % 2000) for i in range(2000)]
    rule = "+F(x, y) <- E@start(x, y), x < y."
    ws = Workspace()
    ws.addblock(schema)
    ws.load("E", rows)
    before = stats.snapshot()
    del recorders[:]
    ws.exec(rule)
    assert recorders and recorders == [None] * len(recorders)
    assert stats.delta_since(before).get("join.backend.columnar", 0) >= 1
    assert len(ws.rows("F")) == sum(1 for x, y in rows if x < y)

    with repro.connect() as session:
        session.addblock(schema)
        session.load("E", rows[:50])
        del recorders[:]
        session.exec(rule)
    assert any(recorder is not None for recorder in recorders)


def test_live_objects_track_data_not_commits():
    """A head does not pin the states it superseded: after 40 and after
    440 alternating insert/delete commits of one edge, the data is the
    same, and so (within 5 %) is the number of live gc-tracked objects."""
    ws = views_workspace()

    def live_after(commits):
        for commit in range(commits):
            ws.exec("+E(17, 203)." if commit % 2 == 0 else "-E(17, 203).")
        gc.collect()
        return len(gc.get_objects())

    warm = live_after(40)
    later = live_after(400)
    assert later <= 1.05 * warm, (warm, later)


def test_views_graph_stores_only_multi_derivation_counts():
    """After a seeded stream of inserts and deletes on the ``ivm_views``
    graph, ``reach2`` stores one count per head with two or more middle
    nodes and ``tri`` (every triangle derived once) stores none; most
    support updates write nothing to the map (about three in four)."""
    ws = views_workspace()
    rng = random.Random(28)
    ws.reset_engine_stats()
    for _ in range(40):
        edges = ws.rows("E")
        removed = rng.sample(edges, rng.choice((1, 8)))
        added = {(rng.randrange(300), rng.randrange(300)) for _ in range(rng.choice((1, 8)))}
        ws.exec("".join("+E({}, {}).".format(*e) for e in added - set(edges))
                + "".join("-E({}, {}).".format(*e) for e in removed))
    stats = ws.engine_stats()
    assert 0 < 2 * stats["ivm.count_writes"] < stats["ivm.support_updates"]
    edges = ws.rows("E")
    middles = {}
    for a, b in edges:
        for c in (c for b2, c in edges if b2 == b):
            middles[a, c] = middles.get((a, c), 0) + 1
    states = ws.state.materialization.states
    assert ws.rows("reach2") == sorted(middles)
    assert dict(states["reach2"].counts.items()) == {
        head: n for head, n in middles.items() if n > 1}
    assert len(states["reach2"].counts) < len(middles)
    assert ws.rows("tri") and len(states["tri"].counts) == 0


def test_bulk_load_through_views_picks_columnar(force_executor):
    """Maintenance carries no sensitivity recorder, so a load of over
    1,024 edges through installed views runs its large delta passes on
    the columnar executor, and derives what the pure executor does."""
    from repro import Workspace
    from repro.datasets.graphs import powerlaw_graph

    edges = powerlaw_graph(300, 3, seed=20150531)
    assert len(edges) >= 1024
    views, chosen = {}, {}
    for engine in (None, "pure"):
        force_executor(engine)
        ws = Workspace()
        ws.addblock(IVM_VIEWS, name="views")
        ws.reset_engine_stats()
        ws.load("E", edges)
        chosen[engine] = ws.engine_stats()["columnar"]["chosen"]
        views[engine] = {pred: ws.rows(pred) for pred in ("tri", "reach2", "outdeg")}
    assert chosen[None]["columnar"] > 0
    assert chosen["pure"]["columnar"] == 0
    assert views[None] == views["pure"]


# -- a commit pays for its delta ----------------------------------------------


def _circulant_views(n_nodes):
    """``IVM_VIEWS`` over a graph whose every node has out-degree 3, so a
    one-edge change touches the same neighbourhood at any size."""
    from repro import Workspace

    ws = Workspace()
    ws.addblock(IVM_VIEWS, name="views")
    ws.load("E", [(i, (i + step) % n_nodes)
                  for i in range(n_nodes) for step in (1, 3, 7)])
    return ws


def test_one_edge_insert_seeks_do_not_grow_with_the_graph(force_executor):
    """Each delta pass leads with its ``@cand`` atom, so no level opens
    over every source node: the seeks of one edge insert into ``reach2``
    and ``tri`` are about the same at 1,000 and 8,000 edges."""
    force_executor("pure")

    def seeks(n_nodes):
        ws = _circulant_views(n_nodes)
        assert len(ws.relation("E")) == 3 * n_nodes
        with ws.profile() as prof:
            ws.exec("+E(10, 200).")
        joins = [s for s in prof.find_all("join")
                 if s.attrs["rule"] in ("reach2", "tri")]
        assert {s.attrs["rule"] for s in joins} == {"reach2", "tri"}
        return sum(s.attrs.get("seeks", 0) for s in joins)

    small, large = seeks(334), seeks(2667)  # 1,002 and 8,001 edges
    assert 0 < large <= 2 * small and small <= 2 * large


def test_one_key_write_allocates_its_delta_not_the_relation(force_executor):
    """A write to a relation a view reads costs its delta: one one-key
    ``exec`` peaks at about the same allocation over 32,000
    ``inventory`` rows as over 2,000 (no version carries a copy of the
    relation that every write must rebuild)."""
    import tracemalloc

    from repro import Workspace

    force_executor("pure")

    def peak_bytes(n_rows):
        ws = Workspace()
        ws.addblock("hot(s) -> string(s). "
                    "inventory[s] = v -> string(s), int(v).", name="base")
        ws.load("inventory", [("s%d" % i, i) for i in range(n_rows)])
        ws.load("hot", [("s%d" % i,) for i in range(8)])
        # the view is installed over loaded data: its first evaluation
        # is a full one over all of inventory
        ws.addblock("hotv[s] = v <- hot(s), inventory[s] = v.", name="views")
        for value in range(3):  # warm every cache a write can reach
            ws.exec('^inventory["s3"] = %d <- .' % value)
        tracemalloc.start()
        try:
            ws.exec('^inventory["s3"] = 7 <- .')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws.rows("hotv")[3] == ("s3", 7)
        return peak

    small, large = peak_bytes(2000), peak_bytes(32000)
    assert large <= 2 * small, (small, large)


def test_functional_check_reads_only_the_changed_keys(monkeypatch, force_executor):
    """A derived functional head checks its dependency per added key:
    the rows the check reads are the same at 1,000 and 8,000 rows."""
    from repro import Workspace
    from repro.engine import ivm

    real = ivm._check_functional
    read = []

    class Counting:
        def __init__(self, relation):
            self.relation = relation

        def __iter__(self):
            for row in self.relation:
                read.append(row)
                yield row

        def iter_prefix(self, prefix):
            for row in self.relation.iter_prefix(prefix):
                read.append(row)
                yield row

    monkeypatch.setattr(
        ivm, "_check_functional",
        lambda pred, rule, relation, *rest: real(pred, rule, Counting(relation), *rest))

    force_executor("pure")

    def work(rows):
        ws = Workspace()
        ws.addblock("src(k, v) -> int(k), int(v). f[k] = v <- src(k, v).")
        ws.load("src", [(i, i * 2) for i in range(rows)])
        del read[:]
        ws.exec("+src(-1, 5). +src(-2, 6). -src(7, 14).")
        assert ws.relation("f").lookup((-1,)) == 5
        return len(read)

    assert 0 < work(1000) == work(8000)


def test_functional_violation_is_caught_per_key():
    from repro import Workspace
    from repro.engine.evaluator import FunctionalDependencyViolation

    ws = Workspace()
    ws.addblock("src(k, v) -> int(k), int(v). f[k] = v <- src(k, v).")
    ws.load("src", [(i, i * 2) for i in range(100)])
    with pytest.raises(FunctionalDependencyViolation,
                       match=r"f\[\(7,\)\] derived with conflicting values"):
        ws.exec("+src(7, 1). +src(9, 18).")
    assert ws.relation("f").lookup((7,)) == 14


def test_a_64_edge_insert_builds_at_most_four_fifths_of_the_nodes_it_did(monkeypatch):
    """One 64-edge ``exec`` on the ``ivm_views`` schema and views (a
    300-node, degree-3 power-law graph) constructs 8,344 treap nodes;
    it constructed 16,461 when a :class:`Delta` held two treaps and
    every write was set algebra over them.  Deltas are sorted runs now,
    written into each treap in one descent, so the bound is 0.8x that."""
    from repro import Workspace
    from repro.datasets.graphs import powerlaw_graph
    from repro.ds import treap

    ws = Workspace()
    ws.addblock("E(x, y) -> int(x), int(y).\n"
                "tri(a, b, c) <- E(a, b), E(b, c), E(a, c), a < b, b < c.\n"
                "outdeg[a] = n <- agg<<n = count(b)>> E(a, b).\n"
                "reach2(a, c) <- E(a, b), E(b, c).\n")
    edges = sorted(set(powerlaw_graph(300, 3, seed=20150531)))
    ws.load("E", edges)
    rng = random.Random(64)
    present, fresh = set(edges), []
    while len(fresh) < 64:
        edge = (rng.randrange(300), rng.randrange(300))
        if edge[0] != edge[1] and edge not in present:
            present.add(edge)
            fresh.append(edge)
    built = [0]

    def counting(self, *args, _real=treap.Node.__init__):
        built[0] += 1
        _real(self, *args)

    monkeypatch.setattr(treap.Node, "__init__", counting)
    ws.exec("".join("+E({}, {}).".format(*edge) for edge in fresh))
    monkeypatch.undo()
    assert len(ws.rows("E")) == len(edges) + 64
    assert built[0] <= 0.8 * 16461, built[0]

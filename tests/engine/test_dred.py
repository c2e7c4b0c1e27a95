"""DRed maintenance: recursion through deletions, rederivation."""

import random

from repro.engine.dred import DRedEngine
from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import PredAtom, Var
from repro.engine.rules import AggSpec, Rule
from repro.storage.relation import Delta, Relation

TC_RULES = [
    Rule("tc", [Var("x"), Var("y")], [PredAtom("E", [Var("x"), Var("y")])]),
    Rule("tc", [Var("x"), Var("z")],
         [PredAtom("tc", [Var("x"), Var("y")]),
          PredAtom("E", [Var("y"), Var("z")])]),
]


def tc_closure(edges):
    reach = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    return reach


class TestDRedTransitiveClosure:
    def test_insert_edge(self):
        engine = DRedEngine(RuleSet(TC_RULES))
        relations = engine.initialize({"E": Relation.from_iter(2, [(1, 2)])})
        relations, deltas = engine.apply(
            relations, {"E": Delta.from_iters([(2, 3)], ())}
        )
        assert set(relations["tc"]) == {(1, 2), (2, 3), (1, 3)}
        assert set(deltas["tc"].added) == {(2, 3), (1, 3)}

    def test_delete_with_rederivation(self):
        # diamond: deleting one path keeps reachability via the other
        edges = [(1, 2), (2, 4), (1, 3), (3, 4)]
        engine = DRedEngine(RuleSet(TC_RULES))
        relations = engine.initialize({"E": Relation.from_iter(2, edges)})
        assert (1, 4) in relations["tc"]
        relations, deltas = engine.apply(
            relations, {"E": Delta.from_iters((), [(2, 4)])}
        )
        assert (1, 4) in relations["tc"]  # rederived via 3
        assert (2, 4) not in relations["tc"]

    def test_delete_cascades(self):
        edges = [(1, 2), (2, 3), (3, 4)]
        engine = DRedEngine(RuleSet(TC_RULES))
        relations = engine.initialize({"E": Relation.from_iter(2, edges)})
        relations, deltas = engine.apply(
            relations, {"E": Delta.from_iters((), [(2, 3)])}
        )
        assert set(relations["tc"]) == {(1, 2), (3, 4)}
        removed = set(deltas["tc"].removed)
        assert removed == {(2, 3), (1, 3), (2, 4), (1, 4)}

    def test_cycle_deletion(self):
        edges = [(1, 2), (2, 1)]
        engine = DRedEngine(RuleSet(TC_RULES))
        relations = engine.initialize({"E": Relation.from_iter(2, edges)})
        assert (1, 1) in relations["tc"]
        relations, _ = engine.apply(relations, {"E": Delta.from_iters((), [(2, 1)])})
        assert set(relations["tc"]) == {(1, 2)}

    def test_randomized_against_closure(self):
        rng = random.Random(17)
        edges = {(rng.randrange(7), rng.randrange(7)) for _ in range(10)}
        engine = DRedEngine(RuleSet(TC_RULES))
        relations = engine.initialize({"E": Relation.from_iter(2, edges)})
        current = set(edges)
        for _ in range(20):
            if rng.random() < 0.5 or not current:
                tup = (rng.randrange(7), rng.randrange(7))
                delta = Delta.from_iters([tup], ())
                current.add(tup)
            else:
                tup = rng.choice(sorted(current))
                delta = Delta.from_iters((), [tup])
                current.discard(tup)
            relations, _ = engine.apply(relations, {"E": delta})
            assert set(relations["tc"]) == tc_closure(current)


class TestDRedNonRecursive:
    def test_plain_views(self):
        rules = [
            Rule("big", [Var("x")],
                 [PredAtom("A", [Var("x"), Var("y")])]),
        ]
        engine = DRedEngine(RuleSet(rules))
        relations = engine.initialize(
            {"A": Relation.from_iter(2, [(1, 2), (1, 3)])}
        )
        # deleting one support keeps the tuple (rederivation saves it)
        relations, deltas = engine.apply(
            relations, {"A": Delta.from_iters((), [(1, 2)])}
        )
        assert set(relations["big"]) == {(1,)}
        relations, _ = engine.apply(relations, {"A": Delta.from_iters((), [(1, 3)])})
        assert len(relations["big"]) == 0

    def test_aggregates_fall_back_to_recompute(self):
        rules = [
            Rule("total", [Var("u")],
                 [PredAtom("A", [Var("k"), Var("v")])],
                 agg=AggSpec("sum", "u", "v"), n_keys=0),
        ]
        engine = DRedEngine(RuleSet(rules))
        relations = engine.initialize(
            {"A": Relation.from_iter(2, [("a", 1.0), ("b", 2.0)])}
        )
        assert set(relations["total"]) == {(3.0,)}
        relations, deltas = engine.apply(
            relations, {"A": Delta.from_iters([("c", 4.0)], ())}
        )
        assert set(relations["total"]) == {(7.0,)}
        assert "total" in deltas


# -- a right-linear closure: the delta atom is the *last* body atom -----------

RIGHT_LINEAR = [
    Rule("path", [Var("x"), Var("y")], [PredAtom("E", [Var("x"), Var("y")])]),
    Rule("path", [Var("x"), Var("z")],
         [PredAtom("E", [Var("x"), Var("y")]),
          PredAtom("path", [Var("y"), Var("z")])]),
]


def test_right_linear_closure_equals_recompute_under_edits():
    """Delta passes over ``path(y, z)`` lead with it, so ``E(x, y)`` is
    probed through its second column; semi-naive evaluation, DRed and
    the incremental engine must all still agree with the closure."""
    from repro.engine.ivm import IncrementalEngine

    rng = random.Random(29)
    edges = {(rng.randrange(9), rng.randrange(9)) for _ in range(12)}
    ruleset = RuleSet(RIGHT_LINEAR)
    dred = DRedEngine(ruleset)
    ivm = IncrementalEngine(ruleset)
    relations = dred.initialize({"E": Relation.from_iter(2, edges)})
    mat = ivm.initialize({"E": Relation.from_iter(2, edges)})
    current = set(edges)
    assert set(relations["path"]) == set(mat.relations["path"]) == tc_closure(current)
    for _ in range(40):
        if rng.random() < 0.5 or not current:
            tup = (rng.randrange(9), rng.randrange(9))
            delta = Delta.from_iters([tup], ())
            current.add(tup)
        else:
            tup = rng.choice(sorted(current))
            delta = Delta.from_iters((), [tup])
            current.discard(tup)
        relations, _ = dred.apply(relations, {"E": delta})
        mat, _ = ivm.apply(mat, {"E": delta})
        fresh, _ = Evaluator(ruleset).evaluate({"E": Relation.from_iter(2, current)})
        expected = tc_closure(current)
        assert set(fresh["path"]) == expected
        assert set(relations["path"]) == expected
        assert set(mat.relations["path"]) == expected

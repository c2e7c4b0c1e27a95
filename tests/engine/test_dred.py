"""DRed maintenance: recursion through deletions, rederivation."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import Const, PredAtom, Var
from repro.engine.ivm import DRedEngine, IncrementalEngine
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


# -- negation below recursion, and mutual recursion ---------------------------

def _negation_rules():
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    return [
        Rule("reach", [x, y], [PredAtom("E", [x, y])]),
        # a negated atom with every argument bound
        Rule("reach", [x, z], [PredAtom("reach", [x, y]), PredAtom("E", [y, z]),
                               PredAtom("B", [y, z], negated=True)]),
        # a negated atom with a local existential variable: w is used once
        Rule("reach", [x, z], [PredAtom("reach", [x, y]), PredAtom("E", [y, z]),
                               PredAtom("B", [z, w], negated=True)]),
        # a mutually recursive pair: paths of odd and of even length
        Rule("odd", [x, y], [PredAtom("E", [x, y])]),
        Rule("even", [x, z], [PredAtom("odd", [x, y]), PredAtom("E", [y, z])]),
        Rule("odd", [x, z], [PredAtom("even", [x, y]), PredAtom("E", [y, z]),
                             PredAtom("B", [y, w], negated=True)]),
    ]


_PAIRS = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edges=st.sets(_PAIRS, max_size=10),
    blocked=st.sets(_PAIRS, max_size=4),
    updates=st.lists(
        st.tuples(st.sampled_from(["E", "B"]), st.booleans(), _PAIRS),
        min_size=1, max_size=10),
)
def test_recursion_through_negation_agrees_with_recompute(force_executor, edges, blocked,
                                                         updates):
    """Inserts and deletes to the edge predicate and to the negated one:
    removing a ``B`` tuple inserts through a negated atom inside the
    recursive strata, which holds only when no other ``B`` tuple still
    blocks the same prefix.  The incremental engine, whole-program DRed
    and a fresh evaluation must agree on every derived predicate, the
    first two on each forced executor, the fresh one on pure."""
    ruleset = RuleSet(_negation_rules())
    force_executor("pure")
    current = {"E": set(edges), "B": set(blocked)}
    expected = []
    for pred, insert, tup in updates:
        (current[pred].add if insert else current[pred].discard)(tup)
        fresh, _ = Evaluator(ruleset).evaluate(
            {name: Relation.from_iter(2, tuples) for name, tuples in current.items()})
        expected.append({derived: set(fresh[derived]) for derived in ("reach", "odd", "even")})
    for executor in ("pure", "columnar"):
        force_executor(executor)
        base = {"E": Relation.from_iter(2, edges), "B": Relation.from_iter(2, blocked)}
        ivm = IncrementalEngine(ruleset)
        mat = ivm.initialize(base)
        dred = DRedEngine(ruleset)
        relations = dred.initialize(base)
        for (pred, insert, tup), derived in zip(updates, expected):
            delta = Delta.from_iters([tup], ()) if insert else Delta.from_iters((), [tup])
            mat, _ = ivm.apply(mat, {pred: delta})
            relations, _ = dred.apply(relations, {pred: delta})
            assert {name: set(mat.relations[name]) for name in derived} == derived, executor
            assert {name: set(relations[name]) for name in derived} == derived, executor


def test_recursive_atom_with_a_local_variable_agrees_with_recompute():
    """``live(x) <- r(x, w)`` reads its recursive atom through a local
    ``w``: its passes lead with the changed prefixes ``x``, not the
    changed tuples.  The incremental engine, whole-program DRed and a
    fresh evaluation must agree."""
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    ruleset = RuleSet([
        Rule("r", [x, y], [PredAtom("E", [x, y])]),
        Rule("r", [x, z], [PredAtom("r", [x, y]), PredAtom("E", [y, z]),
                           PredAtom("live", [y])]),
        Rule("live", [x], [PredAtom("r", [x, w]), PredAtom("S", [x])]),
    ])
    rng = random.Random(43)
    current = {"E": {(rng.randrange(6), rng.randrange(6)) for _ in range(10)},
               "S": {(rng.randrange(6),) for _ in range(4)}}
    base = {pred: Relation.from_iter(len(next(iter(t))), t) for pred, t in current.items()}
    ivm = IncrementalEngine(ruleset)
    mat = ivm.initialize(base)
    dred = DRedEngine(ruleset)
    relations = dred.initialize(base)
    for _ in range(60):
        pred = rng.choice(["E", "E", "S"])
        tup = (rng.randrange(6), rng.randrange(6))[:2 if pred == "E" else 1]
        delta = (Delta.from_iters((), [tup]) if tup in current[pred]
                 else Delta.from_iters([tup], ()))
        current[pred] ^= {tup}
        mat, _ = ivm.apply(mat, {pred: delta})
        relations, _ = dred.apply(relations, {pred: delta})
        fresh, _ = Evaluator(ruleset).evaluate({
            "E": Relation.from_iter(2, current["E"]),
            "S": Relation.from_iter(1, current["S"])})
        for derived in ("r", "live"):
            expected = set(fresh[derived])
            assert set(mat.relations[derived]) == expected, derived
            assert set(relations[derived]) == expected, derived


def test_rederive_respects_constant_and_repeated_head_arguments():
    """Rederive leads each rule's pass with the over-deleted heads as
    ``@head`` over the rule's own head arguments: with a constant or a
    repeated variable in a head, each rule must still restore exactly
    the heads it derives."""
    x, y = Var("x"), Var("y")
    ruleset = RuleSet([
        Rule("r", [x, Const(0)], [PredAtom("E", [x, y])]),
        Rule("r", [x, Const(1)], [PredAtom("r", [y, Const(0)]), PredAtom("E", [x, y])]),
        Rule("r", [x, Const(0)], [PredAtom("r", [y, Const(1)]), PredAtom("E", [x, y])]),
        Rule("s", [x, x], [PredAtom("E", [x, x])]),
        Rule("s", [x, x], [PredAtom("s", [y, y]), PredAtom("E", [y, x])]),
        Rule("s", [x, y], [PredAtom("s", [x, x]), PredAtom("E", [x, y])]),
    ])
    rng = random.Random(3)
    for _ in range(40):
        current = {(rng.randrange(5), rng.randrange(5)) for _ in range(6)}
        dred = DRedEngine(ruleset)
        relations = dred.initialize({"E": Relation.from_iter(2, current)})
        for _ in range(8):
            if rng.random() < 0.5 or not current:
                tup = (rng.randrange(5), rng.randrange(5))
                delta = Delta.from_iters([tup], ())
                current.add(tup)
            else:
                tup = rng.choice(sorted(current))
                delta = Delta.from_iters((), [tup])
                current.discard(tup)
            relations, _ = dred.apply(relations, {"E": delta})
            fresh, _ = Evaluator(ruleset).evaluate({"E": Relation.from_iter(2, current)})
            assert set(relations["r"]) == set(fresh["r"])
            assert set(relations["s"]) == set(fresh["s"])

"""Full LFTJ: correctness against brute force, worst-case optimality."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin, join_count
from repro.engine.planner import build_plan
from repro.storage.relation import Relation


def run(atoms, relations, var_order=None, output=None):
    plan = build_plan(atoms, var_order=var_order, output_vars=output or ())
    rows = set(LeapfrogTrieJoin(plan, relations).run())
    if output:
        positions = [plan.var_order.index(v) for v in output]
        return {tuple(r[p] for p in positions) for r in rows}
    return rows


def brute_triangles(edges):
    edge_set = set(edges)
    by_src = {}
    for a, b in edges:
        by_src.setdefault(a, []).append(b)
    out = set()
    for a, b in edges:
        for c in by_src.get(b, ()):
            if (a, c) in edge_set:
                out.add((a, b, c))
    return out


class TestTriangles:
    def test_small_graph(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 1), (2, 1)]
        relation = Relation.from_iter(2, edges)
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("E", [Var("b"), Var("c")]),
            PredAtom("E", [Var("a"), Var("c")]),
        ]
        assert run(atoms, {"E": relation}, ["a", "b", "c"]) == brute_triangles(edges)

    def test_random_graphs_all_var_orders(self):
        rng = random.Random(3)
        edges = set()
        while len(edges) < 120:
            a, b = rng.randrange(15), rng.randrange(15)
            if a != b:
                edges.add((a, b))
        relation = Relation.from_iter(2, edges)
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("E", [Var("b"), Var("c")]),
            PredAtom("E", [Var("a"), Var("c")]),
        ]
        expected = brute_triangles(edges)
        for order in itertools.permutations(["a", "b", "c"]):
            result = run(atoms, {"E": relation}, var_order=list(order))
            remapped = {
                tuple(r[order.index(v)] for v in ("a", "b", "c")) for r in result
            }
            assert remapped == expected, order


class TestFeatures:
    def setup_method(self):
        self.S = Relation.from_iter(2, [(1, 10), (2, 20), (3, 30)])
        self.T = Relation.from_iter(1, [(2,)])

    def test_constants(self):
        atoms = [PredAtom("S", [Const(2), Var("y")])]
        assert run(atoms, {"S": self.S}, output=["y"]) == {(20,)}
        atoms = [PredAtom("S", [Var("x"), Const(99)])]
        assert run(atoms, {"S": self.S}, output=["x"]) == set()

    def test_negation(self):
        atoms = [
            PredAtom("S", [Var("x"), Var("y")]),
            PredAtom("T", [Var("x")], negated=True),
        ]
        assert run(atoms, {"S": self.S, "T": self.T}, output=["x"]) == {(1,), (3,)}

    def test_negation_with_local_existential(self):
        U = Relation.from_iter(1, [(1,), (2,), (9,)])
        atoms = [
            PredAtom("U", [Var("x")]),
            PredAtom("S", [Var("x"), Var("anything")], negated=True),
        ]
        assert run(atoms, {"U": U, "S": self.S}, output=["x"]) == {(9,)}

    def test_comparisons(self):
        atoms = [
            PredAtom("S", [Var("x"), Var("y")]),
            CompareAtom(">", Var("y"), Const(15)),
        ]
        assert run(atoms, {"S": self.S}, output=["x"]) == {(2,), (3,)}
        atoms = [
            PredAtom("S", [Var("x"), Var("y")]),
            CompareAtom("!=", Var("x"), Const(2)),
        ]
        assert run(atoms, {"S": self.S}, output=["x"]) == {(1,), (3,)}

    def test_arithmetic_assignment(self):
        atoms = [
            PredAtom("S", [Var("x"), Var("y")]),
            AssignAtom("z", BinOp("*", Var("y"), Const(2))),
        ]
        assert run(atoms, {"S": self.S}, output=["x", "z"]) == {
            (1, 20), (2, 40), (3, 60),
        }

    def test_assignment_joins_back(self):
        # z computed AND constrained by another atom: singleton intersect
        atoms = [
            PredAtom("S", [Var("x"), Var("y")]),
            AssignAtom("z", BinOp("+", Var("x"), Const(1))),
            PredAtom("T", [Var("z")]),
        ]
        assert run(atoms, {"S": self.S, "T": self.T}, output=["x"]) == {(1,)}

    def test_repeated_variable(self):
        R = Relation.from_iter(2, [(1, 1), (1, 2), (3, 3)])
        atoms = [PredAtom("R", [Var("x"), Var("x")])]
        assert run(atoms, {"R": R}, output=["x"]) == {(1,), (3,)}

    def test_wildcard_projection(self):
        atoms = [PredAtom("S", [Var("x"), Var("unused")])]
        assert run(atoms, {"S": self.S}, output=["x"]) == {(1,), (2,), (3,)}

    def test_cross_product(self):
        A = Relation.from_iter(1, [(1,), (2,)])
        B = Relation.from_iter(1, [("x",), ("y",)])
        atoms = [PredAtom("A", [Var("a")]), PredAtom("B", [Var("b")])]
        assert run(atoms, {"A": A, "B": B}, output=["a", "b"]) == {
            (1, "x"), (1, "y"), (2, "x"), (2, "y"),
        }

    def test_empty_relation_shortcircuit(self):
        atoms = [
            PredAtom("S", [Var("x"), Var("y")]),
            PredAtom("Z", [Var("x")]),
        ]
        assert run(atoms, {"S": self.S, "Z": Relation.empty(1)}) == set()

    def test_ground_positive_atom(self):
        atoms = [
            PredAtom("T", [Const(2)]),
            PredAtom("S", [Var("x"), Var("y")]),
        ]
        assert len(run(atoms, {"S": self.S, "T": self.T}, output=["x"])) == 3
        atoms[0] = PredAtom("T", [Const(5)])
        assert run(atoms, {"S": self.S, "T": self.T}, output=["x"]) == set()

    def test_ground_negated_atom(self):
        atoms = [
            PredAtom("T", [Const(5)], negated=True),
            PredAtom("S", [Var("x"), Var("y")]),
        ]
        assert len(run(atoms, {"S": self.S, "T": self.T}, output=["x"])) == 3


def test_anti_seeks_per_parent_binding_are_bounded_by_the_negated_keys():
    """``_(c) <- E(0, b), E(b, c), !E(0, c)``: each parent ``b`` opens
    one cursor on ``E(0, ·)`` and seeks it only past negated keys, so
    ``anti_seeks`` is at most ``|E(0, ·)| + 1`` per ``b``, not one probe
    per candidate ``c``; the leapfrog ``seeks`` do not include them."""
    out = range(1, 11)
    edges = [(0, b) for b in out] + [(b, c) for b in out for c in range(41)]
    atoms = [
        PredAtom("E", [Const(0), Var("b")]),
        PredAtom("E", [Var("b"), Var("c")]),
        PredAtom("E", [Const(0), Var("c")], negated=True),
    ]
    relations = {"E": Relation.from_iter(2, edges)}

    def run_counted(atoms):
        plan = build_plan(atoms, var_order=["b", "c"], output_vars=["c"])
        stats = {}
        return list(LeapfrogTrieJoin(plan, relations, stats=stats).run()), stats

    rows, stats = run_counted(atoms)
    assert {c for _, c in rows} == set(range(41)) - set(out)
    assert stats["steps"] == len(out) * (1 + 41)  # one probe per candidate before
    assert stats["anti_seeks"] <= len(out) * (len(out) + 1)
    _, positive = run_counted(atoms[:2])
    assert "anti_seeks" not in positive
    assert (stats["seeks"], stats["nexts"]) == (positive["seeks"], positive["nexts"])


class TestWorstCaseOptimality:
    def test_output_bounded_by_agm(self):
        """LFTJ search steps stay within ~AGM bound (N^1.5 for triangles)."""
        rng = random.Random(5)
        for n_edges in (50, 150, 400):
            edges = set()
            while len(edges) < n_edges:
                a, b = rng.randrange(40), rng.randrange(40)
                if a != b:
                    edges.add((a, b))
            relation = Relation.from_iter(2, edges)
            atoms = [
                PredAtom("E", [Var("a"), Var("b")]),
                PredAtom("E", [Var("b"), Var("c")]),
                PredAtom("E", [Var("a"), Var("c")]),
            ]
            plan = build_plan(atoms, var_order=["a", "b", "c"])
            stats = {}
            executor = LeapfrogTrieJoin(plan, {"E": relation}, stats=stats)
            count = sum(1 for _ in executor.run())
            agm = n_edges**1.5
            assert stats["steps"] <= 4 * agm + 10 * n_edges, (
                n_edges, stats["steps"], agm,
            )
            assert count == len(brute_triangles(edges))


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
)
def test_two_way_join_matches_brute_force(r_tuples, s_tuples):
    R = Relation.from_iter(2, r_tuples)
    S = Relation.from_iter(2, s_tuples)
    atoms = [
        PredAtom("R", [Var("a"), Var("b")]),
        PredAtom("S", [Var("b"), Var("c")]),
    ]
    result = run(atoms, {"R": R, "S": S}, output=["a", "b", "c"])
    expected = {
        (a, b, c) for (a, b) in r_tuples for (b2, c) in s_tuples if b == b2
    }
    assert result == expected

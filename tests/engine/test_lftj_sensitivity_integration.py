"""LFTJ sensitivity recording on multi-level joins: soundness checks.

The sensitivity index recorded during a run must be *sound*: any
single-tuple change that alters the join result must fall inside a
recorded interval.  These tests verify that exhaustively on small
domains.
"""

import itertools
import random

from repro.engine.ir import PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.storage.relation import Relation


def run_with_recorder(atoms, relations, var_order=None):
    plan = build_plan(atoms, var_order=var_order,
                      output_vars=[v for v in (var_order or [])] or None)
    recorder = SensitivityRecorder()
    result = set(LeapfrogTrieJoin(plan, relations, recorder).run())
    return result, SensitivityIndex().fold(recorder)


def exhaustive_soundness(atoms, relations, domain, var_order):
    """For every possible single-tuple flip in every relation: if the
    result changes, the index must have flagged the tuple."""
    plan = build_plan(atoms, var_order=var_order, output_vars=var_order)
    baseline = set(LeapfrogTrieJoin(plan, relations).run())
    _, index = run_with_recorder(atoms, relations, var_order)
    missed = []
    for name, relation in relations.items():
        for tup in itertools.product(domain, repeat=relation.arity):
            flipped = (
                relation.remove(tup) if tup in relation else relation.insert(tup)
            )
            env = dict(relations)
            env[name] = flipped
            changed = set(LeapfrogTrieJoin(plan, env).run()) != baseline
            if changed and not index.tuple_affects(name, tup):
                missed.append((name, tup))
    return missed


class TestSoundness:
    def test_two_way_join(self):
        domain = range(4)
        R = Relation.from_iter(2, [(0, 1), (1, 2), (3, 3)])
        S = Relation.from_iter(2, [(1, 0), (2, 2)])
        atoms = [
            PredAtom("R", [Var("a"), Var("b")]),
            PredAtom("S", [Var("b"), Var("c")]),
        ]
        missed = exhaustive_soundness(
            atoms, {"R": R, "S": S}, domain, ["a", "b", "c"]
        )
        assert not missed, missed

    def test_triangle(self):
        domain = range(4)
        E = Relation.from_iter(2, [(0, 1), (1, 2), (0, 2), (2, 0)])
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("E", [Var("b"), Var("c")]),
            PredAtom("E", [Var("a"), Var("c")]),
        ]
        missed = exhaustive_soundness(atoms, {"E": E}, domain, ["a", "b", "c"])
        assert not missed, missed

    def test_with_negation(self):
        domain = range(3)
        R = Relation.from_iter(1, [(0,), (1,), (2,)])
        N = Relation.from_iter(1, [(1,)])
        atoms = [
            PredAtom("R", [Var("x")]),
            PredAtom("N", [Var("x")], negated=True),
        ]
        missed = exhaustive_soundness(atoms, {"R": R, "N": N}, domain, ["x"])
        assert not missed, missed

    def test_randomized(self):
        rng = random.Random(12)
        domain = range(4)
        for trial in range(8):
            R = Relation.from_iter(
                2,
                {(rng.randrange(4), rng.randrange(4)) for _ in range(5)},
            )
            S = Relation.from_iter(
                2,
                {(rng.randrange(4), rng.randrange(4)) for _ in range(5)},
            )
            atoms = [
                PredAtom("R", [Var("a"), Var("b")]),
                PredAtom("S", [Var("b"), Var("c")]),
            ]
            missed = exhaustive_soundness(
                atoms, {"R": R, "S": S}, domain, ["a", "b", "c"]
            )
            assert not missed, (trial, missed)


class TestPrecision:
    def test_some_changes_are_skippable(self):
        """The index is not trivially 'everything': the Figure 3 kind of
        insensitivity shows up in binary joins too."""
        R = Relation.from_iter(2, [(0, 1), (5, 9)])
        S = Relation.from_iter(2, [(1, 2)])
        atoms = [
            PredAtom("R", [Var("a"), Var("b")]),
            PredAtom("S", [Var("b"), Var("c")]),
        ]
        _, index = run_with_recorder(atoms, {"R": R, "S": S}, ["a", "b", "c"])
        # S values far above anything R produces are skipped regions
        skippable = [
            tup
            for tup in [(7, 0), (8, 3)]
            if not index.tuple_affects("S", tup)
        ]
        assert skippable, "expected at least one provably irrelevant tuple"

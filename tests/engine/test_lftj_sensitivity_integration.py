"""LFTJ sensitivity recording on multi-level joins: soundness checks.

The sensitivity index recorded during a run must be *sound*: any
single-tuple change that alters the join result must fall inside a
recorded interval.  These tests verify that exhaustively on small
domains.
"""

import itertools
import random

from repro.engine.evaluator import RuleSet
from repro.engine.ir import CompareAtom, PredAtom, Var
from repro.engine.ivm import IncrementalEngine
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.engine.rules import Rule
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.storage.datum import BOTTOM, TOP
from repro.storage.relation import Delta, Relation


def run_with_recorder(atoms, relations, var_order=None):
    plan = build_plan(atoms, var_order=var_order,
                      output_vars=[v for v in (var_order or [])] or None)
    recorder = SensitivityRecorder()
    result = set(LeapfrogTrieJoin(plan, relations, recorder).run())
    return result, SensitivityIndex(recorder)


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


def _recorded(recorder):
    """A recorder's contents as plain nested dicts:
    ``pred -> perm -> depth -> context -> {(low, high)}``."""
    return {
        pred: {
            perm: {
                depth: {context: set(intervals) for context, intervals in contexts.items()}
                for depth, contexts in levels.items()
            }
            for perm, levels in perms.items()
        }
        for pred, perms in recorder._data.items()
    }


class TestNegationRecordingIsPinned:
    """The exact intervals a negated atom records, whichever operator
    checks it: one point per checked candidate, on the atom's bound
    columns in argument order, existential columns last."""

    R = Relation.from_iter(2, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (3, 3)])
    E = Relation.from_iter(2, [(0, 2), (1, 0), (2, 1), (3, 0), (3, 3)])
    R_RECORDED = {
        (0, 1): {
            0: {(): {(BOTTOM, 0), (0, 1), (1, 3), (3, TOP)}},
            1: {
                (0,): {(BOTTOM, 1), (1, 2), (2, 3), (3, TOP)},
                (1,): {(BOTTOM, 0), (0, 2), (2, TOP)},
                (3,): {(BOTTOM, 3), (3, TOP)},
            },
        }
    }

    def run(self, negated):
        atoms = [
            PredAtom("R", [Var("n"), Var("c")]),
            negated,
            CompareAtom("!=", Var("c"), Var("n")),
        ]
        plan = build_plan(atoms, var_order=["n", "c"], output_vars=["n", "c"])
        recorder = SensitivityRecorder()
        rows = list(LeapfrogTrieJoin(plan, {"R": self.R, "E": self.E}, recorder).run())
        recorded = _recorded(recorder)
        assert recorded.pop("R") == self.R_RECORDED
        return rows, recorded

    def test_level_variable_last(self):
        rows, recorded = self.run(PredAtom("E", [Var("n"), Var("c")], negated=True))
        assert rows == [(0, 1), (0, 3), (1, 2)]
        assert recorded == {"E": {(0, 1): {1: {
            (0,): {(1, 1), (2, 2), (3, 3)},
            (1,): {(0, 0), (2, 2)},
            (3,): {(3, 3)},
        }}}}

    def test_level_variable_first(self):
        rows, recorded = self.run(PredAtom("E", [Var("c"), Var("n")], negated=True))
        assert rows == [(0, 2), (1, 0)]
        assert recorded == {"E": {(0, 1): {1: {
            (0,): {(1, 1)},
            (1,): {(0, 0)},
            (2,): {(0, 0), (1, 1)},
            (3,): {(0, 0), (3, 3)},
        }}}}

    def test_existential_column(self):
        rows, recorded = self.run(PredAtom("E", [Var("c"), Var("w")], negated=True))
        assert rows == []
        assert recorded == {"E": {(0, 1): {0: {(): {(0, 0), (1, 1), (2, 2), (3, 3)}}}}}


class TestRepairPassRecordingIsPinned:
    """The deltas :meth:`IncrementalEngine.apply` derives over reactive
    rules whose changed atom has an existential column (``w``, used
    once): one pass per distinct changed prefix of ``A``, probed once.
    Maintenance records no intervals (``test_ivm.py``
    ``test_maintenance_and_repair_joins_carry_no_recorder``)."""

    def test_existential_changed_atom(self):
        x, w = Var("x"), Var("w")
        engine = IncrementalEngine(RuleSet([
            Rule("+hit", [x], [PredAtom("A@start", [x, w]), PredAtom("B@start", [x])]),
            Rule("+miss", [x], [PredAtom("B@start", [x]),
                                PredAtom("A@start", [x, w], negated=True)]),
        ]))
        mat = engine.initialize({
            "A@start": Relation.from_iter(2, [(1, 10), (2, 20), (2, 21), (4, 40)]),
            "B@start": Relation.from_iter(1, [(1,), (2,), (3,), (4,), (5,)]),
        })
        # prefix 2 is both added and removed, 5 is added twice
        delta = Delta.from_iters([(3, 30), (2, 22), (5, 50), (5, 51)],
                                 [(1, 10), (2, 20), (4, 40)])
        mat, deltas = engine.apply(mat, {"A@start": delta})
        assert sorted(deltas["+hit"].added) == [(3,), (5,)]
        assert sorted(deltas["+hit"].removed) == [(1,), (4,)]
        assert sorted(deltas["+miss"].added) == [(1,), (4,)]
        assert sorted(deltas["+miss"].removed) == [(3,), (5,)]

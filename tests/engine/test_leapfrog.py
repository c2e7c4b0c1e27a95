"""Unary leapfrog join — including the paper's Figure 3, verbatim."""

from repro.engine.iterators import trie_iterator
from repro.engine.leapfrog import LeapfrogJoin
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder
from repro.storage.datum import BOTTOM, TOP
from repro.storage.relation import Relation


def unary_cursor(values):
    """A trie iterator opened on the unary relation of ``values``."""
    cursor = trie_iterator(Relation.from_iter(1, [(v,) for v in values]), (0,))
    cursor.open()
    return cursor


def run_join(*sets, recorder=None, names=None):
    cursors = [unary_cursor(s) for s in sets]
    trackers = None
    if recorder is not None:
        trackers = [
            recorder.tracker(name, (0,), 0, ()) for name in names
        ]
    join = LeapfrogJoin(cursors, trackers)
    out = []
    while not join.at_end():
        out.append(join.key)
        join.next()
    return out


class TestFigure3:
    """The paper's running example, asserted verbatim."""

    A = [0, 1, 3, 4, 5, 6, 7, 8, 9, 11]
    B = [0, 2, 6, 7, 8, 9]
    C = [2, 4, 5, 8, 10]

    def test_intersection_is_8(self):
        assert run_join(self.A, self.B, self.C) == [8]

    def test_sensitivity_intervals_match_paper(self):
        recorder = SensitivityRecorder()
        run_join(self.A, self.B, self.C, recorder=recorder, names="ABC")
        index = SensitivityIndex(recorder)
        assert index.intervals_for("A")[0][()] == [
            (BOTTOM, 0), (2, 3), (8, 8), (10, 11),
        ]
        assert index.intervals_for("B")[0][()] == [
            (BOTTOM, 0), (3, 6), (8, 8), (11, TOP),
        ]
        assert index.intervals_for("C")[0][()] == [
            (BOTTOM, 2), (6, 8), (8, 10),
        ]

    def test_paper_claims_about_changes(self):
        recorder = SensitivityRecorder()
        run_join(self.A, self.B, self.C, recorder=recorder, names="ABC")
        index = SensitivityIndex(recorder)
        # "inserting the fact C(3) or deleting the fact C(4) would not
        # affect the computation"
        assert not index.tuple_affects("C", (3,))
        assert not index.tuple_affects("C", (4,))
        # changes inside recorded intervals do affect it
        assert index.tuple_affects("C", (7,))
        assert index.tuple_affects("A", (2,))
        assert index.tuple_affects("B", (5,))
        assert index.tuple_affects("B", (100,))  # [11, +inf]
        assert not index.tuple_affects("A", (1,))


class TestLeapfrogGeneral:
    def test_pairwise(self):
        assert run_join([1, 2, 3], [2, 3, 4]) == [2, 3]

    def test_disjoint(self):
        assert run_join([1, 3], [2, 4]) == []

    def test_identical(self):
        assert run_join([1, 2], [1, 2], [1, 2]) == [1, 2]

    def test_single_iterator(self):
        assert run_join([5, 6, 7]) == [5, 6, 7]

    def test_one_empty(self):
        assert run_join([1, 2], []) == []

    def test_strings(self):
        assert run_join(["a", "b", "d"], ["b", "c", "d"]) == ["b", "d"]

    def test_seek_interface(self):
        cursors = [unary_cursor([1, 3, 5, 7, 9]), unary_cursor([3, 5, 7])]
        join = LeapfrogJoin(cursors)
        assert join.key == 3
        join.seek(6)
        assert join.key == 7
        join.next()
        assert join.at_end()

    def test_randomized_vs_set_intersection(self):
        import random

        rng = random.Random(42)
        for _ in range(50):
            sets = [
                set(rng.sample(range(60), rng.randint(0, 25)))
                for _ in range(rng.randint(1, 5))
            ]
            expected = sorted(set.intersection(*sets)) if sets else []
            assert run_join(*sets) == expected

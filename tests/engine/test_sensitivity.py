"""Sensitivity recorders and indexes beyond the Figure 3 golden test."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sensitivity import (
    SensitivityIndex,
    SensitivityRecorder,
    canonical_pred,
)
from repro.storage.datum import BOTTOM, TOP


class TestCanonicalNames:
    def test_passthrough(self):
        assert canonical_pred("sales") == "sales"
        assert canonical_pred("+sales") == "+sales"

    def test_delta_pass_names(self):
        assert canonical_pred("@new:sales") == "sales"
        assert canonical_pred("@old:sales") == "sales"

    def test_virtuals_dropped(self):
        assert canonical_pred("@cand") is None
        assert canonical_pred("@head") is None
        assert canonical_pred("@bound:x") is None

    def test_start_stripped(self):
        assert canonical_pred("inventory@start") == "inventory"
        assert canonical_pred("@new:inventory@start") == "inventory"


class TestRecorder:
    def test_contextual_intervals(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0, 1), 1, ("a",)).record(1, 5)
        recorder.tracker("R", (0, 1), 1, ("b",)).record(10, 20)
        index = SensitivityIndex().fold(recorder)
        assert index.tuple_affects("R", ("a", 3))
        assert not index.tuple_affects("R", ("a", 9))
        assert index.tuple_affects("R", ("b", 15))
        assert not index.tuple_affects("R", ("c", 3))

    def test_permuted_lookup(self):
        recorder = SensitivityRecorder()
        # recorded under the (1, 0) secondary index
        recorder.tracker("R", (1, 0), 0, ()).record(5, 5)
        index = SensitivityIndex().fold(recorder)
        # tuple (x, 5) permutes to (5, x): level 0 value is 5
        assert index.tuple_affects("R", ("x", 5))
        assert not index.tuple_affects("R", ("x", 6))

    def test_record_point_and_everything(self):
        recorder = SensitivityRecorder()
        recorder.record_prefix("N", (0, 1), ("a", 1))
        recorder.record_everything("B")
        index = SensitivityIndex().fold(recorder)
        assert index.tuple_affects("N", ("a", 1))
        assert not index.tuple_affects("N", ("a", 2))
        assert index.tuple_affects("B", ("anything",))

    def test_record_prefix(self):
        recorder = SensitivityRecorder()
        recorder.record_prefix("R", (0, 1), ("k",))
        index = SensitivityIndex().fold(recorder)
        assert index.tuple_affects("R", ("k", 99))
        assert not index.tuple_affects("R", ("other", 99))

    def test_fold_leaves_the_folded_index_untouched(self):
        first_pass = SensitivityRecorder()
        first_pass.tracker("R", (0,), 0, ()).record(1, 2)
        first_pass.tracker("R", (0, 1), 1, ("a",)).record(3, 4)
        first = SensitivityIndex().fold(first_pass)
        second_pass = SensitivityRecorder()
        second_pass.tracker("R", (0,), 0, ()).record(5, 6)
        second = first.fold(second_pass)
        assert second is not first
        assert first.intervals_for("R", (0,)) == {0: {(): [(1, 2)]}}
        assert second.intervals_for("R", (0,)) == {0: {(): [(1, 2), (5, 6)]}}
        # the context the second pass never opened is the same object
        assert (second.by_pred["R"][(0, 1)][1][("a",)]
                is first.by_pred["R"][(0, 1)][1][("a",)])

    def test_fold_of_known_intervals_keeps_the_stored_lists(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0,), 0, ()).record(1, 10)
        recorder.tracker("R", (0,), 0, ()).record(12, 12)
        first = SensitivityIndex().fold(recorder)
        again = SensitivityRecorder()
        again.tracker("R", (0,), 0, ()).record(3, 7)
        again.tracker("R", (0,), 0, ()).record(12, 12)
        second = first.fold(again)
        # nothing new under this level: its whole context map is shared
        assert second.by_pred["R"][(0,)][0] is first.by_pred["R"][(0,)][0]
        assert first.fold(SensitivityRecorder()) is first

    def test_union(self):
        a = SensitivityRecorder()
        a.tracker("R", (0,), 0, ()).record(1, 2)
        b = SensitivityRecorder()
        b.tracker("R", (0,), 0, ()).record(10, 12)
        b.record_everything("S")
        index = SensitivityIndex.union(
            [SensitivityIndex().fold(a), SensitivityIndex().fold(b)]
        )
        assert index.tuple_affects("R", (1,))
        assert index.tuple_affects("R", (11,))
        assert not index.tuple_affects("R", (5,))
        assert index.tuple_affects("S", (5,))
        assert index.predicates() == {"R", "S"}


class TestIntervalRepresentation:
    def test_touching_intervals_kept_separate(self):
        recorder = SensitivityRecorder()
        tracker = recorder.tracker("R", (0,), 0, ())
        tracker.record(6, 8)
        tracker.record(8, 10)
        index = SensitivityIndex().fold(recorder)
        assert index.intervals_for("R")[0][()] == [(6, 8), (8, 10)]
        for value in (6, 7, 8, 9, 10):
            assert index.tuple_affects("R", (value,))
        assert not index.tuple_affects("R", (5,))
        assert not index.tuple_affects("R", (11,))

    def test_overlapping_intervals_merged(self):
        recorder = SensitivityRecorder()
        tracker = recorder.tracker("R", (0,), 0, ())
        tracker.record(1, 10)
        tracker.record(5, 7)
        index = SensitivityIndex().fold(recorder)
        assert index.intervals_for("R")[0][()] == [(1, 10)]

    def test_unbounded_endpoints(self):
        recorder = SensitivityRecorder()
        tracker = recorder.tracker("R", (0,), 0, ())
        tracker.record(BOTTOM, 3)
        tracker.record(9, TOP)
        index = SensitivityIndex().fold(recorder)
        assert index.tuple_affects("R", (-(10**9),))
        assert index.tuple_affects("R", (10**9,))
        assert not index.tuple_affects("R", (5,))

    def test_string_intervals(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0,), 0, ()).record("b", "d")
        index = SensitivityIndex().fold(recorder)
        assert index.tuple_affects("R", ("c",))
        assert not index.tuple_affects("R", ("a",))
        assert not index.tuple_affects("R", ("e",))


def _reference_merge(intervals):
    """The batch sort-and-sweep the folded index replaced."""
    def below(a, b):
        return a is not b and (a is BOTTOM or b is TOP or (
            a is not TOP and b is not BOTTOM and a < b))

    def rank(value):
        return (0, 0) if value is BOTTOM else (2, 0) if value is TOP else (1, value)

    merged = []
    for low, high in sorted(set(intervals), key=lambda iv: (rank(iv[0]), rank(iv[1]))):
        if merged and below(low, merged[-1][1]):
            if below(merged[-1][1], high):
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return merged


_endpoint = st.one_of(st.just(BOTTOM), st.just(TOP), st.integers(0, 12))
_interval = st.tuples(_endpoint, _endpoint).filter(
    lambda iv: iv[0] is BOTTOM or iv[1] is TOP
    or (iv[0] is not TOP and iv[1] is not BOTTOM and iv[0] <= iv[1])
)


class TestFoldMatchesBatchMerge:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_interval, max_size=6), max_size=6))
    def test_any_split_into_passes_gives_the_batch_result(self, passes):
        index = SensitivityIndex()
        for intervals in passes:
            recorder = SensitivityRecorder()
            for low, high in intervals:
                recorder.tracker("R", (0,), 0, ()).record(low, high)
            index = index.fold(recorder)
        everything = [iv for intervals in passes for iv in intervals]
        expected = _reference_merge(everything)
        assert index.intervals_for("R").get(0, {}).get((), []) == expected
        for value in range(-1, 14):
            covered = any(
                (low is BOTTOM or low <= value) and (high is TOP or value <= high)
                for low, high in everything
            )
            assert index.tuple_affects("R", (value,)) == covered

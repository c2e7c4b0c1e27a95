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

    def test_virtuals_dropped(self):
        assert canonical_pred("@cand") is None
        assert canonical_pred("@head") is None
        assert canonical_pred("@bound:x") is None

    def test_start_stripped(self):
        assert canonical_pred("inventory@start") == "inventory"


class TestRecorder:
    def test_contextual_intervals(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0, 1), 1, ("a",)).record(1, 5)
        recorder.tracker("R", (0, 1), 1, ("b",)).record(10, 20)
        index = SensitivityIndex(recorder)
        assert index.tuple_affects("R", ("a", 3))
        assert not index.tuple_affects("R", ("a", 9))
        assert index.tuple_affects("R", ("b", 15))
        assert not index.tuple_affects("R", ("c", 3))

    def test_permuted_lookup(self):
        recorder = SensitivityRecorder()
        # recorded under the (1, 0) secondary index
        recorder.tracker("R", (1, 0), 0, ()).record(5, 5)
        index = SensitivityIndex(recorder)
        # tuple (x, 5) permutes to (5, x): level 0 value is 5
        assert index.tuple_affects("R", ("x", 5))
        assert not index.tuple_affects("R", ("x", 6))

    def test_record_point_and_everything(self):
        recorder = SensitivityRecorder()
        recorder.record_prefix("N", (0, 1), ("a", 1))
        recorder.record_everything("B")
        index = SensitivityIndex(recorder)
        assert index.tuple_affects("N", ("a", 1))
        assert not index.tuple_affects("N", ("a", 2))
        assert index.tuple_affects("B", ("anything",))

    def test_record_prefix(self):
        recorder = SensitivityRecorder()
        recorder.record_prefix("R", (0, 1), ("k",))
        index = SensitivityIndex(recorder)
        assert index.tuple_affects("R", ("k", 99))
        assert not index.tuple_affects("R", ("other", 99))


class TestIntervalRepresentation:
    def test_touching_intervals_kept_separate(self):
        recorder = SensitivityRecorder()
        tracker = recorder.tracker("R", (0,), 0, ())
        tracker.record(6, 8)
        tracker.record(8, 10)
        index = SensitivityIndex(recorder)
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
        index = SensitivityIndex(recorder)
        assert index.intervals_for("R")[0][()] == [(1, 10)]

    def test_unbounded_endpoints(self):
        recorder = SensitivityRecorder()
        tracker = recorder.tracker("R", (0,), 0, ())
        tracker.record(BOTTOM, 3)
        tracker.record(9, TOP)
        index = SensitivityIndex(recorder)
        assert index.tuple_affects("R", (-(10**9),))
        assert index.tuple_affects("R", (10**9,))
        assert not index.tuple_affects("R", (5,))

    def test_string_intervals(self):
        recorder = SensitivityRecorder()
        recorder.tracker("R", (0,), 0, ()).record("b", "d")
        index = SensitivityIndex(recorder)
        assert index.tuple_affects("R", ("c",))
        assert not index.tuple_affects("R", ("a",))
        assert not index.tuple_affects("R", ("e",))


def _reference_merge(intervals):
    """The sort-and-sweep an index runs, written out on its own."""
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


class TestBuildMatchesReferenceMerge:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_interval, max_size=36))
    def test_one_build_is_the_reference_merge(self, intervals):
        recorder = SensitivityRecorder()
        for low, high in intervals:
            recorder.tracker("R", (0,), 0, ()).record(low, high)
        index = SensitivityIndex(recorder)
        expected = _reference_merge(intervals)
        assert index.intervals_for("R").get(0, {}).get((), []) == expected
        for value in range(-1, 14):
            covered = any(
                (low is BOTTOM or low <= value) and (high is TOP or value <= high)
                for low, high in intervals
            )
            assert index.tuple_affects("R", (value,)) == covered

"""Columnar storage: dictionary encoding, canonicalization, layouts."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats as global_stats
from repro.ds.hashing import canonical_key, stable_hash
from repro.storage.columnar import (
    ColumnarLayout,
    ColumnarUnsupported,
    encode_column,
)
from repro.storage.relation import Delta, Relation


class TestEncodeColumn:
    def test_round_trip_preserves_values_and_order(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        codes, domain = encode_column(values)
        assert [domain[c] for c in codes] == values
        assert domain == sorted(set(values))
        # order-preserving: code comparison == value comparison
        for i, u in enumerate(domain):
            for j, v in enumerate(domain):
                assert (i < j) == (u < v)

    def test_domain_holds_python_objects_not_numpy_scalars(self):
        codes, domain = encode_column([10, 20])
        assert all(type(v) is int for v in domain)
        # decoded values must stable_hash exactly like the originals
        assert stable_hash(domain[0]) == stable_hash(10)

    def test_negative_zero_collapses_to_positive_zero(self):
        codes, domain = encode_column([-0.0, 0.0, 1.5])
        assert domain == [0.0, 1.5]
        assert math.copysign(1.0, domain[0]) == 1.0
        assert codes[0] == codes[1] == 0

    def test_nan_is_rejected_as_data_error(self):
        with pytest.raises(ValueError):
            encode_column([1.0, float("nan")])

    def test_mixed_int_float_keys_sort_numerically(self):
        # regression: 1 and 1.5 and 2 must interleave by value, and an
        # equal int/float pair must share one code (canonical_key treats
        # 2 == 2.0), exactly as the pure backend's tuple sort does
        codes, domain = encode_column([2, 1.5, 1, 2.0])
        assert domain == [1, 1.5, 2]
        assert list(codes) == [2, 1, 0, 2]

    def test_incomparable_values_raise_columnar_unsupported(self):
        with pytest.raises(ColumnarUnsupported):
            encode_column([1, "a"])

    def test_unhashable_values_raise_columnar_unsupported(self):
        with pytest.raises(ColumnarUnsupported):
            encode_column([[1], [2]])

    def test_strings_encode_in_lexicographic_order(self):
        codes, domain = encode_column(["pear", "apple", "fig"])
        assert domain == ["apple", "fig", "pear"]
        assert [domain[c] for c in codes] == ["pear", "apple", "fig"]


class TestColumnarLayout:
    def test_layout_matches_sorted_rows(self):
        rows = sorted({(i % 3, i % 5, i) for i in range(30)})
        layout = ColumnarLayout(rows, 3)
        assert layout.n_rows == len(rows)
        decoded = [
            tuple(layout.domains[j][layout.codes[j][i]] for j in range(3))
            for i in range(layout.n_rows)
        ]
        assert decoded == rows

    def test_run_starts_mark_prefix_group_boundaries(self):
        rows = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 5)]
        layout = ColumnarLayout(rows, 2)
        assert list(layout.run_starts(0)) == [0, 3, 5]
        assert list(layout.run_starts(1)) == [0, 1, 2, 3, 4, 5]

    def test_run_starts_respects_lo_hi_window(self):
        rows = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
        layout = ColumnarLayout(rows, 2)
        assert list(layout.run_starts(0, 2, 5)) == [2]
        assert list(layout.run_starts(1, 2, 5)) == [2, 3, 4]
        assert list(layout.run_starts(0, 3, 3)) == []


class TestRelationAccessor:
    def test_columnar_accessor_caches_per_permutation(self):
        relation = Relation.from_iter(2, [(i, i % 3) for i in range(16)])
        before = global_stats.snapshot()
        first = relation.columnar((1, 0))
        again = relation.columnar((1, 0))
        delta = global_stats.delta_since(before)
        assert first is again
        assert delta.get("relation.columnar_misses") == 1
        assert delta.get("relation.columnar_hits") == 1

    def test_unencodable_relation_raises_and_caches_failure(self):
        # rows sort fine tuple-wise (first column decides) but the
        # second column mixes ints and strings, which do not encode
        relation = Relation.from_iter(2, [(1, 2), (2, "a")])
        with pytest.raises(ColumnarUnsupported):
            relation.columnar((0, 1))
        with pytest.raises(ColumnarUnsupported):
            relation.columnar((0, 1))


# -- patched layouts: a write hands a warm layout on instead of dropping it --


def assert_same_layout(patched, fresh):
    """Array for array and domain for domain, value types included."""
    assert (patched.arity, patched.n_rows) == (fresh.arity, fresh.n_rows)
    for got, want in zip(patched.codes, fresh.codes):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    for got, want in zip(patched.domains, fresh.domains):
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


# small value pools, so writes both reuse and add domain values, and a
# delete often takes a value's last row
patch_row = st.tuples(
    st.integers(0, 6), st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from([-2, 0, 1.5, 3, 7.25]))
patch_steps = st.lists(
    st.tuples(st.sets(patch_row, max_size=4), st.integers(0, 2 ** 16)),
    min_size=1, max_size=8)


def _step(rows, added, pick):
    """The rows after one write: ``added`` in, a ``pick``-chosen subset
    out (all of them when ``pick`` is 0 mod 5, to empty the relation)."""
    current = sorted(rows)
    removed = {row for i, row in enumerate(current)
               if pick % 5 == 0 or (pick >> (i % 16)) & 1}
    added = set(added) - set(rows)
    return (set(rows) - removed) | added, sorted(added), sorted(removed)


@settings(max_examples=80, deadline=None)
@given(st.sets(patch_row, max_size=12), patch_steps)
def test_patched_layout_equals_a_fresh_encode(initial, steps):
    rows = set(initial)
    layout = ColumnarLayout(sorted(rows), 3)
    for added, pick in steps:
        rows, added, removed = _step(rows, added, pick)
        layout = layout.patched(added, removed)
        assert_same_layout(layout, ColumnarLayout(sorted(rows), 3))


@settings(max_examples=60, deadline=None)
@given(st.sets(patch_row, min_size=1, max_size=12), patch_steps,
       st.sampled_from([(0, 1, 2), (2, 0, 1), (1, 2, 0)]))
def test_relation_reads_a_patched_layout_equal_to_a_fresh_one(initial, steps, perm):
    relation = Relation.from_iter(3, initial)
    relation.columnar(perm)
    rows = set(initial)
    for added, pick in steps:
        rows, added, removed = _step(rows, added, pick)
        before = global_stats.snapshot()
        relation = relation.apply(Delta.from_iters(added, removed))
        layout = relation.columnar(perm)
        permuted = sorted(tuple(row[i] for i in perm) for row in rows)
        assert_same_layout(layout, ColumnarLayout(permuted, 3))
        counted = global_stats.delta_since(before)
        # a patch unless the write reached the layout's size
        assert (counted.get("relation.columnar_patches", 0)
                + counted.get("relation.columnar_misses", 0)) == (
                    1 if added or removed else 0)


def test_a_write_moves_every_warm_permutation_by_patch():
    relation = Relation.from_iter(2, [(i, i % 7) for i in range(100)])
    warm = [relation.columnar(perm) for perm in ((0, 1), (1, 0))]
    relation = relation.apply(Delta.from_iters([(200, 9)], [(3, 3)]))
    before = global_stats.snapshot()
    patched = [relation.columnar(perm) for perm in ((0, 1), (1, 0))]
    counted = global_stats.delta_since(before)
    assert counted.get("relation.columnar_patches") == 2
    assert "relation.columnar_misses" not in counted
    assert all(new is not old for new, old in zip(patched, warm))
    assert patched[1].domains[0][-1] == 9  # a value new to the domain


def test_a_patch_as_large_as_the_layout_is_dropped():
    relation = Relation.from_iter(1, [(i,) for i in range(4)])
    relation.columnar((0,))
    relation = relation.apply(Delta.from_iters([(10,), (11,)]))
    relation = relation.apply(Delta.from_iters([(12,), (13,)]))
    before = global_stats.snapshot()
    relation.columnar((0,))
    counted = global_stats.delta_since(before)
    assert counted.get("relation.columnar_misses") == 1
    assert "relation.columnar_patches" not in counted


def test_one_key_writes_cost_the_same_at_2k_and_32k_rows():
    """A one-key write to a relation with a warm layout patches it on
    the next read (no re-encode), and a run of 1,000 writes that nobody
    reads between peaks at about the same allocation over 32,000 rows
    as over 2,000: no write pays O(n) for a layout."""

    def peak_bytes(n_rows):
        relation = Relation.from_iter(2, [(i, i % 11) for i in range(n_rows)])
        relation.columnar((0, 1))
        relation.columnar((1, 0))
        before = global_stats.snapshot()
        relation = relation.apply(Delta.from_iters([(7, 100)], [(7, 7)]))
        relation.columnar((0, 1))
        counted = global_stats.delta_since(before)
        assert counted.get("relation.columnar_patches") == 1
        assert "relation.columnar_misses" not in counted
        tracemalloc.start()
        try:
            for value in range(101, 1101):
                relation = relation.apply(
                    Delta.from_iters([(7, value)], [(7, value - 1)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (7, 1100) in relation
        return peak

    small, large = peak_bytes(2000), peak_bytes(32000)
    assert large <= 2 * small, (small, large)

"""Tests for persistent relations, deltas, and secondary indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds.treap import MISSING
from repro.storage.relation import Delta, Relation


class TestRelationBasics:
    def test_empty(self):
        r = Relation.empty(2)
        assert len(r) == 0 and not r
        assert (1, 2) not in r

    def test_from_iter_dedup_and_sort(self):
        r = Relation.from_iter(2, [(2, 1), (1, 1), (2, 1)])
        assert len(r) == 2
        assert list(r) == [(1, 1), (2, 1)]

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            Relation.from_iter(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            Relation.empty(2).insert((1,))

    def test_insert_remove_persistent(self):
        r = Relation.from_iter(1, [(1,)])
        r2 = r.insert((2,))
        assert list(r) == [(1,)]
        assert list(r2) == [(1,), (2,)]
        r3 = r2.remove((1,))
        assert list(r3) == [(2,)]

    def test_iter_prefix(self):
        r = Relation.from_iter(3, [(1, 3, 4), (1, 3, 5), (1, 4, 6), (3, 5, 2)])
        assert list(r.iter_prefix((1, 3))) == [(1, 3, 4), (1, 3, 5)]
        assert list(r.iter_prefix((1,))) == [(1, 3, 4), (1, 3, 5), (1, 4, 6)]
        assert list(r.iter_prefix((9,))) == []

    def test_lookup_functional(self):
        r = Relation.from_iter(2, [("a", 1), ("b", 2)])
        assert r.lookup(("a",)) == 1
        assert r.lookup(("z",)) is MISSING
        assert r.lookup(("z",), default=0) == 0

    def test_set_algebra(self):
        a = Relation.from_iter(1, [(1,), (2,), (3,)])
        b = Relation.from_iter(1, [(2,), (4,)])
        assert set(a.union(b)) == {(1,), (2,), (3,), (4,)}
        assert set(a.intersect(b)) == {(2,)}
        assert set(a.subtract(b)) == {(1,), (3,)}

    def test_project(self):
        r = Relation.from_iter(2, [(1, "x"), (2, "x"), (1, "y")])
        assert set(r.project([1])) == {("x",), ("y",)}
        assert set(r.project([1, 0])) == {("x", 1), ("x", 2), ("y", 1)}

    def test_equality_and_hash(self):
        a = Relation.from_iter(1, [(1,), (2,)])
        b = Relation.from_iter(1, [(2,), (1,)])
        assert a == b and hash(a) == hash(b)
        assert a != a.insert((3,))

    def test_sample(self):
        r = Relation.from_iter(1, [(i,) for i in range(100)])
        sample = r.sample(10, seed=1)
        assert len(sample) == 10
        assert all(t in r for t in sample)
        assert r.sample(200) == list(r)


class TestDelta:
    def test_apply(self):
        r = Relation.from_iter(1, [(1,), (2,)])
        d = Delta.from_iters([(3,)], [(1,)])
        assert set(r.apply(d)) == {(2,), (3,)}

    def test_apply_empty_is_identity(self):
        r = Relation.from_iter(1, [(1,)])
        assert r.apply(Delta()) is r

    def test_add_wins_over_remove(self):
        r = Relation.from_iter(1, [(1,)])
        d = Delta.from_iters([(1,)], [(1,)])
        assert set(r.apply(d)) == {(1,)}

    def test_normalized(self):
        base = Relation.from_iter(1, [(1,), (2,)])
        d = Delta.from_iters([(1,), (3,)], [(2,), (9,)])
        n = d.normalized(base)
        assert set(n.added) == {(3,)}
        assert set(n.removed) == {(2,)}

    def test_normalized_overlap_add_wins(self):
        base = Relation.from_iter(1, [(1,)])
        d = Delta.from_iters([(1,)], [(1,)])
        n = d.normalized(base)
        assert not n  # no net change

    def test_inverse_then(self):
        d1 = Delta.from_iters([(1,)], [(2,)])
        d2 = Delta.from_iters([(2,)], [(1,)])
        composed = d1.then(d2)
        assert set(composed.added) == {(2,)}
        assert set(composed.removed) == {(1,)}
        inverse = d1.inverse()
        assert set(inverse.added) == {(2,)} and set(inverse.removed) == {(1,)}

    def test_diff_reconstructs(self):
        a = Relation.from_iter(2, [(1, 1), (2, 2), (3, 3)])
        b = Relation.from_iter(2, [(2, 2), (4, 4)])
        delta = a.diff(b)
        assert a.apply(delta) == b


class TestSecondaryIndexes:
    def test_index_root_permutes(self):
        r = Relation.from_iter(2, [(1, "b"), (2, "a")])
        root = r.index_root((1, 0))
        from repro.ds import treap

        assert [k for k, _ in treap.items(root)] == [("a", 2), ("b", 1)]

    def test_index_maintained_incrementally(self):
        r = Relation.from_iter(2, [(i, 100 - i) for i in range(50)])
        r.index_root((1, 0))  # materialize the index
        r2 = r.apply(Delta.from_iters([(999, -1)], [(0, 100)]))
        from repro.ds import treap

        keys = [k for k, _ in treap.items(r2.index_root((1, 0)))]
        assert (-1, 999) in keys
        assert (100, 0) not in keys
        assert len(keys) == 50


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6),
)
def test_apply_matches_set_semantics(base, added, removed):
    relation = Relation.from_iter(2, base)
    delta = Delta.from_iters(added, removed)
    result = set(relation.apply(delta))
    assert result == (base - removed) | added

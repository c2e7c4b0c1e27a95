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


def _shape(node):
    if node is None:
        return None
    return (node.key, node.prio, _shape(node.left), _shape(node.right))


triples = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(st.sets(triples, max_size=60), st.sets(triples, max_size=12),
       st.sets(triples, max_size=12))
def test_apply_writes_the_primary_and_every_index_as_a_fresh_build(
        base, added, removed):
    """:meth:`Relation.apply` writes its runs into the primary treap and
    into each promoted index (``(1, 0)`` of a binary relation,
    ``(1, 0, 2)`` and ``(2, 0, 1)`` of a ternary one): each comes out
    the tree a fresh :meth:`Relation.index_root` builds, and a columnar
    layout handed on as a pending patch reads the new rows."""
    from repro.storage.columnar import ColumnarLayout

    for arity, perms in ((2, [(1, 0)]), (3, [(1, 0, 2), (2, 0, 1)])):
        base_rows, added_rows, removed_rows = (
            {row[:arity] for row in rows} for rows in (base, added, removed))
        relation = Relation.from_iter(arity, base_rows)
        for perm in perms:
            relation.index_root(perm)
            relation.columnar(perm)
        written = relation.apply(Delta.from_iters(added_rows, removed_rows - added_rows))
        rows = (base_rows - removed_rows) | added_rows
        fresh = Relation.from_iter(arity, rows)
        assert _shape(written.tuples()._root) == _shape(fresh.tuples()._root)
        for perm in perms:
            assert _shape(written.index_root(perm)) == _shape(fresh.index_root(perm))
            layout = written.columnar(perm)
            expected = ColumnarLayout(sorted(tuple(r[i] for i in perm) for r in rows), arity)
            assert layout.n_rows == expected.n_rows == len(rows)
            assert all((got == want).all() for got, want in zip(layout.codes, expected.codes))
            assert layout.domains == expected.domains


@settings(max_examples=80, deadline=None)
@given(*(st.sets(st.tuples(st.integers(0, 9)), max_size=8) for _ in range(5)))
def test_delta_runs_stay_sorted_and_duplicate_free(a_add, a_rem, b_add, b_rem, base):
    """``then``, ``inverse`` and ``normalized`` keep both sides sorted,
    duplicate-free runs with the set meaning of the deltas."""
    first = Delta.from_iters(a_add, a_rem)
    later = Delta.from_iters(b_add, b_rem)
    base_relation = Relation.from_iter(1, base)
    for delta in (first.then(later), first.inverse(), first.normalized(base_relation)):
        for run in (delta.added, delta.removed):
            assert list(run) == sorted(set(run))
    composed = first.then(later)
    assert (set(base_relation.apply(first).apply(later))
            == set(base_relation.apply(composed)))
    normalized = first.normalized(base_relation)
    assert set(normalized.added) == set(a_add) - base
    assert set(normalized.removed) == (set(a_rem) - set(a_add)) & base

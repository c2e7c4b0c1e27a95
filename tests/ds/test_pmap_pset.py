"""Tests for the persistent map/set wrappers and structural diffing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds import PMap, PSet
from repro.ds.treap import MISSING
from repro.engine.iterators import trie_iterator
from repro.storage.relation import Relation


class TestPMap:
    def test_empty(self):
        assert len(PMap.EMPTY) == 0
        assert not PMap.EMPTY
        assert PMap.EMPTY.get(1) is None
        with pytest.raises(KeyError):
            PMap.EMPTY[1]

    def test_set_get_remove(self):
        m = PMap().set("a", 1).set("b", 2)
        assert m["a"] == 1 and m["b"] == 2
        assert "a" in m and "z" not in m
        m2 = m.remove("a")
        assert "a" not in m2 and "a" in m

    def test_iteration_order(self):
        m = PMap.from_dict({3: "c", 1: "a", 2: "b"})
        assert list(m.keys()) == [1, 2, 3]
        assert list(m.values()) == ["a", "b", "c"]
        assert list(m.items()) == [(1, "a"), (2, "b"), (3, "c")]

    def test_items_from(self):
        m = PMap.from_dict({k: k for k in range(10)})
        assert [k for k, _ in m.items_from(7)] == [7, 8, 9]

    def test_first_last_kth(self):
        m = PMap.from_dict({5: "e", 1: "a"})
        assert m.first() == (1, "a")
        assert m.last() == (5, "e")
        assert m.kth(1) == (5, "e")

    def test_write(self):
        a = PMap.from_dict({1: 1, 2: 2, 3: 3})
        written = a.write([3, 9], [(2, 20), (4, 40)])
        assert dict(written.items()) == {1: 1, 2: 20, 4: 40}
        assert dict(a.items()) == {1: 1, 2: 2, 3: 3}
        assert written == PMap.from_dict({1: 1, 2: 20, 4: 40})
        assert a.write([9], [(1, 1)]) is a
        assert a.write([1, 2, 3]) == PMap.EMPTY

    def test_update_and_combine(self):
        a = PMap.from_dict({1: 1, 2: 2})
        b = PMap.from_dict({2: 20, 3: 30})
        assert dict(a.write((), b.items()).items()) == {1: 1, 2: 20, 3: 30}
        summed = a.write((), [(k, a.get(k, 0) + v) for k, v in b.items()])
        assert dict(summed.items()) == {1: 1, 2: 22, 3: 30}

    def test_equality_is_structural(self):
        a = PMap.from_dict({1: "x", 2: "y"})
        b = PMap.from_items([(2, "y"), (1, "x")])
        assert a == b
        assert hash(a) == hash(b)
        assert a != b.set(1, "z")

    def test_from_sorted_items(self):
        m = PMap.from_sorted_items((i, i * i) for i in range(100))
        assert len(m) == 100
        assert m[9] == 81

    def test_intersect_subtract(self):
        a = PMap.from_dict({1: "a", 2: "a", 3: "a"})
        b = PMap.from_dict({2: "b", 3: "b", 4: "b"})
        outside = [k for k in a.keys() if k not in b]
        inside = [k for k in a.keys() if k in b]
        assert dict(a.write(outside).items()) == {2: "a", 3: "a"}
        assert dict(a.write(inside).items()) == {1: "a"}


class TestPSet:
    def test_basics(self):
        s = PSet.from_iter([3, 1, 2, 2])
        assert len(s) == 3
        assert list(s) == [1, 2, 3]
        assert 2 in s and 9 not in s

    def test_add_remove_persistent(self):
        s = PSet.from_iter([1])
        s2 = s.add(2)
        assert list(s) == [1] and list(s2) == [1, 2]
        assert s2.remove(9) is s2

    def test_write(self):
        a = PSet.from_iter(range(0, 10, 2))
        written = a.write([0, 3, 4], [3, 5])
        assert list(written) == [2, 3, 5, 6, 8]
        assert written == PSet.from_iter([2, 3, 5, 6, 8])
        assert a.write([1], [2]) is a

    def test_rank_kth_iter_from(self):
        s = PSet.from_sorted(range(0, 100, 10))
        assert s.rank(35) == 4
        assert s.kth(3) == 30
        assert list(s.iter_from(55)) == [60, 70, 80, 90]
        assert s.first() == 0 and s.last() == 90

    def test_cursor(self):
        # the engine reads a set of 1-tuples through a trie iterator
        s = PSet.from_iter([(2,), (4,), (5,), (8,), (10,)])
        cursor = trie_iterator(Relation(1, s), (0,))
        cursor.open()
        cursor.seek(6)
        assert cursor.key() == 8


class TestDiffHelpers:
    """``PMap.diff`` / ``PSet.diff``: the one structural diff."""

    def test_diff_pmap(self):
        old = PMap.from_dict({1: "a", 2: "b", 3: "c"})
        new = old.remove(1).set(2, "B").set(4, "d")
        assert list(old.diff(new)) == [
            (1, "a", MISSING), (2, "b", "B"), (4, MISSING, "d")]

    def test_diff_pmap_empty(self):
        m = PMap.from_dict({1: 1})
        assert not list(m.diff(m))

    def test_diff_pset(self):
        old = PSet.from_iter([1, 2, 3])
        new = old.remove(1).add(9)
        assert list(old.diff(new)) == [(1, True, False), (9, False, True)]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-20, 20), st.text(max_size=3), max_size=30),
    st.dictionaries(st.integers(-20, 20), st.text(max_size=3), max_size=30),
)
def test_diff_pmap_reconstructs(before, after):
    old = PMap.from_dict(before)
    new = PMap.from_dict(after)
    rebuilt = dict(before)
    for key, _, value in old.diff(new):
        if value is MISSING:
            del rebuilt[key]
        else:
            rebuilt[key] = value
    assert rebuilt == after

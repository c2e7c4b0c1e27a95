"""Tests for the treap trie iterator and the virtual iterators."""

import pytest

from repro.engine.iterators import (
    SingletonIterator,
    TreapTrieIterator,
    trie_iterator,
)
from repro.storage.relation import Relation

TUPLES = [(1, 3, 4), (1, 3, 5), (1, 4, 6), (1, 4, 8), (1, 4, 9), (1, 5, 2), (3, 5, 2)]


def iterator(version):
    """A trie iterator over ``TUPLES``: version 0 is loaded whole,
    version 1 is reached from another relation by a delta, as a commit
    reaches it."""
    relation = Relation.from_iter(3, TUPLES)
    if version == 1:
        other = Relation.from_iter(3, TUPLES[::2] + [(2, 0, 0), (9, 9, 9)])
        relation = other.apply(other.diff(relation))
    return TreapTrieIterator(relation.index_root((0, 1, 2)), 3)


@pytest.mark.parametrize("version", [0, 1])
class TestTrieNavigation:
    """The paper's Figure 4 trie, navigated level by level."""

    def test_first_level(self, version):
        it = iterator(version)
        it.open()
        assert it.key() == 1
        it.next()
        assert it.key() == 3
        it.next()
        assert it.at_end()

    def test_open_descends_to_children(self, version):
        it = iterator(version)
        it.open()  # 1
        it.open()  # 3
        assert it.key() == 3
        it.next()
        assert it.key() == 4
        it.next()
        assert it.key() == 5
        it.next()
        assert it.at_end()

    def test_up_restores_parent(self, version):
        it = iterator(version)
        it.open()
        it.open()
        it.next()  # at (1, 4)
        it.open()  # third level: 6, 8, 9
        assert it.key() == 6
        it.seek(7)
        assert it.key() == 8
        it.up()
        assert it.key() == 4
        it.next()
        assert it.key() == 5

    def test_seek_within_level(self, version):
        it = iterator(version)
        it.open()
        it.open()  # level 2 of prefix (1,): 3, 4, 5
        it.seek(4)
        assert it.key() == 4
        it.seek(9)
        assert it.at_end()

    def test_full_enumeration(self, version):
        it = iterator(version)
        seen = []

        def walk(depth):
            it.open()
            while not it.at_end():
                if depth == 2:
                    seen.append(it.context()[len(it._fixed):] + (it.key(),))
                else:
                    walk(depth + 1)
                it.next()
            it.up()

        walk(0)
        assert seen == TUPLES

    def test_context(self, version):
        it = iterator(version)
        it.open()
        assert it.context() == ()
        it.open()
        assert it.context() == (1,)
        it.open()
        assert it.context() == (1, 3)


class TestFixedPrefix:
    def test_constant_prefix_restricts(self):
        relation = Relation.from_iter(3, TUPLES)
        it = trie_iterator(relation, (0, 1, 2), fixed_prefix=(1, 4))
        assert it.check_fixed_prefix()
        it.open()
        assert [it.key()] == [6]
        it.next()
        assert it.key() == 8

    def test_absent_prefix(self):
        relation = Relation.from_iter(3, TUPLES)
        it = trie_iterator(relation, (0, 1, 2), fixed_prefix=(2,))
        assert not it.check_fixed_prefix()

    def test_empty_relation_prefix(self):
        it = trie_iterator(Relation.empty(2), (0, 1), fixed_prefix=())
        assert not it.check_fixed_prefix()


class TestPermutedIterators:
    def test_secondary_index_order(self):
        relation = Relation.from_iter(2, [(1, "b"), (2, "a"), (3, "b")])
        it = trie_iterator(relation, (1, 0))
        it.open()
        assert it.key() == "a"
        it.next()
        assert it.key() == "b"
        it.open()
        assert it.key() == 1
        it.next()
        assert it.key() == 3


class TestVirtualIterators:
    def test_singleton(self):
        it = SingletonIterator(5)
        assert it.key() == 5 and not it.at_end()
        it.seek(3)
        assert it.key() == 5
        it.seek(5)
        assert not it.at_end()
        it.seek(6)
        assert it.at_end()

    def test_singleton_next_exhausts(self):
        it = SingletonIterator("x")
        it.next()
        assert it.at_end()


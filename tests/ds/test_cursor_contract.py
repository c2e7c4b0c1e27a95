"""Property tests for the linear-iterator contract (paper §3.2).

``next()`` visits values in ascending order; ``seek(v)`` lands at the
least upper bound of ``v``; interleavings match a reference model.  The
cursor is the one the engine runs: a :class:`TreapTrieIterator` opened
on a unary relation, moving forward from its level's finger.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.iterators import trie_iterator
from repro.storage.relation import Relation

elements = st.sets(st.integers(-100, 100), min_size=0, max_size=40)
operations = st.lists(
    st.one_of(
        st.just(("next", None)),
        st.tuples(st.just("seek"), st.integers(-100, 120)),
    ),
    max_size=30,
)


def unary_cursor(values):
    """A trie iterator opened on the unary relation of ``values``."""
    cursor = trie_iterator(Relation.from_iter(1, [(v,) for v in values]), (0,))
    cursor.open()
    return cursor


class _ModelCursor:
    """Reference implementation over a plain sorted list."""

    def __init__(self, values):
        self.values = sorted(values)
        self.position = 0

    def at_end(self):
        return self.position >= len(self.values)

    def key(self):
        return self.values[self.position]

    def next(self):
        self.position += 1

    def seek(self, value):
        while self.position < len(self.values) and self.values[self.position] < value:
            self.position += 1


@settings(max_examples=150, deadline=None)
@given(elements, operations)
def test_cursor_matches_model(values, script):
    cursor = unary_cursor(values)
    model = _ModelCursor(values)
    assert cursor.at_end() == model.at_end()
    for op, argument in script:
        if model.at_end():
            break
        if op == "next":
            cursor.next()
            model.next()
        else:
            # the contract requires forward-only seeks
            if argument < model.key():
                continue
            cursor.seek(argument)
            model.seek(argument)
        assert cursor.at_end() == model.at_end()
        if not model.at_end():
            assert cursor.key() == model.key()


@settings(max_examples=100, deadline=None)
@given(elements)
def test_full_scan_is_sorted(values):
    cursor = unary_cursor(values)
    seen = []
    while not cursor.at_end():
        seen.append(cursor.key())
        cursor.next()
    assert seen == sorted(values)


@settings(max_examples=100, deadline=None)
@given(elements, st.integers(-120, 120))
def test_seek_is_least_upper_bound(values, target):
    cursor = unary_cursor(values)
    if cursor.at_end() or target < cursor.key():
        # forward-only: only seek from the very start when legal
        if not cursor.at_end() and target < cursor.key():
            return
    cursor.seek(target)
    candidates = [v for v in values if v >= target]
    if candidates:
        assert cursor.key() == min(candidates)
    else:
        assert cursor.at_end()

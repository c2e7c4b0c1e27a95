"""Unit and property tests for the deterministic treap core."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds import treap
from repro.ds.treap import MISSING
from repro.engine.iterators import TreapTrieIterator


def build(pairs):
    root = None
    for key, value in pairs:
        root = treap.insert(root, key, value)
    return root


class TestBasicOperations:
    def test_empty(self):
        assert treap.size(None) == 0
        assert treap.get(None, 1) is MISSING
        assert list(treap.items(None)) == []

    def test_insert_get(self):
        root = build([(2, "b"), (1, "a"), (3, "c")])
        assert treap.size(root) == 3
        assert treap.get(root, 1) == "a"
        assert treap.get(root, 2) == "b"
        assert treap.get(root, 3) == "c"
        assert treap.get(root, 4) is MISSING

    def test_insert_replaces_value(self):
        root = build([(1, "a")])
        root = treap.insert(root, 1, "z")
        assert treap.size(root) == 1
        assert treap.get(root, 1) == "z"

    def test_insert_same_value_returns_same_node(self):
        root = build([(1, "a"), (2, "b")])
        again = treap.insert(root, 1, "a")
        assert again is root

    def test_remove(self):
        root = build([(1, "a"), (2, "b"), (3, "c")])
        root = treap.remove(root, 2)
        assert treap.size(root) == 2
        assert treap.get(root, 2) is MISSING
        assert treap.get(root, 1) == "a"

    def test_remove_absent_is_noop(self):
        root = build([(1, "a")])
        assert treap.remove(root, 9) is root
        assert treap.remove(None, 9) is None

    def test_items_sorted(self):
        keys = random.Random(0).sample(range(1000), 200)
        root = build([(k, k) for k in keys])
        assert [k for k, _ in treap.items(root)] == sorted(keys)

    def test_items_from(self):
        root = build([(k, None) for k in range(0, 100, 10)])
        assert [k for k, _ in treap.items_from(root, 35)] == [40, 50, 60, 70, 80, 90]
        assert [k for k, _ in treap.items_from(root, 0)] == list(range(0, 100, 10))
        assert list(treap.items_from(root, 91)) == []

    def test_first_last_kth_rank(self):
        root = build([(k, -k) for k in (5, 1, 9, 3)])
        assert treap.first(root) == (1, -1)
        assert treap.last(root) == (9, -9)
        assert treap.kth(root, 0) == (1, -1)
        assert treap.kth(root, 2) == (5, -5)
        assert treap.rank(root, 5) == 2
        assert treap.rank(root, 6) == 3
        with pytest.raises(IndexError):
            treap.kth(root, 4)


class TestPersistence:
    def test_insert_does_not_mutate(self):
        root = build([(1, "a"), (2, "b")])
        snapshot = list(treap.items(root))
        treap.insert(root, 3, "c")
        treap.remove(root, 1)
        assert list(treap.items(root)) == snapshot

    def test_structure_sharing(self):
        root = build([(k, k) for k in range(100)])
        updated = treap.insert(root, 100, 100)
        # the new version reuses most of the old nodes
        old_nodes = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node is not None:
                old_nodes.add(id(node))
                stack.extend((node.left, node.right))
        shared = 0
        stack = [updated]
        while stack:
            node = stack.pop()
            if node is not None:
                if id(node) in old_nodes:
                    shared += 1
                stack.extend((node.left, node.right))
        assert shared > 80


class TestUniqueRepresentation:
    def test_insertion_order_invariance(self):
        pairs = [(k, str(k)) for k in range(64)]
        a = build(pairs)
        shuffled = list(pairs)
        random.Random(7).shuffle(shuffled)
        b = build(shuffled)
        assert treap.equal(a, b)
        assert treap.tree_hash(a) == treap.tree_hash(b)
        assert _structure(a) == _structure(b)

    def test_bulk_load_matches_insertion(self):
        pairs = [(k, k * 2) for k in range(257)]
        a = build(pairs)
        b = treap.from_sorted_items(pairs)
        assert _structure(a) == _structure(b)

    def test_delete_reinsert_roundtrip(self):
        pairs = [(k, k) for k in range(50)]
        a = build(pairs)
        b = treap.remove(a, 25)
        b = treap.insert(b, 25, 25)
        assert treap.equal(a, b)
        assert _structure(a) == _structure(b)

    def test_from_sorted_rejects_unsorted(self):
        with pytest.raises(ValueError):
            treap.from_sorted_items([(2, None), (1, None)])


def _structure(node):
    if node is None:
        return None
    return (node.key, node.value, _structure(node.left), _structure(node.right))


class TestSetAlgebra:
    """Union and difference are one :func:`treap.write` each: a run of
    inserted items, a run of removed keys."""

    def test_union_values_right_biased(self):
        a = build([(1, "a1"), (2, "a2")])
        union = treap.write(a, (), [2, 3], ["b2", "b3"])
        assert dict(treap.items(union)) == {1: "a1", 2: "b2", 3: "b3"}

    def test_difference(self):
        a = build([(k, "a") for k in range(0, 20, 2)])
        diff = treap.write(a, list(range(0, 20, 3)))
        assert [k for k, _ in treap.items(diff)] == [2, 4, 8, 10, 14, 16]
        assert all(v == "a" for _, v in treap.items(diff))

    def test_algebra_with_empty(self):
        a = build([(1, None)])
        assert treap.write(a) is a
        assert treap.write(a, [0, 2], [1]) is a  # absent removes, a present key
        assert treap.write(None, [1]) is None
        assert treap.equal(treap.write(None, (), [1]), a)
        assert treap.write(a, [1]) is None


def unary_cursor(root):
    """The engine's sorted cursor over a treap of 1-tuples, opened."""
    cursor = TreapTrieIterator(root, 1)
    cursor.open()
    return cursor


class TestCursor:
    def test_full_scan(self):
        root = build([((k,), None) for k in range(10)])
        cursor = unary_cursor(root)
        seen = []
        while not cursor.at_end():
            seen.append(cursor.key())
            cursor.next()
        assert seen == list(range(10))

    def test_seek_landing(self):
        root = build([((k,), None) for k in (0, 1, 3, 4, 5, 6, 7, 8, 9, 11)])
        cursor = unary_cursor(root)
        cursor.seek(2)
        assert cursor.key() == 3
        cursor.seek(8)
        assert cursor.key() == 8
        cursor.seek(10)
        assert cursor.key() == 11
        cursor.seek(12)
        assert cursor.at_end()

    def test_empty_cursor(self):
        cursor = unary_cursor(None)
        assert cursor.at_end()


class TestDiff:
    def test_diff_basics(self):
        a = build([(1, "x"), (2, "y"), (3, "z")])
        b = treap.insert(treap.remove(a, 1), 4, "w")
        b = treap.insert(b, 2, "Y")
        changes = {key: (old, new) for key, old, new in treap.diff(a, b)}
        assert changes == {
            1: ("x", MISSING),
            2: ("y", "Y"),
            4: (MISSING, "w"),
        }

    def test_diff_identical_is_empty(self):
        a = build([(k, k) for k in range(50)])
        assert list(treap.diff(a, a)) == []
        b = build([(k, k) for k in range(50)])
        assert list(treap.diff(a, b)) == []

    def test_diff_from_empty(self):
        a = build([(1, "a")])
        assert list(treap.diff(None, a)) == [(1, MISSING, "a")]
        assert list(treap.diff(a, None)) == [(1, "a", MISSING)]


# -- property-based tests ---------------------------------------------------

keys = st.integers(min_value=-50, max_value=50)
ops = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), keys, st.integers()),
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(ops)
def test_matches_dict_semantics(operations):
    root = None
    reference = {}
    for op, key, value in operations:
        if op == "insert":
            root = treap.insert(root, key, value)
            reference[key] = value
        else:
            root = treap.remove(root, key)
            reference.pop(key, None)
        assert treap.size(root) == len(reference)
    assert dict(treap.items(root)) == reference


@settings(max_examples=80, deadline=None)
@given(st.lists(keys, max_size=60), st.lists(keys, max_size=60))
def test_set_algebra_laws(left, right):
    a = build([(k, None) for k in set(left)])
    runs = sorted(set(right))
    union = treap.write(a, (), runs)
    difference = treap.write(a, runs)
    assert {k for k, _ in treap.items(union)} == set(left) | set(right)
    assert {k for k, _ in treap.items(difference)} == set(left) - set(right)
    # canonical form: results equal freshly built treaps
    for root in (union, difference):
        assert _structure(root) == _structure(build(treap.items(root)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(keys, st.integers()), max_size=50), ops)
def test_diff_patch_roundtrip(initial, operations):
    a = build(dict(initial).items())
    b = a
    for op, key, value in operations:
        b = treap.insert(b, key, value) if op == "insert" else treap.remove(b, key)
    patched = a
    for key, old, new in treap.diff(a, b):
        if new is MISSING:
            patched = treap.remove(patched, key)
        else:
            patched = treap.insert(patched, key, new)
    assert treap.equal(patched, b)
    assert dict(treap.items(patched)) == dict(treap.items(b))


# -- the subtree hash is built from the priority, and stays what it was ------


def _nodes(node):
    if node is not None:
        yield node
        yield from _nodes(node.left)
        yield from _nodes(node.right)


def test_golden_tree_hashes():
    """``tree_hash`` values recorded at the commit before ``Node.h`` was
    derived from ``prio``: checkpoint addresses, O(1) equality and
    replica sync all assume they never move."""
    from repro.ds.pmap import PMap
    from repro.ds.pset import PSet

    pmap = PMap.from_items(
        ((i * 7919 % 1000, "k%d" % i), (i, float(i) / 4, "v%d" % (i % 13)))
        for i in range(1000)
    )
    pset = PSet.from_iter(
        (i * 31 % 1000, i % 17, "s%d" % (i % 5)) for i in range(1000)
    )
    assert (len(pmap), len(pset)) == (1000, 1000)
    assert treap.tree_hash(pmap._root) == 0xA2A9E28FB7960E7F
    assert treap.tree_hash(pset._root) == 0x45ECA555FFC324D2


@settings(max_examples=60, deadline=None)
@given(st.lists(keys, max_size=40), st.lists(keys, max_size=40))
def test_every_node_priority_is_the_hash_of_its_key(left, right):
    a = build((k, None) for k in set(left))
    b = treap.from_sorted_items((k, k) for k in sorted(set(right)))
    runs = sorted(set(right))
    for root in (a, b, treap.write(a, (), runs), treap.write(a, runs)):
        assert all(n.prio == treap.stable_hash(n.key) for n in _nodes(root))


def test_insert_hashes_only_the_new_key(monkeypatch):
    """A path copy reuses each copied node's priority: the one tuple
    hashed is the inserted key, however deep the path."""
    from repro.ds.pset import PSet

    pset = PSet.from_sorted((i, i * 3) for i in range(1000))
    hashed = []

    def counting(key, _real=treap.stable_hash):
        if isinstance(key, tuple):
            hashed.append(key)
        return _real(key)

    monkeypatch.setattr(treap, "stable_hash", counting)
    grown = pset.add((500, 7))
    monkeypatch.undo()
    assert hashed == [(500, 7)]
    assert grown == PSet.from_sorted(sorted(list(pset) + [(500, 7)]))


# -- hashes are memoized lazily; diff needs none -------------------------------


def _hash_cases():
    from repro.ds.pmap import PMap
    from repro.ds.pset import PSet

    rng = random.Random(20150531)
    yield "empty", None
    yield "ints", PSet.from_iter(range(50))._root
    yield "neg_ints", PSet.from_iter([-1, -2, 0, 2**70, -(2**70)])._root
    yield "strings", PSet.from_iter("k%03d" % i for i in range(40))._root
    yield "tuples", PSet.from_iter(
        (rng.randrange(30), rng.randrange(30)) for _ in range(200))._root
    yield "floats", PSet.from_iter([0.5, -0.0, 1e300, -2.25, 3.0])._root
    yield "pmap", PMap.from_items(("k%d" % i, i * 1.5) for i in range(30))._root
    yield "pmap_tuple_values", PMap.from_items(
        ((i,), (i, "v", None)) for i in range(25))._root
    yield "mixed_tuples", PSet.from_iter(
        (i, "s%d" % (i % 7), float(i) / 3) for i in range(60))._root


#: ``tree_hash`` of each case, recorded when every node hashed eagerly
GOLDEN_LAZY = {
    "empty": 0x9E3779B97F4A7C15,
    "ints": 0xA50BE47D1634BA68,
    "neg_ints": 0xEDA248D9CECF2754,
    "strings": 0x3D455F10DE18F649,
    "tuples": 0x0B7AB94161F70536,
    "floats": 0x9E0C527690016F1D,
    "pmap": 0xDE35031E9F6DC095,
    "pmap_tuple_values": 0x654D4798E093860A,
    "mixed_tuples": 0xA291524997637EAA,
}


def test_lazy_tree_hash_matches_eager_golden_values():
    for name, root in _hash_cases():
        assert all(node._h is None for node in _nodes(root)), name
        assert treap.tree_hash(root) == GOLDEN_LAZY[name], name
        assert all(node._h is not None for node in _nodes(root)), name


def test_insert_hashes_no_node():
    root = treap.from_sorted_items((k, None) for k in range(0, 200, 2))
    treap.tree_hash(root)
    grown = treap.insert(root, 101, None)
    fresh = [node for node in _nodes(grown) if node._h is None]
    assert 0 < len(fresh) < 40  # the copied path only
    assert treap.tree_hash(grown) == treap.tree_hash(
        treap.from_sorted_items((k, None) for k in sorted(list(range(0, 200, 2)) + [101])))


edits = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), keys, st.integers(0, 3)),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(keys, st.integers(0, 3)), max_size=60), edits,
       st.booleans())
def test_diff_matches_set_difference(initial, operations, hashed):
    """On any edit stream, ``diff`` reports exactly the keys whose
    presence or value differs — whether or not hashes were ever read."""
    a = build(dict(initial).items())
    b = a
    for op, key, value in operations:
        b = treap.insert(b, key, value) if op == "insert" else treap.remove(b, key)
    if hashed:
        treap.tree_hash(a), treap.tree_hash(b)
    old, new = dict(treap.items(a)), dict(treap.items(b))
    expected = {
        k: (old.get(k, MISSING), new.get(k, MISSING))
        for k in old.keys() | new.keys()
        if old.get(k, MISSING) != new.get(k, MISSING)
    }
    got = {key: (o, n) for key, o, n in treap.diff(a, b)}
    assert got == expected
    assert {key: (n, o) for key, (o, n) in got.items()} == {
        key: (o, n) for key, o, n in treap.diff(b, a)}


def test_diff_of_a_grown_copy_leaves_untouched_memos_unset():
    """Diffing a bulk-loaded root against a copy with a few inserts walks
    the copied paths only: no subtree either side shares gets hashed."""
    root = treap.from_sorted_items((k, True) for k in range(0, 4000, 2))
    grown = root
    for key in (1, 777, 2001, 3999):
        grown = treap.insert(grown, key, True)
    changes = list(treap.diff(root, grown))
    assert [key for key, _, _ in changes] == [1, 777, 2001, 3999]
    assert all(node._h is None for node in _nodes(root))
    assert all(node._h is None for node in _nodes(grown))


def test_bulk_loaded_pset_is_the_inserted_tree():
    from repro.ds.pset import PSet

    rng = random.Random(11)
    elements = [(rng.randrange(100), "e%d" % rng.randrange(9)) for _ in range(500)]
    inserted = build((e, None) for e in elements)
    loaded = PSet.from_iter(elements)._root
    assert _structure(loaded) == _structure(inserted)
    assert treap.tree_hash(loaded) == treap.tree_hash(inserted)


# -- the batched writer: one descent, the tree a fresh build would be --------


def _key_bounds(node):
    low = high = node
    while low.left is not None:
        low = low.left
    while high.right is not None:
        high = high.right
    return low.key, high.key


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(0, 300), st.integers(0, 3), max_size=150),
       st.sets(st.integers(0, 320), max_size=25),
       st.dictionaries(st.integers(0, 320), st.integers(0, 3), max_size=25),
       st.booleans())
def test_write_is_the_fresh_build_and_shares_what_it_does_not_touch(
        base, removed, written, hashed):
    """For any tree and disjoint runs of removed keys and written items
    (present keys get their values replaced): the written tree has the
    keys, shape and ``tree_hash`` of ``from_sorted_items`` over the
    result, every priority is its key's hash, and every subtree no edit
    key reaches (none between its outer neighbours, inclusive) is the
    same object afterwards."""
    removed = sorted(removed - set(written))
    items = sorted(written.items())
    root = treap.from_sorted_items(sorted(base.items()))
    if hashed:
        treap.tree_hash(root)
    out = treap.write(root, removed, [k for k, _ in items], [v for _, v in items])
    expected = dict(base)
    for key in removed:
        expected.pop(key, None)
    expected.update(written)
    fresh = treap.from_sorted_items(sorted(expected.items()))
    assert _structure(out) == _structure(fresh)
    assert treap.tree_hash(out) == treap.tree_hash(fresh)
    assert all(n.prio == treap.stable_hash(n.key) for n in _nodes(out))
    if expected == base:
        assert out is root
    kept = {id(n) for n in _nodes(out)}
    keys = sorted(base)
    edits = removed + [k for k, _ in items]
    for node in _nodes(root):
        low, high = _key_bounds(node)
        at = keys.index(low)
        outer_low = keys[at - 1] if at else -1
        at = keys.index(high)
        outer_high = keys[at + 1] if at + 1 < len(keys) else 10 ** 9
        if not any(outer_low <= key <= outer_high for key in edits):
            assert id(node) in kept


def test_write_hashes_each_inserted_key_once_and_copies_each_node_once(monkeypatch):
    """A 40-key insert with 20 removes into 1,500 keys: one hash per
    inserted key, and the nodes built are the result's new nodes but
    for the few a removed node's merge copies again."""
    rng = random.Random(5)
    keys = sorted({(rng.randrange(2000), rng.randrange(5)) for _ in range(1500)})
    root = treap.from_sorted_items((k, None) for k in keys)
    removed = sorted(rng.sample(keys, 20))
    added = sorted({(rng.randrange(2000), rng.randrange(5)) for _ in range(40)} - set(keys))
    hashed, built = [], [0]

    def counting_hash(key, _real=treap.stable_hash):
        hashed.append(key)
        return _real(key)

    def counting_init(self, *args, _real=treap.Node.__init__):
        built[0] += 1
        _real(self, *args)

    monkeypatch.setattr(treap, "stable_hash", counting_hash)
    monkeypatch.setattr(treap.Node, "__init__", counting_init)
    out = treap.write(root, removed, added)
    monkeypatch.undo()
    assert sorted(hashed) == added
    old = {id(n) for n in _nodes(root)}
    new = sum(1 for n in _nodes(out) if id(n) not in old)
    assert new <= built[0] <= new + len(removed) * 4, (new, built[0])
    assert [k for k, _ in treap.items(out)] == sorted(set(keys) - set(removed) | set(added))


def test_write_refuses_runs_out_of_order():
    """An unsorted or repeated key would land twice in the tree: the
    writer refuses it, as ``from_sorted_items`` does."""
    root = treap.from_sorted_items((k, None) for k in range(10))
    for removed, keys in (((), [4, 3]), ((), [12, 12]), ([5, 2], ())):
        with pytest.raises(ValueError):
            treap.write(root, removed, keys)

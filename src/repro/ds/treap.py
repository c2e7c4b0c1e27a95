"""Purely functional treaps with the unique representation property.

These are the workhorse structure of the whole system (paper §3.1):

* Nodes are immutable; every update copies the root-to-change path only,
  so versions share structure and branching is O(1) (keep the old root).
* Priorities are a deterministic function of the key (``stable_hash``),
  so the shape of the tree depends only on its *contents*, never on the
  operation history — the unique representation property of [37].
* Every node memoizes a subtree hash on first read, giving O(1)
  amortized extensional equality tests (paper: "with memoization, this
  permits extensional equality testing in O(1) time, using pointer
  comparison").  Building a node hashes nothing: a path copy that no
  one compares costs no hashing at all.
* A batch of edits is written in one descent (:func:`write`): a sorted
  run of removed keys and one of inserted items go down the tree
  together, each touched node is copied once, and a subtree no edit
  reaches is shared as it is (the split-based, output-sensitive divide
  and conquer of Blelloch & Reid-Miller [7], against a sorted run).

This module exposes the raw node-level algebra.  User code should go
through :class:`repro.ds.pmap.PMap` and :class:`repro.ds.pset.PSet`.
"""

from bisect import bisect_left

from repro.ds.hashing import combine_hashes, stable_hash


class _Missing:
    """Sentinel distinguishing 'no value' from a stored ``None``."""

    __slots__ = ()

    def __repr__(self):
        return "<MISSING>"


MISSING = _Missing()

_EMPTY_HASH = 0x9E3779B97F4A7C15
_NONE_HASH = stable_hash(None)  # the value of every PSet node


class Node:
    """One immutable treap node; ``None`` is the empty treap.

    ``prio`` must be ``stable_hash(key)``: it is also the key's share of
    the subtree hash, so hashing a path copy re-hashes no key.  ``_h``
    memoizes that hash and stays ``None`` until :func:`tree_hash` reads
    it.  ``addr`` is the node's content address once a
    :class:`repro.storage.pager.CheckpointStore` has encoded or restored
    it (``None`` before): it lives exactly as long as the node.
    """

    __slots__ = ("key", "value", "prio", "left", "right", "size", "_h", "addr")

    def __init__(self, key, value, prio, left, right):
        self.key = key
        self.value = value
        self.prio = prio
        self.left = left
        self.right = right
        self.size = 1 + (left.size if left else 0) + (right.size if right else 0)
        self._h = None
        self.addr = None

    def __repr__(self):
        return "Node({!r}, {!r}, size={})".format(self.key, self.value, self.size)


def size(node):
    """Number of keys in the treap rooted at ``node``."""
    return node.size if node is not None else 0


def tree_hash(node):
    """Structural hash of the treap (content-determined), computed on
    first read and memoized in each node's ``_h``."""
    if node is None:
        return _EMPTY_HASH
    h = node._h
    if h is None:
        value = node.value
        h = node._h = combine_hashes(
            node.prio,
            _NONE_HASH if value is None else stable_hash(value),
            tree_hash(node.left),
            tree_hash(node.right),
        )
    return h


def _wins(a, b):
    """Deterministic heap-order tie break: does ``a`` become the root?"""
    if a.prio != b.prio:
        return a.prio > b.prio
    return a.key < b.key


def get(node, key, default=MISSING):
    """Look up ``key``; returns ``default`` when absent."""
    while node is not None:
        if key < node.key:
            node = node.left
        elif node.key < key:
            node = node.right
        else:
            return node.value
    return default


def contains(node, key):
    """True iff ``key`` is present."""
    return get(node, key) is not MISSING


def split(node, key):
    """Split into ``(left, found, right)``.

    ``left`` holds keys < ``key``, ``right`` holds keys > ``key`` and
    ``found`` is the node whose key equals ``key`` (or ``None``).
    Only the search path is copied; subtrees are shared.
    """
    if node is None:
        return None, None, None
    if key < node.key:
        left, found, rest = split(node.left, key)
        return left, found, Node(node.key, node.value, node.prio, rest, node.right)
    if node.key < key:
        rest, found, right = split(node.right, key)
        return Node(node.key, node.value, node.prio, node.left, rest), found, right
    return node.left, node, node.right


def merge(left, right):
    """Join two treaps where every key in ``left`` < every key in ``right``."""
    if left is None:
        return right
    if right is None:
        return left
    if _wins(left, right):
        return Node(left.key, left.value, left.prio, left.left, merge(left.right, right))
    return Node(right.key, right.value, right.prio, merge(left, right.left), right.right)


def insert(node, key, value):
    """Insert or replace ``key``; returns the new root."""
    prio = stable_hash(key)
    return _insert(node, key, value, prio)


def _insert(node, key, value, prio):
    if node is None:
        return Node(key, value, prio, None, None)
    if prio > node.prio or (prio == node.prio and key < node.key and key != node.key):
        if key == node.key:
            return Node(key, value, prio, node.left, node.right)
        left, found, right = split(node, key)
        return Node(key, value, prio, left, right)
    if key < node.key:
        new_left = _insert(node.left, key, value, prio)
        if new_left is node.left:
            return node
        return Node(node.key, node.value, node.prio, new_left, node.right)
    if node.key < key:
        new_right = _insert(node.right, key, value, prio)
        if new_right is node.right:
            return node
        return Node(node.key, node.value, node.prio, node.left, new_right)
    if node.value == value and type(node.value) is type(value):
        return node
    return Node(key, value, prio, node.left, node.right)


def remove(node, key):
    """Remove ``key`` if present; returns the new root."""
    if node is None:
        return None
    if key < node.key:
        new_left = remove(node.left, key)
        if new_left is node.left:
            return node
        return Node(node.key, node.value, node.prio, new_left, node.right)
    if node.key < key:
        new_right = remove(node.right, key)
        if new_right is node.right:
            return node
        return Node(node.key, node.value, node.prio, node.left, new_right)
    return merge(node.left, node.right)


def write(node, removed=(), keys=(), values=None):
    """Remove the strictly ascending ``removed`` keys and bind each of the
    strictly ascending ``keys`` to its entry of ``values`` (all ``None``
    by default: a set), in one descent; a key in both is bound.

    A present key gets its value replaced in place; a new key whose
    priority beats a node's takes that node's part of the range, with no
    separate split.  Each touched node is copied once (a removed node's
    two sides are merged), each inserted key hashed once, an untouched
    subtree shared, and ``node`` itself returned when nothing changes.
    The result is :func:`from_sorted_items` of the resulting items."""
    if not removed and not keys:
        return node
    for run in (removed, keys):
        if not all(a < b for a, b in zip(run, run[1:])):
            raise ValueError("treap.write requires strictly ascending runs")
    if values is None:
        values = (None,) * len(keys)
    prios = [stable_hash(key) for key in keys]

    def descend(node, lo, hi, r0, r1, i0, i1):
        # the part of ``node`` strictly between ``lo`` and ``hi`` (an
        # open side is MISSING), with removed[r0:r1] and keys[i0:i1]
        while node is not None:
            if lo is not MISSING and not lo < node.key:
                node = node.right
            elif hi is not MISSING and not node.key < hi:
                node = node.left
            else:
                break
        if node is None:
            if i0 == i1:
                return None
            return _cartesian(zip(keys[i0:i1], values[i0:i1], prios[i0:i1]))
        if i0 < i1:
            top = prios[i0] if i1 - i0 == 1 else max(prios[i0:i1])
            if top >= node.prio:
                at = prios.index(top, i0, i1)
                key = keys[at]
                if top > node.prio or key < node.key:
                    cut = bisect_left(removed, key, r0, r1)
                    past = cut + (cut < r1 and removed[cut] == key)
                    return Node(key, values[at], top,
                                descend(node, lo, key, r0, cut, i0, at),
                                descend(node, key, hi, past, r1, at + 1, i1))
        key = node.key
        cut, gone = r0, False
        if r0 < r1:
            cut = bisect_left(removed, key, r0, r1)
            gone = cut < r1 and removed[cut] == key
        at, hit = i0, False
        if i0 < i1:
            at = bisect_left(keys, key, i0, i1)
            hit = at < i1 and keys[at] == key
        left, right = node.left, node.right
        if r0 < cut or i0 < at or lo is not MISSING:
            left = descend(left, lo, MISSING, r0, cut, i0, at)
        r0, i0 = cut + gone, at + hit
        if r0 < r1 or i0 < i1 or hi is not MISSING:
            right = descend(right, MISSING, hi, r0, r1, i0, i1)
        value = node.value
        if hit:
            value = values[at]
        elif gone:
            return merge(left, right)
        if (left is node.left and right is node.right and value == node.value
                and type(value) is type(node.value)):
            return node
        return Node(key, value, node.prio, left, right)

    try:
        return descend(node, MISSING, MISSING, 0, len(removed), 0, len(keys))
    finally:
        descend = None  # it refers to itself: free it now, not at a gc pass


def items(node):
    """Yield ``(key, value)`` in ascending key order (iterative)."""
    stack = []
    while node is not None or stack:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        yield node.key, node.value
        node = node.right


def items_from(node, key):
    """Yield ``(key, value)`` pairs with node key >= ``key``, ascending."""
    stack = []
    while node is not None:
        if node.key < key:
            node = node.right
        else:
            stack.append(node)
            node = node.left
    while stack:
        node = stack.pop()
        yield node.key, node.value
        node = node.right
        while node is not None:
            stack.append(node)
            node = node.left


def first(node):
    """Smallest ``(key, value)`` or ``None`` when empty."""
    if node is None:
        return None
    while node.left is not None:
        node = node.left
    return node.key, node.value


def last(node):
    """Largest ``(key, value)`` or ``None`` when empty."""
    if node is None:
        return None
    while node.right is not None:
        node = node.right
    return node.key, node.value


def kth(node, index):
    """The ``index``-th smallest ``(key, value)`` (0-based)."""
    if index < 0 or index >= size(node):
        raise IndexError(index)
    while True:
        left_size = size(node.left)
        if index < left_size:
            node = node.left
        elif index == left_size:
            return node.key, node.value
        else:
            index -= left_size + 1
            node = node.right


def rank(node, key):
    """Number of keys strictly smaller than ``key``."""
    count = 0
    while node is not None:
        if key <= node.key:
            node = node.left
        else:
            count += size(node.left) + 1
            node = node.right
    return count


def from_sorted_items(pairs):
    """Bulk-load a treap from key-ascending ``(key, value)`` pairs in O(n).

    Builds the Cartesian tree over the deterministic priorities with the
    classic right-spine stack algorithm, then freezes it bottom-up into
    immutable nodes.  The result is bit-identical to repeated insertion
    (unique representation).
    """
    return _cartesian((key, value, stable_hash(key)) for key, value in pairs)


def _cartesian(triples):
    """The treap of strictly key-ascending ``(key, value, prio)`` triples."""
    spine = []
    for key, value, prio in triples:
        if spine and not spine[-1].key < key:
            raise ValueError("a treap is built from strictly ascending keys")
        mut = _Mut(key, value, prio)
        dropped = None
        while spine and not _wins(spine[-1], mut):
            dropped = spine.pop()
        mut.left = dropped
        if spine:
            spine[-1].right = mut
        spine.append(mut)
    return _freeze(spine[0]) if spine else None


class _Mut:
    """A mutable node of a Cartesian tree under construction."""

    __slots__ = ("key", "value", "prio", "left", "right")

    def __init__(self, key, value, prio):
        self.key = key
        self.value = value
        self.prio = prio
        self.left = None
        self.right = None


def _freeze(mut):
    if mut is None:
        return None
    return Node(mut.key, mut.value, mut.prio, _freeze(mut.left), _freeze(mut.right))


def equal(a, b):
    """O(1) amortized extensional equality via memoized hashes.

    Hash equality is treated as equality (64-bit structural hashes;
    collision probability ~2^-64, the same trust the paper places in
    its memoized pointer comparison).  The first comparison of a tree
    nobody hashed yet pays for its unhashed nodes once.
    """
    if a is b:
        return True
    if size(a) != size(b):
        return False
    return tree_hash(a) == tree_hash(b)


def diff(a, b):
    """Yield ``(key, old_value, new_value)`` for keys differing between
    ``a`` (old) and ``b`` (new); absent values are ``MISSING``.

    Shared subtrees are pruned by identity, so the cost is proportional
    to the edit distance (times log n), never to the full size — the
    property incremental maintenance relies on (paper §3.1: "changes
    between versions can be enumerated efficiently").  Two trees whose
    roots hold the same key split their keys the same way, so both are
    descended pairwise; by unique representation that is the common
    case between related versions, and only differing root keys cost a
    split.  No hash is computed: memoized hashes prune only where both
    sides already have one.
    """
    if a is b:
        return
    if a is None:
        for key, value in items(b):
            yield key, MISSING, value
        return
    if b is None:
        for key, value in items(a):
            yield key, value, MISSING
        return
    if a._h is not None and a._h == b._h:
        return
    if a.key == b.key:
        yield from diff(a.left, b.left)
        if a.value != b.value or type(a.value) is not type(b.value):
            yield a.key, a.value, b.value
        yield from diff(a.right, b.right)
        return
    b_left, found, b_right = split(b, a.key)
    yield from diff(a.left, b_left)
    if found is None:
        yield a.key, a.value, MISSING
    elif a.value != found.value or type(a.value) is not type(found.value):
        yield a.key, a.value, found.value
    yield from diff(a.right, b_right)

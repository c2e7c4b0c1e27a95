"""Persistent sorted set over deterministic treaps.

A thin veneer over the treap algebra storing ``None`` values.  A batch
of removals and additions is one :meth:`PSet.write`.
"""

from repro.ds import treap


class PSet:
    """An immutable sorted set with persistent update operations."""

    __slots__ = ("_root",)

    EMPTY = None  # set below, after the class body

    def __init__(self, root=None):
        self._root = root

    @classmethod
    def from_iter(cls, elements):
        """Build from arbitrary-order elements: sorted, deduplicated and
        bulk-loaded (the same tree repeated insertion would build)."""
        return cls.from_sorted(sorted(set(elements)))

    @classmethod
    def from_sorted(cls, elements):
        """Bulk-load from strictly ascending elements in O(n)."""
        return cls(treap.from_sorted_items((e, None) for e in elements))

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return treap.size(self._root)

    def __bool__(self):
        return self._root is not None

    def __contains__(self, element):
        return treap.contains(self._root, element)

    def __iter__(self):
        for key, _ in treap.items(self._root):
            yield key

    def iter_from(self, element):
        """Iterate elements >= ``element`` in ascending order."""
        for key, _ in treap.items_from(self._root, element):
            yield key

    def first(self):
        """Smallest element, or ``None`` when empty."""
        pair = treap.first(self._root)
        return pair[0] if pair is not None else None

    def last(self):
        """Largest element, or ``None`` when empty."""
        pair = treap.last(self._root)
        return pair[0] if pair is not None else None

    def kth(self, index):
        """The ``index``-th smallest element."""
        return treap.kth(self._root, index)[0]

    def rank(self, element):
        """Number of elements strictly smaller than ``element``."""
        return treap.rank(self._root, element)

    # -- persistent updates ----------------------------------------------

    def add(self, element):
        """Return a new set including ``element``."""
        root = treap.insert(self._root, element, None)
        return self if root is self._root else PSet(root)

    def remove(self, element):
        """Return a new set without ``element`` (no-op when absent)."""
        root = treap.remove(self._root, element)
        return self if root is self._root else PSet(root)

    def write(self, removed=(), added=()):
        """Return a new set without the elements of ``removed`` and with
        those of ``added``, both strictly ascending runs, written in one
        descent (:func:`repro.ds.treap.write`)."""
        root = treap.write(self._root, removed, added)
        return self if root is self._root else PSet(root)

    # -- structural operations ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PSet):
            return NotImplemented
        return treap.equal(self._root, other._root)

    def __ne__(self, other):
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):
        return treap.tree_hash(self._root)

    def structural_hash(self):
        """The memoized 64-bit content hash."""
        return treap.tree_hash(self._root)

    def diff(self, new):
        """Yield ``(element, present_in_old, present_in_new)`` vs ``new``."""
        for key, old, new_value in treap.diff(self._root, new._root):
            yield key, old is not treap.MISSING, new_value is not treap.MISSING

    def __repr__(self):
        preview = ", ".join(repr(e) for e in list(self)[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return "PSet({{{}{}}})".format(preview, suffix)


PSet.EMPTY = PSet()

"""Persistent sorted map over deterministic treaps.

All operations return new maps; existing maps are never modified.
Structure is shared between versions, so branching is O(1) and diffing
two related versions costs time proportional to their edit distance.
"""

from repro.ds import treap
from repro.ds.treap import MISSING


class PMap:
    """An immutable sorted mapping with persistent update operations."""

    __slots__ = ("_root",)

    EMPTY = None  # set below, after the class body

    def __init__(self, root=None):
        self._root = root

    @classmethod
    def from_items(cls, pairs):
        """Build from arbitrary-order ``(key, value)`` pairs."""
        root = None
        for key, value in pairs:
            root = treap.insert(root, key, value)
        return cls(root)

    @classmethod
    def from_sorted_items(cls, pairs):
        """Bulk-load from strictly key-ascending pairs in O(n)."""
        return cls(treap.from_sorted_items(pairs))

    @classmethod
    def from_dict(cls, mapping):
        """Build from a Python mapping."""
        return cls.from_sorted_items(sorted(mapping.items()))

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return treap.size(self._root)

    def __bool__(self):
        return self._root is not None

    def __contains__(self, key):
        return treap.contains(self._root, key)

    def __getitem__(self, key):
        value = treap.get(self._root, key)
        if value is MISSING:
            raise KeyError(key)
        return value

    def get(self, key, default=None):
        """Value for ``key`` or ``default``."""
        value = treap.get(self._root, key)
        return default if value is MISSING else value

    def __iter__(self):
        for key, _ in treap.items(self._root):
            yield key

    def items(self):
        """Iterate ``(key, value)`` in ascending key order."""
        return treap.items(self._root)

    def items_from(self, key):
        """Iterate pairs with key >= ``key`` in ascending order."""
        return treap.items_from(self._root, key)

    def keys(self):
        """Iterate keys in ascending order."""
        return iter(self)

    def values(self):
        """Iterate values in ascending key order."""
        for _, value in treap.items(self._root):
            yield value

    def first(self):
        """Smallest ``(key, value)`` or ``None``."""
        return treap.first(self._root)

    def last(self):
        """Largest ``(key, value)`` or ``None``."""
        return treap.last(self._root)

    def kth(self, index):
        """The ``index``-th smallest ``(key, value)``."""
        return treap.kth(self._root, index)

    # -- persistent updates ----------------------------------------------

    def set(self, key, value):
        """Return a new map with ``key`` bound to ``value``."""
        root = treap.insert(self._root, key, value)
        return self if root is self._root else PMap(root)

    def remove(self, key):
        """Return a new map without ``key`` (no-op when absent)."""
        root = treap.remove(self._root, key)
        return self if root is self._root else PMap(root)

    def write(self, removed=(), items=()):
        """Return a new map without the keys of ``removed`` and with each
        ``(key, value)`` of ``items`` bound, both strictly key-ascending
        runs, written in one descent (:func:`repro.ds.treap.write`)."""
        items = tuple(items)
        keys = [key for key, _ in items]
        root = treap.write(self._root, removed, keys, [value for _, value in items])
        return self if root is self._root else PMap(root)

    # -- structural operations ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PMap):
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
        """Yield ``(key, old_value, new_value)`` vs the newer map ``new``;
        absent sides are :data:`repro.ds.treap.MISSING`."""
        return treap.diff(self._root, new._root)

    def __repr__(self):
        preview = ", ".join(
            "{!r}: {!r}".format(k, v) for k, v in list(self.items())[:4]
        )
        suffix = ", ..." if len(self) > 4 else ""
        return "PMap({{{}{}}})".format(preview, suffix)


PMap.EMPTY = PMap()

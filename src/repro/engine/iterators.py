"""Linear and trie iterators (paper §3.2).

The paper's iterator contract:

* linear: ``key() / next() / seek(v) / at_end()`` with O(log N) seeks
  and amortized O(1 + log(N/m)) ascending scans (``next`` here also
  returns the key it lands on, ``TOP`` at end, as a trie ``seek`` does);
* trie: additionally ``open()`` (descend to the first child) and
  ``up()`` (return to the parent), presenting an n-ary relation as a
  trie whose levels are argument positions.

One backend implements the trie contract over a relation:
:class:`TreapTrieIterator` navigates the persistent treap of the wanted
permutation directly, forward from a finger per open level.  Fresh versions
produced by small deltas are iterable immediately — nothing is
re-materialized, which the incremental-maintenance cost model depends
on.  Large joins run vectorized instead (:mod:`repro.engine.columnar`).
"""

from repro.storage.datum import TOP


def _lower_bound(node, key, stack):
    """Pop the least node >= ``key`` in ``node``'s subtree or on ``stack``
    (pending nodes, all >= ``key``), pushing the path's pending nodes."""
    while node is not None:
        if node.key < key:
            node = node.right
        else:
            stack.append(node)
            node = node.left
    return stack.pop() if stack else None


class TreapTrieIterator:
    """Trie navigation over a treap of lexicographically sorted tuples.

    ``fixed_prefix`` pre-binds leading columns to constants (the
    planner permutes constant arguments to the front, the moral
    equivalent of the paper's virtual ``Const`` predicates).  Each open
    level keeps a finger: the node of its first tuple with the current
    value plus the pending stack after it, so ``next`` and ``seek``
    move forward in amortized O(1) per key passed (O(log N) at worst),
    and ``open`` starts at the parent's finger.
    """

    __slots__ = ("_root", "arity", "_values", "_levels", "_at_end", "_fixed")

    def __init__(self, root, arity, fixed_prefix=()):
        self._root = root
        self.arity = arity
        self._fixed = tuple(fixed_prefix)
        self._values = []  # current value at each open depth
        self._levels = []  # [finger, pending stack, context] per open depth
        self._at_end = False

    def _forward(self, target):
        """Move the level's finger to the first tuple >= ``target`` (never
        back); returns the level's value there, ``TOP`` past its prefix."""
        level = self._levels[-1]
        node, stack, context = level
        if node is not None and node.key < target:
            while stack and stack[-1].key < target:
                node = stack.pop()
            level[0] = node = _lower_bound(node.right, target, stack)
        depth = len(context)
        self._at_end = node is None or node.key[:depth] != context
        value = self._values[-1] = TOP if self._at_end else node.key[depth]
        return value

    def open(self):
        """Descend to the first value at the next level."""
        context = self._fixed + tuple(self._values)
        stack = list(self._levels[-1][1]) if self._levels else []
        node = self._levels[-1][0] if self._levels else _lower_bound(self._root, context, stack)
        self._levels.append([node, stack, context])
        self._values.append(None)
        self._forward(context)

    def up(self):
        """Return to the parent level (its position is unchanged)."""
        self._values.pop()
        self._levels.pop()
        self._at_end = False

    def at_end(self):
        """True when the current level is exhausted."""
        return self._at_end

    def key(self):
        """Value at the current level position."""
        return self._values[-1]

    def next(self):
        """Advance to the next distinct value at the current level."""
        return self._forward(self._levels[-1][2] + (self._values[-1], TOP))

    def seek(self, value):
        """Least-upper-bound seek at the current level (forward only)."""
        return self._forward(self._levels[-1][2] + (value,))

    def context(self):
        """Permuted prefix under which the current level is explored
        (fixed constants plus values bound at earlier levels)."""
        return self._levels[-1][2]

    def check_fixed_prefix(self):
        """True iff a tuple with the fixed constant prefix exists."""
        found = _lower_bound(self._root, self._fixed, [])
        return found is not None and found.key[: len(self._fixed)] == self._fixed


class SingletonIterator:
    """A virtual one-value linear iterator.

    Serves computed bindings (``z = x - y`` once ``x, y`` are bound) and
    constant variables — the paper's virtual, non-materialized
    predicates accessed "through the same trie-iterator interface".
    """

    __slots__ = ("_value", "_at_end")

    def __init__(self, value):
        self._value = value
        self._at_end = False

    def at_end(self):
        """True once advanced past the single value."""
        return self._at_end

    def key(self):
        """The single value."""
        return self._value

    def next(self):
        """Exhausts the iterator."""
        self._at_end = True
        return TOP

    def seek(self, value):
        """Positions at the value when ``value`` <= it, else at end."""
        if self._value < value:
            self._at_end = True


def trie_iterator(relation, perm, fixed_prefix=()):
    """The trie iterator over ``relation`` permuted by ``perm`` (its
    secondary treap index, built once per version and then promoted)."""
    return TreapTrieIterator(relation.index_root(perm), relation.arity, fixed_prefix)

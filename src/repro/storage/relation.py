"""Persistent relations: immutable sets of tuples under set semantics.

A relation version is a persistent treap of tuples in lexicographic
order (the paper's "persistent B-tree-like data structures" for paged
data, §3.1).  Updates produce new versions sharing structure; diffing
two versions costs time proportional to their edit distance.

Secondary indexes are column permutations of the tuple set (paper §3.2:
"a secondary index is required on one of the two predicates").  They are
cached per relation version and maintained *incrementally* when a delta
is applied, so a small write to a large indexed relation stays cheap.
"""

import random

from repro import stats
from repro.ds import treap
from repro.ds.pset import PSet
from repro.ds.treap import MISSING
from repro.storage.datum import TOP


class Delta:
    """A set of insertions and deletions against one relation.

    ``added`` and ``removed`` are disjoint :class:`PSet` s of tuples; a
    delta is the paper's ``+R`` / ``-R`` pair (§2.2.1).
    """

    __slots__ = ("added", "removed")

    def __init__(self, added=None, removed=None):
        self.added = added if added is not None else PSet.EMPTY
        self.removed = removed if removed is not None else PSet.EMPTY

    @classmethod
    def from_iters(cls, added=(), removed=()):
        """Build a delta from plain iterables of tuples."""
        return cls(PSet.from_iter(added), PSet.from_iter(removed))

    def __bool__(self):
        return bool(self.added) or bool(self.removed)

    def __len__(self):
        return len(self.added) + len(self.removed)

    def inverse(self):
        """The delta undoing this one."""
        return Delta(self.removed, self.added)

    def then(self, later):
        """Compose: apply ``self`` first, ``later`` second."""
        added = (self.added - later.removed) | later.added
        removed = (self.removed - later.added) | later.removed
        return Delta(added, removed)

    def normalized(self, base):
        """Restrict to changes that actually alter ``base``.

        A tuple in both ``added`` and ``removed`` resolves to "added"
        (``apply`` removes first, then adds); insertions of present
        tuples and deletions of absent tuples are dropped, so the
        result is exactly the edit set.
        """
        removed = self.removed - self.added
        added = PSet.from_sorted(t for t in self.added if t not in base)
        removed = PSet.from_sorted(t for t in removed if t in base)
        return Delta(added, removed)

    def map_tuples(self, fn):
        """A delta with ``fn`` applied to every tuple."""
        return Delta.from_iters(
            (fn(t) for t in self.added), (fn(t) for t in self.removed)
        )

    def __repr__(self):
        return "Delta(+{}, -{})".format(len(self.added), len(self.removed))


def _permute(tup, perm):
    return tuple(tup[i] for i in perm)


class Relation:
    """One immutable version of a predicate's extension."""

    __slots__ = ("arity", "_tuples", "_indexes", "_columnar")

    def __init__(self, arity, tuples=None, indexes=None):
        self.arity = arity
        self._tuples = tuples if tuples is not None else PSet.EMPTY
        # perm (tuple) -> PSet of permuted tuples; identity perm excluded
        self._indexes = indexes if indexes is not None else {}
        # perm (tuple) -> ColumnarLayout | ColumnarUnsupported; lazy
        # cache for the vectorized backend, per version and never
        # promoted: apply() drops it from the version it supersedes
        self._columnar = {}

    @classmethod
    def empty(cls, arity):
        """The empty relation of the given arity."""
        return cls(arity)

    @classmethod
    def from_iter(cls, arity, tuples):
        """Build from an iterable of tuples (deduplicated, validated)."""
        materialized = sorted({tuple(t) for t in tuples})
        for t in materialized:
            if len(t) != arity:
                raise ValueError(
                    "tuple {!r} has arity {}, expected {}".format(t, len(t), arity)
                )
        return cls(arity, PSet.from_sorted(materialized))

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return len(self._tuples)

    def __bool__(self):
        return bool(self._tuples)

    def __contains__(self, tup):
        return tuple(tup) in self._tuples

    def __iter__(self):
        return iter(self._tuples)

    def tuples(self):
        """The underlying persistent tuple set."""
        return self._tuples

    def iter_prefix(self, prefix):
        """Iterate tuples starting with ``prefix`` (a tuple of values)."""
        prefix = tuple(prefix)
        depth = len(prefix)
        for tup in self._tuples.iter_from(prefix):
            if tup[:depth] != prefix:
                break
            yield tup

    def lookup(self, keys, default=MISSING):
        """Functional access: the value for key tuple ``keys``.

        For a functional predicate ``R[k...] = v`` returns ``v`` (the
        last attribute of the unique tuple extending ``keys``) or
        ``default``.
        """
        for tup in self.iter_prefix(tuple(keys)):
            return tup[-1]
        return default

    def sample(self, count, seed=0):
        """Up to ``count`` tuples sampled without replacement.

        Used by the sampling-based optimizer (paper §3.2: "small
        representative samples of predicates are maintained").
        """
        size = len(self)
        if size == 0:
            return []
        rng = random.Random(seed)
        if count >= size:
            return list(self)
        picks = rng.sample(range(size), count)
        root = self._tuples._root
        return [treap.kth(root, i)[0] for i in sorted(picks)]

    def structural_hash(self):
        """Memoized content hash (O(1) version equality)."""
        return self._tuples.structural_hash()

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.arity == other.arity and self._tuples == other._tuples

    def __ne__(self, other):
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):
        return hash((self.arity, self._tuples.structural_hash()))

    # -- persistent updates ----------------------------------------------

    def insert(self, tup):
        """New version including ``tup``."""
        tup = tuple(tup)
        if len(tup) != self.arity:
            raise ValueError("arity mismatch: {!r}".format(tup))
        return self.apply(Delta(PSet.from_iter([tup])))

    def remove(self, tup):
        """New version excluding ``tup``."""
        return self.apply(Delta(removed=PSet.from_iter([tuple(tup)])))

    def apply(self, delta):
        """Apply a :class:`Delta`, maintaining cached secondary indexes
        incrementally at O(|delta| log n), so the new version starts with
        every treap index of its parent already warm."""
        if not delta:
            return self
        tuples = (self._tuples - delta.removed) | delta.added
        if tuples == self._tuples:
            return self
        indexes = {}
        for perm, index in self._indexes.items():
            permuted = delta.map_tuples(lambda t, p=perm: _permute(t, p))
            indexes[perm] = (index - permuted.removed) | permuted.added
            stats.bump("relation.index_promotions")
        # a columnar layout cannot be merged cheaply; the superseded
        # version drops its own (a later read of it re-encodes), so
        # reads between writes leave no layout per write behind
        self._columnar = {}
        return Relation(self.arity, tuples, indexes)

    def diff(self, new):
        """The :class:`Delta` turning this version into ``new``.

        Prunes shared subtrees, so related versions diff in time
        proportional to their edit distance.
        """
        added, removed = [], []
        for element, in_old, in_new in self._tuples.diff(new._tuples):
            if in_new and not in_old:
                added.append(element)
            elif in_old and not in_new:
                removed.append(element)
        return Delta.from_iters(added, removed)

    def union(self, other):
        """Set union of two same-arity relations.

        Routed through :meth:`apply` so the receiver's warm indexes are
        promoted into the result instead of starting cold;
        a no-op union returns ``self`` unchanged."""
        if not other:
            return self
        if not self:
            return other
        return self.apply(Delta(added=other._tuples))

    def intersect(self, other):
        """Set intersection."""
        return Relation(self.arity, self._tuples & other._tuples)

    def subtract(self, other):
        """Set difference (cache-promoting, like :meth:`union`)."""
        if not other or not self:
            return self
        return self.apply(Delta(removed=other._tuples))

    def project(self, columns):
        """Projection onto the given column positions (set semantics)."""
        columns = tuple(columns)
        return Relation.from_iter(
            len(columns), (_permute(t, columns) for t in self._tuples)
        )

    # -- index & iteration backends ----------------------------------------

    def index_root(self, perm):
        """Treap root of the tuple set permuted by ``perm`` (cached).

        ``perm`` is a tuple of source column positions; the identity
        permutation returns the primary storage.
        """
        perm = tuple(perm)
        if perm == tuple(range(self.arity)):
            return self._tuples._root
        index = self._indexes.get(perm)
        if index is None:
            stats.bump("relation.index_misses")
            index = PSet.from_sorted(sorted(_permute(t, perm) for t in self._tuples))
            self._indexes[perm] = index
        else:
            stats.bump("relation.index_hits")
        return index._root

    def _sorted_rows(self, perm):
        if perm == tuple(range(self.arity)):
            return list(self._tuples)
        return sorted(_permute(t, perm) for t in self._tuples)

    def prefix_count(self, perm, prefix):
        """Number of tuples, permuted by ``perm``, that start with
        ``prefix``: a rank query on the treap of that permutation (the
        primary store for the identity, else the secondary index a pure
        scan would build)."""
        perm = tuple(perm)
        prefix = tuple(prefix)
        if not prefix:
            return len(self)
        upper = prefix + (TOP,)
        root = self.index_root(perm)
        return treap.rank(root, upper) - treap.rank(root, prefix)

    def columnar(self, perm):
        """Column-encoded layout of the tuples permuted by ``perm``
        (cached per version, never promoted by :meth:`apply`).

        Encodes from a sort of the tuples it does not keep, so one
        columnar read taxes no write after it.

        Raises :class:`~repro.storage.columnar.ColumnarUnsupported`
        when the values do not dictionary-encode (or numpy is absent);
        the failure itself is cached so repeated probes stay cheap.
        """
        from repro.storage.columnar import ColumnarLayout, ColumnarUnsupported

        perm = tuple(perm)
        cached = self._columnar.get(perm)
        if cached is None:
            stats.bump("relation.columnar_misses")
            try:
                cached = ColumnarLayout(self._sorted_rows(perm), self.arity)
            except ColumnarUnsupported as exc:
                cached = exc
            self._columnar[perm] = cached
        else:
            stats.bump("relation.columnar_hits")
        if isinstance(cached, ColumnarUnsupported):
            raise cached
        return cached

    def cached_columnar(self, perm):
        """The layout :meth:`columnar` already encoded for ``perm``, or
        ``None`` (nothing is built)."""
        cached = self._columnar.get(tuple(perm))
        return None if isinstance(cached, Exception) else cached

    def __repr__(self):
        preview = ", ".join(repr(t) for t in list(self._tuples)[:3])
        suffix = ", ..." if len(self) > 3 else ""
        return "Relation(arity={}, n={}, [{}{}])".format(
            self.arity, len(self), preview, suffix
        )

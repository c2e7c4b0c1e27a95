"""Persistent relations: immutable sets of tuples under set semantics.

A relation version is a persistent treap of tuples in lexicographic
order (the paper's "persistent B-tree-like data structures" for paged
data, §3.1).  Updates produce new versions sharing structure; diffing
two versions costs time proportional to their edit distance.  A
:class:`Delta` is two sorted runs of rows, which :meth:`Relation.apply`
writes into each treap in one descent.

Secondary indexes are column permutations of the tuple set (paper §3.2:
"a secondary index is required on one of the two predicates").  They are
cached per relation version and maintained *incrementally* when a delta
is applied, so a small write to a large indexed relation stays cheap.
Columnar layouts are handed on too, as patches applied on first read.

Every tuple enters a relation canonical per
:func:`~repro.ds.hashing.canonical_key`: a relation stores ``0.0``,
never ``-0.0``, whichever writer wrote it.
"""

import random
from math import copysign
from operator import itemgetter

from repro import stats
from repro.ds import treap
from repro.ds.hashing import canonical_key
from repro.ds.pset import PSet
from repro.ds.treap import MISSING
from repro.storage.datum import TOP


class Delta:
    """A set of insertions and deletions against one relation.

    ``added`` and ``removed`` are sorted, duplicate-free runs (tuples)
    of rows: a delta is the paper's ``+R`` / ``-R`` pair (§2.2.1), and
    :meth:`Relation.apply` writes both runs into each treap in one
    descent, so a delta builds no tree of its own.
    """

    __slots__ = ("added", "removed")

    def __init__(self, added=(), removed=()):
        self.added = added
        self.removed = removed

    @classmethod
    def from_iters(cls, added=(), removed=()):
        """Build a delta from plain iterables of tuples."""
        return cls(_run(added), _run(removed))

    def __bool__(self):
        return bool(self.added) or bool(self.removed)

    def __len__(self):
        return len(self.added) + len(self.removed)

    def inverse(self):
        """The delta undoing this one."""
        return Delta(self.removed, self.added)

    def then(self, later):
        """Compose: apply ``self`` first, ``later`` second."""
        return Delta.from_iters(
            set(self.added).difference(later.removed).union(later.added),
            set(self.removed).difference(later.added).union(later.removed))

    def normalized(self, base):
        """Restrict to changes that actually alter ``base``.

        A tuple in both ``added`` and ``removed`` resolves to "added"
        (``apply`` removes first, then adds); insertions of present
        tuples and deletions of absent tuples are dropped, so the
        result is exactly the edit set, its added tuples canonical.
        """
        readded = set(self.added)
        return Delta(tuple(_canonical(t) for t in self.added if t not in base),
                     tuple(t for t in self.removed if t in base and t not in readded))

    def __repr__(self):
        return "Delta(+{}, -{})".format(len(self.added), len(self.removed))


def _run(tuples):
    """``tuples`` as a sorted, duplicate-free run."""
    return tuple(sorted(set(tuples)))


def _permute(tup, perm):
    return tuple(tup[i] for i in perm)


def _negative_zero(value):
    return isinstance(value, float) and value == 0.0 and copysign(1.0, value) < 0


def _canonical(tup):
    """``tup`` with its values canonical (``-0.0`` stored as ``0.0``),
    ``tup`` itself when they already are.  ``0.0 in tup`` is true for
    every zero, so a tuple without one costs one C-level scan."""
    if 0.0 in tup and any(_negative_zero(value) for value in tup):
        return tuple(canonical_key(value) for value in tup)
    return tup


class _Patch:
    """A columnar layout of an earlier version, pending: the rows that
    version held and the summed size of the deltas written since."""

    __slots__ = ("layout", "tuples", "size")

    def __init__(self, layout, tuples, size):
        self.layout = layout
        self.tuples = tuples
        self.size = size


class Relation:
    """One immutable version of a predicate's extension."""

    __slots__ = ("arity", "_tuples", "_indexes", "_columnar")

    def __init__(self, arity, tuples=None, indexes=None, columnar=None):
        self.arity = arity
        self._tuples = tuples if tuples is not None else PSet.EMPTY
        # perm (tuple) -> PSet of permuted tuples; identity perm excluded
        self._indexes = indexes if indexes is not None else {}
        # perm (tuple) -> ColumnarLayout | ColumnarUnsupported | _Patch;
        # lazy cache for the vectorized backend: apply() hands each
        # layout on as a _Patch and drops it from the version it
        # supersedes, and columnar() applies a _Patch on first read
        self._columnar = columnar if columnar is not None else {}

    @classmethod
    def empty(cls, arity):
        """The empty relation of the given arity."""
        return cls(arity)

    @classmethod
    def from_iter(cls, arity, tuples):
        """Build from an iterable of tuples (deduplicated, validated)."""
        materialized = sorted({_canonical(tuple(t)) for t in tuples})
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
        return self.apply(Delta((tup,)))

    def remove(self, tup):
        """New version excluding ``tup``."""
        return self.apply(Delta(removed=(tuple(tup),)))

    def apply(self, delta):
        """Apply a :class:`Delta`: its two runs are written into the
        primary treap in one descent (:func:`repro.ds.treap.write`), and
        into each cached secondary index, permuted and sorted, in one
        more, at O(|delta| log n) each; so the new version starts with
        every treap index of its parent already warm.

        Each columnar layout this version holds, encoded or pending, is
        handed to the new version as a pending patch in O(1): the
        layout, the rows it encodes and the summed size of the deltas
        since.  :meth:`columnar` applies it on first read, so a write
        pays nothing for a layout nobody reads.  A patch whose deltas
        reach the layout's row count is dropped (encoding afresh is as
        cheap), and so is a cached encoding failure.  This version drops
        its own layouts, so reads between writes leave no layout per
        write behind."""
        if not delta:
            return self
        added, removed = delta.added, delta.removed
        for t in added:
            if 0.0 in t and _canonical(t) is not t:
                added = tuple(_canonical(t) for t in added)
                break
        tuples = self._tuples.write(removed, added)
        if tuples is self._tuples:
            return self
        indexes = {}
        for perm, index in self._indexes.items():
            permute = itemgetter(*perm)
            indexes[perm] = index.write(sorted(map(permute, removed)),
                                        sorted(map(permute, added)))
            stats.bump("relation.index_promotions")
        columnar = {}
        # a snapshot: a reader on another thread may add a layout
        for perm, cached in tuple(self._columnar.items()):
            if isinstance(cached, _Patch):
                cached = _Patch(cached.layout, cached.tuples,
                                cached.size + len(delta))
            elif isinstance(cached, Exception):
                continue
            else:
                cached = _Patch(cached, self._tuples, len(delta))
            if cached.size < cached.layout.n_rows:
                columnar[perm] = cached
        self._columnar = {}
        return Relation(self.arity, tuples, indexes, columnar)

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
        return Delta(tuple(added), tuple(removed))

    def union(self, other):
        """Set union of two same-arity relations.

        Routed through :meth:`apply` so the receiver's warm indexes are
        promoted into the result instead of starting cold;
        a no-op union returns ``self`` unchanged."""
        if not other:
            return self
        if not self:
            return other
        return self.apply(Delta(added=tuple(other._tuples)))

    def subtract(self, other):
        """Set difference (cache-promoting, like :meth:`union`)."""
        if not other or not self:
            return self
        return self.apply(Delta(removed=tuple(other._tuples)))

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
        (cached per version).

        A layout handed on by :meth:`apply` is patched with the rows
        this version and the patch's differ by — a treap diff, which
        costs their edit distance — and counts in
        ``relation.columnar_patches``; with nothing handed on, the
        layout is encoded from a sort of the tuples it does not keep
        (``relation.columnar_misses``), so one columnar read taxes no
        write after it.

        Raises :class:`~repro.storage.columnar.ColumnarUnsupported`
        when the values do not dictionary-encode;
        the failure itself is cached so repeated probes stay cheap.
        """
        from repro.storage.columnar import ColumnarLayout, ColumnarUnsupported

        perm = tuple(perm)
        cached = self._columnar.get(perm)
        if cached is None or isinstance(cached, _Patch):
            try:
                layout = None if cached is None else self._patched(perm, cached)
                if layout:
                    stats.bump("relation.columnar_patches")
                else:
                    stats.bump("relation.columnar_misses")
                    layout = ColumnarLayout(self._sorted_rows(perm), self.arity)
                cached = layout
            except ColumnarUnsupported as exc:
                cached = exc
            self._columnar[perm] = cached
        else:
            stats.bump("relation.columnar_hits")
        if isinstance(cached, ColumnarUnsupported):
            raise cached
        return cached

    def _patched(self, perm, patch):
        """``patch``'s layout moved to this version, or ``None`` when
        it cannot be (see :meth:`ColumnarLayout.patched`)."""
        added, removed = [], []
        for row, in_old, in_new in patch.tuples.diff(self._tuples):
            if in_new and not in_old:
                added.append(row)
            elif in_old and not in_new:
                removed.append(row)
        if perm != tuple(range(self.arity)):
            added = sorted(_permute(t, perm) for t in added)
            removed = sorted(_permute(t, perm) for t in removed)
        return patch.layout.patched(added, removed)

    def cached_columnar(self, perm):
        """The layout :meth:`columnar` already encoded for ``perm``, or
        ``None`` (nothing is built; a pending patch is not applied)."""
        cached = self._columnar.get(tuple(perm))
        return None if isinstance(cached, (Exception, _Patch)) else cached

    def __repr__(self):
        preview = ", ".join(repr(t) for t in list(self._tuples)[:3])
        suffix = ", ..." if len(self) > 3 else ""
        return "Relation(arity={}, n={}, [{}{}])".format(
            self.arity, len(self), preview, suffix
        )

"""Columnar (dictionary-encoded) relation storage for vectorized LFTJ.

A layout is built from one permutation of a relation version, sorted
once into a list of tuples that is not kept.  Each *column* of that
sorted list is dictionary-encoded into a contiguous ``numpy`` ``int64``
array of codes, where the per-column dictionary (the *domain*) is the
sorted list of distinct values.  A column of plain ``int`` s that fit
``int64``, or of plain ``float`` s, encodes through ``numpy.unique``;
any other column through a Python set and sort.  Both give the same
codes and domain.

The encoding is **order-preserving per column**: ``code(u) < code(v)``
iff ``u < v``.  Lexicographic order of the code rows therefore equals
lexicographic order of the value rows, so every structure the pure
backend derives from sorted tuples (trie levels, run boundaries, seek
targets) has an exact integer twin that ``numpy`` can batch-process.

A write does not re-encode a layout: :meth:`ColumnarLayout.patched`
turns the layout of one version into the layout of a later one from
the rows the versions differ by, in vectorized work linear in the
rows plus ``k log k`` in the ``k`` changed rows, and the result equals
a fresh encode array for array and domain for domain.

Canonicalization follows the :func:`repro.ds.hashing.canonical_key`
rules exactly — ``-0.0`` collapses into ``0.0`` and NaN is rejected —
so the columnar and pure backends sort, compare, and hash identically.

Values that do not encode (mutually incomparable or unhashable column
contents) raise :class:`ColumnarUnsupported`; callers fall back to the
pure-Python treap iterators.
"""

from bisect import bisect_left

import numpy as _np

from repro.ds.hashing import canonical_key


class ColumnarUnsupported(TypeError):
    """The relation's values cannot be dictionary-encoded.

    Raised for columns whose values are mutually incomparable or
    unhashable.  The engine treats it as
    "use the pure-Python backend", never as an error.
    """


def _numeric_array(values):
    """``values`` as an ``int64`` array when every one is a plain
    ``int`` that fits, as a canonical ``float64`` array when every one
    is a plain ``float``, else ``None``."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return _np.array(values, dtype=_np.int64)
        except OverflowError:
            return None
    if kinds == {float}:
        array = _np.array(values, dtype=_np.float64)
        nan = _np.isnan(array)
        if nan.any():
            canonical_key(values[int(_np.flatnonzero(nan)[0])])  # raises
        return array + 0.0  # -0.0 + 0.0 is 0.0: one representative
    return None


def encode_column(values):
    """Dictionary-encode one column of datums.

    Returns ``(codes, domain)``: ``codes`` is an ``int64`` array with
    ``codes[i] == domain.index(values[i])`` and ``domain`` the sorted
    list of distinct *canonical* values (original Python objects, never
    numpy scalars, so decoded tuples are interchangeable with pure-path
    tuples under both ``==`` and ``stable_hash``).
    """
    array = _numeric_array(values)
    if array is not None:
        domain, codes = _np.unique(array, return_inverse=True)
        return codes.astype(_np.int64, copy=False), domain.tolist()
    try:
        domain = sorted({canonical_key(v) for v in values})
    except ValueError:
        raise  # NaN rejection is a data error, not an encoding gap
    except TypeError as exc:
        raise ColumnarUnsupported(
            "column values do not dictionary-encode: {}".format(exc)
        )
    index = {value: code for code, value in enumerate(domain)}
    codes = _np.fromiter(
        (index[canonical_key(v)] for v in values), _np.int64, count=len(values)
    )
    return codes, domain


def _holds(domain, value):
    code = bisect_left(domain, value)
    return code < len(domain) and domain[code] == value


class ColumnarLayout:
    """One permutation of one relation version, column-encoded.

    ``codes[j]`` is the ``int64`` code array of column ``j`` over the
    permuted, lexicographically sorted tuple list; ``domains[j]`` is
    that column's sorted dictionary.  Row ``i`` of the sorted tuple list
    decodes to ``tuple(domains[j][codes[j][i]] for j)``.  A layout is
    never changed once built: :meth:`patched` returns a new one.
    """

    # weak-referenceable: join setups built from a layout go with it
    __slots__ = ("arity", "n_rows", "codes", "domains", "__weakref__")

    def __init__(self, rows, arity):
        self.arity = arity
        self.n_rows = len(rows)
        self.codes = []
        self.domains = []
        for column in (zip(*rows) if rows else [()] * arity):
            codes, domain = encode_column(column)
            self.codes.append(codes)
            self.domains.append(domain)

    @classmethod
    def _of(cls, n_rows, codes, domains):
        layout = cls.__new__(cls)
        layout.arity = len(codes)
        layout.n_rows = n_rows
        layout.codes = codes
        layout.domains = domains
        return layout

    def patched(self, added, removed):
        """This layout with the sorted rows ``removed`` (each one of its
        rows) taken out and the sorted rows ``added`` (none of its rows)
        put in: equal, array for array and domain for domain, to a fresh
        :class:`ColumnarLayout` of the resulting rows.

        Per column, values new to the domain are merged in and shift the
        codes above them up (one ``searchsorted``); rows leave and enter
        at the positions of their mixed-radix composite keys
        (``np.delete`` / ``np.insert``); values whose last row left drop
        out and shift the codes above them down.  Returns ``None`` when
        the composite keys would overflow ``int64`` (the caller encodes
        afresh).  Raises :class:`ColumnarUnsupported` when an added value
        does not compare with the column's.  With nothing to change it
        returns this layout, so join setups built on it stay valid.
        """
        if not added and not removed:
            return self
        if not self.arity:
            return None
        domains, columns = [], []
        for position in range(self.arity):
            domain, column = self.domains[position], self.codes[position]
            try:
                fresh = sorted({
                    value
                    for value in (canonical_key(row[position]) for row in added)
                    if not _holds(domain, value)
                })
            except TypeError as exc:
                raise ColumnarUnsupported(
                    "column values do not dictionary-encode: {}".format(exc)
                )
            if fresh:
                slots = [bisect_left(domain, value) for value in fresh]
                column = column + _np.searchsorted(slots, column, side="right")
                domain = list(domain)
                for slot, value in zip(reversed(slots), reversed(fresh)):
                    domain.insert(slot, value)
            domains.append(domain)
            columns.append(column)

        weights, scale = [], 1
        for domain in reversed(domains):
            weights.append(scale)
            scale *= len(domain) or 1
        if scale > 2 ** 63:
            return None
        weights.reverse()

        def coded(rows):
            """Per column, the codes of ``rows`` in the merged domain."""
            return [
                [bisect_left(domain, canonical_key(row[position])) for row in rows]
                for position, domain in enumerate(domains)
            ]

        def composite(coded_columns):
            keys = _np.zeros(len(coded_columns[0]), _np.int64)
            for codes, weight in zip(coded_columns, weights):
                keys += _np.asarray(codes, _np.int64) * weight
            return keys

        keys = composite(columns)
        left = coded(removed)
        if removed:
            rows = _np.searchsorted(keys, composite(left))
            keys = _np.delete(keys, rows)
            columns = [_np.delete(column, rows) for column in columns]
        if added:
            entering = coded(added)
            rows = _np.searchsorted(keys, composite(entering))
            columns = [
                _np.insert(column, rows, codes)
                for column, codes in zip(columns, entering)
            ]
        for position, codes in enumerate(left):
            if not codes:
                continue
            column, domain = columns[position], domains[position]
            present = _np.bincount(column, minlength=len(domain))
            gone = [code for code in sorted(set(codes)) if not present[code]]
            if gone:
                columns[position] = column - _np.searchsorted(gone, column)
                domain = domains[position] = list(domain)
                for code in reversed(gone):
                    del domain[code]
        return ColumnarLayout._of(len(columns[0]), columns, domains)

    def prefix_range(self, prefix):
        """Row range ``[lo, hi)`` of the tuples starting with ``prefix``:
        per prefix column, a bisect into its dictionary and a vectorized
        bisect over its codes inside the range narrowed so far."""
        lo, hi = 0, self.n_rows
        for position, value in enumerate(prefix):
            domain = self.domains[position]
            code = bisect_left(domain, value)
            if code == len(domain) or domain[code] != value:
                return lo, lo
            column = self.codes[position][lo:hi]
            lo, hi = (lo + int(column.searchsorted(code, side))
                      for side in ("left", "right"))
        return lo, hi

    def run_starts(self, depth, lo=0, hi=None):
        """Row indices (within ``[lo, hi)``) starting a run of equal
        ``depth+1``-column prefixes — the node boundaries of the trie
        level at ``depth``.  Vectorized: one ``!=`` pass per column.
        """
        if hi is None:
            hi = self.n_rows
        count = hi - lo
        if count <= 0:
            return _np.empty(0, _np.int64)
        change = _np.zeros(count, dtype=bool)
        change[0] = True
        for position in range(depth + 1):
            column = self.codes[position][lo:hi]
            change[1:] |= column[1:] != column[:-1]
        return _np.flatnonzero(change).astype(_np.int64) + lo

"""Vectorized (columnar) leapfrog triejoin — the raw-speed backend.

The pure-Python :class:`~repro.engine.lftj.LeapfrogTrieJoin` pays
interpreter overhead on every ``seek``/``next``; this module executes
the same plans over the dictionary-encoded column arrays of
:mod:`repro.storage.columnar`, replacing per-tuple seeks with *batched*
binary searches (``numpy.searchsorted``) over whole frontiers of
partial bindings at once — the batched-seek formulation of Veldhuizen's
LFTJ paper (arXiv 1210.0481), executed level by level as in generic
worst-case-optimal join: at each variable the smallest participant
enumerates candidates and every other participant intersects them with
one vectorized lower-bound search.

Each permuted relation becomes a *columnar trie*: run boundaries of
equal prefixes mark the trie nodes per depth; a node's key is an
``int64`` dictionary code, and per-depth ``parent * |domain| + key``
composites are globally sorted, so "seek key ``v`` under this node"
for an entire frontier is a single ``searchsorted``.

One vectorized interpreter runs every plan shape: comparison
filters, negations, and assignments are evaluated row-wise through the
pure executor's filter logic, so their semantics cannot drift.

Equivalence contract: bit-identical rows, in the pure executor's
enumeration order (codes are order-preserving, so ascending code order
is ascending value order).  Runs that must record sensitivity
intervals, and relations whose values do not dictionary-encode, fall
back to the pure executor — the oracle the backend-equivalence
property test checks against.
"""

import os
from bisect import bisect_left

from repro import stats as global_stats
from repro.engine.lftj import LeapfrogTrieJoin
from repro.storage.columnar import HAVE_NUMPY, ColumnarUnsupported
from repro.storage.datum import TOP

if HAVE_NUMPY:
    import numpy as np
else:  # pragma: no cover - numpy is part of the baked toolchain
    np = None

#: Recognized engine backends (the ``REPRO_ENGINE`` values).
BACKENDS = ("pure", "columnar")


def resolve_backend(explicit=None):
    """The engine backend to use: an explicit choice, the
    ``REPRO_ENGINE`` environment override, or ``"pure"``."""
    backend = explicit or os.environ.get("REPRO_ENGINE") or "pure"
    if backend not in BACKENDS:
        raise ValueError(
            "unknown engine backend {!r}; expected one of {}".format(
                backend, "/".join(BACKENDS)
            )
        )
    if backend == "columnar" and not HAVE_NUMPY:
        global_stats.bump("join.columnar_unavailable")
        return "pure"
    return backend


def make_join(plan, relations, recorder=None, prefer_array=True, stats=None,
              backend="pure"):
    """Build the best executor for one planned join.

    The columnar executor is used when the backend asks for it, no
    sensitivity recorder is attached (incremental passes stay on the
    pure path — they are exactly the small-input regime), and every
    participating relation dictionary-encodes; otherwise the pure
    executor runs.  Both honour the same ``run()`` contract.
    """
    if backend == "columnar" and recorder is None and HAVE_NUMPY:
        try:
            return ColumnarTrieJoin(
                plan, relations, prefer_array=prefer_array, stats=stats
            )
        except ColumnarUnsupported:
            global_stats.bump("join.columnar_fallbacks")
    return LeapfrogTrieJoin(plan, relations, recorder, prefer_array, stats=stats)


# -- join setup: per (plan, relation versions) columnar tries ----------------


class _AtomArrays:
    """Columnar trie of one atom's permuted relation, join-ready.

    Per own-depth ``d``: ``keys[d]`` holds each trie node's key as a
    *level-global* dictionary code, and ``comp[d]`` the sorted
    ``parent_node * level_domain_size + key`` composites that make
    per-node seeks a single global ``searchsorted``.  ``child_lo`` /
    ``child_cnt`` map a node to its children's index range one depth
    down.
    """

    __slots__ = ("keys", "comp", "child_lo", "child_cnt", "r0", "n_levels")

    def __init__(self, atom_plan, layout, lo, hi, value_index, sizes):
        n_const = len(atom_plan.const_prefix)
        n_levels = len(atom_plan.levels)
        starts = [
            layout.run_starts(n_const + depth, lo, hi)
            for depth in range(n_levels)
        ]
        self.n_levels = n_levels
        self.r0 = len(starts[0])
        self.keys = []
        self.comp = []
        self.child_lo = []
        self.child_cnt = []
        for depth in range(n_levels):
            level = atom_plan.levels[depth]
            level_size = sizes[level]
            local_domain = layout.domains[n_const + depth]
            index = value_index[level]
            remap = np.fromiter(
                (index[value] for value in local_domain),
                np.int64,
                count=len(local_domain),
            )
            keys = remap[layout.codes[n_const + depth][starts[depth]]]
            self.keys.append(keys)
            if depth == 0:
                self.comp.append(keys)
            else:
                if len(starts[depth - 1]) * (level_size + 1) >= 2**62:
                    raise ColumnarUnsupported("composite seek keys overflow")
                parent = (
                    np.searchsorted(starts[depth - 1], starts[depth], side="right")
                    - 1
                )
                self.comp.append(parent * level_size + keys)
        for depth in range(n_levels - 1):
            child_lo = np.searchsorted(starts[depth + 1], starts[depth]).astype(
                np.int64
            )
            child_cnt = np.empty(len(child_lo), np.int64)
            child_cnt[:-1] = child_lo[1:] - child_lo[:-1]
            child_cnt[-1] = len(starts[depth + 1]) - child_lo[-1]
            self.child_lo.append(child_lo)
            self.child_cnt.append(child_cnt)


class _JoinSetup:
    """Everything the vectorized loops need for one (plan, versions)."""

    __slots__ = ("atoms", "domains", "domain_arrays", "value_index", "sizes", "empty")

    def __init__(self, atoms, domains, value_index, sizes, empty):
        self.atoms = atoms
        self.domains = domains  # per level: sorted value list | None
        self.value_index = value_index  # per level: {value: code} | None
        self.sizes = sizes  # per level: len(domain) or 1
        self.empty = empty
        self.domain_arrays = [None] * len(domains)

    def domain_array(self, level):
        """The level's decode table as an object ndarray (cached)."""
        array = self.domain_arrays[level]
        if array is None:
            domain = self.domains[level]
            array = np.empty(len(domain), object)
            array[:] = domain
            self.domain_arrays[level] = array
        return array


def _plan_signature(plan):
    return (
        plan.var_order,
        tuple(
            (ap.pred, ap.perm, ap.const_prefix, ap.levels)
            for ap in plan.atom_plans
        ),
    )


_SETUP_CACHE = {}
_SETUP_CACHE_LIMIT = 64


def _build_setup(plan, relations):
    """Columnar tries + per-variable dictionaries for one join."""
    n_levels = len(plan.var_order)
    layouts = []
    for atom_plan in plan.atom_plans:
        relation = relations[atom_plan.pred]
        layout = relation.columnar(atom_plan.perm)  # may raise Unsupported
        if atom_plan.const_prefix:
            rows = relation.flat(atom_plan.perm)
            lo = bisect_left(rows, atom_plan.const_prefix)
            hi = bisect_left(rows, atom_plan.const_prefix + (TOP,))
        else:
            lo, hi = 0, layout.n_rows
        if lo >= hi:
            return _JoinSetup((), [None] * n_levels, [None] * n_levels,
                              [1] * n_levels, empty=True)
        layouts.append((atom_plan, layout, lo, hi))

    # per-variable dictionaries: the ordered union of every participating
    # column's domain.  The first participant's representative wins for
    # values that compare equal across atoms, mirroring first-atom
    # iterator order in the pure leapfrog.
    level_values = [None] * n_levels
    for atom_plan, layout, _, _ in layouts:
        n_const = len(atom_plan.const_prefix)
        for depth, level in enumerate(atom_plan.levels):
            seen = level_values[level]
            if seen is None:
                seen = level_values[level] = ({}, [])
            index, ordered = seen
            for value in layout.domains[n_const + depth]:
                if value not in index:
                    index[value] = True
                    ordered.append(value)
    domains = [None] * n_levels
    value_index = [None] * n_levels
    sizes = [1] * n_levels
    for level in range(n_levels):
        if level_values[level] is None:
            continue  # assign-only level: raw values, no dictionary
        try:
            merged = sorted(level_values[level][1])
        except TypeError as exc:
            raise ColumnarUnsupported(
                "join key values do not merge-sort: {}".format(exc)
            )
        domains[level] = merged
        value_index[level] = {value: code for code, value in enumerate(merged)}
        sizes[level] = len(merged) or 1

    atoms = tuple(
        _AtomArrays(atom_plan, layout, lo, hi, value_index, sizes)
        for atom_plan, layout, lo, hi in layouts
    )
    return _JoinSetup(atoms, domains, value_index, sizes, empty=False)


def _setup_for(plan, relations):
    preds = sorted({ap.pred for ap in plan.atom_plans})
    key = (
        _plan_signature(plan),
        tuple((pred, relations[pred].structural_hash()) for pred in preds),
    )
    setup = _SETUP_CACHE.get(key)
    if setup is None:
        global_stats.bump("join.columnar_setups")
        setup = _build_setup(plan, relations)
        while len(_SETUP_CACHE) >= _SETUP_CACHE_LIMIT:
            _SETUP_CACHE.pop(next(iter(_SETUP_CACHE)))
        _SETUP_CACHE[key] = setup
    else:
        global_stats.bump("join.columnar_setup_hits")
    return setup


# -- shared vectorized primitives -------------------------------------------


def _range_concat(lo, cnt, total):
    """Concatenate ``arange(lo[i], lo[i] + cnt[i])`` for every ``i``."""
    ends = cnt.cumsum()
    return np.arange(total, dtype=np.int64) + np.repeat(lo - (ends - cnt), cnt)


def _code_of(index, value):
    """Dictionary code of a runtime-computed value (-1 = not joinable)."""
    try:
        code = index.get(value, -1)
    except TypeError:  # unhashable computed value: matches nothing
        return -1
    return code


# -- the executor ------------------------------------------------------------


class ColumnarTrieJoin:
    """Vectorized drop-in for :class:`LeapfrogTrieJoin` (no recorder).

    ``run()`` yields exactly the pure executor's tuples in exactly its
    order.  Construction raises :class:`ColumnarUnsupported` when the
    join cannot be vectorized (the :func:`make_join` factory then falls
    back to the pure executor).
    """

    def __init__(self, plan, relations, recorder=None, prefer_array=True,
                 stats=None):
        if recorder is not None:
            raise ColumnarUnsupported("sensitivity recording is a pure-path run")
        self.plan = plan
        self.relations = relations
        self.prefer_array = prefer_array
        self.stats = stats
        self._setup = _setup_for(plan, relations)

    # -- counters ---------------------------------------------------------

    def _count_batch(self, n_probes):
        stats = self.stats
        if stats is not None:
            stats["vector_seeks"] = stats.get("vector_seeks", 0) + n_probes
            stats["batches"] = stats.get("batches", 0) + 1
        global_stats.bump("join.vector_seeks", n_probes)
        global_stats.observe("join.batch_sizes", n_probes)

    def _count_steps(self, n_rows):
        stats = self.stats
        if stats is not None:
            stats["steps"] = stats.get("steps", 0) + n_rows

    # -- vectorized building blocks ---------------------------------------

    def _enumerate(self, arrays, depth, cur, frontier):
        """All candidate (frontier row, node) pairs of the driver atom."""
        if depth == 0:
            r0 = arrays.r0
            rows = np.repeat(np.arange(frontier, dtype=np.int64), r0)
            nodes = np.tile(np.arange(r0, dtype=np.int64), frontier)
        else:
            lo = arrays.child_lo[depth - 1][cur]
            cnt = arrays.child_cnt[depth - 1][cur]
            total = int(cnt.sum())
            rows = np.repeat(np.arange(frontier, dtype=np.int64), cnt)
            nodes = _range_concat(lo, cnt, total)
        return rows, arrays.keys[depth][nodes], nodes

    def _member(self, arrays, depth, cur, rows, vals, level_size):
        """Batched seek: for every candidate, the matching node of this
        atom under its current trie position (ok=False where absent)."""
        comp = arrays.comp[depth]
        if depth == 0:
            target = vals
        else:
            target = cur[rows] * level_size + vals
        pos = np.searchsorted(comp, target)
        pos = np.minimum(pos, len(comp) - 1)
        self._count_batch(len(target))
        return comp[pos] == target, pos

    # -- filter / assign support (row-wise, shared with pure semantics) ----

    def _decode_column(self, level, column):
        tag, array = column
        if tag == "raw":
            return array
        return self._setup.domain_array(level)[array]

    def _bindings_rows(self, columns, upto):
        """Per-row bindings dicts for variables bound at levels < upto."""
        names = self.plan.var_order
        decoded = [
            self._decode_column(level, columns[level]) for level in range(upto)
        ]
        if not decoded:
            return [{} for _ in range(1)]
        frontier = len(decoded[0])
        return [
            {names[level]: decoded[level][row] for level in range(upto)}
            for row in range(frontier)
        ]

    def _apply_filters(self, adapter, filters, columns, level):
        """Row-wise filter mask via the pure executor's filter logic."""
        names = self.plan.var_order
        decoded = [
            self._decode_column(lvl, columns[lvl]) for lvl in range(level + 1)
        ]
        frontier = len(decoded[0])
        keep = np.ones(frontier, dtype=bool)
        for row in range(frontier):
            bindings = {
                names[lvl]: decoded[lvl][row] for lvl in range(level + 1)
            }
            for entry in filters:
                if not adapter._filter_holds(entry, bindings):
                    keep[row] = False
                    break
        return keep

    # -- the interpreter ---------------------------------------------------

    def _interpret(self, adapter):
        """Level-by-level vectorized expansion; returns decoded columns
        (object arrays aligned with ``var_order``) or ``None``."""
        plan = self.plan
        setup = self._setup
        atoms = setup.atoms
        cur = [None] * len(atoms)
        columns = []
        frontier = 1
        for level in range(len(plan.var_order)):
            parts = plan.participants[level]
            assign = plan.assigns.get(level)
            if assign is not None:
                bindings_rows = self._bindings_rows(columns, level)
                values = [assign.compute(b) for b in bindings_rows]
                rows = np.arange(frontier, dtype=np.int64)
                if parts:
                    index = setup.value_index[level]
                    vals = np.fromiter(
                        (_code_of(index, v) for v in values),
                        np.int64,
                        count=frontier,
                    )
                    keep = vals >= 0
                    column = ("code", vals)
                else:
                    raw = np.empty(frontier, object)
                    raw[:] = values
                    keep = None
                    column = ("raw", raw)
                cand = {}
                if parts:
                    safe_vals = np.where(keep, vals, 0)
                    for atom_index, depth in parts:
                        ok, pos = self._member(
                            atoms[atom_index], depth, cur[atom_index],
                            rows, safe_vals, setup.sizes[level],
                        )
                        cand[atom_index] = pos
                        keep = keep & ok
            else:
                totals = [
                    atoms[ai].r0 * frontier
                    if depth == 0
                    else int(atoms[ai].child_cnt[depth - 1][cur[ai]].sum())
                    for ai, depth in parts
                ]
                driver = totals.index(min(totals))
                driver_index, driver_depth = parts[driver]
                rows, vals, driver_nodes = self._enumerate(
                    atoms[driver_index], driver_depth, cur[driver_index],
                    frontier,
                )
                if not len(vals):
                    return None
                cand = {driver_index: driver_nodes}
                keep = None
                for position, (atom_index, depth) in enumerate(parts):
                    if position == driver:
                        continue
                    ok, pos = self._member(
                        atoms[atom_index], depth, cur[atom_index],
                        rows, vals, setup.sizes[level],
                    )
                    cand[atom_index] = pos
                    keep = ok if keep is None else keep & ok
                column = ("code", vals)
            if keep is not None and not keep.all():
                rows = rows[keep]
                column = (column[0], column[1][keep])
                cand = {ai: c[keep] for ai, c in cand.items()}
            if not len(column[1]):
                return None
            for atom_index in range(len(atoms)):
                if atom_index in cand:
                    cur[atom_index] = cand[atom_index]
                elif cur[atom_index] is not None:
                    cur[atom_index] = cur[atom_index][rows]
            columns = [(tag, arr[rows]) for tag, arr in columns]
            columns.append(column)
            frontier = len(column[1])
            filters = plan.filters[level]
            if filters:
                keep = self._apply_filters(adapter, filters, columns, level)
                if not keep.all():
                    columns = [(tag, arr[keep]) for tag, arr in columns]
                    cur = [
                        c[keep] if c is not None else None for c in cur
                    ]
                    frontier = len(columns[-1][1])
                    if not frontier:
                        return None
            self._count_steps(frontier)
        return [
            self._decode_column(level, column)
            for level, column in enumerate(columns)
        ]

    # -- run ---------------------------------------------------------------

    def run(self):
        """Yield all satisfying assignments as ``var_order``-aligned
        tuples — the pure executor's output, bit for bit."""
        plan = self.plan
        adapter = LeapfrogTrieJoin(
            plan, self.relations, None, self.prefer_array
        )
        for comparison in plan.ground_filters:
            if not comparison.holds({}):
                return
        for atom in plan.ground_atoms:
            if not adapter._filter_holds(atom, {}):
                return
        if self._setup.empty:
            return
        if not plan.var_order:
            yield ()
            return
        global_stats.bump("join.columnar_joins")
        result = self._interpret(adapter)
        if result is None:
            return
        yield from zip(*result)


def join_count(plan, relations, prefer_array=True):
    """Number of satisfying assignments via the columnar executor."""
    executor = ColumnarTrieJoin(plan, relations, prefer_array=prefer_array)
    return sum(1 for _ in executor.run())


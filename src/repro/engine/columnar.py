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

One vectorized interpreter runs every plan shape.  Comparisons of
variables and constants that are all plain ``int64`` integers run as
numpy comparisons on the driver's candidates, before any other
participant is probed; every other filter (negations, strings, floats,
bools, big ints, expressions) and every assignment is evaluated
row-wise through the pure executor's filter logic, so its semantics
cannot drift.  Below the first variable the interpreter works on
fixed-size chunks of the first level's bindings, which bounds its
transient arrays.

A variable level that one atom column reads takes that column's
dictionary and codes as they are; a level several columns share gets
the merged dictionary and remaps each column's codes into it.

An aggregate rule whose join runs here does not decode its bindings:
:meth:`ColumnarTrieJoin.fold` groups the final frontier's code columns
by the head keys and reduces them in numpy (``count``, ``min``,
``max`` on codes, ``sum`` / ``avg`` on ``int64`` values), decoding one
key per group.  Float sums, sums that could overflow ``int64`` and
assigned (unencoded) variables fold row by row in the evaluator.

Which executor runs a join is decided per plan by
:func:`choose_backend`, the one place that choice is made: the columnar
executor pays a setup per relation version that only a large join
repays (:data:`COLUMNAR_MIN_ROWS`).

Equivalence contract: bit-identical rows, in the pure executor's
enumeration order (codes are order-preserving, so ascending code order
is ascending value order).  Runs that must record sensitivity
intervals, and relations whose values do not dictionary-encode, fall
back to the pure executor — the oracle the backend-equivalence
property test checks against.
"""

import weakref

import numpy as np

from repro import stats as global_stats
from repro.ds.pmap import PMap
from repro.engine.aggregates import MultisetState, SumState
from repro.engine.ir import CompareAtom, Const, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.storage.columnar import ColumnarUnsupported

#: Rows a plan's first variable level draws its bindings from (the
#: smallest constant-prefix range among the atoms that take part in it)
#: at which the columnar executor, setup included, overtakes the pure
#: one.  Measured on the analytics join shapes and the OLTP point
#: shape: EXPERIMENTS.md E17.
COLUMNAR_MIN_ROWS = 1024

#: First-level bindings per chunk of the deeper levels' expansion.
_CHUNK_ROWS = 64

#: The same for an aggregate fold, which keeps every row's codes until
#: it groups them anyway: wider chunks spend fewer interpreter passes.
_FOLD_CHUNK_ROWS = 1024

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1

_NUMPY_COMPARE = {
    "=": "equal",
    "!=": "not_equal",
    "<": "less",
    "<=": "less_equal",
    ">": "greater",
    ">=": "greater_equal",
}


def first_level_rows(plan, relations):
    """Rows the plan's first variable level draws its bindings from:
    the smallest constant-prefix range among the atoms that take part
    in it.  LFTJ intersects those atoms, so the first level has no more
    bindings than that, and every deeper binding extends one of them."""
    if not plan.var_order:
        return 0
    return min(
        (
            relations[plan.atom_plans[atom_index].pred].prefix_count(
                plan.atom_plans[atom_index].perm,
                plan.atom_plans[atom_index].const_prefix,
            )
            for atom_index, _ in plan.participants[0]
        ),
        default=0,
    )


def choose_backend(plan, relations, recorder=None):
    """``(backend, reason)`` for one join: columnar when its setup for
    these relation versions is already built or the plan's first level
    draws on at least :data:`COLUMNAR_MIN_ROWS` rows, pure otherwise —
    and always pure for a run that records sensitivity intervals."""
    if recorder is not None:
        return "pure", "records sensitivity"
    if _built_setup_key(plan, relations) in _SETUP_CACHE:
        return "columnar", "setup built"
    rows = first_level_rows(plan, relations)
    if rows >= COLUMNAR_MIN_ROWS:
        return "columnar", "{} rows >= {}".format(rows, COLUMNAR_MIN_ROWS)
    return "pure", "{} rows < {}".format(rows, COLUMNAR_MIN_ROWS)


def make_join(plan, relations, recorder=None, *, stats=None, backend=None):
    """Build the executor for one planned join.

    ``None`` for ``backend`` lets :func:`choose_backend` pick, as every
    evaluator does; ``"pure"`` or ``"columnar"`` forces one, for
    benchmarks and executor tests that compare the two on one plan.
    The columnar executor runs only without a sensitivity recorder and
    when every participating relation dictionary-encodes; otherwise the
    pure executor runs.  Both honour the same ``run()`` contract; the
    returned executor's ``reason`` says why it was picked, and each
    pick bumps ``join.backend.pure`` or ``join.backend.columnar``.
    """
    if backend is None:
        backend, reason = choose_backend(plan, relations, recorder)
    else:
        reason = "forced"
    executor = None
    if backend == "columnar" and recorder is None:
        try:
            executor = ColumnarTrieJoin(plan, relations, stats=stats)
        except ColumnarUnsupported:
            global_stats.bump("join.columnar_fallbacks")
            reason = "values do not encode"
    if executor is None:
        executor = LeapfrogTrieJoin(plan, relations, recorder, stats=stats)
        if backend == "columnar" and recorder is not None:
            reason = "records sensitivity"
    executor.reason = reason
    global_stats.bump("join.backend." + executor.backend)
    return executor


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

    def __init__(self, atom_plan, layout, lo, hi, setup):
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
            level_size = setup.sizes[level]
            local_domain = layout.domains[n_const + depth]
            keys = layout.codes[n_const + depth][starts[depth]]
            if setup.domains[level] is not local_domain:
                # a shared level: map local codes into the merged domain
                index = setup.code_index(level)
                remap = np.fromiter(
                    (index[value] for value in local_domain),
                    np.int64,
                    count=len(local_domain),
                )
                keys = remap[keys]
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

    __slots__ = ("atoms", "domains", "domain_arrays", "int_arrays",
                 "code_indexes", "sizes", "empty")

    def __init__(self, domains, empty):
        self.atoms = ()
        self.domains = domains  # per level: sorted value list | None
        # per level: len(domain) or 1
        self.sizes = [len(domain or ()) or 1 for domain in domains]
        self.empty = empty
        self.domain_arrays = [None] * len(domains)
        self.int_arrays = {}
        self.code_indexes = {}

    def code_index(self, level):
        """The level's ``{value: code}`` dictionary (cached)."""
        index = self.code_indexes.get(level)
        if index is None:
            index = self.code_indexes[level] = {
                value: code for code, value in enumerate(self.domains[level])
            }
        return index

    def domain_array(self, level):
        """The level's decode table as an object ndarray (cached)."""
        array = self.domain_arrays[level]
        if array is None:
            domain = self.domains[level]
            array = np.empty(len(domain), object)
            array[:] = domain
            self.domain_arrays[level] = array
        return array

    def int_array(self, level):
        """The level's decode table as an ``int64`` array when every
        value is a plain ``int`` that fits one (cached), else ``None``."""
        if level not in self.int_arrays:
            domain = self.domains[level]
            fits = (
                domain is not None
                and all(type(value) is int for value in domain)
                and (not domain
                     or (domain[0] >= _INT64_MIN and domain[-1] <= _INT64_MAX))
            )
            self.int_arrays[level] = (
                np.array(domain, dtype=np.int64) if fits else None
            )
        return self.int_arrays[level]


def _plan_signature(plan):
    return (
        plan.var_order,
        tuple(
            (ap.pred, ap.perm, ap.const_prefix, ap.levels)
            for ap in plan.atom_plans
        ),
    )


#: (plan signature, ids of the layouts it reads) -> (setup, weakrefs to
#: those layouts).  An entry goes with any of its layouts — a version
#: drops its layouts when a write supersedes it, or when it is
#: collected — or when the cache is full and it is the oldest.
_SETUP_CACHE = {}
_SETUP_CACHE_LIMIT = 64


def _setup_key(plan, layouts):
    return (_plan_signature(plan), tuple(id(layout) for layout in layouts))


def _built_setup_key(plan, relations):
    """The setup key when every layout the join reads is already
    encoded, else ``None``."""
    layouts = [relations[ap.pred].cached_columnar(ap.perm) for ap in plan.atom_plans]
    return None if None in layouts else _setup_key(plan, layouts)


def _build_setup(plan, layouts):
    """Columnar tries + per-variable dictionaries for one join, from
    each atom's layout."""
    n_levels = len(plan.var_order)
    ranged = []
    for atom_plan, layout in zip(plan.atom_plans, layouts):
        lo, hi = layout.prefix_range(atom_plan.const_prefix)
        if lo >= hi:
            return _JoinSetup([None] * n_levels, empty=True)
        ranged.append((atom_plan, layout, lo, hi))

    # per-variable dictionaries.  A level one atom column reads takes
    # that column's domain as is, and its codes as keys.  A shared
    # level takes the ordered union of its columns' domains; the first
    # participant's representative wins for values that compare equal
    # across atoms, mirroring first-atom iterator order in the pure
    # leapfrog.
    columns = [[] for _ in range(n_levels)]
    for atom_plan, layout, _, _ in ranged:
        n_const = len(atom_plan.const_prefix)
        for depth, level in enumerate(atom_plan.levels):
            columns[level].append(layout.domains[n_const + depth])
    domains = [None] * n_levels  # assign-only level: raw values
    for level, level_columns in enumerate(columns):
        if len(level_columns) == 1:
            domains[level] = level_columns[0]
        elif level_columns:
            index = {}
            for domain in level_columns:
                for value in domain:
                    index.setdefault(value, value)
            try:
                domains[level] = sorted(index.values())
            except TypeError as exc:
                raise ColumnarUnsupported(
                    "join key values do not merge-sort: {}".format(exc)
                )
    setup = _JoinSetup(domains, empty=False)
    setup.atoms = tuple(
        _AtomArrays(atom_plan, layout, lo, hi, setup)
        for atom_plan, layout, lo, hi in ranged
    )
    return setup


def _setup_for(plan, relations):
    """The cached setup for these relation versions, built on a miss.
    It lives no longer than the layouts it was built from, so no setup
    outlives the version it encodes or survives a write over it."""
    entry = _SETUP_CACHE.get(_built_setup_key(plan, relations))
    if entry is not None:
        global_stats.bump("join.columnar_setup_hits")
        return entry[0]
    global_stats.bump("join.columnar_setups")
    layouts = [  # may raise ColumnarUnsupported
        relations[atom_plan.pred].columnar(atom_plan.perm)
        for atom_plan in plan.atom_plans
    ]
    key = _setup_key(plan, layouts)
    setup = _build_setup(plan, layouts)

    def drop(_ref, key=key):
        _SETUP_CACHE.pop(key, None)

    # evict the oldest from a snapshot of the keys: a layout dying on
    # another thread pops entries too
    excess = len(_SETUP_CACHE) + 1 - _SETUP_CACHE_LIMIT
    for oldest in list(_SETUP_CACHE)[:max(excess, 0)]:
        _SETUP_CACHE.pop(oldest, None)
    _SETUP_CACHE[key] = (setup, [weakref.ref(layout, drop) for layout in layouts])
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


def _int_operand(expr, level_of, setup):
    """``expr`` as a vectorizable comparison operand — ``("var", level)``
    for a variable whose level decodes to ``int64``, ``("const", value)``
    for a plain ``int64`` constant — else ``None``."""
    if isinstance(expr, Var):
        level = level_of[expr.name]
        return ("var", level) if setup.int_array(level) is not None else None
    if (isinstance(expr, Const) and type(expr.value) is int
            and _INT64_MIN <= expr.value <= _INT64_MAX):
        return ("const", expr.value)
    return None


# -- the executor ------------------------------------------------------------


class ColumnarTrieJoin:
    """Vectorized drop-in for :class:`LeapfrogTrieJoin` (no recorder).

    ``run()`` yields exactly the pure executor's tuples in exactly its
    order.  Construction raises :class:`ColumnarUnsupported` when the
    join cannot be vectorized (the :func:`make_join` factory then falls
    back to the pure executor).
    """

    backend = "columnar"
    reason = None

    def __init__(self, plan, relations, recorder=None, *, stats=None):
        if recorder is not None:
            raise ColumnarUnsupported("sensitivity recording is a pure-path run")
        self.plan = plan
        self.relations = relations
        self.stats = stats
        self._setup = _setup_for(plan, relations)
        self._filters = [
            self._split_filters(level) for level in range(len(plan.var_order))
        ]

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

    # -- filters -------------------------------------------------------------

    def _split_filters(self, level):
        """``(vectorized, row-wise)`` filters of one level.  The leading
        comparisons whose operands are all ``int64`` variables or
        constants are vectorized; the first filter that is not, and
        everything after it, stays row-wise — so a filter that raises
        sees exactly the rows it sees on the pure path."""
        filters = self.plan.filters[level]
        if level in self.plan.assigns:
            return [], filters
        level_of = {name: lvl for lvl, name in enumerate(self.plan.var_order)}
        vectorized = []
        for entry in filters:
            # subclasses (constraint right-hand sides) carry their own logic
            if type(entry) is not CompareAtom:
                break
            operands = [_int_operand(side, level_of, self._setup)
                        for side in (entry.left, entry.right)]
            if None in operands:
                break
            vectorized.append((getattr(np, _NUMPY_COMPARE[entry.op]), operands))
        return vectorized, filters[len(vectorized):]

    def _compare_mask(self, vectorized, columns, rows, level, vals):
        """Mask over the driver's candidates (``rows`` into the frontier,
        ``vals`` the level's codes) of the vectorized comparisons."""
        setup = self._setup
        keep = None
        for compare, operands in vectorized:
            sides = []
            for kind, value in operands:
                if kind == "const":
                    sides.append(value)
                elif value == level:
                    sides.append(setup.int_array(value)[vals])
                else:
                    sides.append(setup.int_array(value)[columns[value][1][rows]])
            holds = compare(sides[0], sides[1])
            keep = holds if keep is None else keep & holds
        return keep

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
        checks = [adapter._check(entry) for entry in filters]
        return np.fromiter(
            (all(check(bindings) for check in checks)
             for bindings in self._bindings_rows(columns, level + 1)),
            bool, count=len(columns[0][1]),
        )

    # -- the interpreter ---------------------------------------------------

    def _level(self, adapter, level, cur, columns):
        """Expand one variable level over the frontier ``columns``
        (``cur`` holds each atom's trie node per frontier row); returns
        the next ``(cur, columns)``, or ``None`` when nothing survives."""
        plan = self.plan
        setup = self._setup
        atoms = setup.atoms
        frontier = len(columns[0][1]) if columns else 1
        parts = plan.participants[level]
        assign = plan.assigns.get(level)
        vectorized, rowwise = self._filters[level]
        if assign is not None:
            bindings_rows = self._bindings_rows(columns, level)
            values = [assign.compute(b) for b in bindings_rows]
            rows = np.arange(frontier, dtype=np.int64)
            if parts:
                index = setup.code_index(level)
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
            if vectorized and len(vals):
                # prune the candidates before probing anyone else
                holds = self._compare_mask(vectorized, columns, rows, level, vals)
                rows, vals, driver_nodes = (
                    rows[holds], vals[holds], driver_nodes[holds])
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
        cur = [
            cand[atom_index] if atom_index in cand
            else c[rows] if c is not None else None
            for atom_index, c in enumerate(cur)
        ]
        columns = [(tag, arr[rows]) for tag, arr in columns]
        columns.append(column)
        if rowwise:
            keep = self._apply_filters(adapter, rowwise, columns, level)
            if not keep.all():
                columns = [(tag, arr[keep]) for tag, arr in columns]
                cur = [c[keep] if c is not None else None for c in cur]
                if not len(columns[-1][1]):
                    return None
        self._count_steps(len(columns[-1][1]))
        return cur, columns

    def _interpret(self, adapter, chunk_rows=_CHUNK_ROWS):
        """Level-by-level vectorized expansion; yields the final
        frontier's coded ``(tag, array)`` columns (aligned with
        ``var_order``) per chunk of at most ``chunk_rows`` first-level
        bindings, in enumeration order."""
        n_levels = len(self.plan.var_order)
        first = self._level(adapter, 0, [None] * len(self._setup.atoms), [])
        if first is None:
            return
        cur0, columns0 = first
        for start in range(0, len(columns0[0][1]), chunk_rows):
            chunk = slice(start, start + chunk_rows)
            state = (
                [c[chunk] if c is not None else None for c in cur0],
                [(tag, arr[chunk]) for tag, arr in columns0],
            )
            for level in range(1, n_levels):
                state = self._level(adapter, level, *state)
                if state is None:
                    break
            else:
                yield state[1]

    def _satisfiable(self, adapter):
        """False when a ground filter or ground atom fails or a constant
        prefix matches nothing: the join has no bindings."""
        plan = self.plan
        return (
            all(comparison.holds({}) for comparison in plan.ground_filters)
            and all(adapter._check(probe)({}) for probe in plan.ground_atoms)
            and not self._setup.empty
        )

    def _decoded(self, chunks):
        """The bindings of coded chunks, as ``var_order``-aligned tuples."""
        for columns in chunks:
            yield from zip(*(
                self._decode_column(level, column)
                for level, column in enumerate(columns)
            ))

    # -- run ---------------------------------------------------------------

    def run(self):
        """Yield all satisfying assignments as ``var_order``-aligned
        tuples — the pure executor's output, bit for bit."""
        adapter = LeapfrogTrieJoin(self.plan, self.relations)
        if not self._satisfiable(adapter):
            return
        if not self.plan.var_order:
            yield ()
            return
        global_stats.bump("join.columnar_joins")
        yield from self._decoded(self._interpret(adapter))

    # -- aggregate fold ----------------------------------------------------

    def _fold_refusal(self, fn, key_levels, value_level):
        """Why aggregate ``fn`` cannot fold over this join's codes, or
        ``None`` when it can."""
        setup = self._setup
        if any(setup.domains[level] is None for level in key_levels):
            return "assigned group key"
        if setup.domains[value_level] is None:
            return "assigned value"
        if fn in ("sum", "avg") and setup.int_array(value_level) is None:
            return "values not int64"
        scale = 1
        for level in key_levels:
            scale *= setup.sizes[level]
        if scale > 2 ** 63:
            return "group keys overflow int64"
        return None

    def fold(self, fn, key_spec, value_level, keep_state):
        """Fold aggregate ``fn`` over the join's bindings in numpy,
        without decoding them.

        ``key_spec`` gives the head's group key columns — ``("c",
        value)`` for a constant, ``("v", level)`` for a variable — and
        ``value_level`` the aggregated variable.  Rows group by the
        mixed-radix composite of their key codes (one stable sort); a
        group's ``count`` is its size, ``min`` / ``max`` its extreme
        code (codes preserve order), and ``sum`` / ``avg`` an ``int64``
        ``reduceat`` whose total goes back to a Python ``int``.  Each
        group key decodes once.

        Returns ``(fold, result)``.  ``fold`` is ``"vector"`` and
        ``result`` a list of ``(group key, aggregate value, state)``
        (``state`` the :class:`~repro.engine.aggregates.SumState` or
        :class:`~repro.engine.aggregates.MultisetState` the row-wise
        fold would build, ``None`` unless ``keep_state``); or ``fold``
        is ``"rows: <reason>"`` and ``result`` the decoded bindings, for
        the caller to fold row by row.  That happens for a value column
        not all ``int64`` under ``sum`` / ``avg`` (floats included:
        pairwise summation would change the bits), for a sum that could
        overflow ``int64`` (``n * max|v| >= 2**63``) and for assigned
        (unencoded) variables.
        """
        setup = self._setup
        key_levels = [value for tag, value in key_spec if tag == "v"]
        refusal = None if setup.empty else self._fold_refusal(
            fn, key_levels, value_level)
        if refusal is not None:
            return "rows: " + refusal, self.run()
        adapter = LeapfrogTrieJoin(self.plan, self.relations)
        if not self._satisfiable(adapter):
            return "vector", []
        global_stats.bump("join.columnar_joins")
        chunks = list(self._interpret(adapter, _FOLD_CHUNK_ROWS))
        if not chunks:
            return "vector", []
        codes = {
            level: np.concatenate([columns[level][1] for columns in chunks])
            for level in set(key_levels) | {value_level}
        }
        n_rows = len(codes[value_level])
        values = codes[value_level]
        if fn in ("sum", "avg"):
            values = setup.int_array(value_level)[values]
            bound = max(-int(values.min()), int(values.max()))
            if n_rows * bound >= 2 ** 63:
                return "rows: sum may overflow int64", self._decoded(chunks)
        global_stats.bump("join.vector_folds")
        if self.stats is not None:
            self.stats["rows"] = n_rows

        group = np.zeros(n_rows, np.int64)
        for level in key_levels:
            group = group * setup.sizes[level] + codes[level]
        if fn in ("min", "max"):  # by group, then by value within one
            order = np.lexsort((values, group))
        else:
            order = np.argsort(group, kind="stable")
        group, values = group[order], values[order]
        starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        ends = np.r_[starts[1:], n_rows]
        sizes = (ends - starts).tolist()

        key_columns = [
            [value] * len(sizes) if tag == "c"
            else setup.domain_array(value)[codes[value][order[starts]]].tolist()
            for tag, value in key_spec
        ]
        keys = list(zip(*key_columns)) if key_columns else [()] * len(sizes)
        states = [None] * len(sizes)
        if fn == "count":
            results = sizes
            if keep_state:
                states = [SumState(size, size) for size in sizes]
        elif fn in ("sum", "avg"):
            totals = np.add.reduceat(values, starts).tolist()
            results = (totals if fn == "sum"
                       else [total / size for total, size in zip(totals, sizes)])
            if keep_state:
                states = [SumState(total, size)
                          for total, size in zip(totals, sizes)]
        else:
            decode = setup.domain_array(value_level)
            results = decode[values[starts if fn == "min" else ends - 1]].tolist()
            if keep_state:
                states = self._multisets(decode, group, values, starts, sizes)
        return "vector", list(zip(keys, results, states))

    @staticmethod
    def _multisets(decode, group, values, starts, sizes):
        """Per group (rows sorted by group, then value), the
        :class:`MultisetState` of its values."""
        runs = np.flatnonzero(
            np.r_[True, (group[1:] != group[:-1]) | (values[1:] != values[:-1])])
        counts = np.diff(np.r_[runs, len(values)]).tolist()
        distinct = decode[values[runs]].tolist()
        bounds = np.searchsorted(runs, np.r_[starts, len(values)]).tolist()
        return [
            MultisetState(
                PMap.from_sorted_items(zip(distinct[lo:hi], counts[lo:hi])), size)
            for lo, hi, size in zip(bounds, bounds[1:], sizes)
        ]

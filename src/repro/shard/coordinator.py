"""The shard coordinator: one workspace facade over N hash shards.

A :class:`ShardedWorkspace` presents the ordinary workspace verb
surface (``addblock`` / ``load`` / ``exec`` / ``query`` / ``rows``)
over a fleet of shard backends, each holding one hash fragment of the
partitioned EDB predicates (placement per :class:`ShardMap`) plus a
full copy of everything replicated.  The coordinator holds **no
data** — only the installed program and its co-partition
classification (:func:`repro.engine.planner.classify_rules`):

* **addblock** classifies the combined program first and *refuses*
  rules that are not shard-local-exact for the partition spec (the
  classification names the reason), then installs the block on every
  shard; a partial installation is rolled back.
* **load** fragments partitioned predicates by ``stable_hash`` key and
  broadcasts replicated ones.
* **query** costs what the query reads; placement picks one of four
  modes.  ``route``: a literal-key (or all-replicated) program runs on
  the one shard that owns it.  ``scatter``: a co-partitioned answer
  runs shard-local everywhere and the rows union.  ``fold``: an
  aggregate that loses the partition variable ships per-group *state*
  per :data:`AGG_STATE` — ``avg`` as ``(sum, count)``, by rewriting
  the query text — merged and finalised here, in one wave.
  ``exchange``: anything no shard can answer from its fragment alone
  fetches just the base predicates in the query's dependency cone,
  narrowed shard-side by the query's literals, all shards at once, and
  evaluates the cone over the fetched runs with a bare evaluator.
  Every mode is exact; no mode builds a workspace or keeps data here.
* **exec** routes literal-key co-partitioned writes to the owning
  shard as a plain transaction while no installed block holds a
  reactive rule; anything else runs the **cross-shard
  commit circuit** — the transaction-repair composition of Figure 7(b)
  stretched across processes, not classic 2PC:

  1. every shard executes the transaction against its own head
     snapshot (``shard_prepare``) and splits its effects into owned
     and *foreign* rows;
  2. the coordinator redistributes foreign rows to their owners and
     composes sibling corrections left-to-right — each shard's
     corrections are the others' replicated writes (excluding deltas
     identical to its own: the same logical write derived from
     replicated inputs on two shards is *one* write) plus the foreign
     rows it now owns — repairing incrementally (``shard_repair``)
     until no shard learns anything new;
  3. the final composed per-shard deltas commit in shard order
     (``shard_commit``).  A shard that raced a local commit refuses to
     diverge and raises ``ConflictError`` — the coordinator aborts and
     re-runs the whole circuit from fresh snapshots.  A failure after
     a partial commit is compensated by applying inverse deltas to the
     already-committed shards (``shard_apply``).

For co-partitioned programs the result is bit-identical to a single
process executing the same verbs (the equivalence suite's gate); for
programs with interacting cross-shard writes it is the serializable
left-to-right composition of the per-shard derivations.

Backends are sessions: a :class:`~repro.service.session.Session` over
each in-process service (:meth:`ShardedWorkspace.local`) or a
:class:`~repro.net.client.NetSession` per shard server
(``repro.connect("shards://h1:p1,h2:p2,...")``) — one verb surface,
one code path.  Like sessions, one coordinator serves one thread at a
time.

Integer aggregates recombine bit-identically.  Float ``sum`` / ``avg``
partials are folded with ``math.fsum`` (one rounding, independent of
shard order); each shard still accumulated its own fragment in its own
order, so a float result is not bit-equal to the single-process one
but within ``math.isclose(rel_tol=1e-12)`` of it on same-sign data of
a few thousand rows per group (the tested bound; cancellation in
mixed-sign data loosens any relative bound, sharded or not).
"""

import itertools
import math
import operator
import time

from repro import obs as _obs
from repro import stats as _stats
from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import Const, Param, PredAtom, bind
from repro.engine.planner import (
    KEY_KEYED,
    KEY_PARTIAL_AGG,
    KEY_REPLICATED,
    PredClass,
    base_pred,
    classify_rules,
)
from repro.engine.rules import dependency_cone
from repro.logiql import ast
from repro.logiql.compiler import compile_program
from repro.logiql.parser import parse_program
from repro.logiql.shapes import compile_shape
from repro.logiql.printer import unparse
from repro.net.protocol import VerbNotServed, VerbSurface
from repro.runtime.errors import (
    ConflictError,
    ReproError,
    TransactionAborted,
    UnknownPredicate,
)
from repro.runtime.result import TxnResult
from repro.shard.executors import ShardExecutorPool
from repro.shard.shardmap import ShardMap
from repro.storage.relation import Delta, Relation

_block_counter = itertools.count(1)


def _add(values):
    """One group's per-shard sums, added: integers exactly (so integer
    workloads stay bit-identical to a single process), floats through
    ``math.fsum`` (the fold itself rounds once, whatever the shard
    order)."""
    if any(isinstance(value, float) for value in values):
        return math.fsum(values)
    return sum(values)


def _only(value):
    return value


#: The aggregate table: ``fn -> (partial fns every shard computes,
#: how each partial merges across shards, how the merged state becomes
#: the value)``.  A shard ships group *state*, never a finished value
#: that cannot be combined further — the same ``SumState(total,
#: count)`` that backs ``sum``, ``count`` and ``avg`` in
#: :mod:`repro.engine.aggregates`, so ``avg`` travels as its ``(sum,
#: count)`` and is divided once, coordinator-side.
AGG_STATE = {
    "sum": (("sum",), (_add,), _only),
    "count": (("count",), (sum,), _only),
    "min": (("min",), (min,), _only),
    "max": (("max",), (max,), _only),
    "avg": (("sum", "count"), (_add, sum), operator.truediv),
}

#: predicate names of a rewritten partial-state query (a reserved
#: namespace: the lexer glues ``a:b`` into one identifier)
_PARTIAL_PRED = "shard:partial:{}"
_STATE_PRED = "shard:state"

#: repair passes before the coordinator declares the circuit divergent
_MAX_REPAIR_PASSES = 4


class ShardError(ReproError):
    """A program or write cannot be placed on this shard map."""


class ShardCommitError(ShardError):
    """A cross-shard commit failed *and* compensation of the already
    committed shards failed: the fleet needs operator attention."""


def _union_rows(row_lists):
    merged = set()
    for rows in row_lists:
        merged.update(tuple(row) for row in rows)
    return sorted(merged)


def _state_program(program, answer_pred, partials):
    """``program`` with the aggregate rule heading ``answer_pred`` split
    into one rule per partial (same head keys, same body — so every
    partial ranges over the same satisfying assignments) plus a rule
    lining the partials up per group.  Returns LogiQL text whose
    ``_STATE_PRED`` rows are ``group keys + one column per partial``."""
    clauses = []
    for clause in program.clauses:
        if not (isinstance(clause, ast.RuleClause)
                and clause.head.pred == answer_pred):
            clauses.append(clause)
            continue
        head, agg = clause.head, clause.agg
        if isinstance(head, ast.FuncAtom):
            head_keys, result = head.keys, head.value
        else:
            head_keys, result = head.terms[:-1], head.terms[-1]
        for fn in partials:
            clauses.append(ast.RuleClause(
                ast.FuncAtom(_PARTIAL_PRED.format(fn), head_keys, result),
                clause.body, ast.AggClause(agg.result_var, fn, agg.value)))
        keys = [ast.VarT("g{}".format(i)) for i in range(len(head_keys))]
        values = [ast.VarT("p{}".format(i)) for i in range(len(partials))]
        clauses.append(ast.RuleClause(
            ast.RelAtom(_STATE_PRED, keys + values),
            [ast.FuncAtom(_PARTIAL_PRED.format(fn), keys, value)
             for fn, value in zip(partials, values)]))
    return unparse(ast.Program(clauses))


def _bound(key, params):
    """A literal partition key from a rule anchor, a shape's slot bound
    to its value in ``params``."""
    return key.value_in(params) if isinstance(key, Param) else key


def _literal(value):
    if isinstance(value, bool):
        return ast.BoolT(value)
    if isinstance(value, str):
        return ast.StrT(value)
    return ast.NumT(value)


def _selection(pred, patterns):
    """The shard-local fetch for one base predicate of an exchange: the
    rows *some* atom over it can match.  ``patterns`` holds one tuple
    per atom — a ``Const`` where the atom pins a literal, ``None``
    where it has a variable; an atom with no literal reads the whole
    fragment, otherwise only the selected rows move."""
    for pattern in patterns:
        if all(const is None for const in pattern):
            patterns = [pattern]
            break
    clauses = []
    for pattern in sorted(patterns, key=repr):
        terms = [
            ast.VarT("v{}".format(col)) if const is None
            else _literal(const.value)
            for col, const in enumerate(pattern)]
        clauses.append(ast.RuleClause(
            ast.RelAtom("_", terms), [ast.RelAtom(pred, terms)]))
    return unparse(ast.Program(clauses))


class ShardedWorkspace(VerbSurface):
    """Coordinator over ``n`` hash shards (see module docstring).

    The verbs with placement logic — ``addblock`` / ``removeblock`` /
    ``load`` / ``rows`` / ``query`` / ``exec`` — are implemented here;
    the rest of the :class:`~repro.net.protocol.VerbSurface` fans out
    to every shard or is refused (:meth:`_verb`)."""

    def __init__(self, backends, shard_map, *, owns_backends=False,
                 max_retries=3, verify=True):
        backends = list(backends)
        if not isinstance(shard_map, ShardMap):
            raise TypeError("shard_map must be a ShardMap")
        if len(backends) != shard_map.n_shards:
            raise ValueError(
                "{} backends for a {}-shard map".format(
                    len(backends), shard_map.n_shards))
        self.shard_map = shard_map
        self._pool = ShardExecutorPool(backends)
        self._owns_backends = owns_backends
        self._max_retries = max_retries
        # the compiled program (no data!): block name -> (source, rules)
        self._blocks = {}
        self._analysis = classify_rules([], shard_map.partition)
        self._reactive_installed = False
        if verify:
            self._verify_members()

    # -- construction ----------------------------------------------------------

    @classmethod
    def local(cls, n_shards, partition=None, *, max_retries=3,
              **config_kwargs):
        """Spin up ``n_shards`` in-process
        :class:`~repro.service.TransactionService` shards (each with
        its shard identity configured, each behind its own session) —
        single-machine scale-up and the test/benchmark harness."""
        from repro.service import connect

        backends = [
            connect(shard_index=index, shard_count=n_shards, **config_kwargs)
            for index in range(n_shards)
        ]
        return cls(backends, ShardMap(n_shards, partition),
                   owns_backends=True, max_retries=max_retries)

    @classmethod
    def connect(cls, endpoints, partition=None, *, max_retries=3,
                **client_kwargs):
        """Connect to shard server processes at ``endpoints`` (a list
        of ``host:port``, index == shard index).  Each server's
        advertised shard identity is checked against its position."""
        from repro.net.client import NetSession

        endpoints = [str(e).strip() for e in endpoints if str(e).strip()]
        backends = []
        try:
            for endpoint in endpoints:
                host, _, port = endpoint.rpartition(":")
                backends.append(
                    NetSession(host, int(port), **client_kwargs))
        except BaseException:
            for backend in backends:
                backend.close()
            raise
        return cls(
            backends,
            ShardMap(len(endpoints), partition, endpoints=endpoints),
            owns_backends=True, max_retries=max_retries)

    def _verify_members(self):
        """Every backend that advertises a shard identity must agree
        with its slot in the map — catching a mis-ordered endpoint list
        before a single row is routed."""
        for index in range(self.shard_map.n_shards):
            shard = self._pool.backend(index).status().get("shard")
            if shard is None:
                continue
            advert = (shard["index"], shard["count"])
            if advert != (index, self.shard_map.n_shards):
                raise ShardError(
                    "backend {} advertises shard {}/{} but the map "
                    "places it at {}/{}".format(
                        index, advert[0], advert[1], index,
                        self.shard_map.n_shards))

    # -- program management ----------------------------------------------------

    def _installed_rules(self):
        rules = []
        for _, block_rules in self._blocks.values():
            rules.extend(block_rules)
        return rules

    def _installed(self, analysis):
        """Adopt the installed blocks' ``analysis`` after a program edit."""
        self._analysis = analysis
        self._reactive_installed = any(
            rule.head_pred[0] in "+-" for rule in self._installed_rules())

    def _classify(self, rules, analysis=None, params=()):
        """Classification plus the coordinator-side placement checks
        the per-rule transfer function cannot do (it does not know N):
        literal partition keys (a shape's slots bound to ``params``)
        must co-reside on one shard."""
        if analysis is None:
            analysis = classify_rules(rules, self.shard_map.partition)
        broken = list(analysis.broken)
        for rule in rules:
            anchor = analysis.anchors.get(id(rule))
            if anchor is None or anchor.kind != "const":
                continue
            keys = [_bound(c, params) for c in anchor.consts]
            owners = {self.shard_map.shard_of_key(key) for key in keys}
            if len(owners) > 1:
                broken.append((
                    rule,
                    "literal partition keys {} land on different "
                    "shards".format(keys)))
        return analysis, broken

    def addblock(self, source, *, name=None, timeout=None):
        """Install a block on every shard — after proving the combined
        program shard-local-exact for the partition spec."""
        self._check_open()
        if name is None:
            name = "shard-block-{}".format(next(_block_counter))
        block = compile_program(source)
        rules = list(block.rules) + list(block.reactive_rules)
        candidate = self._installed_rules() + rules
        analysis, broken = self._classify(candidate)
        if broken:
            reasons = "; ".join(
                "{}: {}".format(base_pred(rule.head_pred), reason)
                for rule, reason in broken[:3])
            raise ShardError(
                "block is not shard-local-exact for this partition "
                "spec ({})".format(reasons))
        for pred, cls in analysis.classes.items():
            # an installed view materializes finished *values* on each
            # shard: a mean is recoverable from per-shard state (which
            # is how avg queries fold), not from per-shard means
            if (cls.kind == KEY_PARTIAL_AGG
                    and AGG_STATE[cls.fn][0] != (cls.fn,)):
                raise ShardError(
                    "installed aggregate {}({}) cannot be recombined from "
                    "per-shard values; keep the partition variable in "
                    "its group keys".format(cls.fn, pred))
        with _obs.span("shard.addblock", block=name,
                       shards=self.shard_map.n_shards):
            futures = self._pool.broadcast(
                "addblock", source, name=name)
            results, failed = self._pool.settle(futures)
            if failed:
                # roll the block back off the shards that took it
                for index, result in enumerate(results):
                    if result is not None:
                        self._swallow(index, "removeblock", name)
                raise failed[0][1]
        self._blocks[name] = (source, rules)
        self._installed(analysis)
        _stats.bump("shard.addblocks")
        return results[0]

    def removeblock(self, name, *, timeout=None):
        """Remove a block from every shard."""
        self._check_open()
        if isinstance(name, TxnResult):
            name = name.block
        if name not in self._blocks:
            raise KeyError("no such block: {}".format(name))
        with _obs.span("shard.removeblock", block=name):
            results = self._pool.gather(
                self._pool.broadcast("removeblock", name))
        del self._blocks[name]
        self._installed(self._classify(self._installed_rules())[0])
        return results[0]

    def blocks(self):
        """Installed block names (insertion order)."""
        return list(self._blocks)

    # -- data ------------------------------------------------------------------

    def load(self, pred, tuples, remove=(), *, timeout=None):
        """Bulk load: partitioned predicates ship only each shard's
        fragment; replicated predicates broadcast in full."""
        self._check_open()
        tuples = [tuple(t) for t in tuples]
        remove = [tuple(t) for t in remove]
        with _obs.span("shard.load", pred=pred, rows=len(tuples)):
            if self.shard_map.is_partitioned(pred):
                _stats.bump("shard.fragmented_loads")
                try:
                    added = self.shard_map.fragment(pred, tuples)
                except ValueError as exc:  # as a workspace refuses it
                    raise TransactionAborted(
                        "arity mismatch for {}: {}".format(pred, exc)) from exc
                # no stored row is too narrow: removing one is a no-op
                col = self.shard_map.key_col(pred)
                removed = self.shard_map.fragment(
                    pred, [row for row in remove if col < len(row)])
                futures, targets = [], []
                for index in range(self.shard_map.n_shards):
                    if added[index] or removed[index]:
                        targets.append(index)
                        futures.append(self._pool.submit(
                            index, "load", pred, added[index],
                            removed[index]))
            else:
                _stats.bump("shard.replicated_loads")
                targets = list(range(self.shard_map.n_shards))
                futures = self._pool.broadcast("load", pred, tuples, remove)
            results, failed = self._pool.settle(futures)
            if failed:
                # best-effort compensation: un-load the shards that
                # committed their fragment, then surface the failure
                for position, result in enumerate(results):
                    if result is None:
                        continue
                    index = targets[position]
                    for pname, delta in result.deltas.items():
                        self._swallow(
                            index, "load", pname,
                            sorted(delta.removed), sorted(delta.added))
                raise failed[0][1]
        return TxnResult(
            status="committed", kind="load",
            deltas={pred: Delta.from_iters(tuples, remove)})

    def rows(self, pred):
        """The predicate's *global* extension, recombined by placement:
        replicated from shard 0, partitioned/keyed/scattered as the
        deduplicated shard union, aggregate partials folded."""
        self._check_open()
        cls = self._class_of(pred)
        if cls.kind == KEY_REPLICATED:
            return [tuple(r) for r in self._pool.backend(0).rows(pred)]
        row_lists = self._pool.gather(self._pool.broadcast("rows", pred))
        if cls.kind == KEY_PARTIAL_AGG:
            return self._recombine(cls.fn, row_lists)
        return _union_rows(row_lists)

    def _class_of(self, pred):
        pred = base_pred(pred)
        if self.shard_map.is_partitioned(pred):
            return PredClass(KEY_KEYED, col=self.shard_map.key_col(pred))
        return self._analysis.class_of(pred)

    def _recombine(self, fn, row_lists):
        """Fold per-shard group state (``keys + one column per partial
        of fn``) into ``keys + (value,)`` rows."""
        partials, merges, finalize = AGG_STATE[fn]
        width = len(partials)
        groups = {}
        for rows in row_lists:
            for row in rows:
                row = tuple(row)
                groups.setdefault(row[:-width], []).append(row[-width:])
        _stats.bump("shard.recombined_groups", len(groups))
        return sorted(
            key + (finalize(*(
                merge(column)
                for merge, column in zip(merges, zip(*states)))),)
            for key, states in groups.items())

    # -- queries ---------------------------------------------------------------

    def query_result(self, source, *, answer=None):
        """:meth:`query`, wrapped in the structured :class:`TxnResult`."""
        started = time.perf_counter()
        rows = self.query(source, answer=answer)
        return TxnResult(status="committed", kind="query", rows=rows,
                         latency_s=time.perf_counter() - started)

    def query(self, source, *, answer=None):
        """Evaluate a query program against the sharded fleet; returns
        the answer predicate's sorted global rows.  Planned by
        placement into one of four modes (module docstring): ``route``,
        ``scatter``, ``fold`` or ``exchange``."""
        self._check_open()
        _stats.bump("shard.queries")
        shape, params = compile_shape(source)
        if shape.block.reactive_rules:
            raise ShardError("queries cannot contain reactive rules")
        qrules = list(shape.block.rules)
        if not qrules:
            return []
        # the placement depends on the shape and the installed program
        # only: classified once per installed-program analysis
        installed, placement = shape.placement or (None, None)
        if installed is not self._analysis:
            installed, placement = self._analysis, classify_rules(
                qrules, self.shard_map.partition, seed_classes=self._analysis.classes)
            shape.placement = (installed, placement)
        analysis = placement
        answer_pred = answer or (
            "_" if any(r.head_pred == "_" for r in qrules)
            else qrules[-1].head_pred)
        cls = analysis.class_of(answer_pred)
        _, broken = self._classify(qrules, analysis, params)
        owner = None if broken else self._const_owner(qrules, analysis, params)
        if broken:
            mode = "exchange"
        elif owner is not None or cls.kind == KEY_REPLICATED:
            mode = "route"
        elif cls.kind == KEY_PARTIAL_AGG:
            mode = "fold"
        else:
            mode = "scatter"
        with _obs.span("shard.query", answer=answer_pred,
                       placement=cls.kind, mode=mode) as span_:
            if mode == "exchange":
                return self._query_exchange(qrules, params, answer_pred, span_)
            if mode == "route":
                if owner is None:
                    owner = 0  # replicated: any shard holds all of it
                else:
                    _stats.bump("shard.single_shard_queries")
                return [tuple(r) for r in self._pool.backend(owner).query(
                    source, answer=answer)]
            _stats.bump("shard.scatter_queries")
            if mode == "fold":
                return self._query_fold(source, answer, answer_pred, cls.fn)
            return _union_rows(self._pool.gather(
                self._pool.broadcast("query", source, answer=answer)))

    def _const_owner(self, rules, analysis, params):
        """The single shard owning every literal partition key of the
        program (a shape's slots bound to ``params``), or ``None`` when
        the program is not all-literal."""
        owners = set()
        for rule in rules:
            anchor = analysis.anchors.get(id(rule))
            if anchor is None or anchor.kind != "const":
                return None
            owners.update(
                self.shard_map.shard_of_key(_bound(c, params))
                for c in anchor.consts)
        if len(owners) == 1:
            return next(iter(owners))
        return None

    def _query_fold(self, source, answer, answer_pred, fn):
        """Partial-state fold: every shard computes the aggregate's
        partials over its fragment in one wave; the coordinator merges
        them per group and finalises.  An aggregate whose only partial
        is itself travels as the query it already is; ``avg`` is
        rewritten, from its parsed text, to ship ``(sum, count)``."""
        partials = AGG_STATE[fn][0]
        if partials != (fn,):
            source = _state_program(parse_program(source), answer_pred, partials)
            answer = _STATE_PRED
        return self._recombine(fn, self._pool.gather(
            self._pool.broadcast("query", source, answer=answer)))

    def _query_exchange(self, qrules, params, answer_pred, span_):
        """Pruned parallel exchange, for queries no shard can answer
        from its fragment alone (non-co-located joins, negation or
        aggregation over scattered rows).  Only the base predicates in
        the query's dependency cone move, each narrowed shard-side by
        the literals the cone's atoms pin, every ``(predicate, shard)``
        fetch in one wave; the cone is then evaluated over the fetched
        rows by a bare evaluator — a fetched run is just another
        relation to Leapfrog Triejoin, so no workspace is built, no
        block installed, no constraint checked and no view maintained.

        A shard that does not know a predicate contributes no rows;
        any other shard failure fails the query, after the whole wave
        has settled."""
        _stats.bump("shard.gather_queries")
        cone = dependency_cone(qrules, self._installed_rules())
        derived = {rule.head_pred for rule in cone}
        wanted = {}  # base predicate -> its atoms' constant patterns
        for rule in cone:
            for atom in rule.body:
                if isinstance(atom, PredAtom) and atom.pred not in derived:
                    wanted.setdefault(atom.pred, set()).add(tuple(
                        bind(arg, params) if isinstance(arg, Const) else None
                        for arg in atom.args))
        everywhere = range(self.shard_map.n_shards)
        slots, futures = [], []
        for pred in sorted(wanted):
            text = _selection(pred, wanted[pred])
            replicated = self._class_of(pred).kind == KEY_REPLICATED
            for index in ((0,) if replicated else everywhere):
                slots.append(pred)
                futures.append(self._pool.submit(index, "query", text))
        fetched, failed = self._pool.settle(futures)
        for slot, error in failed:
            if not isinstance(error, UnknownPredicate):
                raise error
            fetched[slot] = ()
        rows = {pred: [] for pred in wanted}
        for pred, part in zip(slots, fetched):
            rows[pred].extend(part)
        moved = sum(len(part) for part in fetched)
        _stats.bump("shard.exchange_rows", moved)
        if span_ is not None:
            span_.attrs["preds_fetched"] = sorted(wanted)
            span_.attrs["rows_fetched"] = moved
        base = {
            pred: Relation.from_iter(
                len(next(iter(wanted[pred]))), rows[pred])
            for pred in wanted}
        relations, _ = Evaluator(RuleSet(cone), params=params).evaluate(base)
        return sorted(relations[answer_pred])

    # -- writes ----------------------------------------------------------------

    def exec(self, source, *, timeout=None):
        """Run a reactive write transaction across the fleet."""
        self._check_open()
        shape, params = compile_shape(source)
        owner = self._single_shard_owner(shape.block, params)
        if owner is not None:
            _stats.bump("shard.single_shard_execs")
            with _obs.span("shard.exec", mode="single", shard=owner):
                return self._pool.backend(owner).exec(
                    source, timeout=timeout)
        return self._exec_circuit(source, timeout)

    def _single_shard_owner(self, block, params):
        """The one shard a literal-key co-partitioned write program can
        run on as a plain transaction — every write lands on rows the
        shard owns and every read is owned or replicated.  ``None``
        when the program needs the circuit, as it does whenever the
        installed program holds reactive rules.  A shape's literal keys
        are bound to ``params``."""
        if not block.reactive_rules or self._reactive_installed:
            return None
        partition = self.shard_map.partition
        owners = set()
        for rule in block.reactive_rules:
            col = partition.get(base_pred(rule.head_pred))
            if col is None or col >= len(rule.head_args):
                return None  # replicated (or malformed) write target
            head_key = rule.head_args[col]
            if not isinstance(head_key, Const):
                return None
            owners.add(self.shard_map.shard_of_key(head_key.value_in(params)))
            for atom in rule.body:
                if not isinstance(atom, PredAtom):
                    continue
                bcol = partition.get(base_pred(atom.pred))
                if bcol is None:
                    if self._class_of(atom.pred).kind != KEY_REPLICATED:
                        return None
                    continue
                if bcol >= len(atom.args):
                    return None
                term = atom.args[bcol]
                if not isinstance(term, Const):
                    return None
                owners.add(self.shard_map.shard_of_key(term.value_in(params)))
        if len(owners) == 1:
            return next(iter(owners))
        return None

    def _exec_circuit(self, source, timeout):
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                result = self._run_circuit(source, timeout)
            except ConflictError:
                # a shard raced a local commit mid-circuit; everything
                # was aborted/compensated — re-run from fresh snapshots
                if attempts > self._max_retries:
                    raise
                _stats.bump("shard.circuit_retries")
                continue
            result.attempts = attempts
            result.latency_s = time.perf_counter() - started
            return result

    def _run_circuit(self, source, timeout):
        n = self.shard_map.n_shards
        partition = dict(self.shard_map.partition)
        with _obs.span("shard.exec", mode="circuit", shards=n) as span_:
            prepared = self._prepare_all(source, partition, timeout)
            _stats.bump("shard.circuits")
            try:
                own = {i: dict(p["effects"]) for i, p in prepared.items()}
                incoming = {i: {} for i in prepared}
                moved = sum(self._route(incoming, p["foreign"])
                            for p in prepared.values())
                if moved:
                    _stats.bump("shard.redistributed_rows", moved)
                repairs = self._repair_circuit(
                    prepared, own, incoming, partition)
                final = self._compose_final(own, incoming)
            except BaseException:
                self._abort_tokens(prepared)
                raise
            if span_ is not None:
                span_.attrs["repairs"] = repairs
            deltas = self._commit_all(prepared, final, timeout)
            _stats.bump("shard.circuit_commits")
            return TxnResult(
                status="committed", kind="exec", deltas=deltas,
                repairs=repairs)

    def _prepare_all(self, source, partition, timeout):
        n = self.shard_map.n_shards
        futures = [
            self._pool.submit(
                index, "shard_prepare", source, partition=partition,
                shard_index=index, shard_count=n, timeout=timeout)
            for index in range(n)
        ]
        results, failed = self._pool.settle(futures)
        if failed:
            prepared = {
                i: r for i, r in enumerate(results) if r is not None}
            self._abort_tokens(prepared)
            raise failed[0][1]
        return dict(enumerate(results))

    def _route(self, incoming, foreign):
        """Route foreign rows (``{pred: Delta}`` written by one shard,
        owned by others) into their owners' ``incoming`` row sets
        (``{pred: (added, removed)}`` per shard); returns the rows
        moved."""
        moved = 0
        for pred, delta in foreign.items():
            for owner, part in self.shard_map.split_delta(pred, delta).items():
                added, removed = incoming[owner].setdefault(
                    pred, (set(), set()))
                added.update(part.added)
                removed.update(part.removed)
                moved += len(part)
        return moved

    def _replicated(self, effects_iter):
        """The union of replicated-predicate writes over ``effects_iter``
        as ``{pred: (added_set, removed_set)}``; shards that disagree on
        a row raise :class:`ShardError`."""
        partition = self.shard_map.partition
        totals = {}
        for effects in effects_iter:
            for pred, delta in effects.items():
                if pred in partition:
                    continue  # partitioned rows travel via _route
                added, removed = totals.setdefault(pred, (set(), set()))
                added.update(delta.added)
                removed.update(delta.removed)
        for pred, (added, removed) in totals.items():
            conflict = added & removed
            if conflict:
                raise ShardError(
                    "shards disagree on replicated {}: {} both added "
                    "and removed".format(pred, sorted(conflict)[:3]))
        return totals

    def _corrections_for(self, index, own, incoming):
        """Everything shard ``index`` must learn from its siblings:
        their replicated-predicate writes plus the redistributed rows
        it now owns, minus what its own effects already hold (every
        shard runs the whole write program, so a sibling's row is often
        one this shard derived itself).  Returned as
        ``{pred: (added_set, removed_set)}``."""
        totals = self._replicated(
            effects for other, effects in own.items() if other != index)
        for pred, (added, removed) in incoming[index].items():
            tadded, tremoved = totals.setdefault(pred, (set(), set()))
            tadded.update(added)
            tremoved.update(removed)
        mine = own[index]
        for pred, (added, removed) in totals.items():
            own_delta = mine.get(pred)
            if own_delta is not None:
                added.difference_update(own_delta.added)
                removed.difference_update(own_delta.removed)
        return {
            pred: pair for pred, pair in totals.items()
            if pair[0] or pair[1]
        }

    def _repair_circuit(self, prepared, own, incoming, partition):
        """Repair passes until no shard learns anything new (Figure
        7(b) composed across processes).  Not :func:`repair_circuit`:
        each shard is fed every sibling's writes minus what it was
        already sent, a fixpoint, not a left-to-right prefix (DESIGN
        §4i); each shard runs that function on its own member inside
        ``shard_repair``.  Mutates ``own`` and ``incoming`` in place;
        returns the repair count."""
        n = self.shard_map.n_shards
        delivered = {i: {} for i in range(n)}
        repairs = 0
        for _ in range(_MAX_REPAIR_PASSES):
            changed = False
            for index in range(n):
                totals = self._corrections_for(index, own, incoming)
                fresh = {}
                for pred, (added, removed) in totals.items():
                    seen_added, seen_removed = delivered[index].setdefault(
                        pred, (set(), set()))
                    new_added = added - seen_added
                    new_removed = removed - seen_removed
                    if new_added or new_removed:
                        fresh[pred] = Delta.from_iters(
                            sorted(new_added), sorted(new_removed))
                        seen_added.update(new_added)
                        seen_removed.update(new_removed)
                if not fresh:
                    continue
                changed = True
                repairs += 1
                _stats.bump("shard.repaired_members")
                reply = self._pool.backend(index).shard_repair(
                    prepared[index]["token"], fresh,
                    partition=partition, shard_index=index, shard_count=n)
                own[index] = dict(reply["effects"])
                self._route(incoming, reply["foreign"])
            if not changed:
                return repairs
        raise ShardError(
            "cross-shard repair did not converge after {} passes "
            "(mutually amplifying writes?)".format(_MAX_REPAIR_PASSES))

    def _compose_final(self, own, incoming):
        """The per-shard commit deltas: replicated writes are the
        deduplicated union across shards (identical on every shard);
        partitioned writes are each shard's owned rows plus what was
        redistributed to it."""
        partition = self.shard_map.partition
        replicated = {
            pred: Delta.from_iters(sorted(added), sorted(removed))
            for pred, (added, removed) in self._replicated(own.values()).items()
            if added or removed
        }
        final = {}
        for index in range(self.shard_map.n_shards):
            deltas = dict(replicated)
            owned = {}
            for pred, delta in own[index].items():
                if pred in partition:
                    owned[pred] = (set(delta.added), set(delta.removed))
            for pred, (added, removed) in incoming[index].items():
                oadded, oremoved = owned.setdefault(pred, (set(), set()))
                oadded.update(added)
                oremoved.update(removed)
            for pred, (added, removed) in owned.items():
                conflict = added & removed
                if conflict:
                    raise ShardError(
                        "conflicting add/remove of {} rows {}".format(
                            pred, sorted(conflict)[:3]))
                if added or removed:
                    deltas[pred] = Delta.from_iters(
                        sorted(added), sorted(removed))
            final[index] = deltas
        return final

    def _commit_all(self, prepared, final, timeout):
        """Commit shard by shard in ascending order; compensate the
        committed prefix if a later shard fails.  Each shard reports
        the rows its commit changed, which both the result and a
        compensation take."""
        committed = []
        try:
            for index in sorted(prepared):
                token = prepared.pop(index)["token"]
                result = self._pool.backend(index).shard_commit(
                    token, final[index], timeout=timeout)
                committed.append((index, result.deltas))
        except BaseException as exc:
            self._abort_tokens(prepared)
            self._compensate(committed, exc)
            raise
        partition = self.shard_map.partition
        combined = {}
        for index, deltas in committed:
            for pred, delta in deltas.items():
                if pred in partition and pred in combined:
                    # shards own disjoint rows: composing is union
                    combined[pred] = combined[pred].then(delta)
                else:
                    combined.setdefault(pred, delta)  # identical everywhere
        return combined

    def _compensate(self, committed, cause):
        if not committed:
            return
        _stats.bump("shard.compensations")
        failures = []
        for index, deltas in committed:
            inverse = {
                pred: delta.inverse() for pred, delta in deltas.items()}
            try:
                self._pool.backend(index).shard_apply(inverse)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append((index, exc))
        if failures:
            raise ShardCommitError(
                "cross-shard commit failed on {} and compensation of "
                "already-committed shards {} also failed — the fleet "
                "is inconsistent".format(
                    cause.__class__.__name__,
                    sorted(index for index, _ in failures))) from cause

    def _abort_tokens(self, prepared):
        for index, entry in list(prepared.items()):
            self._swallow(index, "shard_abort", entry["token"])
        prepared.clear()

    # -- introspection / lifecycle ---------------------------------------------

    def manifest(self):
        """The shard map manifest (wire/JSON form)."""
        return self.shard_map.manifest()

    def _verb(self, spec, args):
        """The verbs with no placement logic: a ``write`` (that is,
        ``checkpoint``) or ``leader-read`` verb asks every shard — each
        is the leader of its fragment — and returns the answers in
        shard order; ``explain``, the ``member`` protocol and the
        commit circuit itself are not served through a coordinator."""
        self._check_open()
        if spec.route not in ("write", "leader-read"):
            raise VerbNotServed(
                "{} is not served by a shards:// coordinator".format(
                    spec.name))
        return self._pool.gather(self._pool.broadcast(spec.name, **args))

    def status(self):
        """Coordinator + per-member status (a member that cannot be
        reached reports its error instead of failing the call)."""
        members, failed = self._pool.settle(self._pool.broadcast("status"))
        for index, error in failed:
            members[index] = {"error": str(error)}
        return {
            "role": "coordinator",
            "shards": self.shard_map.n_shards,
            "map": self.manifest(),
            "blocks": list(self._blocks),
            "members": members,
        }

    def _swallow(self, index, verb, *args):
        try:
            self._pool.submit(index, verb, *args).result()
        except BaseException:  # noqa: BLE001 - best-effort cleanup
            pass

    def close(self):
        if self._closed:
            return
        self._closed = True
        if self._owns_backends:
            for index in range(self.shard_map.n_shards):
                try:
                    self._pool.backend(index).close()
                except BaseException:  # noqa: BLE001 - shutdown path
                    pass
        self._pool.close()

    def _check_open(self):
        if self._closed:
            raise ReproError("sharded workspace is closed")

    def __repr__(self):
        return "ShardedWorkspace(n={}, partition={}, blocks={})".format(
            self.shard_map.n_shards, dict(self.shard_map.partition),
            len(self._blocks))

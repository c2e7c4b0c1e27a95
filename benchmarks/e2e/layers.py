"""The traced pass: per-layer metrics, measured from outside the program.

Three instruments, none of which touches ``src/``:

* **ladder** — the traced sample of ops, one client, fresh identical
  data, through every rung at or below the workload's transport; a
  layer's overhead is the difference of adjacent rungs.
* **replay** — the same ops stepped through a fresh ``Workspace``,
  with each layer's public function called on the op's real inputs
  (the state just before the op, the deltas it produced).
* **counts** — before/after reads of the public counter surfaces.

Every call is wrapped in a benchmark span; the spans go to
``results/trace-<workload>.jsonl``.
"""

import itertools
import os
import random
from statistics import median

import repro.stats
from repro.ds import treap
from repro.engine.columnar import make_join
from repro.engine.evaluator import Evaluator
from repro.engine.optimizer import SamplingOptimizer
from repro.engine.planner import PlanError, build_plan
from repro.logiql.compiler import compile_program
from repro.net import protocol
from repro.net.replica import Replica
from repro.runtime.workspace import Workspace
from repro.storage.columnar import ColumnarLayout
from repro.storage.pager import encode_value

import harness
import oracles
import workloads as wl
from spans import SpanRecorder, self_time_by_name, unattributed_shares
from summary import percentile

#: replay spans that account for time inside a rung's own row
REPLAY_ROWS = {
    "workspace": ("logiql.compile", "engine.join_pure", "engine.ivm_apply",
                  "runtime.constraint_check"),
    "tcp": ("net.codec_encode", "net.codec_decode"),
}
SLOPE_EXECS = 8
#: metric groups `Traced.not_applicable` reasons about
SERVICE_COUNTS = {
    "service.batch_size_mean", "service.repairs_per_commit",
    "service.retries_per_commit", "service.prepare_cache_hit_ratio",
    "service.shed_share"}
CHECKPOINT_METRICS = {
    "net.replica_sync_delta_ms", "net.replica_sync_delta_records",
    "storage.disk_bytes_per_user_byte", "client.checkpoint_p50_ms"}
WRITE_METRICS = SERVICE_COUNTS | {
    "engine.ivm_apply_ms.k1", "engine.ivm_delta_tuples_per_exec",
    "engine.sensitivity_skip_ratio", "runtime.exec_ms",
    "runtime.constraint_check_ms", "runtime.exec_ms_per_krow",
    "service.exec_overhead_ms", "service.distinct_exec_share",
    "net.exec_overhead_ms",
    "client.exec_p50_ms", "client.exec_p95_ms"}
BATCH_KINDS = {"engine.ivm_apply_ms.k8": "batch8",
               "engine.ivm_apply_ms.k64": "batch64"}
ALL_KINDS = {kind for spec in wl.WORKLOADS.values() for kind in spec.block}


def _numeric(counters, prefix=""):
    flat = {}
    for key, value in counters.items():
        if isinstance(value, dict):
            flat.update(_numeric(value, prefix + key + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[prefix + key] = value
    return flat


def _delta(before, after):
    before, after = _numeric(before), _numeric(after)
    return {k: after[k] - before.get(k, 0) for k in after}


def _ratio(num, den):
    return num / den if den else None


def _ms(entries, **match):
    picked = [e.ms for e in entries
              if all(getattr(e.op, k) == v for k, v in match.items())]
    return median(picked) if picked else None


def _diff(a, b, scale=1.0):
    return (a - b) * scale if a is not None and b is not None else None


class Traced:
    """One workload's traced pass; ``metrics`` maps every per-layer
    metric it could measure to a value (the rest stay absent)."""

    def __init__(self, spec, seed, scale, work):
        self.spec, self.seed, self.scale, self.work = spec, seed, scale, work
        self.data = spec.data(seed, spec.sizes[scale])
        self.warm, self.ops = wl.warmup_and_trace_ops(spec, seed, self.data)
        self.rec = SpanRecorder()
        self.metrics = {}
        self.logs = {}
        self.failures = []
        self.attempted = 0
        self.counts = {}  # counter deltas of each rung's sample

    def run(self):
        for rung in self.spec.rungs:
            self._rung(rung)
        self._replay()
        self._real_config()
        self._ladder_metrics()
        return self

    def not_applicable(self, name):
        """Why the per-layer metric ``name`` has no value here: the
        layer, rung or op kind it measures is not on this workload's
        path.  A metric the pass never got to raises."""
        spec = self.spec
        layer, _, rest = name.partition(".")
        kinds, top = set(spec.block), spec.rungs[-1]
        writes = any(op.cls == "exec" for op in self.ops)
        reason = None
        if layer == "shard" and top != "shards":
            reason = "no shard coordinator on this workload's path"
        elif layer == "net" and "tcp" not in spec.rungs:
            reason = "no wire on this workload's path"
        elif layer == "service" and "session" not in spec.rungs:
            reason = "no transaction service on this workload's path"
        elif name in SERVICE_COUNTS and top == "shards":
            reason = ("the shard servers' service counters cannot be read "
                      "through the coordinator")
        elif name in CHECKPOINT_METRICS and not spec.checkpoints:
            reason = "the workload takes no checkpoints"
        elif name.startswith("bench.unattributed_share."):
            if rest.split(".")[1] not in spec.rungs:
                reason = "this workload's ladder has no such rung"
        elif name in BATCH_KINDS and BATCH_KINDS[name] not in kinds:
            reason = "no write of that size in this workload"
        elif layer == "client" and rest.endswith("_p50_ms") and (
                rest[:-len("_p50_ms")] in ALL_KINDS - kinds):
            reason = "no such op kind in this workload"
        elif name in WRITE_METRICS and not writes:
            reason = "no write op in this workload"
        if reason is None and name in self.metrics:
            # on the path, but this sample gave it nothing to divide by
            reason = "nothing to measure it on in this traced sample"
        if reason is None:
            raise RuntimeError("per-layer metric {} was not measured on {}"
                               .format(name, spec.name))
        return reason

    def _build(self, rung, name, data=None):
        return harness.open_target(
            self.spec, data or self.data, rung,
            os.path.join(self.work, name))

    # -- ladder ----------------------------------------------------------------

    def _rung(self, rung):
        target = self._build(rung, "ladder-" + rung)
        try:
            warm = []
            harness.drive(target, self.warm, warm)
            before = self._counters(target)
            log = self.logs[rung] = []
            harness.drive(target, self.ops, log, recorder=self.rec,
                          first_ordinal=len(warm))
            counts = self.counts[rung] = _delta(
                before, self._counters(target))
            self.attempted += len(log)
            # each rung's answers are checked like the real run's
            self.failures += oracles.CHECKS[self.spec.name](
                self.data, warm + log, target)
            after = getattr(self, "_after_" + rung, None)
            if after is not None:  # the session rung has nothing of its own
                after(target, log, counts)
        finally:
            target.close()

    def _counters(self, target):
        session = target.session
        if target.rung == "workspace":
            return session.engine_stats()
        if target.rung == "session":
            return session.service.service_stats()
        own = _numeric(repro.stats.snapshot())  # this process: client, coordinator
        if target.rung == "shards":
            return own
        # the server's counters, plus this end of the wire; nothing else of
        # this process (it ran the lower rungs, and a server leaves out a
        # counter it never bumped)
        counters = {k: v for k, v in own.items() if k.startswith("net.client.")}
        counters.update(_numeric(session.stats()))
        return counters

    def _after_workspace(self, target, log, c):
        m = self.metrics
        execs = sum(1 for e in log if e.op.cls == "exec")
        m["runtime.exec_ms"] = _ms(log, cls="exec")
        m["runtime.query_us"] = _ms(log, cls="query") * 1000.0
        m["engine.plan_cache_hit_ratio"] = _ratio(
            c.get("plan_cache.hits", 0),
            c.get("plan_cache.hits", 0) + c.get("plan_cache.misses", 0))
        m["engine.ivm_delta_tuples_per_exec"] = _ratio(
            c.get("ivm.delta_tuples", 0), execs)
        m["engine.sensitivity_skip_ratio"] = _ratio(
            c.get("ivm.sensitivity_skips", 0), c.get("ivm.applies", 0))
        self._row_slope()

    def _after_tcp(self, target, log, c):
        m = self.metrics
        m["net.bytes_per_op"] = _ratio(
            c.get("net.client.bytes_in", 0) + c.get("net.client.bytes_out", 0),
            len(log))
        self._codec_replay(log)
        if self.spec.checkpoints:
            m["storage.disk_bytes_per_user_byte"] = (
                disk_bytes_per_user_byte(target, self.data))
            self._replica_sync(target)

    def _after_shards(self, target, log, c):
        m = self.metrics
        execs = sum(1 for e in log if e.op.cls == "exec")
        queries = sum(1 for e in log if e.op.cls == "query")
        m["shard.exec_cross_ms"] = _ms(log, kind="exec2")
        m["shard.query_fold_ms"] = _ms(log, kind="sum")
        m["shard.gather_ms"] = _ms(log, kind="gather")
        m["shard.single_shard_exec_share"] = _ratio(
            c.get("shard.single_shard_execs", 0), execs)
        m["shard.gather_query_share"] = _ratio(
            c.get("shard.gather_queries", 0), queries)
        m["shard.circuit_retries_per_exec"] = _ratio(
            c.get("shard.circuit_retries", 0), execs)
        self._direct_to_shard(target)

    def _row_slope(self):
        """The same write kind on a quarter of the rows: the O(rows)
        slope of one commit."""
        size = {k: max(1, v // 4) if k in ("keys", "nodes", "orders") else v
                for k, v in self.spec.sizes[self.scale].items()}
        small = self.spec.data(self.seed, size)
        kind = next((op.kind for op in self.ops if op.cls == "exec"), None)
        if kind is None:
            return
        rows = lambda d: sum(len(r) for _, r in d.loads) / 1000.0
        full_ms = _ms(self.logs["workspace"], kind=kind)
        target = self._build("workspace", "quarter", data=small)
        try:
            stream = (op for op in self.spec.stream(self.seed, small)
                      if op.kind == kind)
            log = []
            with self.rec.span("runtime.exec_quarter_rows"):
                for _ in range(SLOPE_EXECS):
                    harness.drive(target, [next(stream)], log)
        finally:
            target.close()
        self.metrics["runtime.exec_ms_per_krow"] = (
            (full_ms - median(e.ms for e in log)) / (rows(self.data) - rows(small)))

    def _codec_replay(self, log):
        """Encode and decode each op's request and response frames."""
        enc, dec = [], []
        for entry in log:
            if entry.error is not None:
                continue
            op = entry.op
            request = {"id": entry.ordinal, "op": op.cls,
                       "args": {"source": op.text}}
            with self.rec.span("op." + op.kind, op=entry.ordinal):
                with self.rec.span("net.codec_encode") as s_enc:
                    if op.cls == "exec":
                        body = {"txn": protocol.result_to_wire(entry.result)}
                    else:
                        body = {"rows": entry.result}
                    frames = (
                        protocol.encode_frame(protocol.F_REQUEST, request),
                        protocol.encode_frame(protocol.F_RESPONSE, {
                            "id": entry.ordinal, "result": body,
                            "watermark": entry.ordinal}))
                with self.rec.span("net.codec_decode") as s_dec:
                    decoder = protocol.FrameDecoder()
                    decoder.feed(frames[0])
                    (_, payload), = decoder.feed(frames[1])
                    if op.cls == "exec":
                        protocol.result_from_wire(payload["result"]["txn"])
            enc.append(s_enc.seconds * 1e6)
            dec.append(s_dec.seconds * 1e6)
        self.metrics["net.codec_encode_us"] = median(enc)
        self.metrics["net.codec_decode_us"] = median(dec)

    def _replica_sync(self, target):
        """One ``Replica.sync()`` after a checkpoint plus one commit."""
        session = target.session
        write = next(op for op in self.ops if op.cls == "exec")
        session.checkpoint()
        replica = Replica("127.0.0.1", target.servers[0].port,
                          os.path.join(self.work, "replica"))
        try:
            replica.sync()
            session.exec(write.text)
            session.checkpoint()
            with self.rec.span("net.replica_sync_delta") as span:
                outcome = replica.sync()
        finally:
            replica.close()
        self.metrics["net.replica_sync_delta_ms"] = span.seconds * 1000.0
        self.metrics["net.replica_sync_delta_records"] = outcome["fetched_records"]

    def _direct_to_shard(self, target):
        """Single-owner writes alternately through the coordinator and
        straight to the owning shard's ``tcp://``."""
        placement = wl.ShardMap(wl.N_SHARDS, self.data.partition)
        direct = [repro.connect("tcp://" + s.endpoint) for s in target.servers]
        via = {"coordinator": [], "direct": []}
        try:
            done = len(self.warm) + len(self.ops)
            stream = (op for op in itertools.islice(self.spec.stream(
                self.seed, self.data), done, None) if op.kind == "exec1")
            for turn in range(4 * SLOPE_EXECS):
                op = next(stream)
                # an insert and the delete that follows it go the same way
                path = "direct" if turn % 4 >= 2 else "coordinator"
                row = (op.args[0] or op.args[1])[0]
                with self.rec.span("shard.exec_single." + path) as span:
                    if path == "direct":
                        direct[placement.shard_of_key(row[0])].exec(op.text)
                    else:
                        target.session.exec(op.text)
                via[path].append(span.seconds * 1000.0)
        finally:
            for session in direct:
                session.close()
        self.metrics["shard.exec_single_overhead_ms"] = (
            median(via["coordinator"]) - median(via["direct"]))

    # -- replay ----------------------------------------------------------------

    def _replay(self):
        target = self._build("workspace", "replay")
        ws = target.session
        harness.drive(target, self.warm, [])
        rec = self.rec
        compile_us, plan_ms, seeks, rows_out = [], [], 0, 0
        apply_ms = {"k1": [], "k8": [], "k64": []}
        fallbacks = repro.stats.get("join.columnar_fallbacks")
        for ordinal, op in enumerate(self.ops):
            before = ws.state
            if op.text:
                with rec.span("op." + op.kind, op=ordinal):
                    with rec.span("logiql.compile") as span:
                        block = compile_program(op.text)
                    compile_us.append(span.seconds * 1e6)
                    rules = list(block.rules) + list(block.reactive_rules)
                    env = before.start_env()
                    env.update(before.env_with_defaults())
                    with rec.span("engine.plan") as span:
                        plans = self._plans(rules, env)
                    plan_ms.append(span.seconds * 1000.0)
                    for backend in ("pure", "columnar"):
                        with rec.span("engine.join_" + backend):
                            for plan in plans:
                                stats = {}
                                produced = sum(1 for _ in make_join(
                                    plan, env, stats=stats, backend=backend).run())
                                if backend == "pure":
                                    seeks += stats.get("seeks", 0)
                                    rows_out += produced
            result = target.call(op)
            if op.cls != "exec":
                continue
            base = {p: d for p, d in result.deltas.items()
                    if p in before.base_relations}
            size = sum(len(d.added) + len(d.removed) for d in base.values())
            bucket = "k1" if size <= 2 else "k8" if size <= 16 else "k64"
            with rec.span("op." + op.kind, op=ordinal):
                with rec.span("engine.ivm_apply") as span:
                    before.artifacts.engine.apply(before.materialization, base)
                apply_ms[bucket].append(span.seconds * 1000.0)
                with rec.span("runtime.constraint_check"):
                    ws.state.artifacts.checker.check(
                        ws.state.env_with_defaults(), set(result.deltas))
        m = self.metrics
        own = self_time_by_name(rec.spans)
        per_op = lambda name: _ratio(own.get(name, 0.0) * 1000.0, len(self.ops))
        m["logiql.compile_p50_us"] = median(compile_us) if compile_us else None
        m["engine.plan_ms"] = median(plan_ms) if plan_ms else None
        m["engine.join_pure_ms"] = per_op("engine.join_pure")
        m["engine.join_columnar_ms"] = per_op("engine.join_columnar")
        m["engine.join_seeks_per_row"] = _ratio(seeks, rows_out)
        m["engine.columnar_fallbacks"] = (
            repro.stats.get("join.columnar_fallbacks") - fallbacks)
        for bucket, samples in apply_ms.items():
            m["engine.ivm_apply_ms." + bucket] = (
                median(samples) if samples else None)
        execs = sum(1 for op in self.ops if op.cls == "exec")
        m["runtime.constraint_check_ms"] = _ratio(
            own.get("runtime.constraint_check", 0.0) * 1000.0, execs)
        state = ws.state
        with rec.span("engine.recompute") as span:
            Evaluator(state.artifacts.ruleset).evaluate(
                dict(state.base_relations.items()))
        m["engine.recompute_ms"] = span.seconds * 1000.0
        self._storage(ws, os.path.join(self.work, "replay", "probe-ckpt"))
        self._treap()

    @staticmethod
    def _plans(rules, env):
        """``build_plan`` plus the sampling optimizer's order for every
        rule whose body predicates all exist (delta heads do not)."""
        plans = []
        chooser = SamplingOptimizer()
        for rule in rules:
            if not rule.body or any(p not in env for p in rule.body_preds()):
                continue
            try:
                plans.append(build_plan(
                    rule.body, var_order=chooser(rule, env),
                    output_vars=rule.head_vars()))
            except PlanError:
                continue
        return plans

    def _storage(self, ws, path):
        m, rec = self.metrics, self.rec
        pred, row = self.data.info["fresh"]
        with rec.span("storage.checkpoint_full") as span:
            ws.checkpoint(path)
        m["storage.checkpoint_full_ms"] = span.seconds * 1000.0
        ws.load(pred, [row])
        with rec.span("storage.checkpoint_delta") as span:
            written = ws.checkpoint(path)
        m["storage.checkpoint_delta_ms"] = span.seconds * 1000.0
        m["storage.checkpoint_delta_nodes"] = written["nodes_written"]
        m["storage.checkpoint_delta_bytes"] = written["bytes_written"]
        with rec.span("storage.open") as span:
            Workspace.open(path)
        m["storage.open_ms"] = span.seconds * 1000.0
        relation = ws.relation(pred)
        rows = list(relation)
        with rec.span("storage.columnar_encode") as span:
            ColumnarLayout(rows, relation.arity)
        m["storage.columnar_encode_ms"] = span.seconds * 1000.0

    def _treap(self):
        """``treap.insert`` and ``treap.diff`` at the size of the
        workload's largest relation."""
        rows = max((r for _, r in self.data.loads), key=len)
        root = treap.from_sorted_items((row, True) for row in sorted(rows))
        rng = random.Random(self.seed)
        fresh = []
        for i in range(64):
            row = rows[rng.randrange(len(rows))]
            last = -1 - i if isinstance(row[-1], int) else "{}#{}".format(
                row[-1], i)
            fresh.append(row[:-1] + (last,))
        grown = root
        with self.rec.span("ds.treap_insert") as span:
            for key in fresh:
                grown = treap.insert(grown, key, True)
        self.metrics["ds.treap_insert_us"] = span.seconds * 1e6 / len(fresh)
        with self.rec.span("ds.treap_diff") as span:
            changed = sum(1 for _ in treap.diff(root, grown))
        self.metrics["ds.diff_us_per_changed_key"] = span.seconds * 1e6 / changed

    # -- the client's view of the top rung, traced and untraced ----------------

    def _real_config(self):
        spec, m = self.spec, self.metrics
        top = spec.rungs[-1]
        log, counts = self.logs[top], self.counts[top]
        plain = self._untraced_sample(top)
        rate = lambda entries: len(entries) / sum(e.t1 - e.t0 for e in entries)
        m["bench.trace_overhead_share"] = 1.0 - rate(log) / rate(plain)
        for kind in set(spec.block):
            m["client.{}_p50_ms".format(kind)] = _ms(log, kind=kind)
        execs = [e for e in log if e.op.cls == "exec" and e.error is None]
        for cls in ("query", "exec"):
            ms = [e.ms for e in log if e.op.cls == cls and e.error is None]
            m["client.{}_p95_ms".format(cls)] = (
                percentile(ms, 95) if ms else None)
            m["client.{}_p50_ms".format(cls)] = median(ms) if ms else None
        m["client.checkpoint_p50_ms"] = _ms(log, cls="checkpoint")
        if execs and "session" in spec.rungs:
            # a statement's first use misses the service's prepare cache
            m["service.distinct_exec_share"] = (
                len({e.op.text for e in execs}) / len(execs))
        if execs and top in ("session", "tcp"):
            n = len(execs)
            m["service.batch_size_mean"] = _ratio(
                counts.get("service.commits", 0), counts.get("service.batches", 0))
            m["service.repairs_per_commit"] = sum(
                e.result.repairs for e in execs) / n
            m["service.retries_per_commit"] = sum(
                e.result.attempts - 1 for e in execs) / n
            m["service.prepare_cache_hit_ratio"] = (
                counts.get("service.prepare_cache.hits", 0) / n)
            m["service.shed_share"] = _ratio(
                counts.get("service.overloads", 0),
                counts.get("service.overloads", 0)
                + counts.get("service.admitted", 0))

    def _untraced_sample(self, rung):
        """The traced sample once more on fresh data, spans off."""
        target = self._build(rung, "plain")
        try:
            harness.drive(target, self.warm, [])
            log = []
            harness.drive(target, self.ops, log, first_ordinal=len(self.warm))
        finally:
            target.close()
        return log

    # -- ladder arithmetic -----------------------------------------------------

    def _ladder_metrics(self):
        m, logs = self.metrics, self.logs
        med = lambda rung, cls: (
            _ms(logs[rung], cls=cls) if rung in logs else None)
        for layer, upper, lower in (("service", "session", "workspace"),
                                    ("net", "tcp", "session")):
            m[layer + ".exec_overhead_ms"] = _diff(
                med(upper, "exec"), med(lower, "exec"))
            m[layer + ".query_overhead_us"] = _diff(
                med(upper, "query"), med(lower, "query"), 1000.0)
        own = self_time_by_name(self.rec.spans)
        totals = [(rung, sum(e.t1 - e.t0 for e in logs[rung]))
                  for rung in self.spec.rungs]
        replayed = {rung: sum(own.get(name, 0.0) for name in names)
                    for rung, names in REPLAY_ROWS.items()}
        for rung, share in unattributed_shares(totals, replayed).items():
            m["bench.unattributed_share." + rung] = share


def disk_bytes_per_user_byte(target, data):
    """Checkpoint directory bytes over the codec-encoded bytes of the
    live user tuples."""
    on_disk = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(target.checkpoint_dir) for name in names)
    session = target.session
    user = sum(len(encode_value(tuple(row)))
               for pred, _ in data.loads for row in session.rows(pred))
    return on_disk / user

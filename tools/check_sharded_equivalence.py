"""Boot a real sharded fleet and assert it matches a single process.

CI's shard job runs::

    python tools/check_sharded_equivalence.py --shards 3

which starts N ``repro.net`` shard server *subprocesses* (each with its
shard identity on the CLI), connects a coordinator through
``repro.connect("shards://...")``, and drives the fragmented-write +
recombined-aggregation scenario:

* schema + co-partitioned view installed through the coordinator;
* bulk loads fragmented across the shards (each shard must hold a
  proper, disjoint subset);
* single-shard literal-key writes and cross-shard repair-circuit
  writes;
* writes to the derived ``total`` view (a fact and a rule-driven
  write), which the fleet must refuse with the oracle's error class;
* keyed, scattered, partial-state fold (``sum`` … ``avg``, grouped
  and global, before and after deletes) and exchange queries;
* last, a reactive block installed through the coordinator: every
  later exec must fire its rule and run the repair circuit, a
  literal-key write included (the earlier phases hold no reactive
  block, so they still cover single-shard routing).

Every observable — per-predicate global extensions and every query
answer — must be **bit-identical** to a single-process
:class:`~repro.runtime.workspace.Workspace` fed the same verbs in the
same order.  And the coordinator's own counters must show that only the
exchange cases moved base data to the coordinator
(``shard.gather_queries``): no aggregate ever does.  Exits non-zero on
the first divergence.
"""

import argparse
import os
import socket
import subprocess
import sys
import time

SCHEMA = (
    "order(o, c) -> int(o), string(c).\n"
    "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
    "rate(n, v) -> string(n), int(v).\n"
)
VIEW = "total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).\n"
PARTITION = {"order": 0, "lineitem": 0}
#: (label, query, moves base data to the coordinator?)
QUERIES = [
    ("keyed join",
     "big(o, c, q) <- order(o, c), lineitem(o, l, q), q > 15.", False),
    ("scattered projection", "cust(c) <- order(o, c).", False),
    ("grouped partial",
     "perCust[c] = s <- agg<<s = sum(q)>> order(o, c), lineitem(o, l, q).",
     False),
    ("global sum", "g[] = s <- agg<<s = sum(q)>> lineitem(o, l, q).", False),
    ("global count", "n[] = c <- agg<<c = count(l)>> lineitem(o, l, q).",
     False),
    ("global min/max",
     "m[] = v <- agg<<v = max(q)>> lineitem(o, l, q).", False),
    ("partial-state fold (avg)",
     "a[] = v <- agg<<v = avg(q)>> lineitem(o, l, q).", False),
    ("partial-state fold (grouped avg)",
     "a[c] = v <- agg<<v = avg(q)>> order(o, c), lineitem(o, l, q).", False),
    ("exchange (non-local join)",
     "pair(a, b) <- order(a, c), order(b, c), a < b.", True),
    ("exchange (non-local join, literal)",
     "pair(b) <- order(7, c), order(b, c).", True),
]
#: writes to the derived view: IVM alone maintains it, so every one is
#: refused, by the fleet with the same error class as by the oracle
DERIVED_WRITES = [
    "+total[500] = 7.",
    "+total[o] = 7 <- lineitem@start(o, _, _), o < 3.",
]
#: the final phase: an installed reactive rule, and the execs it fires in
REACTIVE_BLOCK = "audit(o) -> int(o).\n+audit(o) <- +lineitem(o, _, _).\n"
REACTIVE_EXECS = [
    "+lineitem(700, 9700, 4).",
    '+order(701, "c2"). +lineitem(701, 9701, 5). +lineitem(702, 9702, 1).',
    "-lineitem(700, 9700, 4).",
]
#: the aggregate cases re-run once more rows are gone
AFTER_DELETES = [
    (label + " after deletes", query, exchange)
    for label, query, exchange in QUERIES if "avg" in label]


def wait_port(port, deadline_s=20.0):
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), 0.5).close()
            return True
        except OSError:
            time.sleep(0.1)
    return False


def start_shards(n_shards, base_port, logs_dir):
    os.makedirs(logs_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"),
                    env.get("PYTHONPATH")) if p)
    procs = []
    for index in range(n_shards):
        port = base_port + index
        log = open(os.path.join(
            logs_dir, "shard-{}.log".format(index)), "w")
        procs.append((subprocess.Popen(
            [sys.executable, "-m", "repro.net",
             "--port", str(port),
             "--shard-index", str(index),
             "--shard-count", str(n_shards)],
            env=env, stdout=log, stderr=subprocess.STDOUT), log))
    return procs


def drive(target):
    """The scenario, verb by verb; identical for fleet and oracle.
    Returns the error class name each derived write raised (``None``
    for one that committed)."""
    orders = [(i, "c{}".format(i % 7)) for i in range(60)]
    items = [(i % 60, i, (i * 11) % 31) for i in range(240)]
    target.addblock(SCHEMA, name="schema")
    target.load("order", orders)
    target.load("lineitem", items)
    target.load("rate", [("std", 3), ("bulk", 2)])
    target.addblock(VIEW, name="totals")
    # literal-key write: routes to one shard
    target.exec('+order(500, "c1"). +lineitem(500, 9001, 6).')
    # cross-shard write: the repair circuit
    target.exec("".join(
        '+order({0}, "cz"). +lineitem({0}, {1}, 3).'.format(
            600 + i, 9100 + i) for i in range(8)))
    # rule-driven replicated write derived on every shard: dedup check
    target.exec('+rate(c, 1) <- order(o, c).')
    refused = []
    for write in DERIVED_WRITES:
        try:
            target.exec(write)
        except Exception as exc:
            refused.append(type(exc).__name__)
        else:
            refused.append(None)
    # removal through a fragmented load
    target.load("order", [], remove=orders[::9])
    return refused


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--base-port", type=int, default=7461)
    parser.add_argument("--logs", default="ci-shard")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import repro
    from repro import stats
    from repro.runtime.workspace import Workspace

    procs = start_shards(args.shards, args.base_port, args.logs)
    failures = []
    try:
        for index in range(args.shards):
            if not wait_port(args.base_port + index):
                print("shard {} never came up".format(index),
                      file=sys.stderr)
                return 1
        endpoints = ",".join(
            "127.0.0.1:{}".format(args.base_port + i)
            for i in range(args.shards))
        oracle = Workspace()
        want_refused = drive(oracle)
        with repro.connect("shards://" + endpoints,
                           partition=dict(PARTITION)) as fleet:
            got_refused = drive(fleet)
            for write, got, want in zip(
                    DERIVED_WRITES, got_refused, want_refused):
                refused_alike = got is not None and got == want
                print("derived write {!r}: fleet {} / oracle {} -> {}".format(
                    write, got, want, "ok" if refused_alike else "MISMATCH"))
                if not refused_alike:
                    failures.append(
                        "derived write {!r} was not refused like the "
                        "oracle refuses it".format(write))

            frag_counts = []
            for index in range(args.shards):
                frag_counts.append(len(
                    fleet._pool.backend(index).rows("order")))
            print("order fragments per shard:", frag_counts)
            if sum(1 for c in frag_counts if c) < 2:
                failures.append("order rows were not actually fragmented")

            for pred in ("order", "lineitem", "rate", "total"):
                got = fleet.rows(pred)
                want = sorted(tuple(r) for r in oracle.rows(pred))
                status = "ok" if got == want else "MISMATCH"
                print("rows({}): {} fleet / {} oracle -> {}".format(
                    pred, len(got), len(want), status))
                if got != want:
                    failures.append("rows({}) diverged".format(pred))

            def check(cases):
                for label, query, exchange in cases:
                    moved = {}
                    with stats.scope(moved):
                        got = fleet.query(query)
                    want = sorted(tuple(r) for r in oracle.query(query))
                    gathered = moved.get("shard.gather_queries", 0)
                    status = "ok" if got == want else "MISMATCH"
                    print("query[{}]: {} rows, {} moved -> {}".format(
                        label, len(got),
                        moved.get("shard.exchange_rows", 0), status))
                    if got != want:
                        failures.append("query '{}' diverged".format(label))
                    if gathered != int(exchange):
                        failures.append(
                            "query '{}' bumped shard.gather_queries by {}, "
                            "expected {}".format(
                                label, gathered, int(exchange)))

            check(QUERIES)
            gone = [(i % 60, i, (i * 11) % 31) for i in range(0, 240, 3)]
            for target in (oracle, fleet):
                target.load("lineitem", [], remove=gone)
                target.exec("-lineitem(500, 9001, 6).")
            check(AFTER_DELETES)

            moved = {}
            for target in (oracle, fleet):
                target.addblock(REACTIVE_BLOCK, name="audit")
                with stats.scope(moved if target is fleet else {}):
                    for source in REACTIVE_EXECS:
                        target.exec(source)
            if not oracle.rows("audit"):
                failures.append("the installed reactive rule never fired")
            if moved.get("shard.single_shard_execs"):
                failures.append(
                    "an exec routed to one shard while a reactive block "
                    "was installed")
            for pred in ("order", "lineitem", "total", "audit"):
                got = fleet.rows(pred)
                want = sorted(tuple(r) for r in oracle.rows(pred))
                status = "ok" if got == want else "MISMATCH"
                print("after the reactive block, rows({}): {} fleet / {} "
                      "oracle -> {}".format(pred, len(got), len(want), status))
                if got != want:
                    failures.append(
                        "rows({}) diverged after the reactive block".format(pred))
    finally:
        for proc, log in procs:
            proc.terminate()
        for proc, log in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
            log.close()

    if failures:
        print("FAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print("sharded fleet ({} shards) is bit-identical to the "
          "single-process oracle".format(args.shards))
    return 0


if __name__ == "__main__":
    sys.exit(main())

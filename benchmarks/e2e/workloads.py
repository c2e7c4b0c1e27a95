"""Seeded data sets and op streams for the four workloads.

Everything here is a pure function of ``--seed`` (``random.Random``
seeded with strings, so ``PYTHONHASHSEED`` does not matter); the
program under test only ever sees the generated statements.

An op stream is an endless sequence of *mix blocks*: each block holds
the workload's op kinds in fixed counts, shuffled by the seed.  A run
measures for a fixed time and computes throughput and latencies over
whole blocks only, so every run measures exactly the same mix and the
realised share of the expensive kinds does not wander with the cut-off.

Graph *shapes* are fixed constants of a workload (the way "LiveJournal"
would be); the seed draws the node labelling, the parameters and the op
order.  Join cost depends on the shape, so this keeps the cost of a run
steady across seeds while every seed still gives different inputs.
"""

import collections
import hashlib
import itertools
import random

from repro.datasets.graphs import hub_graph, powerlaw_graph
from repro.shard.shardmap import ShardMap

Op = collections.namedtuple("Op", "kind cls text args")
Dataset = collections.namedtuple("Dataset", "schema views loads partition info")
Spec = collections.namedtuple(
    "Spec", "name rungs block trace_blocks checkpoints "
            "sizes data stream why")

SHAPE_SEED = 20150531  # fixes the graph shapes; labels come from --seed
N_SHARDS = 2


def _rng(seed, *salt):
    return random.Random("{}/{}".format(seed, "/".join(map(str, salt))))


def _blocks(rng, block, make):
    """The endless stream: shuffled copies of ``block``, each kind turned
    into an op by ``make``."""
    while True:
        kinds = list(block)
        rng.shuffle(kinds)
        for kind in kinds:
            yield make(kind)


# -- oltp_tcp -----------------------------------------------------------------

OLTP_SCHEMA = (
    "inventory[s] = v -> string(s), int(v).\n"
    "inventory[s] = v -> v >= 0.\n"
    "cat[s] = c -> string(s), string(c).\n"
)
OLTP_VIEWS = "bycat[c] = t <- agg<<t = sum(v)>> inventory[s] = v, cat[s] = c.\n"
OLTP_SUM = "_[] = t <- agg<<t = sum(v)>> inventory[s] = v."


def oltp_data(seed, size):
    rng = _rng(seed, "oltp", "data")
    keys = ["sku{:05d}".format(i) for i in range(size["keys"])]
    inventory = [(k, rng.randrange(100000, 1000000)) for k in keys]
    cat = [(k, "c{:02d}".format(rng.randrange(size["cats"]))) for k in keys]
    return Dataset(OLTP_SCHEMA, OLTP_VIEWS,
                   [("inventory", inventory), ("cat", cat)], None,
                   {"fresh": ("inventory", ("sku-probe", 1))})


def oltp_stream(seed, data):
    """One client writes every key and waits for every reply, so a
    client-side model knows the value every read must return."""
    rng = _rng(seed, "oltp", "ops")
    keys = [k for k, _ in data.loads[0][1]]
    rng.shuffle(keys)
    cats = sorted({c for _, c in data.loads[1][1]})

    def key():
        # skewed: a tenth of the keys takes half of the ops
        return keys[int(len(keys) * rng.random() ** 3.3)]

    def make(kind):
        if kind == "point":
            k = key()
            return Op(kind, "query",
                      '_(v) <- inventory["{}"] = v.'.format(k), (k,))
        if kind == "rmw":
            k = key()
            return Op(kind, "exec",
                      '^inventory["{0}"] = x <- inventory@start["{0}"] = y, '
                      'x = y - 1.'.format(k), (k,))
        if kind == "view":
            c = cats[rng.randrange(len(cats))]
            return Op(kind, "query",
                      '_(t) <- bycat["{}"] = t.'.format(c), (c,))
        return Op(kind, "checkpoint", "", ())

    return _blocks(rng, OLTP.block, make)


# -- analytics_local ----------------------------------------------------------

GRAPH_SCHEMA = "E(x, y) -> int(x), int(y).\n"
TRI_ALL = "_(a, b, c) <- E(a, b), E(b, c), E(a, c), a < b, b < c."


def _relabelled(shape, n_nodes, rng):
    labels = list(range(n_nodes))
    rng.shuffle(labels)
    return sorted((labels[a], labels[b]) for a, b in shape), labels


def analytics_data(seed, size):
    n, hub = size["nodes"], size["hub"]
    shape = set(powerlaw_graph(n, size["degree"], seed=SHAPE_SEED))
    shape.update((a + n, b + n) for a, b in hub_graph(hub, seed=SHAPE_SEED))
    edges, labels = _relabelled(shape, n + hub, _rng(seed, "analytics", "data"))
    degree = collections.Counter(a for a, _ in edges)
    ranked = sorted((x for x in labels if x != labels[n]),
                    key=lambda x: (degree[x], x))
    info = {"ranked": ranked, "hub": labels[n], "fresh": ("E", (-1, -2))}
    return Dataset(GRAPH_SCHEMA, "", [("E", edges)], None, info)


def analytics_stream(seed, data):
    rng = _rng(seed, "analytics", "ops")
    ranked, hub = data.info["ranked"], data.info["hub"]
    per_block = sum(1 for kind in ANALYTICS.block if kind != "tri_all")
    strata = []

    def node():
        """Each block's parameters cover the degree spectrum evenly (one
        node per degree-rank stratum, in shuffled order) and include the
        hub — the node adjacent to all, the skew adversary — once."""
        if not strata:
            strata.extend(range(per_block))
            rng.shuffle(strata)
        stratum = strata.pop()
        if stratum == per_block - 1:
            return hub
        return ranked[int((stratum + rng.random()) / (per_block - 1)
                          * len(ranked))]

    def make(kind):
        if kind == "tri_all":
            return Op(kind, "query", TRI_ALL, ())
        n = node()
        text = {
            "tri_node": "_(b, c) <- E({0}, b), E(b, c), E({0}, c), b < c.",
            "hop2": "_(c) <- E({0}, b), E(b, c).",
            "outdeg": "_[] = n <- agg<<n = count(b)>> E({0}, b).",
            "anti": "_(c) <- E({0}, b), E(b, c), !E({0}, c), c != {0}.",
        }[kind].format(n)
        return Op(kind, "query", text, (n,))

    return _blocks(rng, ANALYTICS.block, make)


# -- ivm_views ----------------------------------------------------------------

IVM_SCHEMA = GRAPH_SCHEMA + "note(x, y) -> int(x), int(y).\n"
IVM_VIEWS = (
    "tri(a, b, c) <- E(a, b), E(b, c), E(a, c), a < b, b < c.\n"
    "outdeg[a] = n <- agg<<n = count(b)>> E(a, b).\n"
    "reach2(a, c) <- E(a, b), E(b, c).\n"
)
IVM_READS = {
    "outdeg": "_(n) <- outdeg[{}] = n.",
    "tri": "_(b, c) <- tri({}, b, c).",
    "reach2": "_(c) <- reach2({}, c).",
}


def ivm_data(seed, size):
    n = size["nodes"]
    shape = powerlaw_graph(n, size["degree"], seed=SHAPE_SEED)
    edges, _ = _relabelled(shape, n, _rng(seed, "ivm", "data"))
    return Dataset(IVM_SCHEMA, IVM_VIEWS, [("E", edges)], None,
                   {"nodes": n, "fresh": ("E", (-1, -2))})


def _edge_text(added, removed):
    return "".join("+E({}, {}).".format(*e) for e in added) + "".join(
        "-E({}, {}).".format(*e) for e in removed)


def ivm_stream(seed, data):
    """Inserts and deletes alternate for every write size, so the graph
    stays the size it was loaded at."""
    rng = _rng(seed, "ivm", "ops")
    n = data.info["nodes"]
    pool = list(data.loads[0][1])  # edges a single delete may pick
    present = set(pool)            # plus edges of not-yet-deleted batches
    pending = {8: collections.deque(), 64: collections.deque()}
    inserting = {1: True, 8: True, 64: True}
    notes = itertools.count()

    def fresh():
        while True:
            edge = (rng.randrange(n), rng.randrange(n))
            if edge[0] != edge[1] and edge not in present:
                present.add(edge)
                return edge

    def write(kind, k):
        if k == 1 and not inserting[1]:
            at = rng.randrange(len(pool))
            pool[at], pool[-1] = pool[-1], pool[at]
            removed = (pool.pop(),)
            present.discard(removed[0])
            added = ()
        elif inserting[k]:
            added = tuple(fresh() for _ in range(k))
            removed = ()
            if k == 1:
                pool.append(added[0])
            else:
                pending[k].append(added)
        else:
            added, removed = (), pending[k].popleft()
            present.difference_update(removed)
        inserting[k] = not inserting[k]
        return Op(kind, "exec", _edge_text(added, removed),
                  (added, removed))

    def make(kind):
        if kind == "edge1":
            return write(kind, 1)
        if kind == "batch8":
            return write(kind, 8)
        if kind == "batch64":
            return write(kind, 64)
        if kind == "note":
            i = next(notes)
            # no rule reads `note`: the sensitivity short-circuit
            return Op(kind, "exec", "+note({}, {}).".format(i, i + 1),
                      (i, i + 1))
        view = ("outdeg", "outdeg", "outdeg", "tri", "reach2")[
            rng.randrange(5)]
        node = rng.randrange(n)
        return Op(kind, "query", IVM_READS[view].format(node),
                  (view, node))

    return _blocks(rng, IVM.block, make)


# -- shard_orders -------------------------------------------------------------

SHARD_SCHEMA = (
    "order(o, c) -> int(o), string(c).\n"
    "lineitem(o, l, q) -> int(o), int(l), int(q).\n"
)
SHARD_VIEWS = "total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).\n"
SHARD_PARTITION = {"order": 0, "lineitem": 0}
SHARD_SUM = "_[] = s <- agg<<s = sum(q)>> lineitem(o, l, q)."
SHARD_AVG = "_[] = v <- agg<<v = avg(q)>> lineitem(o, l, q)."


def shard_data(seed, size):
    rng = _rng(seed, "shard", "data")
    orders, items = size["orders"], size["items"]
    order = [(o, "c{}".format(rng.randrange(7))) for o in range(orders)]
    lineitem = [(o, o * items + j, rng.randrange(1, 17))
                for o in range(orders) for j in range(items)]
    return Dataset(SHARD_SCHEMA, SHARD_VIEWS,
                   [("order", order), ("lineitem", lineitem)],
                   dict(SHARD_PARTITION),
                   {"orders": orders, "fresh": ("lineitem", (0, -1, 1))})


def _line_text(added, removed):
    return "".join("+lineitem({}, {}, {}).".format(*r) for r in added) + "".join(
        "-lineitem({}, {}, {}).".format(*r) for r in removed)


def shard_stream(seed, data):
    rng = _rng(seed, "shard", "ops")
    orders = data.info["orders"]
    placement = ShardMap(N_SHARDS, SHARD_PARTITION)
    lines = itertools.count(10 ** 6)
    pending = {1: collections.deque(), 2: collections.deque()}
    inserting = {1: True, 2: True}
    # two line listings per total: the median read is a line listing
    keyed = itertools.cycle(("lines", "lines", "total"))

    def new_line(order):
        return (order, next(lines), rng.randrange(1, 17))

    def write(kind, owners):
        if inserting[owners]:
            first = rng.randrange(orders)
            added = [new_line(first)]
            while len(added) < owners:
                other = rng.randrange(orders)
                if (placement.shard_of_key(other)
                        != placement.shard_of_key(first)):
                    added.append(new_line(other))
            added, removed = tuple(added), ()
            pending[owners].append(added)
        else:
            added, removed = (), pending[owners].popleft()
        inserting[owners] = not inserting[owners]
        return Op(kind, "exec", _line_text(added, removed),
                  (added, removed))

    def make(kind):
        if kind == "exec1":
            return write(kind, 1)
        if kind == "exec2":
            return write(kind, 2)
        if kind == "keyed":
            which, order = next(keyed), rng.randrange(orders)
            text = ("_(l, q) <- lineitem({}, l, q)." if which == "lines"
                    else "_(s) <- total[{}] = s.").format(order)
            return Op(kind, "query", text, (which, order))
        if kind == "sum":
            return Op(kind, "query", SHARD_SUM, ())
        return Op(kind, "query", SHARD_AVG, ())

    return _blocks(rng, SHARDS.block, make)


# -- the registry -------------------------------------------------------------

def _mix(**counts):
    return tuple(k for k, n in counts.items() for _ in range(n))


OLTP = Spec(
    name="oltp_tcp",
    rungs=("workspace", "session", "tcp"),
    block=_mix(point=27, rmw=10, view=2, checkpoint=1), trace_blocks=3,
    checkpoints=True,
    sizes={"full": {"keys": 1000, "cats": 16},
           "smoke": {"keys": 120, "cats": 4}},
    data=oltp_data, stream=oltp_stream,
    why="the path a client takes: small ops over tcp://, client-issued "
        "checkpoints; net, service and runtime are most of the time")
ANALYTICS = Spec(
    name="analytics_local",
    rungs=("workspace",),
    block=_mix(tri_all=2, tri_node=4, hop2=8, outdeg=3, anti=8),
    trace_blocks=4, checkpoints=False,
    sizes={"full": {"nodes": 1500, "degree": 4, "hub": 300},
           "smoke": {"nodes": 120, "degree": 3, "hub": 30}},
    data=analytics_data, stream=analytics_stream,
    why="read-only ad-hoc joins on a skewed graph, no wire and no service: "
        "engine and logiql do the work, so a net change must show nothing "
        "here")
IVM = Spec(
    name="ivm_views",
    rungs=("workspace", "session"),
    block=_mix(edge1=10, batch8=4, batch64=1, note=1, read=4), trace_blocks=3,
    checkpoints=False,
    sizes={"full": {"nodes": 300, "degree": 3},
           "smoke": {"nodes": 80, "degree": 3}},
    data=ivm_data, stream=ivm_stream,
    why="write-heavy view maintenance: the engine used the other way round, "
        "so a read-side gain bought with per-commit cost shows as a loss here")
SHARDS = Spec(
    name="shard_orders",
    rungs=("workspace", "session", "tcp", "shards"),
    block=_mix(exec1=10, keyed=6, exec2=2, sum=1, gather=1), trace_blocks=3,
    checkpoints=False,
    sizes={"full": {"orders": 500, "items": 6},
           "smoke": {"orders": 60, "items": 3}},
    data=shard_data, stream=shard_stream,
    why="the only workload with the shard coordinator on the path, over two "
        "real shard processes; oltp_tcp is its same-wire, no-coordinator "
        "control")

WORKLOADS = collections.OrderedDict(
    (spec.name, spec) for spec in (OLTP, ANALYTICS, IVM, SHARDS))


def warmup_and_trace_ops(spec, seed, data):
    """``(warm-up ops, traced ops)``: the first block of the stream as
    warm-up and the next ``trace_blocks`` as the traced sample."""
    stream = spec.stream(seed, data)
    size = len(spec.block)
    return (list(itertools.islice(stream, size)),
            list(itertools.islice(stream, spec.trace_blocks * size)))


def stream_hash(spec, seed, scale="full", ops=400):
    """blake2b of the data set and the head of the op stream."""
    data = spec.data(seed, spec.sizes[scale])
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((data.schema, data.views, data.loads,
                        sorted((data.partition or {}).items()))).encode())
    for op in itertools.islice(spec.stream(seed, data), ops):
        digest.update(repr(tuple(op)).encode())
    return digest.hexdigest()

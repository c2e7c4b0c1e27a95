"""Property: the pure (treap) and columnar executors implement one contract."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import columnar as columnar_mod
from repro.engine.columnar import ColumnarTrieJoin, make_join
from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.iterators import trie_iterator
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.storage.relation import Relation

# -- the treap trie iterator enumerates its relation in order ---------------


def test_deep_enumeration_equivalence():
    rng = random.Random(9)
    tuples = {
        (rng.randrange(8), rng.randrange(8), rng.randrange(8))
        for _ in range(60)
    }
    it = trie_iterator(Relation.from_iter(3, tuples), (0, 1, 2))

    def enumerate_all(it):
        out = []

        def walk(depth):
            it.open()
            while not it.at_end():
                if depth == 2:
                    out.append(it.context() + (it.key(),))
                else:
                    walk(depth + 1)
                it.next()
            it.up()

        walk(0)
        return out

    assert enumerate_all(it) == sorted(tuples)


# -- whole-join equivalence: columnar engine backend vs pure ----------------

edges_strategy = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40
)
marks_strategy = st.sets(st.tuples(st.integers(0, 7)), max_size=8)
order_strategy = st.permutations(["a", "b", "c"])


def run_join(atoms, env, var_order):
    """One pure LFTJ run on fresh relations: its rows."""
    relations = {
        name: Relation.from_iter(rel.arity, rel) for name, rel in env.items()
    }
    plan = build_plan(list(atoms), var_order=list(var_order), output_vars=var_order)
    return list(LeapfrogTrieJoin(plan, relations).run())


def run_columnar(atoms, env, var_order):
    """One columnar run on fresh relations, asserting it did not fall
    back to the pure executor."""
    columnar_mod._SETUP_CACHE.clear()
    relations = {
        name: Relation.from_iter(rel.arity, rel) for name, rel in env.items()
    }
    plan = build_plan(list(atoms), var_order=list(var_order), output_vars=var_order)
    executor = make_join(plan, relations, backend="columnar")
    assert isinstance(executor, ColumnarTrieJoin)
    return list(executor.run())


@settings(max_examples=60, deadline=None)
@given(edges_strategy, order_strategy)
def test_columnar_join_is_bit_identical_to_pure(edges, order):
    atoms = [
        PredAtom("E", [Var("a"), Var("b")]),
        PredAtom("E", [Var("b"), Var("c")]),
        PredAtom("E", [Var("a"), Var("c")]),
    ]
    env = {"E": Relation.from_iter(2, edges)}
    assert run_columnar(atoms, env, order) == run_join(atoms, env, order)


float_keys = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-4, max_value=4
).map(lambda f: round(f, 1))
mixed_key = st.one_of(st.integers(-4, 4), float_keys)
mixed_edges = st.sets(st.tuples(mixed_key, mixed_key), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(mixed_edges, order_strategy)
def test_columnar_equivalence_with_mixed_numeric_keys(edges, order):
    # mixed int/float keys (2 vs 2.0, -0.0 vs 0.0) exercise the
    # canonical encoding rules shared with stable_hash
    atoms = [
        PredAtom("E", [Var("a"), Var("b")]),
        PredAtom("E", [Var("b"), Var("c")]),
        PredAtom("E", [Var("a"), Var("c")]),
    ]
    env = {"E": Relation.from_iter(2, edges)}
    assert run_columnar(atoms, env, order) == run_join(atoms, env, order)


@settings(max_examples=60, deadline=None)
@given(edges_strategy, marks_strategy, order_strategy, st.integers(0, 7))
def test_lftj_equivalence_with_negation_and_constants(edges, marks, order, pin):
    atoms = [
        PredAtom("E", [Var("a"), Var("b")]),
        PredAtom("E", [Var("b"), Var("c")]),
        PredAtom("M", [Var("a")], negated=True),
        PredAtom("E", [Var("c"), Const(pin)], negated=True),
    ]
    env = {
        "E": Relation.from_iter(2, edges),
        "M": Relation.from_iter(1, marks),
    }
    assert run_columnar(atoms, env, order) == run_join(atoms, env, order)


def _neg(pred, *args):
    return PredAtom(pred, [Var(a) if isinstance(a, str) else Const(a) for a in args],
                    negated=True)


# (negated atoms on top of the path E(a, b), E(b, c); the test's own
# membership check of each satisfying (a, b, c))
NEGATION_CASES = {
    "one per level": (
        lambda pin: [_neg("M", "a"), _neg("M", "b"), _neg("N", "b", "c")],
        lambda a, b, c, pin, M, N: (a,) not in M and (b,) not in M and (b, c) not in N),
    "level variable first": (
        lambda pin: [_neg("N", "c", "a")],
        lambda a, b, c, pin, M, N: (c, a) not in N),
    "repeated variable": (
        lambda pin: [_neg("N", "c", "c")],
        lambda a, b, c, pin, M, N: (c, c) not in N),
    "existential local": (
        lambda pin: [_neg("N", "c", "w")],
        lambda a, b, c, pin, M, N: all(x != c for x, _ in N)),
    # T holds (x, y, min(x, y)) per (x, y) of N: a repeated existential
    # is one variable, so T(c, w, w) needs a row of N with y <= c
    "repeated existential": (
        lambda pin: [_neg("T", "c", "w", "w")],
        lambda a, b, c, pin, M, N: all(x != c or y > c for x, y in N)),
    "constants": (
        lambda pin: [_neg("M", pin), _neg("N", pin, "b")],
        lambda a, b, c, pin, M, N: (pin,) not in M and (pin, b) not in N),
    "empty relation": (
        lambda pin: [_neg("Z", "a", "c")],
        lambda a, b, c, pin, M, N: True),
}


@pytest.mark.parametrize("case", sorted(NEGATION_CASES))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges_strategy, marks_strategy, edges_strategy, order_strategy,
       st.integers(0, 7))
def test_negation_matches_an_independent_oracle(force_executor, case, edges, marks,
                                                negated, order, pin):
    """The join the engine builds, forced onto each executor, keeps
    exactly the paths the test's own membership check keeps."""
    make_atoms, keeps = NEGATION_CASES[case]
    atoms = [PredAtom("E", [Var("a"), Var("b")]), PredAtom("E", [Var("b"), Var("c")])]
    atoms += make_atoms(pin)
    env = {
        "E": Relation.from_iter(2, edges),
        "M": Relation.from_iter(1, marks),
        "N": Relation.from_iter(2, negated),
        "T": Relation.from_iter(3, ((x, y, min(x, y)) for x, y in negated)),
        "Z": Relation.empty(2),
    }
    expected = sorted(
        tuple({"a": a, "b": b, "c": c}[name] for name in order)
        for a, b in edges for b2, c in edges
        if b == b2 and keeps(a, b, c, pin, marks, negated))
    plan = build_plan(atoms, var_order=list(order), output_vars=order)
    for executor in ("pure", "columnar"):
        force_executor(executor)
        columnar_mod._SETUP_CACHE.clear()
        fresh = {name: Relation.from_iter(rel.arity, rel) for name, rel in env.items()}
        join = make_join(plan, fresh)
        assert join.backend == executor
        assert list(join.run()) == expected  # in the pure enumeration order


# -- workspace-level equivalence: IVM deltas, deletes, aggregates ----------


updates_strategy = st.lists(
    st.tuples(
        st.sampled_from(["+", "-"]), st.integers(0, 5), st.integers(0, 5)
    ),
    min_size=1,
    max_size=12,
)


def _predicate_states(ws):
    """Support counts and (``count``) aggregation groups of the current
    materialization."""
    return {
        pred: (
            state.kind,
            list(state.counts.items()),
            [(key, group.total, group.count) for key, group in state.groups.items()],
        )
        for pred, state in ws.state.materialization.states.items()
    }


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges_strategy, updates_strategy)
def test_workspace_ivm_equivalence_across_backends(force_executor, edges, updates):
    """The full stack — loads, IVM deltas with deletes, recursion, and
    aggregates — run on each forced executor, produces the bit-identical
    state a pure workspace derives from the final edges at once, support
    counts and aggregation groups included."""
    from repro import Workspace

    program = """
        edge(x, y) -> int(x), int(y).
        tri(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).
        reach(x, y) <- edge(x, y).
        reach(x, z) <- reach(x, y), edge(y, z).
        degree[x] = n <- agg<<n = count(y)>> edge(x, y).
    """
    query = "_(a, c) <- edge(a, b), edge(b, c), a != c."
    final = set(edges)
    for sign, a, b in updates:
        (final.add if sign == "+" else final.discard)((a, b))
    force_executor("pure")
    oracle = Workspace()
    oracle.addblock(program)
    oracle.load("edge", sorted(final))
    answer = oracle.query(query)
    for executor in ("pure", "columnar"):
        force_executor(executor)
        ws = Workspace()
        ws.addblock(program)
        ws.load("edge", sorted(edges))
        for sign, a, b in updates:
            ws.exec("{}edge({}, {}).".format(sign, a, b))
        for pred in ("edge", "tri", "reach", "degree"):
            assert sorted(ws.relation(pred)) == sorted(oracle.relation(pred)), executor
        assert ws.query(query) == answer, executor
        assert _predicate_states(ws) == _predicate_states(oracle), executor


# -- columnar comparison filters: vectorized where exact, row-wise else ----


INT64 = 2 ** 63
x, y, z = Var("x"), Var("y"), Var("z")


def _outcome(executor):
    """The rows an executor yields, or the type of what it raises."""
    try:
        return list(executor.run())
    except Exception as exc:  # the exception type is the contract
        return type(exc)


def pure_and_columnar(atoms, env):
    """Outcomes of the pure oracle and of the (forced) columnar
    executor for one plan, each on fresh relations."""
    plan = build_plan(list(atoms))

    def fresh():
        return {name: Relation.from_iter(rel.arity, rel) for name, rel in env.items()}

    pure = _outcome(LeapfrogTrieJoin(plan, fresh()))
    columnar_mod._SETUP_CACHE.clear()
    executor = make_join(plan, fresh(), backend="columnar")
    assert isinstance(executor, ColumnarTrieJoin)
    return pure, _outcome(executor)


def _r(*rows):
    return {"R": Relation.from_iter(len(rows[0]), rows)}


R_XY = PredAtom("R", [x, y])

COMPARISON_CASES = {
    "ints beyond int64": (
        _r((INT64 - 1, INT64), (-INT64 - 1, 0), (-INT64, 1 - INT64), (1, 2),
           (INT64, INT64 + 5), (3, -INT64 - 2)),
        [R_XY, CompareAtom("<", x, y), CompareAtom(">=", x, Const(-INT64))],
    ),
    "int64 bounds, vectorized": (
        _r((-INT64, INT64 - 1), (INT64 - 1, -INT64), (0, 0), (5, 7)),
        [R_XY, CompareAtom("<=", x, y), CompareAtom("!=", y, Const(INT64 - 1))],
    ),
    "constant beyond int64": (
        _r((1, 2), (INT64 - 1, 3), (-INT64, 4)),
        [R_XY, CompareAtom("<", x, Const(INT64)),
         CompareAtom(">", x, Const(-INT64 - 1))],
    ),
    "bool column": (
        _r((True, 1), (False, 0), (False, 2), (True, 3)),
        [R_XY, CompareAtom("=", x, Const(1)), CompareAtom(">", y, Const(False))],
    ),
    "int vs float near 2**53": (
        _r((2 ** 53, 2.0 ** 53), (2 ** 53 + 1, 2.0 ** 53),
           (2 ** 53 + 1, float(2 ** 53 + 2)), (2 ** 53 + 3, 1.5)),
        [R_XY, CompareAtom("!=", x, y), CompareAtom("!=", y, Const(2 ** 53 + 1))],
    ),
    "int vs fractional float": (
        _r((1, 1.5), (2, 1.5), (1, 1.0), (0, -0.5)),
        [R_XY, CompareAtom("<", x, y)],
    ),
    "int column vs float constant": (
        _r((2 ** 53, 0), (2 ** 53 + 1, 1), (2 ** 53 + 2, 2)),
        [R_XY, CompareAtom("<=", x, Const(2.0 ** 53))],
    ),
    "string column": (
        _r(("a", 1), ("b", 2), ("c", 3), ("bb", 4)),
        [R_XY, CompareAtom("<", x, Const("bb")), CompareAtom("!=", y, Const(1))],
    ),
    "= and != against constants": (
        _r(*[(i % 5, i) for i in range(30)]),
        [R_XY, CompareAtom("=", x, Const(3)), CompareAtom("!=", y, Const(13))],
    ),
    "constant on the left": (
        _r(*[(i % 5, i) for i in range(30)]),
        [R_XY, CompareAtom(">", Const(12), y), CompareAtom("=", Const(2), x)],
    ),
    "comparison on an assigned variable": (
        _r(*[(i, i * 3 % 7) for i in range(20)]),
        [R_XY, AssignAtom("z", BinOp("+", x, y)), CompareAtom("<", z, Const(12)),
         CompareAtom("!=", z, x)],
    ),
    "comparison across levels of a join": (
        {"R": Relation.from_iter(2, [(i, (i * 5) % 11) for i in range(40)]),
         "S": Relation.from_iter(1, [(i,) for i in range(0, 11, 2)])},
        [R_XY, PredAtom("S", [y]), CompareAtom("<", y, x)],
    ),
    # string < int raises TypeError; the filters of one level run in
    # order, so whether it is reached depends on the filters before it
    "raises like pure after a vectorized filter": (
        _r(("a", 1), ("b", 7)),
        [PredAtom("R", [y, x]), CompareAtom("<", x, Const(5)),
         CompareAtom("<", y, x)],
    ),
    "raises like pure before a vectorizable filter": (
        _r(("a", 1), ("b", 7)),
        [PredAtom("R", [y, x]), CompareAtom("<", y, x),
         CompareAtom("<", x, Const(0))],
    ),
    "a vectorized filter spares the raising one": (
        _r(("a", 1), ("b", 7)),
        [PredAtom("R", [y, x]), CompareAtom("<", x, Const(0)),
         CompareAtom("<", y, x)],
    ),
}


@pytest.mark.parametrize("case", sorted(COMPARISON_CASES))
def test_columnar_comparisons_match_pure(case):
    env, atoms = COMPARISON_CASES[case]
    pure, columnar = pure_and_columnar(atoms, env)
    assert columnar == pure


edge_value = st.one_of(
    st.integers(-3, 3),
    st.integers(INT64 - 2, INT64 + 1),
    st.integers(-INT64 - 1, 2 - INT64),
)
operand = st.one_of(st.sampled_from(["a", "b", "c"]), edge_value)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.tuples(edge_value, edge_value), min_size=1, max_size=30),
    st.lists(
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                  operand, operand),
        min_size=1, max_size=3,
    ),
)
def test_columnar_int_comparisons_match_pure(edges, comparisons):
    def term(value):
        return Var(value) if isinstance(value, str) else Const(value)

    atoms = [
        PredAtom("E", [Var("a"), Var("b")]),
        PredAtom("E", [Var("b"), Var("c")]),
    ] + [CompareAtom(op, term(left), term(right))
         for op, left, right in comparisons]
    env = {"E": Relation.from_iter(2, edges)}
    pure, columnar = pure_and_columnar(atoms, env)
    assert columnar == pure


# -- aggregates: the vectorized fold against the row-wise one --------------


AGG_SCHEMA = """
    r(k, v) -> int(k), int(v).
    f(k, x) -> int(k), float(x).
    s(k, w) -> int(k), string(w).
"""
AGG_VIEWS = """
    vsum[k] = t <- agg<<t = sum(v)>> r(k, v).
    vcount[k] = n <- agg<<n = count(v)>> r(k, v).
    vmin[k] = m <- agg<<m = min(v)>> r(k, v).
    vmax[k] = m <- agg<<m = max(w)>> s(k, w).
    vavg[] = a <- agg<<a = avg(v)>> r(k, v).
    fmin[k] = m <- agg<<m = min(x)>> f(k, x).
    rsmax[k] = m <- agg<<m = max(v)>> r(k, v), s(k, w).
"""
AGG_QUERIES = [
    "_[] = t <- agg<<t = sum(v)>> r(k, v).",
    "_[k] = t <- agg<<t = sum(v)>> r(k, v).",
    "_[] = a <- agg<<a = avg(v)>> r(k, v).",
    "_[k] = a <- agg<<a = avg(v)>> r(k, v).",
    "_[] = n <- agg<<n = count(v)>> r(k, v).",
    "_[v] = n <- agg<<n = count(k)>> r(k, v).",
    "_[k] = m <- agg<<m = min(v)>> r(k, v).",
    "_[] = m <- agg<<m = max(v)>> r(k, v).",
    "_[k] = t <- agg<<t = sum(x)>> f(k, x).",
    "_[] = a <- agg<<a = avg(x)>> f(k, x).",
    "_[k] = m <- agg<<m = max(x)>> f(k, x).",
    "_[k] = m <- agg<<m = min(w)>> s(k, w).",
    "_[] = n <- agg<<n = count(w)>> s(k, w).",
    "_[k, w] = t <- agg<<t = sum(v)>> r(k, v), s(k, w).",
]

# small keys so groups share and empty; values at the int64 edges, so
# some sums overflow int64 (the fold must go row-wise for those)
agg_value = st.one_of(
    st.integers(-5, 5), st.sampled_from([INT64 - 1, -INT64, INT64 // 3]))
agg_float = st.sampled_from([0.1, 0.2, -0.0, 0.3, 1e16, -1e16, 2.5])
agg_word = st.sampled_from(["", "a", "b", "ba", "z"])
agg_writes = st.lists(
    st.tuples(st.sampled_from(["+", "-"]), st.sampled_from("rfs"),
              st.integers(0, 3), st.integers(0, 6)),
    min_size=1, max_size=8)


def _agg_states(ws):
    """Every aggregate view's groups, with each state's full content."""
    out = {}
    for pred, state in ws.state.materialization.states.items():
        if state.kind != "agg":
            continue
        out[pred] = [
            (key, group.count,
             repr(group.total) if hasattr(group, "total")
             else repr(list(group.values.items())))
            for key, group in state.groups.items()
        ]
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sets(st.tuples(st.integers(0, 3), agg_value), min_size=1, max_size=12),
       st.sets(st.tuples(st.integers(0, 3), agg_float), max_size=8),
       st.sets(st.tuples(st.integers(0, 3), agg_word), max_size=8),
       agg_writes)
def test_aggregates_fold_alike_on_every_backend(force_executor, r_rows, f_rows,
                                                s_rows, writes):
    """Workspaces forced pure, left to choose, and forced columnar
    answer every aggregate with the same bits (``repr``: ints stay
    ints, ``-0.0`` stays apart), and their installed views hold the
    same aggregate states — after the first evaluation and after writes
    with deletes between reads, so the columnar reads go through
    patched layouts."""
    from repro import Workspace

    pools = {"r": sorted(r_rows), "f": sorted(f_rows), "s": sorted(s_rows)}
    workspaces = []
    for backend in ("pure", None, "columnar"):
        force_executor(backend)
        ws = Workspace()
        ws.addblock(AGG_SCHEMA)
        for pred, rows in pools.items():
            ws.load(pred, rows)
        ws.addblock(AGG_VIEWS)
        workspaces.append((backend, ws))

    def observe():
        seen = []
        for backend, ws in workspaces:
            force_executor(backend)
            seen.append((_agg_states(ws), [repr(ws.query(q)) for q in AGG_QUERIES]))
        return seen

    pure, *others = observe()
    assert all(other == pure for other in others)
    for sign, pred, key, pick in writes:
        pool = pools[pred] or [(key, {"r": 0, "f": 2.5, "s": "a"}[pred])]
        row = (key, pool[pick % len(pool)][1])
        for backend, ws in workspaces:
            force_executor(backend)
            ws.load(pred, [row] if sign == "+" else [], remove=[row] if sign == "-" else [])
        pure, *others = observe()
        assert all(other == pure for other in others)
    counted = workspaces[2][1].engine_stats()["columnar"]
    assert counted["vector_folds"] > 0


@pytest.mark.parametrize("engine, values, query, fold", [
    ("columnar", [(1, 2), (1, 3), (2, 5)],
     "_[k] = t <- agg<<t = sum(v)>> r(k, v).", "vector"),
    ("columnar", [(1, 2), (1, 3), (2, 5)],
     "_[] = m <- agg<<m = max(v)>> r(k, v).", "vector"),
    ("columnar", [(1, INT64 - 1), (2, INT64 - 1)],
     "_[] = t <- agg<<t = sum(v)>> r(k, v).", "rows: sum may overflow int64"),
    ("columnar", [(1, INT64), (2, 1)],
     "_[] = t <- agg<<t = sum(v)>> r(k, v).", "rows: values not int64"),
    ("columnar", [(1, 2), (1, 3)],
     "_[] = t <- agg<<t = sum(w)>> r(k, v), w = v * 2.", "rows: assigned value"),
    ("pure", [(1, 2), (1, 3)],
     "_[] = t <- agg<<t = sum(v)>> r(k, v).", "rows: pure join"),
])
def test_the_join_span_and_explain_say_which_fold_ran(force_executor, engine, values,
                                                      query, fold):
    from repro import Workspace, obs

    force_executor(engine)
    ws = Workspace()
    ws.addblock("r(k, v) -> int(k), int(v).")
    ws.load("r", values)
    before = ws.engine_stats()["columnar"]["vector_folds"]
    with obs.Profile() as prof:
        ws.query(query)
    [join] = [s for root in prof.roots for s in root.find_all("join")]
    assert join.attrs["fold"] == fold
    assert join.attrs["rows"] == len(values)
    folded = ws.engine_stats()["columnar"]["vector_folds"] - before
    assert folded == (1 if fold == "vector" else 0)
    [rule] = ws.explain(query).rules
    assert rule["fold"] == fold


@pytest.mark.parametrize("engine", ["pure", "columnar"])
def test_a_relation_never_stores_negative_zero(force_executor, engine):
    """Every writer stores ``0.0`` for ``-0.0``, so the backends and
    the order of writes agree bit for bit, base rows and derived heads
    (copied or computed) alike."""
    import struct

    from repro import Workspace

    def bits(rows):
        return [struct.pack("<d", x) for _, x in rows]

    zero = struct.pack("<d", 0.0)
    force_executor(engine)
    ws = Workspace()
    ws.addblock("r(k, x) -> int(k), float(x). d(k, x) <- r(k, x). "
                "n(k, y) <- r(k, x), y = x * -1.0.")
    ws.load("r", [(1, -0.0)])
    ws.load("r", [(2, 0.0)])
    ws.load("r", [(1, 0.0), (2, -0.0)])  # both histories
    assert bits(ws.rows("r")) == [zero, zero]
    assert bits(ws.query("_(k, x) <- r(k, x).")) == [zero, zero]
    assert bits(ws.rows("d")) == [zero, zero]
    assert bits(ws.rows("n")) == [zero, zero]

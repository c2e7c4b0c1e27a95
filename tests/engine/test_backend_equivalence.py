"""Property: the pure (treap) and columnar executors implement one contract."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import columnar as columnar_mod
from repro.engine.columnar import ColumnarTrieJoin, make_join
from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.iterators import trie_iterator
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.storage.columnar import HAVE_NUMPY
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
    plan = build_plan(list(atoms), var_order=list(var_order))
    return list(LeapfrogTrieJoin(plan, relations).run())


def run_columnar(atoms, env, var_order):
    """One columnar run on fresh relations, asserting it did not fall
    back to the pure executor."""
    columnar_mod._SETUP_CACHE.clear()
    relations = {
        name: Relation.from_iter(rel.arity, rel) for name, rel in env.items()
    }
    plan = build_plan(list(atoms), var_order=list(var_order))
    executor = make_join(plan, relations, backend="columnar")
    assert isinstance(executor, ColumnarTrieJoin)
    return list(executor.run())


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
@settings(max_examples=25, deadline=None)
@given(edges_strategy, updates_strategy)
def test_workspace_ivm_equivalence_across_backends(edges, updates):
    """The full stack — loads, IVM deltas with deletes, recursion, and
    aggregates — produces bit-identical states under both backends,
    support counts and aggregation groups included."""
    from repro import Workspace

    program = """
        edge(x, y) -> int(x), int(y).
        tri(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).
        reach(x, y) <- edge(x, y).
        reach(x, z) <- reach(x, y), edge(y, z).
        degree[x] = n <- agg<<n = count(y)>> edge(x, y).
    """
    workspaces = []
    for backend in ("pure", "columnar"):
        ws = Workspace(engine=backend)
        ws.addblock(program)
        ws.load("edge", sorted(edges))
        for sign, a, b in updates:
            ws.exec("{}edge({}, {}).".format(sign, a, b))
        workspaces.append(ws)
    pure_ws, col_ws = workspaces
    for pred in ("edge", "tri", "reach", "degree"):
        assert sorted(pure_ws.relation(pred)) == sorted(col_ws.relation(pred))
    query = "_(a, c) <- edge(a, b), edge(b, c), a != c."
    assert pure_ws.query(query) == col_ws.query(query)
    assert _predicate_states(pure_ws) == _predicate_states(col_ws)


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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
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

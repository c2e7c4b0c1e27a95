"""Property: treap, array, and columnar backends implement one contract."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import columnar as columnar_mod
from repro.engine.columnar import ColumnarTrieJoin, make_join
from repro.engine.ir import Const, PredAtom, Var
from repro.engine.iterators import ArrayTrieIterator, TreapTrieIterator
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.engine.sensitivity import SensitivityRecorder
from repro.storage.columnar import HAVE_NUMPY
from repro.storage.relation import Relation

tuples3 = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    min_size=1,
    max_size=25,
)


def both_backends(tuples, prefix=()):
    relation = Relation.from_iter(3, tuples)
    return (
        TreapTrieIterator(relation.index_root((0, 1, 2)), 3, prefix),
        ArrayTrieIterator(relation.flat((0, 1, 2)), 3, prefix),
    )


def random_walk(iterator, script):
    """Replay a navigation script; returns the observation log."""
    log = []
    depth = 0
    for op, value in script:
        # the trie contract: open() requires a valid current position
        if op == "open" and depth < 3 and (depth == 0 or not iterator.at_end()):
            iterator.open()
            depth += 1
        elif op == "up" and depth > 0:
            iterator.up()
            depth -= 1
        elif op == "next" and depth > 0 and not iterator.at_end():
            iterator.next()
        elif op == "seek" and depth > 0 and not iterator.at_end():
            if not iterator.key() < value:
                continue
            iterator.seek(value)
        else:
            continue
        state = "END" if (depth and iterator.at_end()) else (
            iterator.key() if depth else "ROOT"
        )
        log.append((op, depth, state))
    return log


@settings(max_examples=120, deadline=None)
@given(
    tuples3,
    st.lists(
        st.tuples(
            st.sampled_from(["open", "up", "next", "seek"]),
            st.integers(0, 6),
        ),
        max_size=40,
    ),
)
def test_backends_agree_on_random_walks(tuples, script):
    treap_it, array_it = both_backends(tuples)
    assert random_walk(treap_it, script) == random_walk(array_it, script)


@settings(max_examples=60, deadline=None)
@given(tuples3, st.integers(0, 5))
def test_backends_agree_with_fixed_prefix(tuples, prefix_value):
    treap_it, array_it = both_backends(tuples, prefix=(prefix_value,))
    assert treap_it.check_fixed_prefix() == array_it.check_fixed_prefix()
    if not treap_it.check_fixed_prefix():
        return
    script = [("open", 0), ("next", 0), ("seek", 3), ("open", 0), ("up", 0)]
    assert random_walk(treap_it, script) == random_walk(array_it, script)


def test_deep_enumeration_equivalence():
    rng = random.Random(9)
    tuples = {
        (rng.randrange(8), rng.randrange(8), rng.randrange(8))
        for _ in range(60)
    }
    treap_it, array_it = both_backends(tuples)

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

    assert enumerate_all(treap_it) == enumerate_all(array_it) == sorted(tuples)


# -- whole-join equivalence, sensitivity intervals included ----------------

edges_strategy = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40
)
marks_strategy = st.sets(st.tuples(st.integers(0, 7)), max_size=8)
order_strategy = st.permutations(["a", "b", "c"])


def run_join(atoms, env, var_order, prefer_array):
    """One LFTJ run on fresh relations: (rows, raw sensitivity data).

    Relations are rebuilt per run so neither backend sees caches the
    other one warmed up.
    """
    relations = {
        name: Relation.from_iter(rel.arity, rel) for name, rel in env.items()
    }
    plan = build_plan(list(atoms), var_order=list(var_order))
    recorder = SensitivityRecorder()
    rows = list(
        LeapfrogTrieJoin(
            plan, relations, recorder=recorder, prefer_array=prefer_array
        ).run()
    )
    return rows, recorder._data


@settings(max_examples=80, deadline=None)
@given(edges_strategy, order_strategy)
def test_lftj_results_and_sensitivities_match_across_backends(edges, order):
    atoms = [
        PredAtom("E", [Var("a"), Var("b")]),
        PredAtom("E", [Var("b"), Var("c")]),
        PredAtom("E", [Var("a"), Var("c")]),
    ]
    env = {"E": Relation.from_iter(2, edges)}
    treap_rows, treap_sens = run_join(atoms, env, order, prefer_array=False)
    array_rows, array_sens = run_join(atoms, env, order, prefer_array=True)
    assert treap_rows == array_rows
    assert treap_sens == array_sens


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
    treap_rows, treap_sens = run_join(atoms, env, order, prefer_array=False)
    array_rows, array_sens = run_join(atoms, env, order, prefer_array=True)
    assert treap_rows == array_rows
    assert treap_sens == array_sens


# -- columnar engine backend vs pure ---------------------------------------


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
    pure_rows, _ = run_join(atoms, env, order, prefer_array=True)
    assert run_columnar(atoms, env, order) == pure_rows


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
    pure_rows, _ = run_join(atoms, env, order, prefer_array=True)
    assert run_columnar(atoms, env, order) == pure_rows


# -- workspace-level equivalence: IVM deltas, deletes, aggregates ----------


updates_strategy = st.lists(
    st.tuples(
        st.sampled_from(["+", "-"]), st.integers(0, 5), st.integers(0, 5)
    ),
    min_size=1,
    max_size=12,
)


def _sensitivity_data(ws):
    """Raw recorded sensitivity intervals of the current materialization."""
    engine = ws.state.artifacts.engine
    mat = ws.state.materialization
    out = {}
    for rule_index in range(len(engine.ruleset.rules)):
        index = mat.sensitivity_index(rule_index)
        if index is not None:
            out[rule_index] = index.by_pred
    return out


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
@settings(max_examples=25, deadline=None)
@given(edges_strategy, updates_strategy)
def test_workspace_ivm_equivalence_across_backends(edges, updates):
    """The full stack — loads, IVM deltas with deletes, recursion, and
    aggregates — produces bit-identical states under both backends,
    sensitivity intervals included."""
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
    assert _sensitivity_data(pure_ws) == _sensitivity_data(col_ws)

"""Where plans and indexes live: the per-rule plan memo and the
version-carried relation caches."""

import gc
import tracemalloc

import pytest

from repro import stats as global_stats
from repro.engine import rules as rules_module
from repro.engine.evaluator import Evaluator, RuleSet
from repro.engine.ir import PredAtom, Var
from repro.engine.rules import Rule
from repro.logiql import shapes
from repro.runtime.workspace import Workspace
from repro.storage.relation import Relation


def chain_rule():
    return Rule(
        "P",
        [Var("x"), Var("z")],
        [PredAtom("E", [Var("x"), Var("y")]), PredAtom("E", [Var("y"), Var("z")])],
    )


@pytest.fixture
def planned(monkeypatch):
    """Every ``build_plan`` call a rule makes, as the list of body
    predicates it planned."""
    calls = []
    real = rules_module.build_plan

    def spy(atoms, *args, **kwargs):
        calls.append([getattr(atom, "pred", None) for atom in atoms])
        return real(atoms, *args, **kwargs)

    monkeypatch.setattr(rules_module, "build_plan", spy)
    return calls


def test_rule_plan_memoized_across_passes():
    """Regression: repeated evaluation passes must reuse one Plan object."""
    rule = chain_rule()
    assert rule.plan() is rule.plan()
    assert rule.plan(["x", "y", "z"]) is rule.plan(["x", "y", "z"])
    assert rule.plan(("x", "y", "z")) is rule.plan(["x", "y", "z"])
    assert rule.plan(["y", "x", "z"]) is not rule.plan(["x", "y", "z"])


def test_evaluator_reuses_plan_across_evaluations(planned):
    evaluator = Evaluator(RuleSet([chain_rule()]))
    edges = Relation.from_iter(2, [(1, 2), (2, 3)])
    evaluator.evaluate({"E": edges})
    assert len(planned) == 1
    second, _ = evaluator.evaluate({"E": edges.insert((3, 4))})
    assert sorted(second["P"]) == [(1, 3), (2, 4)]
    assert len(planned) == 1  # second pass: the rule's memo


def _closure_plans(n, planned):
    rules = [
        Rule("path", [Var("x"), Var("y")], [PredAtom("edge", [Var("x"), Var("y")])]),
        Rule(
            "path",
            [Var("x"), Var("z")],
            [PredAtom("path", [Var("x"), Var("y")]),
             PredAtom("edge", [Var("y"), Var("z")])],
        ),
    ]
    edges = Relation.from_iter(2, [(i, i + 1) for i in range(n)])
    before = len(planned)
    relations, _ = Evaluator(RuleSet(rules)).evaluate({"edge": edges})
    assert len(relations["path"]) == n * (n + 1) // 2
    return len(planned) - before


def test_recursive_rounds_plan_each_delta_rule_once(planned):
    """Semi-naive evaluation builds each delta rule once per fixpoint,
    so its plan memo carries across rounds: the number of plans built
    does not grow with the number of rounds (one per chain node)."""
    short = _closure_plans(30, planned)
    long = _closure_plans(60, planned)
    assert short == long <= 3


def test_recursive_view_commits_plan_nothing_after_warm_up(planned):
    """DRed's passes (over-delete, rederive, insert) are each rule's
    memoized delta passes: once one commit has planned them, a one-edge
    insert and a one-edge delete on a recursive view plan nothing, however
    many semi-naive rounds they run."""
    ws = Workspace()
    ws.addblock(
        """
        edge(x, y) -> int(x), int(y).
        reach(x, y) <- edge(x, y).
        reach(x, z) <- reach(x, y), edge(y, z).
        """
    )
    ws.load("edge", [(i, i + 1) for i in range(30)] + [(i, i + 2) for i in range(0, 30, 3)])
    ws.load("edge", [], remove=[(10, 11)])  # the warm-up commit
    before = len(planned)
    rounds = global_stats.snapshot()
    ws.load("edge", [(10, 11)])
    ws.load("edge", [], remove=[(20, 21)])
    assert global_stats.delta_since(rounds)["dred.rounds"] > 4
    assert planned[before:] == []


def test_installed_rule_planned_once_across_loads(planned):
    ws = Workspace()
    ws.addblock(
        """
        edge(x, y) -> int(x), int(y).
        path(x, y) <- edge(x, y).
        """
    )
    ws.load("edge", [(1, 2), (2, 3)])
    assert any("edge" in body for body in planned)
    before = len(planned)
    ws.load("edge", [(3, 4)])  # same rule, next transaction
    ws.load("edge", [(4, 5)], remove=[(1, 2)])
    assert planned[before:] == []


def test_a_query_shape_is_planned_once(planned):
    """Queries and execs that differ only in their literals share one
    shape: the first call plans, every later one binds."""
    ws = Workspace()
    ws.addblock("edge(x, y) -> int(x), int(y).")
    ws.load("edge", [(i, i + 1) for i in range(20)])
    shapes._SHAPES.clear()
    ws.query("_(x) <- edge(0, y), edge(y, x).")
    ws.exec("+edge(100, 0).")
    before = len(planned)
    for k in range(1, 18):
        assert ws.query("_(x) <- edge({}, y), edge(y, x).".format(k)) == [(k + 2,)]
        ws.exec("+edge({}, 0).".format(100 + k))
    assert planned[before:] == []


def test_distinct_point_queries_retain_no_plans():
    """An ad-hoc query's plans live on its shape's rules: a stream of
    distinct statements of one shape on one workspace retains (almost)
    nothing.  The warm-up is longer than the bounded caches a query may
    fill — the columnar join setups (64) and the ambient trace ring
    under ``REPRO_TRACE=1`` (256 roots)."""
    ws = Workspace()
    ws.addblock("inventory[s] = v -> string(s), int(v).")
    ws.load("inventory", [("sku%05d" % i, i) for i in range(1000)])
    query = '_(v) <- inventory["sku%05d"] = v.'
    tracemalloc.start()
    try:
        for i in range(300):
            ws.query(query % i)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1000):
            assert ws.query(query % i) == [(i,)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 500 * 1024


def test_distinct_query_shapes_retain_a_bounded_cache():
    """Distinct *shapes* (each names its own variable) fill the shape
    cache to its bound and no further: past a warm-up longer than every
    bounded cache a query may fill, each new shape evicts the least
    recently used one."""
    ws = Workspace()
    ws.addblock("inventory[s] = v -> string(s), int(v).")
    ws.load("inventory", [("sku%05d" % i, i) for i in range(1300)])
    query = '_(v{0}) <- inventory["sku{0:05d}"] = v{0}.'
    tracemalloc.start()
    try:
        for i in range(shapes.CACHE_SIZE + 44):
            ws.query(query.format(i))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300, 1300):
            assert ws.query(query.format(i)) == [(i,)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(shapes._SHAPES) == shapes.CACHE_SIZE
    assert retained < 500 * 1024


def test_rebranching_unchanged_relation_keeps_indexes_warm():
    ws = Workspace()
    ws.addblock("edge(x, y) -> int(x), int(y).")
    ws.load("edge", [(i, i + 1) for i in range(64)])
    # joining on the second column forces a permuted secondary index
    query = "_(x, z) <- edge(x, y), edge(z, y)."
    before = global_stats.snapshot()
    ws.query(query)  # builds the secondary index on the shared version
    built = global_stats.delta_since(before)
    # the pure backend builds a permuted tuple index; the columnar one
    # builds a permuted columnar layout — either way it is a cold build
    assert (
        built.get("relation.index_misses", 0) > 0
        or built.get("relation.columnar_misses", 0) > 0
    )
    before = global_stats.snapshot()
    ws.create_branch("fork")
    ws.switch("fork")
    ws.query(query)
    bumped = global_stats.delta_since(before)
    # the branch shares the relation version: the permuted structure
    # built before the branch must be reused, not rebuilt (the columnar
    # backend may reuse the whole encoded join setup, which is keyed by
    # the same relation versions and never re-touches the layouts)
    assert (
        bumped.get("relation.index_hits", 0) > 0
        or bumped.get("relation.columnar_hits", 0) > 0
        or bumped.get("join.columnar_setup_hits", 0) > 0
    )
    assert bumped.get("relation.index_misses", 0) == 0
    assert bumped.get("relation.columnar_misses", 0) == 0


"""Columnar LFTJ executor: equivalence with the pure backend, fallback
rules, and how a join's executor is chosen."""

import random

from repro import stats as global_stats
from repro.engine import columnar
from repro.engine.columnar import ColumnarTrieJoin, make_join
from repro.engine.ir import AssignAtom, BinOp, CompareAtom, Const, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.engine.sensitivity import SensitivityRecorder
from repro.storage.columnar import ColumnarUnsupported
from repro.storage.relation import Relation


def both_runs(atoms, relations, var_order=None, output_vars=()):
    """Rows from the pure and the columnar executor for one plan.

    Relations are rebuilt per executor so neither backend sees the
    other's warmed caches, and the columnar setup cache is keyed by
    relation version, which the rebuild changes nothing about — so we
    clear it to force a cold build every call.
    """
    columnar._SETUP_CACHE.clear()
    plan = build_plan(list(atoms), var_order=var_order, output_vars=output_vars)

    def fresh():
        return {
            name: Relation.from_iter(rel.arity, rel)
            for name, rel in relations.items()
        }

    pure_rows = list(LeapfrogTrieJoin(plan, fresh()).run())
    col = make_join(plan, fresh(), backend="columnar")
    assert isinstance(col, ColumnarTrieJoin)
    return pure_rows, list(col.run())


def random_edges(seed, n, domain):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n:
        a, b = rng.randrange(domain), rng.randrange(domain)
        if a != b:
            edges.add((a, b))
    return edges


TRIANGLE = [
    PredAtom("E", [Var("a"), Var("b")]),
    PredAtom("E", [Var("b"), Var("c")]),
    PredAtom("E", [Var("a"), Var("c")]),
]


class TestEquivalence:
    def test_triangle_all_var_orders(self):
        env = {"E": Relation.from_iter(2, random_edges(7, 80, 12))}
        for order in (
            ("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a"), ("a", "c", "b")
        ):
            pure, col = both_runs(
                TRIANGLE, env, var_order=list(order),
                output_vars=("a", "b", "c"),
            )
            assert pure == col

    def test_constants_in_atoms(self):
        env = {"E": Relation.from_iter(2, random_edges(11, 40, 8))}
        some_a = next(iter(env["E"]))[0]
        for pin in (some_a, 999):  # present and absent constant
            atoms = [
                PredAtom("E", [Const(pin), Var("b")]),
                PredAtom("E", [Var("b"), Var("c")]),
            ]
            pure, col = both_runs(atoms, env, output_vars=("b", "c"))
            assert pure == col

    def test_negation(self):
        env = {
            "E": Relation.from_iter(2, random_edges(13, 40, 8)),
            "M": Relation.from_iter(1, {(i,) for i in range(0, 8, 2)}),
        }
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("M", [Var("a")], negated=True),
        ]
        pure, col = both_runs(atoms, env, output_vars=("a", "b"))
        assert pure == col

    def test_filters_and_assignments(self):
        env = {
            "E": Relation.from_iter(2, random_edges(17, 60, 9)),
            "S": Relation.from_iter(1, {(i,) for i in range(20)}),
        }
        atoms = [
            PredAtom("E", [Var("x"), Var("y")]),
            CompareAtom("<", Var("x"), Var("y")),
            AssignAtom(Var("z"), BinOp("+", Var("x"), Var("y"))),
            PredAtom("S", [Var("z")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("x", "y", "z"))
        assert pure == col

    def test_wildcard_projection(self):
        env = {"E": Relation.from_iter(2, random_edges(19, 40, 8))}
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("E", [Var("b"), Var("_w")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("a", "b"))
        assert pure == col

    def test_string_and_mixed_numeric_keys(self):
        env = {
            "R": Relation.from_iter(
                2, [("x", 1), ("x", 1.5), ("y", 2.0), ("y", 2), ("z", -0.0)]
            ),
            "T": Relation.from_iter(1, [(1,), (2.0,), (0.0,)]),
        }
        atoms = [
            PredAtom("R", [Var("k"), Var("v")]),
            PredAtom("T", [Var("v")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("k", "v"))
        assert pure == col

    def test_empty_relation_short_circuits(self):
        env = {
            "E": Relation.from_iter(2, random_edges(23, 20, 6)),
            "Z": Relation.empty(1),
        }
        atoms = [
            PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("Z", [Var("a")]),
        ]
        pure, col = both_runs(atoms, env, output_vars=("a", "b"))
        assert pure == col == []


class TestFallbacks:
    def test_recorder_forces_pure_executor(self):
        env = {"E": Relation.from_iter(2, random_edges(41, 30, 6))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        join = make_join(
            plan, env, recorder=SensitivityRecorder(), backend="columnar"
        )
        assert isinstance(join, LeapfrogTrieJoin)

    def test_unencodable_relation_falls_back_to_pure(self):
        env = {"R": Relation.from_iter(2, [(1, 2), (2, "a")])}
        atoms = [PredAtom("R", [Var("x"), Var("y")])]
        plan = build_plan(atoms, output_vars=("x", "y"))
        before = global_stats.snapshot()
        join = make_join(plan, env, backend="columnar")
        delta = global_stats.delta_since(before)
        assert isinstance(join, LeapfrogTrieJoin)
        assert delta.get("join.columnar_fallbacks") == 1
        assert sorted(join.run()) == [(1, 2), (2, "a")]

    def test_pure_backend_never_builds_columnar(self):
        env = {"E": Relation.from_iter(2, random_edges(43, 30, 6))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        join = make_join(plan, env, backend="pure")
        assert isinstance(join, LeapfrogTrieJoin)


class TestResolveBackend:
    """``make_join`` resolves a join's executor: the caller's ``backend``
    when one is passed, else :func:`~repro.engine.columnar.choose_backend`."""

    def test_explicit_choice_wins(self, force_executor):
        env = {"E": Relation.from_iter(2, random_edges(45, 30, 6))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        force_executor("pure")
        join = make_join(plan, env, backend="columnar")
        assert isinstance(join, ColumnarTrieJoin)
        assert join.reason == "forced"

    def test_default_chooses_per_plan(self):
        env = {"E": Relation.from_iter(2, random_edges(45, 30, 6))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        backend, reason = columnar.choose_backend(plan, env)
        join = make_join(plan, env)
        assert (join.backend, join.reason) == (backend, reason)


class TestCounters:
    def test_vector_seeks_and_batches_are_observed(self):
        columnar._SETUP_CACHE.clear()
        env = {"E": Relation.from_iter(2, random_edges(47, 80, 10))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        stats = {}
        before = global_stats.snapshot()
        join = make_join(plan, env, backend="columnar", stats=stats)
        list(join.run())
        delta = global_stats.delta_since(before)
        assert stats.get("vector_seeks", 0) > 0
        assert stats.get("batches", 0) > 0
        # the executor bumps the global counters itself (the evaluator
        # must not re-fold them — see Evaluator's bump_prefix handling)
        assert delta.get("join.vector_seeks") == stats["vector_seeks"]
        assert delta.get("join.columnar_joins") == 1
        # batch sizes feed the join.batch_sizes histogram
        histogram = global_stats.histograms().get("join.batch_sizes")
        assert histogram and histogram["count"] >= stats["batches"]


def tri_all_plan():
    return build_plan(
        list(TRIANGLE) + [CompareAtom("<", Var("a"), Var("b")),
                          CompareAtom("<", Var("b"), Var("c"))],
        output_vars=("a", "b", "c"),
    )


class TestPerPlanChoice:
    """Each join picks its executor from the rows its first variable
    level draws on."""

    def test_point_query_runs_pure(self):
        inventory = Relation.from_iter(
            2, [("sku{:05d}".format(i), i) for i in range(1000)])
        plan = build_plan(
            [PredAtom("inventory", [Const("sku00042"), Var("v")])],
            output_vars=("v",))
        before = global_stats.snapshot()
        join = make_join(plan, {"inventory": inventory})
        assert isinstance(join, LeapfrogTrieJoin)
        assert join.reason == "1 rows < {}".format(columnar.COLUMNAR_MIN_ROWS)
        assert global_stats.delta_since(before).get("join.backend.pure") == 1
        assert list(join.run()) == [(42,)]

    def test_small_three_atom_join_runs_pure(self):
        env = {"E": Relation.from_iter(2, random_edges(51, 60, 12))}
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        assert isinstance(make_join(plan, env), LeapfrogTrieJoin)

    def test_tri_all_above_the_crossover_runs_columnar(self):
        columnar._SETUP_CACHE.clear()
        n_edges = columnar.COLUMNAR_MIN_ROWS + 500
        env = {"E": Relation.from_iter(2, random_edges(53, n_edges, 400))}
        plan = tri_all_plan()
        assert columnar.first_level_rows(plan, env) > columnar.COLUMNAR_MIN_ROWS
        before = global_stats.snapshot()
        join = make_join(plan, env)
        assert isinstance(join, ColumnarTrieJoin)
        assert join.reason.endswith(">= {}".format(columnar.COLUMNAR_MIN_ROWS))
        assert global_stats.delta_since(before).get("join.backend.columnar") == 1
        assert list(join.run()) == list(LeapfrogTrieJoin(plan, env).run())
        # the setup is now built for this version: the next run reuses it
        assert make_join(plan, env).reason == "setup built"

    def test_recorder_keeps_a_large_join_pure(self):
        env = {"E": Relation.from_iter(
            2, random_edges(55, columnar.COLUMNAR_MIN_ROWS + 10, 400))}
        join = make_join(tri_all_plan(), env, recorder=SensitivityRecorder())
        assert isinstance(join, LeapfrogTrieJoin)
        assert join.reason == "records sensitivity"

    def test_constant_prefix_range_is_counted(self):
        env = {"E": Relation.from_iter(
            2, [(0, i) for i in range(3000)] + [(1, 0), (1, 1)])}
        for pin, expected in ((0, 3000), (1, 2), (2, 0)):
            plan = build_plan(
                [PredAtom("E", [Const(pin), Var("b")]),
                 PredAtom("E", [Var("b"), Var("c")])],
                output_vars=("b", "c"))
            assert columnar.first_level_rows(plan, env) == expected

    def test_workspace_reports_each_decision(self):
        from repro import Workspace

        ws = Workspace()
        ws.addblock("E(x, y) -> int(x), int(y).")
        ws.load("E", sorted(random_edges(57, columnar.COLUMNAR_MIN_ROWS + 500, 400)))
        ws.reset_engine_stats()
        with ws.profile() as prof:
            ws.query("_(a, b, c) <- E(a, b), E(b, c), E(a, c), a < b, b < c.")
            ws.query("_(b) <- E(3, b).")
        paths = [(j.attrs["backend"], j.attrs["reason"])
                 for j in prof.find_all("join")]
        assert [backend for backend, _ in paths] == ["columnar", "pure"]
        assert ws.engine_stats()["columnar"]["chosen"] == {
            "pure": 1, "columnar": 1}
        report = ws.explain("_(b) <- E(3, b).")
        assert report.backend == "per-plan"
        assert [rule["backend"] for rule in report.rules] == ["pure"]


class TestVersionLifetime:
    """A columnar read leaves nothing that a later write must carry or
    that outlives the version it encodes."""

    def test_a_write_drops_the_superseded_setup(self):
        columnar._SETUP_CACHE.clear()
        relation = Relation.from_iter(2, random_edges(63, 200, 40))
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        rows = list(make_join(plan, {"E": relation}, backend="columnar").run())
        assert len(columnar._SETUP_CACHE) == 1
        relation.insert((1000, 1001))
        # the old version is still alive (history keeps it) but a write
        # superseded it, so its layouts and setup are gone ...
        assert not columnar._SETUP_CACHE
        # ... and rebuilt if it is read again
        assert list(make_join(plan, {"E": relation}, backend="columnar").run()) == rows

    def test_setup_is_dropped_with_its_version(self):
        import gc

        columnar._SETUP_CACHE.clear()
        relation = Relation.from_iter(2, random_edges(65, 200, 40))
        plan = build_plan(list(TRIANGLE), output_vars=("a", "b", "c"))
        list(make_join(plan, {"E": relation}, backend="columnar").run())
        assert len(columnar._SETUP_CACHE) == 1
        del relation
        gc.collect()
        assert not columnar._SETUP_CACHE


def test_a_level_one_column_reads_keeps_that_columns_domain():
    """A variable read by one atom column takes its domain and codes as
    they are; only a level two columns share builds a merged domain."""
    path = [PredAtom("E", [Var("a"), Var("b")]),
            PredAtom("E", [Var("b"), Var("c")])]
    relation = Relation.from_iter(2, random_edges(67, 120, 30))
    plan = build_plan(list(path), output_vars=("a", "b", "c"))
    assert plan.var_order == ("a", "b", "c")
    columnar._SETUP_CACHE.clear()
    executor = make_join(plan, {"E": relation}, backend="columnar")
    layout = relation.columnar((0, 1))
    domains = executor._setup.domains
    assert domains[0] is layout.domains[0]
    assert domains[2] is layout.domains[1]
    assert domains[1] == sorted(set(layout.domains[0]) | set(layout.domains[1]))
    pure_rows, columnar_rows = both_runs(path, {"E": relation},
                                         output_vars=("a", "b", "c"))
    assert columnar_rows == pure_rows

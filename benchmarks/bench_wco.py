"""E9 — worst-case optimality sanity (paper §3.2, [31, 42]).

"LFTJ is a worst-case optimal join algorithm ... the running time of
the algorithm is bounded by the worst-case cardinality of the query
result (modulo logarithmic factors)."  For the triangle query the AGM
bound is |E|^{3/2}: LFTJ's search steps must scale no worse than that,
even on instances engineered to blow up binary plans.
"""

import math
import time

import pytest

from repro.datasets.graphs import hub_graph, powerlaw_graph
from repro.engine.ir import PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.storage.relation import Relation
from conftest import SMOKE, pedantic, sizes

ATOMS = [
    PredAtom("E", [Var("a"), Var("b")]),
    PredAtom("E", [Var("b"), Var("c")]),
    PredAtom("E", [Var("a"), Var("c")]),
]
PLAN = build_plan(ATOMS, var_order=["a", "b", "c"])


def steps_for(edges):
    relation = Relation.from_iter(2, edges)
    stats = {}
    executor = LeapfrogTrieJoin(PLAN, {"E": relation}, stats=stats)
    count = sum(1 for _ in executor.run())
    return stats["steps"], count


@pytest.mark.parametrize("n_nodes", sizes([200, 400, 800], [100, 200]))
def test_wco_powerlaw(benchmark, n_nodes):
    edges = powerlaw_graph(n_nodes, edges_per_node=5, seed=1)
    steps, count = pedantic(benchmark, steps_for, edges)
    agm = len(edges) ** 1.5
    assert steps <= 4 * agm + 10 * len(edges)
    benchmark.extra_info.update(edges=len(edges), steps=steps,
                                agm_bound=agm, triangles=count)


@pytest.mark.parametrize("n_nodes", sizes([500, 1000, 2000], [200, 400]))
def test_wco_hub(benchmark, n_nodes):
    """Hub instances have Θ(n²) wedges but few triangles: LFTJ's steps
    must track the output + |E|, far below the wedge count."""
    edges = hub_graph(n_nodes, seed=1)
    steps, count = pedantic(benchmark, steps_for, edges)
    wedges_estimate = (n_nodes - 1) ** 2
    assert steps < wedges_estimate / 4, (steps, wedges_estimate)
    benchmark.extra_info.update(edges=len(edges), steps=steps,
                                triangles=count)


def test_wco_columnar_vs_pure(benchmark):
    """Columnar (vectorized numpy) LFTJ vs the pure backend on the
    largest power-law instance: bit-identical rows, enumeration order
    included, and the wall-time ratio is the artifact headline.  The
    variable order is the sampling optimizer's pick, recorded alongside
    (``compare.py --require-speedup`` gates on these fields in CI)."""
    from repro.engine.columnar import make_join
    from repro.engine.optimizer import SamplingOptimizer
    from repro.engine.rules import Rule
    import numpy

    n_nodes = sizes(1600, 200)
    edges = powerlaw_graph(n_nodes, edges_per_node=5, seed=1)
    relation = Relation.from_iter(2, edges)
    env = {"E": relation}
    rule = Rule("t", [Var("a"), Var("b"), Var("c")], ATOMS)
    order = SamplingOptimizer()(rule, env) or ("a", "b", "c")
    plan = build_plan(ATOMS, var_order=list(order))

    def run_pure():
        return list(LeapfrogTrieJoin(plan, env).run())

    def run_columnar():
        return list(make_join(plan, env, backend="columnar").run())

    pure_rows = run_pure()  # also warms the secondary treap indexes
    columnar_rows = run_columnar()  # also warms the encoded setup
    assert columnar_rows == pure_rows

    def best_of(fn, rounds=2):
        best = None
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    pure_time = best_of(run_pure)
    columnar_time = best_of(run_columnar)
    speedup = pure_time / columnar_time
    benchmark.extra_info.update(
        backend="columnar",
        numpy_version=numpy.__version__,
        var_order=list(order),
        edges=len(edges),
        triangles=len(pure_rows),
        pure_s=pure_time,
        columnar_s=columnar_time,
        speedup=speedup,
    )
    if not SMOKE:
        assert speedup >= 5.0, (
            "columnar LFTJ must be >=5x the pure backend at full size, "
            "got {:.1f}x".format(speedup)
        )
    pedantic(benchmark, run_columnar, rounds=1)


@pytest.mark.skipif(SMOKE, reason="smoke mode checks crashes, not shape")
def test_wco_scaling_exponent(benchmark):
    """Fitted exponent of steps vs |E| stays <= 1.5 on power-law data."""
    points = []
    for n_nodes in (200, 400, 800, 1600):
        edges = powerlaw_graph(n_nodes, edges_per_node=5, seed=1)
        steps, _ = steps_for(edges)
        points.append((len(edges), steps))
    (e1, s1), (e2, s2) = points[0], points[-1]
    exponent = math.log(s2 / s1) / math.log(e2 / e1)
    print("\nLFTJ steps-vs-edges exponent: {:.2f} (AGM allows 1.5)".format(
        exponent))
    assert exponent <= 1.6
    benchmark.extra_info["exponent"] = exponent
    pedantic(benchmark, steps_for, powerlaw_graph(200, 5, seed=1), rounds=1)

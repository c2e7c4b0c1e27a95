"""E1 — unary leapfrog join throughput (paper §3.2, Figure 3 machinery).

Measures the k-way sorted-set intersection at the heart of LFTJ: cost
scales with the smallest set and the skip distances, not the total
input size (the amortized O(1 + log(N/m)) contract).  Each set is a
unary relation read through the engine's own cursor, a trie iterator
opened on it.
"""

import pytest

from repro.ds.pset import PSet
from repro.engine.iterators import trie_iterator
from repro.engine.leapfrog import LeapfrogJoin
from repro.storage.relation import Relation
from conftest import pedantic, sizes


def unary(values):
    """The unary relation of ``values``."""
    return Relation(1, PSet.from_sorted((v,) for v in sorted(values)))


def build_sets(n, k, stride):
    """k sets of n elements; every stride-th element is shared."""
    shared = set(range(0, n * stride, stride))
    sets = []
    for index in range(k):
        extra = {stride * j + index + 1 for j in range(n)}
        sets.append(unary(shared | extra))
    return sets


def run_intersection(sets):
    cursors = [trie_iterator(relation, (0,)) for relation in sets]
    for cursor in cursors:
        cursor.open()
    join = LeapfrogJoin(cursors)
    count = 0
    while not join.at_end():
        count += 1
        join.next()
    return count


@pytest.mark.parametrize("k", [2, 3, 5])
def test_unary_leapfrog_width(benchmark, k):
    sets = build_sets(sizes(3000, 300), k, stride=7)
    count = pedantic(benchmark, run_intersection, sets)
    benchmark.extra_info.update(k=k, matches=count)


@pytest.mark.parametrize("stride", [2, 16, 128])
def test_unary_leapfrog_selectivity(benchmark, stride):
    """Sparser intersections leapfrog further per step: work tracks the
    output + skip count, not the input size."""
    sets = build_sets(sizes(2000, 300), 3, stride)
    count = pedantic(benchmark, run_intersection, sets)
    benchmark.extra_info.update(stride=stride, matches=count)


def test_unary_leapfrog_skewed_sizes(benchmark):
    """A tiny set intersected with a huge one: cost follows the tiny
    side (each probe is one O(log N) seek)."""
    small = unary(range(0, 1000, 10))
    big = unary(range(sizes(1000000, 20000)))
    count = pedantic(benchmark, run_intersection, [small, big])
    assert count == 100

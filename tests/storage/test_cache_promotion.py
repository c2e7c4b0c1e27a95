"""Index cache promotion across relation versions.

`Relation.apply` must carry its parent's secondary treap indexes into
the child version (incrementally maintained), so unchanged or
lightly-edited versions never pay a rebuild.
"""

from repro import stats as global_stats
from repro.storage.relation import Delta, Relation

SWAP = (1, 0)


def rel(n=50, step=3):
    return Relation.from_iter(2, [(i, (i * step) % n) for i in range(n)])


def expected_rows(relation, perm):
    return sorted(tuple(t[i] for i in perm) for t in relation)


def test_apply_promotes_secondary_index():
    relation = rel()
    relation.index_root(SWAP)  # build + cache the permuted index
    before = global_stats.snapshot()
    child = relation.apply(Delta.from_iters([(999, 1)], [(0, 0)]))
    bumped = global_stats.delta_since(before)
    assert bumped.get("relation.index_promotions", 0) == 1
    # the child answers permuted lookups without a rebuild
    before = global_stats.snapshot()
    child.index_root(SWAP)
    bumped = global_stats.delta_since(before)
    assert bumped.get("relation.index_hits", 0) == 1
    assert bumped.get("relation.index_misses", 0) == 0


def test_promoted_index_content_is_correct():
    relation = rel()
    relation.index_root(SWAP)
    child = relation.apply(Delta.from_iters([(999, 1), (998, 2)], [(3, 9), (6, 18)]))
    promoted = child._indexes[SWAP]
    assert list(promoted) == expected_rows(child, SWAP)


def test_index_promotion_handles_add_and_remove_of_same_tuple():
    # `apply` semantics: removal first, re-insertion wins
    relation = rel(64)
    relation.index_root(SWAP)
    delta = Delta.from_iters([(0, 0), (500, 5)], [(0, 0)])
    child = relation.apply(delta)
    assert (0, 0) in child
    assert (500, 5) in child
    assert list(child._indexes[SWAP]) == expected_rows(child, SWAP)


def test_union_promotes_receiver_caches():
    left = rel(100)
    left.index_root(SWAP)
    right = Relation.from_iter(2, [(2000, 1), (2001, 2)])
    merged = left.union(right)
    assert SWAP in merged._indexes
    assert list(merged._indexes[SWAP]) == expected_rows(merged, SWAP)


def test_union_with_empty_is_identity():
    relation = rel()
    assert relation.union(Relation.empty(2)) is relation
    assert Relation.empty(2).union(relation) is relation


def test_subtract_promotes_and_short_circuits():
    relation = rel(80)
    relation.index_root(SWAP)
    assert relation.subtract(Relation.empty(2)) is relation
    smaller = relation.subtract(Relation.from_iter(2, [(0, 0), (1, 3)]))
    assert SWAP in smaller._indexes
    assert list(smaller._indexes[SWAP]) == expected_rows(smaller, SWAP)


def test_apply_noop_delta_returns_same_version():
    relation = rel()
    assert relation.apply(Delta()) is relation
    # delta that changes nothing (removing absent, adding present)
    assert relation.apply(Delta.from_iters([(0, 0)], [(7777, 1)])) is relation

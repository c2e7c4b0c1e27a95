"""Tests for the version DAG and O(1) branching."""

import time

import pytest

from repro.ds import PMap, Version, VersionGraph


class TestVersion:
    def test_branch_shares_state(self):
        state = PMap.from_dict({i: i for i in range(1000)})
        v1 = Version(state)
        v2 = v1.branch()
        assert v2.state is v1.state
        assert v2.parent_ids == (v1.id,)

    def test_commit_creates_child(self):
        v1 = Version(PMap.from_dict({1: "a"}))
        v2 = v1.commit(v1.state.set(2, "b"))
        assert v2.parent_ids == (v1.id,)
        assert dict(v1.state.items()) == {1: "a"}
        assert dict(v2.state.items()) == {1: "a", 2: "b"}

    def test_merge_has_two_parents(self):
        v1 = Version(PMap.EMPTY)
        a = v1.commit(PMap.from_dict({1: 1}))
        b = v1.commit(PMap.from_dict({2: 2}))
        merged = a.merge(b, a.state.write((), list(b.state.items())))
        assert merged.parent_ids == (a.id, b.id)
        assert dict(merged.state.items()) == {1: 1, 2: 2}

    def test_branching_is_fast(self):
        # the paper measures 80k branches/core/sec for a C++ engine;
        # the requirement here is only that branching does not scale
        # with the state size (it is O(1) pointer copying)
        state = PMap.from_sorted_items((i, i) for i in range(100000))
        version = Version(state)
        started = time.perf_counter()
        for _ in range(1000):
            version.branch()
        per_branch = (time.perf_counter() - started) / 1000
        assert per_branch < 1e-4  # far below any copy of 100k entries


class TestVersionGraph:
    def test_initial_head(self):
        graph = VersionGraph("state0")
        assert graph.head().state == "state0"
        assert graph.branches() == ["main"]

    def test_branch_advance_isolation(self):
        graph = VersionGraph(PMap.from_dict({1: "a"}))
        graph.branch("main", "feature")
        graph.advance("feature", graph.head("feature").state.set(2, "b"))
        assert dict(graph.head("main").state.items()) == {1: "a"}
        assert dict(graph.head("feature").state.items()) == {1: "a", 2: "b"}

    def test_duplicate_branch_rejected(self):
        graph = VersionGraph(None)
        graph.branch("main", "x")
        with pytest.raises(ValueError):
            graph.branch("main", "x")

    def test_delete_branch(self):
        graph = VersionGraph(None)
        graph.branch("main", "x")
        graph.delete_branch("x")
        assert "x" not in graph
        with pytest.raises(ValueError):
            graph.delete_branch("main")

    def test_time_travel(self):
        graph = VersionGraph(PMap.from_dict({1: "v1"}))
        old_head = graph.head("main")
        graph.advance("main", PMap.from_dict({1: "v2"}))
        graph.branch_version(old_head, "past")
        assert dict(graph.head("past").state.items()) == {1: "v1"}

    def test_move_head(self):
        graph = VersionGraph("a")
        v = graph.head("main")
        graph.advance("main", "b")
        graph.move_head("main", v)
        assert graph.head("main").state == "a"

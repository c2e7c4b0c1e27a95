"""benchmarks/compare.py: diffing two BENCH_<name>.json artifacts."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", REPO_ROOT / "benchmarks" / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(means, counters):
    return {
        "benchmark": "bench_sample",
        "engine_stats": counters,
        "results": [
            {"test": name, "params": {}, "wall_time_s": {"mean": mean}}
            for name, mean in means.items()
        ],
    }


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestCompare:
    def test_reports_wall_time_and_counter_deltas(self, tmp_path, capsys):
        compare = _load_compare()
        old = write(tmp_path, "old.json", payload(
            {"test_a": 1.0, "test_b": 2.0},
            {"relation.index_hits": 10, "join.seeks": 100},
        ))
        new = write(tmp_path, "new.json", payload(
            {"test_a": 1.5, "test_b": 1.0},
            {"relation.index_hits": 30, "join.seeks": 100},
        ))
        assert compare.main([old, new]) == 0
        out = capsys.readouterr().out
        assert "test_a" in out and "+50.0%" in out
        assert "test_b" in out and "-50.0%" in out
        assert "relation.index_hits" in out and "(+20)" in out
        # unchanged counters are not listed
        assert "join.seeks" not in out

    def test_added_and_removed_tests(self, tmp_path, capsys):
        compare = _load_compare()
        old = write(tmp_path, "old.json", payload({"gone": 1.0}, {}))
        new = write(tmp_path, "new.json", payload({"fresh": 2.0}, {}))
        assert compare.main([old, new]) == 0
        out = capsys.readouterr().out
        assert "gone" in out and "removed" in out
        assert "fresh" in out and "added" in out

    def test_fail_above_gate(self, tmp_path, capsys):
        compare = _load_compare()
        old = write(tmp_path, "old.json", payload({"t": 1.0}, {}))
        new = write(tmp_path, "new.json", payload({"t": 1.2}, {}))
        assert compare.main([old, new, "--fail-above", "10"]) == 1
        assert compare.main([old, new, "--fail-above", "30"]) == 0

    def test_nested_snapshots_are_skipped(self, tmp_path, capsys):
        compare = _load_compare()
        counters = {"columnar": {"joins": 1}, "flat": 5}
        old = write(tmp_path, "old.json", payload({"t": 1.0}, counters))
        new = write(tmp_path, "new.json", payload({"t": 1.0}, {"flat": 9}))
        assert compare.main([old, new]) == 0
        out = capsys.readouterr().out
        assert "flat" in out

    def test_real_artifact_shape(self, tmp_path, capsys):
        """The checked-in BENCH files parse through the same path."""
        compare = _load_compare()
        results = sorted((REPO_ROOT / "benchmarks" / "results").glob("BENCH_*.json"))
        assert results, "no checked-in BENCH artifacts"
        sample = str(results[0])
        assert compare.main([sample, sample]) == 0

"""The command itself: contract, oracle failure, process hygiene."""

import json
import os
import shutil
import subprocess
import sys

from conftest import E2E, ROOT

RUN = os.path.join(E2E, "run.py")


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def report_of(done):
    """The full report line: every metric, n/a ones with their reason."""
    mark = "# report "
    line = next(l for l in done.stdout.splitlines() if l.startswith(mark))
    return json.loads(line[len(mark):])


def servers():
    """Command lines of every live ``python -m repro.net`` process."""
    found = set()
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open("/proc/{}/cmdline".format(pid), "rb") as f:
                    words = f.read().split(b"\0")
            except OSError:
                continue
            if b"repro.net" in words:
                found.add(pid)
    return found


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_untraced_run_meets_the_contract_and_leaks_nothing():
    before = servers()
    done = run("--workload", "shard_orders", "--seed", "4", "--seconds", "2",
               "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = contract()
    assert set(result["metrics"]) == {e["name"] for e in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = report_of(done)              # the issue's eleven, by name
    assert len(report) == 11 and set(result["metrics"]) <= set(report)
    assert report["exec_p50_ms"]["value"] > 0 and report["exec_p50_ms"]["n"]
    assert report["checkpoint_p50_ms"]["value"] is None
    assert "checkpoint" in report["checkpoint_p50_ms"]["na"]
    assert servers() == before            # both shard servers are gone
    assert not os.path.exists(os.path.join(E2E, ".work"))


def test_a_tcp_client_is_verified():
    done = run("--workload", "oltp_tcp", "--seed", "4", "--seconds", "2",
               "--smoke")
    assert done.returncode == 0, done.stderr
    assert result_of(done)["correct"] is True


def test_a_corrupted_answer_fails_the_command():
    before = servers()
    done = run("--workload", "oltp_tcp", "--seed", "4", "--seconds", "2",
               "--smoke", "--corrupt-answer")
    assert done.returncode != 0
    result = result_of(done)
    assert result["correct"] is False and result["failed"] == 1
    assert servers() == before            # torn down on the failure path too


def test_a_corrupted_answer_fails_repeated_runs_too():
    done = run("--workload", "analytics_local", "--seed", "4", "--seconds",
               "1", "--smoke", "--repeat", "2", "--corrupt-answer")
    assert done.returncode != 0


def test_traced_run_emits_every_per_layer_metric():
    done = run("--workload", "analytics_local", "--seed", "4", "--trace", "1",
               "--smoke")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    declared = contract()
    assert set(result["metrics"]) == {e["name"] for e in declared["per_layer"]}
    assert result["metrics"]["bench.trace_overhead_share"]["unit"] == "ratio"
    assert "bench.unattributed_share.workspace" in result["metrics"]
    report = report_of(done)
    for name, row in report.items():      # measured, or n/a with a reason
        if row["value"] is None:
            assert row["na"] and result["metrics"][name]["value"] == 0
        else:
            assert result["metrics"][name]["value"] == row["value"]
    assert report["engine.join_pure_ms"]["value"] > 0
    assert "wire" in report["net.exec_overhead_ms"]["na"]
    assert "coordinator" in report["shard.gather_ms"]["na"]
    assert os.path.exists(
        os.path.join(E2E, "results", "trace-analytics_local.jsonl"))


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = run("--workload", "oltp_tcp", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()

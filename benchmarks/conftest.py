"""Shared helpers for the benchmark suite.

Each module regenerates one paper artifact (see DESIGN.md §4 and
EXPERIMENTS.md).  Benchmarks assert the *shape* of the paper's results
(who wins, scaling exponents, crossovers), not absolute numbers: the
substrate here is a pure-Python engine, not the authors' C++ testbed.

Every run additionally emits one machine-readable result file per
benchmark module — ``benchmarks/results/BENCH_<name>.json`` holding the
workload parameters, wall times, and engine counters — so the perf
trajectory can be tracked across PRs.

``BENCH_SMOKE=1`` shrinks every workload to tiny sizes (CI smoke mode:
catch crashes on the perf path, don't measure) and writes its result
files to ``benchmarks/results/smoke/`` (not committed), so a smoke run
never overwrites a committed full-size result.
"""

import json
import os
import platform
from pathlib import Path

from repro import obs
from repro import stats as engine_stats

#: Smoke mode: tiny inputs, one round — crash detection, not measurement.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

RESULTS_DIR = Path(__file__).resolve().parent / "results"
if SMOKE:
    RESULTS_DIR = RESULTS_DIR / "smoke"

#: result-file aliases: module stem (minus ``bench_``) -> BENCH_<name>
RESULT_ALIASES = {"service_throughput": "service", "net_throughput": "net"}


def sizes(full, smoke):
    """Pick the workload size list for the current mode."""
    return smoke if SMOKE else full


def pedantic(benchmark, fn, *args, rounds=3, **kwargs):
    """Run a benchmark with a fixed small round count (the workloads
    are big enough that calibration noise is irrelevant)."""
    if SMOKE:
        rounds = 1
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=rounds,
                              iterations=1, warmup_rounds=0)


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _bench_entry(bench):
    stats = getattr(bench, "stats", None)
    timing = {}
    if stats is not None:
        for field in ("min", "max", "mean", "stddev", "rounds"):
            timing[field] = _json_safe(getattr(stats, field, None))
    return {
        "test": bench.name,
        "params": _json_safe(getattr(bench, "params", None) or {}),
        "wall_time_s": timing,
        "extra_info": _json_safe(dict(getattr(bench, "extra_info", {}) or {})),
    }


def pytest_sessionstart(session):
    engine_stats.reset()
    obs.reset_span_totals()


def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module = {}
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is not None and not stats.data:
            # it raised before a round was recorded: its own error is
            # the report, and min/max of no rounds would mask it
            continue
        module = Path(bench.fullname.split("::")[0]).stem
        by_module.setdefault(module, []).append(_bench_entry(bench))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    counters = engine_stats.snapshot()
    histograms = engine_stats.histograms()
    trace = obs.span_totals()
    for module, entries in sorted(by_module.items()):
        name = module[len("bench_"):] if module.startswith("bench_") else module
        name = RESULT_ALIASES.get(name, name)
        payload = {
            "benchmark": module,
            "smoke": SMOKE,
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "cpu_count": os.cpu_count(),
            "engine_stats": counters,
            "histograms": histograms,
            "trace": trace,
            "results": entries,
        }
        path = RESULTS_DIR / "BENCH_{}.json".format(name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

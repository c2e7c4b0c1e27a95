"""The repo's end-to-end benchmark: four client-path workloads.

    python3 benchmarks/e2e/run.py --workload oltp_tcp --seed 1 \\
        --seconds 15 --trace 0

sets a workload up, drives its seeded op stream closed-loop for
``--seconds``, checks every answer against an oracle and prints every
metric by name with its unit; the last line of output is one JSON
object (see BENCHMARK.json at the root of the repo for the contract).
``--trace 1`` runs the traced pass instead and prints the per-layer
metrics.  Without ``--workload`` all four run; ``--repeat K`` repeats
each with K seeds and prints medians, quartiles and spreads.  See
README.md beside this file.
"""

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("benchmarks/e2e: no program to measure ({} is missing)".format(
        os.path.join(SRC, "repro")))
sys.path[:0] = [HERE, SRC]
for _name in ("REPRO_TRACE", "REPRO_ENGINE"):  # the engine a user gets
    os.environ.pop(_name, None)

import harness  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from summary import percentile, spread  # noqa: E402

SETUPS = 3
RSS_BLOCKS = 4  # peak_rss_mb is read when the client ends this block
RESULTS = os.path.join(HERE, "results")
REPORT_MARK = "# report "
#: the issue's eleven end-to-end metrics, printed by every untraced run:
#: name, unit and the issue's own regression bound.  BENCHMARK.json
#: holds the ones the driver gates, with the bounds this host resolves.
REPORTED = (
    ("ops_per_s", "1/s", 0.10), ("query_p50_ms", "ms", 0.10),
    ("query_p95_ms", "ms", 0.10), ("exec_p50_ms", "ms", 0.10),
    ("exec_p95_ms", "ms", 0.10), ("checkpoint_p50_ms", "ms", 0.10),
    ("cpu_s_per_kop", "s", 0.10), ("peak_rss_mb", "MB", 0.10),
    ("disk_bytes_per_user_byte", "ratio", 0.05),
    ("failed_ops_share", "ratio", 0.0), ("setup_s", "s", 0.15),
)
#: why a workload may have no value for one of them
NOT_APPLICABLE = {
    "exec_p50_ms": "no write op in this workload",
    "exec_p95_ms": "no write op in this workload",
    "checkpoint_p50_ms": "no checkpoint op in this workload",
    "disk_bytes_per_user_byte": "no checkpoint directory in this workload",
}


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- one untraced run ---------------------------------------------------------

def untraced(spec, seed, seconds, scale, work, corrupt=False):
    """Set up (several times), measure for ``seconds``, verify.  Times
    are in reference seconds (see hostclock.py); ``raw`` holds the same
    metrics in wall and charged-CPU seconds."""
    data = spec.data(seed, spec.sizes[scale])
    size = len(spec.block)
    clock = hostclock.HostClock()
    setups, target = [], None
    for build in range(SETUPS):
        if target is not None:
            target.close()
            target = None
            gc.collect()
        clock.sample()
        started = time.perf_counter()
        target = harness.open_target(
            spec, data, spec.rungs[-1],
            os.path.join(work, "build-{}".format(build)))
        try:
            clock.sample()
            stream = spec.stream(seed, data)
            log = []
            # warm-up: one whole mix block, so every kind has run once
            # and the caches a steady client sees are filled
            harness.drive(target, itertools.islice(stream, size), log,
                          clock=clock)
        except BaseException:
            target.close()
            raise
        setups.append((started, time.perf_counter()))
    try:
        marks = []

        def mark():
            marks.append((target.cpu_s() - clock.cpu_s, len(log),
                          target.peak_rss_mb()))

        mark()
        harness.drive(target, stream, log, every=(size, mark), clock=clock,
                      deadline=time.perf_counter() + seconds,
                      first_ordinal=size)
        blocks = len(marks) - 1
        if not blocks:
            raise RuntimeError("no mix block completed in the measured time")
        # whole mix blocks only, so every run measures the same mix
        # whatever op the cut-off fell on
        whole = log[size:size + blocks * size]
        values, samples = end_to_end(whole, marks, setups, clock.seconds)
        raw, _ = end_to_end(whole, marks, setups, lambda a, b: b - a)
        if spec.checkpoints:
            values["disk_bytes_per_user_byte"] = (
                layers.disk_bytes_per_user_byte(target, data))
        if corrupt:
            victim = next(e for e in whole if e.op.cls == "query")
            victim.result = list(victim.result) + [("corrupted",)]
        failures = oracles.CHECKS[spec.name](data, log, target)
        values["failed_ops_share"] = len(failures) / len(log)
    finally:
        target.close()
    notes = ["host speed over the measured ops: {:.3f} of the reference "
             "host (raw = wall and charged-CPU seconds)".format(
                 raw["ops_per_s"] / values["ops_per_s"])]
    sent = [e.op.text for e in log if e.op.cls == "exec"]
    if sent:
        notes.append("exec statements since set-up: {} sent, {} distinct"
                     .format(len(sent), len(set(sent))))
    return {"values": values, "raw": raw, "samples": samples,
            "attempted": len(log), "failures": failures, "notes": notes}


def end_to_end(whole, marks, setups, seconds):
    """The time metrics of the measured ops ``whole``.  ``seconds(a, b)``
    is the length of an interval of ``perf_counter`` readings: the host
    clock's for the metrics, the wall's for ``raw``."""
    waited = [seconds(e.t0, e.t1) for e in whole]
    # the host charges a slowed guest more CPU time for the same work, by
    # the factor it stretches the wall time with
    stretch = sum(waited) / sum(e.t1 - e.t0 for e in whole)
    (cpu0, ops0, _), (cpu1, ops1, _) = marks[0], marks[-1]
    # memory grows with the ops done (versions, history), so the peak is
    # read at a fixed op count — else a faster run would look fatter
    values = {"ops_per_s": len(whole) / sum(waited),
              "cpu_s_per_kop": (cpu1 - cpu0) * stretch / (ops1 - ops0) * 1000.0,
              "peak_rss_mb": marks[min(RSS_BLOCKS, len(marks) - 1)][2],
              "setup_s": statistics.median(seconds(a, b) for a, b in setups)}
    samples = {}
    for cls, quantiles in (("query", (50, 95)), ("exec", (50, 95)),
                           ("checkpoint", (50,))):
        ms = [w * 1000.0 for e, w in zip(whole, waited)
              if e.op.cls == cls and e.error is None]
        for q in quantiles:
            key = "{}_p{}_ms".format(cls, q)
            samples[key] = len(ms)
            if ms:
                values[key] = percentile(ms, q)
    return values, samples


# -- printing -----------------------------------------------------------------

def environment(spec, seed, scale):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return ("nproc={} python={} numpy={} commit={} scale={} "
            "op-stream blake2b={}".format(
                os.cpu_count(), platform.python_version(), numpy_version,
                commit or "unknown", scale, wl.stream_hash(spec, seed, scale)))


def report_traced(spec, seed, scale, work, declared):
    """Run the traced pass; every declared per-layer metric gets a row:
    a value, or ``None`` and the reason it is not applicable."""
    traced = layers.Traced(spec, seed, scale, work).run()
    os.makedirs(RESULTS, exist_ok=True)
    traced.rec.write_jsonl(
        os.path.join(RESULTS, "trace-{}.jsonl".format(spec.name)))
    unknown = set(traced.metrics) - {e["name"] for e in declared["per_layer"]}
    if unknown:
        raise RuntimeError("undeclared per-layer metrics: {}".format(
            sorted(unknown)))
    report = {}
    for entry in declared["per_layer"]:
        name = entry["name"]
        row = report[name] = {"value": traced.metrics.get(name),
                              "unit": entry["unit"]}
        if row["value"] is None:
            row["na"] = traced.not_applicable(name)
    return {"attempted": traced.attempted, "failures": traced.failures}, report


def report_untraced(spec, args, scale, work):
    """Run untraced; every one of the issue's metrics gets a row."""
    outcome = untraced(spec, args.seed, args.seconds, scale, work,
                       corrupt=args.corrupt_answer)
    report = {}
    for name, unit, _ in REPORTED:
        row = report[name] = {"value": outcome["values"].get(name),
                              "unit": unit}
        if row["value"] is None:
            row["na"] = NOT_APPLICABLE[name]
        if name in outcome["samples"]:
            row["n"] = outcome["samples"][name]
        if outcome["raw"].get(name, row["value"]) != row["value"]:
            row["raw"] = outcome["raw"][name]
    return outcome, report


def run_one(args, spec, work):
    scale = "smoke" if args.smoke else "full"
    print("# {} seed={} seconds={} trace={}".format(
        spec.name, args.seed, args.seconds, args.trace))
    print("# " + environment(spec, args.seed, scale))
    print("# why: " + spec.why)
    declared = contract()
    if args.trace:
        outcome, report = report_traced(spec, args.seed, scale, work, declared)
        gated = declared["per_layer"]
    else:
        outcome, report = report_untraced(spec, args, scale, work)
        gated = declared["end_to_end"]
    bounds = {e["name"]: e.get("bound") for e in gated}
    for name, row in report.items():
        shown = ("n/a ({})".format(row["na"]) if row["value"] is None
                 else "{:.6g} {}".format(row["value"], row["unit"]))
        if "n" in row:
            shown += "  n={}".format(row["n"])
        if "raw" in row:
            shown += "  (raw {:.6g})".format(row["raw"])
        if bounds.get(name) is not None:
            shown += "  [gated, bound {:.0%}]".format(bounds[name])
        print("{:<40} {}".format(name, shown))
    for note in outcome.get("notes", ()):
        print("# " + note)
    for failure in outcome["failures"][:20]:
        print("FAILED " + failure)
    print(REPORT_MARK + json.dumps(report))
    metrics = {}
    for entry in gated:
        value = report[entry["name"]]["value"]
        if value is None:
            if not args.trace:
                raise RuntimeError("gated metric {} has no value on {}".format(
                    entry["name"], spec.name))
            # the contract's line holds numbers only; the report line
            # above and `Traced.not_applicable` say which zeros are n/a
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({  # the contract's last line
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": metrics,
    }))
    return 1 if outcome["failures"] else 0


# -- repeats ------------------------------------------------------------------

def run_repeats(args, names):
    """Each run in its own process (as the driver runs them): one seed
    per repeat, then median, quartiles and spread per metric.  A spread
    above the metric's bound (BENCHMARK.json's for a gated metric, the
    issue's for the rest) is flagged UNRESOLVED."""
    declared = contract()
    bounds = {name: bound for name, _, bound in REPORTED if not args.trace}
    bounds.update((e["name"], e["bound"]) for e in declared["end_to_end"]
                  if not args.trace)
    summary, status = {}, 0
    for name in names:
        runs = []
        for repeat in range(args.repeat):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed + repeat),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            command += ["--smoke"] * args.smoke
            command += ["--corrupt-answer"] * args.corrupt_answer
            done = subprocess.run(command, capture_output=True, text=True)
            if args.repeat == 1:
                sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                status = 1
                continue
            runs.append(json.loads(next(
                line for line in reversed(done.stdout.splitlines())
                if line.startswith(REPORT_MARK))[len(REPORT_MARK):]))
        if args.repeat == 1 or not runs:
            continue
        summary[name] = {}
        print("# {}: {} runs, seeds {}..{}".format(
            name, len(runs), args.seed, args.seed + args.repeat - 1))
        for metric, first in runs[0].items():
            values = [run[metric]["value"] for run in runs
                      if run[metric]["value"] is not None]
            if not values:  # no reading to take a spread of
                summary[name][metric] = {"na": first["na"]}
                print("{:<40} n/a ({})".format(metric, first["na"]))
                continue
            stats = summary[name][metric] = spread(values)
            stats["runs"] = values  # one per seed, in order
            bound = bounds.get(metric)
            stats["unresolved"] = bound is not None and stats["spread"] > bound
            shown = ("{:<40} median {:<12.6g} q1 {:<12.6g} q3 {:<12.6g} "
                     "spread {:6.2%}".format(
                         metric, stats["median"], stats["q1"], stats["q3"],
                         stats["spread"]))
            if all("raw" in run[metric] for run in runs):
                # the same runs before the host clock's correction
                raws = [run[metric]["raw"] for run in runs]
                stats["raw"] = dict(spread(raws), runs=raws)
                shown += "  (raw median {:.6g} spread {:.2%})".format(
                    stats["raw"]["median"], stats["raw"]["spread"])
            if stats["unresolved"]:
                shown += "  UNRESOLVED (bound {:.0%})".format(bound)
            print(shown)
    if args.out and summary:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "repeat": args.repeat,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": summary}, f, indent=1, sort_keys=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "BENCHMARK.json's run_seconds, 1.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, one seed each")
    parser.add_argument("--smoke", action="store_true",
                        help="small data, for a quick check")
    parser.add_argument("--out", help="with --repeat: write the spreads here")
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="self-test: spoil one recorded answer before "
                             "the oracle runs; the command must then fail")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(contract()["run_seconds"])
    if args.workload and args.repeat == 1:
        with harness.workdir() as work:
            return run_one(args, wl.WORKLOADS[args.workload], work)
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    return run_repeats(args, names)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes place dict and set entries, and with them the
        # speed of a run; one fixed seed takes that out of the spread
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())

"""Diff two ``BENCH_<name>.json`` result files.

Usage::

    python benchmarks/compare.py benchmarks/results/BENCH_wco.json /tmp/BENCH_wco.json

Prints, per benchmark test, the old/new mean wall time and the relative
change, followed by the engine counter deltas and the histogram
quantile shifts (p50/p90/p99 per recorded distribution) — so a perf PR
can show in one screen both *how much* a workload moved and *why*
(index hits gained, seeks avoided, latency tail widened).

Exit status is 0 unless ``--fail-above PCT`` is given and some test's
mean wall time regressed by more than ``PCT`` percent.

Single-artifact mode::

    python benchmarks/compare.py --require-speedup 5 benchmarks/results/BENCH_wco.json

scans one result file for backend comparison entries (``extra_info``
carrying ``pure_s``/``columnar_s``) and exits 1 unless the best
recorded columnar-vs-pure speedup reaches the given factor — the CI
gate for the vectorized engine backend.
"""

import argparse
import json
import sys


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _mean_by_test(payload):
    means = {}
    for entry in payload.get("results", ()):
        mean = (entry.get("wall_time_s") or {}).get("mean")
        if mean is not None:
            means[entry["test"]] = mean
    return means


def _flat_counters(payload):
    """The scalar engine counters (nested snapshots like ``columnar``
    and per-key histogram dicts are skipped — they are not deltas)."""
    flat = {}
    for key, value in (payload.get("engine_stats") or {}).items():
        if isinstance(value, (int, float)):
            flat[key] = value
    return flat


def compare(old_payload, new_payload, out=sys.stdout):
    """Render the diff; returns the worst wall-time regression in %."""
    old_means = _mean_by_test(old_payload)
    new_means = _mean_by_test(new_payload)
    worst = 0.0
    print("== wall time (mean per round) ==", file=out)
    for test in sorted(set(old_means) | set(new_means)):
        old = old_means.get(test)
        new = new_means.get(test)
        if old is None or new is None:
            status = "added" if old is None else "removed"
            known = new if old is None else old
            print("  {:<60} {:>10.4f}s  ({})".format(test, known, status),
                  file=out)
            continue
        change = (new - old) / old * 100.0 if old else 0.0
        worst = max(worst, change)
        print("  {:<60} {:>10.4f}s -> {:>10.4f}s  {:>+7.1f}%".format(
            test, old, new, change), file=out)
    old_counters = _flat_counters(old_payload)
    new_counters = _flat_counters(new_payload)
    keys = sorted(set(old_counters) | set(new_counters))
    if keys:
        print("== engine counters ==", file=out)
        for key in keys:
            old = old_counters.get(key, 0)
            new = new_counters.get(key, 0)
            if old == new:
                continue
            print("  {:<40} {:>14} -> {:>14}  ({:+})".format(
                key, old, new, new - old), file=out)
    _compare_quantiles(old_payload, new_payload, out)
    return worst


def _quantile_rows(payload):
    """``{histogram name: {quantile label: value}}`` for artifacts that
    recorded histogram quantiles (older artifacts simply lack them)."""
    rows = {}
    for name, entry in (payload.get("histograms") or {}).items():
        if not isinstance(entry, dict):
            continue
        quantiles = {label: value for label, value in entry.items()
                     if label.startswith("p") and
                     isinstance(value, (int, float))}
        if quantiles:
            rows[name] = quantiles
    return rows


def _compare_quantiles(old_payload, new_payload, out=sys.stdout):
    """Diff per-histogram p50/p90/p99 between two artifacts."""
    old_rows = _quantile_rows(old_payload)
    new_rows = _quantile_rows(new_payload)
    names = sorted(set(old_rows) | set(new_rows))
    if not names:
        return
    print("== histogram quantiles ==", file=out)
    for name in names:
        old = old_rows.get(name)
        new = new_rows.get(name)
        if old is None or new is None:
            print("  {:<40} ({})".format(
                name, "added" if old is None else "removed"), file=out)
            continue
        cells = []
        for label in sorted(set(old) | set(new),
                            key=lambda lbl: float(lbl[1:])):
            before, after = old.get(label), new.get(label)
            if before is None or after is None:
                continue
            change = (after - before) / before * 100.0 if before else 0.0
            cells.append("{} {:.4g}->{:.4g} ({:+.0f}%)".format(
                label, before, after, change))
        print("  {:<40} {}".format(name, "  ".join(cells)), file=out)


def check_speedup(payload, required, out=sys.stdout):
    """Scan backend comparison entries; returns the best speedup found
    (``None`` when the artifact has no such entries)."""
    best = None
    for entry in payload.get("results", ()):
        extra = entry.get("extra_info") or {}
        pure = extra.get("pure_s")
        fast = extra.get("columnar_s")
        if not pure or not fast:
            continue
        speedup = pure / fast
        print("  {:<60} {:>6.1f}x  (pure {:.4f}s -> columnar {:.4f}s)".format(
            entry["test"], speedup, pure, fast), file=out)
        best = speedup if best is None else max(best, speedup)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_<name>.json")
    parser.add_argument(
        "new", nargs="?", default=None,
        help="candidate BENCH_<name>.json (omit for --require-speedup "
             "single-artifact mode)",
    )
    parser.add_argument(
        "--fail-above", type=float, default=None, metavar="PCT",
        help="exit 1 if any test's mean wall time regressed more than PCT%%",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="N",
        help="exit 1 unless a backend comparison entry in the (new, or "
             "only) artifact records a columnar-vs-pure speedup >= N",
    )
    args = parser.parse_args(argv)
    if args.new is None and args.require_speedup is None:
        parser.error("two artifacts are required unless --require-speedup "
                     "is given")
    worst = 0.0
    if args.new is not None:
        worst = compare(_load(args.old), _load(args.new))
    if args.require_speedup is not None:
        payload = _load(args.new if args.new is not None else args.old)
        print("== columnar vs pure ==")
        best = check_speedup(payload, args.require_speedup)
        if best is None:
            print("FAIL: no backend comparison entries "
                  "(extra_info.pure_s/columnar_s) in artifact",
                  file=sys.stderr)
            return 1
        if best < args.require_speedup:
            print("FAIL: best speedup {:.1f}x below required {:.1f}x".format(
                best, args.require_speedup), file=sys.stderr)
            return 1
    if args.fail_above is not None and worst > args.fail_above:
        print("FAIL: worst regression {:+.1f}% exceeds {:.1f}%".format(
            worst, args.fail_above), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.obs top HOST:PORT`` — a live terminal view.

Polls a server's ``telemetry`` wire verb (served straight from the
snapshot ring and stats sinks, never touching the committer) and
renders a compact dashboard: commit/abort throughput derived from
successive counter snapshots, the hottest counters, histogram
quantiles, and the tail of the slow-transaction log.

Pure stdlib — ANSI clear-screen between refreshes, ``--once`` for a
single non-interactive snapshot (CI smoke and tests use that).
"""

import sys
import time

_CLEAR = "\x1b[2J\x1b[H"

#: Counters whose per-second rate headlines the dashboard.
_RATE_KEYS = (
    ("service.commits", "commits/s"),
    ("repair.corrects", "conflicts/s"),
    ("net.requests", "requests/s"),
    ("join.seeks", "seeks/s"),
    ("join.vector_seeks", "vseeks/s"),
)


def _fmt_num(value):
    if isinstance(value, float):
        return "{:.4g}".format(value)
    if isinstance(value, int) and value >= 1_000_000:
        return "{:.2f}M".format(value / 1_000_000)
    if isinstance(value, int) and value >= 10_000:
        return "{:.1f}k".format(value / 1_000)
    return str(value)


def render(snapshot, previous=None, width=78, top_n=14):
    """Render one telemetry snapshot (optionally diffed against the
    previous poll for rates) as a text block."""
    lines = []
    ts = snapshot.get("ts", 0.0)
    pid = snapshot.get("pid")
    lines.append("repro top — pid {}  {}".format(
        pid, time.strftime("%H:%M:%S", time.localtime(ts))))
    counters = snapshot.get("counters") or {}

    if previous is not None:
        dt = max(1e-9, ts - (previous.get("ts") or 0.0))
        prev_counters = previous.get("counters") or {}
        rates = []
        for key, label in _RATE_KEYS:
            if key in counters or key in prev_counters:
                rate = (counters.get(key, 0) - prev_counters.get(key, 0)) / dt
                rates.append("{} {:.1f}".format(label, rate))
        if rates:
            lines.append("  " + "   ".join(rates))

    gauges = snapshot.get("gauges") or {}
    if gauges:
        lines.append("gauges:")
        for key in sorted(gauges):
            lines.append("  {:<44} {:>12}".format(key, _fmt_num(gauges[key])))

    lines.append("counters (top {} by value):".format(top_n))
    hottest = sorted(counters.items(), key=lambda kv: -kv[1])[:top_n]
    for key, value in hottest:
        lines.append("  {:<44} {:>12}".format(key, _fmt_num(value)))

    histograms = snapshot.get("histograms") or {}
    if histograms:
        lines.append("histograms (p50 / p90 / p99 / count):")
        for key in sorted(histograms):
            hist = histograms[key]
            lines.append("  {:<34} {:>9} {:>9} {:>9} {:>8}".format(
                key[:34], _fmt_num(hist.get("p50")), _fmt_num(hist.get("p90")),
                _fmt_num(hist.get("p99")), hist.get("count", 0)))

    slow = snapshot.get("slow_txns") or ()
    if slow:
        lines.append("slow transactions (latest {}):".format(min(5, len(slow))))
        for entry in slow[-5:]:
            lines.append("  {:<10} {:<20} {:>9.1f}ms  trace={}".format(
                entry.get("kind", "?"), str(entry.get("name"))[:20],
                (entry.get("latency_s") or 0.0) * 1000.0,
                entry.get("trace")))

    ring = snapshot.get("ring") or ()
    if ring:
        lines.append("ring: {} snapshots retained (seq {}..{})".format(
            len(ring), ring[0].get("seq"), ring[-1].get("seq")))
    return "\n".join(line[:width] for line in lines)


def main(argv=None, out=None):
    """CLI: ``top HOST:PORT [--interval S] [--once] [-n ROUNDS]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out if out is not None else sys.stdout
    if not argv or ":" not in argv[0]:
        print("usage: python -m repro.obs top HOST:PORT "
              "[--interval S] [--once] [-n ROUNDS]", file=sys.stderr)
        return 2
    host, _, port = argv[0].partition(":")
    interval = 2.0
    rounds = None
    if "--interval" in argv:
        interval = float(argv[argv.index("--interval") + 1])
    if "-n" in argv:
        rounds = int(argv[argv.index("-n") + 1])
    if "--once" in argv:
        rounds = 1

    from repro.net import NetSession

    previous = None
    done = 0
    try:
        with NetSession(host, int(port)) as session:
            while True:
                snapshot = session.telemetry(ring_tail=8)
                if done or rounds != 1:
                    print(_CLEAR, end="", file=out)
                print(render(snapshot, previous), file=out)
                previous = snapshot
                done += 1
                if rounds is not None and done >= rounds:
                    break
                time.sleep(interval)
    except BrokenPipeError:  # ``top ... | head`` closed the pipe
        try:
            sys.stdout.close()
        except OSError:
            pass
    return 0

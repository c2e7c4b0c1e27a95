"""Service soak demo: ``python -m repro.service [--writers N] [--txns M]``.

Spins up a service over an inventory workspace, drives N concurrent
writer threads each committing M low-conflict decrements (plus a
lock-free reader thread), then prints the committed state, the service
counters, and throughput.  CI runs this under ``REPRO_TRACE=1`` as the
stress smoke for the concurrent path.

With ``--net HOST:PORT`` the soak becomes a pure network client: the
same writer/reader threads drive a *remote* repro server (started with
``python -m repro.net.server``) through ``repro.connect("tcp://...")``,
exercising the wire protocol under the exact workload the in-process
smoke uses — same sessions, same verbs, same drain check.

With ``--cluster EP1,EP2,...`` every thread opens a
:class:`~repro.net.cluster.ClusterSession` instead: writes route to
the leader, reads fan out across the replica fleet with session
consistency enforced from the commit-watermark stamps — the mixed
read/write soak CI runs against a live 1-leader + N-replica fleet.

With ``--connections N`` the soak additionally opens N idle sessions
and holds them while the writers hammer: the high-connection-count
smoke (CI holds 500 against a ``--max-connections`` raised server),
asserting every held connection still answers afterwards, that
closing them returns the process to its starting FD count, and (over
``--net``) that the server's ``net.connections`` gauge falls back to
the admin session alone within 5 s.
"""

import argparse
import json
import os
import sys
import threading
import time

from repro.service import TransactionService, ServiceConfig

INVENTORY = "inventory[s] = v -> string(s), int(v).\n" \
            "inventory[s] = v -> v >= 0.\n"


def _open_fds():
    """Count of open file descriptors (0 where /proc is unavailable)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


def _server_connections(session):
    """The server's ``net.connections`` gauge, read over the wire."""
    return session.telemetry(ring_tail=0)["gauges"].get("net.connections", 0)


def soak(writers=4, txns=20, items=32, out=sys.stdout, net=None,
         cluster=None, readers=1, connections=0):
    """Run the soak; returns (service stats, commits/sec, drained ok).

    The inventory has a fixed ``items``-sized pool regardless of writer
    count (so per-commit costs like constraint checking are identical
    across configurations); writer ``w`` owns the slice ``w::writers``,
    keeping writers conflict-free.

    ``net=(host, port)`` drives a remote server over TCP instead of an
    in-process service; ``cluster=[endpoint, ...]`` drives a replica
    fleet through the cluster client; everything else is identical.

    ``connections=N`` additionally opens and *holds* N idle sessions
    for the soak's whole duration — the high-connection-count smoke.
    Every held session must still answer a read when the writers
    finish (no connection starved out by the busy ones), and in net
    mode closing them must return the process to its pre-open file
    descriptor count (no FD leak) and bring the server's
    ``net.connections`` gauge back to 1 within 5 s (no connection
    thread leak); any failure fails the soak.
    """
    if cluster is not None:
        from repro.net.cluster import ClusterSession

        service = None

        def make_session(name):
            return ClusterSession(cluster, name=name)
    elif net is not None:
        from repro.net import NetSession
        host, port = net
        service = None

        def make_session(name):
            return NetSession(host, port, name=name)
    else:
        service = TransactionService(
            config=ServiceConfig(max_pending=writers * 2))

        def make_session(name):
            return service.session(name=name)

    admin = make_session("soak-admin")  # same verbs on every transport
    try:
        admin.addblock(INVENTORY, name="inventory")
        pool = ["item-{}".format(i) for i in range(items)]
        admin.load("inventory", [(item, txns) for item in pool])

        fds_before = _open_fds()
        held = [
            make_session("hold-{}".format(i)) for i in range(connections)]
        if held:
            print("holding {} idle connections".format(len(held)), file=out)

        errors = []
        decrements = {item: 0 for item in pool}

        def writer(index):
            session = make_session("writer-{}".format(index))
            owned = pool[index::writers]
            for k in range(txns):
                item = owned[k % len(owned)]
                try:
                    session.exec(
                        '^inventory["{0}"] = x <- '
                        'inventory@start["{0}"] = y, x = y - 1.'.format(item))
                except Exception as exc:  # surface, keep soaking
                    errors.append(exc)
            session.close()

        for index in range(writers):
            owned = pool[index::writers]
            for k in range(txns):
                decrements[owned[k % len(owned)]] += 1

        def reader(index, stop):
            session = make_session("reader-{}".format(index))
            while not stop.is_set():
                session.query("_(s, v) <- inventory[s] = v.")
                time.sleep(0.001)
            session.close()

        stop = threading.Event()
        reader_threads = [
            threading.Thread(target=reader, args=(r, stop), daemon=True)
            for r in range(max(1, readers))
        ]
        started = time.perf_counter()
        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ]
        for thread in reader_threads:
            thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stop.set()
        for thread in reader_threads:
            thread.join()

        stats = admin.stats()
        throughput = (writers * txns) / elapsed if elapsed else 0.0
        where = ""
        if cluster is not None:
            where = " (over cluster {})".format(",".join(cluster))
        elif net is not None:
            where = " (over TCP {}:{})".format(*net)
        print("soak: {} writers x {} txns in {:.3f}s -> {:.1f} commits/s{}".format(
            writers, txns, elapsed, throughput, where), file=out)
        print(json.dumps(
            {k: v for k, v in sorted(stats.items())
             if k.startswith(("service.", "net."))
             or k in ("committed", "in_flight", "queued")},
            indent=2, default=repr), file=out)
        if errors:
            print("errors: {}".format([repr(e) for e in errors[:3]]), file=out)
            return stats, throughput, False
        remaining = dict(admin.rows("inventory"))
        drained = all(
            remaining[item] == txns - decrements[item] for item in pool
        )
        print("inventory drained correctly: {}".format(drained), file=out)
        if held:
            # every held connection must still serve a read after the
            # storm, and closing them must give the FDs back
            dead = 0
            probe_started = time.perf_counter()
            for session in held:
                try:
                    session.rows("inventory")
                except Exception:  # noqa: BLE001 - counted below
                    dead += 1
            probe_s = time.perf_counter() - probe_started
            for session in held:
                try:
                    session.close()
                except Exception:  # noqa: BLE001 - close is best-effort
                    pass
            fds_after = _open_fds()
            leaked = (
                fds_before and fds_after > fds_before + 8)  # slack for pools
            print(
                "held connections: {} alive / {} dead, probed in {:.3f}s, "
                "fds {} -> {}{}".format(
                    len(held) - dead, dead, probe_s, fds_before, fds_after,
                    " (LEAK)" if leaked else ""), file=out)
            drained = drained and dead == 0 and not leaked
            if net is not None:
                # a server connection is a thread: every closed session
                # must give its thread back (only admin stays connected)
                open_conns = _server_connections(admin)
                deadline = time.monotonic() + 5.0
                while open_conns > 1 and time.monotonic() < deadline:
                    time.sleep(0.05)
                    open_conns = _server_connections(admin)
                print("server connections after close: {}{}".format(
                    open_conns, " (LEAK)" if open_conns > 1 else ""),
                    file=out)
                drained = drained and open_conns <= 1
        return stats, throughput, drained
    finally:
        admin.close()
        if service is not None:
            service.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--writers", type=int, default=4)
    parser.add_argument("--txns", type=int, default=20)
    parser.add_argument(
        "--net", metavar="HOST:PORT", default=None,
        help="drive a remote repro server over TCP instead of an "
             "in-process service")
    parser.add_argument(
        "--cluster", metavar="EP1,EP2,...", default=None,
        help="drive a leader + replica fleet through the cluster "
             "client (comma-separated host:port endpoints)")
    parser.add_argument(
        "--readers", type=int, default=1,
        help="concurrent reader threads (each a full session)")
    parser.add_argument(
        "--connections", type=int, default=0,
        help="idle sessions to open and hold for the soak's duration; "
             "each must still answer a read afterwards and (in net "
             "mode) closing them must not leak file descriptors")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream client-side span trees to this JSONL file; with "
             "--net each root is a stitched distributed trace carrying "
             "the server's subtree")
    args = parser.parse_args(argv)
    net = None
    if args.net:
        host, _, port = args.net.rpartition(":")
        net = (host or "127.0.0.1", int(port))
    if args.trace:
        from repro import obs as _obs

        _obs.trace_to(args.trace)
    cluster = None
    if args.cluster:
        cluster = [e.strip() for e in args.cluster.split(",") if e.strip()]
    try:
        _, _, ok = soak(writers=args.writers, txns=args.txns, net=net,
                        cluster=cluster, readers=args.readers,
                        connections=args.connections)
    finally:
        if args.trace:
            _obs.trace_file_off()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Old server / new client, new server / old client: same wire.

CI's network job runs::

    git archive <previous-commit> | tar -x -C ci-net/previous
    python tools/check_wire_compat.py --other-src ci-net/previous/src

which starts a ``python -m repro.net`` server from one source tree and
drives it with a :class:`NetSession` imported from the other, in both
directions, through ``addblock`` / ``load`` / ``exec`` / ``query``
(inline and chunked) / ``rows`` / ``checkpoint`` / ``stats`` /
``status`` / ``ping`` / ``removeblock``.  ``PROTOCOL_VERSION`` has not
moved, so neither side may notice which tree the other came from.
Exits non-zero on the first failure.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

CLIENT = r'''
import sys
import repro

with repro.connect("tcp://127.0.0.1:" + sys.argv[1]) as s:
    s.addblock("kv[k] = v -> int(k), int(v).", name="kv")
    assert s.load("kv", [(i, i) for i in range(3000)]).committed
    result = s.exec("^kv[1] = 11.")
    assert result.committed, result
    assert sorted(result.deltas["kv"].added) == [(1, 11)], result
    assert s.query("_(v) <- kv[1] = v.") == [(11,)]
    assert len(s.query("_(k, v) <- kv[k] = v.")) == 3000  # CHUNK frames
    assert s.query_result("_(v) <- kv[2] = v.").rows == [(2,)]
    assert len(s.rows("kv")) == 3000
    assert s.checkpoint()["seq"] >= 1
    assert s.stats()["committed"] >= 1
    assert s.status()["role"] == "leader"
    assert s.ping() < 5.0
    assert s.removeblock("kv").block == "kv"
'''


def _env(src):
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def serve_and_drive(server_src, client_src, workdir):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.net", "--port", "0",
         "--checkpoint-path", os.path.join(workdir, "checkpoint")],
        env=_env(server_src), stdout=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline()  # "repro.net serving on host:port"
        port = banner.strip().rsplit(":", 1)[1]
        done = subprocess.run(
            [sys.executable, "-c", CLIENT, port], env=_env(client_src),
            capture_output=True, text=True, timeout=120)
        if done.returncode:
            sys.stderr.write(done.stdout + done.stderr)
        return done.returncode == 0
    finally:
        server.terminate()
        try:
            server.wait(10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other-src", required=True,
                        help="src/ directory of the other revision")
    args = parser.parse_args(argv)
    ok = True
    for server_src, client_src in ((args.other_src, HERE), (HERE, args.other_src)):
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            passed = serve_and_drive(server_src, client_src, workdir)
        print("server {} <- client {}: {} ({:.1f}s)".format(
            os.path.relpath(server_src), os.path.relpath(client_src),
            "ok" if passed else "FAILED", time.perf_counter() - started))
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

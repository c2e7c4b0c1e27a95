"""Processes, transports and the closed-loop driver.

A :class:`Target` is one freshly built instance of a workload's data
behind one rung of the transport ladder (``workspace`` → ``session`` →
``tcp`` → ``shards``).  Servers are ``python -m repro.net``
subprocesses on ephemeral ports; every target tears its servers and
directories down in ``close()``, and :func:`workdir` removes whatever
is left on any exit path.
"""

import contextlib
import os
import resource
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

import repro
from repro.runtime.errors import ReproError
from repro.runtime.workspace import Workspace

from workloads import N_SHARDS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
READY_TIMEOUT_S = 30.0
_TICKS = os.sysconf("SC_CLK_TCK")


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the benchmark's own tree, removed on
    any exit path (SIGTERM, SIGINT and SIGHUP are turned into exits so
    that ``finally`` blocks — and with them server teardown — run)."""
    def bail(signum, frame):
        raise SystemExit(128 + signum)

    previous = {s: signal.signal(s, bail)
                for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    root = os.path.join(HERE, ".work")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(root)
        for signum, handler in previous.items():
            signal.signal(signum, handler)


# -- server subprocesses ------------------------------------------------------

def server_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TRACE", "REPRO_ENGINE")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # as in run.py: one layout for every run
    return env


class Server:
    """One ``python -m repro.net`` subprocess on an ephemeral port."""

    def __init__(self, log_path, *args):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net", "--port", "0", *args],
            env=server_env(), stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self):
        """The server prints its address once it listens; then probe the
        port until a connection is accepted."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro.net server did not come up")
            if select.select([self.proc.stdout], [], [], min(left, 0.2))[0]:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("repro.net server closed its output")
                line += chunk
        port = int(line.split(b"\n")[0].rsplit(b":", 1)[1])
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), 0.5).close()
                return port
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro.net port never accepted")
                time.sleep(0.02)

    @property
    def endpoint(self):
        return "127.0.0.1:{}".format(self.port)

    def cpu_s(self):
        with open("/proc/{}/stat".format(self.proc.pid)) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self):
        with open("/proc/{}/status".format(self.proc.pid)) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- targets ------------------------------------------------------------------

class Target:
    """One instance of a workload's data behind one transport."""

    def __init__(self, rung, session, servers, checkpoint_dir):
        self.rung = rung
        self.session = session
        self.servers = servers
        self.checkpoint_dir = checkpoint_dir

    def call(self, op):
        """Send one op and return its answer (rows for a query)."""
        if op.cls == "query":
            return self.session.query(op.text)
        if op.cls == "exec":
            return self.session.exec(op.text)
        if self.rung == "workspace":
            return self.session.checkpoint(self.checkpoint_dir)
        return self.session.checkpoint()

    def cpu_s(self):
        return time.process_time() + sum(s.cpu_s() for s in self.servers)

    def peak_rss_mb(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + sum(s.peak_rss_mb() for s in self.servers)

    def close(self):
        try:
            if hasattr(self.session, "close"):
                self.session.close()
        finally:
            for server in self.servers:
                server.stop()


def open_target(spec, data, rung, root):
    """Build a fresh target: start servers, install blocks, load."""
    os.makedirs(root)
    ckpt = os.path.join(root, "ckpt") if spec.checkpoints else None
    servers = []
    try:
        if rung == "workspace":
            session = Workspace()
        elif rung == "session":
            session = (repro.connect(checkpoint_path=ckpt) if ckpt
                       else repro.connect())
        elif rung == "tcp":
            args = ("--checkpoint-path", ckpt) if ckpt else ()
            servers.append(Server(os.path.join(root, "server.log"), *args))
            session = repro.connect("tcp://" + servers[0].endpoint)
        else:
            for index in range(N_SHARDS):
                servers.append(Server(
                    os.path.join(root, "shard-{}.log".format(index)),
                    "--shard-index", str(index),
                    "--shard-count", str(N_SHARDS)))
            session = repro.connect(
                "shards://" + ",".join(s.endpoint for s in servers),
                partition=dict(data.partition))
        target = Target(rung, session, servers, ckpt)
    except BaseException:
        for server in servers:
            server.stop()
        raise
    try:
        install(target.session, data)
    except BaseException:
        target.close()
        raise
    return target


def install(session, data):
    """Schema, bulk loads, then the views: installed after the load they
    cost one full evaluation, not one maintenance pass per batch."""
    session.addblock(data.schema, name="schema")
    for pred, rows in data.loads:
        session.load(pred, rows)
    if data.views:
        session.addblock(data.views, name="views")


# -- the closed-loop driver ---------------------------------------------------

class Entry:
    """One executed op: what was sent, when, and what came back."""

    __slots__ = ("op", "ordinal", "t0", "t1", "result", "error")

    def __init__(self, op, ordinal, t0, t1, result, error):
        self.op, self.ordinal = op, ordinal
        self.t0, self.t1 = t0, t1
        self.result, self.error = result, error

    @property
    def ms(self):
        return (self.t1 - self.t0) * 1000.0


def drive(target, ops, log, *, deadline=None, recorder=None, clock=None,
          first_ordinal=0, every=None):
    """Closed loop: send the next op when the previous reply has
    arrived, until ``ops`` runs out or ``deadline`` passes.
    ``every=(n, fn)`` calls ``fn()`` after every ``n``-th op; ``clock``
    (a :class:`hostclock.HostClock`) samples the host between ops."""
    ordinal = first_ordinal
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        result = error = None
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = target.call(op)
            else:
                with recorder.span("op." + op.kind, op=ordinal):
                    with recorder.span("call." + target.rung):
                        result = target.call(op)
        except ReproError as exc:
            error = exc
        t1 = time.perf_counter()
        log.append(Entry(op, ordinal, t0, t1, result, error))
        ordinal += 1
        if clock is not None:
            clock.tick(t1)
        if every is not None and (ordinal - first_ordinal) % every[0] == 0:
            every[1]()
    return ordinal

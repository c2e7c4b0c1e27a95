"""A checkpoint written by one source tree opens in the other.

CI's durability job runs::

    git archive <previous-commit> src | tar -x -C ci-ckpt/previous
    python tools/check_checkpoint_compat.py --other-src ci-ckpt/previous/src

which, in both directions, checkpoints a workspace of views (a
triangle join, a two-hop join whose heads can have several
derivations, an aggregate, a constant-anchored rule and a constraint)
from one tree, opens it from the other, and compares every relation's
rows, once opened and after each of three maintained writes.  When
both trees write the same checkpoint format, each also runs the same
workload on its own and checkpoints after every stage, and the two
must give equal root addresses (base and derived relations, support
counts, aggregate groups) at each.  The
writes take a two-hop head from one derivation to two and back, and
delete and re-insert an edge, so support counts a checkpoint stored
are read and dropped again.  A reader whose checkpoint format is
older than the writer's must refuse the checkpoint with its
``unsupported checkpoint format`` error instead.  Exits non-zero on
the first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

PREDS = ("E", "tri", "reach2", "outdeg", "from3", "score")

WRITE = r'''
import sys
from repro import Workspace
ws = Workspace()
ws.addblock("""
E(x, y) -> int(x), int(y).
score[x] = v -> int(x), int(v).
score[x] = v -> v >= 0.
tri(a, b, c) <- E(a, b), E(b, c), E(a, c), a < b, b < c.
reach2(a, c) <- E(a, b), E(b, c).
outdeg[a] = n <- agg<<n = count(b)>> E(a, b).
from3(b) <- E(3, b).
""", name="views")
ws.load("E", [(i, (i + step) % 60) for i in range(60) for step in (1, 2, 5)])
ws.load("score", [(i, i * 2) for i in range(40)])
ws.exec("-E(5, 6). ^score[7] = 1.")
ws.checkpoint(sys.argv[1])
'''

# reach2(3, 13) goes from one derivation (via 8) to two (via 11) and
# back; deleting E(21, 22) leaves reach2(20, 22) without one
WRITES = ("+E(3, 11). ^score[8] = 3.", "-E(3, 11). -E(21, 22).", "+E(21, 22).")

READ = r'''
import json, sys
from repro import Workspace
ws = Workspace.open(sys.argv[1])
stages = [{p: ws.rows(p) for p in sys.argv[2:]}]
for text in %r:
    ws.exec(text)
    stages.append({p: ws.rows(p) for p in sys.argv[2:]})
print(json.dumps(stages))
''' % (WRITES,)

# the root addresses of the head state WRITE checkpoints, and of the
# one after each of WRITES, checkpointed into the same directory
ADDRESSES = WRITE + r'''
import json, os

def head():
    with open(os.path.join(sys.argv[1], "MANIFEST.json")) as fh:
        manifest = json.load(fh)
    state = manifest["states"][str(manifest["branches"]["main"])]
    return {key: state[key] for key in ("base", "relations", "pred_states")}

stages = [head()]
for text in %r:
    ws.exec(text)
    ws.checkpoint(sys.argv[1])
    stages.append(head())
print(json.dumps(stages))
''' % (WRITES,)

FORMAT = "from repro.storage.pager import FORMAT_VERSION; print(FORMAT_VERSION)"

STAGES = ("opened", "after an insert", "after a delete", "after a re-insert")


def _run(src, script, *args, refusal=None):
    """``script``'s stdout, or ``None`` when it fails — unless its
    stderr carries ``refusal``, the failure expected of it."""
    done = subprocess.run(
        [sys.executable, "-c", script] + list(args),
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True, text=True, timeout=300)
    if refusal is not None and done.returncode and refusal in done.stderr:
        return refusal
    if done.returncode or refusal is not None:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return done.stdout


def write_and_open(writer_src, reader_src, workdir):
    """Rows ``reader_src`` reads from a checkpoint ``writer_src`` wrote
    must be the ones ``writer_src`` reads back (opening writes nothing,
    so both open the same directory).  A reader of an older format
    must refuse it instead."""
    path = os.path.join(workdir, "checkpoint")
    if _run(writer_src, WRITE, path) is None:
        return False
    written, readable = (int(_run(src, FORMAT) or 0) for src in (writer_src, reader_src))
    if written > readable:
        refusal = "unsupported checkpoint format {}".format(written)
        return _run(reader_src, READ, path, *PREDS, refusal=refusal) == refusal
    own = _run(writer_src, READ, path, *PREDS)
    other = _run(reader_src, READ, path, *PREDS)
    if own is None or other is None:
        return False
    differ = [
        "{} {}".format(stage, pred)
        for stage, mine, theirs in zip(STAGES, json.loads(own), json.loads(other))
        for pred in PREDS if mine[pred] != theirs[pred]
    ]
    if differ:
        sys.stderr.write("rows differ: {}\n".format(", ".join(differ)))
    return not differ


def same_addresses(src_a, src_b, workdir):
    """Both trees, running the same workload, must checkpoint the same
    root addresses at every stage: unique representation makes a
    tree's shape, and so its content address, a function of its rows
    (and support counts), whichever code wrote them."""
    stages = []
    for name, src in (("a", src_a), ("b", src_b)):
        out = _run(src, ADDRESSES, os.path.join(workdir, name))
        if out is None:
            return False
        stages.append(json.loads(out))
    differ = [
        "{} {}".format(stage, key)
        for stage, mine, theirs in zip(("written",) + STAGES[1:], *stages)
        for key in mine if mine[key] != theirs[key]
    ]
    if differ:
        sys.stderr.write("root addresses differ: {}\n".format(", ".join(differ)))
    return not differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other-src", required=True,
                        help="src/ directory of the other revision")
    args = parser.parse_args(argv)
    ok = True
    for writer_src, reader_src in ((args.other_src, HERE), (HERE, args.other_src)):
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            passed = write_and_open(writer_src, reader_src, workdir)
        print("written by {} -> opened by {}: {} ({:.1f}s)".format(
            os.path.relpath(writer_src), os.path.relpath(reader_src),
            "ok" if passed else "FAILED", time.perf_counter() - started))
        ok = ok and passed
    formats = {_run(src, FORMAT) for src in (args.other_src, HERE)}
    if len(formats) == 1:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            passed = same_addresses(args.other_src, HERE, workdir)
        print("root addresses, same workload in both: {} ({:.1f}s)".format(
            "ok" if passed else "FAILED", time.perf_counter() - started))
        ok = ok and passed
    else:
        print("root addresses not compared: checkpoint formats differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

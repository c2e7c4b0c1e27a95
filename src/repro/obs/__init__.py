"""repro.obs — tracing spans, telemetry, and EXPLAIN ANALYZE.

The package splits the observability layer into:

* :mod:`repro.obs.core` — spans, profiles, trace files, and the
  cross-process trace context (:func:`trace_context` /
  :func:`remote_context` / :func:`graft`), and the cross-thread one
  (:func:`carry`);
* :mod:`repro.obs.telemetry` — the snapshot ring, the background
  sampler, and the Prometheus text exposition with quantiles;
* :mod:`repro.obs.explain` — EXPLAIN ANALYZE (estimated-vs-actual
  per-rule join cost) and the slow-transaction log;
* :mod:`repro.obs.top` — the terminal dashboard
  (``python -m repro.obs top HOST:PORT``).

The full PR 2 surface is re-exported here, so ``from repro import obs``
call sites never changed.  Mutable module state (``_forced``, the trace
file, thread-locals) lives in :mod:`~repro.obs.core`; attribute reads
fall through to it via ``__getattr__`` so ``obs._forced`` stays truthful
— use :func:`_set_forced` (not assignment) to restore a saved value.
"""

import sys

from repro.obs import core as core
from repro.obs import explain as explain
from repro.obs import telemetry as telemetry
from repro.obs import top as top
from repro.obs.core import (
    Profile,
    Span,
    annotate,
    carry,
    current,
    disable,
    enable,
    graft,
    last_roots,
    remote_context,
    reset_span_totals,
    root_jsonl_lines,
    span,
    span_from_dict,
    span_totals,
    trace_context,
    trace_file_off,
    trace_to,
    traced_bindings,
    traced_join,
    tracing,
    _set_forced,
)
from repro.obs.explain import (
    ExplainReport,
    clear_slow_txn_log,
    explain_query,
    maybe_record_slow,
    set_slow_txn_threshold,
    slow_txn_log,
    slow_txn_threshold,
)
from repro.obs.telemetry import (
    TelemetryRing,
    prometheus_text,
    snapshot_entry,
    start_sampler,
    stop_sampler,
    telemetry_ring,
    telemetry_snapshot,
)


def __getattr__(name):
    # Delegate unknown attribute reads (the private mutable state tests
    # inspect: _forced, _AMBIENT_LIMIT, _local, ...) to the core module
    # so there is exactly one copy of each global.
    return getattr(core, name)


# -- demo / sample-trace CLI -------------------------------------------------


def _demo(jsonl_path=None, out=None):
    """Run one traced triangle-query transaction and render its trace.

    ``python -m repro.obs [--jsonl PATH]`` — CI uses this to produce
    the sample trace artifact.
    """
    out = out if out is not None else sys.stdout
    enable()
    from repro import Workspace

    workspace = Workspace()
    with Profile() as prof:
        workspace.addblock(
            "edge(x, y) -> int(x), int(y).\n"
            "tri(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).\n"
        )
        workspace.load(
            "edge",
            [(a, b) for a in range(12) for b in range(12) if a < b and (a + b) % 3],
        )
        workspace.query("_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).")
    print(prof.format(), file=out)
    print(file=out)
    print(prometheus_text(), file=out)
    if jsonl_path:
        prof.to_jsonl(jsonl_path)
        print("wrote {} spans to {}".format(
            sum(1 for _ in prof.walk()), jsonl_path), file=out)
    return prof


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "top":
        return top.main(argv[1:])
    jsonl_path = None
    if "--jsonl" in argv:
        index = argv.index("--jsonl")
        jsonl_path = argv[index + 1]
    _demo(jsonl_path=jsonl_path)
    return 0

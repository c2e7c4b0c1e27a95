"""REPL smoke tests (scripted sessions)."""

import io

from repro.repl import Repl, _complete


def session(*lines):
    out = io.StringIO()
    repl = Repl(out=out)
    for line in lines:
        alive = repl.handle(line)
        if not alive:
            break
    return out.getvalue(), repl


class TestRepl:
    def test_addblock_and_print(self):
        output, _ = session(
            "edge(x, y) -> int(x), int(y).",
            "exec +edge(1, 2). +edge(2, 3).",
            "print edge",
        )
        assert "added block" in output
        assert "1, 2" in output and "2, 3" in output

    def test_query(self):
        output, _ = session(
            "edge(x, y) -> int(x), int(y).",
            "exec +edge(1, 2).",
            "query _(y) <- edge(1, y).",
        )
        assert "2" in output.splitlines()[-1]

    def test_views_maintained(self):
        output, _ = session(
            "n[] = v -> int(v). d[] = u <- n[] = v, u = v * 2.",
            "exec +n[] = 21.",
            "print d",
        )
        assert "42" in output

    def test_constraint_abort_keeps_session(self):
        output, repl = session(
            "n[] = v -> int(v). n[] = v -> v >= 0.",
            "exec +n[] = 0 - 5.",
            "exec +n[] = 5.",
            "print n",
        )
        assert "ABORTED" in output
        assert repl.workspace.rows("n") == [(5,)]

    def test_branches(self):
        output, repl = session(
            "n[] = v -> int(v).",
            "exec +n[] = 1.",
            "branch scenario",
            "exec ^n[] = 2 <- .",
            "switch main",
            "print n",
        )
        assert repl.workspace.rows("n") == [(1,)]

    def test_meta_inspection(self):
        output, _ = session(
            "p(x) <- q(x).",
            "meta lang_idb",
        )
        assert "'p'" in output

    def test_blocks_listing(self):
        output, _ = session("p(x) -> int(x).", "blocks")
        assert "block-" in output

    def test_error_recovers(self):
        output, repl = session("this is not logiql", "print nothing")
        assert "ERROR" in output

    def test_quit(self):
        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle("quit") is False

    def test_solve_command(self):
        output, _ = session(
            """
            Item(i) -> .
            amount[i] = v -> Item(i), float(v).
            total[] = u <- agg<<u = sum(v)>> amount[i] = v.
            Item(i) -> amount[i] >= 0.
            Item(i) -> amount[i] <= 3.
            lang:solve:variable(`amount).
            lang:solve:max(`total).
            """,
            "exec +Item(\"x\").",
            "solve",
        )
        assert "optimal" in output


class TestObservabilityCommands:
    def test_stats_emits_json(self):
        output, _ = session(
            "edge(x, y) -> int(x), int(y).",
            "exec +edge(1, 2).",
            ":stats",
        )
        import json

        blob = output[output.index("{"):]
        stats = json.loads(blob[: blob.rindex("}") + 1])
        # addblock's meta-engine maintains views: its joins are counted
        # on whichever executor each join picks
        assert sum(stats["columnar"]["chosen"].values()) >= 1

    def test_stats_prom_emits_exposition_text(self):
        output, _ = session(
            "edge(x, y) -> int(x), int(y).",
            "exec +edge(1, 2).",
            ":stats prom",
        )
        assert "# TYPE" in output
        assert "repro_" in output

    def test_profile_wraps_any_command(self):
        output, _ = session(
            "edge(x, y) -> int(x), int(y). tri(a, b, c) <- "
            "edge(a, b), edge(b, c), edge(a, c).",
            "exec +edge(1, 2). +edge(2, 3). +edge(1, 3).",
            ":profile query _(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).",
        )
        assert "txn.query" in output
        assert "join" in output
        assert "1, 2, 3" in output  # the profiled command still ran

    def test_profile_without_argument_prints_usage(self):
        output, _ = session(":profile")
        assert "usage" in output

    def test_profile_quit_propagates(self):
        import io

        repl = Repl(out=io.StringIO())
        assert repl.handle(":profile quit") is False


class TestLineCompletion:
    def test_clause_needs_dot(self):
        assert not _complete("p(x) <- q(x)")
        assert _complete("p(x) <- q(x).")

    def test_commands_complete_immediately(self):
        assert _complete("print foo")
        assert _complete("quit")

    def test_observability_commands_complete(self):
        assert _complete(":stats")
        assert _complete(":stats prom")
        assert not _complete(":profile")
        assert _complete(":profile print edge")
        assert not _complete(":profile query _(x) <- edge(1, x)")
        assert _complete(":profile query _(x) <- edge(1, x).")

"""Self time and ladder arithmetic on synthetic span trees."""

import pytest

from spans import (Span, SpanRecorder, covered, ladder_rows, self_times,
                   unattributed_shares)


def test_nested_children_are_subtracted_once_per_level():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 0),
        Span(2, "call", 1.0, 9.0, 1, 0),
        Span(3, "inner", 2.0, 5.0, 2, 0),
    ]
    assert self_times(spans) == {1: 2.0, 2: 5.0, 3: 3.0}


def test_overlapping_children_count_their_union():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 0),
        Span(2, "a", 1.0, 6.0, 1, 0),
        Span(3, "b", 4.0, 8.0, 1, 0),
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    spans = [
        Span(1, "op", 2.0, 4.0, None, 0),
        Span(2, "late", 3.0, 9.0, 1, 0),
        Span(3, "outside", 5.0, 6.0, 1, 0),
    ]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_zero_length_spans():
    spans = [
        Span(1, "op", 1.0, 1.0, None, 0),
        Span(2, "child", 1.0, 1.0, 1, 0),
    ]
    assert self_times(spans) == {1: 0.0, 2: 0.0}
    assert covered([(1.0, 1.0)]) == 0.0


def test_recorder_links_children_to_the_open_span():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("op.exec", op=7):
        with rec.span("call.tcp"):
            pass
    child, root = rec.spans
    assert (root.name, root.parent, root.op) == ("op.exec", None, 7)
    assert (child.parent, child.op) == (root.sid, 7)
    assert self_times(rec.spans) == {root.sid: 2.0, child.sid: 1.0}


def test_ladder_rows_sum_to_the_top_rung():
    totals = [("workspace", 4.0), ("session", 4.5), ("tcp", 6.0),
              ("shards", 5.5)]
    rows = ladder_rows(totals)
    assert [r for r, _ in rows] == [r for r, _ in totals]
    assert sum(v for _, v in rows) == pytest.approx(totals[-1][1])


def test_unattributed_share_is_reported_for_every_rung():
    totals = [("workspace", 4.0), ("session", 5.0), ("tcp", 8.0)]
    shares = unattributed_shares(totals, {"workspace": 3.0, "tcp": 1.0})
    assert set(shares) == {"workspace", "session", "tcp"}
    assert shares["workspace"] == pytest.approx(0.25)
    assert shares["session"] == pytest.approx(0.2)   # no replay rows at all
    assert shares["tcp"] == pytest.approx(0.25)

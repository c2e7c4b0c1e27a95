"""One query shape, many constants, many threads: the shape cache's
rules and plan memos are shared by every call, so concurrent calls of
one shape — through one workspace and through one ``tcp://`` server —
must each answer as a cold compile of their own text does."""

import threading

import pytest

from repro import Workspace
from repro.logiql import shapes
from repro.net import NetSession, ReproServer
from repro.service import TransactionService

THREADS = 8
KEYS = 40

#: a comment holding a string literal makes a text uncacheable: it
#: compiles cold
COLD = ' // "cold"'

SCHEMA = "inventory[s] = v -> string(s), int(v).\ninventory[s] = v -> v >= 0.\n"
POINT = '_(v) <- inventory["k{}"] = v.'
RMW = ('^inventory["k{0}"] = x <- inventory@start["k{0}"] = y, '
       'x = y + {1}.')


def key(index):
    return "k{}".format(index)


def run_threads(target):
    errors = []

    def guarded(index):
        try:
            target(index)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_threads_share_one_shape_through_a_workspace():
    ws = Workspace()
    ws.addblock(SCHEMA)
    ws.load("inventory", [(key(i), i * 3) for i in range(KEYS)])
    cold = {i: ws.query(POINT.format(i) + COLD) for i in range(KEYS)}
    shapes._SHAPES.clear()  # every thread races to compile and plan it
    answers = {i: [] for i in range(THREADS)}

    def reader(index):
        for round_ in range(30):
            k = (index * 7 + round_) % KEYS
            answers[index].append((k, ws.query(POINT.format(k))))

    run_threads(reader)
    assert all(rows == cold[k] for got in answers.values() for k, rows in got)
    shape, _ = shapes.compile_shape(POINT.format(0))
    [rule] = shape.block.rules
    # the memo holds one plan however many threads filled it
    assert list(rule._plans) == [None]


@pytest.fixture()
def server():
    service = TransactionService()
    with ReproServer(service) as srv:
        yield srv
    service.close()


def test_threads_share_one_shape_through_a_tcp_server(server):
    with NetSession(server.host, server.port) as admin:
        admin.addblock(SCHEMA, name="inv")
        admin.load("inventory", [(key(i), 0) for i in range(THREADS)])
        shapes._SHAPES.clear()
        reads = {i: [] for i in range(THREADS)}

        def client(index):
            with NetSession(server.host, server.port) as session:
                for step in range(1, 6):
                    # writers share the rmw shape's rules; each binds its
                    # own key and increment
                    session.exec(RMW.format(index, index + 1))
                    reads[index].append(
                        (step, session.query(POINT.format(index))))

        run_threads(client)
        for index, got in reads.items():
            # a session reads its own writes: the cold answer after `step`
            # increments of `index + 1`
            assert got == [(step, [(step * (index + 1),)]) for step in range(1, 6)]
        assert sorted(admin.rows("inventory")) == [
            (key(i), 5 * (i + 1)) for i in range(THREADS)]
        for index in range(THREADS):
            assert admin.query(POINT.format(index)) == admin.query(
                POINT.format(index) + COLD)

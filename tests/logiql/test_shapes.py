"""The shape cache (``repro.logiql.shapes``): a query compiles once per
shape, and a hit answers — and refuses — exactly as a cold compile of
its literal text does."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Workspace
from repro.logiql import shapes
from repro.logiql.compiler import compile_program
from repro.logiql.lexer import ParseError
from repro.logiql.shapes import compile_shape, shape_key

#: a comment holding a string literal makes any text uncacheable, so
#: the verbs compile it cold (the oracle every hit is compared with)
COLD = ' // "cold"'

SCHEMA = """
p(x) -> int(x).
q(x, b) -> int(x), boolean(b).
E2(x, y) -> int(x), int(y).
inventory[s] = v -> string(s), int(v).
"""


@pytest.fixture()
def ws():
    ws = Workspace()
    ws.addblock(SCHEMA)
    ws.load("p", [(x,) for x in (-2, -1, 0, 1, 2, 5, 100000)])
    ws.load("q", [(1, True), (2, False)])
    ws.load("E2", [(1, 10), (2, 20)])
    ws.load("inventory", [("a", 1), ("b", 2), ('a"b', 3), ("sku00042", 4)])
    return ws


def outcome(call, *args):
    """Rows, or the refusal's type and text."""
    try:
        return ("rows", call(*args))
    except Exception as exc:  # every refusal is compared, whatever it is
        return (type(exc).__name__, str(exc))


def disposition(ws, source):
    """``(cache, outcome)`` of one query through the workspace."""
    with ws.profile() as prof:
        result = outcome(ws.query, source)
    span = prof.find("compile")
    return span.attrs.get("cache") if span is not None else None, result


def test_second_call_of_a_shape_hits(ws):
    shapes._SHAPES.clear()
    before = ws.engine_stats()
    assert disposition(ws, '_(v) <- inventory["a"] = v.') == ("miss", ("rows", [(1,)]))
    assert disposition(ws, '_(v) <- inventory["b"] = v.') == ("hit", ("rows", [(2,)]))
    after = ws.engine_stats()
    assert after.get("plan_cache.hits", 0) - before.get("plan_cache.hits", 0) == 1
    assert after.get("plan_cache.misses", 0) - before.get("plan_cache.misses", 0) == 1


def test_a_hit_reuses_the_rules_and_their_plans(ws):
    shapes._SHAPES.clear()
    first, params = compile_shape('_(x) <- E2(1, x).')
    ws.query('_(x) <- E2(1, x).')
    second, other = compile_shape('_(x) <- E2(2, x).')
    assert second is first and (params, other) == ((1,), (2,))
    [rule] = first.block.rules
    assert rule.has_plan()  # planned by the first call, reused by every hit
    assert ws.query('_(x) <- E2(2, x).') == [(20,)]


# (sibling of the same key, text, disposition of the text)
EDGE_CASES = [
    # a string in a comment: the lexer skips what the key lifted
    ('_(v) <- inventory["b"] = v. // "c"', '_(v) <- inventory["a"] = v. // "b"',
     "uncacheable"),
    ('_(v) <- /* "y" */ inventory["b"] = v.', '_(v) <- /* "x" */ inventory["a"] = v.',
     "uncacheable"),
    # each literal binds its own slot
    ("_(x, y) <- E2(2, x), E2(1, y).", "_(x, y) <- E2(1, x), E2(2, y).", "hit"),
    # digits inside identifiers stay in the key
    ("_(y) <- E2(2, y).", "_(y) <- E2(1, y).", "hit"),
    ('_(v) <- inventory["a"] = v.', '_(v) <- inventory["sku00042"] = v.', "hit"),
    # number forms: `1.` ends a clause, `1e5` is a float
    ("_(x) <- p(x), x > 2.", "_(x) <- p(x), x > 1.", "hit"),
    ("_(x) <- p(x), x < 2e5.", "_(x) <- p(x), x < 1e5.", "hit"),
    ("_(x) <- p(x), x < 2.5.", "_(x) <- p(x), x < 1e5.", "hit"),
    # an escaped quote is part of the value
    ('_(v) <- inventory["b"] = v.', '_(v) <- inventory["a\\"b"] = v.', "hit"),
    # unary minus binds to the slot; binary minus stays in the key
    ("_(x) <- p(x), x > -2.", "_(x) <- p(x), x > -1.", "hit"),
    ("_(x) <- p(y), x = y - 2.", "_(x) <- p(y), x = y - 1.", "hit"),
    # booleans are not lifted: true and false are two shapes
    ("_(x) <- q(x, false).", "_(x) <- q(x, true).", "miss"),
    # a non-ASCII digit is a number to the lexer only
    ("_(x) <- p(x), x > ٤.", "_(x) <- p(x), x > ٣.", "uncacheable"),
]


@pytest.mark.parametrize("sibling, text, expected", EDGE_CASES)
def test_shape_key_edge_cases(ws, sibling, text, expected):
    shapes._SHAPES.clear()
    disposition(ws, sibling)
    cache, result = disposition(ws, text)
    assert cache == expected
    assert result == outcome(ws.query, text + COLD)
    assert result[0] == "rows"


def test_a_literal_out_of_place_is_uncacheable(ws):
    # the comment's 3 has the count, kind and value of the lexer's
    # literal (the non-ASCII digit) but not its place
    shapes._SHAPES.clear()
    first = "_(x) <- p(x), x > \u0663. // 3"
    assert disposition(ws, first) == ("uncacheable", ("rows", [(5,), (100000,)]))
    second = "_(x) <- p(x), x > \u0663. // 4"
    assert disposition(ws, second) == ("uncacheable", ("rows", [(5,), (100000,)]))


@pytest.mark.parametrize("sibling, text", [
    ("_(x) <- p(x) 6.", "_(x) <- p(x) 5."),  # the message names the literal
    ("_(x) <- p(x), x < 2e+ 2.", "_(x) <- p(x), x < 1e+ 2."),  # `1e+` is 1, e, +
    ('_(x) <- p(x), x = "b.', '_(x) <- p(x), x = "a.'),  # unterminated string
])
def test_parse_errors_keep_their_cold_text(ws, sibling, text):
    shapes._SHAPES.clear()
    disposition(ws, sibling)
    for _ in range(2):  # a failed compile caches nothing
        with pytest.raises(ParseError) as hit:
            ws.query(text)
        with pytest.raises(ParseError) as cold:
            compile_program(text)
        assert str(hit.value) == str(cold.value)


def test_plan_errors_name_values_not_slots(ws):
    shapes._SHAPES.clear()
    text = "_(x) <- p(x), y > 5."
    warm = outcome(ws.query, "_(x) <- p(x), y > 6.")
    assert "(y > 6)" in warm[1]
    assert outcome(ws.query, text) == outcome(ws.query, text + COLD)
    assert "(y > 5)" in outcome(ws.query, text)[1]


def test_shape_key_lifts_literals_in_order():
    key, params = shape_key('+f["x\\"y", -3, 2.5e1, 7] <- E2(1, b).')
    assert params == ('x"y', 3, 25.0, 7, 1)
    assert key == shape_key('+f["", -9, 0.5, 1] <- E2(8, b).')[0]
    assert key != shape_key('+f["", 9, 0.5, 1] <- E2(8, b).')[0]
    assert shape_key('_(x) <- p(x), x = "\x00".')[0] is None


# -- hit versus cold, over random constants -----------------------------------

PROPERTY_SCHEMA = """
product(p) -> .
stock[p] = v -> product(p), int(v).
inventory[s] = v -> string(s), int(v).
price[s] = v -> string(s), float(v).
big(x) -> int(x).
total[] = t <- agg<<t = sum(v)>> inventory[s] = v.
"""

CONSTANTS = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\x00"), max_size=6),
    st.sampled_from(['"', "\\", '\\"', "a\nb", "\t", "k1", "p1", -0.0, -1, 2 ** 64]),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
)


def literal(value):
    """LogiQL text for one constant (a negative number is unary minus)."""
    if isinstance(value, str):
        return '"{}"'.format(value.replace("\\", "\\\\").replace('"', '\\"')
                             .replace("\n", "\\n"))
    return repr(value)


def sibling(value):
    """Another constant of the same shape: kind and sign."""
    if isinstance(value, str):
        return "w"
    if isinstance(value, int):
        return -7 if value < 0 else 7
    return -1.5 if math.copysign(1.0, value) < 0 else 1.5


OPS = [
    ("query", "_(v) <- inventory[{}] = v."),
    ("query", "_(v) <- stock[{}] = v."),
    ("query", "_(x) <- big(x), x > {}."),
    ("query", "_(s, v) <- price[s] = v, v != {}."),
    ("exec", "+inventory[{}] = 1."),
    ('exec', '+inventory["k"] = {}.'),
    ("exec", "+price[\"k\"] = {}."),
    ("exec", "+big({})."),
    ("exec", "+total[] = {}."),  # a derived-predicate write
    ("exec", "+inventory[{0}] = 1. +inventory[{0}] = 2."),  # an FD violation
]


def property_workspace():
    ws = Workspace()
    ws.addblock(PROPERTY_SCHEMA)
    ws.load("product", [("p1",), ("p2",)])
    ws.load("stock", [("p1", 4), ("p2", 5)])
    ws.load("inventory", [("k1", 1), ("k2", 2)])
    ws.load("price", [("k1", 0.5), ("k2", -0.0)])
    ws.load("big", [(2 ** 64,), (-3,), (0,)])
    return ws


def run_op(ws, verb, source):
    if verb == "query":
        return outcome(ws.query, source)
    return outcome(lambda text: sorted(
        (pred, sorted(d.added), sorted(d.removed))
        for pred, d in ws.exec(text).deltas.items()), source)


@pytest.mark.parametrize("engine", ["pure", "columnar"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(CONSTANTS, min_size=1, max_size=4))
def test_a_hit_answers_and_refuses_like_a_cold_compile(force_executor, engine, values):
    force_executor(engine)
    hit, cold, warm = (property_workspace() for _ in range(3))
    for value in values:
        for verb, template in OPS:
            run_op(warm, verb, template.format(literal(sibling(value))))
            source = template.format(literal(value))
            with hit.profile() as prof:
                result = run_op(hit, verb, source)
            assert prof.find("compile").attrs["cache"] == "hit", source
            assert result == run_op(cold, verb, source + COLD), source
    for pred in ("inventory", "price", "big", "total"):
        assert hit.rows(pred) == cold.rows(pred)


def test_an_exec_shape_keeps_one_reactive_ruleset_per_installed_program():
    shape = shapes.Shape(compile_program("+A(1)."))
    own = shape.reactive_ruleset([])
    # every program installing no reactive rule shares the shape's own
    assert shape.reactive_ruleset([]) is own
    assert own.derived == {"+A"}
    installed = compile_program("+B(x) <- +A(x).").reactive_rules
    fired = shape.reactive_ruleset(installed)
    assert fired.derived == {"+A", "+B"}
    assert shape.reactive_ruleset(installed) is fired
    # a program edit installs a new list: built again, once
    edited = list(installed)
    assert shape.reactive_ruleset(edited) is not fired
    assert shape.reactive_ruleset(edited) is shape.reactive_ruleset(edited)

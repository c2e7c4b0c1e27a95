"""``unparse`` is the inverse of the parser."""

from repro.logiql.parser import parse_program
from repro.logiql.printer import unparse


def test_printer_round_trips_the_surface_language():
    source = "\n".join([
        'order(o, c) -> int(o), string(c).',
        'Product(p) -> .',
        '2.0 : a(x) -> b(x).',
        '_[] = v <- agg<<v = avg(q * 2 + 1)>> lineitem(o, l, q), '
        '!order(o, "c\\"1\\\\"), q >= -3, x = price[o] - 1.5e-7.',
        'F[a] += x * 2, p(a, x).',
        '+p(x) <- q(x), r@start(x). ^s[k] = v <- t[k] = v. -p(3).',
        'lang:solve:variable(`Stock).',
        'm[k] = z <- predict z = logist(v|f) d(k, v, f).',
        'h[x] = Flip[0.01] <- p(x).',
        'p(_, true, false). q(x) <- total[x], abs(x) > 2, y = -x.',
    ])
    program = parse_program(source)
    assert parse_program(unparse(program)) == program

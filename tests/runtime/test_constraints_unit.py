"""Constraints as maintained violation views.

The first two classes check the compiled views directly: a program's
rule set (violation rules included) evaluated over given relations,
then :meth:`ConstraintChecker.check` reading the views — the path
``prob.ppdl`` and the benchmark's layer replay take.  The rest drive a
:class:`Workspace`, where the incremental engine maintains the views.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConstraintViolation, TransactionAborted, Workspace
from repro.ds.pmap import PMap
from repro.engine.evaluator import Evaluator
from repro.logiql.compiler import compile_program
from repro.logiql.lexer import ParseError
from repro.logiql.parser import parse_program
from repro.runtime.state import ProgramArtifacts
from repro.storage.relation import Relation


def check(source, data, **kwargs):
    """Evaluate ``source``'s rule set over ``data`` (every other
    predicate empty) and return the checker's violations."""
    artifacts = ProgramArtifacts(PMap.from_dict({"t": compile_program(source)}))
    env = {
        name: Relation.empty(arity)
        for name, arity in artifacts.arities.items()
        if name not in artifacts.ruleset.derived
    }
    env.update(data)
    relations, _ = Evaluator(artifacts.ruleset).evaluate(env)
    return artifacts.checker.check(relations, **kwargs)


def bindings(violations):
    return [binding for _, binding in violations]


class TestCompiledConstraint:
    def test_inclusion_dependency(self):
        data = {
            "Product": Relation.from_iter(1, [("a",), ("b",)]),
            "Stock": Relation.from_iter(2, [("a", 1.0)]),
        }
        assert bindings(check("Product(p) -> Stock[p] = _.", data)) == [{"p": "b"}]

    def test_comparison_rhs(self):
        source = "n[] = v -> v >= 0."
        assert check(source, {"n": Relation.from_iter(1, [(5,)])}) == []
        violations = check(source, {"n": Relation.from_iter(1, [(-1,)])})
        assert bindings(violations) == [{"v": -1}]

    def test_functional_terms_both_sides(self):
        data = {
            "Product": Relation.from_iter(1, [("a",), ("b",)]),
            "Stock": Relation.from_iter(2, [("a", 5.0), ("b", 1.0)]),
            "minStock": Relation.from_iter(2, [("a", 2.0), ("b", 2.0)]),
        }
        source = "Product(p) -> Stock[p] >= minStock[p]."
        assert bindings(check(source, data)) == [{"p": "b"}]
        # functional terms on the left too: the fresh value variables of
        # the two sides are distinct
        data["Stock"] = Relation.from_iter(2, [("a", 5.0), ("b", 3.0)])
        source = "Stock[p] > 2.5 -> minStock[p] > 1.0."
        assert check(source, data) == []

    def test_missing_predicates_default_empty(self):
        # empty Product: vacuously holds
        assert check("Product(p) -> Stock[p] = _.", {}) == []

    def test_violation_limit(self):
        relation = Relation.from_iter(1, [(-i,) for i in range(1, 30)])
        assert len(check("n(v) -> v >= 0.", {"n": relation})) == 10

    def test_numeric_tolerance_on_rhs(self):
        source = "total[] = u, cap[] = v -> u <= v."
        data = {
            "total": Relation.from_iter(1, [(100.0 + 1e-9,)]),
            "cap": Relation.from_iter(1, [(100.0,)]),
        }
        assert check(source, data) == []
        data["total"] = Relation.from_iter(1, [(100.1,)])
        assert check(source, data)

    def test_type_checks(self):
        # not a pure declaration (two atoms on the left): a constraint
        source = "f[k] = v, g(k) -> int(k), float(v)."
        good = {"f": Relation.from_iter(2, [(1, 2.5)]), "g": Relation.from_iter(1, [(1,)])}
        assert check(source, good) == []
        bad = {"f": Relation.from_iter(2, [(1.5, 2.5)]), "g": Relation.from_iter(1, [(1.5,)])}
        assert bindings(check(source, bad)) == [{"k": 1.5, "v": 2.5}]
        # types and a comparison (not a declaration): a mistyped value
        # is a violation, never compared
        source = "Stock[p] = v -> float(v), v >= 0."
        mistyped = {"Stock": Relation.from_iter(2, [("a", "x")])}
        assert bindings(check(source, mistyped)) == [{"p": "a", "v": "x"}]
        ws = Workspace()
        ws.addblock(source)
        with pytest.raises(ConstraintViolation):
            ws.load("Stock", [("a", "x")])


class TestConstraintChecker:
    SOURCE = """
        n[] = v -> int(v).
        n[] = v -> v >= 0.
        m[] = v -> int(v).
        m[] = v -> v >= 10.
        1.0 : m[] = v -> v >= 100.
    """

    def test_soft_constraints_skipped(self):
        data = {
            "n": Relation.from_iter(1, [(1,)]),
            "m": Relation.from_iter(1, [(50,)]),  # violates only the soft one
        }
        assert check(self.SOURCE, data) == []

    def test_changed_preds_filter(self):
        data = {
            "n": Relation.from_iter(1, [(-1,)]),  # violated
            "m": Relation.from_iter(1, [(50,)]),
        }
        assert check(self.SOURCE, data, changed_preds={"m"}) == []
        assert check(self.SOURCE, data, changed_preds={"n"})
        assert check(self.SOURCE, data)

    def test_exempt_preds(self):
        data = {
            "n": Relation.from_iter(1, [(-1,)]),
            "m": Relation.from_iter(1, [(50,)]),
        }
        assert check(self.SOURCE, data, exempt_preds={"n"}) == []

    def test_encodings(self):
        [filter_only, with_atoms, soft] = compile_program(
            "n(v) -> v >= 0. p(x) -> q(x). 1.0 : p(x) -> q(x)."
        ).constraints
        [rule] = filter_only.rules
        assert rule.head_pred == filter_only.fail_pred
        ok, fail = with_atoms.rules
        assert fail.head_pred == with_atoms.fail_pred
        assert fail.body[-1].negated and fail.body[-1].pred == ok.head_pred
        assert soft.rules == () and soft.fail_pred is None

    def test_hidden_names_are_deterministic_and_unparseable(self):
        first = compile_program("n(v) -> v >= 0.").constraints[0]
        again = compile_program("n(v) -> v >= 0.").constraints[0]
        other = compile_program("n(v) -> v >= 1.").constraints[0]
        assert first.fail_pred == again.fail_pred != other.fail_pred
        with pytest.raises(ParseError):
            parse_program("x(v) <- {}(v).".format(first.fail_pred))


class TestViolationViews:
    def test_unplannable_constraint_is_refused(self):
        ws = Workspace()
        with pytest.raises(TransactionAborted, match=r"x > y"):
            ws.addblock("p(x) -> int(x). p(x), x > y -> q(x).", name="bad")
        with pytest.raises(TransactionAborted, match=r"\+p"):
            ws.addblock("p(x) -> int(x). +p(x) -> x > 0.", name="bad")
        assert "bad" not in ws.blocks()

    def test_wildcards_on_both_sides_are_distinct(self):
        ws = Workspace()
        ws.addblock("p(x, y) -> int(x), int(y). q(x, y) -> int(x), int(y). "
                    "p(x, _) -> q(x, _).")
        ws.exec("+p(1, 2). +q(1, 3).")
        with pytest.raises(ConstraintViolation) as info:
            ws.exec("+p(2, 2).")
        assert bindings(info.value.violations) == [{"x": 2}]

    def test_same_constraint_in_two_blocks(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x).", name="d")
        ws.addblock("p(x) -> x >= 0.", name="a")
        ws.addblock("p(x) -> x >= 0.", name="b")
        with pytest.raises(ConstraintViolation) as info:
            ws.load("p", [(-1,)])
        assert bindings(info.value.violations) == [{"x": -1}, {"x": -1}]
        ws.removeblock("a")
        with pytest.raises(ConstraintViolation):
            ws.load("p", [(-1,)])
        ws.removeblock("b")
        ws.load("p", [(-1,)])
        with pytest.raises(ConstraintViolation):
            ws.addblock("p(x) -> x >= 0.", name="a")

    def test_block_facts_revise_the_view(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x). p(x) -> x >= 0.", name="c")
        with pytest.raises(ConstraintViolation):
            ws.addblock("p(0 - 1).", name="f")
        ws.addblock("p(2).", name="g")
        ws.removeblock("c")
        ws.addblock("p(0 - 1).", name="f")
        with pytest.raises(ConstraintViolation):
            ws.addblock("p(x) -> x >= 0.", name="c")

    def test_ground_and_nullary_left_hand_sides(self):
        ws = Workspace()
        ws.addblock("p(x) -> int(x). q(x) -> int(x). "
                    "flag() -> ok(). p(1) -> q(1).")
        with pytest.raises(ConstraintViolation) as info:
            ws.exec("+flag().")
        assert bindings(info.value.violations) == [{}]
        ws.exec("+flag(). +ok().")
        with pytest.raises(ConstraintViolation):
            ws.exec("+p(1).")
        ws.exec("+p(1). +q(1).")
        ws.exec("+p(2).")
        with pytest.raises(ConstraintViolation):
            ws.exec("-ok().")

    def test_type_declarations_enforced_per_tuple(self):
        ws = Workspace()
        ws.addblock("r(x) <- p(x).", name="view")
        ws.load("p", [("s",)])
        with pytest.raises(ConstraintViolation):
            ws.addblock("p(x) -> int(x).", name="decl")  # existing data
        assert ws.blocks() == ["view"]
        ws.load("p", [], remove=[("s",)])
        ws.addblock("p(x) -> int(x). d(x) -> string(x). d(x) <- p(x).", name="decl")
        with pytest.raises(ConstraintViolation):
            ws.load("p", [(1,)])  # the derived d(1) is not a string
        with pytest.raises(ConstraintViolation):
            ws.load("p", [("t",)])
        assert ws.rows("p") == [] and ws.rows("d") == []

    def test_constraint_work_independent_of_relation_size(self, force_executor):
        force_executor("pure")

        def work(rows):
            ws = Workspace()
            ws.addblock(
                "Product(p) -> . inv[p] = v -> Product(p), int(v). "
                "inv[p] = v -> v >= 0."
            )
            keys = [("k{}".format(i),) for i in range(rows)]
            ws.exec("".join('+Product("{0}"). +inv["{0}"] = 5.'.format(k)
                            for (k,) in keys))
            with ws.profile() as prof:
                ws.exec('^inv["k7"] = 3 <- .')
            joins = [s for s in prof.find_all("join")
                     if s.attrs["rule"].startswith("$")]
            assert joins
            return sum(s.attrs.get(key, 0) for s in joins
                       for key in ("seeks", "nexts", "opens", "steps", "rows"))

        assert work(1000) == work(4000)


# -- property: commit / abort exactly as a brute-force oracle -----------------

PROPERTY_SCHEMA = """
    p(x) -> int(x). q(x, y) -> int(x), int(y). r(x) -> int(x).
    p(x) -> x <= 4.
    q(x, _) -> p(x).
    p(x) -> !r(x).
"""


def oracle_violations(state):
    p, q, r = state["p"], state["q"], state["r"]
    out = set()
    out |= {("p(x) -> (x <= 4).", x) for (x,) in p if not x <= 4}
    out |= {("q(x, _) -> p(x).", x) for (x, _) in q if (x,) not in p}
    out |= {("p(x) -> !r(x).", x) for (x,) in p if (x,) in r}
    return out


value = st.integers(0, 6)
op = st.one_of(
    st.tuples(st.just("p"), st.tuples(value)),
    st.tuples(st.just("q"), st.tuples(value, value)),
    st.tuples(st.just("r"), st.tuples(value)),
)
txn = st.dictionaries(op, st.booleans(), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(txn, min_size=1, max_size=6))
def test_commit_or_abort_matches_oracle(txns):
    ws = Workspace()
    ws.addblock(PROPERTY_SCHEMA)
    texts = {c.text for c in ws.state.artifacts.constraints}
    state = {"p": set(), "q": set(), "r": set()}
    for ops in txns:
        after = {pred: set(rows) for pred, rows in state.items()}
        text = ""
        for (pred, row), insert in ops.items():
            (after[pred].add if insert else after[pred].discard)(row)
            text += "{}{}({}).".format("+" if insert else "-", pred,
                                       ", ".join(map(str, row)))
        expected = oracle_violations(after)
        assert {t for t, _ in expected} <= texts
        if expected:
            with pytest.raises(ConstraintViolation) as info:
                ws.exec(text)
            got = {(c.text, b["x"]) for c, b in info.value.violations}
            assert got == expected
        else:
            ws.exec(text)
            state = after
        for pred, rows in state.items():
            assert set(ws.rows(pred)) == rows

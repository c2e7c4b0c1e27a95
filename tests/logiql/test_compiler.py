"""Compiler tests: AST → engine IR lowering."""

import pytest

from repro.engine import ir
from repro.logiql.compiler import CompileError, compile_program
from repro.storage.datum import PrimitiveType
from repro.storage.schema import EntityType


class TestRuleLowering:
    def test_plain_rule(self):
        block = compile_program("p(x, y) <- q(x, z), r(z, y).")
        [rule] = block.rules
        assert rule.head_pred == "p"
        assert [a.pred for a in rule.body] == ["q", "r"]

    def test_functional_term_desugaring(self):
        block = compile_program(
            "profit[s] = sellingPrice[s] - buyingPrice[s] <- ."
        )
        [rule] = block.rules
        preds = [a.pred for a in rule.body if isinstance(a, ir.PredAtom)]
        assert set(preds) == {"sellingPrice", "buyingPrice"}
        assigns = [a for a in rule.body if isinstance(a, ir.AssignAtom)]
        assert len(assigns) == 1
        assert rule.n_keys == 1

    def test_unbound_equality_becomes_assignment(self):
        block = compile_program("p[x] = z <- q[x] = a, z = a * 2.")
        [rule] = block.rules
        assigns = [a for a in rule.body if isinstance(a, ir.AssignAtom)]
        assert len(assigns) == 1 and assigns[0].var == "z"

    def test_bound_equality_stays_comparison(self):
        block = compile_program("p(x, y) <- q(x), q(y), x = y.")
        [rule] = block.rules
        compares = [a for a in rule.body if isinstance(a, ir.CompareAtom)]
        assert len(compares) == 1

    def test_aggregation(self):
        block = compile_program(
            "t[] = u <- agg<<u = sum(z)>> s[p] = x, z = x * 2."
        )
        [rule] = block.rules
        assert rule.agg.fn == "sum"
        assert rule.n_keys == 0

    def test_agg_value_expression_gets_assign(self):
        block = compile_program("t[] = u <- agg<<u = sum(x * 2)>> s[p] = x.")
        [rule] = block.rules
        assert rule.agg.fn == "sum"
        assigns = [a for a in rule.body if isinstance(a, ir.AssignAtom)]
        assert len(assigns) == 1

    def test_wildcards_become_fresh_vars(self):
        block = compile_program("p(x) <- q(x, _), q(x, _).")
        [rule] = block.rules
        names = set()
        for atom in rule.body:
            names |= {a.name for a in atom.args if isinstance(a, ir.Var)}
        assert len(names) == 3  # x plus two distinct wildcards


class TestReactiveLowering:
    def test_plus_head(self):
        block = compile_program("+r(x) <- s(x).")
        [rule] = block.reactive_rules
        assert rule.head_pred == "+r"
        # plain body references read the @start state inside exec logic
        assert rule.body[0].pred == "s@start"

    def test_caret_expansion(self):
        block = compile_program(
            '^price["P"] = x <- price@start["P"] = y, x = y - 1.'
        )
        heads = sorted(r.head_pred for r in block.reactive_rules)
        assert heads == ["+price", "-price"]
        minus = [r for r in block.reactive_rules if r.head_pred == "-price"][0]
        # the -rule looks up the old value via @start
        start_atoms = [
            a for a in minus.body
            if isinstance(a, ir.PredAtom) and a.pred == "price@start"
        ]
        assert start_atoms

    def test_caret_on_relational_rejected(self):
        with pytest.raises(CompileError):
            compile_program("^r(x) <- s(x).")

    def test_explicit_delta_body_atoms(self):
        block = compile_program("+a(x) <- +b(x).")
        [rule] = block.reactive_rules
        assert rule.body[0].pred == "+b"


class TestDeclarations:
    def test_functional_declaration(self):
        block = compile_program("Stock[p] = v -> Product(p), float(v).")
        [decl] = block.decls
        assert decl.name == "Stock"
        assert decl.is_functional and decl.n_keys == 1
        assert decl.arg_types == (EntityType("Product"), PrimitiveType.FLOAT)

    def test_entity_declaration(self):
        block = compile_program("Product(p) -> .")
        assert block.entities == [EntityType("Product")]

    def test_relational_declaration(self):
        block = compile_program("edge(x, y) -> int(x), int(y).")
        [decl] = block.decls
        assert not decl.is_functional
        assert decl.arg_types == (PrimitiveType.INT, PrimitiveType.INT)

    def test_which_declarations_become_constraints(self):
        block = compile_program(
            "Product(p) -> .\n"
            "edge(x, y) -> int(x), int(y).\n"
            "Stock[p] = v -> Product(p), float(v).\n"
        )
        assert [d.name for d in block.decls] == ["Product", "edge", "Stock"]
        # primitive types only: enforced per tuple, not a constraint;
        # an entity atom needs a join, so that declaration is one
        [constraint] = block.constraints
        assert constraint.preds == {"Stock", "Product"}
        assert constraint.type_checks and len(constraint.rules) == 2


class TestConstraints:
    def test_comparison_constraint(self):
        block = compile_program("t[] = u, m[] = v -> u <= v.")
        [constraint] = block.constraints
        assert len(constraint.lhs) == 2
        assert isinstance(constraint.rhs[0], ir.CompareAtom)

    def test_functional_terms_in_rhs(self):
        block = compile_program("Product(p) -> Stock[p] >= minStock[p].")
        [constraint] = block.constraints
        rhs_preds = {
            a.pred for a in constraint.rhs if isinstance(a, ir.PredAtom)
        }
        assert rhs_preds == {"Stock", "minStock"}

    def test_soft_constraint(self):
        block = compile_program("1.5 : Customer(c) -> Purchase(c).")
        [constraint] = block.constraints
        assert constraint.is_soft and constraint.weight == 1.5


class TestSpecialRules:
    def test_directives(self):
        block = compile_program(
            "lang:solve:variable(`Stock). lang:solve:max(`totalProfit)."
        )
        assert [d.name for d in block.directives] == [
            "lang:solve:variable", "lang:solve:max",
        ]

    def test_predict(self):
        block = compile_program(
            "SM[s] = m <- predict m = logist(v|f) A[s, w] = v, B[s, n] = f."
        )
        [rule] = block.predict_rules
        assert rule.fn == "logist"
        assert rule.target_var == "v" and rule.feature_var == "f"

    def test_prob_rule(self):
        block = compile_program("Promo[p] = Flip[0.1] <- Item(p).")
        [rule] = block.prob_rules
        assert rule.head_pred == "Promo"
        assert rule.param_expr == ir.Const(0.1)

    def test_flip_outside_head_rejected(self):
        with pytest.raises(CompileError):
            compile_program("p(x) <- q(x, Flip[0.5]).")

    def test_pred_application_as_term_rejected(self):
        with pytest.raises(CompileError):
            compile_program("p[x] = v <- q(x), v = r(x) + 1.")

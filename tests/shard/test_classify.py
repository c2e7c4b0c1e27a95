"""Co-partition classification (:func:`repro.engine.planner.classify_rules`)."""

from repro.engine.planner import (
    KEY_BROKEN,
    KEY_KEYED,
    KEY_PARTIAL_AGG,
    KEY_REPLICATED,
    KEY_SCATTERED,
    classify_rules,
)
from repro.logiql.compiler import compile_program

PARTITION = {"order": 0, "lineitem": 0}


def classify(source, partition=PARTITION, seed_classes=None):
    block = compile_program(source)
    rules = list(block.rules) + list(block.reactive_rules)
    return rules, classify_rules(rules, partition, seed_classes=seed_classes)


class TestPlacements:
    def test_partition_spec_seeds_keyed(self):
        _, analysis = classify("big(o) <- order(o, c).")
        assert analysis.class_of("order").kind == KEY_KEYED
        assert analysis.class_of("order").col == 0
        assert analysis.class_of("lineitem").kind == KEY_KEYED

    def test_unknown_preds_default_replicated(self):
        _, analysis = classify("r(x) <- rate(n, x).")
        assert analysis.class_of("rate").kind == KEY_REPLICATED
        assert analysis.class_of("r").kind == KEY_REPLICATED
        assert analysis.copartitioned

    def test_copartitioned_join_keeps_key(self):
        rules, analysis = classify(
            "big(o, l) <- order(o, c), lineitem(o, l, q).")
        assert analysis.copartitioned
        cls = analysis.class_of("big")
        assert cls.kind == KEY_KEYED and cls.col == 0
        anchor = analysis.anchors[id(rules[0])]
        assert anchor.kind == "var"

    def test_projecting_key_away_scatters(self):
        _, analysis = classify("cust(c) <- order(o, c).")
        assert analysis.copartitioned
        assert analysis.class_of("cust").kind == KEY_SCATTERED

    def test_disagreeing_keys_break(self):
        # o and l partition different atoms: no single shard witnesses
        # the join
        _, analysis = classify(
            "bad(o, l) <- order(o, c), lineitem(l, o, q).")
        assert not analysis.copartitioned
        assert analysis.class_of("bad").kind == KEY_BROKEN

    def test_negation_over_keyed_with_anchor_ok(self):
        _, analysis = classify(
            "lonely(o, c) <- order(o, c), !lineitem(o, l, q).")
        assert analysis.copartitioned
        assert analysis.class_of("lonely").kind == KEY_KEYED

    def test_negation_over_scattered_breaks(self):
        _, analysis = classify(
            "cust(c) <- order(o, c).\n"
            "bad(o) <- order(o, c), !cust(c).")
        assert not analysis.copartitioned
        assert analysis.class_of("bad").kind == KEY_BROKEN

    def test_agg_keeping_key_stays_keyed(self):
        _, analysis = classify(
            "total[o] = s <- agg<<s = sum(q)>> lineitem(o, l, q).")
        assert analysis.copartitioned
        assert analysis.class_of("total").kind == KEY_KEYED

    def test_agg_losing_key_is_partial(self):
        _, analysis = classify(
            "grand[] = s <- agg<<s = sum(q)>> lineitem(o, l, q).")
        assert analysis.copartitioned
        cls = analysis.class_of("grand")
        assert cls.kind == KEY_PARTIAL_AGG and cls.fn == "sum"

    def test_partial_agg_consumed_downstream_breaks(self):
        _, analysis = classify(
            "grand[] = s <- agg<<s = sum(q)>> lineitem(o, l, q).\n"
            "report(s) <- grand[] = s.")
        assert not analysis.copartitioned
        assert analysis.class_of("report").kind == KEY_BROKEN

    def test_literal_key_anchor(self):
        rules, analysis = classify('vip(c) <- order(7, c).')
        assert analysis.copartitioned
        anchor = analysis.anchors[id(rules[0])]
        assert anchor.kind == "const" and anchor.consts == (7,)

    def test_seed_classes_carry_installed_views(self):
        _, installed = classify(
            "cust(c) <- order(o, c).")
        rules, analysis = classify(
            "bad(o) <- order(o, c), !cust(c).",
            seed_classes=installed.classes)
        assert not analysis.copartitioned

    def test_broken_reason_is_recorded(self):
        _, analysis = classify(
            "bad(o, l) <- order(o, c), lineitem(l, o, q).")
        assert analysis.broken
        rule, reason = analysis.broken[0]
        assert isinstance(reason, str) and reason

    def test_recursive_component_reaches_fixpoint(self):
        # transitive closure over a scattered edge projection: the
        # head must stabilize at a placement no worse than its body
        _, analysis = classify(
            "link(c, c2) <- order(o, c), order(o, c2).\n"
            "reach(c, c2) <- link(c, c2).\n"
            "reach(c, c2) <- reach(c, m), link(m, c2).")
        assert analysis.class_of("link").kind == KEY_SCATTERED
        assert analysis.class_of("reach").kind == KEY_SCATTERED

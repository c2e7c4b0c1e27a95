"""The meta-engine proper (paper §3.3, Figure 6).

"While the engine proper deals with maintenance of the derived
predicates for a given program, the meta-engine maintains the program
under code updates and informs the engine proper which derived
predicates should be revised."

Implementation: the user program is reflected into *meta-facts*
(``rule_head_pred``, ``rule_body_pred``, ...); the meta-rules of
:mod:`repro.meta.metarules` — themselves LogiQL, compiled and evaluated
by this system's own engine — derive the execution graph, EDB/IDB
classification, frame-rule needs, revision sets, and code invariants.
``addblock``/``removeblock`` turn into deltas on the meta-facts, and
the same incremental view maintenance that serves user data maintains
the meta-level state.
"""

from repro import obs
from repro import stats as global_stats
from repro.ds.hashing import stable_hash
from repro.engine.evaluator import RuleSet
from repro.engine.ir import PredAtom
from repro.engine.ivm import IncrementalEngine
from repro.engine.planner import base_pred
from repro.logiql.compiler import compile_program
from repro.meta.metarules import META_BASE_PREDS, META_RULES_SOURCE
from repro.storage.relation import Delta, Relation

_meta_block = compile_program(META_RULES_SOURCE)
_META_RULESET = RuleSet(_meta_block.rules)


def block_meta_facts(block_name, block):
    """The meta-facts contributed by one compiled block."""
    facts = {pred: set() for pred in META_BASE_PREDS}

    def note_pred(name):
        facts["lang_predname"].add((name,))

    # constraint violation rules last: user rule ids keep their index
    all_rules = list(block.rules) + list(block.reactive_rules) + [
        rule for constraint in block.constraints for rule in constraint.rules
    ]
    for index, rule in enumerate(all_rules):
        # content-hashed rule id: editing a formula (even without
        # changing the predicates involved) must register as a change
        rid = "{}#{}:{:08x}".format(
            block_name, index, stable_hash(repr(rule)) & 0xFFFFFFFF
        )
        facts["rule_in_block"].add((block_name, rid))
        head = rule.head_pred
        if head and head[0] in "+-":
            facts["delta_head_base"].add((rid, head[1:]))
            note_pred(head[1:])
        else:
            facts["rule_head_pred"].add((rid, head))
            note_pred(head)
        if rule.agg is not None:
            facts["rule_is_agg"].add((rid,))
        for atom in rule.body:
            if not isinstance(atom, PredAtom):
                continue
            note_pred(base_pred(atom.pred))
            if atom.negated:
                facts["rule_body_negpred"].add((rid, atom.pred))
            else:
                facts["rule_body_pred"].add((rid, atom.pred))
    for decl in block.decls:
        facts["declared_pred"].add((decl.name,))
        note_pred(decl.name)
    for constraint in block.constraints:
        for atom in constraint.lhs + constraint.rhs:
            if isinstance(atom, PredAtom) and not atom.pred.startswith("@"):
                note_pred(atom.pred)
    return facts


class MetaState:
    """Immutable snapshot of the meta-level materialization."""

    __slots__ = ("materialization", "block_facts")

    def __init__(self, materialization, block_facts):
        self.materialization = materialization
        self.block_facts = block_facts  # block name -> fact dict

    def relation(self, name):
        """A derived or base meta-relation."""
        return self.materialization.relations.get(name, Relation.empty(1))

    def rows(self, name):
        """Rows of a meta-relation, sorted."""
        return sorted(self.relation(name))

    def members(self, name):
        """First column of a meta-relation as a set (for unary views)."""
        return {t[0] for t in self.relation(name)}


class MetaEngine:
    """Maintains the meta-level materialization under program changes."""

    def __init__(self):
        self.engine = IncrementalEngine(_META_RULESET)

    def initial(self):
        """Meta-state of the empty program."""
        return self.of_blocks({})

    def of_blocks(self, blocks):
        """Meta-state of a whole program (``blocks``: name -> compiled
        block) at once, as on restore."""
        block_facts = {name: block_meta_facts(name, block) for name, block in blocks.items()}
        bases = {pred: set() for pred in META_BASE_PREDS}
        for facts in block_facts.values():
            for pred, tuples in facts.items():
                bases[pred] |= tuples
        return MetaState(self.engine.initialize({
            pred: Relation.from_iter(arity, bases[pred])
            for pred, arity in META_BASE_PREDS.items()
        }), block_facts)

    def _facts_delta(self, old_facts, new_facts):
        deltas = {}
        for pred in META_BASE_PREDS:
            before = old_facts.get(pred, set())
            after = new_facts.get(pred, set())
            if before != after:
                deltas[pred] = Delta.from_iters(after - before, before - after)
        return deltas

    def update(self, meta_state, block_name, block, changed_bases=()):
        """Apply an addblock/removeblock (``block`` may be ``None`` for
        removal); returns ``(new_meta_state, need_revision)``.

        ``need_revision`` is the set of predicates the engine proper
        must re-materialize — the paper's "informs the engine proper
        which derived predicates have to be maintained as result of the
        program change".
        """
        with obs.span(
            "meta.update", block=block_name, removed=block is None
        ) as span_:
            result = self._update(meta_state, block_name, block, changed_bases)
            if span_ is not None:
                span_.attrs["need_revision"] = len(result[1])
            return result

    def _update(self, meta_state, block_name, block, changed_bases):
        global_stats.bump("meta.updates")
        old_facts = meta_state.block_facts.get(block_name, {})
        new_facts = block_meta_facts(block_name, block) if block is not None else {}
        deltas = self._facts_delta(old_facts, new_facts)

        # transient change markers for the revision meta-rules
        changed_rules = set()
        for pred in ("rule_in_block",):
            delta = deltas.get(pred)
            if delta:
                changed_rules |= {t[1] for t in delta.added}
                changed_rules |= {t[1] for t in delta.removed}
        # a rule whose facts changed in any way counts as changed
        for pred in ("rule_head_pred", "rule_body_pred", "rule_body_negpred"):
            delta = deltas.get(pred)
            if delta:
                changed_rules |= {t[0] for t in delta.added}
                changed_rules |= {t[0] for t in delta.removed}
        markers = {
            "changed_rule": Delta.from_iters(
                {(rid,) for rid in changed_rules}, ()
            )
        }
        if changed_bases:
            markers["changed_base"] = Delta.from_iters(
                {(name,) for name in changed_bases}, ()
            )

        # mark first and read against the OLD facts (removed rules'
        # heads need revision too), then apply the block's fact deltas
        # and read again (added rules' heads), then clear the markers
        mat, _ = self.engine.apply(meta_state.materialization, markers)
        need_revision = {t[0] for t in mat.relations.get("need_revision", ())}
        mat, _ = self.engine.apply(mat, deltas)
        need_revision |= {t[0] for t in mat.relations.get("need_revision", ())}

        clear = {}
        marker = mat.relations.get("changed_rule")
        if marker is not None and len(marker):
            clear["changed_rule"] = Delta.from_iters((), set(marker))
        marker = mat.relations.get("changed_base")
        if marker is not None and len(marker):
            clear["changed_base"] = Delta.from_iters((), set(marker))
        if clear:
            mat, _ = self.engine.apply(mat, clear)

        block_facts = dict(meta_state.block_facts)
        if block is None:
            block_facts.pop(block_name, None)
        else:
            block_facts[block_name] = new_facts
        return MetaState(mat, block_facts), need_revision

"""Immutable workspace state: logic + data at one version (paper §2.2.2).

"A workspace consists of (i) a collection of declared predicates,
derivation rules, and constraints (collectively called logic) and (ii)
contents of the base predicates."  Logic is organized in named blocks.

A :class:`WorkspaceState` is one snapshot: the block map, the base
relations, and the materialization of all derived predicates.  States
are immutable — transactions produce new states, the version graph
records them, and branching shares everything (T4).

:class:`ProgramArtifacts` holds everything derivable from the block map
alone (rule sets — constraint violation views included — engines,
constraint checkers); states with the same program share one artifacts
object by reference.
"""

from repro.ds.pmap import PMap
from repro.engine.evaluator import RuleSet
from repro.engine.ir import Const, PredAtom
from repro.engine.ivm import IncrementalEngine
from repro.engine.planner import base_pred
from repro.logiql.compiler import RhsTest, start_pred
from repro.meta.metaengine import MetaEngine
from repro.runtime.constraints import ConstraintChecker
from repro.runtime.errors import UnknownPredicate
from repro.storage.relation import Relation
from repro.storage.schema import Schema


class ProgramArtifacts:
    """Compiled program: combined rules, engines, checkers, metadata.

    The rules are the blocks' own :class:`Rule` objects, so their plan
    memos survive every program edit that keeps their block.
    """

    def __init__(self, blocks):
        self.blocks = blocks  # PMap name -> CompiledBlock
        self.rules = []
        self.reactive_rules = []
        self.constraints = []
        self.directives = []
        self.predict_rules = []
        self.prob_rules = []
        decls = {}
        entities = {}
        for _, block in blocks.items():
            self.rules.extend(block.rules)
            self.reactive_rules.extend(block.reactive_rules)
            self.constraints.extend(block.constraints)
            self.directives.extend(block.directives)
            self.predict_rules.extend(block.predict_rules)
            self.prob_rules.extend(block.prob_rules)
            for decl in block.decls:
                decls[decl.name] = decl
            for entity in block.entities:
                entities[entity.name] = entity
        self.schema = Schema(decls, entities)

        # split facts (ground empty-body rules on otherwise rule-less
        # predicates) from genuine derivation rules
        rule_heads = {
            r.head_pred for r in self.rules if r.body or not _is_ground(r)
        }
        self.facts = {}
        derivation_rules = []
        for rule in self.rules:
            if not rule.body and _is_ground(rule) and rule.head_pred not in rule_heads:
                self.facts.setdefault(rule.head_pred, set()).add(
                    tuple(a.value for a in rule.head_args)
                )
            else:
                derivation_rules.append(rule)
        self.derivation_rules = derivation_rules
        assert not any(isinstance(atom, RhsTest) for rule in derivation_rules
                       for atom in rule.body), "a constraint's filter in a user rule"

        # the engine also derives every constraint's violation view
        self.checker = ConstraintChecker(self.constraints)
        self.ruleset = RuleSet(derivation_rules + [
            rule for constraint in self.checker.constraints for rule in constraint.rules
        ])
        self.engine = IncrementalEngine(self.ruleset)
        self.solve_variable_preds = {
            d.args[0].name
            for d in self.directives
            if d.name == "lang:solve:variable" and d.args
        }
        self.prob_head_preds = {rule.head_pred for rule in self.prob_rules}
        self.arities = self._infer_arities()
        self.edb_preds = {
            name
            for name in self.arities
            if name not in self.ruleset.derived
        }

    def _infer_arities(self):
        """Declared arities, then fact arities, then the first use of
        each predicate in a rule, constraint, predict or prob head or
        body."""
        arities = {decl.name: decl.arity for decl in self.schema.predicates()}
        for name, facts in self.facts.items():
            arities[name] = len(next(iter(facts)))
        uses = [(base_pred(rule.head_pred), len(rule.head_args), rule.body)
                for rule in self.derivation_rules + self.reactive_rules]
        uses += [(None, None, c.lhs + c.rhs) for c in self.constraints]
        uses += [(p.head_pred, p.n_keys + 1, p.body) for p in self.predict_rules]
        uses += [(p.head_pred, len(p.head_args) + 1, p.body) for p in self.prob_rules]
        for head, arity, body in uses:
            if head is not None:
                arities.setdefault(head, arity)
            for atom in body:
                if isinstance(atom, PredAtom) and atom.pred[0] != "@":
                    arities.setdefault(base_pred(atom.pred), len(atom.args))
        return arities

    def arity_of(self, name):
        """Declared or inferred arity of a predicate."""
        return self.arities.get(base_pred(name))


def _is_ground(rule):
    return all(isinstance(a, Const) for a in rule.head_args)


class WorkspaceState:
    """One immutable snapshot of logic + data + materialization.

    ``meta_state`` is the meta-engine's materialization of the program
    (paper §3.3); it travels with the state so branches see consistent
    program metadata.
    """

    __slots__ = ("artifacts", "base_relations", "materialization", "meta_state")

    def __init__(self, artifacts, base_relations, materialization, meta_state):
        self.artifacts = artifacts
        self.base_relations = base_relations  # PMap name -> Relation
        self.materialization = materialization
        self.meta_state = meta_state

    @classmethod
    def empty(cls):
        """The initial, empty workspace state."""
        artifacts = ProgramArtifacts(PMap.EMPTY)
        mat = artifacts.engine.initialize({})
        return cls(artifacts, PMap.EMPTY, mat, MetaEngine().initial())

    @property
    def relations(self):
        """All current relations (base and derived)."""
        return self.materialization.relations

    def relation(self, name):
        """The current extension of ``name`` (empty if never written)."""
        relation = self.materialization.relations.get(name)
        if relation is not None:
            return relation
        arity = self.artifacts.arity_of(name)
        if arity is None:
            raise UnknownPredicate(name)
        return Relation.empty(arity)

    def env_with_defaults(self):
        """Relation environment defaulting unknown predicates to empty."""
        env = dict(self.materialization.relations)
        for name, arity in self.artifacts.arities.items():
            if name not in env:
                env[name] = Relation.empty(arity)
        return env

    def start_env(self):
        """The ``@start`` environment reactive rules evaluate against."""
        return {start_pred(name): relation
                for name, relation in self.env_with_defaults().items()}

"""Query planning for leapfrog triejoin (paper §3.2).

"When joins are evaluated using LFTJ, query optimization essentially
boils down to choosing a good variable order."  The planner:

* picks (or validates) a global variable order;
* rewrites repeated variables within an atom into fresh variables plus
  equality bindings (``R(x, x)`` becomes ``R(x, y), y := x``);
* assigns each positive atom a storage permutation — constants first
  (the virtual ``Const`` predicate trick), then its variables in global
  order (a secondary index when that differs from the declared column
  order), then trailing wildcard columns handled existentially;
* attaches comparison and negation filters, and arithmetic assignments,
  to the earliest level at which they are fully bound, a predicate
  filter as a :class:`Probe` (an anti-seek cursor when it can be one).

A plan depends on where a rule's constants sit, not on their values: a
rule compiled for a cached query shape plans once with
:class:`~repro.engine.ir.Param` slots, and :meth:`Plan.bind` puts each
call's values into a copy.
"""

import copy
import itertools

from repro.ds import treap
from repro.engine.ir import AssignAtom, CompareAtom, Const, Param, PredAtom, Var, bind
from repro.engine.iterators import trie_iterator
from repro.storage.datum import TOP


class AtomPlan:
    """Execution shape of one positive atom."""

    __slots__ = ("pred", "perm", "const_prefix", "levels")

    def __init__(self, pred, perm, const_prefix, levels):
        self.pred = pred
        self.perm = tuple(perm)
        self.const_prefix = tuple(const_prefix)
        self.levels = tuple(levels)  # global level index per variable level

    def __repr__(self):
        return "AtomPlan({}, perm={}, consts={}, levels={})".format(
            self.pred, self.perm, self.const_prefix, self.levels
        )


def _values(args, bindings):
    return tuple(bindings[a.name] if type(a) is Var else a for a in args)


def same_columns(args, perm, start):
    """``(i, j)`` pairs of permuted columns, from ``start`` on, that
    hold one variable: a free variable repeated in an atom is one
    existential, so its columns must agree."""
    first, pairs = {}, []
    for column in range(start, len(perm)):
        name = args[perm[column]].name
        if name in first:
            pairs.append((first[name], column))
        else:
            first[name] = column
    return tuple(pairs)


def prefix_exists(relation, perm, prefix, same=()):
    """True iff ``relation`` permuted by ``perm`` holds a tuple that
    starts with ``prefix`` and agrees on each column pair of ``same``
    (:func:`same_columns`)."""
    if not same:
        return trie_iterator(relation, perm, prefix).check_fixed_prefix()
    depth = len(prefix)
    for tup, _ in treap.items_from(relation.index_root(perm), prefix):
        if tup[:depth] != prefix:
            break
        if all(tup[i] == tup[j] for i, j in same):
            return True
    return False


class Probe:
    """A predicate atom checked as a filter: present (or, negated,
    absent) under its bound columns, unbound local columns existential
    (one repeated free variable's columns agreeing, ``same``).  ``perm``
    lists the bound positions in argument order, then the free ones;
    ``args`` holds each bound position's :class:`Var` or constant.  An
    anti-seek (a negated atom whose level variable ``var`` occurs in it
    once, and with no repeated free variable) has ``cursor_perm``:
    ``args[lead]``'s columns, ``var``'s, the free ones."""

    __slots__ = ("pred", "negated", "perm", "args", "same", "var", "cursor_perm", "lead")

    def __init__(self, pred, negated, perm, args, same):
        self.pred, self.negated, self.perm, self.args, self.same = pred, negated, perm, args, same
        self.var, self.cursor_perm, self.lead = None, (), ()

    def holds(self, relations, recorder, bindings):
        prefix = _values(self.args, bindings)
        if recorder is not None:
            recorder.record_prefix(self.pred, self.perm, prefix)
        relation = relations[self.pred]
        if len(prefix) == len(self.perm):
            return (prefix in relation) is not self.negated
        return prefix_exists(relation, self.perm, prefix, self.same) is not self.negated

    def cursor(self, relations, recorder, stats, bindings, opened):
        """The anti-seek check of the level's ascending candidates under
        one parent binding: the trie opened once at the prefix bound above
        the level (``opened[self]``, the run's last iterator, when it has
        that prefix), sought forward only past keys below a candidate.
        ``anti_seeks`` counts the open and the seeks."""
        prefix = _values([self.args[i] for i in self.lead], bindings)
        it = opened.get(self)
        if it is None or it.context() != prefix:
            it = opened[self] = trie_iterator(relations[self.pred], self.cursor_perm, prefix)
        else:
            it.up()
        it.open()
        if stats is not None:
            stats["anti_seeks"] = stats.get("anti_seeks", 0) + 1
        var, key = self.var, TOP if it.at_end() else it.key()

        def holds(bindings):
            nonlocal key
            if recorder is not None:
                recorder.record_prefix(self.pred, self.perm, _values(self.args, bindings))
            value = bindings[var]
            if key < value:
                if stats is not None:
                    stats["anti_seeks"] += 1
                key = it.seek(value)
            return key != value

        return holds

    def bind(self, params):
        bound = copy.copy(self)
        bound.args = tuple(a.value_in(params) if isinstance(a, Param) else a for a in self.args)
        return bound


def _filter_probe(atom, level_of, var_order):
    """``(level, probe)``: the :class:`Probe` of ``atom`` and the level
    that binds its last variable (-1 when none does)."""
    args = atom.args
    perm = [i for i, a in enumerate(args) if isinstance(a, Const) or a.name in level_of]
    free = [i for i in range(len(args)) if i not in perm]
    probe = Probe(atom.pred, atom.negated, tuple(perm + free), tuple(
        _const(args[i]) if isinstance(args[i], Const) else args[i] for i in perm),
        same_columns(args, perm + free, len(perm)))
    level = max((level_of[args[i].name] for i in perm if isinstance(args[i], Var)), default=-1)
    if atom.negated and level >= 0 and not probe.same:
        var = var_order[level]
        at_level = [n for n, i in enumerate(perm) if getattr(args[i], "name", None) == var]
        if len(at_level) == 1:
            probe.var, probe.lead = var, tuple(n for n in range(len(perm)) if n != at_level[0])
            probe.cursor_perm = tuple([perm[n] for n in probe.lead + tuple(at_level)] + free)
    return level, probe


class Plan:
    """A complete LFTJ execution plan for one rule body."""

    __slots__ = (
        "var_order",
        "atom_plans",
        "participants",
        "assigns",
        "filters",
        "ground_atoms",
        "ground_filters",
        "output_positions",
    )

    def __init__(self, var_order, atom_plans, assigns, filters, ground_atoms, ground_filters):
        self.var_order = tuple(var_order)
        self.atom_plans = atom_plans
        self.participants = [[] for _ in var_order]
        for atom_index, plan in enumerate(atom_plans):
            for own_level, global_level in enumerate(plan.levels):
                self.participants[global_level].append((atom_index, own_level))
        self.assigns = assigns  # level -> AssignAtom
        self.filters = filters  # level -> [CompareAtom | Probe]
        self.ground_atoms = ground_atoms  # Probes of fully-ground atoms
        self.ground_filters = ground_filters  # variable-free comparisons
        self.output_positions = None

    def bind(self, params):
        """This plan with every shape parameter bound to its value in
        ``params``: constant prefixes, filters, assignments and ground
        atoms.  The plan itself when there are no parameters."""
        if not params:
            return self
        atom_plans = [
            AtomPlan(
                ap.pred, ap.perm,
                [c.value_in(params) if isinstance(c, Param) else c
                 for c in ap.const_prefix],
                ap.levels)
            for ap in self.atom_plans
        ]
        return Plan(
            self.var_order,
            atom_plans,
            {level: bind(atom, params) for level, atom in self.assigns.items()},
            {level: [entry.bind(params) if isinstance(entry, Probe) else bind(entry, params)
                     for entry in entries] if entries else entries
             for level, entries in self.filters.items()},
            [probe.bind(params) for probe in self.ground_atoms],
            [bind(atom, params) for atom in self.ground_filters],
        )

    def needs_index(self, atom_plan):
        """True when the atom requires a non-identity secondary index."""
        return atom_plan.perm != tuple(range(len(atom_plan.perm)))

    def __repr__(self):
        return "Plan(vars={}, atoms={})".format(self.var_order, self.atom_plans)


class PlanError(ValueError):
    """Raised for unsafe or inconsistent rule bodies."""


def _rewrite_repeats(atoms):
    """Replace repeated variables within positive atoms by fresh ones."""
    rewritten = []
    extra = []
    fresh = itertools.count()
    for atom in atoms:
        if not isinstance(atom, PredAtom) or atom.negated:
            rewritten.append(atom)
            continue
        seen = set()
        new_args = []
        for arg in atom.args:
            if isinstance(arg, Var) and arg.name in seen:
                alias = "{}@{}".format(arg.name, next(fresh))
                new_args.append(Var(alias))
                extra.append(AssignAtom(alias, Var(arg.name)))
            else:
                if isinstance(arg, Var):
                    seen.add(arg.name)
                new_args.append(arg)
        if len(new_args) == len(atom.args) and all(
            a is b for a, b in zip(new_args, atom.args)
        ):
            rewritten.append(atom)
        else:
            rewritten.append(PredAtom(atom.pred, new_args, atom.negated))
    return rewritten + extra


def _const(term):
    """A constant argument's plan entry: its value, or the
    :class:`Param` itself for a shape's slot (bound per call)."""
    return term if isinstance(term, Param) else term.value


def _collect_vars(atoms):
    """All variable names, in first-appearance order."""
    order = []
    seen = set()

    def note(name):
        if name not in seen:
            seen.add(name)
            order.append(name)

    for atom in atoms:
        if isinstance(atom, PredAtom):
            for arg in atom.args:
                if isinstance(arg, Var):
                    note(arg.name)
        elif isinstance(atom, AssignAtom):
            for name in sorted(atom.input_vars()):
                note(name)
            note(atom.var)
        elif isinstance(atom, CompareAtom):
            for name in sorted(atom.var_names()):
                note(name)
    return order


def _bound_vars(atoms):
    """Variables bound by a positive atom or an assignment."""
    bound = set()
    for atom in atoms:
        if isinstance(atom, PredAtom) and not atom.negated:
            bound.update(a.name for a in atom.args if isinstance(a, Var))
        elif isinstance(atom, AssignAtom):
            bound.add(atom.var)
    return bound


def default_var_order(atoms, output_vars=()):
    """A safe default order: first appearance, assignments after inputs.

    Repeatedly emits the first not-yet-ordered variable whose assignment
    dependencies (if any) are satisfied.
    """
    atoms = _rewrite_repeats(list(atoms))
    appearance = _collect_vars(atoms)
    deps = {}
    for atom in atoms:
        if isinstance(atom, AssignAtom):
            deps.setdefault(atom.var, set()).update(atom.input_vars())
    ordered = []
    placed = set()
    remaining = list(appearance)
    while remaining:
        progress = False
        for name in remaining:
            if deps.get(name, set()) <= placed:
                ordered.append(name)
                placed.add(name)
                remaining.remove(name)
                progress = True
                break
        if not progress:
            raise PlanError("cyclic assignment dependencies among {}".format(remaining))
    return ordered


def build_plan(atoms, var_order=None, output_vars=()):
    """Build a :class:`Plan` for the given body atoms.

    ``output_vars`` are the variables the caller needs (head / answer
    variables); variables used once in a single atom and not output are
    handled existentially as trailing wildcards.
    """
    atoms = _rewrite_repeats(list(atoms))
    bound = _bound_vars(atoms)
    all_vars = _collect_vars(atoms)
    occurrences = {}
    for atom in atoms:
        names = set()
        if isinstance(atom, PredAtom):
            names = {a.name for a in atom.args if isinstance(a, Var)}
        elif isinstance(atom, AssignAtom):
            names = atom.input_vars() | {atom.var}
        elif isinstance(atom, CompareAtom):
            names = atom.var_names()
        for name in names:
            occurrences[name] = occurrences.get(name, 0) + 1
    for atom in atoms:
        if isinstance(atom, PredAtom) and atom.negated:
            # variables local to a negated atom are existential inside
            # the negation (prefix-absence test); shared unbound ones
            # are a safety error
            unbound = [
                a.name
                for a in atom.args
                if isinstance(a, Var)
                and a.name not in bound
                and occurrences.get(a.name, 0) > 1
            ]
            if unbound:
                raise PlanError(
                    "negated atom {} has unbound variables {}".format(atom, unbound)
                )
        elif isinstance(atom, CompareAtom):
            unbound = sorted(atom.var_names() - bound)
            if unbound:
                raise PlanError(
                    "comparison {} has unbound variables {}".format(atom, unbound)
                )
    for name in output_vars:
        if name not in bound and name in all_vars:
            raise PlanError("output variable {} is not bound by the body".format(name))

    # classify wildcard (existential) variables: used once, not output,
    # and not owned by an assignment or comparison
    output_set = set(output_vars)
    wildcards = {
        name
        for name, count in occurrences.items()
        if count == 1 and name not in output_set
    }
    for atom in atoms:
        if isinstance(atom, (AssignAtom, CompareAtom)):
            names = (
                atom.input_vars() | {atom.var}
                if isinstance(atom, AssignAtom)
                else atom.var_names()
            )
            wildcards -= names

    if var_order is None:
        var_order = [v for v in default_var_order(atoms, output_vars) if v not in wildcards]
    else:
        var_order = list(var_order)
        missing = [v for v in all_vars if v not in var_order and v not in wildcards]
        if missing:
            raise PlanError("variable order misses {}".format(missing))
    level_of = {name: level for level, name in enumerate(var_order)}

    atom_plans = []
    ground_atoms = []
    assigns = {}
    filters = {level: [] for level in range(len(var_order))}
    ground_filters = []

    for atom in atoms:
        if isinstance(atom, PredAtom):
            has_var = any(
                isinstance(arg, Var) and arg.name not in wildcards
                for arg in atom.args
            )
            if atom.negated or not has_var:
                level, probe = _filter_probe(atom, level_of, var_order)
                (filters[level] if level >= 0 else ground_atoms).append(probe)
                continue
            const_positions = [
                i for i, a in enumerate(atom.args) if isinstance(a, Const)
            ]
            var_positions = [
                (level_of[a.name], i)
                for i, a in enumerate(atom.args)
                if isinstance(a, Var) and a.name not in wildcards
            ]
            var_positions.sort()
            wildcard_positions = [
                i
                for i, a in enumerate(atom.args)
                if isinstance(a, Var) and a.name in wildcards
            ]
            perm = (
                const_positions
                + [pos for _, pos in var_positions]
                + wildcard_positions
            )
            const_prefix = [_const(atom.args[i]) for i in const_positions]
            levels = [level for level, _ in var_positions]
            atom_plans.append(AtomPlan(atom.pred, perm, const_prefix, levels))
        elif isinstance(atom, AssignAtom):
            level = level_of[atom.var]
            for name in atom.input_vars():
                if level_of[name] >= level:
                    raise PlanError(
                        "assignment {} uses variable bound later in order".format(atom)
                    )
            if level in assigns:
                raise PlanError(
                    "variable {} assigned more than once".format(atom.var)
                )
            assigns[level] = atom
        elif isinstance(atom, CompareAtom):
            names = atom.var_names()
            if not names:
                ground_filters.append(atom)
            else:
                filters[max(level_of[name] for name in names)].append(atom)
        else:
            raise PlanError("unknown atom type: {!r}".format(atom))

    plan = Plan(var_order, atom_plans, assigns, filters, ground_atoms, ground_filters)
    for level, name in enumerate(var_order):
        if not plan.participants[level] and level not in assigns:
            raise PlanError(
                "variable {} is bound by no iterator at its level".format(name)
            )
    return plan


# -- co-partition analysis (repro.shard) -------------------------------------
#
# When EDB relations are hash-partitioned across shard processes
# (:mod:`repro.shard`), a rule can be pushed shard-local exactly when
# every satisfying assignment is witnessed entirely by one shard's
# fragment.  The analysis below classifies each predicate's placement:
#
# * ``replicated`` — identical extension on every shard (non-partitioned
#   EDBs, and views derived only from replicated data);
# * ``keyed(col)`` — each row lives on exactly the shard owning
#   ``stable_hash(row[col])``: partitioned EDBs, and views that keep the
#   partition variable in their head;
# * ``scattered`` — the global extension is the union of the shard
#   extensions, but the same row may appear on several shards (the
#   partition variable was projected away);
# * ``partial_agg(fn)`` — each shard holds group *state* over its
#   fragment that the coordinator must re-combine (sum/count add,
#   min/max fold, avg from its (sum, count) — never from per-shard
#   means).
#
# A rule that cannot be evaluated shard-local-exactly under any of these
# readings is *broken* for the given partition spec — the coordinator
# refuses to install it, and answers a query containing it by exchange:
# fetching the base predicates of the query's dependency cone
# (:func:`repro.engine.rules.dependency_cone`) and evaluating there.

KEY_REPLICATED = "replicated"
KEY_KEYED = "keyed"
KEY_SCATTERED = "scattered"
KEY_PARTIAL_AGG = "partial_agg"
KEY_BROKEN = "broken"

_CLASS_RANK = {
    KEY_REPLICATED: 0,
    KEY_KEYED: 1,
    KEY_SCATTERED: 2,
    KEY_PARTIAL_AGG: 3,
    KEY_BROKEN: 3,
}


def base_pred(name):
    """The storage predicate behind a delta or versioned reference
    (``+p``, ``-p``, ``^p``, ``p@start`` all answer ``p``)."""
    while name and name[0] in "+-^":
        name = name[1:]
    if name.endswith("@start"):
        name = name[: -len("@start")]
    return name


class PredClass:
    """Placement of one predicate's rows across hash shards."""

    __slots__ = ("kind", "col", "fn")

    def __init__(self, kind, col=None, fn=None):
        self.kind = kind
        self.col = col
        self.fn = fn

    def __eq__(self, other):
        return (
            isinstance(other, PredClass)
            and self.kind == other.kind
            and self.col == other.col
            and self.fn == other.fn
        )

    def __hash__(self):
        return hash((self.kind, self.col, self.fn))

    def __repr__(self):
        if self.kind == KEY_KEYED:
            return "keyed({})".format(self.col)
        if self.kind == KEY_PARTIAL_AGG:
            return "partial_agg({})".format(self.fn)
        return self.kind


REPLICATED = PredClass(KEY_REPLICATED)
SCATTERED = PredClass(KEY_SCATTERED)
BROKEN = PredClass(KEY_BROKEN)


def _join_class(a, b):
    """Least placement covering two defining rules of the same head."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a.kind == KEY_BROKEN or b.kind == KEY_BROKEN:
        return BROKEN
    if a.kind == KEY_PARTIAL_AGG or b.kind == KEY_PARTIAL_AGG:
        # a partial aggregate cannot be unioned with rows from another
        # defining rule — the per-shard values are not final
        return BROKEN
    # replicated/keyed/keyed-elsewhere mixes all degrade to scattered:
    # the union is still exact, but rows repeat or move across shards
    return SCATTERED


class RuleAnchor:
    """How one rule touches partitioned data.

    ``kind`` is ``"var"`` (all shard-keyed atoms agree on one partition
    variable, named ``var``), ``"const"`` (they pin literal keys, listed
    in ``consts`` — the coordinator routes by hashing them, binding a
    shape's :class:`~repro.engine.ir.Param` first), or ``None`` for a
    rule that reads no partitioned data.
    """

    __slots__ = ("kind", "var", "consts")

    def __init__(self, kind=None, var=None, consts=()):
        self.kind = kind
        self.var = var
        self.consts = tuple(consts)

    def __repr__(self):
        if self.kind == "var":
            return "anchor(var={})".format(self.var)
        if self.kind == "const":
            return "anchor(consts={})".format(list(self.consts))
        return "anchor(none)"


class PartitionAnalysis:
    """Classification of a rule program against a partition spec.

    ``classes`` maps every head predicate (plus the seeded base
    predicates) to its :class:`PredClass`; ``broken`` lists
    ``(rule, reason)`` pairs for rules that are not shard-local-exact;
    ``anchors`` maps ``id(rule)`` to the rule's :class:`RuleAnchor`.
    """

    __slots__ = ("classes", "broken", "anchors")

    def __init__(self, classes, broken, anchors):
        self.classes = classes
        self.broken = broken
        self.anchors = anchors

    @property
    def copartitioned(self):
        """True when every rule can be pushed shard-local exactly."""
        return not self.broken

    def class_of(self, pred):
        return self.classes.get(base_pred(pred), REPLICATED)


def _rule_class(rule, classes, reasons):
    """Transfer function: the head placement one rule induces, given the
    current placement of its body predicates.  Appends a reason string
    to ``reasons`` when the rule is broken, and returns
    ``(pred_class, anchor)``."""
    positive_vars = set()
    positive_consts = []
    negated_keys = []
    scattered_dep = False
    for atom in rule.body:
        if not isinstance(atom, PredAtom):
            continue
        cls = classes.get(base_pred(atom.pred), REPLICATED)
        if cls.kind == KEY_BROKEN:
            reasons.append(
                "body predicate {} is not shard-local".format(atom.pred))
            return BROKEN, RuleAnchor()
        if cls.kind == KEY_PARTIAL_AGG:
            reasons.append(
                "partial aggregate {} consumed by a rule body (per-shard "
                "values are not final)".format(atom.pred))
            return BROKEN, RuleAnchor()
        if cls.kind == KEY_SCATTERED:
            if atom.negated:
                reasons.append(
                    "negation over scattered predicate {} (local absence is "
                    "not global absence)".format(atom.pred))
                return BROKEN, RuleAnchor()
            scattered_dep = True
            continue
        if cls.kind != KEY_KEYED:
            continue
        if cls.col >= len(atom.args):
            reasons.append(
                "atom {} is narrower than its partition column".format(atom))
            return BROKEN, RuleAnchor()
        term = atom.args[cls.col]
        if atom.negated:
            negated_keys.append((atom, term))
        elif isinstance(term, Var):
            positive_vars.add(term.name)
        elif isinstance(term, Const):
            positive_consts.append(_const(term))
    if not positive_vars and not positive_consts:
        if negated_keys:
            reasons.append(
                "negated shard-keyed atom {} has no positive partition "
                "anchor".format(negated_keys[0][0]))
            return BROKEN, RuleAnchor()
        if scattered_dep:
            if rule.agg is not None:
                reasons.append(
                    "aggregate over scattered rows double-counts across "
                    "shards")
                return BROKEN, RuleAnchor()
            return SCATTERED, RuleAnchor()
        return REPLICATED, RuleAnchor()
    if scattered_dep:
        reasons.append(
            "rule joins shard-keyed atoms with scattered rows (the "
            "scattered side may live on another shard)")
        return BROKEN, RuleAnchor()
    if positive_vars and positive_consts:
        reasons.append(
            "rule mixes variable and literal partition keys")
        return BROKEN, RuleAnchor()
    if len(positive_vars) > 1:
        reasons.append(
            "atoms partitioned on different variables {}".format(
                sorted(positive_vars)))
        return BROKEN, RuleAnchor()
    if positive_consts:
        # derivations are confined to the shard(s) owning the literal
        # keys; the coordinator verifies they co-reside (it knows N)
        key_consts = list(positive_consts)
        for atom, term in negated_keys:
            if not isinstance(term, Const):
                reasons.append(
                    "negated shard-keyed atom {} is not pinned to a literal "
                    "key alongside literal positive anchors".format(atom))
                return BROKEN, RuleAnchor()
            key_consts.append(_const(term))
        anchor = RuleAnchor("const", consts=key_consts)
        return SCATTERED, anchor
    k = next(iter(positive_vars))
    for atom, term in negated_keys:
        if not (isinstance(term, Var) and term.name == k):
            reasons.append(
                "negated shard-keyed atom {} is not keyed by the partition "
                "variable {}".format(atom, k))
            return BROKEN, RuleAnchor()
    anchor = RuleAnchor("var", var=k)
    if rule.agg is not None:
        group_args = rule.head_args[: rule.n_keys]
        for col, arg in enumerate(group_args):
            if isinstance(arg, Var) and arg.name == k:
                return PredClass(KEY_KEYED, col=col), anchor
        return PredClass(KEY_PARTIAL_AGG, fn=rule.agg.fn), anchor
    for col, arg in enumerate(rule.head_args):
        if isinstance(arg, Var) and arg.name == k:
            return PredClass(KEY_KEYED, col=col), anchor
    return SCATTERED, anchor


def classify_rules(rules, partition, seed_classes=None):
    """Classify a rule program's predicates against a partition spec.

    ``partition`` maps partitioned base predicates to their key column;
    ``seed_classes`` carries placements of already-installed predicates
    (so a query program can be analysed on top of an installed one).
    Any predicate with no class and no rules is replicated — it is a
    non-partitioned EDB, present in full on every shard.

    Returns a :class:`PartitionAnalysis`.  The fixpoint starts every
    head at the bottom of the ``replicated < keyed < scattered <
    broken`` lattice and re-applies the per-rule transfer function until
    placements stabilize, so mutually recursive rules are handled
    soundly (monotone joins on a finite lattice).
    """
    from repro.engine.rules import stratify

    classes = {}
    for pred, col in (partition or {}).items():
        classes[pred] = PredClass(KEY_KEYED, col=col)
    if seed_classes:
        for pred, cls in seed_classes.items():
            classes.setdefault(pred, cls)
    rules_of = {}
    for rule in rules:
        rules_of.setdefault(base_pred(rule.head_pred), []).append(rule)
    broken = []
    anchors = {}
    strata, _ = stratify(rules)
    ordered_heads = [base_pred(p) for stratum in strata for p in stratum]
    seen_heads = set()
    component_of = {}
    for index, stratum in enumerate(strata):
        for pred in stratum:
            component_of[base_pred(pred)] = index
    for head in ordered_heads:
        if head in seen_heads:
            continue
        component = [
            p for p in ordered_heads
            if component_of[p] == component_of[head] and p not in seen_heads
        ]
        seen_heads.update(component)
        for pred in component:
            classes[pred] = None
        changed = True
        while changed:
            changed = False
            for pred in component:
                merged = None
                for rule in rules_of.get(pred, ()):
                    lookup = dict(classes)
                    for member in component:
                        if lookup.get(member) is None:
                            lookup[member] = REPLICATED
                    cls, _ = _rule_class(rule, lookup, [])
                    merged = _join_class(merged, cls)
                before = classes.get(pred)
                after = merged if merged is not None else REPLICATED
                if before is not None and _CLASS_RANK[after.kind] < _CLASS_RANK[before.kind]:
                    after = before  # placements only move up the lattice
                if after != before:
                    classes[pred] = after
                    changed = True
        # reasons and anchors come from one pass over the *stabilized*
        # placements — intermediate fixpoint iterations see optimistic
        # classes and would report breakage that later resolves
        for pred in component:
            for rule in rules_of.get(pred, ()):
                reasons = []
                _, anchor = _rule_class(rule, classes, reasons)
                anchors[id(rule)] = anchor
                if reasons:
                    broken.append((rule, reasons[0]))
    return PartitionAnalysis(classes, broken, anchors)

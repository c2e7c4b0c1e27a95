"""``predict`` P2P rules: learn and eval modes (paper §2.3.2).

Learning mode (e.g. ``SM[sku, store] = m <- predict m = logist(v|f)
Sales[sku, store, wk] = v, Feature[sku, store, n] = f.``): for every
binding of the head keys a model is fitted over the *examples* (the
extra key variables of the target atom — ``wk`` above) with *features*
indexed by the extra key variables of the feature atom (``n`` above).
The fitted model is stored behind an opaque string handle in the head
predicate, exactly the paper's "model object (which is a handle to a
representation of the model)".

Evaluation mode (``predict v = eval(m|f)``): the target variable binds
a model handle; the result is the model's prediction on the assembled
feature vector.
"""

import itertools

from repro.engine.ir import Const, PredAtom, Var
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.planner import build_plan
from repro.ml.linreg import LinearRegression
from repro.ml.logistic import LogisticRegression
from repro.ml.naive_bayes import GaussianNaiveBayes


class ModelStore:
    """Process-wide registry mapping string handles to model objects."""

    _models = {}
    _counter = itertools.count(1)

    @classmethod
    def register(cls, model):
        """Store a model; returns its handle."""
        handle = "model:{}".format(next(cls._counter))
        cls._models[handle] = model
        return handle

    @classmethod
    def get(cls, handle):
        """Resolve a handle back to the model."""
        return cls._models[handle]


_LEARNERS = {
    "logist": LogisticRegression,
    "linear": LinearRegression,
    "nb": GaussianNaiveBayes,
}


class PredictError(ValueError):
    """Malformed predict rule or unusable training data."""


def _atom_binding_var(body, var_name):
    """The atom whose last argument binds ``var_name``."""
    for atom in body:
        if isinstance(atom, PredAtom) and atom.args:
            last = atom.args[-1]
            if isinstance(last, Var) and last.name == var_name:
                return atom
    raise PredictError("no atom binds predict variable {}".format(var_name))


def _key_vars(atom, exclude):
    names = []
    for arg in atom.args[:-1]:
        if isinstance(arg, Var) and arg.name not in exclude and arg.name not in names:
            names.append(arg.name)
    return names


def evaluate_predict_rule(rule, relations):
    """Evaluate one :class:`PredictRule`; returns head tuples."""
    group_vars = [a.name for a in rule.head_keys if isinstance(a, Var)]
    target_atom = _atom_binding_var(rule.body, rule.target_var)
    feature_atom = _atom_binding_var(rule.body, rule.feature_var)
    example_vars = _key_vars(target_atom, set(group_vars))
    feature_name_vars = _key_vars(
        feature_atom, set(group_vars) | set(example_vars)
    )
    needed = (
        set(group_vars)
        | set(example_vars)
        | set(feature_name_vars)
        | {rule.target_var, rule.feature_var}
    )
    plan = build_plan(rule.body, output_vars=sorted(needed))
    order = list(plan.var_order)
    positions = {name: order.index(name) for name in needed if name in order}

    def values(binding, names):
        return tuple(binding[positions[name]] for name in names)

    groups = {}
    for binding in LeapfrogTrieJoin(plan, relations).run():
        group = values(binding, group_vars)
        example = values(binding, example_vars)
        feature_name = values(binding, feature_name_vars)
        entry = groups.setdefault(group, {"targets": {}, "features": {}})
        entry["targets"][example] = binding[positions[rule.target_var]]
        entry["features"].setdefault(example, {})[feature_name] = binding[
            positions[rule.feature_var]
        ]

    head_tuples = []
    if rule.fn == "eval":
        for group, entry in sorted(groups.items()):
            for example in sorted(entry["targets"]):
                handle = entry["targets"][example]
                model = ModelStore.get(handle)
                features = _feature_vector(entry["features"], example)
                prediction = float(model.predict([features])[0])
                head_tuples.append(group + example + (prediction,))
        return head_tuples

    learner_cls = _LEARNERS.get(rule.fn)
    if learner_cls is None:
        raise PredictError("unknown predict function {!r}".format(rule.fn))
    for group, entry in sorted(groups.items()):
        names = sorted({n for fs in entry["features"].values() for n in fs})
        X, y = [], []
        for example in sorted(entry["targets"]):
            feature_map = _example_features(entry["features"], example)
            X.append([feature_map.get(n, 0.0) for n in names])
            y.append(entry["targets"][example])
        if not X:
            continue
        if rule.fn == "logist":
            mean = sum(y) / len(y)
            distinct = set(y)
            if distinct <= {0, 1, 0.0, 1.0, True, False}:
                targets = [float(v) for v in y]
            else:
                # continuous targets: learn the probability of being
                # above the group mean (documented behaviour)
                targets = [1.0 if v > mean else 0.0 for v in y]
            model = learner_cls().fit(X, targets)
        else:
            model = learner_cls().fit(X, y)
        head_tuples.append(group + (ModelStore.register(model),))
    return head_tuples


def _example_features(features, example):
    merged = dict(features.get((), {}))
    merged.update(features.get(example, {}))
    return merged


def _feature_vector(features, example):
    merged = _example_features(features, example)
    return [merged[name] for name in sorted(merged)]


def run_predict_rules(workspace):
    """Evaluate every predict rule of the workspace and load results.

    Learning rules (re)populate their model-handle predicates; eval
    rules (re)populate prediction predicates.  Returns the set of
    predicates written.
    """
    artifacts = workspace.state.artifacts
    written = set()
    for rule in artifacts.predict_rules:
        relations = workspace.state.env_with_defaults()
        tuples = evaluate_predict_rule(rule, relations)
        existing = list(workspace.relation(rule.head_pred))
        workspace.load(rule.head_pred, tuples, remove=existing)
        written.add(rule.head_pred)
    return written

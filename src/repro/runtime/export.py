"""Workspace data export/import.

The paper's deployments load terabytes from enterprise feeds; this is
the reproduction's bulk I/O path: dump the base predicates of a
workspace to a JSON document (logic travels as LogiQL source alongside)
and load them back through the normal transactional machinery.
"""

import json

from repro.storage.datum import PrimitiveType


def _encode_value(value):
    if isinstance(value, bool):
        return {"b": value}
    if isinstance(value, (int, float, str)):
        return value
    raise TypeError("cannot export value {!r}".format(value))


def _decode_value(value):
    if isinstance(value, dict) and "b" in value:
        return bool(value["b"])
    return value


def export_data(workspace, predicates=None):
    """Serialize base-predicate contents to a JSON string.

    ``predicates`` restricts the export; the default is every base
    predicate with data.
    """
    state = workspace.state
    derived = state.artifacts.ruleset.derived
    payload = {}
    for name, relation in sorted(state.base_relations.items()):
        if name in derived:
            continue
        if predicates is not None and name not in predicates:
            continue
        if not relation:
            continue
        payload[name] = [
            [_encode_value(value) for value in tup] for tup in relation
        ]
    return json.dumps({"version": 1, "data": payload}, indent=1, sort_keys=True)


def import_data(workspace, text, replace=False):
    """Load a JSON export into ``workspace`` as ONE transaction.

    Atomicity matters: imported predicates typically reference each
    other's entities, so they must arrive together (and a constraint
    violation aborts the whole import, as does a derived predicate in
    the document: :class:`~repro.runtime.errors.TransactionAborted`).
    With ``replace=True`` each imported predicate's prior contents are
    removed first.  Returns the set of predicates written.
    """
    from repro.storage.relation import Delta

    document = json.loads(text)
    if document.get("version") != 1:
        raise ValueError("unsupported export version")
    deltas = {}
    for name, rows in sorted(document["data"].items()):
        tuples = [tuple(_decode_value(value) for value in row) for row in rows]
        removals = list(workspace.relation(name)) if replace else ()
        deltas[name] = Delta.from_iters(tuples, removals)
    if deltas:
        workspace._apply_deltas(workspace.state, deltas)
    return set(deltas)


def export_logic(workspace):
    """The installed blocks as a ``{name: source}`` map.

    Blocks compile from source once and the compiled form is what the
    workspace stores, so this returns a reconstruction: predicates
    redeclared from the schema plus each block's rules re-rendered.
    For faithful round-trips keep your LogiQL sources; this is a
    debugging aid.
    """
    state = workspace.state
    return {
        "blocks": sorted(name for name, _ in state.artifacts.blocks.items()),
        "predicates": [repr(d) for d in state.artifacts.schema.predicates()],
        "rules": [repr(r) for r in state.artifacts.derivation_rules],
        "constraints": [c.text for c in state.artifacts.constraints],
    }

"""6NF predicate schemas (paper §2.2.1, theme T2).

A predicate is either relational ``R(x1, ..., xn)`` or functional
``R[x1, ..., xn-1] = xn`` (at most one non-key attribute — sixth normal
form).  Predicates are base (EDB) or derived (IDB); when the user does
not declare the kind it is inferred from usage by the meta-engine
(§3.3's ``lang_edb`` meta-rule).
"""

import enum

from repro.storage.datum import PrimitiveType


class PredicateKind(enum.Enum):
    """Base (extensional) vs derived (intensional) predicates."""

    BASE = "base"
    DERIVED = "derived"


class EntityType:
    """A user-defined entity type with an explicit population.

    The population is the set of entity values (e.g. product names);
    declaring ``Product(p)`` as an entity type makes ``Product`` a unary
    base predicate holding the population.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, EntityType) and other.name == self.name

    def __hash__(self):
        return hash(("entity", self.name))

    def __repr__(self):
        return "EntityType({})".format(self.name)


class PredicateDecl:
    """Declaration of one predicate: name, argument types, kind, shape."""

    __slots__ = ("name", "arg_types", "n_keys", "kind", "is_functional")

    def __init__(self, name, arg_types, n_keys=None, kind=None, is_functional=False):
        self.name = name
        self.arg_types = tuple(arg_types)
        self.is_functional = is_functional
        if n_keys is None:
            n_keys = len(self.arg_types) - 1 if is_functional else len(self.arg_types)
        self.n_keys = n_keys
        self.kind = kind

    @property
    def arity(self):
        """Total number of attributes (keys plus value)."""
        return len(self.arg_types)

    def with_kind(self, kind):
        """A copy of this declaration with the predicate kind fixed."""
        return PredicateDecl(self.name, self.arg_types, self.n_keys, kind, self.is_functional)

    def __eq__(self, other):
        return (
            isinstance(other, PredicateDecl)
            and other.name == self.name
            and other.arg_types == self.arg_types
            and other.n_keys == self.n_keys
            and other.kind == self.kind
            and other.is_functional == self.is_functional
        )

    def __hash__(self):
        return hash((self.name, self.arg_types, self.n_keys, self.kind, self.is_functional))

    def __repr__(self):
        if self.is_functional:
            keys = ", ".join(str(t) for t in self.arg_types[: self.n_keys])
            return "{}[{}] = {}".format(self.name, keys, self.arg_types[-1])
        return "{}({})".format(self.name, ", ".join(str(t) for t in self.arg_types))


class Schema:
    """An immutable catalogue of predicate and entity declarations."""

    __slots__ = ("_predicates", "_entities")

    def __init__(self, predicates=None, entities=None):
        self._predicates = dict(predicates or {})
        self._entities = dict(entities or {})

    def declare(self, decl):
        """Return a new schema including ``decl`` (replaces same name)."""
        predicates = dict(self._predicates)
        predicates[decl.name] = decl
        return Schema(predicates, self._entities)

    def declare_entity(self, entity_type):
        """Return a new schema including an entity type."""
        entities = dict(self._entities)
        entities[entity_type.name] = entity_type
        return Schema(self._predicates, entities)

    def drop(self, name):
        """Return a new schema without predicate ``name``."""
        predicates = dict(self._predicates)
        predicates.pop(name, None)
        return Schema(predicates, self._entities)

    def get(self, name):
        """The declaration for ``name``, or ``None``."""
        return self._predicates.get(name)

    def entity(self, name):
        """The entity type ``name``, or ``None``."""
        return self._entities.get(name)

    def is_entity(self, name):
        """True iff ``name`` is a declared entity type."""
        return name in self._entities

    def predicates(self):
        """All declarations, sorted by predicate name."""
        return [self._predicates[name] for name in sorted(self._predicates)]

    def __contains__(self, name):
        return name in self._predicates

    def __len__(self):
        return len(self._predicates)

    def __repr__(self):
        return "Schema({} predicates, {} entities)".format(
            len(self._predicates), len(self._entities)
        )


# convenience aliases used throughout tests and examples
INT = PrimitiveType.INT
FLOAT = PrimitiveType.FLOAT
DECIMAL = PrimitiveType.DECIMAL
STRING = PrimitiveType.STRING
BOOLEAN = PrimitiveType.BOOLEAN
DATE = PrimitiveType.DATE

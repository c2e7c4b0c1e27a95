"""Version graph: O(1) branching over persistent state.

A :class:`Version` is an immutable snapshot (any persistent value — in
the runtime it is a ``PMap`` of predicate name to relation plus program
metadata) together with its parentage.  Branching stores no copies:
creating a branch is allocating one small object holding a reference to
the shared state (paper §1.1 T4: "each transaction starts by branching a
version of the database in O(1) time").

The graph may be an arbitrary DAG: merges record both parents.  The DAG
is recorded as ids (``parent_ids``), not references, so a version never
keeps its ancestors alive: a superseded state is freed as soon as no
head, snapshot, pending transaction or caller holds it.  Time travel
branches any version a caller still holds.  Aborting a branch is
dropping the reference; there is no undo log.
"""

import itertools

_version_counter = itertools.count(1)


def ensure_version_counter(minimum):
    """Guarantee that future version ids exceed ``minimum``.

    Called after restoring a checkpoint's branch heads, with the
    highest head id, so ids minted by new transactions never collide
    with restored ones (or with the ancestors they had, all lower).
    """
    global _version_counter
    current = next(_version_counter)
    _version_counter = itertools.count(max(current, minimum + 1))


class Version:
    """One immutable snapshot in the version DAG."""

    __slots__ = ("id", "state", "parent_ids", "label")

    def __init__(self, state, parent_ids=(), label=None):
        self.id = next(_version_counter)
        self.state = state
        self.parent_ids = tuple(parent_ids)
        self.label = label

    @classmethod
    def restore(cls, vid, state):
        """Rebuild a branch head with its checkpointed id.

        A checkpoint persists branch heads only, so a restored head has
        no parents: time-traveling to a version committed before the
        checkpoint requires a caller of the original process to hold it.
        """
        version = cls.__new__(cls)
        version.id = vid
        version.state = state
        version.parent_ids = ()
        version.label = None
        return version

    def branch(self, label=None):
        """O(1): a child version sharing this version's state."""
        return Version(self.state, parent_ids=(self.id,), label=label)

    def commit(self, new_state, label=None):
        """A child version carrying updated state."""
        return Version(new_state, parent_ids=(self.id,), label=label)

    def merge(self, other, merged_state, label=None):
        """A version with two parents (workbook merge, repair commit)."""
        return Version(merged_state, parent_ids=(self.id, other.id), label=label)

    def __repr__(self):
        tag = self.label or "v{}".format(self.id)
        return "Version({})".format(tag)


class VersionGraph:
    """Named heads over a version DAG (the branch namespace).

    Mirrors the paper's workbook/branch facility: named branches that
    can be created, advanced, merged, and deleted.  The graph holds its
    heads only; versions name their parents by id.  Advancing a branch
    or deleting it drops a head reference, and the unshared structure of
    a state nobody else holds is reclaimed automatically —
    Python's memory management plays the role of the paper's internal
    persistence framework.  :meth:`branch_version` time-travels to any
    version a caller holds.
    """

    def __init__(self, initial_state, root_name="main"):
        root = Version(initial_state, label=root_name)
        self._heads = {root_name: root}
        self.root_name = root_name

    @classmethod
    def restore(cls, heads, root_name="main"):
        """Rebuild a graph from restored head versions (no new ids)."""
        graph = cls.__new__(cls)
        graph._heads = dict(heads)
        graph.root_name = root_name
        return graph

    def head(self, name="main"):
        """Current head version of branch ``name``."""
        return self._heads[name]

    def heads(self):
        """Branch name → head version (a copy; safe to iterate)."""
        return dict(self._heads)

    def branches(self):
        """Sorted list of branch names."""
        return sorted(self._heads)

    def branch(self, from_name, new_name):
        """Create branch ``new_name`` from ``from_name``'s head — O(1)."""
        if new_name in self._heads:
            raise ValueError("branch exists: {}".format(new_name))
        self._heads[new_name] = self._heads[from_name].branch(label=new_name)
        return self._heads[new_name]

    def branch_version(self, version, new_name):
        """Branch directly from a past version the caller holds (time travel)."""
        if new_name in self._heads:
            raise ValueError("branch exists: {}".format(new_name))
        self._heads[new_name] = version.branch(label=new_name)
        return self._heads[new_name]

    def advance(self, name, new_state):
        """Commit ``new_state`` onto branch ``name``; returns new head."""
        self._heads[name] = self._heads[name].commit(new_state, label=name)
        return self._heads[name]

    def move_head(self, name, version):
        """Point branch ``name`` at an existing version (commit swap)."""
        self._heads[name] = version

    def delete_branch(self, name):
        """Drop branch ``name`` (its unshared state becomes garbage)."""
        if name == self.root_name:
            raise ValueError("cannot delete the root branch")
        del self._heads[name]

    def __contains__(self, name):
        return name in self._heads

    def __repr__(self):
        return "VersionGraph({})".format(", ".join(self.branches()))

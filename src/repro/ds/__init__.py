"""Persistent (purely functional) data structures.

This package is the bottom layer of the system (paper §3.1, theme T4):
deterministic treaps with the unique-representation property, persistent
sorted maps and sets built on them, version graphs with O(1) branching,
and structural diffing that prunes shared subtrees (``PMap.diff`` /
``PSet.diff``).
"""

from repro.ds.hashing import stable_hash
from repro.ds.pmap import PMap
from repro.ds.pset import PSet
from repro.ds.versions import Version, VersionGraph

__all__ = [
    "stable_hash",
    "PMap",
    "PSet",
    "Version",
    "VersionGraph",
]

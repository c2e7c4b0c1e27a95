"""Query engine: leapfrog triejoin, evaluation, incremental maintenance."""

from repro.engine.leapfrog import LeapfrogJoin
from repro.engine.lftj import LeapfrogTrieJoin
from repro.engine.sensitivity import SensitivityIndex, SensitivityRecorder

__all__ = [
    "LeapfrogJoin",
    "LeapfrogTrieJoin",
    "SensitivityIndex",
    "SensitivityRecorder",
]

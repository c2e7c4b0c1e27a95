"""Tests of the benchmark itself (not part of tier-1: pyproject's
``testpaths`` is ``tests``).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.normpath(os.path.join(E2E, "..", ".."))
for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)

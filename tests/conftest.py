"""Shared fixtures.

The engine picks every join's executor in one place,
:func:`repro.engine.columnar.choose_backend`.  A test that must see one
executor substitutes that decider instead of setting an option.
"""

import pytest

from repro.engine import columnar


@pytest.fixture
def force_executor(monkeypatch):
    """``force_executor(name)`` makes every join run on ``"pure"`` or
    ``"columnar"`` until the test ends or the next call; ``None`` hands
    the choice back to :func:`~repro.engine.columnar.choose_backend`.
    A run that records sensitivity still runs pure, and values that do
    not encode still fall back (:func:`~repro.engine.columnar.make_join`).
    """
    chooser = columnar.choose_backend

    def force(name):
        if name is None:
            monkeypatch.setattr(columnar, "choose_backend", chooser)
        else:
            monkeypatch.setattr(columnar, "choose_backend",
                                lambda plan, relations, recorder=None: (name, "forced"))

    return force

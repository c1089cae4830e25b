"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci replays the same examples on every run.

Every test must also leave the module-level limits of gates as it found
them, since later tests run in the same process.
"""

import os

import pytest
from hypothesis import settings

from gatecalc import gates

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

_IMPORT_LIMITS = {"WINDOW_CAP": gates.WINDOW_CAP, "_EMBED_BUDGET": gates._EMBED_BUDGET}


@pytest.fixture(autouse=True)
def _limits_are_restored():
    yield
    left = {name: getattr(gates, name) for name in _IMPORT_LIMITS}
    for name, value in _IMPORT_LIMITS.items():
        setattr(gates, name, value)  # so that only the leaking test fails
    assert left == _IMPORT_LIMITS, "the test left gates' limits changed"

"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci replays the same examples on every run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

"""Hypothesis profiles for the property tests.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and lifts
the per-example deadline, whose timing depends on the machine.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests import hypothesis themselves
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

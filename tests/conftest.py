"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs the property tests on a
fixed sequence of examples, so that they cannot flake; by default they draw new ones."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

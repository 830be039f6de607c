"""Shared test configuration.

Property tests run under a derandomized ``hypothesis`` profile: every run
draws the same examples, so the suite cannot flake on a new random draw.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

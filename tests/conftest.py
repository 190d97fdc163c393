"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no deadline,
so the suite gives the same result on every run and on slow hosts.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("deterministic")

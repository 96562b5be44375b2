"""Shared test settings.

Property tests run without Hypothesis's per-example deadline: on a small,
shared host one slow example is noise, not a failure.
"""

from hypothesis import settings

settings.register_profile("posp", deadline=None)
settings.load_profile("posp")

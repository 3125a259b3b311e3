"""Test-suite settings: one deterministic, bounded hypothesis profile."""

from hypothesis import settings

settings.register_profile(
    "ellgenus", derandomize=True, deadline=None, database=None, max_examples=25
)
settings.load_profile("ellgenus")

"""Test-suite settings: one deterministic, bounded hypothesis profile, and
empty series memos (chi_series, its exp factor and the local factors, each
per request and per key) at the start of every test."""

import pytest
from hypothesis import settings

from ellgenus import charclasses, genseries

settings.register_profile(
    "ellgenus", derandomize=True, deadline=None, database=None, max_examples=25
)
settings.load_profile("ellgenus")


@pytest.fixture(autouse=True)
def _cold_memos():
    """No test can pass on a value that an earlier test left in a memo."""
    genseries._hirzebruch_exp.cache_clear()
    charclasses._local_factor.cache_clear()
    genseries._chi_series.cache_clear()

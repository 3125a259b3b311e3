"""Test-suite settings: one deterministic, bounded hypothesis profile, and
empty caches (every cache of the loaded library, emptied as
``tools/bench_pairs.py`` empties them for its cold passes) at the start of
every test."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile(
    "ellgenus", derandomize=True, deadline=None, database=None, max_examples=25
)
settings.load_profile("ellgenus")

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
_bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_pairs)


@pytest.fixture(autouse=True)
def _cold_memos():
    """No test can pass on a value that an earlier test left in a cache."""
    _bench_pairs.clear_caches()

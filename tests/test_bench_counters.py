"""Every per-layer call counter of BENCHMARK.json that names a plain module
function, such as ``charclasses.todd_factor.calls``, names a public function
of that module.  The tracer in bench/tracing.py wraps only the functions it
finds, and a traced bench run whose counter has no function exits 2 with
"per-layer metrics not produced", so removing one of these functions breaks
the benchmark rather than leaving its counter at 0.  A counter that the
tracer fills only from renamed functions (``cli.parse_input``) needs one of
them to stay a public function of its module."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
COUNTERS = [m["name"][: -len(".calls")] for m in PER_LAYER if m["name"].endswith(".calls")]
FROM_METHODS = {name for methods in TRACING.METHODS.values() for _, name in methods}


def _plain_call_counters():
    """``layer.function`` of each ``.calls`` counter that the tracer fills
    from a module function under its own name (not a method, not a rename)."""
    other = FROM_METHODS | set(TRACING.RENAME.values())
    return [n for n in COUNTERS if n.count(".") == 1 and n not in other]


def _renamed_call_counters():
    """Each ``.calls`` counter that only renamed module functions fill (no
    method), with the ``layer.function`` names that the tracer renames to it."""
    return {
        counter: sorted(f for f, to in TRACING.RENAME.items() if to == counter)
        for counter in COUNTERS
        if counter in TRACING.RENAME.values() and counter not in FROM_METHODS
    }


def _is_public_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module("ellgenus." + layer)
    fn = vars(module).get(attr)
    return (
        not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and attr not in TRACING.SKIP.get(layer, ())
    )


PLAIN = _plain_call_counters()
RENAMED = _renamed_call_counters()


@pytest.mark.parametrize("name", PLAIN)
def test_each_plain_call_counter_names_a_public_function(name):
    assert _is_public_function(name), name


def test_the_guard_sees_the_counters_and_a_removed_function(monkeypatch):
    for name in ("charclasses.lambda_y_factor", "charclasses.lambda_y_inverse",
                 "pushforward.segre_series", "cli.main"):
        assert name in PLAIN
    assert "series.mul" not in PLAIN and "cli.format" not in PLAIN
    # the package exports the function pushforward, so import the module by name
    monkeypatch.delattr(importlib.import_module("ellgenus.pushforward"), "segre_series")
    assert not _is_public_function("pushforward.segre_series")


@pytest.mark.parametrize("counter", sorted(RENAMED))
def test_each_renamed_call_counter_has_a_public_function(counter):
    assert any(_is_public_function(name) for name in RENAMED[counter]), counter


def test_the_guard_sees_the_renamed_readers_removed(monkeypatch):
    readers = ["cli.load_base_spec", "cli.load_fibration_spec", "cli.parse_base_arg",
               "cli.parse_series_json"]
    assert RENAMED == {"cli.parse_input": readers}  # the writers' methods fill cli.format too
    cli = importlib.import_module("ellgenus.cli")
    for name in readers[:-1]:
        monkeypatch.delattr(cli, name.split(".")[1])
    assert any(_is_public_function(name) for name in readers)  # one is enough
    monkeypatch.delattr(cli, "parse_series_json")
    assert not any(_is_public_function(name) for name in readers)

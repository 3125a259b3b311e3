"""Every per-layer call counter of BENCHMARK.json that names a plain module
function, such as ``charclasses.todd_factor.calls``, names a public function
of that module.  The tracer in bench/tracing.py wraps only the functions it
finds, and a traced bench run whose counter has no function exits 2 with
"per-layer metrics not produced", so removing one of these functions breaks
the benchmark rather than leaving its counter at 0."""

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


def _plain_call_counters():
    """``layer.function`` of each ``.calls`` counter that the tracer fills
    from a module function under its own name (not a method, not a rename)."""
    other = {name for methods in TRACING.METHODS.values() for _, name in methods}
    other |= set(TRACING.RENAME.values())
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"][: -len(".calls")] for m in layers if m["name"].endswith(".calls")]
    return [n for n in names if n.count(".") == 1 and n not in other]


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

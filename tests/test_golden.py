"""The golden corpus (``tools/golden.py``): every output it digests equals the
one recorded in ``tests/golden.json``, and a one-coefficient fault shows."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from ellgenus import charclasses

ROOT = Path(__file__).resolve().parents[1]


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_output_equals_the_golden_corpus():
    tool = _golden()
    diff = tool.changed(json.loads(tool.GOLDEN.read_text()), tool.digests())
    assert diff == [], "%d keys differ, first: %s" % (len(diff), diff[:20])


def test_a_difference_names_its_key():
    tool = _golden()
    want = {"a": "1", "b": "2", "c": "3"}
    assert tool.changed(want, {"a": "1", "b": "9", "d": "4"}) == [
        "b: changed", "c: missing", "d: new"
    ]


def test_a_wrong_todd_number_changes_the_corpus(monkeypatch):
    tool = _golden()
    right = charclasses._todd_numbers

    def wrong(order):  # tau_4 = -1/720 read as 0
        return tuple(t + Fraction(1, 720) * (k == 4) for k, t in enumerate(right(order)))

    monkeypatch.setattr(charclasses, "_todd_numbers", wrong)
    want = json.loads(tool.GOLDEN.read_text())
    wrong_keys = (k for k, text in tool.corpus() if tool.digest(text) != want[k])
    assert next(wrong_keys, None) is not None

"""tools/bench_pairs.py: a run with a wrong output stops the tool, and the
output file counts the program lines of both checkouts."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2)])
def test_a_wrong_run_stops_bench_pairs(
    tmp_path, monkeypatch, capsys, correct, failed
):
    tool = _bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout, lines in ((parent, 3), (change, 2)):
        src = checkout / "src" / "ellgenus"
        src.mkdir(parents=True)
        (src / "a.py").write_text("x = 1\n" * lines)
        (src / "b.py").write_text("y = 2\n")
        (src / "notes.txt").write_text("not a program file\n" * 5)
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    metrics = {"ops_per_s": 1.0}

    def run_once(checkout, workload, seed):
        wrong = checkout == str(change) and seed == 2
        return {
            "correct": correct if wrong else True,
            "attempted": 10,
            "failed": failed if wrong else 0,
            "metrics": metrics,
        }

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    assert tool.main(argv) == 1
    assert "the change run of cli seed 2 is wrong" in capsys.readouterr().err
    # the pair before it is kept, and no summary is written
    doc = json.loads(out.read_text())
    cli = doc["workloads"]["cli"]
    assert [p["seed"] for p in cli["pairs"]] == [1] and "summary" not in cli
    assert doc["src_lines"] == {"parent": 4, "change": 3}

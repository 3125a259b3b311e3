"""tools/bench_pairs.py: a run with a wrong output stops the tool, the
output file counts the program lines of both checkouts, each mode keeps the
others' entries of the file, the in-process passes start from empty caches,
and they resolve a slower tree but claim no gain, in pass or in tail
time, between identical ones; the fresh-interpreter imports resolve a
slower start-up and refuse a checkout with cached bytecode."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from ellgenus import CATALOG, BaseSpec, chi_q, derived_q, fiber_integrand
from ellgenus import _packed, charclasses, genseries

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
    out.write_text(json.dumps({"passes": {"passes": 3}, "imports": {"pairs": []},
                               "stale": 1}))
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    assert tool.main(argv) == 1
    assert "the change run of cli seed 2 is wrong" in capsys.readouterr().err
    # the pair before it is kept, and no summary is written
    doc = json.loads(out.read_text())
    cli = doc["workloads"]["cli"]
    assert [p["seed"] for p in cli["pairs"]] == [1] and "summary" not in cli
    assert doc["src_lines"] == {"parent": 4, "change": 3}
    # in-process passes and imports run earlier stay; any other old key goes
    assert doc["passes"] == {"passes": 3} and doc["imports"] == {"pairs": []}
    assert "stale" not in doc


def _derive_only(monkeypatch):
    """The tool with its in-process passes cut to the ``derive`` workload."""
    tool = _bench_pairs()
    monkeypatch.setattr(tool, "WORKLOADS", ("derive",))
    return tool


def _passes(tmp_path, monkeypatch, parent, change, passes):
    """The ``derive`` summaries of in-process passes, by metric, written
    beside an existing entry of the output file, which they keep."""
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps({"src_lines": {"parent": 1, "change": 1}}))
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out),
            "--passes", str(passes)]
    assert _derive_only(monkeypatch).main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["src_lines"] == {"parent": 1, "change": 1}
    derive = doc["passes"]["workloads"]["derive"]
    assert [p["first"] for p in derive["pairs"]][:2] == ["parent", "change"]
    assert all(set(p[s]["metrics"]) == {"pass_s", "tail_s"}
               for p in derive["pairs"] for s in ("parent", "change"))
    return derive["summary"]


def test_two_identical_trees_claim_no_gain(tmp_path, monkeypatch):
    summaries = _passes(tmp_path, monkeypatch, ROOT, ROOT, 20)
    for name in ("pass_s", "tail_s"):
        summary = summaries[name]
        assert summary["pairs"] == 20 and summary["gain"] is False, name


def _edited_tree(tmp_path, old, new, module="fibrations.py", name="edited"):
    """A copy of ``src`` and ``bench`` with one line of ``module`` edited."""
    tree = tmp_path / name
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    module = tree / "src" / "ellgenus" / module
    text = module.read_text()
    assert old in text
    module.write_text(text.replace(old, new))
    return tree


def test_a_tree_with_a_delay_in_derived_q_is_slower(tmp_path, monkeypatch):
    # 20 ms per request, 24 requests a pass: far beyond the spread of a pass
    head = "def derived_q(spec, wmax=DEFAULT_WMAX, qmax=DEFAULT_QMAX):\n"
    slow = _edited_tree(tmp_path, head, head + "    __import__('time').sleep(0.02)\n")
    summary = _passes(tmp_path, monkeypatch, slow, ROOT, 3)["pass_s"]
    assert summary["change_wins"] == 3 and summary["gain"] is True


def test_a_pass_with_a_wrong_output_stops_the_passes(tmp_path, monkeypatch, capsys):
    line = "    return pushforward(D, bundle)\n"
    wrong = _edited_tree(tmp_path, line, line.replace("D, bundle)", "D, bundle) * 2"))
    argv = ["--parent", str(ROOT), "--change", str(wrong), "--out",
            str(tmp_path / "pairs.json"), "--passes", "1"]
    assert _derive_only(monkeypatch).main(argv) == 1
    assert "the change pass of derive seed 1: 24 wrong outputs" in capsys.readouterr().err
    assert not (tmp_path / "pairs.json").exists()


def test_a_pass_starts_with_every_cache_empty():
    # the worker's clear empties the top memos and the functools row caches
    # alike, so an in-process pass builds every row as a fresh process does
    tool = _bench_pairs()
    derived_q("E7", 6, 7)
    fiber_integrand(CATALOG["D5"], 6, 4).terms
    chi_q("E8", BaseSpec.projective_space(2, 3), 1, verify=True)
    found = tool.caches()
    rows = {_packed._z_rows, _packed._z_images, _packed._poles, _packed._pole_rows}
    assert rows <= found and any(hasattr(c, "tops") for c in found)
    assert all(c.cache_info().currsize for c in rows)
    # each route's exp(sum b_k p_k), the class route's under charclasses
    exps = {charclasses._class_exp, genseries._hirzebruch_exp}
    assert exps <= found and all(c.tops for c in exps)
    tool.clear_caches()
    assert all(c.cache_info().currsize == 0 for c in found)
    assert all(not c.tops for c in found if hasattr(c, "tops"))


def _imports(tmp_path, parent, change, pairs):
    """The ``imports`` entry of ``pairs`` fresh-interpreter pairs, written
    beside an existing entry of the output file, which it keeps."""
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps({"passes": {"passes": 1}}))
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out),
            "--imports", str(pairs), "--seed", "40"]
    assert _bench_pairs().main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["passes"] == {"passes": 1}
    return doc["imports"]


def test_fresh_imports_resolve_a_slower_start_up(tmp_path):
    # 30 ms of sleep in the package's import, far beyond the spread of one
    head = '__version__ = "0.1.0"\n'
    slow = _edited_tree(tmp_path, head, head + "__import__('time').sleep(0.03)\n",
                        "__init__.py", "slow")
    same = _edited_tree(tmp_path, "", "", name="same")  # an unedited copy
    imports = _imports(tmp_path, slow, same, 3)
    assert [p["first"] for p in imports["pairs"]] == ["parent", "change", "parent"]
    assert [p["hash_seed"] for p in imports["pairs"]] == [41, 42, 43]
    assert all(set(p[s]["metrics"]) == {"import_s", "rss_mb"}
               for p in imports["pairs"] for s in ("parent", "change"))
    summary = imports["summary"]
    assert summary["import_s"]["change_wins"] == 3 and summary["import_s"]["gain"] is True
    assert summary["rss_mb"]["pairs"] == 3


def test_fresh_imports_refuse_cached_bytecode(tmp_path, capsys):
    # the copies hold no bytecode until one is made in the change
    parent, tree = (_edited_tree(tmp_path, "", "", name=n) for n in ("parent", "change"))
    (tree / "src" / "ellgenus" / "__pycache__").mkdir()
    argv = ["--parent", str(parent), "--change", str(tree), "--out",
            str(tmp_path / "pairs.json"), "--imports", "1"]
    assert _bench_pairs().main(argv) == 1
    assert "the change checkout holds cached bytecode" in capsys.readouterr().err
    assert not (tmp_path / "pairs.json").exists()

"""Tests of the benchmark itself: seeded inputs, exact checks, and tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ellgenus  # noqa: E402
import ellgenus.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ellgenus.series import WSeries  # noqa: E402
from workloads import Request  # noqa: E402


def small_derive(fam="E8", a=3, w=3):
    data = workloads.spec_json(fam, a)
    presented = (tuple(data["bundle"]), tuple(map(tuple, data["n_roots"])))
    return Request("derive", (("spec", fam, a), w, w + 1), (fam, a, w) + presented)


def cli_request(argv, expect, spec):
    return Request("cli", tuple(argv), (tuple(argv), expect, spec))


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", ["derive", "chi", "cli"])
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.generate(workload, 7, 25, str(tmp_path))
    files = {p: (tmp_path / p).read_text() for p in os.listdir(tmp_path)}
    again = workloads.generate(workload, 7, 25, str(tmp_path))
    assert first == again
    assert files == {p: (tmp_path / p).read_text() for p in os.listdir(tmp_path)}
    assert workloads.properties(workload, first) == workloads.properties(workload, again)
    assert workloads.generate(workload, 8, 25, str(tmp_path)) != first


def test_derive_blocks_cover_every_stratum_without_repeats():
    reqs = workloads.generate("derive", 3, 68)
    assert len(reqs) == 3 * 24
    for block in (reqs[:24], reqs[24:48], reqs[48:]):
        for fam in workloads.FAMILIES:
            mine = [r.params for r in block if r.params[0] == fam]
            assert sorted(p[1] for p in mine) == list(workloads.TWISTS)
            assert sorted(p[2] for p in mine) == [7, 7, 8, 8, 9, 9]
    assert workloads.properties("derive", reqs)["repeat_share"] == 0.0
    other = workloads.generate("derive", 4, 68)
    assert sorted(r.key for r in other) == sorted(r.key for r in reqs)
    assert [r.params for r in other] != [r.params for r in reqs]
    assert len({r.params[3:] for r in reqs if r.params[0] == "E7"}) > 1  # seeded presentations


def test_chi_repeats_its_symbolic_keys_and_pins_e8():
    reqs = workloads.generate("chi", 5, 25)
    props = workloads.properties("chi", reqs)
    assert props["requests"] % 20 == 0
    assert props["repeat_share"] == pytest.approx(1 - 20 / props["requests"])
    assert ("E8", 2, 3) in [r.params for r in reqs[:20]]


def test_twisted_specs_keep_the_genus_factor():
    rng = random.Random(1)
    for fam in workloads.FAMILIES:
        for a in (-2, 3):
            spec = workloads.twisted_spec(workloads.spec_json(fam, a, rng))
            assert ellgenus.derived_q(spec, 3, 4) == ellgenus.closed_form_q(fam, 3, 4)


def test_projective_table_matches_the_library(tmp_path):
    for d, n in ((2, 3), (4, 1), (5, 7)):
        path = tmp_path / ("P%d_O%d.json" % (d, n))
        path.write_text(json.dumps(workloads.projective_table(d, n)))
        read = ellgenus.cli.load_base_spec(str(path))
        assert read.table == ellgenus.BaseSpec.projective_space(d, n).table


# ---------------------------------------------------------------------------
# exact checks and the injected-corruption control


def corrupt_series(series):
    terms = dict(series.terms)
    key = sorted(terms, key=repr)[len(terms) // 2]
    terms[key] += Fraction(1, 7)
    return WSeries(series.wmax, series.qmax, terms)


def test_derive_check_catches_one_changed_coefficient():
    req, oracle = small_derive(), workloads.Oracle()
    out = workloads.execute(req, workloads.build_derive_inputs([req]))
    assert workloads.check(req, out, oracle) is None
    assert workloads.check(req, corrupt_series(out), oracle) is not None


def test_chi_check_catches_wrong_values():
    ok = [0, 270, -270, 0]
    assert workloads.check_chi_values(("E8", 2, 3), ok) is None
    assert workloads.check_chi_values(("E8", 2, 3), [0, 271, -271, 0]) is not None  # pinned
    assert workloads.check_chi_values(("E8", 2, 4), [0, 270, -271, 0]) is not None  # Serre
    assert workloads.check_chi_values(("E8", 2, 4), [Fraction(1, 2), 0, 0, Fraction(1, 2)])
    assert workloads.check_chi_values(("E6", 3, 4), [1, 5, 5, 5, 1]) is not None  # chi_0


def test_cli_checks_catch_wrong_exit_codes_and_outputs():
    oracle = workloads.Oracle()
    q_json = cli_request(["q", "E6", "--wmax", "4", "--format", "json"], 0,
                         ("q", "json", "E6", "E6", 4))
    code, out, err = workloads.execute(q_json)
    assert workloads.check(q_json, (code, out, err), oracle) is None
    assert workloads.check(q_json, (1, out, err), oracle) is not None
    data = json.loads(out)
    data["records"][1]["terms"][0]["coeff"] = "12345/7"
    assert workloads.check(q_json, (code, json.dumps(data), err), oracle) is not None

    chi = cli_request(["chi", "E8", "--base", "pd:2:3"], 0, ("chi", "E8", 2, 3))
    code, out, err = workloads.execute(chi)
    assert workloads.check(chi, (code, out, err), oracle) is None
    assert workloads.check(chi, (code, out.replace("270", "271"), err), oracle) is not None

    bad = cli_request(["chi", "E8", "--base", "pd:x:3"], 2, ("invalid",))
    code, out, err = workloads.execute(bad)
    assert workloads.check(bad, (code, out, err), oracle) is None
    assert workloads.check(bad, (0, out, err), oracle) is not None

    verify = cli_request(["verify"], 0, ("verify",))
    assert workloads.check(verify, (0, "x: PASS\nPASS (8 suites)\n", ""), oracle) is None
    assert workloads.check(verify, (0, "x: FAIL\nFAIL (1 of 8 suites)\n", ""), oracle)


def test_corrupted_outputs_make_fail_ratio_nonzero(monkeypatch):
    reqs = [small_derive("E8", 3), small_derive("D5", -1)]
    inputs = workloads.build_derive_inputs(reqs)

    def fail_ratio():
        lat, _speed, outputs, crashes = run.run_pass(workloads, reqs, inputs)
        failures, _digests = run.check_pass(workloads, reqs, outputs, crashes)
        return run.end_to_end("derive", lat, failures, 0.1, 20.0)[1]["fail_ratio"]

    assert fail_ratio() == 0
    real = workloads.execute
    monkeypatch.setattr(workloads, "execute", lambda r, i=None: corrupt_series(real(r, i)))
    assert fail_ratio() == 1.0


def test_checks_run_only_after_the_timed_pass(monkeypatch):
    reqs = [small_derive("E8", 3), small_derive("D5", -1)]
    inputs = workloads.build_derive_inputs(reqs)
    events = []
    real_execute, real_check = workloads.execute, workloads.check
    monkeypatch.setattr(workloads, "execute",
                        lambda r, i=None: events.append("execute") or real_execute(r, i))
    monkeypatch.setattr(workloads, "check",
                        lambda r, o, oracle: events.append("check") or real_check(r, o, oracle))
    _lat, _speed, outputs, crashes = run.run_pass(workloads, reqs, inputs)
    assert events == ["execute", "execute"]
    failures, _digests = run.check_pass(workloads, reqs, outputs, crashes)
    assert events == ["execute", "execute", "check", "check"] and failures == [None, None]


def test_probe_runs_with_the_collector_off(monkeypatch):
    seen = []
    monkeypatch.setattr(speed, "reference", lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    speed.probe()
    assert seen == [False] and gc.isenabled()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


# ---------------------------------------------------------------------------
# tracing


def test_wrappers_leave_return_values_unchanged_and_are_removed():
    derive = small_derive("E7", 2)
    inputs = workloads.build_derive_inputs([derive])
    chi = Request("chi", ("E6", 2, 4), ("E6", 2, 5))
    cli_json = cli_request(["q", "D5", "--wmax", "4", "--format", "json"], 0, None)
    ptable = cli_request(["ptable", "E8", "--check", "--nmax", "3"], 0, None)
    reqs = [derive, chi, cli_json, ptable]
    plain = [workloads.execute(r, inputs) for r in reqs]
    originals = (ellgenus.derived_q, ellgenus.fibrations.todd_factor,
                 WSeries.__mul__, ellgenus.cli.json)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ellgenus.derived_q is not originals[0]
        assert ellgenus.fibrations.todd_factor is ellgenus.charclasses.todd_factor
        assert ellgenus.fibrations.todd_factor is not originals[1]
        tracer.active = True
        traced = [workloads.execute(r, inputs) for r in reqs]
        tracer.active = False
    finally:
        tracer.remove()
    assert traced == plain
    assert (ellgenus.derived_q, ellgenus.fibrations.todd_factor,
            WSeries.__mul__, ellgenus.cli.json) == originals

    m = tracer.metrics()
    assert m["fibrations.derived_q.calls"] == 1
    assert m["fibrations.fiber_integrand.calls"] == 1
    assert m["charclasses.todd_factor.calls"] == 4  # one per bundle summand of E7
    assert m["genseries.chi_q.calls"] == 4
    assert m["cli.main.calls"] == 2
    assert m["cli.format.calls"] >= 2 and m["poly.mul.calls"] > 0
    assert m["series.mul.calls"] > 0 and m["series.mul.pairs"] >= m["series.mul.calls"]
    assert 0 < m["series.mul.pair_yield"] <= 1
    assert m["genseries.chi_series.distinct_ratio"] == 1 / 4
    assert tracer.integrand_terms == [m["fibrations.fiber_integrand.terms_out"]]


def test_self_times_add_up_to_the_root_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ellgenus.chi_q("E8", ellgenus.BaseSpec.projective_space(2, 3), 1)
        tracer.active = False
    finally:
        tracer.remove()
    total, self_t = tracer.span_times()
    roots = [t for t, p in zip(total, tracer.span_parent) if p < 0]
    assert len(roots) == 1
    assert sum(self_t) == pytest.approx(roots[0], rel=1e-9, abs=1e-12)
    assert min(self_t) > -1e-6
    m = tracer.metrics()
    assert m["genseries.chi_q.total_s"] == pytest.approx(roots[0])
    assert sum(m[layer + ".self_s"] for layer in tracing.LAYERS) == pytest.approx(roots[0])


# ---------------------------------------------------------------------------
# the command


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_prints_every_metric_of_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chi", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 20
    assert set(result["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    for m in contract["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_matches_an_untraced_run_in_a_fresh_process():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chi", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "traced outputs identical to untraced: True" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 20
    assert set(result["metrics"]) == {m["name"] for m in contract["per_layer"]}

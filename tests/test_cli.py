"""The command-line surface: output contents, exit codes, JSON round
trips, and input-file handling."""

import contextlib
import io
import json
import os
import random
import re
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus import (
    CATALOG,
    FAMILIES,
    BaseSpec,
    BundleSpec,
    FibrationSpec,
    MissingIntersectionError,
    RootForm,
    WSeries,
    chi_q,
    chi_series,
    cli,
    closed_form_q,
    derived_q,
    integrate,
    pushforward_class,
)
from ellgenus import _cli, _packed, fibrations, verify
from ellgenus.cli import (
    UsageError,
    _integer,
    emit_series_json,
    load_base_spec,
    load_fibration_spec,
    main,
    parse_series_json,
)
from helpers import (PAPER_CLOSED_TEXT, argparse_parser, count_calls, random_series,
                     reference_p1_times_p1_table)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- q ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_a_warm_q_writes_what_a_cold_one_does(capsys, family):
    # after a build at (16, 17), whose keys pack at 5 bits per field, each
    # lower q is a truncation that moves every field to a narrower width
    from conftest import _bench_pairs

    assert run_cli(capsys, "q", family, "--wmax", "16", "--qmax", "17")[0] == 0
    calls = [["q", family, "--wmax", str(w), "--qmax", str(q), "--format", fmt]
             for w, q in ((6, 7), (10, 11), (15, 15), (3, 12))
             for fmt in ("text", "json", "latex")]
    warm = [run_cli(capsys, *argv) for argv in calls]
    for argv, got in zip(calls, warm):
        _bench_pairs.clear_caches()
        assert got == run_cli(capsys, *argv) and got[0] == 0, argv


def test_q_text_output(capsys):
    code, out, _ = run_cli(capsys, "q", "E8", "--wmax", "2", "--qmax", "1")
    assert code == 0
    assert "y^0: L - 1/2*L^2" in out
    assert "y^1: -11*L + 73/2*L^2" in out


def _per_slice_q_text(family, wmax, qmax):
    """The output of ``q FAMILY`` rendered from one ``y_slice`` per y-degree,
    a zero slice past y^(wmax+1) skipped."""
    series = closed_form_q(family, wmax, qmax)
    lines = ["Q(%s) expanded to weight %d, y-degree %d:" % (family, wmax, qmax)]
    for q in range(qmax + 1):
        part = series.y_slice(q)
        if not part.is_zero() or q <= wmax + 1:
            lines.append("  y^%d: %s" % (q, part.to_text()))
    return "".join(line + "\n" for line in lines)


def test_q_text_equals_the_per_slice_rendering(capsys):
    skipped = 0
    for family in FAMILIES:
        for wmax in range(9):
            for qmax in range(12):
                argv = ("q", family, "--wmax", str(wmax), "--qmax", str(qmax))
                want = _per_slice_q_text(family, wmax, qmax)
                assert run_cli(capsys, *argv) == (0, want, "")
                skipped += qmax + 2 - want.count("\n")
    assert skipped > 0  # the grid has zero rows past y^(wmax+1)


def test_q_closed_form(capsys):
    for fam, text in PAPER_CLOSED_TEXT.items():
        code, out, _ = run_cli(capsys, "q", fam, "--closed")
        assert code == 0
        assert out == "Q(%s) = %s   [U = exp(-L)]\n" % (fam, text)


def test_q_unknown_family(capsys):
    code, _, err = run_cli(capsys, "q", "nosuch")
    assert code == 2
    assert "unknown family" in err


def test_q_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "q", "E6", "--wmax", "3", "--qmax", "2",
                           "--format", "json")
    assert code == 0
    parsed = parse_series_json(json.loads(out))
    assert parsed == closed_form_q("E6", 3, 2)


def test_q_latex_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "q", "E7", "--wmax", "3", "--qmax", "2",
                             "--format", "latex")
    code2, out2, _ = run_cli(capsys, "q", "E7", "--wmax", "3", "--qmax", "2",
                             "--format", "latex")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "\\frac" in out1


def test_series_json_round_trip_random():
    rng = random.Random(23)
    for _ in range(10):
        s = random_series(rng, ("L", "H", "c1", "c2"), 4, 3)
        assert parse_series_json(emit_series_json(s)) == s


def test_q_json_text_equals_the_json_module():
    # the one writer's text byte for byte against json's indent-2, sorted-key
    # form of its parse; writing the variables in field order (c2 before c10)
    # fails it
    rng = random.Random(23)
    cases = [random_series(rng, ("L", "H", "c1", "c2"), 4, 3) for _ in range(10)]
    c = [WSeries.var("c%d" % i, 12, 1) for i in range(1, 11)]
    e6 = CATALOG["E6"]
    twisted = FibrationSpec(  # E6 in P(E (x) L^2)
        "E6~2",
        BundleSpec(tuple(m + 2 for m in e6.bundle.exps)),
        tuple(RootForm(r.a, r.b + 2 * r.a) for r in e6.n_roots),
    )
    zero, const = WSeries.zero(3, 2), WSeries.const(F(-5, 3), 3, 2)
    chern = c[9] * c[1] + F(2, 7) * c[0] * c[2] ** 3 - WSeries.var("L", 12, 1) * c[9]
    cases += [zero, const, chern, derived_q(twisted, 4, 5)]
    for s in cases:
        want = json.dumps(emit_series_json(s), indent=2, sort_keys=True)
        assert cli._series_json_text(s) == want
    assert '"records": []' in cli._series_json_text(zero)
    assert '"exps": {}' in cli._series_json_text(const)
    assert '"c10": 1,\n            "c2": 1' in cli._series_json_text(chern)


# -- ptable -------------------------------------------------------------------


def test_ptable_e6(capsys):
    code, out, _ = run_cli(capsys, "ptable", "E6", "--nmax", "1")
    assert code == 0
    assert "P0 = 1-U" in out
    assert "P1 = U^4+2U^3+U^2-U-3" in out


def test_ptable_d5_row_two(capsys):
    code, out, _ = run_cli(capsys, "ptable", "D5", "--nmax", "2")
    assert code == 0
    # expanded form of -U(3U)(U-1)(U+1)^2
    assert "P2 = -3U^5-3U^4+3U^3+3U^2" in out


def test_ptable_e8_row_zero(capsys):
    code, out, _ = run_cli(capsys, "ptable", "E8", "--nmax", "0")
    assert code == 0
    assert out.strip() == "P0 = 1-U"


def test_ptable_check_passes(capsys):
    code, out, _ = run_cli(capsys, "ptable", "E7", "--nmax", "5", "--check")
    assert code == 0
    assert "check: PASS (n <= 5)" in out


def test_ptable_expands_the_table_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, _cli, "p_polynomials")
    code, out, _ = run_cli(capsys, "ptable", "D5", "--nmax", "12", "--check")
    assert code == 0
    assert calls == [("D5", 12)]
    assert out.splitlines()[-1] == "check: PASS (n <= 12)"
    assert len(out.splitlines()) == 14


def test_ptable_check_fails_on_a_wrong_closed_form(capsys, monkeypatch):
    # the y U coefficient of D5's numerator doubled: every row from P_1 on
    # leaves the table, P_0 keeps it
    d5 = dict(fibrations._CLOSED["D5"], numer={(1, 1): 2, (0, 0): -3})
    monkeypatch.setitem(fibrations._CLOSED, "D5", d5)
    code, out, _ = run_cli(capsys, "ptable", "D5", "--check", "--nmax", "6")
    assert code == 1
    assert out.splitlines()[0] == "P0 = 1-U"
    assert out.splitlines()[-1] == "check: FAIL at n = [1, 2, 3, 4, 5, 6]"


# -- chi ----------------------------------------------------------------------


def test_chi_all_with_alternating_sum(capsys):
    code, out, _ = run_cli(capsys, "chi", "E8", "--base", "pd:2:3", "--q", "all")
    assert code == 0
    assert "chi_0 = 0" in out
    assert "chi_1 = 270" in out
    assert "chi_2 = -270" in out
    assert "alternating sum = -540" in out


def test_chi_single_q_with_class(capsys):
    code, out, _ = run_cli(
        capsys, "chi", "E6", "--base", "pd:4:1", "--q", "2", "--class"
    )
    assert code == 0
    assert "class for q=2 (weight 4):" in out
    assert "c3" in out  # the symbolic integrand involves c3
    # value over P^4 with L = O(1): evaluate the known class by hand
    # -(L/12)(1729 L^3 - 524 c1 L^2 + (-17 c1^2 + 193 c2) L + 5 c1 c2 - 66 c3)
    # with L = h, c1 = 5h, c2 = 10h^2, c3 = 10h^3:
    val = -F(1, 12) * (1729 - 524 * 5 + (-17 * 25 + 193 * 10) * 1 + 5 * 5 * 10 - 66 * 10)
    assert "chi_2 = %s" % val in out


def test_chi_q_out_of_range(capsys):
    # dim Y = 2 over P^1; a negative q is out of range too, not "past dim Y"
    for q in ("-1", "3"):
        code, out, err = run_cli(capsys, "chi", "E8", "--base", "pd:1:1", "--q", q)
        assert code == 2 and not out
        assert err == "error: q=%s is out of range 0..dim Y = 0..2\n" % q


def test_chi_requires_base(capsys):
    code, _, err = run_cli(capsys, "chi", "E8")
    assert code == 2
    assert "base" in err


def test_chi_bad_base_string(capsys):
    code, _, err = run_cli(capsys, "chi", "E8", "--base", "p2:1")
    assert code == 2


# -- spec and base files ----------------------------------------------------------


def test_spec_file_round_trip(tmp_path, capsys):
    spec_file = tmp_path / "weierstrass.json"
    spec_file.write_text(
        json.dumps(
            {"name": "weierstrass", "bundle": [0, 2, 3], "n_roots": [[3, 6]]}
        )
    )
    spec = load_fibration_spec(str(spec_file))
    assert derived_q(spec, 2, 2) == closed_form_q("E8", 2, 2)
    code, out, _ = run_cli(capsys, "q", str(spec_file), "--wmax", "2", "--qmax", "1")
    assert code == 0
    assert "y^0: L - 1/2*L^2" in out


def test_spec_file_with_explicit_f_roots(tmp_path):
    spec_file = tmp_path / "e6.json"
    spec_file.write_text(
        json.dumps(
            {
                "name": "cubic",
                "bundle": [0, 1, 1],
                "n_roots": [[3, 3]],
                "f_roots": [[1, 0], [1, 1], [1, 1]],
            }
        )
    )
    spec = load_fibration_spec(str(spec_file))
    assert spec.fiber_dim == 1


def test_spec_file_with_mismatched_f_roots(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(
        json.dumps(
            {
                "name": "bad",
                "bundle": [0, 1],
                "n_roots": [],
                "f_roots": [[1, 0], [1, 2]],
            }
        )
    )
    code, out, err = run_cli(capsys, "q", str(spec_file))
    assert code == 2 and out == ""
    assert err.startswith("error: spec file ")
    assert "f_roots must be {H + m*L} for the bundle exponents (0, 1)" in err


def test_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "bundle": [0, 1]}))
    code, _, err = run_cli(capsys, "q", str(bad))
    assert code == 2
    assert "missing field 'n_roots'" in err
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "q", str(bad))
    assert code == 2
    assert "not valid JSON" in err


def test_base_file(tmp_path, capsys):
    from ellgenus import BaseSpec

    reference = BaseSpec.projective_space(2, 3)
    monomials = [
        {"exps": {v: e for v, e in mono}, "value": str(value)}
        for mono, value in reference.table.items()
    ]
    base_file = tmp_path / "p2.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    loaded = load_base_spec(str(base_file))
    assert loaded.table == reference.table
    code, out, _ = run_cli(
        capsys, "chi", "E8", "--base-file", str(base_file), "--q", "all"
    )
    assert code == 0
    assert "alternating sum = -540" in out


def test_chi_over_p1_times_p1_from_a_base_file(tmp_path, capsys):
    # the literature anchor of test_genseries (E8 over F_0: chi_1 = 240,
    # Euler number -480) through the command line's base-file reader
    monomials = [{"exps": dict(mono), "value": value}
                 for mono, value in reference_p1_times_p1_table(2, 2).items()]
    base_file = tmp_path / "p1xp1.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    code, out, err = run_cli(capsys, "chi", "E8", "--base-file", str(base_file))
    assert (code, err) == (0, "")
    assert out == "chi_0 = 0\nchi_1 = 240\nchi_2 = -240\nchi_3 = 0\nalternating sum = -480\n"


@pytest.mark.parametrize("field", ["dim", "monomials", "exps", "value"])
def test_a_base_file_names_a_missing_field(tmp_path, capsys, field):
    data = {"dim": 2, "monomials": _p2_monomials("3")}
    holder = data if field in data else data["monomials"][0]
    del holder[field]
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "chi", "E8", "--base-file", str(base_file))
    assert (code, out) == (2, "")
    assert err == "error: base file %s: missing field %r\n" % (base_file, field)


def _p2_monomials(value_of_c2):
    return [
        {"exps": {"L": 2}, "value": "9"},
        {"exps": {"L": 1, "c1": 1}, "value": "9"},
        {"exps": {"c1": 2}, "value": "9"},
        {"exps": {"c2": 1}, "value": value_of_c2},
    ]


def _assert_usage_error(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_base_file_rejects_json_float(tmp_path, capsys):
    # 0.1 as a JSON number is a binary fraction, not 1/10
    base_file = tmp_path / "float.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials(0.1)}))
    _assert_usage_error(
        capsys, ["chi", "E8", "--base-file", str(base_file)], "value must be"
    )


def test_base_file_rejects_zero_denominator(tmp_path, capsys):
    base_file = tmp_path / "zero.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials("1/0")}))
    _assert_usage_error(
        capsys, ["chi", "E8", "--base-file", str(base_file)], '"1/0"'
    )


def test_base_file_rejects_a_non_canonical_chern_name(tmp_path, capsys):
    # c01 was read as c1 and kept as c01, so the table missed L*c1
    base_file = tmp_path / "c01.json"
    monomials = _p2_monomials("3")
    monomials[1]["exps"] = {"L": 1, "c01": 1}
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    _assert_usage_error(
        capsys, ["chi", "E8", "--base-file", str(base_file)], "unknown variable 'c01'"
    )


def test_base_file_rejects_non_integer_dim_and_exponent(tmp_path, capsys):
    base_file = tmp_path / "dim.json"
    base_file.write_text(json.dumps({"dim": 2.0, "monomials": _p2_monomials("3")}))
    _assert_usage_error(capsys, ["chi", "E8", "--base-file", str(base_file)], "dim")
    monomials = _p2_monomials("3")
    monomials[0]["exps"]["L"] = True
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    _assert_usage_error(
        capsys, ["chi", "E8", "--base-file", str(base_file)], "exponent"
    )


def test_base_file_integer_value_is_exact(tmp_path):
    base_file = tmp_path / "int.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials(3)}))
    assert load_base_spec(str(base_file)).table[(("c2", 1),)] == 3


@pytest.mark.parametrize("name, shown", [
    (5, "5"), (["w"], '["w"]'), (None, "null"), (True, "true"), (1.5, "1.5"),
    ({"a": 1}, '{"a": 1}'),
])
def test_spec_file_name_must_be_a_string(tmp_path, capsys, name, shown):
    # str() made a label of any JSON value; only a string is a name
    spec_file = tmp_path / "name.json"
    spec_file.write_text(json.dumps({"name": name, "bundle": [0, 2, 3], "n_roots": [[3, 6]]}))
    want = "error: spec file %s: name must be a string, got %s\n" % (spec_file, shown)
    for argv in (["q", str(spec_file)], ["chi", str(spec_file), "--base", "pd:2:3"]):
        assert run_cli(capsys, *argv) == (2, "", want)
    spec_file.write_text(json.dumps({"name": "5", "bundle": [0, 2, 3], "n_roots": [[3, 6]]}))
    assert load_fibration_spec(str(spec_file)).name == "5"


def test_spec_file_rejects_fractional_bundle(tmp_path, capsys):
    spec_file = tmp_path / "bundle.json"
    spec_file.write_text(
        json.dumps({"name": "w", "bundle": [0, 2.9, 3], "n_roots": [[3, 6]]})
    )
    _assert_usage_error(capsys, ["q", str(spec_file)], "bundle exponent")


def test_spec_file_rejects_fractional_root(tmp_path, capsys):
    spec_file = tmp_path / "roots.json"
    spec_file.write_text(
        json.dumps({"name": "w", "bundle": [0, 2, 3], "n_roots": [[3, 6.5]]})
    )
    _assert_usage_error(capsys, ["q", str(spec_file)], "n_roots")
    spec_file.write_text(
        json.dumps({"name": "w", "bundle": [0, 2, 3], "n_roots": [[True, 6]]})
    )
    _assert_usage_error(capsys, ["q", str(spec_file)], "n_roots")


def test_series_json_rejects_inexact_numbers():
    def record(coeff, wmax=1):
        block = {"t_deg": 1, "y_deg": 0, "terms": [{"exps": {"L": 1}, "coeff": coeff}]}
        return {"wmax": wmax, "qmax": 0, "records": [block]}

    assert parse_series_json(record("1/3")) == F(1, 3) * WSeries.var("L", 1, 0)
    for bad in (record(0.1), record("1/0"), record("1", wmax=2.7)):
        with pytest.raises(UsageError):
            parse_series_json(bad)


def test_exps_that_are_not_an_object_are_usage_errors(tmp_path, capsys):
    # a base file and a series record read their monomials the same way
    base_file = tmp_path / "exps.json"
    monomial = {"exps": ["L"], "value": "1"}
    base_file.write_text(json.dumps({"dim": 1, "monomials": [monomial]}))
    argv = ["chi", "E8", "--base-file", str(base_file)]
    _assert_usage_error(capsys, argv, "exps must be a JSON object")
    block = {"t_deg": 1, "y_deg": 0, "terms": [{"exps": ["L"], "coeff": "1"}]}
    with pytest.raises(UsageError, match="exps must be a JSON object"):
        parse_series_json({"wmax": 1, "qmax": 0, "records": [block]})


def test_series_json_rejects_negative_y_degree():
    block = {"t_deg": 0, "y_deg": -1, "terms": [{"exps": {}, "coeff": "1"}]}
    with pytest.raises(UsageError, match="negative y-degree"):
        parse_series_json({"wmax": 1, "qmax": 1, "records": [block]})


def _series_record_set(*records, wmax=3, qmax=1):
    return {"wmax": wmax, "qmax": qmax, "records": list(records)}


def _record(t_deg, y_deg, *terms):
    return {"t_deg": t_deg, "y_deg": y_deg,
            "terms": [{"exps": exps, "coeff": coeff} for exps, coeff in terms]}


@pytest.mark.parametrize(
    "records, needle",
    [
        # a record's t_deg is the weight of each of its terms
        ([_record(5, 0, ({"L": 1}, "1"))],
         """term {"L": 1} at y_deg 0 has weight 1, not its record's t_deg 5"""),
        ([_record(0, 0, ({"c2": 1}, "1"))], "has weight 2, not its record's t_deg 0"),
        # a term appears once, within a record or across two
        ([_record(1, 0, ({"L": 1}, "2"), ({"L": 1}, "7"))],
         'term {"L": 1} at y_deg 0 appears twice'),
        ([_record(1, 0, ({"L": 1}, "2")), _record(1, 0, ({"L": 1}, "7"))],
         "appears twice"),
        # a term past the orders is refused, not dropped
        ([_record(5, 0, ({"L": 5}, "1"))],
         'term {"L": 5} at y_deg 0 lies past (wmax, qmax) = (3, 1)'),
        ([_record(1, 2, ({"H": 1}, "1"))], "lies past (wmax, qmax) = (3, 1)"),
        ([{"y_deg": 0, "terms": [{"exps": {"L": 1}, "coeff": "1"}]}], "'t_deg'"),
        ([_record(1.0, 0, ({"L": 1}, "1"))], "t_deg must be an integer"),
    ],
    ids=["t_deg-5", "t_deg-0", "repeat", "repeat-across-records", "past-wmax",
         "past-qmax", "no-t_deg", "float-t_deg"],
)
def test_series_json_is_read_strictly(records, needle):
    with pytest.raises(UsageError, match=re.escape(needle)):
        parse_series_json(_series_record_set(*records))


@pytest.mark.parametrize(
    "field", ["wmax", "qmax", "records", "t_deg", "y_deg", "terms", "exps", "coeff"])
def test_series_json_names_a_missing_field(field):
    data = _series_record_set(_record(1, 0, ({"L": 1}, "2")))
    record = data["records"][0]
    holder = next(h for h in (data, record, record["terms"][0]) if field in h)
    del holder[field]
    with pytest.raises(UsageError) as info:
        parse_series_json(data)
    assert str(info.value) == "malformed series JSON: missing field %r" % field


def test_series_json_reads_each_term_at_its_weight_and_y_degree():
    data = _series_record_set(
        _record(0, 1, ({}, "-1")), _record(1, 0, ({"L": 1}, "2"), ({"H": 1}, "1/3")),
        _record(3, 1, ({"L": 1, "c2": 1}, "5/2")), _record(2, 0))
    L, H, c2 = (WSeries.var(v, 3, 1) for v in ("L", "H", "c2"))
    y = WSeries.y(3, 1)
    assert parse_series_json(data) == -y + 2 * L + F(1, 3) * H + F(5, 2) * L * c2 * y


# strings outside the grammar "num" / "num/den" (ASCII digits, num with an
# optional '-', den > 0): Fraction(str) read '_' between digits on 3.11+,
# spaces around '/' on 3.12+, and other scripts' digits, a '+', padding,
# decimals and exponents on every version
_NOT_RATIONAL_STRINGS = [
    "1_000", "1 / 2", "\u0663", "+3", " 2 ", "1.5", "1e3", "\uff13", "1/0", "1/00",
    "1/-2", "-1/-2", "1/+2", "/2", "1/", "", "-", "1/2/3", "0x10", "inf", "nan",
]


@pytest.mark.parametrize("text", _NOT_RATIONAL_STRINGS)
def test_rational_strings_outside_the_grammar_are_refused(tmp_path, capsys, text):
    grammar = 'must be an exact rational string "num" or "num/den"'
    base_file = tmp_path / "value.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials(text)}))
    argv = ["chi", "E8", "--base-file", str(base_file)]
    _assert_usage_error(capsys, argv, "value " + grammar)
    data = _series_record_set(_record(1, 0, ({"L": 1}, text)))
    with pytest.raises(UsageError, match=re.escape("coeff " + grammar)):
        parse_series_json(data)


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), ("-0", 0), ("007", 7), ("-12", -12), ("6/4", F(3, 2)),
     ("-6/4", F(-3, 2)), ("0/5", 0), ("3/007", F(3, 7)),
     ("123456789012345678901/3", F(123456789012345678901, 3))],
)
def test_rational_strings_in_the_grammar_are_read_exactly(tmp_path, text, value):
    base_file = tmp_path / "value.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials(text)}))
    assert load_base_spec(str(base_file)).table[(("c2", 1),)] == value
    data = _series_record_set(_record(1, 0, ({"L": 1}, text)))
    assert parse_series_json(data) == value * WSeries.var("L", 3, 1)


def test_a_base_file_reads_as_the_validated_base(tmp_path):
    # the reader builds the base from ints; the constructor checks every
    # monomial and converts every value: both give one base, under == and
    # hash, with one int table and one Fraction table
    rng = random.Random(43)
    for d in range(5):
        for n in range(3):
            table = {m: F(rng.randrange(-30, 30), rng.randrange(1, 9))
                     for m in BaseSpec.projective_space(d, n).table}
            monomials = [{"exps": dict(m), "value": str(v) if rng.random() < 0.8
                          else "%d/%d" % (2 * v.numerator, 2 * v.denominator)}
                         for m, v in table.items()]
            base_file = tmp_path / "base.json"
            base_file.write_text(json.dumps({"dim": d, "monomials": monomials}))
            read, checked = load_base_spec(str(base_file)), BaseSpec(d, table)
            assert read == checked and hash(read) == hash(checked), (d, n)
            assert read._ints == checked._ints and read.table == checked.table


def test_a_base_file_is_refused_for_a_weight_or_a_dimension(tmp_path, capsys):
    base_file = tmp_path / "weight.json"
    monomials = _p2_monomials("3") + [{"exps": {"c3": 1}, "value": "1"}]
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    argv = ["chi", "E8", "--base-file", str(base_file)]
    _assert_usage_error(capsys, argv, "table monomial (('c3', 1),) has weight != 2")
    base_file.write_text(json.dumps({"dim": -1, "monomials": []}))
    _assert_usage_error(capsys, argv, "dimension must be >= 0")


@pytest.mark.parametrize("exps, needle", [
    ({"L": 2}, """table entry {"L": 2} repeats (('L', 2),)"""),
    ({"L": 2, "c3": 0}, """table entry {"L": 2, "c3": 0} repeats (('L', 2),)"""),
    ({"H": 2}, """table entry {"H": 2} has a factor H, not a base class"""),
])
def test_a_base_file_refuses_a_repeated_monomial_or_an_h_factor(
    tmp_path, capsys, exps, needle
):
    # P^2 with L = O(3) gives chi_1 = 270; a later value of L^2, or a monomial
    # in H, would be read over it or skipped, and chi_1 come out wrong
    base_file = tmp_path / "repeat.json"
    monomials = _p2_monomials("3") + [{"exps": exps, "value": "5"}]
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    argv = ["chi", "E8", "--base-file", str(base_file), "--q", "1"]
    _assert_usage_error(capsys, argv, needle)
    base_file.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials("3")}))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == "chi_1 = 270\n"


# -- verify ---------------------------------------------------------------------


def test_verify_smoke(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "D5", "--wmax", "2")
    assert code == 0
    assert "PASS (8 suites)" in out
    for name in (
        "derived-vs-closed",
        "p-table",
        "d5-derivative-oracle",
        "hadamard-identity",
        "euler-crosscheck",
        "serre-duality",
        "integrality",
        "route-consistency",
    ):
        assert "%s: PASS" % name in out


def test_verify_fails_on_corrupted_catalog(capsys, monkeypatch):
    bad = FibrationSpec(
        name="D5",
        bundle=BundleSpec((0, 1, 1, 1)),
        n_roots=(RootForm(2, 2), RootForm(2, 3)),
    )
    monkeypatch.setitem(CATALOG, "D5", bad)
    code, out, _ = run_cli(capsys, "verify", "--family", "D5", "--wmax", "2")
    assert code == 1
    assert "derived-vs-closed: FAIL" in out
    assert "first mismatch at weight" in out
    assert "FAIL (1 of 8 suites)" in out


# -- exit codes: 2 for bad input, 3 for a fault of the program --------------------


def _engine_fault(*_args, **_kwargs):
    raise ValueError("injected engine fault")


# every engine call of each command: for chi, the pairing of each q
# (_pairing) on each path, and chi_series, which every path reads once
# and --class also writes
@pytest.mark.parametrize(
    "name, argv",
    [
        ("closed_form_q", ["q", "E8", "--wmax", "2"]),
        ("derived_q", ["q", "SPEC", "--wmax", "2"]),
        ("chi_series", ["chi", "E8", "--base", "pd:2:3", "--class"]),
        ("_pairing", ["chi", "E6", "--base", "pd:1:1", "--q", "1"]),
        ("run_suites", ["verify", "--family", "E8"]),
        ("_pairing", ["chi", "E8", "--base", "pd:2:3"]),
        ("_total_dim", ["chi", "E8", "--base", "pd:2:3"]),
    ],
)
def test_an_engine_fault_exits_3(tmp_path, capsys, monkeypatch, name, argv):
    spec_file = tmp_path / "e8.json"
    spec = {"name": "w", "bundle": [0, 2, 3], "n_roots": [[3, 6]]}
    spec_file.write_text(json.dumps(spec))
    # cmd_verify reads run_suites from verify, which it imports when it runs;
    # cmd_q reads closed_form_q and derived_q through fibrations._genus_factor
    owner = {"run_suites": verify, "closed_form_q": fibrations, "derived_q": fibrations}
    monkeypatch.setattr(owner.get(name, _cli), name, _engine_fault)
    argv = [str(spec_file) if a == "SPEC" else a for a in argv]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err == "internal error: ValueError: injected engine fault\n"


@pytest.mark.parametrize("name", ["closed_form_q", "derived_q"])
def test_every_reader_of_q_takes_one_route(tmp_path, capsys, monkeypatch, name):
    # pushforward_class, a cold chi_series and `ellgenus q` read Q through
    # fibrations._genus_factor alone, so one fault injected into the route
    # that it picks reaches all three: E8 by its closed form, a spec (as a
    # record, and as a file for the command) by its pushforward
    spec_file = tmp_path / "w.json"
    spec_file.write_text(json.dumps({"name": "w", "bundle": [0, 2, 3], "n_roots": [[3, 6]]}))
    if name == "closed_form_q":
        target, token = "E8", "E8"
    else:
        target, token = load_fibration_spec(str(spec_file)), str(spec_file)
    monkeypatch.setattr(fibrations, name, _engine_fault)
    for read in (pushforward_class, chi_series):
        with pytest.raises(ValueError, match="injected engine fault"):
            read(target, 2)
    code, _out, err = run_cli(capsys, "q", token, "--wmax", "2")
    assert (code, err) == (3, "internal error: ValueError: injected engine fault\n")


@pytest.mark.parametrize("argv", [["verify"], ["chi", "E8", "--base", "pd:2:3"]])
def test_a_monomial_missing_from_a_table_the_program_built_exits_3(
    capsys, monkeypatch, argv
):
    # a key decoder that reads the field of ci as c(i+1): the pairing then
    # asks the table for a monomial it cannot hold, a fault of the program
    # when the table is not a --base-file
    names = lambda f: ("L", "H")[f - 2] if f < 4 else "c%d" % (f - 2)  # noqa: E731
    monkeypatch.setattr(_packed, "_field_name", names)
    code, _out, err = run_cli(capsys, *argv)
    assert (code, err) == (3, "internal error: MissingIntersectionError: "
                           "no intersection number for monomial {'L': 1, 'c2': 1}\n")


# every kind of invalid call in the benchmark's cli stream
_INVALID_CALLS = [
    ["q", "E9"], ["ptable", "F4"], ["chi", "G2", "--base", "pd:2:3"], ["q", "D4"],
] + [
    ["chi", "E7", "--base", base]
    for base in ("pd:x:3", "pd:3", "pq:2:3", "pd:2:3:4", "pd:-1:2", "pd:2:y")
]


@pytest.mark.parametrize("argv", _INVALID_CALLS, ids=" ".join)
def test_invalid_calls_exit_2_with_one_error_line(capsys, argv):
    _assert_usage_error(capsys, argv, argv[-1] if argv[0] != "chi" else "")


@pytest.mark.parametrize("option", ["--wmax", "--qmax"])
@pytest.mark.parametrize("command", ["q E8", "verify"])
def test_negative_orders_are_usage_errors(capsys, command, option):
    code, out, err = run_cli(capsys, *command.split(), option, "-1")
    assert code == 2 and out == ""
    assert "argument %s: must be >= 0" % option in err


# forms that int() reads as integers: digits of other scripts, '_' between
# digits, padding, a '+' sign, and none of the digits at all
_NOT_ASCII_INTEGERS = ["\u0663", "\uff13", "1_0", " 2", "2 ", "+2", "-", ""]


@pytest.mark.parametrize("text", _NOT_ASCII_INTEGERS)
@pytest.mark.parametrize(
    "command", ["q E8 --wmax", "q E8 --qmax", "ptable E8 --nmax", "verify --wmax"]
)
def test_orders_are_ascii_integers(capsys, command, text):
    code, out, err = run_cli(capsys, *command.split(), text)
    assert code == 2 and out == ""
    assert "argument %s: invalid _order value: %r" % (command.split()[-1], text) in err


@pytest.mark.parametrize("text", _NOT_ASCII_INTEGERS)
def test_base_and_q_are_ascii_integers(capsys, text):
    for base in ("pd:%s:3" % text, "pd:2:%s" % text):
        _assert_usage_error(capsys, ["chi", "E8", "--base", base], "(expected integers)")
    argv = ["chi", "E8", "--base", "pd:2:3", "--q", text]
    _assert_usage_error(capsys, argv, "--q expects an integer or 'all'")


def test_ascii_integers_with_a_sign_or_leading_zeros_are_read():
    assert [_integer(t) for t in ("0", "-0", "007", "-12", "123456789012345678901")] == [
        0, 0, 7, -12, 123456789012345678901]


def test_input_files_that_are_not_objects_or_lack_an_entry_exit_2(tmp_path, capsys):
    not_object = tmp_path / "list.json"
    not_object.write_text("[3]")
    for argv in (["q", str(not_object)], ["chi", "E8", "--base-file", str(not_object)]):
        _assert_usage_error(capsys, argv, "does not hold a JSON object")
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"dim": 2, "monomials": _p2_monomials("3")[:1]}))
    _assert_usage_error(
        capsys, ["chi", "E8", "--base-file", str(partial)], "no intersection number"
    )


def test_chi_reads_a_class_only_under_the_class_option(capsys, monkeypatch):
    coeffs = count_calls(monkeypatch, WSeries, "coeff")
    code, out, _ = run_cli(capsys, "chi", "E8", "--base", "pd:3:4")
    assert code == 0 and "alternating sum = 23328" in out
    assert coeffs == []
    code, out, _ = run_cli(capsys, "chi", "E8", "--base", "pd:3:4", "--class")
    assert code == 0 and out.count("class for q=") == len(coeffs) == 5


def test_a_table_missing_several_monomials_names_the_same_one_everywhere(
    tmp_path, capsys
):
    # four monomials of the P^3 table are gone; the one named is the first
    # missing one in the class's term order, whichever way the table is read
    full = BaseSpec.projective_space(3, 4).table
    gone = [{"L": 3}, {"L": 1, "c1": 2}, {"c1": 1, "c2": 1}, {"c3": 1}]
    monomials = [
        {"exps": dict(mono), "value": str(value)}
        for mono, value in full.items()
        if dict(mono) not in gone
    ]
    base_file = tmp_path / "holes.json"
    base_file.write_text(json.dumps({"dim": 3, "monomials": monomials}))
    base = load_base_spec(str(base_file))
    message = "no intersection number for monomial {'L': 1, 'c1': 2}"
    exact = "^%s$" % re.escape(message)
    for q in range(5):
        with pytest.raises(MissingIntersectionError, match=exact):
            chi_q("E8", base, q)
        with pytest.raises(MissingIntersectionError, match=exact):
            integrate(chi_series("E8", 3, 5).coeff(3, q), base)
    for extra in ([], ["--q", "2"]):
        argv = ["chi", "E8", "--base-file", str(base_file)] + extra
        assert run_cli(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_chi_of_a_spec_file_lists_every_q_up_to_dim_y(tmp_path, capsys):
    spec_file = tmp_path / "fd2.json"
    spec = {"name": "fd2", "bundle": [0, 0, 1, 2, 5], "n_roots": [[1, 1], [2, 5]]}
    spec_file.write_text(json.dumps(spec))
    argv = ["chi", str(spec_file), "--base", "pd:1:1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-2:] == ["chi_3 = -1", "alternating sum = 2"]
    assert run_cli(capsys, *argv, "--q", "3")[:2] == (0, "chi_3 = -1\n")


# a bundle with a double exponent and an N-root at its slope: over P^1 its
# chi_0 row reads c1 alone and its chi_1 row reads L
_LIVE_POLE = {"name": "live", "bundle": [0, 1, 1], "n_roots": [[2, 2]]}
# not the table of a variety: fractions whose alternating sum reduces
_FRACTION_P2 = [{"exps": {"L": 2}, "value": "1/3"},
                {"exps": {"L": 1, "c1": 1}, "value": "-5/7"},
                {"exps": {"c1": 2}, "value": "9"}, {"exps": {"c2": 1}, "value": 3}]


@pytest.mark.parametrize("family, want", [
    ("E7", ["-11/21", "247/21", "-247/21", "11/21", "-172/7"]),
    ("live", ["1", "-13/21", "13/21", "-1", "68/21"]),
])
def test_chi_prints_each_value_and_the_sum_as_str_of_a_fraction(
    tmp_path, capsys, family, want
):
    # every line is written from the one pass's ints over their shared
    # denominator, as str(Fraction) writes the value chi_q returns
    base_file, spec_file = tmp_path / "frac.json", tmp_path / "live.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": _FRACTION_P2}))
    spec_file.write_text(json.dumps(_LIVE_POLE))
    target = str(spec_file) if family == "live" else family
    code, out, err = run_cli(capsys, "chi", target, "--base-file", str(base_file))
    lines = ["chi_%d = %s" % (q, v) for q, v in enumerate(want[:-1])]
    lines.append("alternating sum = " + want[-1])
    assert (code, out, err) == (0, "".join(line + "\n" for line in lines), "")
    base = load_base_spec(str(base_file))
    spec = load_fibration_spec(target) if family == "live" else family
    values = [chi_q(spec, base, q) for q in range(len(want) - 1)]
    assert [str(v) for v in values] == want[:-1]
    assert str(sum((-1) ** q * v for q, v in enumerate(values))) == want[-1]
    for q, text in enumerate(want[:-1]):
        argv = ["chi", target, "--base-file", str(base_file), "--q", str(q)]
        assert run_cli(capsys, *argv) == (0, "chi_%d = %s\n" % (q, text), "")


@pytest.mark.parametrize("flags, out", [
    ([], "chi_0 = 1\n"),
    (["--class"], "class for q=0 (weight 1): 1/2*c1\nchi_0 = 1\n"
                  "class for q=1 (weight 1): -2*L - c1\n"),
])
def test_a_monomial_only_a_later_q_reads_stops_chi_after_the_earlier_lines(
    tmp_path, capsys, flags, out
):
    # the pass is lazy: chi_0 is printed before chi_1 finds no value for L
    base_file, spec_file = tmp_path / "no_l.json", tmp_path / "live.json"
    base_file.write_text(json.dumps({"dim": 1, "monomials": [
        {"exps": {"c1": 1}, "value": "2"}]}))
    spec_file.write_text(json.dumps(_LIVE_POLE))
    argv = ["chi", str(spec_file), "--base-file", str(base_file)] + flags
    assert run_cli(capsys, *argv) == (
        2, out, "error: no intersection number for monomial {'L': 1}\n")


def test_usage_exit_code(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["q"]) == 2
    capsys.readouterr()


def _redirected(argv):
    """(exit code, stdout, stderr) of one ``main`` call, with both streams
    redirected the way an embedding program would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_answer_as_the_first(tmp_path):
    monomials = [
        {"exps": {v: e for v, e in mono}, "value": str(value)}
        for mono, value in BaseSpec.projective_space(2, 3).table.items()
    ]
    base_file = tmp_path / "p2.json"
    base_file.write_text(json.dumps({"dim": 2, "monomials": monomials}))
    argvs = [
        ["q", "E6", "--wmax", "3", "--qmax", "2"],
        ["q", "E6", "--wmax", "3", "--qmax", "2", "--format", "json"],
        ["q", "E6", "--wm=3", "--q", "2", "--format", "latex"],
        ["ptable", "D5", "--check", "--nmax", "4"],
        ["chi", "E8", "--base", "pd:2:3"],
        ["chi", "D5", "--base-file", str(base_file), "--q", "1"],
        ["verify", "--family", "E8"],
        [],
        ["q"],
        ["q", "nosuch"],
        ["q", "-h"],
    ]
    first = [_redirected(argv) for argv in argvs]
    codes = [code for code, _out, _err in first]
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0]
    assert first[9][2].startswith("error: unknown family")
    for _round in range(3):
        assert [_redirected(argv) for argv in argvs] == first


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["ellgenus", "ptable", "E6", "--nmax", "1"])
    assert main() == 0
    assert capsys.readouterr().out == "P0 = 1-U\nP1 = U^4+2U^3+U^2-U-3\n"


# the options of each command, written out here so that the help and the
# drawn calls do not come from the table they test
_OPTIONS = {
    "q": ["--wmax", "--qmax", "--format", "--closed"],
    "ptable": ["--nmax", "--check"],
    "chi": ["--base", "--base-file", "--q", "--class"],
    "verify": ["--family", "--wmax", "--qmax"],
}


def test_help_lists_every_command_and_option(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ellgenus [-h] {q,ptable,chi,verify} ...\n")
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert listed == ["q", "ptable", "chi", "verify", "-h,"]
    for command, names in _OPTIONS.items():
        for ask in ("-h", "--help", "--he"):
            code, out, err = run_cli(capsys, command, ask)
            assert (code, err) == (0, "")
            usage, *lines = out.splitlines()
            assert usage.startswith("usage: ellgenus %s [-h] " % command)
            listed = [line.split()[0] for line in lines if line.startswith("  ")]
            assert listed == names + ["-h,"]


# each kind of usage error, as argparse words it: the golden corpus pins the
# first two lines
_ERROR_LINES = [
    (["q", "E8", "--wmax", "-1"], "ellgenus q: error: argument --wmax: must be >= 0, got -1"),
    (["ptable", "E8", "--nmax", "x"],
     "ellgenus ptable: error: argument --nmax: invalid _order value: 'x'"),
    (["q"], "ellgenus q: error: the following arguments are required: family"),
    ([], "ellgenus: error: the following arguments are required: command"),
    (["q", "E8", "E6", "--foo"], "ellgenus: error: unrecognized arguments: E6 --foo"),
    (["q", "E8", "--format", "yaml"], "ellgenus q: error: argument --format: "
     "invalid choice: 'yaml' (choose from 'text', 'json', 'latex')"),
    (["E8"], "ellgenus: error: argument command: "
     "invalid choice: 'E8' (choose from 'q', 'ptable', 'chi', 'verify')"),
    (["verify", "--wmax"], "ellgenus verify: error: argument --wmax: expected one argument"),
    (["q", "E8", "--closed=yes"],
     "ellgenus q: error: argument --closed: ignored explicit argument 'yes'"),
    (["chi", "E8", "--bas", "pd:2:3"],
     "ellgenus chi: error: ambiguous option: --bas could match --base, --base-file"),
]


@pytest.mark.parametrize("argv, line", _ERROR_LINES, ids=[" ".join(a) for a, _ in _ERROR_LINES])
def test_each_usage_error_writes_its_usage_and_argparse_s_error_line(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: ellgenus") and error == line
    assert _argparse_outcome(argv) == (2, line + "\n")  # argparse wrote the same line


# -- the option table against argparse ------------------------------------------------


_ARGPARSE = argparse_parser()
# positionals and values: catalog names and others, choices, integers,
# negative numbers, "-", the empty word, words with a space
_WORDS = ["E8", "D5", "x", "all", "json", "yaml", "pd:2:3", "0", "3", "-1", "-2.5",
          "-", "", "a b", "-1 2", "+2"]


def _help_or_error(code, out, err):
    """What a refused or help call is compared by: the first words of the
    help's usage line, or the error line (to the end of stderr)."""
    if code == 0:
        return " ".join(out.split()[:3])
    return err[err.rfind("\n", 0, err.index(": error: ")) + 1:]


def _table_outcome(argv):
    """(exit code, the namespace's attributes or ``_help_or_error``) of the
    option table's reader, run through ``main`` when it refuses a call."""
    try:
        return 0, vars(cli._read(list(argv)))
    except cli._Usage:
        code, out, err = _redirected(argv)
        return code, _help_or_error(code, out, err)


def _argparse_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return 0, vars(_ARGPARSE.parse_args(list(argv)))
    except SystemExit as exc:
        return exc.code, _help_or_error(exc.code, out.getvalue(), err.getvalue())


@st.composite
def _argvs(draw):
    """A call of one of the four commands (or of none, or of another word):
    positionals, extra ones and values from ``_WORDS``; each option written
    whole or as a prefix (unique or ambiguous), its value apart, joined by
    "=" or missing; unknown options, -h and --help; a program option before
    the command.  No "--" and no -h with letters joined, which argparse reads
    differently across Python versions."""
    command = draw(st.sampled_from(list(_OPTIONS) * 4 + ["x", "-1", ""]))
    argv = draw(st.sampled_from([[]] * 12 + [["-h"], ["--he"], ["--foo"], ["--help=x"]]))
    argv += [command] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["word"] * 2 + ["option"] * 5 + ["other"]))
        if kind == "word":
            argv.append(draw(st.sampled_from(_WORDS)))
        elif kind == "other":
            argv.append(draw(st.sampled_from(["--foo", "-x", "--foo=3", "-x=3", "---",
                                              "-h", "--help", "--he", "--help="])))
        else:
            name = draw(st.sampled_from(_OPTIONS.get(command, ["--wmax"])))
            name = name[:draw(st.integers(3, len(name)))]
            value = draw(st.sampled_from(_WORDS))
            form = draw(st.sampled_from(["apart", "apart", "joined", "missing"]))
            argv += {"apart": [name, value], "joined": [name + "=" + value],
                     "missing": [name]}[form]
    return argv


@settings(max_examples=500)
@given(_argvs())
def test_the_option_table_reads_every_call_as_argparse_does(argv):
    # the exit code; for a clean call the namespace, handler included; for
    # a refused one the error line, and for -h or --help whose help it is
    assert _table_outcome(argv) == _argparse_outcome(argv)


def test_the_program_level_classes_no_word_past_the_command_word(monkeypatch):
    # the program level reads the command word and hands on the rest, so
    # each word is classed once: by the program up to the command word, by
    # the command after it
    calls = count_calls(monkeypatch, _cli, "_option")
    argv = ["q", "E8", "--wmax", "7", "--format", "json"]
    assert vars(cli._read(argv))["format"] == "json"
    assert [word for word, _names, _command in calls] == argv
    calls.clear()
    with pytest.raises(cli._Usage, match="unrecognized arguments: --foo"):
        cli._read(["--foo", "ptable", "D5", "--check"])
    assert [word for word, _names, _command in calls] == ["--foo", "ptable", "D5", "--check"]


# -- fuzzed calls -------------------------------------------------------------------


# a status per part of a call: "clean" parts make a call that exits 0, one
# "bad" part makes it exit 2, and "any" parts may do either
_STATUSES = ("clean", "any", "bad")
_WRONG_TYPES = [1.5, 2.0, "1", None, True, [], {}, [[1, 0]]]
_HUGE_INTS = [2**70, -(2**70), 2**63]


def _int_text(low, high):
    """(text, status) of an integer argument: mostly an ASCII integer in
    low..high, else a string that ``int`` reads and the command line
    refuses."""
    valid = st.integers(low, high).map(lambda n: (str(n), "clean"))
    refused = st.sampled_from(_NOT_ASCII_INTEGERS).map(lambda t: (t, "bad"))
    return st.one_of(valid, valid, valid, refused)


def _order_text(high):
    negative = st.integers(-3, -1).map(lambda n: (str(n), "bad"))
    return st.one_of(_int_text(0, high), _int_text(0, high), negative)


def _int_paths(spec):
    """The places of the ints of a spec object: (field, index[, coordinate])."""
    paths = [("bundle", i) for i in range(len(spec["bundle"]))]
    for field in ("n_roots", "f_roots"):
        rows = range(len(spec.get(field, ())))
        paths += [(field, i, j) for i in rows for j in (0, 1)]
    return paths


def _replace(spec, path, value):
    field, *index = path
    if not index:
        spec[field] = value
        return
    inner = spec[field]
    for i in index[:-1]:
        inner = inner[i]
    inner[index[-1]] = value


@st.composite
def _spec_text(draw):
    """(JSON text, status) of a spec file: a spec of rank 1-4 with at most
    two normal roots, its F-roots listed or not, kept or mutated."""
    exps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    count = draw(st.integers(0, min(2, len(exps) - 1)))
    root = st.tuples(st.integers(1, 3), st.integers(-3, 3)).map(list)
    spec = {"name": "fuzz", "bundle": exps,
            "n_roots": draw(st.lists(root, min_size=count, max_size=count))}
    if draw(st.booleans()):
        spec["f_roots"] = draw(st.permutations([[1, m] for m in exps]))
    kind = draw(st.sampled_from(
        ["kept"] * 4 + ["extra key", "missing key", "float", "huge int", "wrong type",
                        "bad JSON", "not an object"]
    ))
    status = "clean"
    if kind == "extra key":
        spec[draw(st.sampled_from(["comment", "wmax", "Name"]))] = draw(
            st.sampled_from(_WRONG_TYPES))
    elif kind == "missing key":
        del spec[draw(st.sampled_from(["name", "bundle", "n_roots"]))]
        status = "bad"
    elif kind == "float":
        path = draw(st.sampled_from(_int_paths(spec)))
        _replace(spec, path, draw(st.sampled_from([0.5, 1.0, -2.0])))
        status = "bad"
    elif kind in ("huge int", "wrong type"):
        fields = [(f,) for f in spec]
        path = draw(st.sampled_from(_int_paths(spec) + fields))
        values = _HUGE_INTS if kind == "huge int" else _WRONG_TYPES
        _replace(spec, path, draw(st.sampled_from(values)))
        status = "any"
    text = json.dumps(spec)
    if kind == "bad JSON":  # a proper prefix of an object is never JSON
        text, status = text[: draw(st.integers(0, len(text) - 1))], "bad"
    elif kind == "not an object":
        text, status = json.dumps(draw(st.sampled_from([list(spec), 3, "spec"]))), "bad"
    return text, status


@st.composite
def _base_text(draw):
    """(JSON text, status) of a base file: P^d with L = O(n), d <= 2, its
    table kept, short of a monomial, with a float value, or cut short."""
    d, n = draw(st.integers(0, 2)), draw(st.integers(-3, 4))
    table = BaseSpec.projective_space(d, n).table.items()
    monomials = [{"exps": dict(mono), "value": str(v)} for mono, v in table]
    kind = draw(st.sampled_from(["kept"] * 3 + ["missing", "float", "bad JSON"]))
    status = "clean"
    if kind == "missing":
        del monomials[draw(st.integers(0, len(monomials) - 1))]
        status = "any"
    elif kind == "float":
        monomials[draw(st.integers(0, len(monomials) - 1))]["value"] = 1.0
        status = "bad"
    text = json.dumps({"dim": d, "monomials": monomials})
    if kind == "bad JSON":
        text, status = text[: draw(st.integers(0, len(text) - 1))], "bad"
    return text, status


# a value each option reads without an error, given before the drawn one
_FIRST_VALUES = {"--wmax": "0", "--qmax": "0", "--nmax": "0", "--format": "latex",
                 "--family": "all", "--q": "0", "--base": "pd:0:0", "--base-file": "x"}


@st.composite
def _fuzzed_calls(draw):
    """(argv, files, statuses): a call of one command, in which the words
    SPEC and BASE stand for the paths of the spec and base files of
    ``files``, and the status of each of its parts.  Each option is written
    whole or as a unique prefix, with its value apart or joined by "=", or
    given twice, a clean value first; one call in ten asks for -h or --help
    first, and its status is "help"."""
    command = draw(st.sampled_from(["q", "ptable", "chi", "verify"]))
    files, options = {}, []

    def spelled(name):
        others = [o for o in _OPTIONS[command] + ["--help"] if o != name]
        unique = [name[:k] for k in range(3, len(name))
                  if not any(o.startswith(name[:k]) for o in others)]
        return draw(st.sampled_from([name] + unique))

    def flag(name, status="clean"):
        if draw(st.booleans()):
            options.append(([spelled(name)], status))

    def option(name, value):
        if draw(st.booleans()):
            text, status = draw(value)
            form = draw(st.sampled_from(["apart", "joined", "twice"]))
            if form == "joined":
                words = [spelled(name) + "=" + text]
            else:
                words = [spelled(name), text]
            if form == "twice":  # the last value counts
                words = [spelled(name), _FIRST_VALUES[name]] + words
            options.append((words, status))

    def family(catalog_only):
        kind = draw(st.sampled_from(["catalog", "catalog", "spec", "spec", "other"]))
        if kind == "catalog":
            return draw(st.sampled_from(FAMILIES)), "clean"
        if kind == "other":  # no family and no spec file
            return draw(st.sampled_from(["E9", "e8", "", ".", "nosuch.json"])), "bad"
        files["SPEC"], status = draw(_spec_text())
        return "SPEC", "bad" if catalog_only else status

    head = [([command], "clean")]
    if not draw(st.integers(0, 9)):  # the help, whatever follows
        head.append(([draw(st.sampled_from(["-h", "--help", "--he"]))], "help"))
    if command in ("q", "chi"):
        name, status = family(False)
        head.append(([name], status))
    if command == "q":
        option("--wmax", _order_text(4))
        option("--qmax", _order_text(4))
        formats = [("text", "clean"), ("json", "clean"), ("latex", "clean")]
        option("--format", st.sampled_from(formats + [("yaml", "bad")]))
        flag("--closed", "clean" if name in FAMILIES else "bad")
    elif command == "ptable":
        name, status = family(True)
        head.append(([name], status))
        option("--nmax", _order_text(8))
        flag("--check")
    elif command == "chi":
        base = draw(st.sampled_from(["pd"] * 3 + ["file"] * 2 + ["other", "none"]))
        if base == "pd":
            (d, s1), (n, s2) = draw(_int_text(0, 2)), draw(_int_text(-3, 4))
            status = max(s1, s2, key=_STATUSES.index)
            options.append((["--base", "pd:%s:%s" % (d, n)], status))
        elif base == "other":
            text = draw(st.sampled_from(["pd:1", "pq:1:1", "pd:1:1:1", "pd:-1:2", "1"]))
            options.append((["--base", text], "bad"))
        elif base == "file":
            files["BASE"], status = draw(_base_text())
            options.append((["--base-file", "BASE"], status))
        else:
            options.append(([], "bad"))  # a base is required
        in_range = _int_text(-2, 6).map(  # 0..dim Y, or not
            lambda t: (t[0], "any" if t[1] == "clean" else "bad"))
        clean = st.sampled_from([("all", "clean"), ("0", "clean")])
        option("--q", st.one_of(clean, in_range))
        flag("--class")
    else:
        families = [(f, "clean") for f in ("all",) + FAMILIES]
        option("--family", st.sampled_from(families + [("E9", "bad")]))
        option("--wmax", _order_text(4))
        option("--qmax", _order_text(4))
    parts = head + draw(st.permutations(options))
    argv = [word for words, _status in parts for word in words]
    return argv, files, [status for _words, status in parts]


@settings(max_examples=300)
@given(_fuzzed_calls())
def test_fuzzed_commands_exit_0_or_2(call):
    """Drawn calls of every command: catalog families, names that are not
    one, and spec files kept or mutated (wrong types, floats, huge ints,
    missing and extra keys, bad JSON); ``--base`` strings and base files;
    ``--q``, orders, ``--format`` and flags; integers that ``int`` reads
    and the command line refuses.  The orders are kept at most 8, and most
    at most 4, for run time: no order has an upper bound, and a huge one
    runs as long as it takes.

    Options come whole or as unique prefixes, with ``=`` or apart, some
    twice; a call may ask for -h or --help.

    Each call exits 0 with nothing on stderr (and JSON that parses, for
    ``q --format json``), or 2 with an ``error:`` line or a usage line;
    a call with a bad part exits 2 and one with only clean parts exits 0.
    One that asks for the help first exits 0 with its command's help.
    """
    argv, files, statuses = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name.lower() + ".json")
            with open(paths[name], "w") as fh:
                fh.write(text)
        argv = [paths.get(word, word) for word in argv]
        code, out, err = _redirected(argv)
    assert code in (0, 2), (argv, err)
    if "help" in statuses:
        assert (code, err) == (0, "")
        assert out.startswith("usage: ellgenus %s [-h] " % argv[0])
        return
    if code == 0:
        assert err == ""
        args = cli._read(argv)
        if args.command == "q" and args.format == "json" and not args.closed:
            json.loads(out)
    else:
        assert err.startswith(("error: ", "usage: ellgenus")), err
    if "bad" in statuses:
        assert code == 2, argv
    elif set(statuses) == {"clean"}:
        assert code == 0, (argv, err)

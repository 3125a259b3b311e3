"""The self-verification suites, including corrupted catalog data as a
negative control."""

import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgenus import (
    FAMILIES,
    BaseSpec,
    BundleSpec,
    FibrationSpec,
    Poly,
    RootForm,
    WSeries,
    _packed,
    charclasses,
    chi_y_log_coefficients,
    fibrations,
    hadamard_apply,
    power_sum_series,
    power_sums_from_chern,
    series,
    verify,
)
from ellgenus.verify import (
    SUITES,
    _chern_powers,
    _compile_chern_series,
    _elementary_symmetric,
    _fold_slot,
    _fold_terms,
    _monomial_values,
    _sample_bases,
    _top_exponents,
    _weight_row,
    check_d5_derivative_oracle,
    check_derived_vs_closed,
    check_euler_e8,
    check_hadamard_identity,
    check_integrality,
    check_p_table,
    check_route_consistency,
    check_serre_duality,
    first_mismatch,
    run_suites,
)
from ellgenus.genseries import chi_series
from helpers import count_calls, evaluate_by_weight


def test_suite_smoke_one_family():
    ok, results = run_suites("D5", wmax=2, qmax=3)
    assert ok
    assert len(results) == len(SUITES) == 8
    assert [name for name, _f in results] == [name for name, _d in SUITES]


def test_individual_suites_pass_quickly():
    assert check_derived_vs_closed(("E8",), 3, 3) == []
    assert check_p_table(("E6",), nmax=3) == []
    assert check_d5_derivative_oracle(4, 3, nrandom=3) == []
    assert check_hadamard_identity(max_abs_root=2, max_d=2, order=4) == []
    assert check_euler_e8(dmax=2) == []
    assert check_serre_duality(("E6",), max_dim=2) == []
    assert check_integrality(("E7",), max_dim=2) == []
    assert check_route_consistency(("D5",), max_dim=2) == []


def test_route_consistency_builds_one_pushed_class_per_family_and_dim(monkeypatch):
    builds = count_calls(monkeypatch, fibrations, "hirzebruch_class")
    assert check_route_consistency(FAMILIES, 4) == []
    assert len(builds) == 20
    assert sorted(set(builds)) == [(d, d + 2) for d in range(0, 5)]


def test_p_table_expands_each_family_once(monkeypatch):
    calls = count_calls(monkeypatch, verify, "p_polynomials")
    assert check_p_table(nmax=12) == []
    assert calls == [(fam, 12) for fam in FAMILIES]


def test_corrupted_root_is_caught_with_counterexample():
    bad = FibrationSpec(
        name="D5",
        bundle=BundleSpec((0, 1, 1, 1)),
        n_roots=(RootForm(2, 2), RootForm(2, 3)),  # second root perturbed
    )
    failures = check_derived_vs_closed(("D5",), 3, 3, specs={"D5": bad})
    assert len(failures) == 1
    assert "first mismatch at weight 1, y^0" in failures[0]


def _d5_integrand_failures(failures):
    return [line for line in failures if line.startswith("D5 integrand: mismatch")]


def test_d5_oracle_catches_a_corrupted_residue_jet(monkeypatch):
    # one jet numerator of the first pole off by one: the residues of the
    # unread integrand disagree with the derivative formula on its read
    real = _packed._poles

    def corrupted(exps):
        ((m, jet), *rest), den = real(exps)
        return ((m, (jet[0] + 1,) + jet[1:]), *rest), den

    monkeypatch.setattr(_packed, "_poles", corrupted)
    failures = check_d5_derivative_oracle()
    # the random series take the same residues: they disagree too
    random_lines = [line for line in failures if re.fullmatch(
        r"random series #\d+: routes disagree", line)]
    assert len(_d5_integrand_failures(failures)) == 1
    assert random_lines and len(random_lines) + 1 == len(failures)


def test_d5_oracle_catches_a_group_sheared_by_the_wrong_slope(monkeypatch):
    # the first slope group of the read integrand sheared by s + 1
    real, calls = series._shear, []

    def corrupted(g, s):
        calls.append(s)
        return real(g, s + 1 if len(calls) == 1 else s)

    monkeypatch.setattr(series, "_shear", corrupted)
    failures = check_d5_derivative_oracle()
    assert calls and len(_d5_integrand_failures(failures)) == 1 == len(failures)


def test_d5_oracle_passes_on_the_engine():
    assert check_d5_derivative_oracle() == []


def test_first_mismatch_reports_lowest_block():
    from ellgenus import WSeries

    a = WSeries.var("L", 3, 2)
    b = WSeries.var("L", 3, 2) + WSeries.var("L", 3, 2) ** 2
    k, q, ca, cb = first_mismatch(a, b)
    assert (k, q) == (2, 0)
    assert ca.is_zero() and not cb.is_zero()
    assert first_mismatch(a, a) is None


def test_hadamard_suite_catches_corrupted_power_sums(monkeypatch):
    real = verify.power_sums_from_chern

    def corrupted(kmax, qmax=0):
        p = real(kmax, qmax)
        p[2] = p[2] + WSeries.var("c3", kmax, qmax)  # p_3 + c3
        return p

    monkeypatch.setattr(verify, "power_sums_from_chern", corrupted)
    failures = check_hadamard_identity(max_abs_root=1, max_d=3, order=4)
    assert "roots (1, 1, 1): p_3 gives 4, sum of l^3 is 3" in failures
    assert all(": p_3 gives" in line for line in failures)


def test_hadamard_suite_catches_corrupted_hadamard_apply(monkeypatch):
    real = verify.hadamard_apply

    def corrupted(coeffs, series):
        coeffs = list(coeffs)
        coeffs[1] = coeffs[1] + Poly.x()  # b_2 + y
        return real(coeffs, series)

    monkeypatch.setattr(verify, "hadamard_apply", corrupted)
    failures = check_hadamard_identity(max_abs_root=1, max_d=2, order=4)
    assert any(line.startswith("roots (1,), weight 2: ") for line in failures)
    assert all("weight 2: hadamard_apply" in line for line in failures)


def test_compiled_int_evaluator_matches_fraction_oracle():
    # the hadamard series and every p_k, at every multiset the suite would
    # visit with max_abs_root=2, max_d=3, order=6
    order = 6
    series = [hadamard_apply(chi_y_log_coefficients(order),
                             power_sum_series(order, qmax=order))]
    series += power_sums_from_chern(order)
    compiled = [_compile_chern_series(s) for s in series]
    top = _top_exponents(compiled)
    visited = 0
    for d in range(1, 4):
        for roots in combinations_with_replacement(range(-2, 3), d):
            e = _elementary_symmetric(roots)
            values = {"c%d" % i: e[i] if i <= d else 0 for i in range(1, order + 1)}
            powers = _chern_powers(e, top)
            for s, c in zip(series, compiled):
                den, _width, by_weight = c
                got = {
                    k: Poly([Fraction(x, den) for x in _weight_row(c, k, powers)])
                    for k in by_weight
                }
                assert got == evaluate_by_weight(s, values)
            visited += 1
    assert visited == 5 + 15 + 35


def _unfold(value, slot, width):
    """The y-row of balanced digits, each in [-2^(slot-1), 2^(slot-1)), that
    folds to ``value`` at ``slot``, padded with zeros to ``width``."""
    half, row = 1 << (slot - 1), []
    while value:
        digit = ((value + half) & ((1 << slot) - 1)) - half
        row.append(digit)
        value = (value - digit) >> slot
    return row + [0] * (width - len(row))


def _folded_rows(compiled, roots, max_abs_root, max_d, narrower=0):
    """{k: the weight-k y-row of a compiled series at ``roots``, read back
    from its fold}, at the slot proved for max_d roots of size at most
    max_abs_root, less ``narrower`` bits."""
    checks = [(k, compiled, 1, ()) for k in sorted(compiled[2])]
    slot = _fold_slot(checks, max_abs_root, max_d) - narrower
    tree, folded = _fold_terms(checks, slot)
    values = _monomial_values(_elementary_symmetric(roots), tree)
    return {
        k: _unfold(sum(n * values[m] for m, n in terms), slot, compiled[1])
        for (k, *_rest), terms in zip(checks, folded)
    }


# every c-monomial of weight 1..5, as {c_i: exponent}
_C_MONOMIALS = [
    dict(zip(("c1", "c2", "c3", "c4", "c5"), exps))
    for exps in combinations_with_replacement(range(6), 5)
    if 0 < sum(i * x for i, x in enumerate(exps, 1)) <= 5
]


@st.composite
def _chern_series(draw):
    """A series in c1..c5 to (5, 4), numerators up to 2^200 over
    denominators up to 10^6."""
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(range(len(_C_MONOMIALS))), st.integers(0, 4)),
        st.fractions(-2**200, 2**200, max_denominator=10**6),
        min_size=1, max_size=25,
    ))
    return WSeries(5, 4, {
        (series.mono_from_dict(_C_MONOMIALS[m]), q): c for (m, q), c in terms.items()
    })


@given(_chern_series(), st.lists(st.integers(-5, 5), min_size=1, max_size=5))
def test_folded_weight_values_match_the_rows(s, roots):
    # each weight's value, read back from its fold at the proved slot, is the
    # row of _weight_row, and both are the Fraction evaluation over den
    compiled = _compile_chern_series(s)
    den, _width, by_weight = compiled
    e = _elementary_symmetric(roots)
    powers = _chern_powers(e, _top_exponents([compiled]))
    values = {"c%d" % i: e[i] if i < len(e) else 0 for i in range(1, 6)}
    want = evaluate_by_weight(s, values)
    folded = _folded_rows(compiled, roots, 5, 5)
    assert sorted(folded) == sorted(by_weight)
    for k, row in folded.items():
        assert row == _weight_row(compiled, k, powers)
        assert Poly([Fraction(x, den) for x in row]) == want[k]


def test_a_slot_two_bits_below_the_proved_one_misreads_a_row():
    # positive numerators at five roots 5 reach the bound the slot is proved
    # for: the proved slot is the least, and one or two bits less cannot
    # hold the largest digit
    s = WSeries(5, 4, {
        (series.mono_from_dict(m), q): Fraction(2**100 + 7 * q + i)
        for i, m in enumerate(_C_MONOMIALS) for q in range(5)
    })
    compiled = _compile_chern_series(s)
    powers = _chern_powers(_elementary_symmetric((5,) * 5), _top_exponents([compiled]))
    rows = {k: _weight_row(compiled, k, powers) for k in compiled[2]}
    assert _folded_rows(compiled, (5,) * 5, 5, 5) == rows
    assert _folded_rows(compiled, (5,) * 5, 5, 5, narrower=1) != rows
    assert _folded_rows(compiled, (5,) * 5, 5, 5, narrower=2) != rows


def test_a_chern_class_past_the_roots_reads_0():
    # c5 of four roots is 0, though the tree holds no c_i for i < 5
    c5 = _compile_chern_series(WSeries.var("c5", 5, 0))
    tree, _folded = _fold_terms([(5, c5, 1, ())], 8)
    assert tree == [(0, 5)]
    assert _monomial_values(_elementary_symmetric((1, 2, 3, 4)), tree) == [1, 0]


def test_default_hadamard_suite_visits_every_multiset_in_order(monkeypatch):
    calls = count_calls(monkeypatch, verify, "_elementary_symmetric")
    assert check_hadamard_identity() == []
    want = [
        (roots,)
        for d in range(1, 5)
        for roots in combinations_with_replacement(range(-3, 4), d)
    ]
    assert len(want) == 329
    assert calls == want


def test_hadamard_suite_refuses_a_variable_other_than_c_i(monkeypatch):
    with pytest.raises(ValueError, match="'L' is not a Chern class"):
        _compile_chern_series(WSeries.var("c1", 3, 0) + WSeries.var("L", 3, 0))
    real = verify.power_sums_from_chern

    def with_stray_term(kmax, qmax=0):
        p = real(kmax, qmax)
        p[1] = p[1] + WSeries.var("H", kmax, qmax) ** 2
        return p

    monkeypatch.setattr(verify, "power_sums_from_chern", with_stray_term)
    with pytest.raises(ValueError, match="'H' is not a Chern class"):
        check_hadamard_identity(max_abs_root=1, max_d=1, order=4)


# -- each suite reports its own failure line ------------------------------------


_P2 = verify.p_table_reference("E6", 2)


@pytest.mark.parametrize("n, change, reference_too, line", [
    (2, lambda P: P + 1, False,
     "E6: P_2 = %s, table says %s" % ((_P2 + 1).to_text(), _P2.to_text())),
    (2, lambda P: P + 1, True, "E6: P_2(1) = 1 != 0"),
    (2, lambda P: P * Poly.x(), True, "E6: P_2 has U-degree 8, expected 7"),
    (0, lambda P: P * 2, True, "E6: P_0 != 1 - U"),
])
def test_p_table_suite_reports_a_corrupted_row(
    monkeypatch, n, change, reference_too, line
):
    # P_n of the expanded table changed, and with ``reference_too`` the
    # tabulated one the same way, so only the structural rows can see it
    table, reference = verify.p_polynomials, verify.p_table_reference

    def corrupted_table(fam, nmax):
        rows = table(fam, nmax)
        rows[n] = change(rows[n])
        return rows

    def corrupted_reference(fam, m):
        want = reference(fam, m)
        return change(want) if m == n else want

    monkeypatch.setattr(verify, "p_polynomials", corrupted_table)
    if reference_too:
        monkeypatch.setattr(verify, "p_table_reference", corrupted_reference)
    assert check_p_table(("E6",), nmax=3) == [line]


def test_euler_suite_reports_a_corrupted_euler_series(monkeypatch):
    real = verify.euler_series_e8
    monkeypatch.setattr(
        verify, "euler_series_e8",
        lambda dmax, qmax=0: real(dmax, qmax) + WSeries.var("c2", dmax, qmax),
    )
    assert check_euler_e8(dmax=3) == ["weight 2 alternating sum != Euler coefficient"]


def test_euler_suite_reports_a_corrupted_chi_q(monkeypatch):
    real = verify.chi_q
    monkeypatch.setattr(
        verify, "chi_q", lambda fam, base, q: real(fam, base, q) + (q == 1)
    )
    assert check_euler_e8(dmax=2) == [
        "E8 over (P^2, O(3)): alternating sum -541 != -540"
    ]


def _patch_chi_values(monkeypatch, change):
    """Make ``verify.chi_values`` return ``change(values)`` of the real ones."""
    real = verify.chi_values
    monkeypatch.setattr(verify, "chi_values", lambda fam, base: change(real(fam, base)))


def test_serre_suite_reports_a_broken_duality(monkeypatch):
    # chi_1 + 1: over P^1 chi_1 is its own dual, so only the threefolds over
    # P^2 break, at q = 1 and q = 2
    real = {
        n: verify.chi_values("E6", BaseSpec.projective_space(2, n)) for n in (1, 2, 3)
    }

    def change(vals):
        vals[1] += 1
        return vals

    _patch_chi_values(monkeypatch, change)
    assert check_serre_duality(("E6",), max_dim=2) == [
        "E6 over (P^2, O(%d)): chi_%d=%s vs dual chi_%d=%s" % (n, q, a, 3 - q, b)
        for n, vals in real.items()
        for q, a, b in ((1, vals[1] + 1, vals[2]), (2, vals[2], vals[1] + 1))
    ]


def test_serre_suite_reports_a_wrong_anticanonical_chi_0(monkeypatch):
    # chi_0 + 2 and its dual moved with it: the duality holds, and chi_0 is
    # 2 off on the anticanonical bases, (P^1, O(2)) once and (P^2, O(3))
    def change(vals):
        vals[0] += 2
        vals[-1] += 2 * (-1) ** (len(vals) - 1)
        return vals

    _patch_chi_values(monkeypatch, change)
    assert check_serre_duality(("E6",), max_dim=2) == [
        "E6 over (P^1, anticanonical): chi_0 = 4 != 2",
        "E6 over (P^2, anticanonical): chi_0 = 2 != 0",
    ]


def test_integrality_suite_reports_a_fraction(monkeypatch):
    real = verify.chi_values("E7", BaseSpec.projective_space(1, 1))[0]

    def change(vals):
        vals[0] += Fraction(1, 2)
        return vals

    _patch_chi_values(monkeypatch, change)
    failures = check_integrality(("E7",), max_dim=1)
    assert failures[0] == "E7 over (P^1, O(1)): chi_0 = %s is not an integer" % (
        real + Fraction(1, 2))
    assert len(failures) == 2  # the bases (P^1, O(n)) for n in (1, 2)
    pattern = r"E7 over \(P\^1, O\(\d\)\): chi_0 = -?\d+/2 is not an integer"
    assert all(re.fullmatch(pattern, line) for line in failures)


def test_sample_bases_take_each_twist_once():
    assert [(d, n) for d, n, _base in _sample_bases(3)] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 4)
    ]


def test_route_consistency_builds_each_class_exp_once_per_join(monkeypatch):
    # the 20 pushed classes read exp(sum b_k p_k) from charclasses' memo: one
    # build at the top order (max_dim, max_dim + 2) before the first family,
    # truncations after that
    builds = count_calls(monkeypatch, charclasses, "_chi_y_exp")
    assert check_route_consistency(FAMILIES, 4) == []
    assert builds == [(4, 6)]


def test_route_consistency_reports_a_corrupted_class_exp(monkeypatch):
    # one more in the (c1, y^0) term of the class route's own exp: Q has no
    # weight-0 part, so the classes of d >= 2 move, and the series route,
    # which reads genseries' memo, does not
    real = charclasses._chi_y_exp

    def corrupted(tmax, qmax):
        bump = WSeries(tmax, qmax, {(series.mono_from_dict({"c1": 1}), 0): 1})
        return real(tmax, qmax) + bump

    monkeypatch.setattr(charclasses, "_chi_y_exp", corrupted)
    failures = check_route_consistency(("D5",), max_dim=3)
    lines = [
        "D5, d=%d, q=%d: series class %s vs pushforward class %s"
        % (d, q, chi.to_text(), pushed.to_text())
        for d in range(0, 4)
        for q in range(0, d + 2)
        for chi, pushed in [(chi_series("D5", d).coeff(d, q),
                             fibrations.pushforward_class("D5", d).coeff(d, q))]
        if chi != pushed
    ]
    assert failures == lines
    assert {line[:8] for line in lines} == {"D5, d=2,", "D5, d=3,"}


def test_route_consistency_suite_reports_a_corrupted_class(monkeypatch):
    real = verify.pushforward_class

    def corrupted(fam, d):
        pushed = real(fam, d)
        return pushed + WSeries.var("c1", d, pushed.qmax) ** 2 if d == 2 else pushed

    monkeypatch.setattr(verify, "pushforward_class", corrupted)
    lhs = chi_series("D5", 2).coeff(2, 0)
    rhs = lhs + WSeries.var("c1", 2, lhs.qmax) ** 2
    assert check_route_consistency(("D5",), max_dim=3) == [
        "D5, d=2, q=0: series class %s vs pushforward class %s"
        % (lhs.to_text(), rhs.to_text())
    ]

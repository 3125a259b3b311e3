"""Acceptance gate: the eight exit criteria, each exact (tolerance is
rational equality everywhere), each reporting one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from ellgenus import (
    CATALOG,
    FAMILIES,
    BaseSpec,
    WSeries,
    chi_q,
    chi_series,
    closed_form_q,
    derivative_pushforward_d5,
    derived_q,
    euler_series_e8,
    fiber_integrand,
    p_polynomial,
    p_table_reference,
    pushforward,
    pushforward_class,
)
from ellgenus.verify import check_hadamard_identity
from helpers import random_series


def _report(n, label, failed=None):
    if failed:
        print("ACCEPT %d FAIL: %s -- %s" % (n, label, failed))
        pytest.fail("criterion %d failed: %s" % (n, failed))
    print("ACCEPT %d PASS: %s" % (n, label))


def test_criterion_1_theorem_reproduction():
    label = "derived Q == closed-form Q at (wmax=6, qmax=7) for all families"
    for fam in FAMILIES:
        if derived_q(fam, 6, 7) != closed_form_q(fam, 6, 7):
            _report(1, label, "mismatch for %s" % fam)
    _report(1, label)


def test_criterion_2_p_table():
    label = "P_n matches the table (P0, P1, closed P_n for 2 <= n <= 6)"
    for fam in FAMILIES:
        for n in range(0, 7):
            if p_polynomial(fam, n) != p_table_reference(fam, n):
                _report(2, label, "%s at n=%d" % (fam, n))
    _report(2, label)


def test_criterion_3_e6_t4y2_coefficient():
    label = "E6 (t^4, y^2) coefficient equals the stated quartic class"
    got = chi_series("E6", 4).coeff(4, 2)
    w, q = 4, 6
    L = WSeries.var("L", w, q)
    c1 = WSeries.var("c1", w, q)
    c2 = WSeries.var("c2", w, q)
    c3 = WSeries.var("c3", w, q)
    expected = -(L * F(1, 12)) * (
        1729 * L**3
        - 524 * c1 * L**2
        + (-17 * c1**2 + 193 * c2) * L
        + 5 * c1 * c2
        - 66 * c3
    )
    if got != expected:
        _report(3, label, "got %s" % got.to_text())
    _report(3, label)


def test_criterion_4_e8_euler_crosscheck():
    label = "E8 alternating y-sums equal the Euler series (d <= 4; -540 numeric)"
    dmax = 4
    qmax = dmax + 2
    chi = chi_series("E8", dmax, qmax)
    euler = euler_series_e8(dmax, qmax)
    for d in range(1, dmax + 1):
        alternating = WSeries.zero(dmax, qmax)
        for q in range(0, qmax + 1):
            alternating = alternating + chi.coeff(d, q) * F((-1) ** q)
        if alternating != euler.weight_component(d):
            _report(4, label, "class mismatch at weight %d" % d)
    # the weight-3 coefficient is 12L(c2 - 6Lc1 + 36L^2)
    L = WSeries.var("L", dmax, qmax)
    c1 = WSeries.var("c1", dmax, qmax)
    c2 = WSeries.var("c2", dmax, qmax)
    if euler.weight_component(3) != 12 * L * (c2 - 6 * L * c1 + 36 * L**2):
        _report(4, label, "weight-3 Euler coefficient wrong")
    base = BaseSpec.projective_space(2, 3)
    total = sum(chi_q("E8", base, q) * F((-1) ** q) for q in range(0, 4))
    if total != -540:
        _report(4, label, "alternating sum %s != -540" % total)
    _report(4, label)


def test_criterion_5_route_consistency():
    label = "series-route classes == class-route classes (d <= 4, q <= d+1)"
    for fam in FAMILIES:
        for d in range(0, 5):
            qmax = d + 2
            chi = chi_series(fam, d, qmax)
            pushed = pushforward_class(fam, d, qmax)
            for q in range(0, d + 2):
                lhs = chi.coeff(d, q)
                rhs = pushed.coeff(d, q)
                if lhs != rhs:
                    _report(5, label, "%s d=%d q=%d" % (fam, d, q))
    _report(5, label)


def test_criterion_6_oracle_equivalence():
    label = "derivative pushforward == Segre pushforward (D5 integrand + 50 random)"
    bundle = CATALOG["D5"].bundle
    D = fiber_integrand(CATALOG["D5"], 6, 7)
    if pushforward(D, bundle) != derivative_pushforward_d5(D):
        _report(6, label, "D5 integrand mismatch")
    rng = random.Random(65537)
    for i in range(50):
        s = random_series(rng, ("H", "L"), 6, 7, nterms=14)
        if pushforward(s, bundle) != derivative_pushforward_d5(s):
            _report(6, label, "random series #%d" % i)
    _report(6, label)


def test_criterion_7_hadamard_identity():
    label = "log-coefficient Hadamard identity (|roots| <= 3, d <= 4, order 6)"
    failures = check_hadamard_identity(max_abs_root=3, max_d=4, order=6)
    if failures:
        _report(7, label, failures[0])
    _report(7, label)


def test_criterion_8_structural_numeric_properties():
    label = (
        "sample-base numerics: integrality, Serre duality, anticanonical chi_0, "
        "P0 = 1-U, Q(U=1) = 0"
    )
    for fam in FAMILIES:
        for d in range(1, 4):
            for n in (1, 2, d + 1):
                base = BaseSpec.projective_space(d, n)
                values = [chi_q(fam, base, q) for q in range(0, d + 2)]
                dim_y = d + 1
                for q, v in enumerate(values):
                    if v.denominator != 1:
                        _report(8, label, "%s P^%d O(%d): chi_%d = %s not integral"
                                % (fam, d, n, q, v))
                    if v != F((-1) ** dim_y) * values[dim_y - q]:
                        _report(8, label, "%s P^%d O(%d): Serre duality fails at q=%d"
                                % (fam, d, n, q))
                if n == d + 1 and values[0] != 1 + (-1) ** dim_y:
                    # chi_0 of a Calabi-Yau (d+1)-fold is 1 + (-1)^(d+1):
                    # 0 in odd dimensions, 2 in even (K3 over P^1, CY4 over
                    # P^3); the odd-dimensional cases must vanish exactly
                    _report(8, label, "%s P^%d anticanonical: chi_0 = %s"
                            % (fam, d, values[0]))
        # class-level rows
        wmax, qmax = 4, 5
        one_minus_u = (1 - (-WSeries.var("L", wmax, qmax)).exp()).y_slice(0)
        Q = closed_form_q(fam, wmax, qmax)
        if Q.y_slice(0) != one_minus_u:
            _report(8, label, "%s: P_0 != 1 - U at class level" % fam)
        for q in range(0, qmax + 1):
            if not Q.coeff(0, q).is_zero():
                _report(8, label, "%s: Q(U=1) != 0 at y^%d" % (fam, q))
        for n in range(0, 8):
            if p_polynomial(fam, n).evaluate(1) != 0:
                _report(8, label, "%s: P_%d(1) != 0" % (fam, n))
    _report(8, label)

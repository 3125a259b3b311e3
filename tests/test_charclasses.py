"""Characteristic-class builders against independent oracles: classical
Todd coefficients solved by hand-rolled convolution, Newton identities
evaluated at explicit integer roots, the chi_y log-coefficients from lists of
y-Polys, and the Hodge theory of P^1/P^2."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgenus import (
    Poly,
    RootForm,
    WSeries,
    chi_y_log_coefficients,
    hadamard_apply,
    hirzebruch_class,
    lambda_y_factor,
    power_sum_series,
    power_sums_from_chern,
    todd_factor,
)
from ellgenus import charclasses, genseries, series
from ellgenus.charclasses import lambda_y_inverse
from helpers import (
    count_calls,
    evaluate_numeric,
    horner_hirzebruch_class,
    random_series,
    reference_chi_y_log_coefficients,
    reference_hadamard_apply,
    reference_hirzebruch_class,
    reference_power_sum_series,
    reference_lambda_y_factor,
    normal_factor_in_y,
    reference_lambda_y_inverse,
    reference_normal_factor,
    reference_normal_z_series,
    reference_todd_factor,
    root_series,
    truncated_mul,
)


# -- todd_factor ------------------------------------------------------------


def _todd_coefficients(order):
    """Solve (1 - e^{-t}) * sum(a_k t^k) = t by plain convolution; fully
    independent of the series kernel.

    With l_j = (-1)^(j+1)/j! for j >= 1, matching t-coefficients gives
    a_0 = 1 and a_k = -sum_{j=2}^{k+1} l_j a_{k+1-j}.
    """
    l = {j: F((-1) ** (j + 1), _fact(j)) for j in range(1, order + 2)}
    a = [F(1)]
    for k in range(1, order + 1):
        a.append(-sum(l[j] * a[k + 1 - j] for j in range(2, k + 2)))
    return a


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_todd_numbers_are_solved_once_per_top_build(monkeypatch):
    # the Bernoulli recurrence against the convolution, to order 24
    for n in range(25):
        got = charclasses._todd_numbers(n)
        assert isinstance(got, tuple)
        assert got == tuple(_todd_coefficients(n))
    # a Todd factor below its root's top order truncates and solves nothing
    solved = count_calls(monkeypatch, charclasses, "_todd_numbers")
    for w in (6, 3, 0, 6, 8, 7):
        todd_factor(RootForm(1, 0), w)
        todd_factor(RootForm(2, 3), w)
    assert solved == [(6,), (6,), (8,), (8,)]


def test_chi_y_log_coefficients_unchanged_by_the_todd_cache(monkeypatch):
    cached = chi_y_log_coefficients(10)
    monkeypatch.setattr(charclasses, "_todd_numbers", _todd_coefficients)
    charclasses._local_factor.cache_clear()  # rebuild the factors from the patch
    assert chi_y_log_coefficients(10) == cached


def test_todd_zero_root_is_one():
    assert todd_factor(RootForm(0, 0), 4, 2) == WSeries.const(1, 4, 2)


def test_todd_of_L_matches_convolution_oracle():
    coeffs = _todd_coefficients(6)
    assert coeffs[:5] == [F(1), F(1, 2), F(1, 12), F(0), F(-1, 720)]
    L = WSeries.var("L", 6, 0)
    expected = WSeries.zero(6, 0)
    for k, c in enumerate(coeffs):
        expected = expected + c * L**k
    assert todd_factor(RootForm(0, 1), 6) == expected


def test_todd_of_general_root():
    lam = RootForm(2, 2)
    v = root_series(lam, 2, 0)
    expected = 1 + v * F(1, 2) + v * v * F(1, 12)
    assert todd_factor(lam, 2) == expected


# -- lambda_y factors ----------------------------------------------------------


def test_lambda_y_trivial_bundle():
    got = lambda_y_factor(RootForm(0, 0), 3, 3)
    assert got == 1 + WSeries.y(3, 3)


def test_lambda_y_dual_line_bundle():
    v = WSeries.var("L", 3, 2)
    got = lambda_y_factor(RootForm(0, 1), 3, 2)
    assert got == 1 + WSeries.y(3, 2) * (-v).exp()


def test_lambda_y_d5_numerator_product():
    wmax, qmax = 4, 4
    y = WSeries.y(wmax, qmax)
    H = WSeries.var("H", wmax, qmax)
    L = WSeries.var("L", wmax, qmax)
    longhand = (1 + y * (-H).exp()) * (1 + y * (-H - L).exp()) ** 3
    built = (
        lambda_y_factor(RootForm(1, 0), wmax, qmax)
        * lambda_y_factor(RootForm(1, 1), wmax, qmax) ** 3
    )
    assert built == longhand


def test_lambda_y_multiplicative_and_second_exterior_power():
    # ch(Lambda^2(A + C)) = sum_i ch(Lambda^i A) ch(Lambda^(2-i) C),
    # with an independent route: sum over root pairs of exp(-(l_j + l_k)).
    rng = random.Random(7)
    wmax, qmax = 4, 3
    for _ in range(10):
        A = [RootForm(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(2)]
        C = [RootForm(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(2)]

        def prod(roots):
            out = WSeries.const(1, wmax, qmax)
            for r in roots:
                out = out * lambda_y_factor(r, wmax, qmax)
            return out

        whole, pa, pc = prod(A + C), prod(A), prod(C)
        assert whole == pa * pc
        lhs = whole.y_slice(2)
        rhs = WSeries.zero(wmax, qmax)
        for i in range(0, 3):
            rhs = rhs + pa.y_slice(i) * pc.y_slice(2 - i)
        assert lhs == rhs
        direct = WSeries.zero(wmax, qmax)
        for r1, r2 in combinations(A + C, 2):
            s = (-(root_series(r1, wmax, qmax) + root_series(r2, wmax, qmax))).exp()
            direct = direct + s
        assert lhs == direct


# -- the one-variable factors against their two-variable oracles ---------------

_roots = st.builds(RootForm, st.integers(-3, 3), st.integers(-3, 3))
_wmax = st.integers(0, 10)
_qmax = st.integers(0, 8)


@given(_roots, _wmax, _qmax)
def test_todd_factor_equals_newton_inverse(root, wmax, qmax):
    assert todd_factor(root, wmax, qmax) == reference_todd_factor(root, wmax, qmax)


@given(_roots, _wmax, _qmax)
def test_lambda_y_factor_equals_exp_route(root, wmax, qmax):
    got = lambda_y_factor(root, wmax, qmax)
    assert got == reference_lambda_y_factor(root, -1, wmax, qmax)


@given(_roots, _wmax, _qmax)
def test_lambda_y_inverse_equals_exp_route_and_inverts(root, wmax, qmax):
    got = lambda_y_inverse(root, wmax, qmax)
    assert got == reference_lambda_y_inverse(root, -1, wmax, qmax)
    assert got * lambda_y_factor(root, wmax, qmax) == WSeries.const(
        1, wmax, qmax
    )


@given(_roots, _wmax, _qmax)
def test_lambda_y_factors_at_the_negated_root_give_exp_plus_l(root, wmax, qmax):
    # 1 + y e^{+l} is the dual character at -l
    negated = RootForm(-root.a, -root.b)
    assert lambda_y_factor(negated, wmax, qmax) == reference_lambda_y_factor(
        root, 1, wmax, qmax
    )
    assert lambda_y_inverse(negated, wmax, qmax) == reference_lambda_y_inverse(
        root, 1, wmax, qmax
    )


@pytest.mark.parametrize("w, q", [(0, 0), (1, 3), (6, 2), (9, 8)])
def test_lambda_y_times_todd_is_the_chi_y_closed_form(w, q):
    # (1 + y e^-l) l/(1 - e^-l) = (1+y) td(l) - y*l, with the product as oracle
    y = WSeries.y(w, q)
    for a, b in ((1, 0), (2, 3), (-1, 2), (0, -3), (0, 0)):
        root = RootForm(a, b)
        todd = todd_factor(root, w, q)
        product = lambda_y_factor(root, w, q) * todd
        assert product == (1 + y) * todd - y * root_series(root, w, q)


@pytest.mark.parametrize(
    "w, q", [(16, 17), (12, 10), (16, 0), (7, 0), (0, 0), (0, 5), (3, 9), (5, 5)]
)
def test_the_stirling_normal_factor_equals_the_powers_of_one_minus_exp(w, q):
    # (1 - e^-u)^j = j! sum_k (-1)^(k-j) S(k, j) u^k/k! over wmax!, against
    # the Fraction powers of the t-series: at qmax 0, at wmax below qmax + 1
    # (the z-degrees past wmax - 1 are empty) and at the 5-bit key fields
    for scale in (1, 2, 3, 4, -1, -2, -3, -4):
        for root in (RootForm(scale, 0), RootForm(0, scale)):
            want = reference_normal_z_series(root, w, q)
            assert charclasses._normal_factor(root, w, q) == want


@given(st.integers(-4, 4).filter(bool), st.integers(0, 16), st.integers(0, 17))
def test_the_stirling_normal_sum_equals_the_powers_at_any_orders(scale, w, q):
    want = reference_normal_z_series(RootForm(scale, 0), w, q)
    assert charclasses._normal_sum("H", scale, w, q) == want


@pytest.mark.parametrize(
    "factor, reference",
    [
        (todd_factor, reference_todd_factor),
        (lambda_y_factor, lambda r, w, q: reference_lambda_y_factor(r, -1, w, q)),
        (lambda_y_inverse, lambda r, w, q: reference_lambda_y_inverse(r, -1, w, q)),
        (normal_factor_in_y, reference_normal_factor),
    ],
    ids=["todd", "lambda_y", "lambda_y_inverse", "normal"],
)
def test_local_factors_equal_the_references_at_mixed_roots(factor, reference):
    # int numerators over one denominator, sheared when both parts are nonzero;
    # the normal factor, built in z, mapped to y against the product of its
    # two exp-route halves
    for a, b in ((2, 3), (-1, 2), (3, -6), (0, -3), (-2, 0), (1, 1), (0, 0)):
        for w, q in ((9, 8), (13, 2), (1, 0)):
            root = RootForm(a, b)
            assert factor(root, w, q) == reference(root, w, q)


@pytest.mark.parametrize(
    "factor",
    [todd_factor, lambda_y_factor, lambda_y_inverse, charclasses._normal_factor],
)
@pytest.mark.parametrize(
    "orders, error",
    [((-1, 2), ValueError), ((2, -1), ValueError), ((2.0, 1), TypeError),
     ((2, 1.0), TypeError)],
    ids=["w-1", "q-1", "w2.0", "q1.0"],
)
def test_local_factors_check_their_orders(factor, orders, error):
    with pytest.raises(error):
        factor(RootForm(1, 0), *orders)


@pytest.mark.parametrize(
    "factor",
    [todd_factor, lambda_y_factor, lambda_y_inverse, charclasses._normal_factor],
)
def test_local_factors_are_built_once_per_key_and_still_check_orders(factor):
    root = RootForm(2, 0)
    first = factor(root, 4, 3)
    assert factor(RootForm(2, 0), 4, 3) is first
    assert factor(root, 4, 2) == first.truncate(4, 2)
    for orders in ((4.0, 3), (4, 3.0)):  # the equal int key is in the memo
        with pytest.raises(TypeError):
            factor(root, *orders)
    assert factor(root, 4, 3) is first


def test_local_factor_memo_keeps_kinds_apart_and_stays_bounded():
    h = RootForm(1, 0)
    kinds = (todd_factor, lambda_y_factor, lambda_y_inverse, charclasses._normal_factor)
    factors = [f(h, 3, 2) for f in kinds]
    assert all(a != b for a, b in combinations(factors, 2))
    assert len(charclasses._local_factor.tops) == 4
    for a in range(1, series.MEMO_SIZE + 3):
        todd_factor(RootForm(a, 0), 1)
    assert charclasses._local_factor.cache_info().currsize == series.MEMO_SIZE
    assert len(charclasses._local_factor.tops) == series.MEMO_TOPS


_FACTOR_KINDS = {
    "todd": todd_factor,
    "lambda_y": lambda_y_factor,
    "lambda_y_inverse": lambda_y_inverse,
    "normal": charclasses._normal_factor,
}
_FACTOR_ORDERS = [(w, q) for w in range(0, 9, 2) for q in range(0, 5, 2)]
_FACTOR_REQUEST_ORDERS = {
    "ascending": _FACTOR_ORDERS,
    "descending": _FACTOR_ORDERS[::-1],
    "shuffled": random.Random(29).sample(_FACTOR_ORDERS, len(_FACTOR_ORDERS)),
}


@pytest.mark.parametrize("order", sorted(_FACTOR_REQUEST_ORDERS))
@pytest.mark.parametrize("kind", sorted(_FACTOR_KINDS))
def test_local_factors_do_not_depend_on_the_request_order(kind, order):
    # every key is a truncation of its root's highest-order build, rebuilt at
    # the join when a request is past it; each equals the build at its key
    factor, roots = _FACTOR_KINDS[kind], (RootForm(1, 0), RootForm(-2, 3))
    want = {}
    for root in roots:
        for w, q in _FACTOR_ORDERS:
            charclasses._local_factor.cache_clear()
            want[root, w, q] = factor(root, w, q)
    charclasses._local_factor.cache_clear()
    got = {(r, w, q): factor(r, w, q) for w, q in _FACTOR_REQUEST_ORDERS[order]
           for r in roots}
    for (root, w, q), value in got.items():
        assert value == want[root, w, q], (root, w, q)
        assert factor(root, w, q) is value
    for root in roots:
        top = charclasses._local_factor.tops[kind, root]
        assert (top.wmax, top.qmax) == (8, 4)


def test_zero_root_factors():
    assert todd_factor(RootForm(0, 0), 5, 3) == WSeries.const(1, 5, 3)
    assert lambda_y_inverse(RootForm(0, 0), 4, 3) == WSeries.from_y_poly(
        [1, -1, 1, -1], 4, 3
    )


def test_root_form_refuses_a_float_h_part():
    # todd_factor(RootForm(0.5, 0), 3) would return float coefficients
    with pytest.raises(TypeError):
        RootForm(0.5, 0)


def test_root_form_refuses_a_float_l_part():
    # lambda_y_factor(RootForm(1, 0.5), 3, 1) would fail inside fractions
    with pytest.raises(TypeError):
        RootForm(1, 0.5)
    with pytest.raises(TypeError):
        RootForm(3, 6.0)


def test_factor_at_fractional_slope():
    # 2H + 3L goes through H -> H + (3/2)L; the Todd series of 2H+3L at
    # weight 2 is 1 + (2H+3L)/2 + (2H+3L)^2/12
    v = root_series(RootForm(2, 3), 2, 0)
    assert todd_factor(RootForm(2, 3), 2) == 1 + v * F(1, 2) + v * v * F(1, 12)


# -- power sums -----------------------------------------------------------------


def test_power_sums_newton_identities():
    p = power_sums_from_chern(3)
    w, q = 3, 0
    c1 = WSeries.var("c1", w, q)
    c2 = WSeries.var("c2", w, q)
    c3 = WSeries.var("c3", w, q)
    assert p[0] == c1
    assert p[1] == c1**2 - 2 * c2
    assert p[2] == c1**3 - 3 * c1 * c2 + 3 * c3


def test_power_sums_against_integer_roots():
    # brute force: explicit roots, e_i and p_i computed directly
    for roots in [(1, 2), (1, 2, 3), (-1, 2, 5), (2, 2, 3, -1)]:
        d = len(roots)
        p = power_sums_from_chern(d)
        elem = _elementary_symmetric(roots)
        values = {"c%d" % i: elem[i] for i in range(1, d + 1)}
        for k in range(1, d + 1):
            direct = sum(F(r) ** k for r in roots)
            assert evaluate_numeric(p[k - 1], values)[0] == direct


def test_power_sums_symbolic_two_roots():
    # substitute c1 -> L + H, c2 -> L*H and compare against L^2 + H^2
    p2 = power_sums_from_chern(2)[1]
    w, q = 2, 0
    L, H = WSeries.var("L", w, q), WSeries.var("H", w, q)
    got = p2.substitute("c1", L + H).substitute("c2", L * H)
    assert got == L**2 + H**2


@pytest.mark.parametrize("qmax", [0, 2, 5])
def test_power_sums_equal_the_two_accumulations(qmax):
    for kmax in range(1, 8):
        assert power_sum_series(kmax, qmax) == reference_power_sum_series(kmax, qmax)


def _elementary_symmetric(roots):
    coeffs = [F(1)]
    for r in roots:
        coeffs = [
            (coeffs[i] if i < len(coeffs) else F(0))
            + (F(r) * coeffs[i - 1] if i > 0 else F(0))
            for i in range(len(coeffs) + 1)
        ]
    return coeffs


# -- log-coefficients of the genus factor -----------------------------------------


def test_first_log_coefficient():
    b = chi_y_log_coefficients(1)
    assert b[0] == Poly((F(1, 2), F(-1, 2)))  # (1+y) a_1 = (1 - y)/2


def test_second_log_coefficient_via_hodge_oracles():
    # the value is pinned by chi_y of P^1 and P^2 below; frozen here
    b = chi_y_log_coefficients(2)
    assert b[1] == Poly((F(-1, 24), F(5, 12), F(-1, 24)))


def test_log_coefficients_equal_the_poly_list_route():
    for kmax in range(1, 13):
        assert chi_y_log_coefficients(kmax) == reference_chi_y_log_coefficients(kmax)


def test_log_coefficients_build_each_local_factor_once(monkeypatch):
    # g((1+y)t)/(1+y) = td((1+y)t) - y*t: one Todd factor and no lambda_y
    lambdas = count_calls(monkeypatch, charclasses, "lambda_y_factor")
    todds = count_calls(monkeypatch, charclasses, "todd_factor")
    chi_y_log_coefficients(6)
    assert (len(lambdas), len(todds)) == (0, 1)


def test_truncated_mul_against_evaluated_product():
    # at x = z each list of Polys in x is a Poly in the outer variable, and
    # the truncated product must evaluate to the truncated Poly product
    rng = random.Random(5)

    def rand_series(n):
        return [
            Poly([F(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(3)])
            for _ in range(n)
        ]

    for _ in range(20):
        a, b = rand_series(rng.randrange(0, 5)), rand_series(rng.randrange(0, 5))
        order = rng.randrange(0, 6)
        got = truncated_mul(a, b, order)
        assert len(got) == order + 1
        for z in (F(-2), F(1, 3)):
            pa = Poly([c.evaluate(z) for c in a])
            pb = Poly([c.evaluate(z) for c in b])
            want = Poly((pa * pb).coeffs[: order + 1])
            assert Poly([c.evaluate(z) for c in got]) == want


def test_log_coefficient_degree_bounded_by_order():
    b = chi_y_log_coefficients(8)
    assert len(b) == 8
    for k, bk in enumerate(b, start=1):
        assert bk.degree() <= k
    assert chi_y_log_coefficients(3) == b[:3]  # the order only truncates


# -- hirzebruch_class ---------------------------------------------------------------


def test_dim_zero():
    assert hirzebruch_class(0, 2) == WSeries.const(1, 0, 2)
    assert hirzebruch_class(0, 2).weight_component(0) == WSeries.const(1, 0, 2)


def test_dim_one_top_class():
    got = hirzebruch_class(1, 3).weight_component(1)
    c1 = WSeries.var("c1", 1, 3)
    y = WSeries.y(1, 3)
    assert got == (1 - y) * c1 * F(1, 2)


def test_chi_y_of_p1():
    # c1(P^1) = 2h, int h = 1: chi_y = 1 - y
    top = hirzebruch_class(1, 3).weight_component(1)
    vals = evaluate_numeric(top, {"c1": 2})
    assert vals == {0: F(1), 1: F(-1)}


def test_chi_y_of_p2():
    # c1 = 3h, c2 = 3h^2, int h^2 = 1: chi_y = 1 - y + y^2
    top = hirzebruch_class(2, 4).weight_component(2)
    vals = evaluate_numeric(top, {"c1": 3, "c2": 3})
    assert vals == {0: F(1), 1: F(-1), 2: F(1)}


def test_top_matches_full_weight_part():
    # the memoized factor that chi_series reads agrees with the class in
    # the top weight, where every (1+y)-power is absorbed
    for d in range(1, 6):
        full = hirzebruch_class(d, d + 2)
        top = genseries._hirzebruch_exp(None, d, d + 2).weight_component(d)
        assert top == full.weight_component(d)


@pytest.mark.parametrize("d", range(0, 7))
def test_class_equals_log_oracle(d):
    for qmax in range(0, d + 4):
        assert hirzebruch_class(d, qmax) == reference_hirzebruch_class(d, qmax)


@pytest.mark.parametrize("d", range(0, 8))
def test_class_equals_the_horner_route(d):
    for qmax in range(0, d + 4):
        assert hirzebruch_class(d, qmax) == horner_hirzebruch_class(d, qmax)


def test_y_degree_bound():
    for d in range(0, 5):
        assert max(q for _m, q in hirzebruch_class(d, d + 2).terms) <= d


def test_todd_slice_of_full_class():
    # y^0 slice reproduces td_1 = c1/2 and td_2 = (c1^2 + c2)/12
    full = hirzebruch_class(2, 4)
    td = full.y_slice(0)
    c1 = WSeries.var("c1", 2, 4)
    c2 = WSeries.var("c2", 2, 4)
    assert td.weight_component(1) == c1 * F(1, 2)
    assert td.weight_component(2) == (c1**2 + c2) * F(1, 12)


# -- hadamard_apply ------------------------------------------------------------------


def test_hadamard_zero_coefficients():
    zeros = [Poly()] * 3
    s = power_sum_series(3, qmax=2)
    assert hadamard_apply(zeros, s) == WSeries.zero(3, 2)


def test_hadamard_weight_one_absorbed():
    a = chi_y_log_coefficients(1)
    c1 = WSeries.var("c1", 1, 3)
    y = WSeries.y(1, 3)
    got = hadamard_apply(a, c1)
    assert got == (1 - y) * c1 * F(1, 2)


def test_hadamard_rejects_weight_zero_content():
    s = WSeries.const(1, 2, 2) + WSeries.var("c1", 2, 2)
    with pytest.raises(ValueError):
        hadamard_apply(chi_y_log_coefficients(2), s)


def test_hadamard_missing_coefficients():
    with pytest.raises(ValueError):
        hadamard_apply(chi_y_log_coefficients(1), power_sum_series(3, qmax=1))


def test_hadamard_equals_the_per_weight_products():
    for kmax, qmax in [(1, 0), (3, 2), (6, 8)]:
        b, p = chi_y_log_coefficients(kmax), power_sum_series(kmax, qmax)
        assert hadamard_apply(b, p) == reference_hadamard_apply(b, p)
    rng = random.Random(41)
    for _ in range(20):
        wmax, qmax = rng.randrange(1, 7), rng.randrange(0, 7)
        s = random_series(rng, ("L", "c1", "c2", "c3"), wmax, qmax, nterms=15)
        s = s - s.weight_component(0)
        b = [
            Poly([F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)])
            for n in (rng.randrange(0, qmax + 3) for _ in range(wmax + 1))
        ]
        assert hadamard_apply(b, s) == reference_hadamard_apply(b, s)


def test_log_identity_for_explicit_roots():
    # roots (1, 2), d = 2, order 4: sum_i f(l_i t) - 2 a_0 matches the
    # Hadamard product against -tC'/C for C = (1-t)(1-2t), order by order
    order = 4
    a = chi_y_log_coefficients(order)
    C = [F(1), F(-3), F(2)] + [F(0)] * (order - 2)
    minus_tCp = [-k * C[k] if k < len(C) else F(0) for k in range(order + 1)]
    ps = [F(0)] * (order + 1)
    for k in range(1, order + 1):
        acc = minus_tCp[k]
        for i in range(1, k + 1):
            acc -= (C[i] if i < len(C) else F(0)) * ps[k - i]
        ps[k] = acc
    for k in range(1, order + 1):
        direct = F(1) ** k + F(2) ** k
        assert ps[k] == direct  # series division equals the power sums
        assert a[k - 1] * ps[k] == a[k - 1] * direct

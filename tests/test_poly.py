"""The dense rational polynomial helper."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgenus import FAMILIES, Poly, p_polynomials, p_table_reference
from helpers import dense_poly_mul


def test_construction_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0,)).is_zero()
    assert Poly().degree() == -1


def test_construction_converts_every_slot_to_fraction():
    p = Poly((0, 3, F(0), F(1, 2), 0, -1, 0))
    assert p.coeffs == (F(0), F(3), F(0), F(1, 2), F(0), F(-1))
    assert all(type(c) is F for c in p.coeffs)
    assert p == Poly([F(c) for c in (0, 3, 0, F(1, 2), 0, -1)])


@pytest.mark.parametrize("coeffs", [["", 1], [0.0], [1.5], [0, 0.0], [False, 0.5]])
def test_construction_refuses_a_non_rational_beside_zero_ints(coeffs):
    # a zero int skips the conversion; nothing else does, a falsy one included
    with pytest.raises(TypeError):
        Poly(coeffs)


@pytest.mark.parametrize("bad", [0.1, 0.0, 1.0, "1/2", None])
def test_construction_and_evaluate_refuse_a_non_rational(bad):
    # a float would become a binary fraction: Poly([0.1]) was 3602879701896397/2^55
    with pytest.raises(TypeError):
        Poly([1, bad])
    with pytest.raises(TypeError):
        Poly.x().evaluate(bad)


@pytest.mark.parametrize("bad", [0.5, "x", None])
def test_sums_with_a_non_rational_raise_type_error(bad):
    p = Poly([1, 2])
    for op in (lambda: p + bad, lambda: bad + p, lambda: p - bad, lambda: bad - p):
        with pytest.raises(TypeError):
            op()
    assert p + F(1, 2) == Poly([F(3, 2), 2]) and 1 - p == Poly([0, -2])


def test_arithmetic():
    U = Poly.x()
    p = (U - 1) * (U + 1)
    assert p == U**2 - 1
    assert p + 1 == U**2
    assert -p == 1 - U**2
    assert 2 * U == U + U


def test_divmod_exact_and_with_remainder():
    U = Poly.x()
    p = (3 * U - 1) * (U**2 + 4)
    q, r = p.divmod(3 * U - 1)
    assert r.is_zero() and q == U**2 + 4
    q, r = (p + 7).divmod(3 * U - 1)
    assert r == Poly((7,))
    with pytest.raises(ZeroDivisionError):
        p.divmod(Poly())


def test_evaluate():
    p = Poly((F(1, 2), 0, 3))  # 1/2 + 3x^2
    assert p.evaluate(F(1, 3)) == F(1, 2) + F(1, 3)


def test_to_text_rules():
    U = Poly.x()
    assert (1 - U).to_text() == "1-U"  # no leading minus when avoidable
    assert (U**4 + 2 * U**3 - U - 3).to_text() == "U^4+2U^3-U-3"
    assert Poly().to_text() == "0"
    assert (-3 * U**2).to_text() == "-3U^2"


def test_sparse_product_equals_dense_product():
    # interior zeros on both sides, and zero/constant/scalar factors
    rng = random.Random(11)

    def rand_poly():
        n = rng.randrange(0, 9)
        return Poly([
            0 if rng.random() < 0.5 else F(rng.randrange(-5, 6), rng.randrange(1, 4))
            for _ in range(n)
        ])

    for _ in range(300):
        a, b = rand_poly(), rand_poly()
        assert a * b == dense_poly_mul(a, b)
        assert b * a == dense_poly_mul(b, a)
    assert Poly((1, 0, 0, 2)) * Poly((0, 0, 3)) == Poly((0, 0, 3, 0, 0, 6))
    assert Poly((0, 1, 0, 1)) * F(1, 2) == Poly((0, F(1, 2), 0, F(1, 2)))


# zero slots, int slots and Fractions over several denominators
_coeff = st.one_of(
    st.just(0),
    st.integers(-30, 30),
    st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 35])),
)
_poly = st.lists(_coeff, max_size=9).map(Poly)


@given(_poly, _poly)
def test_int_convolution_equals_the_dense_product(a, b):
    got = a * b
    assert got == dense_poly_mul(a, b) and got.coeffs == dense_poly_mul(a, b).coeffs
    assert all(type(c) is F for c in got.coeffs)
    assert all(gcd(c.numerator, c.denominator) == 1 for c in got.coeffs)  # lowest terms
    assert not got.coeffs or got.coeffs[-1]


@pytest.mark.parametrize("family", FAMILIES)
def test_p_table_unchanged_by_the_sparse_product(family, monkeypatch):
    sparse = p_polynomials(family, 12)
    sparse_ref = [p_table_reference(family, n) for n in range(13)]
    monkeypatch.setattr(Poly, "__mul__", dense_poly_mul)
    monkeypatch.setattr(Poly, "__rmul__", dense_poly_mul)
    assert sparse == p_polynomials(family, 12)
    assert sparse_ref == [p_table_reference(family, n) for n in range(13)]


# -- the int form against a plain Fraction-list oracle ---------------------------------


def _strip(cs):
    cs = [F(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_eval(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_text(cs, var="U", descending=True):
    """'2U^3-U-4' from a stripped Fraction list, by the rules of ``to_text``."""
    items = [(e, c) for e, c in enumerate(cs) if c]
    if descending and not (cs and cs[-1] < 0 < cs[0]):
        items.reverse()
    text = ""
    for e, c in items:
        power = "" if not e else var if e == 1 else "%s^%d" % (var, e)
        text += ("-" if c < 0 else "+") + ("" if abs(c) == 1 and e else str(abs(c))) + power
    return text.removeprefix("+") or "0"


_coeff_lists = st.lists(_coeff, max_size=9)
_scalar = st.one_of(st.integers(-30, 30), st.builds(F, st.integers(-30, 30), st.integers(1, 12)))


@given(_coeff_lists, _coeff_lists, _scalar, st.integers(0, 4))
def test_each_operation_on_the_int_form_equals_the_fraction_list_oracle(xs, ys, c, n):
    a, b, ra, rb, rc = Poly(xs), Poly(ys), _strip(xs), _strip(ys), _strip([c])
    neg_rb = [-y for y in rb]
    power = [F(1)]
    for _ in range(n):
        power = _ref_mul(power, ra)
    for got, want in [
        (a, ra), (a + b, _ref_add(ra, rb)), (a - b, _ref_add(ra, neg_rb)),
        (-a, [-x for x in ra]), (a * b, _ref_mul(ra, rb)), (a**n, power),
        (a + c, _ref_add(ra, rc)), (c + a, _ref_add(ra, rc)),
        (a - c, _ref_add(ra, [-x for x in rc])), (c - a, _ref_add(rc, [-x for x in ra])),
        (a * c, _ref_mul(ra, rc)), (c * a, _ref_mul(ra, rc)),
    ]:
        assert got.coeffs == tuple(want)
        assert got == Poly(want) and hash(got) == hash(Poly(want))
        assert all(type(x) is F and gcd(x.numerator, x.denominator) == 1 for x in got.coeffs)
        assert got.degree() == len(want) - 1
        assert got.is_zero() is (not want) and bool(got) is bool(want)
        assert [got[k] for k in range(-1, len(want) + 2)] == [0] + want + [0, 0]
    assert (a == b) is (ra == rb) and (a != b) is (ra != rb)
    assert (a == c) is (ra == rc) and (a == F(c)) is (ra == rc) and (c == a) is (ra == rc)
    assert a == Poly(ra) and hash(a) == hash(Poly(ra))
    for x in (c, F(c), F(c) / 7, n, -n):  # int and Fraction points
        got = a.evaluate(x)
        assert type(got) is F and got == _ref_eval(ra, F(x))


@given(st.lists(st.integers(-30, 30), max_size=9), st.integers(1, 12))
def test_equal_polys_from_ints_and_from_fractions_hash_equal(ns, k):
    # the same polynomial from ints, from Fractions and from Fractions of
    # the ints times k over k
    ints, fracs = Poly(ns), Poly([F(n * k, k) for n in ns])
    assert ints == fracs and hash(ints) == hash(fracs) and len({ints, fracs}) == 1


@given(_coeff_lists, st.sampled_from(["U", "y"]), st.booleans())
def test_to_text_equals_the_oracle_text(xs, var, descending):
    assert Poly(xs).to_text(var, descending) == _ref_text(_strip(xs), var, descending)


def test_to_text_with_fractional_coefficients_and_the_one_minus_u_rule():
    U = Poly.x()
    assert Poly((F(1, 2), 0, F(-3, 4))).to_text() == "1/2-3/4U^2"
    assert Poly((F(1, 3), F(-1, 2))).to_text() == "1/3-1/2U"  # a positive constant leads
    assert Poly((F(-1, 3), F(-1, 2))).to_text() == "-1/2U-1/3"
    assert (F(2, 4) * U**2 - U).to_text("y", False) == "-y+1/2y^2"
    assert Poly((F(6, 4),)).to_text() == "3/2" and (-U).to_text() == "-U"


@given(_coeff_lists, st.integers(1, 10**6))
def test_an_unreduced_numerator_and_denominator_compare_equal_to_the_reduced_poly(xs, k):
    # negative control of the reduction: numerators and denominator that
    # share the factor k, as a product or sum leaves them, still give the
    # one int form of the reduced Poly, so == and hash see one polynomial
    reduced = Poly(xs)
    unreduced = Poly._of_ints([n * k for n in reduced._nums] + [0] * (k % 3), reduced._den * k)
    assert unreduced == reduced and hash(unreduced) == hash(reduced)
    assert (unreduced._nums, unreduced._den) == (reduced._nums, reduced._den)
    assert unreduced.coeffs == reduced.coeffs and unreduced.to_text() == reduced.to_text()


def test_coeffs_is_a_read_only_fraction_view():
    p = Poly((2, F(1, 2)))
    assert p.coeffs == (F(2), F(1, 2)) and p.coeffs is p.coeffs  # built once
    with pytest.raises(AttributeError):
        p.coeffs = (F(1),)

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

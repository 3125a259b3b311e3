"""Segre-class pushforward and its derivative-formula oracle."""

import importlib
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus import (
    CATALOG,
    BundleSpec,
    FibrationSpec,
    RootForm,
    TruncationDeficitError,
    WSeries,
    derivative_pushforward_d5,
    fiber_integrand,
    pushforward,
    segre_series,
)
from ellgenus.pushforward import _segre_numbers
from helpers import (
    count_calls,
    random_series,
    reference_fiber_integrand,
    reference_pushforward,
    reference_segre_series,
    reference_term_pushforward,
)


def test_segre_trivial_bundle():
    s = segre_series(BundleSpec((0, 0, 0)), 3)
    assert s[0] == WSeries.const(1, 3, 0)
    assert all(sk.is_zero() for sk in s[1:])


def test_segre_e8_bundle():
    L = WSeries.var("L", 2, 0)
    s = segre_series(BundleSpec((0, 2, 3)), 2)
    assert s[1] == -5 * L
    assert s[2] == 19 * L**2


def test_segre_rank_two_geometric():
    # (0, 6) gives 1/(1+6L), the shape inside 12Lt/(1+6Lt)
    L = WSeries.var("L", 3, 0)
    s = segre_series(BundleSpec((0, 6)), 3)
    for k in range(0, 4):
        assert s[k] == ((-6) ** k) * L**k


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5), st.integers(0, 12))
@settings(max_examples=100)
def test_segre_numbers_equal_newton_inverse(exps, wmax):
    bundle = BundleSpec(exps)
    reference = reference_segre_series(bundle, wmax, 2)
    sigma = _segre_numbers(bundle, wmax)
    assert all(isinstance(n, int) for n in sigma)
    assert sigma == [s.get((("L", k),) if k else ()) for k, s in enumerate(reference)]
    assert segre_series(bundle, wmax, 2) == reference
    assert segre_series(bundle, wmax) == reference_segre_series(bundle, wmax)


@pytest.mark.parametrize("exps", [(0, 2.9, 3), (0, 2.0, 3), (0, F(2), 3)])
def test_bundle_refuses_non_integer_exponents(exps):
    with pytest.raises(TypeError):
        BundleSpec(exps)


def test_segre_series_rejects_negative_orders():
    with pytest.raises(ValueError):
        segre_series(BundleSpec((0, 1)), -1)
    with pytest.raises(ValueError):
        segre_series(BundleSpec((0, 1)), 2, -1)


def test_pushforward_of_h_powers():
    wmax, qmax = 6, 1
    H = WSeries.var("H", wmax, qmax)
    b = BundleSpec((0, 1, 1, 1))
    assert pushforward(H**3, b) == WSeries.const(1, 3, 1)
    for i in range(0, 3):
        assert pushforward(H**i, b) == WSeries.zero(3, 1)


def test_pushforward_h4_gives_first_segre():
    H = WSeries.var("H", 6, 0)
    got = pushforward(H**4, BundleSpec((0, 1, 1, 1)))
    assert got == -3 * WSeries.var("L", 3, 0)


def test_pushforward_linearity_and_projection_formula():
    rng = random.Random(11)
    b = BundleSpec((0, 1, 1))
    for _ in range(10):
        D = random_series(rng, ("H", "L"), 5, 2)
        beta = random_series(rng, ("L",), 5, 2)  # H-free
        lhs = pushforward(D * beta, b)
        rhs = pushforward(D, b) * beta.truncate(3, 2)
        assert lhs == rhs


def test_pushforward_symmetric_in_exponents():
    rng = random.Random(13)
    D = random_series(rng, ("H", "L"), 5, 2)
    results = {
        pushforward(D, BundleSpec(p)).to_text() for p in permutations((0, 2, 3))
    }
    assert len(results) == 1


def test_pushforward_truncation_coherence():
    # output weight-k coefficients depend only on input weights <= k + r - 1
    rng = random.Random(17)
    b = BundleSpec((0, 1, 2))
    for _ in range(10):
        D6 = random_series(rng, ("H", "L"), 6, 2)
        full = pushforward(D6, b)  # weight 4
        lower = pushforward(D6.truncate(5, 2), b)  # weight 3
        assert full.truncate(3, 2) == lower


def test_pushforward_truncation_deficit():
    D = WSeries.var("H", 2, 0) ** 2
    with pytest.raises(TruncationDeficitError):
        pushforward(D, BundleSpec((0, 1, 1, 1)))


@st.composite
def _pushforward_cases(draw):
    exps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    wmax = draw(st.integers(len(exps) - 1, 10))
    qmax = draw(st.integers(0, 4))
    out_wmax = draw(st.integers(0, wmax - (len(exps) - 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    D = random_series(rng, ("H", "L", "c1", "c2"), wmax, qmax, nterms=30)
    return D, BundleSpec(exps), out_wmax


@given(_pushforward_cases())
def test_pushforward_equals_product_per_h_power(case):
    D, bundle, out_wmax = case
    D = D.truncate(out_wmax + bundle.rank - 1, D.qmax)
    assert pushforward(D, bundle) == reference_pushforward(D, bundle, out_wmax)


@st.composite
def _integrands(draw):
    exps = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    n_roots = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(-3, 6)), max_size=len(exps) - 1
        )
    )
    spec = FibrationSpec(
        name="random",
        bundle=BundleSpec(exps),
        n_roots=tuple(RootForm(a, b) for a, b in n_roots),
    )
    wmax = draw(st.integers(max(len(n_roots), len(exps) - 1), 8))
    qmax = draw(st.integers(0, 4))
    return fiber_integrand(spec, wmax, qmax), spec.bundle, wmax - (len(exps) - 1)


@given(_integrands())
def test_pushforward_of_random_integrands_equals_product_per_h_power(case):
    D, bundle, out_wmax = case
    assert pushforward(D, bundle) == reference_pushforward(D, bundle, out_wmax)


@given(_integrands())
def test_pushforward_of_the_packed_integrand_equals_the_term_loop(case):
    # D comes out of the packed kernels and is pushed forward before its terms
    # are read; its copy built from those terms is packed by _pack
    D, bundle, _out_wmax = case
    assert D._terms is None
    got = pushforward(D, bundle)
    copy = WSeries(D.wmax, D.qmax, dict(D.terms))
    want = reference_term_pushforward(copy, bundle)
    assert got == want
    assert pushforward(copy, bundle) == want


@st.composite
def _specs_by_fiber_dim(draw):
    """A spec shaped like those of ``_integrands``, of fiber dimension 0-3
    and least bundle exponent 0, as ``derived_q`` leaves every bundle, and
    its orders."""
    exps = [0] + draw(st.lists(st.integers(0, 3), max_size=4))
    fiber_dim = draw(st.integers(0, min(3, len(exps) - 1)))
    n_roots = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(-3, 6)),
            min_size=len(exps) - 1 - fiber_dim,
            max_size=len(exps) - 1 - fiber_dim,
        )
    )
    spec = FibrationSpec(
        name="random",
        bundle=BundleSpec(exps),
        n_roots=tuple(RootForm(a, b) for a, b in n_roots),
    )
    wmax = draw(st.integers(max(len(n_roots), len(exps) - 1), 7))
    return spec, wmax, draw(st.integers(0, 4))


@given(_specs_by_fiber_dim())
def test_the_residues_of_an_unread_integrand_equal_the_y_form_oracle(case):
    # pushed forward unread, by residues with (1+y)^fiber_dim in the map of
    # z to y, against the integrand built in y by one product per factor and
    # root and pushed forward one product per H-power: no z-form on that side
    spec, wmax, qmax = case
    out_wmax = wmax - (spec.bundle.rank - 1)
    got = pushforward(fiber_integrand(spec, wmax, qmax), spec.bundle)
    want = reference_fiber_integrand(spec, wmax, qmax)
    assert got == reference_pushforward(want, spec.bundle, out_wmax)


@pytest.mark.parametrize("family", ["D5", "E7"])
def test_pushforward_decodes_at_the_input_width(family):
    # input weight 17 takes 5-bit fields, the output weight 14 only 4
    D = fiber_integrand(CATALOG[family], 17, 7)
    got = pushforward(D, CATALOG[family].bundle)
    assert got.wmax == 14
    assert got == reference_term_pushforward(D, CATALOG[family].bundle)


def test_every_pushforward_runs_the_residues_once(monkeypatch):
    # one route: a plain series passes as one group at slope 0 with no fiber
    # dimension, and an integrand whose terms were read passes its groups and
    # its fiber dimension, as an unread one does
    module = importlib.import_module("ellgenus.pushforward")  # not the function
    calls = count_calls(monkeypatch, module, "_residues")
    spec = CATALOG["E7"]
    plain = random_series(random.Random(38), ("L", "H", "c1"), 8, 3)
    read = fiber_integrand(spec, 8, 3)
    read.terms
    for series, groups, fiber_dim in ((plain, {0: plain}, None),
                                      (read, read._groups, spec.fiber_dim)):
        got = pushforward(series, spec.bundle)
        assert got == reference_term_pushforward(series, spec.bundle)
        assert calls[-1] == (groups, 8, 3, spec.bundle.exps, fiber_dim)
    assert len(calls) == 2


def test_pushforward_of_d5_integrand_equals_product_per_h_power():
    D = fiber_integrand(CATALOG["D5"], 9, 6)
    b = CATALOG["D5"].bundle
    assert pushforward(D, b) == reference_pushforward(D, b, 6)


# -- derivative oracle -------------------------------------------------------


def test_derivative_route_on_h3():
    H = WSeries.var("H", 6, 0)
    assert derivative_pushforward_d5(H**3) == WSeries.const(1, 3, 0)


def test_derivative_route_on_h4():
    H = WSeries.var("H", 6, 0)
    assert derivative_pushforward_d5(H**4) == -3 * WSeries.var("L", 3, 0)


def test_derivative_route_strips_low_part():
    wmax, qmax = 5, 1
    H = WSeries.var("H", wmax, qmax)
    L = WSeries.var("L", wmax, qmax)
    low = 2 + 3 * H * L + H**2 * F(7, 2)
    assert derivative_pushforward_d5(low) == WSeries.zero(wmax - 3, qmax)


def test_routes_agree_on_random_series():
    rng = random.Random(19)
    b = BundleSpec((0, 1, 1, 1))
    for _ in range(25):
        D = random_series(rng, ("H", "L"), 6, 3, nterms=14)
        assert pushforward(D, b) == derivative_pushforward_d5(D)

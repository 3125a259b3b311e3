"""The exact series kernel: spec'd examples plus randomized ring laws."""

import copy
import inspect
import pickle
import random
import textwrap
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ellgenus import (
    BundleSpec,
    NotAUnitError,
    TruncationDeficitError,
    TruncationMismatchError,
    WSeries,
    catalog_spec,
    fiber_integrand,
    mono_from_dict,
    mono_weight,
    pushforward,
    var_weight,
)
from ellgenus import _packed
from ellgenus import series as series_module
from ellgenus._packed import _fold, _pack, _packed_mul, _unfold, _width
from ellgenus.cli import emit_series_json
from ellgenus.series import _Product, _shear
from helpers import (
    count_calls,
    count_calls_everywhere,
    dict_add,
    dict_exp,
    dict_inverse,
    dict_log,
    dict_scale,
    dict_scale_weights,
    dict_mul,
    dict_terms,
    is_read,
    pair_loop_packed_mul,
    pair_loop_packed_shear,
    pair_loop_sheared_product,
    random_series,
    reference_coefficients_of,
    reference_exp,
    reference_inverse,
    reference_log,
    reference_map_powers,
    reference_mul,
    reference_part,
    reference_reweight_by_one_plus_y,
    reference_scale_weights,
    reference_segre_series,
    reference_term_pushforward,
    reference_z_to_y,
    run_in_threads,
)


def S(wmax, qmax):
    return {
        "one": WSeries.const(1, wmax, qmax),
        "L": WSeries.var("L", wmax, qmax),
        "H": WSeries.var("H", wmax, qmax),
        "y": WSeries.y(wmax, qmax),
    }


# -- add ------------------------------------------------------------------


def test_add_cancels_inverse():
    v = S(4, 2)
    assert (v["one"] + v["L"]) + (-v["L"]) == v["one"]


def test_add_collects():
    c1 = WSeries.var("c1", 4, 2)
    assert c1 + c1 == 2 * c1


def test_add_exp_complement():
    # U = e^{-L} to order 2 is 1 - L + L^2/2; (1 - U) + U == 1
    v = S(2, 0)
    U = (-v["L"]).exp()
    assert U == v["one"] - v["L"] + F(1, 2) * v["L"] ** 2
    assert (v["one"] - U) + U == v["one"]


def test_add_truncation_mismatch():
    with pytest.raises(TruncationMismatchError):
        WSeries.var("L", 4, 2) + WSeries.var("L", 4, 3)
    with pytest.raises(TruncationMismatchError):
        WSeries.var("L", 3, 2) * WSeries.var("L", 4, 2)


# -- mul ------------------------------------------------------------------


def test_mul_difference_of_squares():
    v = S(2, 3)
    assert (1 + v["y"]) * (1 - v["y"]) == 1 - v["y"] ** 2


def test_mul_geometric_truncates():
    v = S(2, 0)
    L = v["L"]
    assert (1 - L) * (1 + L + L**2) == v["one"]  # L^3 falls off the end


def test_mul_exponent_addition():
    # U*U at wmax 2 equals the independent expansion of e^{-2L}
    v = S(2, 0)
    U = (-v["L"]).exp()
    assert U * U == 1 - 2 * v["L"] + 2 * v["L"] ** 2


# -- inverse ----------------------------------------------------------------


def test_inverse_geometric_y():
    v = S(0, 5)
    inv = (1 + v["y"]).inverse()
    expected = WSeries.from_y_poly([F((-1) ** m) for m in range(6)], 0, 5)
    assert inv == expected


def test_inverse_segre_shape():
    L = WSeries.var("L", 4, 0)
    inv = (1 + 6 * L).inverse()
    expected = sum(((-6) ** k) * L**k for k in range(5)) + WSeries.zero(4, 0)
    assert inv == expected


def test_inverse_unit_with_y_content():
    # denominator shape 1 + y*U^6 at U = 1 reduces to 1 + y
    v = S(3, 4)
    one_plus_y = 1 + v["y"] * WSeries.const(0, 3, 4).exp()
    assert one_plus_y.inverse() == (1 + v["y"]).inverse()


def test_inverse_requires_unit():
    with pytest.raises(NotAUnitError):
        WSeries.var("L", 3, 2).inverse()
    with pytest.raises(NotAUnitError):
        WSeries.y(3, 2).inverse()


# -- exp / log --------------------------------------------------------------


def test_exp_zero():
    assert WSeries.zero(4, 2).exp() == WSeries.const(1, 4, 2)


def test_exp_of_minus_L():
    L = WSeries.var("L", 4, 0)
    expected = sum(F((-1) ** k, _fact(k)) * L**k for k in range(5)) + WSeries.zero(
        4, 0
    )
    assert (-L).exp() == expected


def test_log_mercator():
    L = WSeries.var("L", 3, 0)
    assert (1 + 6 * L).log() == 6 * L - 18 * L**2 + 72 * L**3


def test_exp_rejects_weight_zero_terms():
    v = S(3, 3)
    with pytest.raises(ValueError):
        v["y"].exp()
    with pytest.raises(ValueError):
        (v["one"] + v["L"]).exp()


def test_log_rejects_bad_constant():
    v = S(3, 3)
    with pytest.raises(ValueError):
        (2 + v["L"]).log()
    with pytest.raises(ValueError):
        (1 + v["y"] + v["L"]).log()


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- substitute ---------------------------------------------------------------


def test_substitute_square():
    v = S(4, 0)
    assert (v["H"] ** 2).substitute("H", -v["L"]) == v["L"] ** 2


def test_substitute_kills_exponent():
    v = S(4, 0)
    e = (-v["H"] - v["L"]).exp()
    assert e.substitute("H", -v["L"]) == v["one"]


def test_substitute_rejects_weight_zero_replacement():
    v = S(4, 1)
    with pytest.raises(ValueError):
        v["H"].substitute("H", v["one"])


def test_substitute_zero_replacement():
    v = S(4, 0)
    assert (v["H"] + v["L"]).substitute("H", WSeries.zero(4, 0)) == v["L"]


# -- the binomial shear H -> H + s*L -------------------------------------------


@st.composite
def _shear_series(draw):
    # every term H^h L^l c1^c y^q, so the shear meets L and c1 beside H
    wmax = draw(st.integers(0, 10))
    qmax = draw(st.integers(0, 6))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    exps = st.tuples(*[st.integers(0, wmax)] * 3).filter(lambda e: sum(e) <= wmax)
    terms = draw(
        st.dictionaries(st.tuples(exps, st.integers(0, qmax)), coeff, max_size=20)
    )
    return WSeries(
        wmax,
        qmax,
        {
            (mono_from_dict({"H": h, "L": l, "c1": c}), q): x
            for ((h, l, c), q), x in terms.items()
        },
    )


_slopes = st.builds(F, st.integers(-4, 4), st.integers(-4, 4).filter(bool))


def _sheared(G, s):
    H, L = WSeries.var("H", G.wmax, G.qmax), WSeries.var("L", G.wmax, G.qmax)
    return G.substitute("H", H + L * s)


@given(_shear_series(), _slopes)
def test_shift_h_equals_substitute(G, s):
    assert _shear(G, s) == _sheared(G, s)


@pytest.mark.parametrize("s", [F(-4), F(-3, 2), F(-1, 3), F(1, 4), F(3, 4), F(2)])
def test_shift_h_equals_substitute_on_a_dense_series(s):
    # every H-power up to wmax = 10 at every y-degree, so each C(k, j) is used,
    # and each times 1, L and c1
    rng = random.Random(23)
    G = WSeries(
        10,
        3,
        {
            (mono_from_dict({"H": k, **extra}), q): F(
                rng.randrange(-9, 10), rng.randrange(1, 7)
            )
            for k in range(11)
            for q in range(4)
            for extra in ({}, {"L": 1}, {"c1": 1})
        },
    )
    assert _shear(G, s) == _sheared(G, s)


def test_shift_h_binomial_example():
    v = S(3, 1)
    H, L = v["H"], v["L"]
    G = H**3 * v["y"] + L * H + 2
    expected = (H**3 + H**2 * L * F(-9, 2) + H * L**2 * F(27, 4) - L**3 * F(27, 8)) * v[
        "y"
    ] + L * (H - L * F(3, 2)) + 2
    assert _shear(G, F(-3, 2)) == expected


@st.composite
def _sheared_groups(draw):
    wmax = draw(st.integers(0, 6))
    qmax = draw(st.integers(0, 4))
    slopes = draw(st.lists(_slopes | st.just(F(0)), min_size=1, max_size=3, unique=True))
    return {s: draw(_series_at(wmax, qmax, ("L", "H", "c1"))) for s in slopes}


@given(_sheared_groups())
def test_sheared_product_equals_the_product_of_substitutes(groups):
    # the read of a deferred product of any slopes, in any order, against
    # one substitute per group and the oracle multiply
    (wmax, qmax), = {(G.wmax, G.qmax) for G in groups.values()}
    want = WSeries.const(1, wmax, qmax)
    for s, G in groups.items():
        want = reference_mul(want, _sheared(G, s))
    assert _Product(groups, wmax, qmax) == want


# -- reweight -----------------------------------------------------------------


def test_reweight_examples():
    v = S(4, 4)
    assert v["one"].reweight_by_one_plus_y() == v["one"]
    assert v["L"].reweight_by_one_plus_y() == v["L"] * (1 + v["y"])
    c2 = WSeries.var("c2", 4, 4)
    assert c2.reweight_by_one_plus_y() == c2 * (1 + v["y"]) ** 2


# -- diff_h ---------------------------------------------------------------------


def test_diff_h_examples():
    v = S(5, 0)
    H, L = v["H"], v["L"]
    assert (H**2).diff_h() == 2 * H
    assert L.diff_h() == WSeries.zero(5, 0)
    assert (H**3 * L).diff_h() == 3 * H**2 * L


# -- coeff ------------------------------------------------------------------------


def test_coeff_selects_block():
    v = S(3, 3)
    s = 1 + v["y"] + v["L"] * v["y"] ** 2
    assert s.coeff(0, 1) == WSeries.const(1, 3, 3)
    assert s.coeff(1, 2) == v["L"]
    assert s.coeff(1, 0) == WSeries.zero(3, 3)


def test_coeff_of_exponential():
    v = S(3, 0)
    U = (-v["L"]).exp()
    assert U.coeff(1, 0) == -v["L"]


def test_coeff_range_errors():
    s = WSeries.const(1, 2, 2)
    with pytest.raises(ValueError):
        s.coeff(3, 0)
    with pytest.raises(ValueError):
        s.coeff(0, 3)


@pytest.mark.parametrize("warm", [False, True])
def test_float_orders_are_refused_by_the_slices(warm):
    s = 1 + WSeries.y(2, 2) + WSeries.var("L", 2, 2)
    if warm:
        assert s.coeff(1, 0) == WSeries.var("L", 2, 2)  # builds the index
    for call in (
        lambda: s.coeff(1.0, 0),
        lambda: s.coeff(1, 0.0),
        lambda: s.y_slice(1.0),
        lambda: s.weight_component(1.0),
        lambda: s.get((), 1.0),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError):
        s.y_slice(-1)


def test_terms_are_read_only():
    s = WSeries.var("L", 2, 1)
    with pytest.raises(TypeError):
        s.terms[((), 0)] = F(1)
    with pytest.raises(TypeError):
        del s.terms[(mono_from_dict({"L": 1}), 0)]
    assert s == WSeries.var("L", 2, 1)


@st.composite
def _slice_calls(draw):
    (a,) = draw(_same_orders(1))
    call = st.one_of(
        st.tuples(st.just("coeff"), st.integers(0, a.wmax), st.integers(0, a.qmax)),
        st.tuples(st.just("y_slice"), st.none(), st.integers(0, a.qmax)),
        st.tuples(st.just("weight_component"), st.integers(0, a.wmax), st.none()),
    )
    return a, draw(st.lists(call, min_size=1, max_size=8))


@given(_slice_calls())
def test_slices_equal_a_term_scan(case):
    # the first call builds the (weight, y-degree) index on a cold series and
    # the later ones read it warm, in any order of the three methods
    a, calls = case
    snapshot = dict(a.terms)
    for name, k, q in calls:
        args = [x for x in (k, q) if x is not None]
        got = getattr(a, name)(*args)
        assert got == reference_part(a, k, q)
        assert got + got == reference_mul(got, WSeries.const(2, a.wmax, a.qmax))
    assert a.terms == snapshot


def test_slices_negative_control():
    # a split that files every key one y-degree too high fails the scan
    s = WSeries.var("L", 2, 2) * (1 + 2 * WSeries.y(2, 2))
    shifted = {
        (k, q + 1): [(key + 1, m, n) for key, m, n in row]
        for (k, q), row in s._by_slice().items()
    }
    object.__setattr__(s, "_split", shifted)
    assert s.coeff(1, 1) != reference_part(s, 1, 1)
    assert s.y_slice(1) != reference_part(s, q=1)
    assert s.weight_component(1) != reference_part(s, 1)


# -- display ----------------------------------------------------------------------


def _display_series(wmax, qmax, terms):
    return WSeries(wmax, qmax, {(mono_from_dict(m), q): c for (m, q), c in terms})


# Golden strings; each case's id names the rendering rules it pins.
_DISPLAY_CASES = [
    pytest.param(WSeries.zero(3, 2), "0", "0", id="zero series"),
    pytest.param(
        WSeries.const(F(-7, 2), 3, 2), "-7/2", r"-\frac{7}{2}", id="fractional constant"
    ),
    pytest.param(WSeries.const(1, 3, 2), "1", "1", id="constant 1"),
    pytest.param(
        _display_series(4, 3, [
            (({}, 0), -1),
            (({"c1": 1}, 0), 1),
            (({"L": 2}, 1), F(-3, 2)),
            (({"H": 1, "c2": 1}, 3), 1),
            (({"L": 1}, 2), 5),
        ]),
        "-1 + c1 + 5*L*y^2 - 3/2*L^2*y + H*c2*y^3",
        r"-1 + c_{1} + 5 L y^{2} - \frac{3}{2} L^{2} y + H c_{2} y^{3}",
        id="-1 constant first, +1 with a factor, y^k",
    ),
    pytest.param(
        _display_series(4, 2, [
            (({}, 1), -1),
            (({}, 2), F(2, 3)),
            (({"L": 1, "H": 1}, 0), -1),
            (({"c3": 1}, 0), F(-1, 4)),
            (({"c1": 2}, 1), -2),
        ]),
        "-y + 2/3*y^2 - L*H - 2*c1^2*y - 1/4*c3",
        r"-y + \frac{2}{3} y^{2} - L H - 2 c_{1}^{2} y - \frac{1}{4} c_{3}",
        id="-y first, -1 with factors, c_i powers",
    ),
]


@pytest.mark.parametrize("series, text, latex", _DISPLAY_CASES)
def test_rendered_text_and_latex(series, text, latex):
    assert series.to_text() == text == str(series)
    assert series.to_latex() == latex


# -- randomized ring laws ------------------------------------------------------


VARS = ("L", "H", "c1", "c2")


def test_ring_axioms():
    rng = random.Random(101)
    for _ in range(25):
        a = random_series(rng, VARS, 4, 3)
        b = random_series(rng, VARS, 4, 3)
        c = random_series(rng, VARS, 4, 3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_inverse_roundtrip_random():
    rng = random.Random(202)
    one = WSeries.const(1, 4, 3)
    for _ in range(20):
        a = random_series(rng, VARS, 4, 3) + rng.randrange(1, 5)
        if not a.constant_term():
            continue
        assert a * a.inverse() == one


def test_log_exp_roundtrip_random():
    rng = random.Random(303)
    for _ in range(20):
        a = random_series(rng, VARS, 4, 3, allow_const=False)
        a = a - _weight_zero_tail(a)
        assert a.exp().log() == a


def _weight_zero_tail(a):
    out = WSeries.zero(a.wmax, a.qmax)
    for q in range(0, a.qmax + 1):
        out = out + a.coeff(0, q) * WSeries(a.wmax, a.qmax, {((), q): F(1)})
    return out


def test_truncation_coherence():
    rng = random.Random(404)
    for _ in range(15):
        a6 = random_series(rng, VARS, 6, 4)
        b6 = random_series(rng, VARS, 6, 4)
        a4, b4 = a6.truncate(4, 2), b6.truncate(4, 2)
        assert (a6 * b6).truncate(4, 2) == a4 * b4
        assert (a6 + b6).truncate(4, 2) == a4 + b4
        u6 = a6 - _weight_zero_tail(a6) + 1
        assert u6.inverse().truncate(4, 2) == u6.truncate(4, 2).inverse()


def test_reweight_is_multiplicative():
    rng = random.Random(505)
    for _ in range(15):
        a = random_series(rng, VARS, 4, 4)
        b = random_series(rng, VARS, 4, 4)
        lhs = (a * b).reweight_by_one_plus_y()
        rhs = a.reweight_by_one_plus_y() * b.reweight_by_one_plus_y()
        assert lhs == rhs


def test_diff_h_leibniz():
    # d/dH drops the valid weight range by one, so compare to wmax - 1
    rng = random.Random(606)
    for _ in range(15):
        a = random_series(rng, ("L", "H"), 4, 2)
        b = random_series(rng, ("L", "H"), 4, 2)
        lhs = (a * b).diff_h().truncate(3)
        rhs = (a.diff_h() * b + a * b.diff_h()).truncate(3)
        assert lhs == rhs


def test_monomial_canonicalization():
    m = mono_from_dict({"c2": 1, "H": 2, "L": 1, "c1": 0})
    assert m == (("L", 1), ("H", 2), ("c2", 1))
    with pytest.raises(ValueError):
        mono_from_dict({"x": 1})
    with pytest.raises(ValueError):
        mono_from_dict({"L": -1})


@pytest.mark.parametrize(
    "name",
    ["c01", "c\u0663", "c\uff11", "c\u00b2", "c0", "c", "c+1", "c 1", "C1"],
    ids=["leading-zero", "arabic-indic-3", "fullwidth-1", "superscript-2", "c0",
         "bare-c", "sign", "space", "upper-case"],
)
def test_only_canonical_chern_names_are_variables(name):
    # c01, c\u0663 and c\uff11 were read as c1, c3 and c1 and kept their
    # name, so a table using one compared unequal to the canonical table;
    # c\u00b2 failed inside int()
    for read in (var_weight, lambda v: mono_from_dict({v: 1})):
        with pytest.raises(ValueError, match="unknown variable"):
            read(name)
    assert [var_weight(v) for v in ("L", "H", "c1", "c9", "c10", "c123")] == [
        1, 1, 1, 9, 10, 123
    ]


@pytest.mark.parametrize("exponent", [1.5, 2.0, F(2)])
def test_mono_from_dict_refuses_non_integer_exponents(exponent):
    with pytest.raises(TypeError):
        mono_from_dict({"L": exponent})


@pytest.mark.parametrize("wmax, qmax", [(6.7, 2), (6, 2.5), (F(6), 2)])
def test_truncation_orders_must_be_integers(wmax, qmax):
    with pytest.raises(TypeError):
        WSeries(wmax, qmax)


@pytest.mark.parametrize(
    "key",
    [
        ((), -1),  # negative y-degree
        (((("H", 1), ("L", 1))), 0),  # wrong order
        (((("H", 1), ("H", 2))), 0),  # repeated variable
        (((("H", 0),)), 0),  # zero exponent
        (((("L", 1), ("H", -1))), 0),  # negative exponent
    ],
)
def test_constructor_refuses_non_canonical_keys(key):
    with pytest.raises(ValueError):
        WSeries(3, 3, {key: 1})


def test_rational_coefficient_invariants():
    # coefficients stay in lowest terms with positive denominators, and
    # exact zeros are dropped from the term map entirely
    s = WSeries(
        2, 0, {((("L", 1),), 0): F(2, -4), ((("H", 1),), 0): F(0, 5)}
    )
    assert s.get((("L", 1),), 0) == F(-1, 2)
    assert s.get((("L", 1),), 0).denominator == 2
    assert ((("H", 1),), 0) not in s.terms
    assert (s - s).terms == {}


def test_zero_series_operations_are_total():
    z = WSeries.zero(3, 2)
    assert z + z == z
    assert z * WSeries.var("L", 3, 2) == z
    assert z.diff_h() == z
    assert z.reweight_by_one_plus_y() == z
    assert z.substitute("H", -WSeries.var("L", 3, 2)) == z
    assert z.exp() == WSeries.const(1, 3, 2)


# -- the packed multiply kernel against the Fraction oracle ----------------------


KERNEL_VARS = ("L", "H", "c1", "c2", "c3", "c4")

# numerators beyond 64 bits and denominators that share some factors, so the
# common denominators of two operands differ and neither divides the other
_coeffs = st.builds(
    F,
    st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)),
    st.sampled_from((1, 2, 3, 4, 6, 9, 10, 2**61 - 1, 3**45)),
)


@st.composite
def _monomials(draw, wmax, variables=KERNEL_VARS):
    room = draw(st.integers(0, wmax))
    exps = {}
    for v in draw(st.permutations(variables)):
        e = draw(st.integers(0, room // var_weight(v)))
        exps[v] = e
        room -= e * var_weight(v)
    return mono_from_dict(exps)


def _series_at(wmax, qmax, variables=KERNEL_VARS, coeffs=_coeffs):
    term = st.tuples(_monomials(wmax, variables), st.integers(0, qmax))
    terms = st.dictionaries(term, coeffs, max_size=14)
    return terms.map(lambda t: WSeries(wmax, qmax, t))


@st.composite
def _same_orders(draw, count):
    wmax = draw(st.integers(0, 10))
    qmax = draw(st.integers(0, 8))
    return [draw(_series_at(wmax, qmax)) for _ in range(count)]


@given(_same_orders(2))
def test_kernel_equals_oracle(pair):
    a, b = pair
    assert a * b == reference_mul(a, b)


def _packed_terms(terms, wmax, qmax):
    """The packed form of Fraction ``terms``: their numerators over the lcm
    of their denominators, each packed by ``_pack``."""
    den = lcm(*(c.denominator for c in terms.values()))
    nums = {key: c.numerator * (den // c.denominator) for key, c in terms.items()}
    return _pack(nums, wmax, qmax), den


def _is_reduced(packed, terms):
    """No factor divides the packed denominator and every numerator, so the
    denominator is the lcm of the reduced denominators of ``terms``."""
    nums, den = packed
    return gcd(den, *nums.values()) == 1 and den == lcm(
        *(c.denominator for c in terms.values())
    )


@given(_same_orders(4))
def test_packed_chain_equals_oracle(series):
    # three packed multiplies in a row, one unpack at the end
    wmax, qmax = series[0].wmax, series[0].qmax
    packed, want = series[0]._packed, series[0]
    for factor in series[1:]:
        packed = _packed_mul((packed, factor._packed), wmax, qmax)
        want = reference_mul(want, factor)
        assert _is_reduced(packed, want.terms)
    assert WSeries._trusted(wmax, qmax, packed) == want


# -- the folded kernels against the pair-loop oracles ------------------------------

# numerators up to 2^300 of either sign
_big_coeffs = st.builds(
    F,
    st.one_of(st.integers(-9, 9), st.integers(-(2**300), 2**300)),
    st.sampled_from((1, 2, 3, 10, 2**61 - 1)),
)


@st.composite
def _big_pair(draw):
    # qmax 0 and empty operands are in range, and so are single terms
    wmax = draw(st.integers(0, 8))
    qmax = draw(st.integers(0, 5))
    return [draw(_series_at(wmax, qmax, coeffs=_big_coeffs)) for _ in range(2)]


def _assert_folded_mul(a, b):
    wmax, qmax = a.wmax, a.qmax
    packed = _packed_mul((a._packed, b._packed), wmax, qmax)
    assert packed == pair_loop_packed_mul(a._packed, b._packed, wmax, qmax)
    want = dict_mul(dict_terms(a), dict_terms(b), wmax, qmax)
    assert WSeries._trusted(wmax, qmax, packed).terms == want
    assert _is_reduced(packed, want)


@given(_big_pair())
def test_folded_mul_equals_the_pair_loop_and_dict_oracles(pair):
    _assert_folded_mul(*pair)
    assert pair[0] * pair[1] == reference_mul(*pair)


def _series(wmax, qmax, terms):
    return WSeries(wmax, qmax, {(mono_from_dict(m), q): c for m, q, c in terms})


@pytest.mark.parametrize(
    "a, b",
    [
        # qmax 0
        (_series(3, 0, [({"H": 1}, 0, 2**300 - 1), ({}, 0, -3)]),
         _series(3, 0, [({"L": 2}, 0, -(2**299)), ({"H": 1}, 0, F(1, 3))])),
        # an empty operand, on either side
        (_series(4, 2, []), _series(4, 2, [({"H": 2}, 1, 5)])),
        (_series(4, 2, [({"c1": 1}, 2, -(2**200))]), _series(4, 2, [])),
        # a single term times a dense y-polynomial
        (_series(2, 4, [({"L": 1}, 1, -(2**300))]),
         _series(2, 4, [({"H": 1}, q, (-1) ** q * (2**300 - q)) for q in range(5)])),
        # y-degree 1 operands: every slot past y^1 is cut
        (_series(3, 1, [({"H": 1}, 1, 7), ({}, 1, -(2**150))]),
         _series(3, 1, [({"L": 1}, 1, 2**150), ({"H": 2}, 1, -1)])),
    ],
)
def test_folded_mul_edge_cases(a, b):
    _assert_folded_mul(a, b)
    _assert_folded_mul(b, a)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [8, 40, 300])
def test_folded_mul_slot_sums_near_the_bound(sign, bits):
    # n = 7 terms a side, every pair landing on H^6 y: that slot sums 7
    # products of the largest numerators, past half the slot's signed range
    n, top = 7, 2**bits - 1
    a = _series(n - 1, 2, [({"H": i}, 0, sign * top) for i in range(n)])
    b = _series(n - 1, 2, [({"H": n - 1 - i}, 1, top) for i in range(n)])
    _assert_folded_mul(a, b)
    slot = 2 * bits + n.bit_length() + 1
    assert (a * b).get((("H", n - 1),), 1) == sign * n * top**2
    assert n * top**2 >= 2 ** (slot - 2)


def _folded_mul_reads(a, b, short=0):
    """What ``_unfold`` reads of the product of the folds of ``a`` and ``b``:
    from ``_folded_mul``'s residue, cut ``short`` bits below the product's
    slots, and from the signed residue of a pair loop over the folds at
    their cut."""
    wmax, qmax = a.wmax, a.qmax
    (na, _da), (nb, _db) = a._packed, b._packed
    width = _width(wmax, qmax)
    mask = (1 << width) - 1
    slot = _packed._bits(na) + _packed._bits(nb) + min(len(na), len(nb)).bit_length() + 1
    fa, fb, cut = _fold(na, width, slot), _fold(nb, width, slot), slot * (qmax + 1)
    signed = {}
    for r1, f1 in fa.items():
        for r2, f2 in fb.items():
            if (r1 & mask) + (r2 & mask) <= wmax:  # the weight fields
                signed[r1 + r2] = signed.get(r1 + r2, 0) + f1 * f2
    half = 1 << cut - 1
    signed = {rest: (f + half & (1 << cut) - 1) - half for rest, f in signed.items()}
    return [
        _unfold(f, width, slot, qmax, 1)
        for f in (_packed._folded_mul(fa, fb, wmax, mask, cut - short), signed)
    ]


@given(_big_pair())
def test_folded_mul_residues_read_as_the_signed_ones(pair):
    # the kernel keeps each product sum mod 2^cut, unsigned: the reader
    # biases and masks only the kept slots, so it reads the same digits
    unsigned, signed = _folded_mul_reads(*pair)
    assert unsigned == signed


def test_a_cut_one_bit_short_misreads_a_negative_top_digit():
    # -1 at y^qmax times 1: the residue of the top slot's digit -1 fills
    # every bit of the cut, so one bit less reads it as 2^(slot-1) - 1
    a, b = _series(2, 3, [({"L": 1}, 3, -1)]), _series(2, 3, [({}, 0, 1)])
    unsigned, signed = _folded_mul_reads(a, b)
    assert unsigned == signed
    short, signed = _folded_mul_reads(a, b, 1)
    assert short != signed


@pytest.mark.parametrize("slot", [2, 3, 64, 301])
def test_fold_unfold_round_trip_at_the_slot_extremes(slot):
    # signed digits +-(2^(slot-1) - 1) next to each other, and +-1 and 0
    wmax, qmax = 3, 4
    width = _width(wmax, qmax)
    edge = 2 ** (slot - 1) - 1
    digits = [(edge, -edge, 1, -1, 0), (-edge, edge, -edge, 0, 1), (0, 0, 0, 0, -edge)]
    nums = {
        (rest << 2 * width | rest << width) + q: n  # the weight field holds rest
        for rest, row in enumerate(digits, 1)
        for q, n in enumerate(row)
        if n
    }
    assert _unfold(_fold(nums, width, slot), width, slot, qmax, 1) == (nums, 1)


@st.composite
def _big_sheared_groups(draw):
    wmax = draw(st.integers(0, 6))
    qmax = draw(st.integers(0, 4))
    slopes = draw(st.lists(_slopes | st.just(F(0)), min_size=1, max_size=3, unique=True))
    variables = ("L", "H", "c1")
    return {s: draw(_series_at(wmax, qmax, variables, _big_coeffs)) for s in slopes}


@given(_big_sheared_groups())
def test_sheared_product_equals_the_pair_loop_chain(groups):
    # fractional slopes and numerators up to 2^300: the read of a deferred
    # product, each group sheared by its slope, against the nested shears
    # and products of the pair-loop kernels
    (wmax, qmax), = {(G.wmax, G.qmax) for G in groups.values()}
    packed = _Product(groups, wmax, qmax)._packed
    want = {s: G._packed for s, G in groups.items()}
    assert packed == pair_loop_sheared_product(want, wmax, qmax)


# -- the shear of a deferred product -----------------------------------------------


@given(_big_sheared_groups(), _slopes)
def test_the_shear_of_a_deferred_product_equals_the_shear_of_the_eager_one(groups, s):
    # the shear reads the deferred product and maps its packed terms, as it
    # maps those of the pair-loop product, against the pair-loop shear
    (wmax, qmax), = {(G.wmax, G.qmax) for G in groups.values()}
    packed = pair_loop_sheared_product(
        {slope: G._packed for slope, G in groups.items()}, wmax, qmax
    )
    want = pair_loop_packed_shear(packed, s, wmax, qmax)
    assert _shear(WSeries._trusted(wmax, qmax, packed), s)._packed == want
    deferred = _Product(groups, wmax, qmax)
    assert _shear(deferred, s)._packed == want
    assert type(deferred) is _Product and deferred._groups is groups


# -- the pushforward of a deferred product, by residues ---------------------------


@st.composite
def _deferred_pushforwards(draw):
    """Slope groups in H, L, c1 and y at integer, fractional and negative
    slopes, a fiber dimension in 0..4 or none, and a bundle of rank 1-5
    whose exponents in -3..3 may repeat, at an input weight >= rank - 1."""
    exps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    wmax = draw(st.integers(len(exps) - 1, len(exps) + 4))
    qmax = draw(st.integers(0, 4))
    slopes = st.one_of(_slopes, st.integers(-3, 3).map(F))
    slopes = draw(st.lists(slopes, min_size=1, max_size=3, unique=True))
    groups = {s: draw(_series_at(wmax, qmax, ("L", "H", "c1"))) for s in slopes}
    fiber_dim = draw(st.none() | st.integers(0, 4))
    return groups, fiber_dim, BundleSpec(exps)


@given(_deferred_pushforwards())
def test_the_residue_pushforward_equals_the_segre_map_of_the_eager_product(case):
    # by residues at the bundle's exponents, reading nothing, against the
    # Segre rows of series inverses mapped over the Fraction terms of the
    # pair-loop chain, taken to y and times (1+y)^fiber_dim term by term
    groups, fiber_dim, bundle = case
    (wmax, qmax), = {(G.wmax, G.qmax) for G in groups.values()}
    deferred = _Product(groups, wmax, qmax, fiber_dim)
    got = pushforward(deferred, bundle)
    assert not is_read(deferred)
    packed = {s: G._packed for s, G in groups.items()}
    packed = pair_loop_sheared_product(packed, wmax, qmax)
    eager = WSeries._trusted(wmax, qmax, packed)
    if fiber_dim is not None:
        prefactor = _one_plus_y_to(fiber_dim, wmax, qmax)
        eager = reference_mul(reference_z_to_y(eager), prefactor)
    r, out_wmax = bundle.rank, wmax - bundle.rank + 1
    segre = reference_segre_series(bundle, out_wmax)
    rows = [[]] * (r - 1) + [
        [((("H", -(r - 1 + j)), ("L", j)), s.get((("L", j),) if j else ()))]
        for j, s in enumerate(segre)
    ]
    assert got == reference_map_powers(eager, "H", rows).truncate(out_wmax)


# -- the slot budget at its edge: same-sign numerators in every slot --------------

_EDGE_QMAX = 2
_EDGE_SLOPES = ((F(7, 3),), (F(-5, 2), F(11, 3)), (F(7, 3), F(-5, 2), F(11, 3)))
_EDGE_CASES = [
    (wmax, sign * c)
    for wmax in range(3, 9)
    for c in (1, 7, 2**40 - 1)
    for sign in (1, -1)
]


def _full_support(wmax, c):
    """c at every H^a L^b y^q within (wmax, _EDGE_QMAX): every slot of every
    fold is filled with one sign, so no slot sum cancels."""
    return WSeries(wmax, _EDGE_QMAX, {
        (mono_from_dict({"H": a, "L": b}), q): c
        for a in range(wmax + 1)
        for b in range(wmax + 1 - a)
        for q in range(_EDGE_QMAX + 1)
    })


def _edge_mul_and_chains(wmax, c):
    """(kernel, pair-loop oracle) for the square of the full-support series
    and for the read of its deferred product over each slope set of
    ``_EDGE_SLOPES``."""
    G = _full_support(wmax, c)
    out = [(_packed_mul((G._packed, G._packed), wmax, _EDGE_QMAX),
            pair_loop_packed_mul(G._packed, G._packed, wmax, _EDGE_QMAX))]
    for slopes in _EDGE_SLOPES:
        groups = dict.fromkeys(slopes, G)
        packed = {s: G._packed for s in slopes}
        out.append((_Product(groups, wmax, _EDGE_QMAX)._packed,
                    pair_loop_sheared_product(packed, wmax, _EDGE_QMAX)))
    return out


# Segre numbers 1, -16, 193, ...: large sigma_j, on a bundle whose least
# exponent is 0, as ``derived_q`` leaves every bundle
_EDGE_BUNDLE = BundleSpec((0, 7, 9))


def _edge_maps(wmax, c):
    """(the pushforward of the deferred product, by residues, that of the
    eager pair-loop chain term by term on its ``Fraction`` terms) for the
    full-support series alone at slope 0 and for each slope set of
    ``_EDGE_SLOPES``, along ``_EDGE_BUNDLE``, and for its H-free part at
    the slopes 0, 1 and 2, along the rank-1 bundle (0,).  The residue
    budget keeps five to eight bits of slack on the first, most of it from
    counting a mapped group's terms as those of the group: (wmax + 1)(wmax
    + 2)/2 monomials where the map leaves wmax + 1.  The H-free groups map
    to themselves, so their products fill the slots as far as those term
    counts reach."""
    G = _full_support(wmax, c)
    free = {k: n for k, n in G.terms.items() if "H" not in dict(k[0])}
    free = WSeries(wmax, _EDGE_QMAX, free)
    cases = [(G, _EDGE_BUNDLE, slopes) for slopes in ((F(0),),) + _EDGE_SLOPES]
    cases.append((free, BundleSpec((0,)), (F(0), F(1), F(2))))
    out = []
    for group, bundle, slopes in cases:
        packed = {s: group._packed for s in slopes}
        packed = pair_loop_sheared_product(packed, wmax, _EDGE_QMAX)
        eager = WSeries._trusted(wmax, _EDGE_QMAX, packed)
        deferred = _Product(dict.fromkeys(slopes, group), wmax, _EDGE_QMAX)
        want = reference_term_pushforward(eager, bundle)
        out.append((pushforward(deferred, bundle), want))
    return out


@pytest.mark.parametrize("wmax, c", _EDGE_CASES)
def test_the_slot_budget_holds_at_worst_case_magnitudes(wmax, c):
    # the largest slot sums of the product kernel, of the deferred reads and
    # of the residue pushforward; a residue budget without the
    # bit_length(mu * #terms) of its products fails the H-free case at
    # weight 8
    for got, want in _edge_mul_and_chains(wmax, c) + _edge_maps(wmax, c):
        assert got == want


def _narrower_slots(monkeypatch, bits, qmax=_EDGE_QMAX):
    """Make every fold, folded product and unfold use slots ``bits`` narrower
    than the kernels' budget; a product's cut spans the qmax + 1 slots of
    the series folded at ``qmax``."""
    fold, mul, unfold = _fold, _packed._folded_mul, _unfold
    cut = bits * (qmax + 1)
    monkeypatch.setattr(_packed, "_fold", lambda n, w, s: fold(n, w, s - bits))
    monkeypatch.setattr(  # a residue's eps-degree cap passes through
        _packed, "_folded_mul",
        lambda a, b, w, m, c, *cap: mul(a, b, w, m, c - cut, *cap),
    )
    monkeypatch.setattr(
        _packed, "_unfold", lambda f, w, s, q, d: unfold(f, w, s - bits, q, d)
    )


def test_slot_budget_negative_controls(monkeypatch):
    # the product's budget is tight here: one bit less gives a wrong square.
    # A deferred read folds only in its products, at that budget, and the
    # sheared groups' largest numerators do not meet in one slot: the
    # two-slope read keeps eight bits of slack, so nine bits less give a
    # wrong one, and eight do not.  The residues keep six bits of slack on
    # the one-slope pushforward at weight 4, so seven bits less give a
    # wrong one, and six do not
    with monkeypatch.context() as mp:
        _narrower_slots(mp, 1)
        got, want = _edge_mul_and_chains(3, 2**40 - 1)[0]
        assert got != want
    for bits, wrong in ((8, False), (9, True)):
        with monkeypatch.context() as mp:
            _narrower_slots(mp, bits)
            got, want = _edge_mul_and_chains(3, 2**40 - 1)[2]
            assert (got != want) is wrong
    for bits, wrong in ((6, False), (7, True)):
        with monkeypatch.context() as mp:
            _narrower_slots(mp, bits)
            got, want = _edge_maps(4, 2**40 - 1)[0]
            assert (got != want) is wrong
    # positive control
    for got, want in _edge_mul_and_chains(3, 2**40 - 1) + _edge_maps(4, 2**40 - 1):
        assert got == want


# -- the folded chain of several factors -------------------------------------------


@given(_same_orders(2), st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_a_folded_chain_equals_the_pair_loop_products(pair, picks):
    # a chain of two distinct series, each repeated as drawn and folded once,
    # against the pair-loop kernel oracle one product at a time
    factors = [pair[i]._packed for i in picks]
    wmax, qmax = pair[0].wmax, pair[0].qmax
    want = factors[0]
    for f in factors[1:]:
        want = pair_loop_packed_mul(want, f, wmax, qmax)
    assert _packed_mul(factors, wmax, qmax) == want


def _edge_chain(wmax, c, length):
    """(the folded chain, the pair-loop oracle) of ``length`` copies of the
    full-support series."""
    G = _full_support(wmax, c)
    want = G._packed
    for _ in range(length - 1):
        want = pair_loop_packed_mul(want, G._packed, wmax, _EDGE_QMAX)
    return _packed_mul([G._packed] * length, wmax, _EDGE_QMAX), want


@pytest.mark.parametrize("wmax, c", _EDGE_CASES)
def test_the_chain_slot_holds_at_worst_case_magnitudes(wmax, c):
    # every slot of every step filled with one sign: the chain's numerators
    # reach their largest at the last step
    for length in (3, 4):
        got, want = _edge_chain(wmax, c, length)
        assert got == want


def test_chain_slot_negative_controls(monkeypatch):
    # a chain adds one bit_length(#terms) per step, where a step's slot sums
    # reach fewer terms than that, so the three-factor chain keeps three
    # bits of slack and the four-factor one six: four and seven bits less
    # give a wrong product
    for length, bits, wrong in ((3, 3, False), (3, 4, True), (4, 6, False), (4, 7, True)):
        with monkeypatch.context() as mp:
            _narrower_slots(mp, bits)
            got, want = _edge_chain(3, 2**40 - 1, length)
            assert (got != want) is wrong
    for length in (3, 4):  # positive control
        got, want = _edge_chain(3, 2**40 - 1, length)
        assert got == want


# -- the map from z = y/(1+y) to y at its edge ---------------------------------------


def _one_plus_y_to(f, wmax, qmax):
    """(1+y)^f from its binomial coefficients, with no series product."""
    return WSeries.from_y_poly([comb(f, j) for j in range(f + 1)], wmax, qmax)


@pytest.mark.parametrize("fiber_dim", range(6))
def test_the_map_to_y_rows_are_z_powers_times_one_plus_y_to_the_fiber_dim(fiber_dim):
    # each row k of the map, y^k (1+y)^(f-k) by the generalized binomial as
    # (y-offset j - k, int) entries, against z^k mapped to y by the Fraction
    # term loop times (1+y)^f
    for qmax in range(13):
        rows = _packed._z_rows(qmax, fiber_dim)
        assert len(rows) == qmax + 1
        prefactor = _one_plus_y_to(fiber_dim, 0, qmax)
        for k, row in enumerate(rows):
            z_k = reference_z_to_y(WSeries(0, qmax, {((), k): 1}))
            want = reference_mul(z_k, prefactor)
            assert row == tuple((j - k, int(c)) for (_m, j), c in sorted(want.terms.items()))


_Z_CASES = [(qmax, fiber_dim) for qmax in (0, 1, 2, 5, 8) for fiber_dim in range(4)]
# Segre numbers 1, 16, 193, ...: one sign
_Z_BUNDLE = BundleSpec((0, -7, -9))


def _z_support(wmax, qmax, c, alternating):
    """c at every H^a L^b z^q within (wmax, qmax), times (-1)^q if
    ``alternating``.  A same-sign row of slots mostly cancels in the map to
    y (its columns j >= 2 sum to 0); an alternating one reaches the
    columns' sums of absolute entries."""
    return WSeries(wmax, qmax, {
        (mono_from_dict({"H": a, "L": b}), q): c * (-1) ** (q * alternating)
        for a in range(wmax + 1)
        for b in range(wmax + 1 - a)
        for q in range(qmax + 1)
    })


def _z_products(wmax, qmax, fiber_dim, c):
    """(the deferred z-product read, its Fraction oracle) and (their
    pushforwards along ``_Z_BUNDLE``, the deferred one by residues, the
    oracle term by term), for the full-support z-group alone at slope 0
    and at each of the first two slope sets of ``_EDGE_SLOPES``, with
    same-sign and with alternating slots.  The oracle maps the pair-loop chain to y term by term and
    multiplies it by (1+y)^fiber_dim."""
    prefactor = _one_plus_y_to(fiber_dim, wmax, qmax)
    out = []
    for alternating in (True, False):
        G = _z_support(wmax, qmax, c, alternating)
        for slopes in ((F(0),),) + _EDGE_SLOPES[:2]:
            groups = dict.fromkeys(slopes, G)
            packed = pair_loop_sheared_product(
                {s: G._packed for s in slopes}, wmax, qmax
            )
            chain = reference_z_to_y(WSeries._trusted(wmax, qmax, packed))
            want = reference_mul(chain, prefactor)
            out.append((_Product(groups, wmax, qmax, fiber_dim), want))
            out.append((pushforward(_Product(groups, wmax, qmax, fiber_dim), _Z_BUNDLE),
                        reference_term_pushforward(want, _Z_BUNDLE)))
    return out


@pytest.mark.parametrize("qmax, fiber_dim", _Z_CASES)
def test_the_map_to_y_holds_its_slots_at_worst_case_magnitudes(qmax, fiber_dim):
    for c in (2**40 - 1, -(2**40 - 1)):
        for got, want in _z_products(3, qmax, fiber_dim, c):
            assert got == want


def test_the_z_form_residue_slot_negative_control(monkeypatch):
    # the residues fold, multiply and unfold the z-form groups at their own
    # slot, and the map to y runs on the unfolded ints, with no slot of its
    # own.  Every fold, unfold and product cut is narrowed alike, the cut by
    # its nine slots at qmax 8.  The full-support z-group's pushforward at
    # slope 0 keeps six bits of slack (right six bits narrower, wrong seven);
    # one group makes no product, so its two-slope pushforward, whose three
    # products each take the cut, joins it: 21 bits (right 21, wrong 22).
    # Each pair holds at each fiber_dim, since the map follows the unfold
    for fiber_dim in (0, 1, 2):
        for index, right in ((1, 6), (5, 21)):
            for bits, wrong in ((right, False), (right + 1, True)):
                with monkeypatch.context() as mp:
                    _narrower_slots(mp, bits, qmax=8)
                    pushed = _z_products(3, 8, fiber_dim, 2**40 - 1)[index]
                    assert (pushed[0] != pushed[1]) is wrong
        for index in (1, 5):  # positive control
            pushed = _z_products(3, 8, fiber_dim, 2**40 - 1)[index]
            assert pushed[0] == pushed[1]


@st.composite
def _h_l_y_series(draw):
    wmax = draw(st.integers(0, 8))
    qmax = draw(st.integers(0, 4))
    return draw(_series_at(wmax, qmax, ("L", "H")))


@given(_h_l_y_series(), _slopes)
def test_packed_shear_equals_substitute(G, s):
    # the rows of the shear on packed ints, against the pair-loop shear
    want = _sheared(G, s)
    packed = _shear(G, s)._packed
    assert packed == pair_loop_packed_shear(G._packed, s, G.wmax, G.qmax)
    assert _is_reduced(packed, want.terms)
    assert WSeries._trusted(G.wmax, G.qmax, packed) == want


@given(_same_orders(2))
def test_a_product_keeps_its_packed_form_and_builds_its_terms_once(pair):
    a, b = pair
    product = a * b
    assert product._terms is None  # born packed, with no view built
    born = product._packed
    copy_ = WSeries(product.wmax, product.qmax, dict(product.terms))
    # the first read built the view once and kept it; the packed form stays
    assert product.terms is product.terms and product._packed is born
    assert product == copy_ == reference_mul(a, b)
    # the constructor packs the terms to the same reduced form
    assert copy_._packed == born == _packed_terms(product.terms, a.wmax, a.qmax)


def test_copy_deepcopy_and_pickle_round_trips():
    v = S(3, 2)
    made = (
        lambda: v["L"] * F(1, 2) + v["H"] * v["H"] + v["y"] - 3,  # from terms
        lambda: (v["L"] + v["y"]) * (v["H"] - F(2, 3)),  # a product, unread
    )
    pickles = [
        lambda s, p=p: pickle.loads(pickle.dumps(s, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for make in made:
        want = make()
        assert copy.copy(make()) == want and copy.deepcopy(make()) == want
        series = make()
        assert copy.copy(series) is series and copy.deepcopy([series])[0] is series
        for round_trip in pickles:
            got = round_trip(make())
            assert got == want and got * got == want * want


def test_mul_and_shift_h_run_on_the_packed_kernels(monkeypatch):
    muls = count_calls(monkeypatch, series_module, "_packed_mul")
    unpacks = count_calls(monkeypatch, series_module, "_unpack")
    v = S(4, 2)
    product = (v["H"] + v["y"]) * (v["H"] - 1)
    H2 = _mono_series(4, 2, H=2)
    sheared = _shear(H2, F(1, 2))
    assert len(muls) == 1  # a shear multiplies nothing
    # three groups, read: three shears and two products; in z, two groups
    # make one product, and (1+y)^1 rides on the map to y
    chain = _Product({F(1, 2): H2, F(-1): v["H"], F(3): v["H"] + v["y"]}, 4, 2)
    chain._packed
    assert len(muls) == 3
    in_z = _Product({F(1, 2): H2, F(3): v["H"] + v["y"]}, 4, 2, 1)
    in_z._packed
    assert len(muls) == 4 and unpacks == []
    assert product == H2 + v["H"] * v["y"] - v["H"] - v["y"]
    assert sheared == (v["H"] + v["L"] * F(1, 2)) ** 2
    shears = [v["H"] + v["L"] * s for s in (F(1, 2), F(-1), F(3))]
    assert chain == shears[0] ** 2 * shears[1] * (shears[2] + v["y"])
    z = v["y"] * (1 + v["y"]).inverse()
    assert in_z == shears[0] ** 2 * (shears[2] + z) * (1 + v["y"])


# -- the y-scaling kernel --------------------------------------------------------


@st.composite
def _scaled(draw):
    # rows of ints or Fractions, each shorter or longer than qmax + 1
    (a,) = draw(_same_orders(1))
    entry = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=7)
    row = st.lists(entry, max_size=a.qmax + 3)
    return a, draw(st.lists(row, min_size=a.wmax + 1, max_size=a.wmax + 1))


@given(_scaled())
def test_scale_weights_equals_the_per_weight_products(case):
    a, rows = case
    assert a._scale_weights(rows) == reference_scale_weights(a, rows)


@given(_same_orders(1))
def test_reweight_equals_the_binomial_loop(single):
    (a,) = single
    assert a.reweight_by_one_plus_y() == reference_reweight_by_one_plus_y(a)


def test_scale_weights_negative_controls():
    # a kernel that reads rows[k + 1], or that keeps y-degrees past qmax,
    # fails the comparison with the per-weight products
    v = S(3, 2)
    a = v["one"] + v["L"] * v["y"] + WSeries.var("c2", 3, 2)
    rows = [[1, 1], [2, 0, 1], [F(1, 2), 3], [5]]
    want = reference_scale_weights(a, rows)
    assert a._scale_weights(rows) == want
    assert a._scale_weights(rows[1:] + [[]]) != want
    wide = WSeries(3, 4, a.terms)._scale_weights(rows)
    kept = wide.truncate(3, 2)
    assert WSeries._trusted(3, 2, _packed_terms(kept.terms, 3, 2)) == want
    assert WSeries._trusted(3, 2, _packed_terms(wide.terms, 3, 2)) != want


@given(_same_orders(1), st.sampled_from(KERNEL_VARS))
def test_coefficients_of_equals_dict_split(single, var):
    (a,) = single
    assert a.coefficients_of(var) == reference_coefficients_of(a, var)


@given(_same_orders(3))
def test_kernel_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = WSeries.const(1, a.wmax, a.qmax)
    assert one * a == a
    assert a * one == a


@given(_same_orders(1), _same_orders(1))
def test_kernel_truncation_mismatch(left, right):
    (a,), (b,) = left, right
    assume((a.wmax, a.qmax) != (b.wmax, b.qmax))
    with pytest.raises(TruncationMismatchError):
        a * b


def test_kernel_integrand_pair():
    a = fiber_integrand(catalog_spec("D5"), 13, 11)
    b = fiber_integrand(catalog_spec("E8"), 13, 11)
    assert len(a.terms) > 1000 and len(b.terms) > 1000
    assert a * b == reference_mul(a, b)


def _mono_series(wmax, qmax, q=0, **exps):
    return WSeries(wmax, qmax, {(mono_from_dict(exps), q): F(1)})


@pytest.mark.parametrize("wmax", [1, 2, 3, 4, 7, 8, 15, 16])
def test_kernel_exponent_at_wmax(wmax):
    # an exponent at wmax: 15 fills the 4 bits every order below 16 takes
    one = WSeries.const(1, wmax, 2)
    top = _mono_series(wmax, 2, H=wmax)
    assert top * one == top
    assert one * top == top
    for a in range(wmax + 1):
        assert _mono_series(wmax, 2, L=a) * _mono_series(wmax, 2, L=wmax - a) == (
            _mono_series(wmax, 2, L=wmax)
        )
    assert top * WSeries.var("L", wmax, 2) == WSeries.zero(wmax, 2)


def test_kernel_qmax_above_wmax():
    y3 = _mono_series(1, 7, q=3)
    y4 = _mono_series(1, 7, q=4)
    assert y3 * y4 == _mono_series(1, 7, q=7)
    assert (y3 * WSeries.var("L", 1, 7)) * y4 == _mono_series(1, 7, q=7, L=1)
    assert y4 * y4 == WSeries.zero(1, 7)


@pytest.mark.parametrize("wmax", [1, 4, 9, 10])
def test_kernel_top_chern_class(wmax):
    top = WSeries.var("c%d" % wmax, wmax, 1)
    assert top * (1 + WSeries.y(wmax, 1)) == top + top * WSeries.y(wmax, 1)
    assert top * WSeries.var("c1", wmax, 1) == WSeries.zero(wmax, 1)
    assert top * top == WSeries.zero(wmax, 1)


def test_kernel_orders_zero():
    a = WSeries.const(3, 0, 0)
    b = WSeries.const(F(-1, 2), 0, 0)
    assert a * b == WSeries.const(F(-3, 2), 0, 0)


def test_kernel_zero_operands():
    a = WSeries.var("L", 3, 2) + WSeries.y(3, 2)
    z = WSeries.zero(3, 2)
    assert a * z == z and z * a == z and z * z == z
    assert (a * z).wmax == 3 and (a * z).qmax == 2


def test_kernel_total_cancellation():
    # (L + y)(L - y): L^2 and y^2 fall off the truncation, the two L*y cancel
    L, y = WSeries.var("L", 1, 1), WSeries.y(1, 1)
    assert ((L + y) * (L - y)).terms == {}


def test_kernel_canonical_keys_and_output():
    rng = random.Random(707)
    variables = ("c10", "c3", "H", "L", "c1")
    for _ in range(10):
        a = random_series(rng, variables, 10, 3, nterms=30)
        b = random_series(rng, variables, 10, 3, nterms=30)
        got, want = a * b, reference_mul(a, b)
        for mono, _q in got.terms:
            assert mono == mono_from_dict(dict(mono))
        assert got.to_text() == want.to_text()
        assert got.to_latex() == want.to_latex()
        assert emit_series_json(got) == emit_series_json(want)


def test_public_constructor_still_validates():
    s = WSeries(1, 0, {((("L", 2),), 0): F(1), ((), 1): F(1), ((), 0): 0})
    assert s.terms == {}
    with pytest.raises(TypeError):
        WSeries(1, 0, {((), 0): 0.5})
    with pytest.raises(ValueError):
        WSeries(1, 0, {((("x", 1),), 0): F(1)})


# -- the packed ring operations ------------------------------------------------


RING_VARS = ("L", "H", "c1", "c2", "c3")


@st.composite
def _ring_operands(draw, count, wmax_top=10, qmax_top=8):
    # each operand either holds its terms or is born packed with none built
    wmax = draw(st.integers(0, wmax_top))
    qmax = draw(st.integers(0, qmax_top))
    out = []
    for _ in range(count):
        a = draw(_series_at(wmax, qmax, RING_VARS))
        out.append(a * 1 if draw(st.booleans()) else a)
    return out


def _terms_and_reduced(result, want):
    """``result`` has the terms ``want``, and its packed form is reduced."""
    packed = result._packed
    assert dict(result.terms) == want
    assert _is_reduced(packed, want)


@given(_ring_operands(2), _coeffs)
def test_packed_add_sub_neg_and_scalars_equal_the_dict_oracles(pair, c):
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        unpacks = count_calls(mp, series_module, "_unpack")
        results = (
            a + b, a - b, -a, a + c, c + a, a - c, c - a, a * c, c * a, a * int(c),
            a - a,  # every numerator cancels
            a * F(1, 2) + a * F(1, 2),  # a common factor of 2 to divide out
        )
    assert unpacks == []  # no operation built a Fraction
    A, B, C = dict_terms(a), dict_terms(b), {((), 0): c}
    wants = (
        dict_add(A, B), dict_add(A, B, -1), dict_scale(A, -1), dict_add(A, C),
        dict_add(A, C), dict_add(A, C, -1), dict_add(C, A, -1), dict_scale(A, c),
        dict_scale(A, c), dict_scale(A, int(c)), {}, A,
    )
    for result, want in zip(results, wants, strict=True):
        _terms_and_reduced(result, want)


@given(_scaled())
def test_packed_scale_weights_equals_the_dict_oracle(case):
    a, rows = case
    for operand in (a, a * 1):
        with pytest.MonkeyPatch.context() as mp:
            unpacks = count_calls(mp, series_module, "_unpack")
            result = operand._scale_weights(rows)
        assert unpacks == []
        _terms_and_reduced(result, dict_scale_weights(dict_terms(a), rows, a.qmax))


@given(_ring_operands(1, wmax_top=5, qmax_top=3), _coeffs.filter(bool))
def test_packed_exp_log_and_inverse_equal_the_dict_oracles(single, c):
    (a,) = single
    w, q = a.wmax, a.qmax
    positive = {key: v for key, v in dict_terms(a).items() if key[0]}
    one_plus = dict_add({((), 0): F(1)}, positive)
    unit = dict_terms(a) | {((), 0): c}
    _terms_and_reduced(WSeries(w, q, positive).exp(), dict_exp(positive, w, q))
    _terms_and_reduced(WSeries(w, q, one_plus).log(), dict_log(one_plus, w, q))
    _terms_and_reduced(WSeries(w, q, unit).inverse(), dict_inverse(unit, w, q))


def test_packed_operations_keep_their_error_classes(monkeypatch):
    v = S(3, 2)
    others = (WSeries.var("L", 3, 3), v["L"].truncate(2))
    unpacks = count_calls(monkeypatch, series_module, "_unpack")
    born = (v["L"] + v["y"]) * (v["H"] + 1)  # L*H + L + y*H + y, unread
    for other in others:
        with pytest.raises(TruncationMismatchError):
            born + other
        with pytest.raises(TruncationMismatchError):
            born - other
    for bad in (lambda: born + 0.5, lambda: 0.5 - born, lambda: born * 0.5):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(NotAUnitError):
        born.inverse()
    with pytest.raises(ValueError, match="exp needs"):
        born.exp()
    for bad in (born + 1, born + 2 - v["y"]):  # a y term, a constant 2
        with pytest.raises(ValueError, match="log needs"):
            bad.log()
    assert born and not (born - born) and (born - born).is_zero()
    assert born.constant_term() == 0 and (born - F(1, 3)).constant_term() == F(-1, 3)
    assert unpacks == []  # no check read the terms


# (orders, truncated orders): each crosses a field-width boundary (16 -> 15
# or 32 -> 31, 5 bits to 4 or 6 to 5) or truncates from 5 bits to (0, 0)
_WIDTH_EDGES = [
    ((5, 16), (5, 15)),
    ((8, 16), (7, 15)),
    ((8, 16), (0, 0)),
    ((17, 3), (15, 3)),
    ((32, 5), (31, 5)),
    ((16, 16), (0, 0)),
]


# (orders, truncated orders) at one field width, 4 bits below order 16: the
# pushforward's cut from (w + 3, w + 1) to (w, w + 1), w 7..9, is the first
_SAME_WIDTHS = [
    ((12, 10), (9, 10)),
    ((15, 8), (8, 8)),
    ((7, 5), (4, 4)),
    ((3, 2), (2, 2)),
    ((1, 1), (1, 0)),
    ((6, 6), (6, 6)),
    ((8, 3), (7, 3)),
    ((4, 4), (3, 3)),
    ((2, 2), (1, 1)),
    ((3, 2), (0, 0)),
]


@pytest.mark.parametrize("orders, cut", _WIDTH_EDGES + _SAME_WIDTHS)
@given(data=st.data())
def test_truncate_equals_a_term_filter(orders, cut, data):
    a = data.draw(_series_at(*orders))
    w, q = cut
    with pytest.MonkeyPatch.context() as mp:
        unpacks = count_calls(mp, series_module, "_unpack")
        decodes = count_calls_everywhere(mp, _packed, "_key_mono")
        got = a.truncate(w, q)  # before any read of a's terms builds the view
        # the kept keys are the old ones, or each field moved to the new width
        assert (got.wmax, got.qmax) == cut and unpacks == [] and decodes == []
    want = {
        (m, j): c
        for (m, j), c in dict_terms(a).items()
        if mono_weight(m) <= w and j <= q
    }
    assert dict_terms(got) == want and got == WSeries(w, q, want)
    assert a.truncate() == a and a.truncate(qmax=q) == WSeries(a.wmax, q, a.terms)
    if (orders, cut) in _SAME_WIDTHS:  # a cut that drops nothing keeps the dict
        assert (got._packed is a._packed) == (len(want) == len(a.terms))


def test_truncate_keeps_its_error_classes():
    a = WSeries.var("L", 3, 2) + WSeries.y(3, 2)
    for orders in ((2.0,), (3, 1.0), (2.0, 2), (4.5,), (3, 2.5)):
        with pytest.raises(TypeError):  # above the truncation too
            a.truncate(*orders)
    for orders in ((-1,), (3, -1)):
        with pytest.raises(ValueError) as caught:
            a.truncate(*orders)
        assert caught.type is ValueError
    for orders in ((4,), (3, 3), (0, 3)):
        with pytest.raises(TruncationDeficitError):
            a.truncate(*orders)


@given(_same_orders(1), st.data())
def test_packed_equality_agrees_with_the_terms(single, data):
    (a,) = single
    key = data.draw(st.tuples(_monomials(a.wmax), st.integers(0, a.qmax)))
    b_terms = dict_add(dict_terms(a), {key: data.draw(_coeffs)})
    b = WSeries(a.wmax, a.qmax, b_terms)
    want = dict_terms(a) == b_terms  # the two differ in at most one coefficient
    assert (a * 1 == b * 1) is want  # both born of a kernel
    assert (a * 1 == b) is want and (a == b * 1) is want  # one born of a kernel
    assert (a == b) is want  # both packed from their terms
    assert (a * 1 == WSeries(a.wmax + 1, a.qmax, dict_terms(a)) * 1) is False


@given(_same_orders(2))
def test_get_on_a_product_reads_its_packed_form(pair):
    a, b = pair
    product, want = a * b, reference_mul(a, b)
    keys = list(want.terms) + [((), 0), ((), a.qmax)]
    with pytest.MonkeyPatch.context() as mp:
        unpacks = count_calls(mp, series_module, "_unpack")
        for mono, q in keys:
            assert product.get(mono, q) == want.get(mono, q)
        # a key out of range or not canonical has the coefficient 0
        for mono, q in (((), a.qmax + 1), ((("H", 1), ("L", 1)), 0), ((("x", 1),), 0)):
            assert product.get(mono, q) == 0
    assert unpacks == []


# -- the graded kernel of exp, log and inverse ------------------------------------

_GRADED_VARS = ("L", "H", "c1", "c2")


@st.composite
def _graded_operands(draw):
    # a has weight-0 y terms, so the unit has them too; sums past the key
    # field are in ``_carrying_operands``
    wmax, qmax = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    a = draw(_series_at(wmax, qmax, _GRADED_VARS))
    return a, a - a.weight_component(0)


@given(_graded_operands(), _coeffs.filter(bool))
def test_graded_kernel_equals_the_taylor_and_newton_loops(operands, c):
    a, positive = operands
    assert positive.exp() == reference_exp(positive)
    assert (1 + positive).log() == reference_log(1 + positive)
    unit = a - a.constant_term() + c
    assert unit.inverse() == reference_inverse(unit)


def _carrying_operands():
    """Series at (8, 8), 4-bit fields, whose products sum two y-degrees or
    two weights to 16, one past the field: (exp input, log input, unit)."""
    v = S(8, 8)
    y8, L4 = v["y"] ** 8, v["L"] ** 4
    positive = v["L"] * y8 + F(2, 3) * v["H"] * v["y"] ** 7 + L4 * v["y"]
    unit = 1 + y8 - F(1, 2) * v["y"] ** 7 + WSeries.var("c4", 8, 8) * v["y"]
    return positive, 1 + positive - 3 * L4 * L4, unit


def test_graded_kernel_at_sums_past_the_key_field():
    positive, one_plus, unit = _carrying_operands()
    assert positive.exp() == reference_exp(positive)
    assert one_plus.log() == reference_log(one_plus)
    assert unit.inverse() == reference_inverse(unit)
    assert (1 + WSeries.y(8, 8) ** 8).inverse() == 1 - WSeries.y(8, 8) ** 8


def _graded_with(check):
    """``_packed._graded`` with the slice check replaced by ``check`` on the
    summed key: the check made after two keys add, or none at all."""
    src = textwrap.dedent(inspect.getsource(_packed._graded))
    pre, add = "if w1 + w2 <= wmax and q1 + q2 <= qmax:", "acc[k1 + k2] += fx * x2"
    assert src.count(pre) == 1 and src.count(add) == 1
    src = src.replace(pre, "if True:").replace(add, add + " * (%s)" % check)
    namespace = dict(vars(_packed))
    exec(src, namespace)
    return namespace["_graded"]


@pytest.mark.parametrize(
    "check",
    ["k1 + k2 >> width & mask <= wmax and k1 + k2 & mask <= qmax", "True"],
    ids=["after-the-add", "dropped"],
)
def test_graded_kernel_negative_controls(monkeypatch, check):
    # reading the fields of the summed key lets a carry through: y^8 * y^8
    # at 4 bits is a term of weight 1 and y-degree 0
    operands = _carrying_operands()
    wants = [reference_exp(operands[0]), reference_log(operands[1])]
    wants.append(reference_inverse(operands[2]))
    methods = (WSeries.exp, WSeries.log, WSeries.inverse)
    assert [m(x) for m, x in zip(methods, operands)] == wants  # positive control
    monkeypatch.setattr(series_module, "_graded", _graded_with(check))
    for method, x, want in zip(methods, operands, wants):
        assert method(x) != want


def test_graded_kernel_keeps_the_error_classes():
    v = S(4, 4)
    c2 = WSeries.var("c2", 4, 4)
    cases = [
        (WSeries.inverse, reference_inverse, v["y"] + c2, NotAUnitError),
        (WSeries.inverse, reference_inverse, c2 - c2, NotAUnitError),
        (WSeries.exp, reference_exp, v["y"] + c2, ValueError),
        (WSeries.exp, reference_exp, 1 + c2, ValueError),
        (WSeries.log, reference_log, 2 + c2, ValueError),
        (WSeries.log, reference_log, 1 + v["y"] + c2, ValueError),
        (WSeries.log, reference_log, c2, ValueError),
    ]
    for method, reference, operand, error in cases:
        with pytest.raises(error) as got:
            method(operand)
        with pytest.raises(error) as want:
            reference(operand)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# -- a memo under threads -------------------------------------------------------------


class _Top:
    """A toy memo value that truncates exactly: a truncation is its key and
    the orders asked."""

    def __init__(self, key, wmax, qmax):
        self.key, self.wmax, self.qmax = key, wmax, qmax

    def truncate(self, wmax, qmax):
        return self.key, wmax, qmax


def test_a_top_memo_keeps_its_bookkeeping_under_threads(monkeypatch):
    # one top kept, so every request past the lru cache evicts one: 6 threads
    # make 20,000 requests each over 40 keys at 15 orders, and none raises
    monkeypatch.setattr(series_module, "MEMO_TOPS", 1)
    memo = series_module._top_memo(_Top)
    wrong = []

    def calls(seed):
        rng = random.Random(seed)
        for _ in range(20_000):
            key, w = rng.randrange(40), rng.randrange(15)
            if memo(key, w, w) != (key, w, w):
                wrong.append((key, w))

    assert (run_in_threads(calls, 6), wrong) == ([], [])
    assert len(memo.tops) <= 1

"""The chi(t, y) generating series and numeric evaluation over bases."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgenus import (
    CATALOG,
    FAMILIES,
    BaseSpec,
    FibrationSpec,
    BundleSpec,
    MissingIntersectionError,
    RootForm,
    VerificationError,
    WSeries,
    charclasses,
    chi_q,
    chi_series,
    chi_values,
    closed_form_q,
    derived_q,
    euler_series_e8,
    fiber_integrand,
    fibrations,
    genseries,
    hirzebruch_class,
    integrate,
    mono_from_dict,
    pushforward_class,
)
from ellgenus import _packed
from ellgenus import series as series_module
from helpers import (
    count_calls,
    count_calls_everywhere,
    reference_coefficients_of,
    reference_integrate,
    reference_part,
    reference_p1_times_p1_table,
    reference_projective_space_table,
)


def test_e6_dimension_four_class():
    got = chi_series("E6", 4).coeff(4, 2)
    w, q = 4, 6
    L = WSeries.var("L", w, q)
    c1 = WSeries.var("c1", w, q)
    c2 = WSeries.var("c2", w, q)
    c3 = WSeries.var("c3", w, q)
    expected = (
        -(L * F(1, 12))
        * (1729 * L**3 - 524 * c1 * L**2 + (-17 * c1**2 + 193 * c2) * L
           + 5 * c1 * c2 - 66 * c3)
    )
    assert got == expected


def test_y_degree_vanishing_beyond_dim_y():
    # coefficient of (t^k, y^q) is zero for q > k + 1
    for fam in FAMILIES:
        chi = chi_series(fam, 4)
        for k in range(0, 5):
            for q in range(k + 2, chi.qmax + 1):
                assert chi.coeff(k, q).is_zero(), (fam, k, q)


def test_weight_zero_slice_vanishes():
    # over a point the fiber itself has chi_y = 0
    for fam in FAMILIES:
        assert chi_series(fam, 3).weight_component(0).is_zero()


def test_y_zero_slice_is_anticanonical_row_times_todd():
    for fam in FAMILIES:
        d = 3
        chi = chi_series(fam, d)
        qmax = chi.qmax
        one_minus_u = (1 - (-WSeries.var("L", d, qmax)).exp()).y_slice(0)
        td = hirzebruch_class(d, qmax).y_slice(0)
        expected = (one_minus_u * td).weight_component(d)
        assert chi.coeff(d, 0) == expected


def test_chi_series_custom_spec_matches_catalog():
    spec = FibrationSpec(
        name="weierstrass", bundle=BundleSpec((0, 2, 3)), n_roots=(RootForm(3, 6),)
    )
    assert chi_series(spec, 3) == chi_series("E8", 3)


# -- bases and integration ----------------------------------------------------


def test_projective_space_table():
    base = BaseSpec.projective_space(2, 3)
    assert base.table[mono_from_dict({"L": 2})] == 9
    assert base.table[mono_from_dict({"L": 1, "c1": 1})] == 9
    assert base.table[mono_from_dict({"c1": 2})] == 9
    assert base.table[mono_from_dict({"c2": 1})] == 3


@pytest.mark.parametrize("d", range(0, 7))
def test_projective_space_equals_the_fraction_power_table(d):
    for n in range(-2, 8):
        table = BaseSpec.projective_space(d, n).table
        assert table == reference_projective_space_table(d, n), (d, n)
        assert all(type(v) is F for v in table.values())


def test_projective_space_negative_control():
    # the P^3 table with c1 -> C(3, 1) in place of C(4, 1) is not P^3's
    wrong = {
        m: v * F(3, 4) ** dict(m).get("c1", 0)
        for m, v in reference_projective_space_table(3, 2).items()
    }
    assert BaseSpec.projective_space(3, 2).table != wrong


def test_base_spec_table_is_read_only():
    base = BaseSpec.projective_space(2, 3)
    with pytest.raises(TypeError):
        base.table[mono_from_dict({"L": 2})] = F(1)
    assert base == BaseSpec.projective_space(2, 3)


def test_integrate_zero_class():
    base = BaseSpec.projective_space(2, 1)
    assert integrate(WSeries.zero(2, 0), base) == 0
    assert type(integrate(WSeries.zero(2, 0), base)) is F


_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)


@st.composite
def _class_and_base(draw):
    d = draw(st.integers(0, 4))
    monos = sorted(reference_projective_space_table(d, 1))
    table = {m: draw(_fractions) for m in monos}
    terms = draw(st.dictionaries(st.sampled_from(monos), _fractions, max_size=12))
    return WSeries(d, 0, {(m, 0): c for m, c in terms.items()}), BaseSpec(d, table)


@given(_class_and_base())
def test_integrate_equals_the_fraction_sum(case):
    cls, base = case
    assert integrate(cls, base) == reference_integrate(cls, base.table)


# table values: zero, integers and fractions with a denominator > 1, both signs
_table_values = st.one_of(
    st.just(F(0)),
    st.integers(-10**6, 10**6).map(F),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(2, 97)),
)


@st.composite
def _class_and_fraction_table(draw):
    d = draw(st.integers(0, 4))
    monos = sorted(reference_projective_space_table(d, 1))
    table = {m: draw(_table_values) for m in monos}
    terms = draw(st.dictionaries(st.sampled_from(monos), _fractions, max_size=12))
    qmax = draw(st.integers(0, 3))  # the y field of the packed keys is unused
    return WSeries(d, qmax, {(m, 0): c for m, c in terms.items()}), BaseSpec(d, table)


@given(_class_and_fraction_table())
def test_the_int_pairing_equals_the_fraction_sum(case):
    cls, base = case
    want = reference_integrate(cls, base.table)
    assert all(q == 0 for _k, q in cls._by_slice())
    total, den = genseries._pairing(cls, base.dim, 0, base)
    assert type(total) is int and type(den) is int
    assert F(total, den) == want
    value = integrate(cls, base)
    assert value == want and type(value) is F


@pytest.mark.parametrize("d", range(0, 7))
def test_projective_space_equals_the_validated_base(d):
    # projective_space skips the checks of the constructor on the monomials it
    # generates; both the Fraction table and the int table are the same
    for n in range(-2, d + 4):
        fast = BaseSpec.projective_space(d, n)
        checked = BaseSpec(d, fast.table)
        assert fast == checked and fast.table == checked.table, (d, n)
        assert fast._ints == checked._ints == (dict(fast.table), 1), (d, n)


def test_projective_monomials_ask_only_for_exponents_that_fit(monkeypatch):
    # the work of building the P^d monomials, as the total length of the
    # ranges that the build asks for: the exponent of a variable of weight w
    # runs up to what is left of d, (d - mw) // w.  A bound of (d - mw) * w
    # builds the same monomials from 1, 7, 27, 96, 302, ... 10342 candidates
    import builtins

    asked = []

    def counting(*args):
        r = builtins.range(*args)
        asked.append(len(r))
        return r

    monkeypatch.setattr(genseries, "range", counting, raising=False)
    sums = []
    for d in range(9):
        genseries._projective_monomials.cache_clear()
        asked.clear()
        monos = genseries._projective_monomials(d)
        sums.append(sum(asked))
        want = reference_projective_space_table(d, 2)
        assert len(monos) == len(want) and {m: c * 2**e for m, c, e in monos} == want, d
    assert sums == [1, 7, 20, 47, 101, 201, 381, 687, 1195]


def test_integrate_fractional_example():
    # 1/2 * 1/5 + 1/3 * 3/4 = 7/20: both coefficients and values fractional
    L, c1 = WSeries.var("L", 2, 0), WSeries.var("c1", 2, 0)
    base = BaseSpec(
        2, {mono_from_dict({"L": 2}): F(1, 5), mono_from_dict({"L": 1, "c1": 1}): F(3, 4)}
    )
    assert integrate(L**2 * F(1, 2) + L * c1 * F(1, 3), base) == F(7, 20)


def test_integrate_error_classes_and_messages():
    base = BaseSpec(dim=2, table={mono_from_dict({"L": 2}): F(1, 2)})
    L = WSeries.var("L", 2, 1)
    c1 = WSeries.var("c1", 2, 1)
    cases = [
        (L**2 * WSeries.y(2, 1), ValueError, "cannot integrate a class with y-content"),
        (L, ValueError, "class is not weight-homogeneous of weight 2"),
        (L * c1, MissingIntersectionError,
         "no intersection number for monomial {'L': 1, 'c1': 1}"),
        (WSeries.const(1, 2, 1), ValueError,
         "class is not weight-homogeneous of weight 2"),
    ]
    for cls, error, message in cases:
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            integrate(cls, base)
    point = BaseSpec(dim=0, table={})
    with pytest.raises(MissingIntersectionError, match="for monomial 1$"):
        integrate(WSeries.const(1, 0, 0), point)


def test_integrate_euler_coefficient_p3():
    # 12L(c2 - 6Lc1 + 36L^2) over (P^3, L = O(4)): the fourfold Euler number
    base = BaseSpec.projective_space(3, 4)
    cls = euler_series_e8(3).weight_component(3).truncate(3, 0)
    assert integrate(cls, base) == 23328


def test_integrate_anticanonical_row_p2():
    base = BaseSpec.projective_space(2, 3)
    L = WSeries.var("L", 2, 0)
    td = hirzebruch_class(2, 0).y_slice(0)
    cls = ((1 - (-L).exp()) * td).weight_component(2)
    assert integrate(cls, base) == 0


def test_integrate_requires_homogeneous_y_free():
    base = BaseSpec.projective_space(2, 1)
    L = WSeries.var("L", 2, 1)
    with pytest.raises(ValueError):
        integrate(L, base)  # weight 1 != dim 2
    with pytest.raises(ValueError):
        integrate(L**2 * WSeries.y(2, 1), base)


def test_integrate_missing_entry_is_an_error():
    table = {mono_from_dict({"L": 2}): F(1)}
    base = BaseSpec(dim=2, table=table)
    L = WSeries.var("L", 2, 0)
    c1 = WSeries.var("c1", 2, 0)
    assert integrate(L**2, base) == 1
    with pytest.raises(MissingIntersectionError):
        integrate(c1 * L, base)


def test_base_spec_validation():
    with pytest.raises(ValueError):
        BaseSpec(dim=2, table=None)
    with pytest.raises(ValueError):
        BaseSpec(dim=2, table={mono_from_dict({"L": 1}): F(1)})


@pytest.mark.parametrize(
    "dim, key",
    [
        (2, (("c1", 1), ("L", 1))),  # out of order
        (2, (("L", 2), ("c1", 0))),  # a zero exponent
        (1, (("L", -1), ("c1", 2))),  # a negative exponent, summing to weight 1
    ],
)
def test_base_spec_refuses_a_non_canonical_monomial(dim, key):
    # integrate looks up canonical monomials only, so such a key would never
    # be read, and the later error would name the very monomial supplied
    table = dict(BaseSpec.projective_space(dim, 1).table)
    table[key] = 1
    with pytest.raises(ValueError, match="not canonical|negative exponent"):
        BaseSpec(dim, table)


@pytest.mark.parametrize("value", [0.1, 1.0])
def test_base_spec_refuses_float_values(value):
    # 0.1 would become 3602879701896397/36028797018963968, and 1.0 is no exact
    # input either
    table = {mono_from_dict({"L": 1}): value}
    with pytest.raises(TypeError):
        BaseSpec(dim=1, table=table)


@pytest.mark.parametrize("d, n", [(2, 0.1), (2, 3.0), (2.0, 3)])
def test_projective_space_refuses_float_arguments(d, n):
    # n = 0.1 would put L.c1 = 10808639105689191/36028797018963968 in the table
    with pytest.raises(TypeError):
        BaseSpec.projective_space(d, n)


def test_base_spec_refuses_a_float_dimension():
    with pytest.raises(TypeError):
        BaseSpec(1.5, {})
    # an integral float too: the dimension bounds ranges and keys memos
    with pytest.raises(TypeError):
        BaseSpec(2.0, BaseSpec.projective_space(2, 1).table)
    with pytest.raises(ValueError):
        BaseSpec(-1, {})


def test_base_spec_equality_compares_the_table():
    p2_o3 = BaseSpec.projective_space(2, 3)
    assert p2_o3 != BaseSpec.projective_space(2, 1)
    # int values are read as Fractions, so this table equals p2_o3's
    same = BaseSpec(dim=2, table={m: v.numerator for m, v in p2_o3.table.items()})
    assert p2_o3 == same and hash(p2_o3) == hash(same)
    assert len({p2_o3, same, BaseSpec.projective_space(2, 1)}) == 2


# -- chi_q ----------------------------------------------------------------------


def test_chi_q_e8_p2_anticanonical():
    base = BaseSpec.projective_space(2, 3)
    assert chi_q("E8", base, 0, verify=True) == 0
    values = [chi_q("E8", base, q, verify=True) for q in range(0, 4)]
    alternating = sum(v * F((-1) ** q) for q, v in enumerate(values))
    assert alternating == -540


def test_chi_q_out_of_range():
    base = BaseSpec.projective_space(1, 1)
    with pytest.raises(ValueError):
        chi_q("E8", base, 3)


def _fiber_dimension_two_spec():
    # two normal roots in a rank-5 bundle: Y has dimension d + 2 over P^d
    spec = FibrationSpec(
        name="fd2",
        bundle=BundleSpec((0, 0, 1, 2, 5)),
        n_roots=(RootForm(1, 1), RootForm(2, 5)),
    )
    assert spec.fiber_dim == 2
    return spec


def test_chi_q_reads_its_range_from_the_fiber_dimension():
    spec = _fiber_dimension_two_spec()
    base = BaseSpec.projective_space(1, 1)
    assert chi_values(spec, base) == [1, 0, 0, -1]  # was [1, 0, 0]
    assert chi_q(spec, base, 3, verify=True) == -1  # raised
    with pytest.raises(ValueError, match="dimension 3"):
        chi_q(spec, base, 4)
    assert chi_series(spec, 1).qmax == 4
    assert chi_series(spec, 1) is chi_series(spec, 1, 4)
    assert chi_series("E8", 2).qmax == 4  # catalog keys unchanged


@pytest.mark.parametrize("d, n", [(1, 2), (2, 1), (2, 3)])
def test_fiber_dimension_two_satisfies_serre_duality(d, n):
    base = BaseSpec.projective_space(d, n)
    values = chi_values(_fiber_dimension_two_spec(), base)
    dim_y = d + 2
    assert len(values) == dim_y + 1
    for q in range(dim_y + 1):
        assert values[q] == (-1) ** dim_y * values[dim_y - q]


def test_fiber_dimension_zero_gives_the_chi_y_of_the_base():
    # Y = P(O) = B = P^2: chi_q = (-1)^q, with no trailing chi_3 = 0
    spec = FibrationSpec(name="base", bundle=BundleSpec((0,)), n_roots=())
    assert chi_values(spec, BaseSpec.projective_space(2, 1)) == [1, -1, 1]
    with pytest.raises(ValueError):
        chi_q(spec, BaseSpec.projective_space(2, 1), 3)


def test_chi_q_verify_mode_catches_non_integers():
    # a custom spec needn't define a smooth variety; fractional output is
    # legal with verify off and an error with verify on
    spec = FibrationSpec(
        name="frac", bundle=BundleSpec((0, 1, 1)), n_roots=(RootForm(1, 1),)
    )
    base = BaseSpec.projective_space(1, 1)
    values = [chi_q(spec, base, q) for q in range(0, 3)]
    if any(v.denominator != 1 for v in values):
        with pytest.raises(VerificationError):
            for q in range(0, 3):
                chi_q(spec, base, q, verify=True)
    else:
        # spec happened to give integers; verify mode must then agree
        assert values == [chi_q(spec, base, q, verify=True) for q in range(0, 3)]


def test_chi_q_k3_row():
    # D5 over (P^1, O(2)) is a K3 surface: chi_0 = 2, chi_1 = -20, chi_2 = 2
    base = BaseSpec.projective_space(1, 2)
    values = [chi_q("D5", base, q, verify=True) for q in range(0, 3)]
    assert values == [2, -20, 2]


def test_chi_q_rational_elliptic_surface():
    # D5 over (P^1, O(1)): chi_0 = 1, chi_1 = -h^{1,1} = -10
    base = BaseSpec.projective_space(1, 1)
    assert [chi_q("D5", base, q) for q in range(0, 3)] == [1, -10, 1]


def test_spec_from_lists_is_hashable_and_equal():
    lists = FibrationSpec(
        name="weierstrass", bundle=BundleSpec([0, 2, 3]), n_roots=[RootForm(3, 6)]
    )
    tuples = FibrationSpec(
        name="weierstrass", bundle=BundleSpec((0, 2, 3)), n_roots=(RootForm(3, 6),)
    )
    assert lists == tuples and hash(lists) == hash(tuples)
    assert isinstance(lists.n_roots, tuple) and isinstance(lists.bundle.exps, tuple)
    base = BaseSpec.projective_space(2, 3)
    assert chi_values(lists, base) == chi_values(tuples, base) == [0, 270, -270, 0]


# -- the shared chi_series ------------------------------------------------------


def _class_route_values(fam, base):
    d = base.dim
    pushed = pushforward_class(fam, d, d + 2)
    return [integrate(pushed.coeff(d, q), base) for q in range(0, d + 2)]


@pytest.mark.parametrize("fam", FAMILIES)
def test_cold_and_warm_chi_q_equal_the_class_route(fam):
    for d in range(1, 5):
        for n in (1, d + 1):
            base = BaseSpec.projective_space(d, n)
            want = _class_route_values(fam, base)
            genseries._chi_series.cache_clear()
            genseries._hirzebruch_exp.cache_clear()
            cold = chi_values(fam, base)
            hits = genseries._chi_series.cache_info().hits
            warm = chi_values(fam, base)
            # one pass: one read of the memo for all d + 2 values
            assert genseries._chi_series.cache_info().hits == hits + 1
            assert cold == warm == want, (fam, d, n)


def test_mutating_a_returned_series_leaves_later_results_unchanged():
    base = BaseSpec.projective_space(2, 3)
    first = chi_series("E8", 2)
    want = dict(first.terms)
    key = next(iter(first.terms))
    with pytest.raises(TypeError):
        first.terms[key] += 1
    with pytest.raises(TypeError):
        first.terms[(mono_from_dict({"L": 1}), 0)] = F(1)
    with pytest.raises(AttributeError):
        first.terms.clear()
    assert chi_values("E8", base) == [0, 270, -270, 0]
    assert chi_series("E8", 2) is chi_series("E8", 2, 4) is first
    assert first.terms == want


@pytest.mark.parametrize("name", ["terms", "wmax", "qmax"])
def test_rebinding_or_deleting_a_memo_attribute_raises(name):
    # a rebound wmax made every later chi_values raise, and a rebound terms
    # emptied every later .terms while == still held
    base = BaseSpec.projective_space(2, 3)
    shared = chi_series("E8", 2, 4)
    want = (shared.wmax, shared.qmax, dict(shared.terms))
    with pytest.raises(AttributeError):
        setattr(shared, name, {} if name == "terms" else 0)
    with pytest.raises(AttributeError):
        delattr(shared, name)
    assert chi_values("E8", base) == [0, 270, -270, 0]
    later = chi_series("E8", 2, 4)
    assert (later.wmax, later.qmax, dict(later.terms)) == want


def test_chi_q_refuses_a_float_order_on_a_cold_and_a_warm_memo():
    base = BaseSpec.projective_space(2, 1)
    with pytest.raises(TypeError):
        chi_q("E8", base, 1.0)
    assert genseries._chi_series.cache_info().currsize == 0
    assert chi_q("E8", base, 1) == 19
    for q in (1.0, 0.0, F(1)):
        with pytest.raises(TypeError):
            chi_q("E8", base, q)
    with pytest.raises(ValueError):
        chi_q("E8", base, 4)


def test_float_orders_are_refused_on_a_warm_memo():
    want = chi_series("E8", 2)
    for args in (("E8", 2.0), ("E8", 2, 4.0), ("E8", 2.0, 4)):
        with pytest.raises(TypeError):
            chi_series(*args)
    for args in (("E8", -1), ("E8", 2, -1)):
        with pytest.raises(ValueError):
            chi_series(*args)
    assert chi_series("E8", 2, 4) == want


def test_name_catalog_spec_and_twist_are_separate_entries():
    # the twist by 1 shifts the bundle exponents by 1 and the normal root
    # by its H-coefficient; the genus factor stays that of E8
    twisted = FibrationSpec(
        name="E8~1", bundle=BundleSpec((1, 3, 4)), n_roots=(RootForm(3, 9),)
    )
    base = BaseSpec.projective_space(3, 2)
    values = [chi_values(f, base) for f in ("E8", CATALOG["E8"], twisted)]
    assert values[0] == values[1] == values[2]
    info = genseries._chi_series.cache_info()
    assert (info.misses, info.currsize) == (3, 3)


def test_default_and_explicit_qmax_share_one_entry():
    chi_series("E6", 3)
    info = genseries._chi_series.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    chi_series("E6", 3, 5)
    info = genseries._chi_series.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_memo_stays_within_its_bound():
    bound = series_module.MEMO_SIZE
    keys = [
        (fam, tmax, qmax)
        for fam in FAMILIES
        for tmax in range(0, 3)
        for qmax in range(tmax, tmax + 6)
    ]
    assert len(keys) > bound
    first = chi_series(*keys[0])
    for key in keys:
        chi_series(*key)
        assert genseries._chi_series.cache_info().currsize <= bound
    assert genseries._chi_series.cache_info().currsize == bound
    assert chi_series(*keys[0]) == first  # evicted, rebuilt, unchanged


def test_the_highest_order_memo_stays_within_its_bound():
    # one entry per family or spec: many specs evict the oldest, and a
    # family's entry is the join of the orders asked of it
    bound = series_module.MEMO_TOPS
    specs = [
        FibrationSpec(name="w%d" % a, bundle=BundleSpec((a, a + 2, a + 3)),
                      n_roots=(RootForm(3, 6 + 3 * a),))
        for a in range(bound + 4)
    ]
    first = chi_series(specs[0], 2)
    for spec in specs:
        chi_series(spec, 2)
        assert len(genseries._chi_series.tops) <= bound
    assert list(genseries._chi_series.tops) == specs[-bound:]
    assert chi_series(specs[0], 2) is first  # still in the per-key memo
    chi_series("E6", 2, 7)
    chi_series("E6", 4)
    top = genseries._chi_series.tops["E6"]
    assert (top.wmax, top.qmax) == (4, 7) and len(genseries._chi_series.tops) == bound


def test_the_exp_memo_stays_within_its_bound(monkeypatch):
    # E8 asked at rising orders builds exp(sum b_k p_k) once per join of its
    # chi(t, y), 26 times, and keeps one top; E7 at the same keys truncates
    # that top and builds none.  Each result equals one whose exp is built anew
    builds = count_calls(monkeypatch, genseries, "_chi_y_exp")
    keys = [(t, q) for t in range(8) for q in range(t, t + 12)]
    memoized = {}
    for fam in ("E8", "E7"):
        memoized[fam] = [chi_series(fam, t, q) for t, q in keys]
        assert genseries._hirzebruch_exp.cache_info().currsize <= series_module.MEMO_SIZE
        assert len(builds) == 26 and builds[-1] == (7, 18)
        assert list(genseries._hirzebruch_exp.tops) == [None]
    genseries._chi_series.cache_clear()
    monkeypatch.setattr(
        genseries, "_hirzebruch_exp", lambda _key, t, q: charclasses._chi_y_exp(t, q)
    )
    for fam, want in memoized.items():
        assert [chi_series(fam, t, q) for t, q in keys] == want, fam


def test_a_failed_build_leaves_the_top(monkeypatch):
    # a request past the top whose build raises keeps the old top and caches
    # nothing; a lower request then truncates that top
    chi_series("E7", 3, 5)

    def broken(family, tmax, qmax):
        raise ArithmeticError("no build at (%d, %d)" % (tmax, qmax))

    monkeypatch.setattr(fibrations, "closed_form_q", broken)
    old = genseries._chi_series.tops["E7"]
    with pytest.raises(ArithmeticError, match=r"\(4, 6\)"):
        chi_series("E7", 4, 6)
    assert genseries._chi_series.tops["E7"] is old
    assert genseries._chi_series.cache_info().currsize == 1
    low = chi_series("E7", 2, 4)  # covered: no build
    assert low == _one_build_per_key("E7", 2, 4)
    monkeypatch.undo()
    assert chi_series("E7", 4, 6) == _one_build_per_key("E7", 4, 6)
    assert genseries._chi_series.tops["E7"].wmax == 4
    genseries._chi_series.cache_clear()  # one call empties both levels
    assert genseries._chi_series.tops == {}
    assert genseries._chi_series.cache_info().currsize == 0


def _random_factor(rng):
    kind = rng.choice([charclasses.todd_factor, charclasses._normal_factor])
    root = RootForm(rng.randrange(-3, 4), rng.randrange(-3, 4))
    return kind, (root, rng.randrange(6), rng.randrange(4))


def _random_chi(rng):
    fam = rng.choice(FAMILIES + ("twisted",))
    if fam == "twisted":
        a = rng.randrange(20)
        fam = FibrationSpec(name="w%d" % a, bundle=BundleSpec((a, a + 2, a + 3)),
                            n_roots=(RootForm(3, 6 + 3 * a),))
    t = rng.randrange(3)
    return chi_series, (fam, t, t + rng.randrange(4))


def _random_exp(rng):
    return genseries._hirzebruch_exp, (None, rng.randrange(6), rng.randrange(13))


def _random_integrand(rng):
    exps = [rng.randrange(-2, 4) for _ in range(rng.randrange(1, 5))]
    n_roots = [RootForm(rng.randrange(1, 4), rng.randrange(-3, 5))
               for _ in range(rng.randrange(len(exps)))]
    spec = FibrationSpec(name="random", bundle=BundleSpec(exps), n_roots=n_roots)
    return fiber_integrand, (spec, rng.randrange(len(n_roots), 7), rng.randrange(5))


@pytest.mark.parametrize(
    "memo, draw",
    [(charclasses._local_factor, _random_factor),
     (genseries._chi_series, _random_chi),
     (genseries._hirzebruch_exp, _random_exp),
     (fibrations._slope_group, _random_integrand)],
    ids=["local-factor", "chi", "exp", "slope-group"],
)
def test_each_series_memo_stays_within_both_bounds(memo, draw):
    # 300 seeded random requests: the memo never holds more than MEMO_SIZE
    # requests or MEMO_TOPS tops, and a sample of its results equals a
    # build from a cold memo
    rng, got = random.Random(29), []
    for _ in range(300):
        fn, args = draw(rng)
        got.append((fn, args, fn(*args)))
        assert memo.cache_info().currsize <= series_module.MEMO_SIZE
        assert len(memo.tops) <= series_module.MEMO_TOPS
    assert memo.cache_info().currsize == series_module.MEMO_SIZE
    for fn, args, value in got[::30]:
        memo.cache_clear()
        assert fn(*args) == value, args


def test_a_cold_chi_series_and_its_slices_unpack_nothing(monkeypatch):
    # every intermediate of the build stays packed: the reweight, the Hadamard
    # product, exp, log and the inverse; chi_q, the slices and the split by a
    # variable of the memoized series read its packed form, and none of them
    # builds a Fraction view
    unpacks = count_calls(monkeypatch, series_module, "_unpack")
    charclasses._chi_y_exp(4, 6)
    assert unpacks == []
    series = chi_series("E7", 4)
    assert chi_q("E7", BaseSpec.projective_space(4, 5), 2) == -170225
    parts = [series.coeff(4, 2), series.y_slice(1), series.weight_component(3)]
    by_l = series.coefficients_of("L")
    assert unpacks == [] and series._terms is None
    assert chi_series("E7", 4) is series
    # the parts equal the term scans of the series, made once all is read
    want = [reference_part(series, 4, 2), reference_part(series, q=1)]
    assert parts == want + [reference_part(series, 3)]
    assert by_l == reference_coefficients_of(series, "L")


def test_chi_q_reads_the_memoized_series_packed(monkeypatch):
    unpacks = count_calls(monkeypatch, series_module, "_unpack")
    base = BaseSpec.projective_space(4, 5)
    cold = chi_values("E7", base)
    warm = chi_values("E7", base)
    assert cold == warm == [0, 15475, -170225, 170225, -15475, 0]  # class route too
    assert unpacks == [] and chi_series("E7", 4)._terms is None


def _chi_q_by_the_class(family_or_spec, base):
    """chi_0..chi_top as the weight-d, y^q class of chi_series, integrated."""
    d = base.dim
    top = len(chi_values(family_or_spec, base)) - 1
    series = chi_series(family_or_spec, d, top + 1)
    return [integrate(series.coeff(d, q), base) for q in range(top + 1)]


@pytest.mark.parametrize("fam", FAMILIES)
def test_chi_q_equals_integrate_of_the_class(fam):
    for d in range(0, 7):
        bases = [BaseSpec.projective_space(d, n) for n in range(-1, d + 4)]
        packed = [chi_values(fam, base) for base in bases]  # before any coeff
        for base, values in zip(bases, packed):
            assert values == _chi_q_by_the_class(fam, base), (fam, d, base.table)


@pytest.mark.parametrize("d", range(0, 5))
def test_chi_q_of_custom_specs_equals_integrate_of_the_class(d):
    point_fiber = FibrationSpec(name="base", bundle=BundleSpec((0,)), n_roots=())
    for spec in (point_fiber, _fiber_dimension_two_spec()):
        for n in range(-1, d + 4):
            base = BaseSpec.projective_space(d, n)
            values = chi_values(spec, base)
            assert values == _chi_q_by_the_class(spec, base), (spec.name, d, n)


def test_chi_q_over_a_fraction_table_equals_integrate_of_the_class():
    # not the table of a variety: every value a different fraction
    for fam in FAMILIES:
        for d in range(1, 5):
            monos = sorted(BaseSpec.projective_space(d, 1).table)
            table = {m: F(3 * i - 7, 2 * i + 3) for i, m in enumerate(monos)}
            base = BaseSpec(d, table)
            values = chi_values(fam, base)
            assert any(v.denominator != 1 for v in values)
            assert values == _chi_q_by_the_class(fam, base), (fam, d)


# an N-root 2H + 2L on a bundle with a double exponent: over a base its
# chi_0 row reads no monomial with a factor L, which later rows read
_LIVE_POLE = FibrationSpec(name="live pole", bundle=BundleSpec((0, 1, 1)),
                           n_roots=(RootForm(2, 2),))


@pytest.mark.parametrize(
    "target", list(FAMILIES) + ["point fiber", "fiber dim 2", "live pole"])
def test_the_one_pass_chi_values_equal_chi_q_at_every_q(target):
    # chi_values reads chi_series and its split once for every q: each value
    # is the Fraction that chi_q gives, over P^d with L of both signs and
    # over a table of fraction values
    target = {"point fiber": FibrationSpec(name="base", bundle=BundleSpec((0,)), n_roots=()),
              "fiber dim 2": _fiber_dimension_two_spec(),
              "live pole": _LIVE_POLE}.get(target, target)
    for d in range(0, 6):
        monos = sorted(BaseSpec.projective_space(d, 1).table)
        bases = [BaseSpec.projective_space(d, n) for n in (-2, -1, 1, d + 1)]
        bases.append(BaseSpec(d, {m: F(3 * i - 7, 2 * i + 3) for i, m in enumerate(monos)}))
        for base in bases:
            values = chi_values(target, base)
            assert values == [chi_q(target, base, q) for q in range(len(values))], (d, base)
            assert all(type(v) is F for v in values)


def test_a_monomial_only_a_later_q_reads_fails_the_one_pass():
    # P^1 with no L: chi_0 of the live-pole spec reads only c1, chi_1 reads L
    base = BaseSpec(1, {(("c1", 1),): 2})
    assert chi_q(_LIVE_POLE, base, 0) == 1
    with pytest.raises(MissingIntersectionError, match=re.escape("{'L': 1}")):
        chi_q(_LIVE_POLE, base, 1)
    with pytest.raises(MissingIntersectionError, match=re.escape("{'L': 1}")):
        chi_values(_LIVE_POLE, base)


# chi_0..chi_(d+1) over (P^d, O(d+1)).  (P^1, O(2)) gives the K3 row for
# every family.  Over (P^3, O(4)) only E8's chi = 23328 is a literature value
# (Sethi-Vafa-Witten); D5, E6 and E7 are engine values, checked by two routes.
PINNED_CHI = {
    (1, 2): {fam: [2, -20, 2] for fam in FAMILIES},
    (2, 3): {
        "D5": [0, 72, -72, 0],
        "E6": [0, 108, -108, 0],
        "E7": [0, 162, -162, 0],
        "E8": [0, 270, -270, 0],
    },
    (3, 4): {
        "D5": [2, -424, 1740, -424, 2],
        "E6": [2, -808, 3276, -808, 2],
        "E7": [2, -1576, 6348, -1576, 2],
        "E8": [2, -3880, 15564, -3880, 2],
    },
}
PINNED_EULER = {
    (1, 2): {fam: 24 for fam in FAMILIES},
    (2, 3): {"D5": -144, "E6": -216, "E7": -324, "E8": -540},
    (3, 4): {"D5": 2592, "E6": 4896, "E7": 9504, "E8": 23328},
}


@pytest.mark.parametrize("where", sorted(PINNED_CHI))
@pytest.mark.parametrize("fam", FAMILIES)
def test_pinned_chi_values(fam, where):
    base = BaseSpec.projective_space(*where)
    want = PINNED_CHI[where][fam]
    assert chi_values(fam, base) == want
    assert [chi_q(fam, base, q, verify=True) for q in range(len(want))] == want
    assert sum((-1) ** q * v for q, v in enumerate(want)) == PINNED_EULER[where][fam]


# E8 over P^1 x P^1 at L = c1 = O(2, 2) is the Weierstrass Calabi-Yau
# threefold over F_0, with h^{1,1} = 3 and h^{2,1} = 243 (Morrison-Vafa,
# hep-th/9602114; Candelas-Font, hep-th/9603170): chi_1 = 243 - 3 and the Euler
# number is -480.  D5, E6 and E7 are engine values, checked by two routes.
P1_TIMES_P1_EULER = {"D5": -128, "E6": -192, "E7": -288, "E8": -480}


def test_chi_over_p1_times_p1_matches_the_literature():
    table = reference_p1_times_p1_table(2, 2)
    mono = {name: mono_from_dict(exps) for name, exps in (
        ("L^2", {"L": 2}), ("L c1", {"L": 1, "c1": 1}), ("c1^2", {"c1": 2}), ("c2", {"c2": 1}))}
    assert table == {mono["L^2"]: 8, mono["L c1"]: 8, mono["c1^2"]: 8, mono["c2"]: 4}
    base = BaseSpec(2, table)
    assert chi_values("E8", base) == [0, 240, -240, 0]
    for fam in FAMILIES:
        values = chi_values(fam, base)
        assert [chi_q(fam, base, q, verify=True) for q in range(4)] == values
        assert sum((-1) ** q * v for q, v in enumerate(values)) == P1_TIMES_P1_EULER[fam]
    # negative controls: one more in int L^2 or in int L c1 moves chi_1 off
    # 240 (one more in int c1^2 or int c2 leaves E8 at 240, so neither serves)
    for name, chi_1 in (("L^2", F(551, 2)), ("L c1", F(469, 2))):
        off = {**table, mono[name]: table[mono[name]] + 1}
        assert chi_q("E8", BaseSpec(2, off), 1) == chi_1, name


def test_verify_route_does_not_read_the_memo(monkeypatch):
    # perturb the memoized series in one (weight 2, y^1) class: the plain
    # value moves by int L^2 = 9 over (P^2, O(3)); verify mode must refuse it
    real = genseries._chi_series

    def perturbed(family_or_spec, tmax, qmax):
        bump = WSeries(tmax, qmax, {(mono_from_dict({"L": 2}), 1): F(1)})
        return real(family_or_spec, tmax, qmax) + bump

    monkeypatch.setattr(genseries, "_chi_series", perturbed)
    base = BaseSpec.projective_space(2, 3)
    assert chi_q("E8", base, 1) == 270 + 9
    with pytest.raises(VerificationError):
        chi_q("E8", base, 1, verify=True)
    assert chi_q("E8", base, 2, verify=True) == -270


def test_verify_route_does_not_read_the_shared_factor(monkeypatch):
    # put a corrupted copy of the shared exp(sum b_k p_k) where chi_series
    # reads it, one more in its (c1, y^0) term: the plain values move, the
    # class route does not
    base = BaseSpec.projective_space(2, 3)
    want = chi_values("E8", base)
    genseries._chi_series.cache_clear()
    shared = genseries._hirzebruch_exp

    def corrupted(key, tmax, qmax):
        bump = WSeries(tmax, qmax, {(mono_from_dict({"c1": 1}), 0): F(1)})
        return shared(key, tmax, qmax) + bump

    monkeypatch.setattr(genseries, "_hirzebruch_exp", corrupted)
    assert chi_q("E8", base, 1) != want[1]
    with pytest.raises(VerificationError, match="route mismatch for q=1"):
        chi_q("E8", base, 1, verify=True)


# -- the Euler series -----------------------------------------------------------


def test_euler_series_coefficients():
    e = euler_series_e8(3)
    w, q = 3, 0
    L = WSeries.var("L", w, q)
    c1 = WSeries.var("c1", w, q)
    c2 = WSeries.var("c2", w, q)
    assert e.weight_component(1) == 12 * L
    assert e.weight_component(2) == 12 * L * (c1 - 6 * L)
    assert e.weight_component(3) == 12 * L * (c2 - 6 * L * c1 + 36 * L**2)


def test_euler_series_requires_positive_order():
    with pytest.raises(ValueError):
        euler_series_e8(0)


# -- one build per family at the highest order asked ------------------------------

_TWISTED_WEIERSTRASS = FibrationSpec(
    name="weierstrass~1", bundle=BundleSpec((1, 3, 4)), n_roots=(RootForm(3, 9),)
)


def _one_build_per_key(family_or_spec, tmax, qmax):
    """chi(t, y) built at its own key, with no memo: the Q series of the
    family reweighted, times the chi_y factor built at the same orders."""
    if isinstance(family_or_spec, str):
        Qt = closed_form_q(family_or_spec, tmax, qmax)
    else:
        Qt = derived_q(family_or_spec, tmax, qmax)
    return Qt.reweight_by_one_plus_y() * charclasses._chi_y_exp(tmax, qmax)


_REQUEST_ORDERS = {
    "ascending": list(range(9)),
    "descending": list(range(8, -1, -1)),
    "shuffled": random.Random(24).sample(range(9), 9),
}


@pytest.mark.parametrize("order", sorted(_REQUEST_ORDERS))
@pytest.mark.parametrize(
    "family_or_spec", [*FAMILIES, _TWISTED_WEIERSTRASS], ids=[*FAMILIES, "custom"]
)
def test_chi_series_does_not_depend_on_the_request_order(family_or_spec, order):
    # every key is a truncation of the family's highest-order build, rebuilt
    # at the join when a request is past it; each equals the build at its key
    got = {t: chi_series(family_or_spec, t) for t in _REQUEST_ORDERS[order]}
    for t, series in got.items():
        q = series.qmax
        assert series == _one_build_per_key(family_or_spec, t, q), (t, q)
        assert chi_series(family_or_spec, t) is series
    for d in range(1, 7):
        classes = [got[d].coeff(d, q) for q in range(d + 2)]  # checked above
        for n in range(-1, d + 4):
            base = BaseSpec.projective_space(d, n)
            want = [integrate(cls, base) for cls in classes]
            assert chi_values(family_or_spec, base) == want, (d, n)


@pytest.mark.parametrize(
    "family_or_spec", ["E7", _TWISTED_WEIERSTRASS], ids=["E7", "custom"]
)
def test_a_larger_qmax_then_a_higher_tmax_builds_at_the_join(family_or_spec):
    wide = chi_series(family_or_spec, 3, 9)
    top = genseries._chi_series.tops[family_or_spec]
    assert (top.wmax, top.qmax) == (3, 9)
    high = chi_series(family_or_spec, 6)  # default qmax 8: the join is (6, 9)
    top = genseries._chi_series.tops[family_or_spec]
    assert (top.wmax, top.qmax) == (6, 9)
    low = chi_series(family_or_spec, 2, 4)  # covered: no new build
    assert genseries._chi_series.tops[family_or_spec] is top
    for series in (wide, high, low):
        want = _one_build_per_key(family_or_spec, series.wmax, series.qmax)
        assert series == want, (series.wmax, series.qmax)


@pytest.mark.parametrize("family", FAMILIES)
def test_chi_series_below_its_top_filters_the_keys_of_the_top(monkeypatch, family):
    # every order below 16 packs at one key width, so once the top is at
    # (6, 8) each (d, d + 2) below it keeps a subset of the top's keys:
    # no key is decoded or packed again
    chi_series(family, 6)
    top = genseries._chi_series.tops[family]
    assert (top.wmax, top.qmax) == (6, 8)
    packs = count_calls(monkeypatch, series_module, "_pack")
    decodes = count_calls_everywhere(monkeypatch, _packed, "_key_mono")
    lows = [chi_series(family, d, d + 2) for d in range(1, 6)]
    assert packs == [] and decodes == []
    for low in lows:
        assert set(low._packed[0]) <= set(top._packed[0])
        assert low == _one_build_per_key(family, low.wmax, low.qmax), low.wmax

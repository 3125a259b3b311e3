"""Catalog data, the fiber integrand, derived and closed genus factors,
and the polynomial table."""

import copy
import pickle
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgenus import (
    CATALOG,
    FAMILIES,
    BaseSpec,
    BundleSpec,
    FibrationSpec,
    Poly,
    RootForm,
    WSeries,
    chi_q,
    chi_series,
    closed_form_q,
    closed_form_text,
    derived_q,
    fiber_integrand,
    hirzebruch_class,
    mono_weight,
    p_polynomial,
    p_polynomials,
    p_table_reference,
    pushforward,
    pushforward_class,
)
from ellgenus import _packed
from ellgenus import fibrations as fibrations_module
from ellgenus import series as series_module
from ellgenus._packed import _width
from ellgenus.charclasses import _normal_factor
from ellgenus.series import _Product
from helpers import (
    PAPER_CLOSED_TEXT,
    count_calls,
    count_calls_everywhere,
    is_read,
    normal_factor_in_y,
    pair_loop_sheared_product,
    reference_closed_form_q,
    reference_fiber_integrand,
    reference_lambda_y_factor,
    reference_mul,
    reference_normal_factor,
    reference_pushforward_class,
    reference_term_pushforward,
    reference_todd_factor,
    reference_z_to_y,
    root_series,
    run_in_threads,
)


def test_catalog_root_data():
    expected = {
        "D5": ((0, 1, 1, 1), ((2, 2), (2, 2))),
        "E6": ((0, 1, 1), ((3, 3),)),
        "E7": ((0, 1, 2, 2), ((2, 2), (2, 4))),
        "E8": ((0, 2, 3), ((3, 6),)),
    }
    for fam, (exps, nroots) in expected.items():
        spec = CATALOG[fam]
        assert spec.bundle.exps == exps
        assert tuple((r.a, r.b) for r in spec.n_roots) == nroots
        assert tuple((r.a, r.b) for r in spec.f_roots) == tuple(
            (1, m) for m in exps
        )
        assert spec.fiber_dim == 1


def test_spec_rejects_nonpositive_normal_roots():
    with pytest.raises(ValueError):
        FibrationSpec(
            name="bad", bundle=BundleSpec((0, 1, 1)), n_roots=(RootForm(0, 3),)
        )


def test_spec_rejects_negative_fiber_dim():
    with pytest.raises(ValueError):
        FibrationSpec(
            name="bad",
            bundle=BundleSpec((0, 1)),
            n_roots=(RootForm(1, 1), RootForm(2, 2)),
        )


# -- the integrand -------------------------------------------------------------


def test_d5_integrand_matches_displayed_formula():
    # character-by-character rebuild of the D5 integrand:
    # (1+y e^-H)(1+y e^-H-L)^3 / ((1+y e^-2H-2L)^2 (1+y))
    #   * H (H+L)^3 (1-e^-2H-2L)^2 / ((1-e^-H)(1-e^-H-L)^3)
    # where the H(H+L)^3/(...) part is assembled as Todd factors.
    wmax, qmax = 5, 4
    y = WSeries.y(wmax, qmax)
    H = WSeries.var("H", wmax, qmax)
    L = WSeries.var("L", wmax, qmax)
    eH = (-H).exp()
    eHL = (-H - L).exp()
    e2 = (-2 * H - 2 * L).exp()
    numerator = (1 + y * eH) * (1 + y * eHL) ** 3 * (1 - e2) ** 2
    denominator = (1 + y * e2) ** 2 * (1 + y)
    todd_part = reference_todd_factor(RootForm(1, 0), wmax, qmax) * (
        reference_todd_factor(RootForm(1, 1), wmax, qmax) ** 3
    )
    longhand = numerator * denominator.inverse() * todd_part
    assert fiber_integrand(CATALOG["D5"], wmax, qmax) == longhand


def test_integrand_weight_zero_vanishes():
    D = fiber_integrand(CATALOG["D5"], 4, 3)
    for q in range(0, 4):
        assert D.coeff(0, q).is_zero()


def test_integrand_y_zero_slice_is_todd_type():
    wmax = 4
    spec = CATALOG["E8"]
    D = fiber_integrand(spec, wmax, 2)
    expected = WSeries.const(1, wmax, 0)
    for r in spec.f_roots:
        expected = expected * reference_todd_factor(r, wmax, 0)
    for r in spec.n_roots:
        expected = expected * (1 - (-root_series(r, wmax, 0)).exp())
    assert D.y_slice(0).truncate(wmax, 0) == expected


def test_identity_fibration_pushes_to_one():
    # rank-1 bundle, no normal roots: Y = P(E) = B, so Q = 1
    spec = FibrationSpec(name="identity", bundle=BundleSpec((0,)), n_roots=())
    wmax, qmax = 4, 3
    D = fiber_integrand(spec, wmax, qmax)
    y = WSeries.y(wmax, qmax)
    H = WSeries.var("H", wmax, qmax)
    longhand = (
        (1 + y * (-H).exp())
        * reference_todd_factor(RootForm(1, 0), wmax, qmax)
        * (1 + y).inverse()
    )
    assert D == longhand
    assert pushforward(D, spec.bundle) == WSeries.const(1, wmax, qmax)


def _twisted(family, a, rng):
    """The catalog family in P(E (x) L^a), roots in a shuffled order."""
    cat = CATALOG[family]
    exps = [m + a for m in cat.bundle.exps]
    n_roots = [RootForm(r.a, r.b + r.a * a) for r in cat.n_roots]
    rng.shuffle(exps)
    rng.shuffle(n_roots)
    return FibrationSpec(
        name="%s~%d" % (family, a), bundle=BundleSpec(tuple(exps)), n_roots=n_roots
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_integrand_equals_per_root_product_in_every_twist(family):
    rng = random.Random(family)
    for a in range(-2, 4):
        spec = _twisted(family, a, rng)
        assert fiber_integrand(spec, 6, 5) == reference_fiber_integrand(spec, 6, 5)


_CUSTOM_SPECS = [
    ((0, 1, 2), ((2, 3),)),  # slope 3/2, shared with no F-root
    ((0, 1, 3), ()),  # no normal roots: Y = P(E), fiber dimension 2
    ((0, 1, 1, 2), ((1, 1),)),  # fiber dimension 2, N shares F's slope 1
    ((-1, 2, 2), ((2, 4), (1, -1))),  # a negative slope; N roots on both F slopes
    ((0, 1, 2), ((2, 1),)),  # four slope groups: 0, 1/2, 1, 2
    # slopes 1/3, 1, 3/2, 2: four nonzero shears, two by non-integers
    ((1, 2, 2, 2), ((3, 1), (2, 3))),
]


@pytest.mark.parametrize("exps, n_roots", _CUSTOM_SPECS)
def test_integrand_equals_per_root_product_on_custom_specs(exps, n_roots):
    spec = FibrationSpec(
        name="custom",
        bundle=BundleSpec(exps),
        n_roots=tuple(RootForm(a, b) for a, b in n_roots),
    )
    for wmax, qmax in ((len(n_roots), 0), (5, 4), (7, 6)):
        got = fiber_integrand(spec, wmax, qmax)
        assert got == reference_fiber_integrand(spec, wmax, qmax)


# -- the deferred integrand: its product is built on first read ------------------


def test_an_unread_integrand_is_its_groups_sheared_product():
    # the groups' product in z = y/(1+y) by the pair-loop chain, mapped to
    # y by the Fraction term loop, times the prefactor (1+y)^fiber_dim
    spec = _twisted("E7", 2, random.Random("deferred"))
    D = fiber_integrand(spec, 8, 6)
    assert type(D) is _Product
    groups = D._groups
    assert D._fiber_dim == spec.fiber_dim
    prefactor = WSeries.from_y_poly([1, 1], 8, 6) ** spec.fiber_dim
    packed = pair_loop_sheared_product({s: G._packed for s, G in groups.items()}, 8, 6)
    product = WSeries._trusted(8, 6, packed)
    want = reference_mul(reference_z_to_y(product), prefactor)
    assert not is_read(D)
    assert D == want  # the first read
    assert is_read(D) and type(D) is _Product and D._groups is groups


def test_a_read_multiplies_its_sheared_groups_and_scales_nothing(monkeypatch):
    # each shear puts its r^top under the denominator in the reduction of its
    # map, so a read of E7's three slope groups makes their two products and
    # no product by a scalar
    D = fiber_integrand(CATALOG["E7"], 9, 7)
    assert len(D._groups) == 3
    calls = count_calls(monkeypatch, WSeries, "__mul__")
    D.terms
    assert len(calls) == 2 and all(type(b) is WSeries for _a, b in calls)


_READS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda D: pickle.loads(pickle.dumps(D)),
    "repr": repr,
    "truncate": lambda D: D.truncate(5, 3),  # at one width: it filters the keys
    "square": lambda D: D * D,
    "terms": lambda D: dict(D.terms),
}


@pytest.mark.parametrize("read", _READS.values(), ids=_READS)
@pytest.mark.parametrize("family", FAMILIES)
def test_the_integrand_reads_the_same_before_and_after_its_first_read(family, read):
    spec = _twisted(family, 1, random.Random("reads:" + family))
    before = fiber_integrand(spec, 9, 5)
    assert type(before) is _Product and not is_read(before)
    got = read(before)
    after = fiber_integrand(spec, 9, 5)
    after.terms
    # the read keeps the integrand a product that holds its groups
    assert type(after) is _Product and is_read(after)
    assert after._groups == before._groups
    assert read(after) == got


def _specs_and_orders():
    """(spec, integrand weight, qmax): the 72 twisted catalog specs at the
    benchmark orders, the custom specs, the catalog at w 4..6 with qmax 7,
    and at w 14 with qmax 3, where the output fields narrow from 5 bits to 4."""
    rng = random.Random("deferred pushforward")
    for family in FAMILIES:
        for a in range(-2, 4):
            spec = _twisted(family, a, rng)
            for w in (7, 8, 9):
                yield spec, w + spec.bundle.rank - 1, w + 1
        for w, qmax in ((4, 7), (5, 7), (6, 7), (14, 3)):
            yield CATALOG[family], w + CATALOG[family].bundle.rank - 1, qmax
    for exps, n_roots in _CUSTOM_SPECS:
        spec = FibrationSpec(
            name="custom",
            bundle=BundleSpec(exps),
            n_roots=tuple(RootForm(a, b) for a, b in n_roots),
        )
        for wmax, qmax in ((max(len(n_roots), len(exps) - 1), 0), (5, 4), (7, 6)):
            yield spec, wmax, qmax


def test_pushforward_of_an_unread_integrand_equals_that_of_the_read_one():
    # the integrand is pushed forward by residues on its slope groups, read
    # or not; its read terms, as one group at slope 0
    for spec, wmax, qmax in _specs_and_orders():
        D = fiber_integrand(spec, wmax, qmax)
        deferred = pushforward(D, spec.bundle)
        assert not is_read(D)  # the map read nothing
        read = WSeries._trusted(D.wmax, D.qmax, D._packed)
        assert pushforward(read, spec.bundle) == deferred
        assert pushforward(D, spec.bundle) == deferred


def _derive_cases():
    """(spec, w, q, Q by the read integrand): the 72 twisted catalog specs at
    the benchmark orders and the custom specs.  Reading the integrand builds
    its whole product, of its sheared groups, which the term loop of the
    Segre numbers then pushes forward, with no residues."""
    rng = random.Random("last link")
    cases = [(_twisted(f, a, rng), w, w + 1) for f in FAMILIES for a in range(-2, 4)
             for w in (7, 8, 9)]
    for exps, n_roots in _CUSTOM_SPECS:
        roots = tuple(RootForm(a, b) for a, b in n_roots)
        spec = FibrationSpec(name="custom", bundle=BundleSpec(exps), n_roots=roots)
        cases += [(spec, w, q) for w, q in ((0, 0), (3, 4), (6, 6))]
    for spec, w, q in cases:
        D = fiber_integrand(spec, w + spec.bundle.rank - 1, q)
        yield spec, w, q, reference_term_pushforward(D, spec.bundle)


def _l_degrees(acc, width):
    """The L-degree of each key of a folded series, keys without their y
    field."""
    return [key >> width & (1 << width) - 1 for key in acc]


def test_the_residues_skip_only_keys_whose_residues_sum_to_zero(monkeypatch):
    # a pole's read skips the keys of L-degree below r - 1, whose residues
    # sum to 0 over the poles.  Skipping L-degree r - 1 as well drops Q's
    # weight-0 part, the chi_y genus of the fiber: every custom spec, whose
    # fiber is rational, changes; no twisted catalog spec does, its fiber
    # being an elliptic curve, whose chi_y is 0
    cases = list(_derive_cases())
    real, skipped = _packed._read_pole, []

    def counting(acc, jet, low, width, out):  # the skipped keys that hold a term
        degrees = zip(_l_degrees(acc, width), acc.values())
        skipped.append(sum(d < low for d, f in degrees if f))
        real(acc, jet, low, width, out)

    monkeypatch.setattr(_packed, "_read_pole", counting)
    for spec, w, q, want in cases:
        assert derived_q(spec, w, q) == want
    assert sum(skipped) > 0

    def one_more(acc, jet, low, width, out):
        kept = [d > low for d in _l_degrees(acc, width)]
        real({k: f for (k, f), x in zip(acc.items(), kept) if x}, jet, low, width, out)

    monkeypatch.setattr(_packed, "_read_pole", one_more)
    for i, (spec, w, q, want) in enumerate(cases):
        assert (derived_q(spec, w, q) != want) is (i >= 72)
        assert want.coeff(0, 0).is_zero() is (i < 72)


# -- dead poles: a group at its pole's slope with lowest H-degree >= mu ------------


@st.composite
def _specs_with_a_dead_pole(draw):
    """A spec whose bundle has an exponent m of multiplicity mu in 1..3 and
    k >= mu normal roots at slope m, so the group at slope m has lowest
    H-degree k and the pole m is dead, and its orders."""
    m, mu = draw(st.integers(-2, 3)), draw(st.integers(1, 3))
    others = draw(st.lists(st.integers(-2, 3).filter(lambda e: e != m),
                           min_size=1, max_size=2))
    rank = mu + len(others)
    k = draw(st.integers(mu, rank - 1))
    at_m = [(a, a * m) for a in draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))]
    more = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 6)),
                         max_size=rank - 1 - k))
    spec = FibrationSpec(
        name="dead",
        bundle=BundleSpec(draw(st.permutations([m] * mu + others))),
        n_roots=tuple(RootForm(a, b) for a, b in draw(st.permutations(at_m + more))),
    )
    return spec, draw(st.integers(0, 4)), draw(st.integers(0, 3))


def _unread_and_read(spec, w, q):
    """(Q by residues of the unread integrand, the term-loop Segre map of
    the read one)."""
    wmax = w + spec.bundle.rank - 1
    got = pushforward(fiber_integrand(spec, wmax, q), spec.bundle)
    return got, reference_term_pushforward(fiber_integrand(spec, wmax, q), spec.bundle)


@given(_specs_with_a_dead_pole())
def test_a_dead_pole_is_skipped_and_q_is_unchanged(case):
    # the group at slope m maps H^a to eps^a with a >= mu, so the pole's
    # residue is 0: it is read no more, and Q equals the Segre map of the
    # read integrand
    spec, w, q = case
    reads = []
    real = _packed._read_pole
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_packed, "_read_pole", lambda *a: reads.append(1) or real(*a))
        got, want = _unread_and_read(spec, w, q)
    assert got == want
    assert len(reads) < len(set(spec.bundle.exps))


def test_the_catalog_skips_e7s_pole_1_and_e8s_pole_2(monkeypatch):
    # N(aH) = O(H) at the slope of a simple exponent: E7's (2, 2) at 1 and
    # E8's (3, 6) at 2; D5's and E6's normal roots sit at a double exponent
    reads = count_calls(monkeypatch, _packed, "_read_pole")
    for family in FAMILIES:
        reads.clear()
        derived_q(family, 6, 7)
        exps = CATALOG[family].bundle.exps
        pole_of = {jet: m for m, jet in _packed._poles(tuple(sorted(exps)))[0]}
        read = [pole_of[jet] for _acc, jet, *_ in reads]
        assert read == sorted(set(exps) - {"E7": {1}, "E8": {2}}.get(family, set()))


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_skipping_a_pole_one_h_degree_too_early_changes_q(monkeypatch, mu):
    # negative control: the group at slope 1 has lowest H-degree mu - 1 (its
    # mu - 1 normal roots at slope 1), so its eps^(mu-1) reaches the
    # residue; reading that degree as one higher skips a live pole
    spec = FibrationSpec(
        name="live",
        bundle=BundleSpec((0,) + (1,) * mu),
        n_roots=(RootForm(2, 2),) * (mu - 1),
    )
    got, want = _unread_and_read(spec, 4, 3)
    assert got == want
    real = series_module._facts

    def one_higher(series):
        top, low, *rest = real(series)
        return (top, low + 1, *rest)

    monkeypatch.setattr(series_module, "_facts", one_higher)
    got, want = _unread_and_read(spec, 4, 3)
    assert got != want


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("w", [6, 9])
def test_a_cold_derived_q_never_unfolds_the_integrand(monkeypatch, family, w):
    # the unfolds are the local factors and group products, in the ring with
    # H alone, and Q, mapped from z to y with the prefactor, whose folded
    # monomials are L^0..L^w: none holds H and L
    unfolds = count_calls(monkeypatch, _packed, "_unfold")
    Q = derived_q(family, w, w + 1)
    width = _width(w + CATALOG[family].bundle.rank - 1, w + 1)
    mask = (1 << width) - 1
    fields = [
        {(rest >> width & mask, rest >> 2 * width & mask) for rest in folded}
        for folded, *_ in unfolds
    ]
    assert all(not (ell and h) for f in fields for ell, h in f)
    with_l = [f for f in fields if any(ell for ell, _h in f)]
    assert with_l and all(len(f) <= w + 1 for f in with_l)
    assert {ell for ell, _h in with_l[-1]} >= {dict(m).get("L", 0) for m, _q in Q.terms}


def test_the_z_to_y_rows_are_built_once_per_qmax_and_fiber_dim():
    # a second request at the same orders reuses the z -> y rows
    _packed._z_rows.cache_clear()
    first = derived_q("E7", 6, 7)
    assert derived_q("E7", 6, 7) == first
    info = _packed._z_rows.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_integrand_rejects_tiny_wmax():
    with pytest.raises(ValueError):
        fiber_integrand(CATALOG["D5"], 1, 2)


# -- derived vs closed ------------------------------------------------------------


def test_derived_equals_closed_smoke():
    for fam in FAMILIES:
        assert derived_q(fam, 3, 3) == closed_form_q(fam, 3, 3)


@pytest.mark.parametrize("family", FAMILIES)
def test_derived_equals_closed_in_every_twist_at_benchmark_orders(family):
    # twists -2..3 need up to three slope groups, each placed by the shear
    rng = random.Random("derive:" + family)
    for a in range(-2, 4):
        spec = _twisted(family, a, rng)
        for w in (7, 8, 9):
            assert derived_q(spec, w, w + 1) == closed_form_q(family, w, w + 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_derived_equals_closed_on_the_catalog_up_to_12(family):
    for wmax in (0, 1, 3, 6, 10, 12):
        for qmax in (0, 1, 3, 7, 11, 12):
            assert derived_q(family, wmax, qmax) == closed_form_q(family, wmax, qmax)


def test_derived_q_unpacks_nothing(monkeypatch):
    # the integrand, its pushforward and the truncation to the output weight
    # all run on the packed form: no Fraction view is built
    unpacks = count_calls_everywhere(monkeypatch, _packed, "_unpack")
    rng = random.Random("unpack")
    for family in FAMILIES:
        for w in (0, 3, 7):
            derived_q(family, w, w + 1)
        for a in range(-2, 4):
            derived_q(_twisted(family, a, rng), 7, 8)
    assert unpacks == []


# -- a twist read as no twist: P(E) = P(E (x) L^(-c)) ---------------------------


def _route_as_given(spec, w, q):
    """Q from the integrand of ``spec`` itself, pushed down its own bundle, with
    the twist left in: the route of ``derived_q``, which the residues read
    less the least exponent."""
    D = fiber_integrand(spec, w + spec.bundle.rank - 1, q)
    return pushforward(D, spec.bundle)


@pytest.mark.parametrize("family", FAMILIES)
def test_derived_q_equals_the_route_as_given_in_every_twist(family):
    rng = random.Random("twist:" + family)
    for a in range(-2, 4):
        spec = _twisted(family, a, rng)
        for w in (7, 8, 9):
            assert derived_q(spec, w, w + 1) == _route_as_given(spec, w, w + 1)
        if a:  # the control: roots shifted by +a*c with the bundle shifted by -c
            wrong = FibrationSpec(
                name="wrong",
                bundle=BundleSpec(tuple(m - a for m in spec.bundle.exps)),
                n_roots=tuple(RootForm(r.a, r.b + r.a * a) for r in spec.n_roots),
            )
            assert _route_as_given(wrong, 7, 8) != derived_q(spec, 7, 8)


@st.composite
def _specs_with_a_negative_exponent(draw):
    exps = [draw(st.integers(-3, -1))]
    exps += draw(st.lists(st.integers(-3, 4), max_size=3))
    n_roots = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(-4, 6)), max_size=len(exps) - 1
        )
    )
    spec = FibrationSpec(
        name="negative",
        bundle=BundleSpec(draw(st.permutations(exps))),
        n_roots=tuple(RootForm(a, b) for a, b in n_roots),
    )
    return spec, draw(st.integers(0, 6)), draw(st.integers(0, 5))


@given(_specs_with_a_negative_exponent())
def test_derived_q_equals_the_route_as_given_on_custom_specs(case):
    spec, w, q = case
    assert derived_q(spec, w, q) == _route_as_given(spec, w, q)


def _untwisted(spec):
    """``spec`` in P(E (x) L^(-c)), c its least exponent: exponents m - c >= 0
    and normal roots a*H + (b - a*c)*L."""
    c = min(spec.bundle.exps)
    return FibrationSpec(
        name=spec.name,
        bundle=BundleSpec(tuple(m - c for m in spec.bundle.exps)),
        n_roots=tuple(RootForm(r.a, r.b - r.a * c) for r in spec.n_roots),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_a_twist_reads_the_untwisted_poles_and_rows(family):
    # the residues see only s - m and m_i - m: after the untwisted spec, each
    # twist of it gives its Q and misses neither the _poles nor the
    # _pole_rows cache
    rng = random.Random("rows:" + family)
    want = derived_q(_untwisted(CATALOG[family]), 8, 9)
    poles, rows = _packed._poles.cache_info().misses, _packed._pole_rows.cache_info().misses
    for a in range(-2, 4):
        spec = _twisted(family, a, rng)
        assert derived_q(spec, 8, 9) == want == derived_q(_untwisted(spec), 8, 9)
    assert _packed._poles.cache_info().misses == poles
    assert _packed._pole_rows.cache_info().misses == rows


def _fractions_made(monkeypatch, call):
    """The arguments of every ``Fraction`` that ``call()`` constructs."""
    made, real = [], F.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(F, "__new__", spy)
        call()
    return made


@pytest.mark.parametrize("family", FAMILIES)
def test_a_warm_derived_q_constructs_no_fraction(monkeypatch, family):
    # every catalog and twisted catalog slope is an int (b // a), so a warm
    # derived_q keys its groups, plans its poles and reads Q on ints alone
    twisted = _twisted(family, 3, random.Random("fractions:" + family))
    for spec in (CATALOG[family], twisted):
        want = derived_q(spec, 6, 7)
        assert _fractions_made(monkeypatch, lambda: derived_q(spec, 6, 7)) == []
        assert derived_q(spec, 6, 7) == want == closed_form_q(family, 6, 7)
        groups = fiber_integrand(spec, 9, 7)._groups
        assert all(type(s) is int for s in groups), sorted(groups)


def test_a_half_slope_makes_its_fraction_negative_control(monkeypatch):
    # the N-root 2H + L has slope 1/2: the one slope kept as a Fraction,
    # equal to and hashed as an int slope would be were it whole
    spec = FibrationSpec("half slope", BundleSpec((0, 1, 2)), (RootForm(2, 1),))
    derived_q(spec, 6, 7)
    assert (1, 2) in _fractions_made(monkeypatch, lambda: derived_q(spec, 6, 7))
    groups = fiber_integrand(spec, 8, 7)._groups
    assert sorted(groups) == [0, F(1, 2), 1, 2]
    assert [type(s) for s in sorted(groups)] == [int, F, int, int]


# the slope-group keys of each family: (F-roots, sorted N-root H-coefficients);
# E8's groups at slopes 0 and 3 share the key (1, ())
_GROUP_KEYS = {
    "D5": {(1, ()), (3, (2, 2))},
    "E6": {(1, ()), (2, (3,))},
    "E7": {(1, ()), (1, (2,)), (2, (2,))},
    "E8": {(1, ()), (1, (3,))},
}


@pytest.mark.parametrize(
    "family, products", [("D5", 4), ("E6", 2), ("E7", 3), ("E8", 1)]
)
def test_integrand_multiplies_only_within_slope_groups(monkeypatch, family, products):
    # every local factor has a closed form, so a cold derived_q's products
    # are those of each distinct group key, built once as one folded chain
    # (one product per further factor of the group) and with no WSeries
    # product; (1+y)^fiber_dim rides on the map of Q to y, so a warm
    # fiber_integrand or derived_q makes none
    memo = fibrations_module._slope_group
    muls = count_calls(monkeypatch, WSeries, "__mul__")
    chains = count_calls(monkeypatch, fibrations_module, "_packed_mul")
    cold = derived_q(family, 6, 8)
    assert sum(len(factors) - 1 for factors, _w, _q in chains) == products
    assert len(chains) == len(_GROUP_KEYS[family])
    assert muls == []
    assert set(memo.tops) == _GROUP_KEYS[family]
    assert memo.cache_info().misses == len(_GROUP_KEYS[family])
    chains.clear()
    fiber_integrand(CATALOG[family], 6 + CATALOG[family].bundle.rank - 1, 8)
    assert derived_q(family, 6, 8) == cold
    assert chains == [] and muls == []
    assert memo.cache_info().misses == len(_GROUP_KEYS[family])


# -- the integrand in z = y/(1+y) ------------------------------------------------

_roots = st.builds(RootForm, st.integers(-3, 3), st.integers(-4, 4))
_orders = st.tuples(st.integers(0, 8), st.integers(0, 8))
_group_keys = st.tuples(
    st.integers(0, 3), st.lists(st.integers(1, 4), max_size=3).map(sorted).map(tuple)
).filter(lambda key: key[0] or key[1])


def _z_degrees_within_weights(series):
    """Whether every term's z-degree (its y slot) is at most its weight."""
    return all(q <= mono_weight(m) for m, q in series.terms)


@given(_group_keys, _roots, _orders)
def test_every_group_and_normal_factor_term_has_z_degree_at_most_its_weight(
    key, root, orders
):
    # the bound that keeps the folded chain's ints short: at weight k a
    # folded monomial fills at most the slots z^0..z^k
    assert _z_degrees_within_weights(fibrations_module._slope_group(key, *orders))
    assert _z_degrees_within_weights(_normal_factor(root, *orders))


@given(_roots, _orders)
def test_the_z_forms_map_back_to_the_y_references(root, orders):
    # N_y = (1+y)^-1 N_z(y/(1+y)) and f_y = (1+y) f_z(y/(1+y)) for the
    # F-root factor f = (1 + y e^-H) td(H), by the Fraction term loop
    w, q = orders
    assert normal_factor_in_y(root, w, q) == reference_normal_factor(root, w, q)
    h = RootForm(1, 0)
    f_z = fibrations_module._slope_group((1, ()), w, q)
    f_y = reference_lambda_y_factor(h, -1, w, q) * reference_todd_factor(h, w, q)
    assert reference_mul(reference_z_to_y(f_z), WSeries.from_y_poly([1, 1], w, q)) == f_y


def test_a_y_form_normal_factor_breaks_the_z_degree_bound():
    # the control: (1 - e^-2H)/(1 + y e^-2H) has y^q at weight 1 for every q
    group = fibrations_module._slope_group((1, ()), 6, 5)
    assert _z_degrees_within_weights(group * _normal_factor(RootForm(2, 0), 6, 5))
    assert not _z_degrees_within_weights(
        group * reference_normal_factor(RootForm(2, 0), 6, 5)
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_two_shuffled_twists_share_every_slope_group(family):
    # the groups depend on the roots' H-parts, not on the twist or the order
    # of the roots, so a second twist of a family builds no group
    rng = random.Random("share:" + family)
    memo = fibrations_module._slope_group
    first, second = _twisted(family, -2, rng), _twisted(family, 3, rng)
    assert derived_q(first, 8, 9) == closed_form_q(family, 8, 9)
    entries = dict(memo.tops)
    misses = memo.cache_info().misses
    assert derived_q(second, 8, 9) == closed_form_q(family, 8, 9)
    assert memo.cache_info().misses == misses
    assert set(entries) == _GROUP_KEYS[family]
    assert all(memo.tops[key] is top for key, top in entries.items())


def test_twisted_e7_looks_up_todd_once_per_summand(monkeypatch):
    # the traced E7 derive request, which reads its integrand as the
    # benchmark's tracer does, makes one todd_factor call per bundle summand
    # and at least one series product, with no memo shared across calls
    spec = _twisted("E7", 2, random.Random("E7"))
    want = closed_form_q("E7", 3, 4)
    integrand = fibrations_module.fiber_integrand

    def read(*args):
        D = integrand(*args)
        D.terms
        return D

    monkeypatch.setattr(fibrations_module, "fiber_integrand", read)
    todds = count_calls(monkeypatch, fibrations_module, "todd_factor")
    products = count_calls(monkeypatch, WSeries, "__mul__")
    for _ in range(2):  # the second request repeats the first one's calls
        todds.clear()
        products.clear()
        assert derived_q(spec, 3, 4) == want
        assert len(todds) == 4 and products


@pytest.mark.parametrize("w", [7, 8, 9])
def test_derived_q_decodes_no_key_at_the_benchmark_orders(monkeypatch, w):
    # the pushforward's cut from (w + r - 1, w + 1) to (w, w + 1) keeps 4-bit
    # fields, so its truncation keeps the keys
    rng = random.Random("decode")
    specs = [_twisted(family, 2, rng) for family in FAMILIES]
    decodes = count_calls_everywhere(monkeypatch, _packed, "_key_mono")
    for spec in specs:
        derived_q(spec, w, w + 1)
    assert decodes == []


def test_derived_q_accepts_family_name_or_spec():
    assert derived_q("E6", 2, 2) == derived_q(CATALOG["E6"], 2, 2)


def test_closed_form_y_zero_slice_is_one_minus_u():
    wmax, qmax = 4, 3
    one_minus_u = (1 - (-WSeries.var("L", wmax, qmax)).exp()).y_slice(0)
    for fam in FAMILIES:
        assert closed_form_q(fam, wmax, qmax).y_slice(0) == one_minus_u


def test_closed_form_vanishes_at_u_equal_one():
    # U = 1 is the L -> 0 slice: the weight-0 part must vanish in every
    # y-degree (chi_y of the fiber itself is 0)
    for fam in FAMILIES:
        Q = closed_form_q(fam, 3, 5)
        for q in range(0, 6):
            assert Q.coeff(0, q).is_zero()


@pytest.mark.parametrize("fam", FAMILIES)
def test_closed_form_q_equals_the_series_expansion(fam):
    # the int route from the P_n rows against series exp, powers and inverse
    for wmax in (0, 1, 3, 6, 10, 12):
        for qmax in (0, 1, 3, 7, 11, 12):
            assert closed_form_q(fam, wmax, qmax) == reference_closed_form_q(
                fam, wmax, qmax
            )


@pytest.mark.parametrize("fam", FAMILIES)
def test_closed_form_q_equals_the_fraction_expansion_of_the_p_rows(fam):
    # the y^n L^j coefficient is sum_k P_n[k] (-k)^j / j!, in Fractions
    full = {
        (j, n): sum(c * F((-k) ** j, factorial(j)) for k, c in enumerate(p.coeffs))
        for n, p in enumerate(p_polynomials(fam, 12))
        for j in range(13)
    }
    for wmax in range(13):
        for qmax in range(13):
            terms = {
                ((("L", j),) if j else (), n): c
                for (j, n), c in full.items()
                if j <= wmax and n <= qmax
            }
            assert closed_form_q(fam, wmax, qmax) == WSeries(wmax, qmax, terms)


_NEGATIVE_SPEC = FibrationSpec(
    name="custom", bundle=BundleSpec((-1, 2, 0)), n_roots=(RootForm(2, 1),)
)


@pytest.mark.parametrize(
    "spec", [*FAMILIES, _NEGATIVE_SPEC], ids=[*FAMILIES, "custom"]
)
@pytest.mark.parametrize(
    "orders", [(-1, 3), (3, -1), (-2, -1), (-1, 0)], ids="w{0[0]}-q{0[1]}".format
)
def test_derived_q_reads_negative_orders_as_closed_form_q_does(spec, orders):
    # the orders are read before the twist is divided out and the bundle
    # rank added, so no deficit or integrand-weight error stands in for them
    with pytest.raises(ValueError) as want:
        closed_form_q("E8", *orders)
    with pytest.raises(ValueError) as got:
        derived_q(spec, *orders)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_closed_form_q_errors():
    with pytest.raises(KeyError, match="unknown family 'A1'"):
        closed_form_q("A1", 3, 3)
    with pytest.raises(KeyError, match="unknown family 'A1'"):
        closed_form_q("A1", -1, 3)
    for wmax, qmax in ((-1, 3), (3, -1), (-1, -1)):
        with pytest.raises(ValueError, match="^truncation orders must be >= 0$"):
            closed_form_q("E8", wmax, qmax)


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_q_builds_once_at_the_top_and_truncates_below(monkeypatch, family):
    # one expansion at (8, 7); every lower request is a truncation of it,
    # equal to its own cold build
    builds = count_calls(monkeypatch, fibrations_module, "_exp_sum")
    closed_form_q(family, 8, 7)
    lower = [(w, 7) for w in range(4, 9)] + [(6, 5)]
    warm = [closed_form_q(family, w, q) for w, q in lower]
    assert len(builds) == 1
    for (w, q), got in zip(lower, warm):
        fibrations_module._closed_form.cache_clear()
        assert got == closed_form_q(family, w, q) and (got.wmax, got.qmax) == (w, q)
    assert len(builds) == 1 + len(lower)


def _warm_float_orders_refused(front):
    """Whether ``front`` refuses a float order once the int key is warm: the
    memo's ``lru_cache`` holds 6.0 and 6 as one key."""
    front("E8", 6, 7)
    for orders in ((6.0, 7), (6, 7.0)):
        try:
            front("E8", *orders)
        except TypeError:
            continue
        return False
    return True


def test_closed_form_q_checks_its_arguments_before_the_memo():
    assert _warm_float_orders_refused(closed_form_q)
    with pytest.raises(KeyError, match="unknown family 'E9'"):
        closed_form_q("E9", 6, 7)
    # negative control: a front that reads the memo before it checks the
    # orders answers a warm float key
    assert not _warm_float_orders_refused(fibrations_module._closed_form)


def test_closed_form_text_mentions_all_families():
    for fam in FAMILIES:
        assert closed_form_text(fam) == PAPER_CLOSED_TEXT[fam]


def test_derived_y_zero_slice_anticanonical_row():
    # catalog normal data satisfies the anticanonical condition, so the
    # pushforward route reproduces P_0 = 1 - U on its own
    wmax, qmax = 3, 2
    one_minus_u = (1 - (-WSeries.var("L", wmax, qmax)).exp()).y_slice(0)
    for fam in FAMILIES:
        assert derived_q(fam, wmax, qmax).y_slice(0) == one_minus_u


# -- the polynomial table -----------------------------------------------------------


def test_p_table_small_entries():
    U = Poly.x()
    assert p_polynomial("E7", 1) == U**5 + U**4 + U**3 - U - 2
    assert p_polynomial("D5", 3) == -U * (4 * U - 1) * (U - 1) * (U + 1) ** 2 * (
        -(U**2)
    )
    assert p_polynomial("E8", 0) == 1 - U


def test_p_table_matches_reference_forms():
    for fam in FAMILIES:
        for n in range(0, 7):
            assert p_polynomial(fam, n) == p_table_reference(fam, n)


def test_e8_high_rows_follow_geometric_pattern():
    U = Poly.x()
    for n in range(2, 6):
        expected = -(U**5) * (U**6 - 1) * (U**2 + 1) * (-(U**6)) ** (n - 2)
        assert p_polynomial("E8", n) == expected


def test_root_locations():
    # table rows vanish at U = 0 and U = 1 exactly; D5 carries the extra
    # rational root (n-2)/(n+1), verified by exact polynomial division
    U = Poly.x()
    for fam in FAMILIES:
        for n in range(2, 7):
            p = p_polynomial(fam, n)
            _, rem0 = p.divmod(U)
            assert rem0.is_zero()
            _, rem1 = p.divmod(U - 1)
            assert rem1.is_zero()
    for n in range(2, 7):
        p = p_polynomial("D5", n)
        divisor = (n + 1) * U - (n - 2)
        _, rem = p.divmod(divisor)
        assert rem.is_zero()
        assert p.evaluate(F(n - 2, n + 1)) == 0


@pytest.mark.parametrize("fam", FAMILIES)
def test_p_polynomials_rows_do_not_depend_on_nmax(fam):
    full = p_polynomials(fam, 12)
    assert len(full) == 13
    for n in range(0, 13):
        assert full[: n + 1] == p_polynomials(fam, n)


@pytest.mark.parametrize("fam", FAMILIES)
def test_p_polynomials_match_reference_forms_to_n_20(fam):
    # D5's (1 + y U^2)^-2 binomials grow past the n <= 6 rows checked above
    assert p_polynomials(fam, 20) == [p_table_reference(fam, n) for n in range(21)]


def test_p_table_reference_refuses_float_orders():
    # 0.0 and 1.0 would reach the tabulated rows, 2.0 the power of U^s
    for fam in FAMILIES:
        for n in (0.0, 1.0, 2.0):
            with pytest.raises(TypeError):
                p_table_reference(fam, n)
        assert p_table_reference(fam, 2) == p_polynomial(fam, 2)
        with pytest.raises(TypeError):
            p_table_reference(fam, 2.0)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        p_table_reference("E8", -1)


def test_p_polynomials_rejects_negative_nmax():
    for fam in FAMILIES:
        with pytest.raises(ValueError, match="^nmax must be >= 0$"):
            p_polynomials(fam, -1)
    with pytest.raises(KeyError, match="unknown family 'A1'"):
        p_polynomials("A1", 3)


def test_p_polynomial_names_its_own_order():
    for fam in FAMILIES:
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            p_polynomial(fam, -1)
        with pytest.raises(TypeError):
            p_polynomial(fam, 1.0)
    with pytest.raises(KeyError, match="unknown family 'A1'"):
        p_polynomial("A1", -1)


def test_u_degree_structure():
    widths = {"D5": 2, "E6": 3, "E7": 4, "E8": 6}
    for fam in FAMILIES:
        for n in range(0, 7):
            assert p_polynomial(fam, n).degree() == widths[fam] * n + 1


# -- pushed-forward classes -----------------------------------------------------------


def test_pushforward_class_q0_is_one_minus_u_times_todd():
    d, qmax = 3, 5
    got = pushforward_class("E6", d, qmax).y_slice(0)
    one_minus_u = (1 - (-WSeries.var("L", d, qmax)).exp()).y_slice(0)
    td = hirzebruch_class(d, qmax).y_slice(0)
    assert got == one_minus_u * td


def test_pushforward_class_e8_anticanonical_integral_vanishes():
    # weight-2 part of (1 - U) td(B) over (P^2, L = 3h) integrates to 0
    from ellgenus import BaseSpec, integrate

    cls = pushforward_class("E8", 2).coeff(2, 0)
    base = BaseSpec.projective_space(2, 3)
    assert integrate(cls, base) == 0


def test_pushforward_class_default_qmax_is_d_plus_two():
    assert pushforward_class("D5", 3) == pushforward_class("D5", 3, 5)
    assert pushforward_class("D5", 3).qmax == 5


@pytest.mark.parametrize("target", FAMILIES + ("E6~2",))
def test_pushforward_class_slices_equal_the_per_q_convolution(target):
    # every y^q slice of the one product against sum_i P_(q-i) H_i(B)
    if target == "E6~2":
        target = _twisted("E6", 2, random.Random(target))
    for d in range(0, 6):
        for qmax in (d + 2, d + 4):
            pushed = pushforward_class(target, d, qmax)
            for q in range(0, qmax + 1):
                want = reference_pushforward_class(target, q, d, qmax)
                assert pushed.y_slice(q) == want, (d, qmax, q)


# -- calls that share slope groups: each reads only its own folds -------------------


_SHARED_ROOTS = ((RootForm(1, 1),), (RootForm(1, 1), RootForm(2, 3)))
# two specs per N-root tuple, at bundles whose pole jets differ, so that calls
# which share a memoized group fold it at different slots
_SHARING_SPECS = [
    FibrationSpec("shares", BundleSpec(exps), _SHARED_ROOTS[i // 2])
    for i, exps in enumerate([(0, 1, 2), (0, 1, 5), (0, 3, 7, 11), (0, -4, 9, 1)])
]


def test_a_nested_derived_q_leaves_the_outer_call_its_folds(monkeypatch):
    # warm A, then call it again with its first row map running B, which
    # shares A's groups and folds them at another slot: A's Q stays its cold
    # value
    a, b = _SHARING_SPECS[2:]
    cold = derived_q(a, 8, 9)
    real, maps, nested = _packed._map_rows, [], []

    def map_rows(*args):
        maps.append(args)
        if len(maps) == 1:
            nested.append(derived_q(b, 8, 9))
        return real(*args)

    monkeypatch.setattr(_packed, "_map_rows", map_rows)
    assert derived_q(a, 8, 9) == cold
    assert len(nested) == 1


def test_threaded_derived_q_calls_each_get_their_cold_value():
    # 4 threads make 150 calls each over specs that share groups
    from conftest import _bench_pairs

    requests = [(spec, w, w + 1) for spec in _SHARING_SPECS for w in (8, 10)]
    cold = []
    for request in requests:
        _bench_pairs.clear_caches()
        cold.append(derived_q(*request))
    wrong = []

    def calls(seed):
        rng = random.Random(seed)
        for _ in range(150):
            i = rng.randrange(len(requests))
            if derived_q(*requests[i]) != cold[i]:
                wrong.append(i)

    assert (run_in_threads(calls, 4), wrong) == ([], [])


def _mixed_requests(rng):
    """A shuffled request sequence of ``derived_q``, ``closed_form_q``,
    ``chi_series``, ``chi_q`` and ``hirzebruch_class``, as (function, args).
    Its 20 custom specs draw their N-roots from a small pool, so that they
    share slope groups, and each is asked for its chi series: 20 keys are
    more than a memo keeps tops of, so the memos evict."""
    specs = []
    for i in range(20):
        exps = tuple(rng.randrange(-2, 4) for _ in range(rng.randrange(2, 5)))
        roots = [RootForm(rng.randrange(1, 4), rng.randrange(-2, 6))
                 for _ in range(rng.randrange(len(exps)))]
        specs.append(FibrationSpec("mixed %d" % i, BundleSpec(exps), roots))
    targets = specs + list(FAMILIES)
    requests = [(chi_series, (spec, rng.randrange(4))) for spec in specs]
    for _ in range(20):
        target, d = rng.choice(targets), rng.randrange(1, 4)
        w = rng.randrange(2, 9)
        top = d + (1 if isinstance(target, str) else target.fiber_dim)
        requests += [
            (derived_q, (rng.choice(specs), w, rng.randrange(w + 2))),
            (closed_form_q, (rng.choice(FAMILIES), w, rng.randrange(w + 2))),
            (chi_q, (target, BaseSpec.projective_space(d, rng.randrange(1, 5)),
                     rng.randrange(top + 1))),
            (hirzebruch_class, (rng.randrange(5), rng.randrange(7))),
        ]
    rng.shuffle(requests)
    return requests


@given(st.integers(min_value=0))
def test_warm_answers_equal_the_cold_ones(seed):
    # every answer of a mixed sequence, run on the memos the requests before
    # it left, equals the same request run on empty caches
    from conftest import _bench_pairs

    requests = _mixed_requests(random.Random(seed))
    assert len({args[0] for f, args in requests if f is chi_series}) > series_module.MEMO_TOPS
    warm = [f(*args) for f, args in requests]
    for (f, args), answer in zip(requests, warm):
        _bench_pairs.clear_caches()
        assert f(*args) == answer, (f.__name__, args)

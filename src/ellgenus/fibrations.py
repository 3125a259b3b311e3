"""The fibration catalog (D5/E6/E7/E8) and the genus-factor machinery.

Each family lives in a projective bundle P(E) over the base, cut out as a
(complete-intersection) subvariety whose relative data is fully captured
by two root lists: the Chern roots of F = pi^* E (x) O(1) and of the
normal bundle N.  The pushed-forward chi_y class of the fibration Y then
factors as Q * H_y(B), where Q is the pushforward of the fiberwise
integrand

    D = prod_{l in F-roots} (1 + y e^{-l}) l/(1 - e^{-l})
      * prod_{m in N-roots} (1 - e^{-m}) / (1 + y e^{-m})
      * (1 + y)^{-1}.

With z = y/(1+y), 1 + y e^{-t} = (1+y)(1 - z(1 - e^{-t})), so

    D = (1+y)^{fiber_dim} * prod_{l in F-roots} (td(l) - z l)
      * prod_{m in N-roots} sum_n z^n (1 - e^{-m})^{n+1},

and each z comes with a factor of weight >= 1: a weight-k term has z-degree
<= k.  The integrand's products run in z, on folded ints of at most k + 1
slots at weight k, and only Q is mapped back to y with the prefactor,
(1+y)^{fiber_dim} z^n = y^n (1+y)^{fiber_dim-n} (which starts at y^n, so
truncating at z^qmax is exact).

For the catalog families Q also has a closed form in U = exp(-L); its y^n
coefficients are genuine polynomials P_n(U), tabulated exactly here.

E7 note: its natural ambient space is a weighted P_{1,1,2} bundle; we use
the complete-intersection model in an honest P^3-bundle instead (twists
(0,1,2,2), relations of classes 2H+2L and 2H+4L).  The model is accepted
because its derived Q matches the closed form exactly.
"""

from fractions import Fraction
from functools import reduce
from math import comb
from operator import index

from .charclasses import RootForm, hirzebruch_class, todd_factor
from .charclasses import _exp_sum, _local_factor, _normal_factor  # closed forms
from .poly import Poly, _convolve
from .pushforward import BundleSpec, pushforward
from .series import WSeries, _Product, _Record, _packed_mul, _top_memo
from .series import _truncation_orders
from .series import _TEXT, _sum_text  # the text writer

FAMILIES = ("D5", "E6", "E7", "E8")

DEFAULT_WMAX = 6
DEFAULT_QMAX = 7


class FibrationSpec(_Record):
    """Relative data of a fibration inside P(E): a frozen record, equal and
    hashed by (name, bundle, n_roots).

    n_roots are the normal-bundle roots, each with positive H-coefficient
    so that its top Chern factor survives the fiber integral.  The F-roots
    are fixed by the bundle (see :attr:`f_roots`).  Catalog entries have
    fiber dimension exactly 1; custom specs may have any fiber dimension
    >= 0 (n_roots may be empty: Y = P(E) itself).
    """

    __match_args__ = ("name", "bundle", "n_roots")

    def __init__(self, name, bundle, n_roots):
        n_roots = tuple(n_roots)
        key = (name, bundle, n_roots)
        self.__dict__.update(name=name, bundle=bundle, n_roots=n_roots, _key=key)
        for r in n_roots:
            if r.a <= 0:
                raise ValueError("normal-bundle roots need a positive H part")
        if self.fiber_dim < 0:
            raise ValueError("more normal roots than fiber directions")

    @property
    def f_roots(self):
        """The Chern roots of F = pi^* E (x) O(1): H + m L for m in bundle.exps."""
        return tuple(RootForm(1, m) for m in self.bundle.exps)

    @property
    def fiber_dim(self):
        return self.bundle.rank - 1 - len(self.n_roots)


def _catalog_entry(family, exps, n_roots):
    spec = FibrationSpec(
        name=family,
        bundle=BundleSpec(exps),
        n_roots=tuple(RootForm(a, b) for a, b in n_roots),
    )
    assert spec.fiber_dim == 1
    return spec


CATALOG = {
    "D5": _catalog_entry("D5", (0, 1, 1, 1), ((2, 2), (2, 2))),
    "E6": _catalog_entry("E6", (0, 1, 1), ((3, 3),)),
    "E7": _catalog_entry("E7", (0, 1, 2, 2), ((2, 2), (2, 4))),
    "E8": _catalog_entry("E8", (0, 2, 3), ((3, 6),)),
}


def catalog_spec(family):
    try:
        return CATALOG[family]
    except KeyError:
        raise KeyError("unknown family %r (expected one of %s)" % (family, FAMILIES))


def _total_dim(family_or_spec, d):
    """dim Y over a d-dimensional base; every catalog fiber is a curve."""
    return d + (1 if isinstance(family_or_spec, str) else family_or_spec.fiber_dim)


# ---------------------------------------------------------------------------
# integrand and derived genus factor


_TODD_ROOT = RootForm(1, 0)  # the H-part of every F-root


@_top_memo
def _slope_group(key, wmax, qmax):
    """The product of one slope group's factors at the H-parts of its roots,
    in z = y/(1+y) (held in the y slots): ``key`` = (number of F-roots,
    sorted H-coefficients of the N-roots).  Every F-root's factor is
    td(H) - z*H, made once from the Todd factor; an N-root's is a normal
    local factor.  So every weight-k term has z-degree <= k.  A cold group
    is one folded chain (``_packed._packed_mul``): each distinct factor
    folded once, and the product unfolded and reduced once, so the memo
    keeps it reduced."""
    count, normals = key
    todd = _local_factor(("todd", _TODD_ROOT), wmax, qmax)
    f_factor = todd - WSeries(wmax, qmax, {((("H", 1),), 1): 1})
    factors = [f_factor] * count
    factors += [_normal_factor(RootForm(a, 0), wmax, qmax) for a in normals]
    packed = _packed_mul([f._packed for f in factors], wmax, qmax)
    return WSeries._trusted(wmax, qmax, packed)


def fiber_integrand(spec, wmax, qmax):
    """The class D whose pushforward is the genus factor Q.

    Every factor of D is a one-variable function at a root a*H + b*L, and a
    root's slope b/a fixes how its H-part turns into the whole root: the
    shear S_s, H -> H + s*L with s = b/a.  So the roots are grouped by slope,
    and each group is the product of its factors at the roots' H-parts, a
    series in H alone that depends only on the group's F-root count and
    N-root H-coefficients: a memoized ``_slope_group``, a polynomial in
    z = y/(1+y).  The groups' sheared product times (1+y)^fiber_dim is
    returned deferred (``series._Product``): the product is built on its
    first read, while ``pushforward`` of it, read or not, runs by residues
    at the bundle's exponents on the groups.  Either unfolds its result in z
    and maps each term's z^k to y^k (1+y)^(fiber_dim-k) by rows.
    """
    if wmax < len(spec.n_roots):
        raise ValueError(
            "wmax=%d below the integrand's minimal weight %d"
            % (wmax, len(spec.n_roots))
        )
    keys = {}  # slope -> [F-roots, N-root H-coefficients]
    for m in spec.bundle.exps:  # the F-root H + m*L has slope m
        # one Todd lookup per F-root, as the benchmark's trace counts; a cold
        # one builds the factor that the groups are made from
        todd_factor(_TODD_ROOT, wmax, qmax)
        keys.setdefault(m, [0, []])[0] += 1
    for root in spec.n_roots:
        a, b = root.a, root.b
        keys.setdefault(b // a if b % a == 0 else Fraction(b, a), [0, []])[1].append(a)
    groups = {
        s: _slope_group((count, tuple(sorted(normals))), wmax, qmax)
        for s, (count, normals) in keys.items()
    }
    return _Product(groups, wmax, qmax, spec.fiber_dim)


def derived_q(spec, wmax=DEFAULT_WMAX, qmax=DEFAULT_QMAX):
    """Genus factor by pushing the integrand down the projective bundle:
    ``pushforward`` by residues at the bundle's exponents, which reads a
    twisted bundle as its untwisted one (``_packed._residue_sum``)."""
    if isinstance(spec, str):
        spec = catalog_spec(spec)
    wmax, qmax = _truncation_orders(wmax, qmax)
    bundle = spec.bundle
    D = fiber_integrand(spec, wmax + bundle.rank - 1, qmax)
    return pushforward(D, bundle)


# ---------------------------------------------------------------------------
# closed forms

# Q = lead - y + (y+1) * numer(y, U) / (1 + y U^s) [ - U (y+1)^2/(1+y U^s)^2 ],
# numer encoded as {(y-degree, U-degree): integer}, in the order that
# closed_form_text writes its terms.
_CLOSED = {
    "D5": {"lead": 4, "s": 2, "numer": {(1, 1): 1, (0, 0): -3}, "extra": True},
    "E6": {"lead": 3, "s": 3, "numer": {(1, 2): 1, (0, 1): -1, (0, 0): -2}},
    "E7": {"lead": 2, "s": 4, "numer": {(1, 3): 1, (0, 1): -1, (0, 0): -1}},
    "E8": {"lead": 1, "s": 6, "numer": {(1, 5): 1, (0, 1): -1}},
}


def _yu_text(coeffs):
    """A {(y-degree, U-degree): integer} map as text, in its own order."""
    terms = []
    for (a, b), c in coeffs.items():
        factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in (("y", a), ("U", b)) if e]
        terms.append((("*".join(factors),), 0, c, 1))
    return _sum_text(terms, _TEXT)


def closed_form_text(family):
    """The unexpanded genus-factor expression, with U = exp(-L)."""
    catalog_spec(family)
    data = _CLOSED[family]
    den = _yu_text({(1, data["s"]): 1, (0, 0): 1})
    text = "%d - y + (y+1)*(%s)/(%s)" % (data["lead"], _yu_text(data["numer"]), den)
    if data.get("extra"):
        text += " - U*(y+1)^2/(%s)^2" % den
    return text


def _p_rows(family, nmax):
    """P_0..P_nmax as int lists, index = U-degree: the one expansion of
    ``_CLOSED``.  Q is lead - y plus terms c y^a U^b (1 + y U^s)^-e, e = 1
    or 2, and (1 + x)^-e = sum_m C(m+e-1, m) (-x)^m."""
    data = _CLOSED[family]
    s = data["s"]
    terms = [(c, a + i, b, 1) for (a, b), c in data["numer"].items() for i in (0, 1)]
    if data.get("extra"):  # - U (1 + y)^2 / (1 + y U^s)^2
        terms += [(-1, 0, 1, 2), (-2, 1, 1, 2), (-1, 2, 1, 2)]
    top = max(b for _, _, b, _ in terms)
    rows = [[0] * (s * n + top + 1) for n in range(nmax + 1)]
    rows[0][0] += data["lead"]
    if nmax >= 1:
        rows[1][0] -= 1
    for c, a, b, e in terms:
        for m in range(nmax - a + 1):
            rows[a + m][b + s * m] += (-1) ** m * comb(m + e - 1, m) * c
    return rows


def closed_form_q(family, wmax=DEFAULT_WMAX, qmax=DEFAULT_QMAX):
    """Expand the closed-form genus factor with U = exp(-L), exactly: the
    sum over n and k of P_n[k] y^n e^(-k L).  The family and orders are
    checked first, so the memo never sees a float order; the result is a
    shared, read-only truncation of one build per family (``_closed_form``)."""
    catalog_spec(family)
    return _closed_form(family, *_truncation_orders(wmax, qmax))


@_top_memo
def _closed_form(family, wmax, qmax):
    """The expansion of ``closed_form_q``: the ``_p_rows`` rows as sums of
    exponentials."""
    rows = [[(c, -k) for k, c in enumerate(row) if c] for row in _p_rows(family, qmax)]
    return _exp_sum(rows, "L", wmax, qmax)


# ---------------------------------------------------------------------------
# y-expansion of the closed forms: the P_n(U) polynomials


def _degree(family, n, name):
    """The y-degree ``n`` as an int >= 0 for a known family; ``name`` names
    it in the error."""
    catalog_spec(family)
    if index(n) < 0:
        raise ValueError("%s must be >= 0" % name)
    return index(n)


def p_polynomials(family, nmax):
    """[P_0..P_nmax] as exact U-polynomials."""
    return [Poly._of_ints(row) for row in _p_rows(family, _degree(family, nmax, "nmax"))]


def p_polynomial(family, n):
    """y^n coefficient of the genus factor as an exact polynomial in U."""
    n = _degree(family, n, "n")
    return p_polynomials(family, n)[n]


_P1_TABLE = {
    "D5": Poly((-4, -1, 3, 2)),
    "E6": Poly((-3, -1, 1, 2, 1)),
    "E7": Poly((-2, -1, 0, 1, 1, 1)),
    "E8": Poly((-1, -1, 0, 0, 0, 1, 0, 1)),
}

# the factors of P_n, n > 1, as int rows (index = U-degree), D5's depending on n:
# U^2 (U^3 - 1) (U + 1)^2, U^3 (U^4 - 1) (U^2 + U + 1), U^5 (U^6 - 1) (U^2 + 1)
_P_FACTORS = {
    "E6": ((0, 0, 1), (-1, 0, 0, 1), (1, 2, 1)),
    "E7": ((0, 0, 0, 1), (-1, 0, 0, 0, 1), (1, 1, 1)),
    "E8": ((0, 0, 0, 0, 0, 1), (-1, 0, 0, 0, 0, 0, 1), (1, 0, 1)),
}


def p_table_reference(family, n):
    """Tabulated closed form of P_n: P_0, P_1, and the factored P_n, n > 1,
    which is -(its factors) * (-U^s)^(n - 2)."""
    n = _degree(family, n, "n")
    if n == 0:
        return Poly._of_ints([1, -1])
    if n == 1:
        return _P1_TABLE[family]
    if family == "D5":
        # U ((n+1)U - (n-2)) (U - 1) (U + 1)^2: anomalous rational root (n-2)/(n+1)
        factors = ((0, 1), (2 - n, n + 1), (-1, 1), (1, 2, 1))
    else:
        factors = _P_FACTORS[family]
    tail = Poly._of_ints([0] * (_CLOSED[family]["s"] * (n - 2)) + [(-1) ** (n - 1)])
    return Poly._of_ints(reduce(_convolve, factors)) * tail


# ---------------------------------------------------------------------------
# the pushed-forward class


def _genus_factor(family_or_spec, wmax, qmax):
    """Q of a catalog family by its closed form, of a spec by its pushforward."""
    if isinstance(family_or_spec, str):
        return closed_form_q(family_or_spec, wmax, qmax)
    return derived_q(family_or_spec, wmax, qmax)


def pushforward_class(family_or_spec, d, qmax=None):
    """Q * H_y(B) to weight d: the pushed-forward chi_y class of the fibration.

    H_y(B) is the full chi_y class of a d-dimensional base, so the y^q slice
    is sum_{i<=q} P_{q-i}(U) * H_i(B), a y-free mixed-weight series in L and
    c1..c_d, with Q from ``_genus_factor``.  The y-degree bound defaults to
    dim Y + 1, as for ``chi_series``.
    """
    if qmax is None:
        qmax = _total_dim(family_or_spec, d) + 1
    return _genus_factor(family_or_spec, d, qmax) * hirzebruch_class(d, qmax)

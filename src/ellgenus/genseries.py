"""The generating series chi(t, y) and numeric chi_q over concrete bases.

chi(t, y) is assembled so that integrating its (t^k, y^q) coefficient over
a base of dimension k gives chi_q of the fibration: take the genus factor
with U = exp(-L) (t-degree is weight, so no substitution is needed),
reweight its weight-k part by (1+y)^k, and multiply by exp(sum_k b_k p_k):
the exponential of the Hadamard product of the polynomial chi_y
log-coefficients b_k with the power sums p_k of the formal base Chern
classes.

Truncation is an exact ring map, so each family or spec keeps one build at
the highest orders asked so far (``_chi_series.tops``): lower keys are
truncated from it, and a key past it builds again at the join of both
orders.  The genus factor of a build comes from ``fibrations._genus_factor``,
the closed form for a catalog family and the pushforward for a spec.

Every chi_q is one pairing (``_pairing``): the weight-d, y^q row of the
memoized chi(t, y), read from its packed form, against the base's table,
both int numerators, to an int total over one int denominator.  ``chi_q``,
``chi_values`` and ``integrate`` (any y-free class) each make one
``Fraction`` of that pair; ``chi_values`` reads chi(t, y) once and pairs
every q, and the command line prints the ints with no ``Fraction`` at all.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import index
from types import MappingProxyType

from .charclasses import _chi_y_exp
from .fibrations import _genus_factor, _total_dim, pushforward_class
from .series import WSeries, _as_fraction, _canonical_weight, _Record, _top_memo


class MissingIntersectionError(ValueError):
    """A queried weight-d monomial has no entry in the base's table."""


class VerificationError(AssertionError):
    """A cross-route check requested in verify mode failed."""


class BaseSpec(_Record):
    """A base variety: a frozen record of its dimension and intersection table.

    The dimension is an int (a float raises ``TypeError``).  The table maps
    every relevant canonical weight-``dim`` monomial in L, c1..c_dim (a
    factor H raises ``ValueError``) to its intersection number, an int or a
    Fraction (anything else, a float included, raises ``TypeError``); a
    missing monomial is an error, never an implicit zero.  A base stores its
    table once, as int numerators over one denominator, the lcm of the
    table's, for the pairing; ``table`` is a read-only ``Fraction`` view of
    them, built on its first read.  Two bases are equal when both dimension
    and table are, which those ints tell; the hash reads the dimension only.
    """

    __match_args__ = ("dim", "table")

    def __init__(self, dim, table):
        dim = index(dim)
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        if table is None:
            raise ValueError("a base needs an intersection table")
        clean = {}
        for mono, value in table.items():
            if _canonical_weight(mono) != dim:
                raise ValueError("table monomial %r has weight != %d" % (mono, dim))
            if "H" in dict(mono):
                raise ValueError("table monomial %r has a factor H, not a base class"
                                 % (mono,))
            clean[mono] = _as_fraction(value)  # a float is refused, never rounded
        den = lcm(*{v.denominator for v in clean.values()})
        ints = {m: v.numerator * (den // v.denominator) for m, v in clean.items()}
        self.__dict__.update(dim=dim, _ints=(ints, den), _key=(dim, ints, den))

    def __hash__(self):
        return hash(self.dim)

    def __reduce__(self):  # the read-only table itself does not pickle
        return (BaseSpec, (self.dim, dict(self.table)))

    def __getattr__(self, name):  # only a table not yet read is missing
        if name != "table":
            raise AttributeError(name)
        ints, den = self._ints
        table = MappingProxyType({m: Fraction(v, den) for m, v in ints.items()})
        self.__dict__["table"] = table
        return table

    @classmethod
    def projective_space(cls, d, n):
        """P^d with L = O(n): c_i -> C(d+1, i) h^i, L -> n h, int h^d = 1.
        ``d`` and ``n`` are integers; a float raises ``TypeError``."""
        d, n = index(d), index(n)
        if d < 0:
            raise ValueError("dimension must be >= 0")
        ints = {m: c * n**e for m, c, e in _projective_monomials(d)}
        return cls._of_ints(d, ints, 1)  # generated canonical: no checks to repeat

    @classmethod
    def _of_ints(cls, dim, ints, den):
        """The base of dimension ``dim`` >= 0 whose table is the int
        numerators ``ints`` {canonical weight-``dim`` monomial: n} over
        ``den``, the lcm of the reduced denominators, taken as they are; the
        ``Fraction`` table is built on its first read."""
        base = object.__new__(cls)
        base.__dict__.update(dim=dim, _ints=(ints, den), _key=(dim, ints, den))
        return base


@lru_cache(maxsize=16)
def _projective_monomials(d):
    """(monomial, product of C(d+1, i)^e over its factors c_i^e, exponent of
    L) for every canonical weight-``d`` monomial in L, c1..c_d."""
    monos = [((), 0)]  # (monomial, weight), extended variable by variable
    for v, w in [("L", 1)] + [("c%d" % i, i) for i in range(1, d + 1)]:
        monos = [
            (m + ((v, e),) if e else m, mw + e * w)
            for m, mw in monos
            for e in range((d - mw) // w + 1)
        ]
    c = {"c%d" % i: comb(d + 1, i) for i in range(1, d + 1)}
    return tuple(
        (m, prod(c.get(v, 1) ** e for v, e in m), dict(m).get("L", 0))
        for m, mw in monos
        if mw == d
    )


# ---------------------------------------------------------------------------


# exp(sum b_k p_k) under the one key None, read by ``_chi_series`` alone:
# ``hirzebruch_class`` reads its own (``charclasses._class_exp``), an
# independent check of this route.
_hirzebruch_exp = _top_memo(lambda _key, tmax, qmax: _chi_y_exp(tmax, qmax))


def chi_series(family_or_spec, tmax, qmax=None):
    """chi(t, y) to weight tmax (t-degree equals weight throughout).

    The y-degree bound defaults to dim Y + 1 = tmax + fiber_dim + 1: over a
    base of dimension k the fibration has dimension k + fiber_dim, so every
    retained coefficient beyond y^(k+fiber_dim) is exactly zero.

    The series depends only on the family and the orders, never on a base,
    so it is truncated once per key from the family's highest-order build,
    and every call returns that one read-only series.  Both orders are
    integers: a float raises ``TypeError``, even where an equal int key is
    already in the memo.
    """
    tmax = index(tmax)
    if tmax < 0:
        raise ValueError("tmax must be >= 0")
    qmax = _total_dim(family_or_spec, tmax) + 1 if qmax is None else index(qmax)
    return _chi_series(family_or_spec, tmax, qmax)


@_top_memo
def _chi_series(family_or_spec, tmax, qmax):
    Qt = _genus_factor(family_or_spec, tmax, qmax)
    return Qt.reweight_by_one_plus_y() * _hirzebruch_exp(None, tmax, qmax)


def integrate(cls, base):
    """Pair a y-free weight-``base.dim`` class with the intersection table:
    its packed numerators against the base's ints, one ``Fraction`` at the end."""
    slices = cls._by_slice()  # {(weight, y-degree): its terms}
    if any(q for _k, q in slices):
        raise ValueError("cannot integrate a class with y-content")
    if any(k != base.dim for k, _q in slices):
        raise ValueError("class is not weight-homogeneous of weight %d" % base.dim)
    return Fraction(*_pairing(cls, base.dim, 0, base))


def _pairing(series, k, q, base):
    """The weight-k, y^q slice of ``series`` paired with the table of
    ``base``, as ints (total, den) with the value total / den: total is sum
    n * t, n a packed numerator and t the base's int value of its monomial,
    and den is the series' denominator times the base's."""
    ints, base_den = base._ints
    try:
        total = sum(n * ints[m] for _key, m, n in series._by_slice().get((k, q), ()))
    except KeyError as exc:  # the first monomial of the row not in the table
        raise MissingIntersectionError(
            "no intersection number for monomial %s" % (dict(exc.args[0]) or "1",)
        ) from None
    return total, series._packed[1] * base_den


def chi_q(family_or_spec, base, q, verify=False):
    """chi_q of the family over ``base``, as an exact rational: the weight-d,
    y^q row of the memoized ``chi_series`` paired with the base's table.

    With ``verify`` set, the same number is recomputed along the
    class route (the weight-d, y^q part of Q * H_y(B)) and integrality is
    asserted; a mismatch raises :class:`VerificationError`.
    """
    d, q = base.dim, index(q)
    top = _total_dim(family_or_spec, d)
    if not (0 <= q <= top):
        raise ValueError("q=%d out of range: the fibration has dimension %d" % (q, top))
    value = Fraction(*_pairing(chi_series(family_or_spec, d, top + 1), d, q, base))
    if verify:
        check = integrate(pushforward_class(family_or_spec, d).coeff(d, q), base)
        if check != value:
            raise VerificationError(
                "route mismatch for q=%d: %s (series) vs %s (classes)"
                % (q, value, check)
            )
        if value.denominator != 1:
            raise VerificationError("chi_%d = %s is not an integer" % (q, value))
    return value


def chi_values(family_or_spec, base):
    """[chi_0, ..., chi_(dim Y)] of the family over a d-dimensional base, each
    as ``chi_q`` gives it, from one read of ``chi_series`` paired at each q."""
    d = base.dim
    top = _total_dim(family_or_spec, d)
    series = chi_series(family_or_spec, d, top + 1)
    return [Fraction(*_pairing(series, d, q, base)) for q in range(top + 1)]


def euler_series_e8(dmax, qmax=0):
    """12Lt/(1+6Lt) * (1 + c1 t + c2 t^2 + ...), the E8 Euler-characteristic
    generating series; the weight-d coefficient integrates to e(Y) over a
    base of dimension d."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    L = WSeries.var("L", dmax, qmax)
    chern_total = WSeries.const(1, dmax, qmax)
    for i in range(1, dmax + 1):
        chern_total = chern_total + WSeries.var("c%d" % i, dmax, qmax)
    return 12 * L * (6 * L + 1).inverse() * chern_total

"""Characteristic-class series: Todd factors, lambda_y characters, power
sums, and the chi_y (Hirzebruch) class of an abstract base variety.

The chi_y class of a smooth X with tangent Chern roots l_1..l_d is
``prod_i g(l_i)`` with ``g(t) = (1 + y e^{-t}) * t/(1 - e^{-t})``; its y^q
coefficient is ch(Omega^q) td(X).  Writing ``f = ln g = a_0 + a_1 t + ...``
(so ``a_0 = ln(1+y)``), the product becomes

    (1+y)^d * exp( sum_k a_k p_k )

where p_k are the power sums of the roots, i.e. the coefficients of
-tC'/C for C = 1 - c1 t + c2 t^2 - ....  The a_k for k >= 1 live in the
localization Q[y][(1+y)^{-1}] and are carried exactly as :class:`YFrac`
values; ln(1+y) itself is never expanded (the (1+y)^d power is handled
structurally).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .poly import Poly
from .series import WSeries

ONE_PLUS_Y = Poly((1, 1))


@dataclass(frozen=True)
class RootForm:
    """An integer linear form a*H + b*L used as a Chern root."""

    a: int
    b: int

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def series(self, wmax, qmax):
        terms = {}
        if self.a:
            terms[((("H", 1),), 0)] = Fraction(self.a)
        if self.b:
            terms[((("L", 1),), 0)] = Fraction(self.b)
        return WSeries(wmax, qmax, terms)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for coeff, var in ((self.a, "H"), (self.b, "L")):
            if coeff:
                body = var if abs(coeff) == 1 else "%d%s" % (abs(coeff), var)
                parts.append(("-" if coeff < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += "%s%s" % (sign, body)
        return text


class YFrac:
    """num / (1+y)^dpow with (1+y) not dividing num (exact division test)."""

    __slots__ = ("num", "dpow")

    def __init__(self, num, dpow=0):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if dpow < 0:
            raise ValueError("dpow must be >= 0")
        while dpow > 0 and not num.is_zero():
            q, r = num.divmod(ONE_PLUS_Y)
            if not r.is_zero():
                break
            num, dpow = q, dpow - 1
        if num.is_zero():
            dpow = 0
        self.num = num
        self.dpow = dpow

    @classmethod
    def zero(cls):
        return cls(Poly())

    @classmethod
    def one(cls):
        return cls(Poly.one())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = YFrac(Poly((other,)))
        if not isinstance(other, YFrac):
            return NotImplemented
        return self.num == other.num and self.dpow == other.dpow

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = YFrac(Poly((other,)))
        d = max(self.dpow, other.dpow)
        n = self.num * ONE_PLUS_Y ** (d - self.dpow) + other.num * ONE_PLUS_Y ** (
            d - other.dpow
        )
        return YFrac(n, d)

    __radd__ = __add__

    def __neg__(self):
        return YFrac(-self.num, self.dpow)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = YFrac(Poly((other,)))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return YFrac(self.num * other, self.dpow)
        return YFrac(self.num * other.num, self.dpow + other.dpow)

    __rmul__ = __mul__

    def scale(self, r):
        return YFrac(self.num * r, self.dpow)

    def absorbed(self, k):
        """num * (1+y)^(k - dpow) as a plain polynomial (needs dpow <= k)."""
        if self.dpow > k:
            raise ValueError("dpow %d exceeds t-order %d" % (self.dpow, k))
        return self.num * ONE_PLUS_Y ** (k - self.dpow)

    def at_y_zero(self):
        return self.num[0]

    def __repr__(self):
        if self.dpow == 0:
            return "YFrac(%s)" % self.num.to_text(var="y", descending=False)
        return "YFrac((%s)/(1+y)^%d)" % (
            self.num.to_text(var="y", descending=False),
            self.dpow,
        )


# ---------------------------------------------------------------------------
# local factors
#
# Each local factor is a one-variable function f(t) = sum_k f_k(y) t^k,
# evaluated at a Chern root l = a*H + b*L.  Its t-coefficients are written
# down from closed forms (Todd numbers, s^k/k!) as {y-degree: rational}
# maps, and :func:`_at_form` fills them in at the root: t -> a*H (or b*L
# when a = 0), then, when both a and b are nonzero, one substitution
# H -> H + (b/a)*L.  No local factor takes an exp or an inverse.


def _todd_numbers(order):
    """t/(1 - e^{-t}) = sum_k tau_k t^k: [tau_0..tau_order]."""
    return _invert_fraction_series(
        [Fraction((-1) ** j, factorial(j + 1)) for j in range(order + 1)]
    )


def _exp_numbers(s, order):
    """e^{s t} = sum_k (s^k/k!) t^k: [1, s, s^2/2, ..., s^order/order!]."""
    return [Fraction(s**k, factorial(k)) for k in range(order + 1)]


def _at_form(coeffs, root, wmax, qmax):
    """sum_k coeffs[k] * (a*H + b*L)^k, with coeffs[k] a {y-degree: rational}
    map; entries past wmax or qmax are dropped."""
    a, b = root.a, root.b
    var, scale = ("H", a) if a else ("L", b)
    terms = {}
    for k, ck in enumerate(coeffs[: wmax + 1]):
        if k and not scale:
            break
        mono = ((var, k),) if k else ()
        for q, c in ck.items():
            if q <= qmax and c:
                terms[(mono, q)] = c * scale**k
    series = WSeries(wmax, qmax, terms)
    if a and b:
        H, L = WSeries.var("H", wmax, qmax), WSeries.var("L", wmax, qmax)
        series = series.substitute("H", H + L * Fraction(b, a))
    return series


def todd_factor(root, wmax, qmax=0):
    """Expansion of l/(1 - e^{-l}) at l = a*H + b*L; the zero form gives 1."""
    return _at_form([{0: c} for c in _todd_numbers(wmax)], root, wmax, qmax)


def lambda_y_factor(root, sign, wmax, qmax):
    """1 + y*exp(sign * (a*H + b*L)); sign -1 realizes dualized bundles."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeffs = [{1: c} for c in _exp_numbers(sign, wmax)]
    coeffs[0] = {0: 1, 1: 1}
    return _at_form(coeffs, root, wmax, qmax)


def lambda_y_inverse(root, sign, wmax, qmax):
    """(1 + y*exp(sign*l))^{-1} = sum_m (-y)^m exp(sign*m*l).

    The geometric y-sum terminates at y^qmax; its t^k coefficient is
    sum_m (-1)^m (sign*m)^k/k! y^m.  Equal to ``lambda_y_factor(...).inverse()``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    by_m = [_exp_numbers(sign * m, wmax) for m in range(qmax + 1)]
    coeffs = [
        {m: (-1) ** m * by_m[m][k] for m in range(qmax + 1)} for k in range(wmax + 1)
    ]
    return _at_form(coeffs, root, wmax, qmax)


def _one_minus_exp(root, wmax, qmax):
    """1 - exp(-l) at l = a*H + b*L: the top Chern character factor of a
    normal-bundle root."""
    coeffs = [{0: -c} for c in _exp_numbers(-1, wmax)]
    coeffs[0] = {}
    return _at_form(coeffs, root, wmax, qmax)


# ---------------------------------------------------------------------------
# power sums of the base's Chern roots


def power_sums_from_chern(kmax, qmax=0, cmax=None):
    """p_1..p_kmax as weight-homogeneous series in the formal c_i.

    Computed as the weight-graded components of -tC'/C with
    C = 1 - c1 + c2 - ... (t-degree is weight), using exact series
    division; Newton's identities come out for free.  ``cmax`` caps the
    Chern-class index (default: fully formal up to kmax).

    Returns a list with entry k-1 holding p_k.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if cmax is None:
        cmax = kmax
    c_top = min(kmax, cmax)
    cvars = [WSeries.var("c%d" % i, kmax, qmax) for i in range(1, c_top + 1)]
    C = WSeries.const(1, kmax, qmax)
    minus_tCp = WSeries.zero(kmax, qmax)
    for i, ci in enumerate(cvars, start=1):
        C = C + ci * Fraction((-1) ** i)
        minus_tCp = minus_tCp + ci * Fraction(i * (-1) ** (i + 1))
    p_all = minus_tCp * C.inverse()
    return [p_all.weight_component(k) for k in range(1, kmax + 1)]


def power_sum_series(kmax, qmax=0, cmax=None):
    """The full series p_1 + p_2 + ... (-tC'/C) in one value."""
    acc = WSeries.zero(kmax, qmax)
    for p in power_sums_from_chern(kmax, qmax, cmax):
        acc = acc + p
    return acc


# ---------------------------------------------------------------------------
# log-coefficients of the chi_y factor g(t)


def _t_mul(a, b, order):
    out = [YFrac.zero() for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j in range(0, order + 1 - i):
            bj = b[j]
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _invert_fraction_series(coeffs):
    """Term-by-term inverse of a rational t-series with unit constant term."""
    inv = [Fraction(1) / coeffs[0]]
    for k in range(1, len(coeffs)):
        s = Fraction(0)
        for i in range(1, k + 1):
            s += coeffs[i] * inv[k - i]
        inv.append(-s / coeffs[0])
    return inv


def chi_y_log_coefficients(kmax):
    """a_1..a_kmax of f = ln((1 + y e^{-t}) t/(1 - e^{-t})), as YFracs.

    The split ln g = ln((1+y e^{-t})/(1+y)) + ln(t/(1-e^{-t})) + ln(1+y)
    keeps everything in Q[y][(1+y)^{-1}]; the a_0 = ln(1+y) summand is
    dropped (handled structurally by the (1+y)-power bookkeeping).  Each
    a_k satisfies dpow <= k.

    Returns a list with entry k-1 holding a_k.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    order = kmax
    # (1 + y e^{-t})/(1+y) = 1 + sum_{k>=1} ((-1)^k/k!) * y/(1+y) * t^k
    g1 = [YFrac.one()]
    for k in range(1, order + 1):
        g1.append(YFrac(Poly((0, Fraction((-1) ** k, factorial(k)))), 1))
    # t/(1 - e^{-t}), rational coefficients by series inversion
    g2 = [YFrac(Poly((c,))) for c in _todd_numbers(order)]
    g = _t_mul(g1, g2, order)
    # ln(1 + u) with u = g - 1 (u has no constant term)
    u = list(g)
    u[0] = YFrac.zero()
    result = [YFrac.zero() for _ in range(order + 1)]
    power = [YFrac.one()] + [YFrac.zero() for _ in range(order)]
    for m in range(1, order + 1):
        power = _t_mul(power, u, order)
        r = Fraction((-1) ** (m + 1), m)
        for k in range(order + 1):
            if not power[k].is_zero():
                result[k] = result[k] + power[k].scale(r)
    return result[1:]


# ---------------------------------------------------------------------------
# Hadamard application and the base class


def hadamard_apply(coeffs, series, absorb):
    """sum_k a~_k * S_k over the weight components S_k of ``series``.

    With ``absorb`` set, a~_k = num_k * (1+y)^(k - dpow_k): the weight-k
    reweighting by (1+y)^k is folded in, so the result is polynomial in y.
    Otherwise a~_k = num_k / (1+y)^dpow_k with the denominator expanded as
    a truncated y-series.

    ``series`` must have no weight-0 component (the a_0 coefficient is
    handled structurally, never through here).
    """
    if not series.weight_component(0).is_zero():
        raise ValueError("weight-0 content is not handled by hadamard_apply")
    if len(coeffs) < series.wmax:
        raise ValueError(
            "need %d coefficients, got %d" % (series.wmax, len(coeffs))
        )
    wmax, qmax = series.wmax, series.qmax
    out = WSeries.zero(wmax, qmax)
    inv_1py = None
    for k in range(1, wmax + 1):
        comp = series.weight_component(k)
        if comp.is_zero():
            continue
        a = coeffs[k - 1]
        if absorb:
            mult = WSeries.from_y_poly(a.absorbed(k).coeffs, wmax, qmax)
        else:
            if inv_1py is None:
                inv_1py = (WSeries.y(wmax, qmax) + 1).inverse()
            mult = WSeries.from_y_poly(a.num.coeffs, wmax, qmax) * inv_1py**a.dpow
        out = out + comp * mult
    return out


@cache
def _hirzebruch_exp(tmax, qmax):
    """exp(sum_k b_k p_k) to (tmax, qmax), with the (1+y)^k reweighting of
    weight k absorbed into the log-coefficients (tmax >= 1).

    It depends on nothing but the two orders, so it is built once per pair
    and shared by ``chi_series`` and ``hirzebruch_class(top_only=True)``;
    callers must not mutate it.
    """
    acoeffs = chi_y_log_coefficients(tmax)
    psums = power_sum_series(tmax, qmax=qmax)
    return hadamard_apply(acoeffs, psums, absorb=True).exp()


def hirzebruch_class(dim, qmax=None, top_only=False):
    """The chi_y class of an abstract dim-dimensional base.

    Full form (default): sum_q ch(Omega^q) td * y^q as a mixed-weight
    series in c1..c_dim, exact in every retained y-degree.  With
    ``top_only``, just the weight-dim part, with all (1+y)-powers resolved
    into y-polynomials.
    """
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    if qmax is None:
        qmax = dim + 2
    if dim == 0:
        return WSeries.const(1, 0, qmax)
    if top_only:
        # (1+y)^dim * [weight dim] exp(sum a_k p_k) == [weight dim] of the
        # absorbed exponential: each weight-dim product of a_k's picks up
        # exactly (1+y)^dim distributed over its factors.
        return _hirzebruch_exp(dim, qmax).weight_component(dim)
    acoeffs = chi_y_log_coefficients(dim)
    psums = power_sum_series(dim, qmax=qmax)
    body = hadamard_apply(acoeffs, psums, absorb=False).exp()
    one_plus_y = WSeries.y(dim, qmax) + 1
    return body * one_plus_y**dim

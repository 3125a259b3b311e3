"""Characteristic-class series: Todd factors, lambda_y characters, power
sums, and the chi_y (Hirzebruch) class of an abstract base variety.

The chi_y class of a smooth X with tangent Chern roots l_1..l_d is
``prod_i g(l_i)`` with ``g(t) = (1 + y e^{-t}) * t/(1 - e^{-t})``; its y^q
coefficient is ch(Omega^q) td(X).  Writing ``f = ln g = a_0 + a_1 t + ...``
(so ``a_0 = ln(1+y)``), the product becomes

    (1+y)^d * exp( sum_k a_k p_k )

where p_k are the power sums of the roots, i.e. the coefficients of
-tC'/C for C = 1 - c1 t + c2 t^2 - ....  The a_k for k >= 1 have powers
of 1+y in their denominators, but the weight-k part of the class carries
(1+y)^d, and d >= k, so only the polynomials b_k = (1+y)^k a_k are ever
needed: the weight-k part of the class is (1+y)^(d-k) times the weight-k
part of exp(sum_k b_k p_k).  Every t-series here is a :class:`WSeries`
whose weight is the t-degree, with coefficients in Q[y], and ln(1+y) is
never expanded.
"""

from fractions import Fraction
from math import comb, factorial
from operator import index

from .poly import Poly
from .series import WSeries, _Record, _shear, _top_memo, _truncation_orders


class RootForm(_Record):
    """An integer linear form a*H + b*L used as a Chern root: a frozen
    record, equal and hashed by (a, b)."""

    __match_args__ = ("a", "b")

    def __init__(self, a, b):
        # a float would make every coefficient built at the root inexact
        a, b = index(a), index(b)
        self.__dict__.update(a=a, b=b, _key=(a, b))

    def is_zero(self):
        return self.a == 0 and self.b == 0


# ---------------------------------------------------------------------------
# local factors
#
# Each local factor is a one-variable function f(t) = sum_k f_k(y) t^k,
# evaluated at a Chern root l = a*H + b*L: Todd's t-coefficients are the
# Todd numbers, the normal factor's (a polynomial in z = y/(1+y)) come from
# Stirling numbers, and the two lambda factors are sums of exponentials
# c y^q e^{s t}, written by :func:`_exp_sum` with the root's scale folded
# into s.
# Each kind is filled in at t -> a*H (or b*L when a = 0), then sheared by
# H -> H + (b/a)*L when both a and b are nonzero.  No local factor takes an
# exp, an inverse or a series product.


def _todd_numbers(order):
    """t/(1 - e^{-t}) = sum_k tau_k t^k: (tau_0, ..., tau_order), the
    inverse of sum_k (-1)^k t^k/(k+1)!, on ints.  Over N = (order+1)! that
    series has the int coefficients (-1)^k N/(k+1)!, so x_n = tau_n N^n is
    the int -sum_(j=1..n) b_j x_(n-j), with b_j = (-1)^j N^j/(j+1)!."""
    big, xs, bs = factorial(order + 1), [1], []
    for n in range(1, order + 1):
        bs.append((-1) ** n * big**n // factorial(n + 1))
        xs.append(-sum(b * x for b, x in zip(bs, reversed(xs))))
    return tuple(Fraction(x, big**n) for n, x in enumerate(xs))


def _exp_sum(rows, var, wmax, qmax):
    """sum_q y^q sum_{(c, s) in rows[q]} c e^{s var} to (wmax, qmax).

    The var^k coefficient of c e^{s var} is c s^k/k!: an int numerator n over
    wmax!, which the step from k - 1 to k turns into n*s/k, exactly."""
    den, nums = factorial(wmax), {}
    for q, terms in enumerate(rows[: qmax + 1]):
        ns = [c * den for c, _ in terms]
        nums[(), q] = sum(ns)
        for k in range(1, wmax + 1):
            ns = [n * s // k for n, (_, s) in zip(ns, terms)]
            nums[((var, k),), q] = sum(ns)
    return WSeries._of_ints(wmax, qmax, nums, den)


def _normal_sum(var, scale, wmax, qmax):
    """sum_n z^n (1 - e^{-s var})^(n+1) to (wmax, qmax), s = ``scale``, z in
    the y slots, from Stirling numbers of the second kind: (1 - e^{-u})^j =
    j! sum_(k >= j) (-1)^(k-j) S(k, j) u^k/k!, an int numerator j! S(k, j)
    s^k wmax!/k! over wmax! for z^(j-1) var^k.  Row k of S comes from row
    k - 1 by S(k, j) = j S(k-1, j) + S(k-1, j-1), so the work is
    O(wmax * qmax)."""
    jmax = min(qmax + 1, wmax)
    factorials = [factorial(j) for j in range(jmax + 1)]
    row, tail, power, nums = [1] + [0] * jmax, factorial(wmax), 1, {}
    for k in range(1, wmax + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, jmax + 1)]
        tail, power = tail // k, power * scale  # wmax!/k! and s^k
        for j in range(1, min(k, jmax) + 1):
            n = factorials[j] * row[j] * tail * power
            nums[((var, k),), j - 1] = -n if (k - j) & 1 else n
    return WSeries._of_ints(wmax, qmax, nums, factorial(wmax))


@_top_memo
def _local_factor(key, wmax, qmax):
    """The local factor of ``key`` = (kind, root): Todd from its numbers,
    the normal factor from Stirling numbers (:func:`_normal_sum`), the two
    lambda kinds as rows of (c, s) for :func:`_exp_sum`, s already times
    the root's scale."""
    kind, root = key
    a, b = root.a, root.b
    var, scale = ("H", a) if a else ("L", b)
    if kind == "todd":
        todd = enumerate(_todd_numbers(wmax))
        series = WSeries(
            wmax, qmax, {(((var, k),) if k else (), 0): c * scale**k for k, c in todd}
        )
    elif kind == "normal":
        series = _normal_sum(var, scale, wmax, qmax)
    else:
        alternating = [((-1) ** m, -m * scale) for m in range(qmax + 1)]
        rows = {  # the (c, s) of the terms c y^q e^{s t}, by y-degree q
            "lambda_y": [[(1, 0)], [(1, -scale)]],  # 1 + y e^{-t}
            "lambda_y_inverse": [[t] for t in alternating],  # sum_m (-y)^m e^{-mt}
        }[kind]
        series = _exp_sum(rows, var, wmax, qmax)
    if a and b:
        series = _shear(series, Fraction(b, a))
    return series


def todd_factor(root, wmax, qmax=0):
    """Expansion of l/(1 - e^{-l}) at l = a*H + b*L; the zero form gives 1."""
    return _local_factor(("todd", root), *_truncation_orders(wmax, qmax))


def lambda_y_factor(root, wmax, qmax):
    """1 + y*exp(-l) at l = a*H + b*L: the dual character of the paper's
    integrand.  For 1 + y*exp(+l), pass the negated root."""
    return _local_factor(("lambda_y", root), *_truncation_orders(wmax, qmax))


def lambda_y_inverse(root, wmax, qmax):
    """(1 + y*exp(-l))^{-1} = sum_m (-y)^m exp(-m*l); negate the root for
    exp(+l).

    The geometric y-sum terminates at y^qmax; its t^k coefficient is
    sum_m (-1)^m (-m)^k/k! y^m.  Equal to ``lambda_y_factor(...).inverse()``.
    """
    return _local_factor(("lambda_y_inverse", root), *_truncation_orders(wmax, qmax))


def _normal_factor(root, wmax, qmax):
    """sum_n z^n (1 - exp(-l))^(n+1) at l = a*H + b*L, a polynomial in
    z = y/(1+y) held in the y slots: a normal-bundle root's factor of the
    integrand, (1 - exp(-l))/(1 + y*exp(-l)) = (1+y)^{-1} times this, since
    1 + y*exp(-l) = (1+y)(1 - z(1 - exp(-l))).  Its z^n terms have weight
    >= n + 1."""
    return _local_factor(("normal", root), *_truncation_orders(wmax, qmax))


# ---------------------------------------------------------------------------
# power sums of the base's Chern roots


def power_sums_from_chern(kmax, qmax=0):
    """p_1..p_kmax as weight-homogeneous series in the formal c_i: the
    weight components of :func:`power_sum_series`.

    Returns a list with entry k-1 holding p_k.
    """
    p_all = power_sum_series(kmax, qmax)
    return [p_all.weight_component(k) for k in range(1, kmax + 1)]


def power_sum_series(kmax, qmax=0):
    """The full series p_1 + p_2 + ... in one value.

    Computed as -tC'/C with C = 1 - c1 + c2 - ... (t-degree is weight),
    using exact series division; Newton's identities come out for free.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    terms = {((("c%d" % i, 1),) if i else (), 0): (-1) ** i for i in range(kmax + 1)}
    C = WSeries(kmax, qmax, terms)  # -tC' scales its weight-k part by -k
    return C._scale_weights([[-k] for k in range(kmax + 1)]) * C.inverse()


# ---------------------------------------------------------------------------
# log-coefficients of the chi_y factor g(t)


def chi_y_log_coefficients(kmax):
    """b_1..b_kmax: the t-coefficients of ln[g((1+y)t)/(1+y)], as y-Polys.

    With ln g = ln(1+y) + a_1 t + a_2 t^2 + ..., the substitution
    t -> (1+y)t makes b_k = (1+y)^k a_k, and the division by 1+y drops
    a_0 = ln(1+y).  Hirzebruch's g(t) = (1+y) td(t) - y t gives
    g((1+y)t)/(1+y) = td((1+y)t) - y t: the Todd factor at t = H,
    reweighted, less y*H, and the log is :meth:`WSeries.log`.  All of it
    runs at y-order kmax, which is exact: truncating at y^(kmax+1) is a
    ring map, and deg b_k <= k.

    Returns a list with entry k-1 holding b_k.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    todd = todd_factor(RootForm(1, 0), kmax, kmax).reweight_by_one_plus_y()
    logs = (todd - WSeries(kmax, kmax, {((("H", 1),), 1): 1})).log()
    den, rows = logs._packed[1], [[0] * (kmax + 1) for _ in range(kmax + 1)]
    for (k, q), ((_key, _h, n),) in logs._by_slice().items():  # n H^k y^q
        rows[k][q] = n
    return [Poly._of_ints(row, den) for row in rows[1:]]


# ---------------------------------------------------------------------------
# Hadamard application and the base class


def hadamard_apply(coeffs, series):
    """sum_k b_k * S_k, each weight component S_k of ``series`` scaled by
    the y-Poly b_k = coeffs[k-1], with no series product.

    On the power-sum series with the b_k of :func:`chi_y_log_coefficients`
    this is sum_k (1+y)^k a_k p_k: the log of the chi_y class with its
    weight-k part reweighted by (1+y)^k, polynomial in y.

    ``series`` must have no weight-0 component (a_0 = ln(1+y) never enters;
    :func:`hirzebruch_class` puts its (1+y)-powers back by weight).
    """
    if series._has_weight_zero():
        raise ValueError("weight-0 content is not handled by hadamard_apply")
    if len(coeffs) < series.wmax:
        raise ValueError(
            "need %d coefficients, got %d" % (series.wmax, len(coeffs))
        )
    return series._scale_weights([()] + [b.coeffs for b in coeffs])


def _chi_y_exp(tmax, qmax):
    """exp(sum_k b_k p_k) to (tmax, qmax): the chi_y class of an abstract
    base with its weight-k part reweighted by (1+y)^k.  It depends on
    nothing but the two orders, and is 1 at tmax 0."""
    if tmax == 0:
        return WSeries.const(1, 0, qmax)
    bcoeffs = chi_y_log_coefficients(tmax)
    psums = power_sum_series(tmax, qmax=qmax)
    return hadamard_apply(bcoeffs, psums).exp()


# exp(sum b_k p_k) under the one key None, read by ``hirzebruch_class``
# alone: ``genseries`` keeps its own for chi(t, y), so that the class route
# stays an independent check of the series route.
_class_exp = _top_memo(lambda _key, tmax, qmax: _chi_y_exp(tmax, qmax))


def hirzebruch_class(dim, qmax=None):
    """The chi_y class of an abstract dim-dimensional base.

    sum_q ch(Omega^q) td * y^q as a mixed-weight series in c1..c_dim, exact
    in every retained y-degree.  It equals (1+y)^dim exp(sum_k a_k p_k), so
    its weight-k part is (1+y)^(dim-k) times the weight-k part E_k of
    exp(sum_k b_k p_k).
    """
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    if qmax is None:
        qmax = dim + 2
    dim, qmax = _truncation_orders(dim, qmax)  # a float never reads the memo
    rows = [[comb(dim - k, j) for j in range(dim - k + 1)] for k in range(dim + 1)]
    return _class_exp(None, dim, qmax)._scale_weights(rows)

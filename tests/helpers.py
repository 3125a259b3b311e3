"""Shared test utilities: random series generators, an independent
numeric evaluator used as a brute-force oracle, the plain dict/``Fraction``
series multiply used as the oracle of the packed kernel, and the two-variable
exp/inverse local factors, fiber integrand, Segre series and Segre
pushforward (and the term-by-term int Segre pushforward) used as oracles of
the one-variable constructions and the integer Segre numbers, the normal
factor in z by powers of its t-series, the chi_y
class of a base from a series logarithm, the pushed-forward class convolved
y-degree by y-degree, the chi_y log-coefficients from lists of y-``Poly``
(with their truncated product), the closed-form texts as the paper writes
them, a Chern root as a series, the weight-by-weight y-scalings (the
(1+y)-reweight loop, the per-weight Hadamard products, the Horner chi_y class
and -tC'/C from two accumulations), the ``WSeries`` expansion of the closed
forms (series exp, powers and an inverse), the Fraction evaluator that
is the oracle of the int evaluator of the power sums at roots in the
hadamard-identity suite, the ring
operations on plain ``Fraction`` dicts (add, scalar, y-scaling, exp, log and
inverse, the oracles of the packed ones), the Taylor exp and log and the
Newton inverse by whole-series products (the oracles of the graded
kernel), the packed multiply, shear and sheared product one numerator pair
at a time (the oracles of the folded
kernels, with no code from the engine), the dense ``Poly`` product, a call
counter for monkeypatched library functions (one module, or every module
that imported the function), and
term-scan, ``Fraction`` sum and ``Fraction``-power oracles of
``coeff``/``y_slice``/``weight_component``, ``integrate`` and the P^d table,
and writers of the sorted terms, the text and LaTeX sums, the JSON records and
the y-rows of ``q`` from the ``terms`` view alone (the oracles of the
engine's writers), and the command line's argparse parser (the oracle of the
option table's argv reader)."""

import argparse
import json
import sys
import threading
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from ellgenus import (
    FAMILIES,
    NotAUnitError,
    Poly,
    RootForm,
    WSeries,
    closed_form_q,
    derived_q,
    hirzebruch_class,
    mono_from_dict,
    mono_weight,
    power_sums_from_chern,
)
from ellgenus import cli
from ellgenus.charclasses import _normal_factor
from ellgenus.fibrations import _CLOSED, DEFAULT_QMAX, DEFAULT_WMAX
from ellgenus.pushforward import _segre_numbers


def random_series(rng, variables, wmax, qmax, nterms=10, allow_const=True):
    terms = {}
    for _ in range(nterms):
        mono = {}
        budget = rng.randrange(0 if allow_const else 1, wmax + 1)
        while budget > 0:
            name = rng.choice(variables)
            w = 1 if name in ("L", "H") else int(name[1:])
            if w > budget:
                break
            mono[name] = mono.get(name, 0) + 1
            budget -= w
        q = rng.randrange(0, qmax + 1)
        key = (mono_from_dict(mono), q)
        coeff = Fraction(rng.randrange(-8, 9), rng.randrange(1, 4))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return WSeries(wmax, qmax, terms)


def evaluate_numeric(series, values, y=None):
    """Evaluate a series at rational variable values, fully independently
    of the library's substitution machinery.

    Returns a dict {y-degree: Fraction}, or a single Fraction when a value
    for y is supplied.
    """
    by_q = {}
    for (mono, q), coeff in series.terms.items():
        total = coeff
        for var, exp in mono:
            total *= Fraction(values[var]) ** exp
        by_q[q] = by_q.get(q, Fraction(0)) + total
    if y is None:
        return by_q
    return sum(v * Fraction(y) ** q for q, v in by_q.items())


def _var_order(item):
    v = item[0]
    return (0, 0) if v == "L" else (1, 0) if v == "H" else (2, int(v[1:]))


def mono_mul(m1, m2):
    """Product of two canonical monomial tuples, merged through a dict."""
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=_var_order))


def reference_mul(a, b):
    """a * b term pair by term pair in ``Fraction`` arithmetic, with the right
    factor bucketed by weight; the engine's multiply before the packed kernel."""
    if a.wmax != b.wmax or a.qmax != b.qmax:
        raise ValueError("truncation mismatch")
    wmax, qmax = a.wmax, a.qmax
    buckets = {}
    for (m, q), c in b.terms.items():
        buckets.setdefault(mono_weight(m), []).append((m, q, c))
    out = {}
    for (m1, q1), c1 in a.terms.items():
        w1 = mono_weight(m1)
        qroom = qmax - q1
        for w2, items in buckets.items():
            if w1 + w2 > wmax:
                continue
            for m2, q2, c2 in items:
                if q2 > qroom:
                    continue
                key = (mono_mul(m1, m2), q1 + q2)
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return WSeries(wmax, qmax, out)


# -- the ring operations on plain {(monomial, y-degree): Fraction} dicts, with no
# packed form anywhere: the oracles of the packed add, scalar, y-scaling, exp,
# log and inverse


def dict_terms(series):
    """The terms of a series as a plain dict."""
    return dict(series.terms)


def dict_add(a, b, sign=1):
    """a + sign * b, dropping the zeros."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def dict_scale(a, c):
    return {key: v * c for key, v in a.items() if v * c}


def dict_mul(a, b, wmax, qmax):
    """a * b one term pair at a time, truncated at (wmax, qmax)."""
    out = {}
    for (m1, q1), c1 in a.items():
        for (m2, q2), c2 in b.items():
            if mono_weight(m1) + mono_weight(m2) <= wmax and q1 + q2 <= qmax:
                key = (mono_mul(m1, m2), q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def dict_scale_weights(a, rows, qmax):
    """The weight-k terms times the y-polynomial rows[k], truncated at qmax."""
    out = {}
    for (m, q), c in a.items():
        for j, r in enumerate(rows[mono_weight(m)]):
            if q + j <= qmax:
                out[(m, q + j)] = out.get((m, q + j), 0) + c * Fraction(r)
    return {key: c for key, c in out.items() if c}


def _dict_power_sum(u, weights, wmax, qmax):
    """sum_k weights(k) u^k over k = 0..wmax + qmax + 1, as far as u^k is
    nonzero; u must have no constant term, so u^k vanishes for large k."""
    out, power = {}, {((), 0): Fraction(1)}
    for k in range(wmax + qmax + 2):
        out = dict_add(out, dict_scale(power, weights(k)))
        power = dict_mul(power, u, wmax, qmax)
    return out


def dict_exp(a, wmax, qmax):
    """sum_k a^k / k!."""
    return _dict_power_sum(a, lambda k: Fraction(1, factorial(k)), wmax, qmax)


def dict_log(a, wmax, qmax):
    """sum_k (-1)^(k+1) u^k / k with u = a - 1."""
    u = dict_add(a, {((), 0): Fraction(1)}, -1)
    return _dict_power_sum(
        u, lambda k: Fraction((-1) ** (k + 1), k) if k else 0, wmax, qmax
    )


def dict_inverse(a, wmax, qmax):
    """1/a = (1/c) sum_k u^k with c the constant term and u = 1 - a/c."""
    c = a[((), 0)]
    u = dict_add({((), 0): Fraction(1)}, dict_scale(a, 1 / c), -1)
    return dict_scale(_dict_power_sum(u, lambda k: 1, wmax, qmax), 1 / c)


# -- WSeries exp, log and inverse by whole-series products: the Taylor sums and
# the Newton iteration, the oracles of the graded kernel


def reference_inverse(self):
    """Multiplicative inverse, exact to (wmax, qmax).

    Graded Newton iteration: the error 1 - a*x lies in the ideal of
    positive (weight + y-degree) terms and squares each step, so
    convergence needs only log2(wmax + qmax + 1) rounds.
    """
    c = self.constant_term()
    if not c:
        raise NotAUnitError("constant (weight-0, y^0) term is zero")
    x = WSeries.const(1 / c, self.wmax, self.qmax)
    for _ in range(self.wmax + self.qmax + 2):
        err = 1 - self * x
        if err.is_zero():
            return x
        x = x + x * err
    raise ArithmeticError("inverse iteration failed to terminate")


def reference_exp(self):
    """exp of a series with no weight-0 content (pure-y terms included)."""
    if self._has_weight_zero():
        raise ValueError("exp needs every term to have weight >= 1")
    result = term = WSeries.const(1, self.wmax, self.qmax)
    for k in range(1, self.wmax + 1):
        term = term * self * Fraction(1, k)
        if term.is_zero():
            break
        result = result + term
    return result


def reference_log(self):
    """log of 1 + (weight >= 1 terms); inverse of :meth:`exp`."""
    u = self - 1
    if u._has_weight_zero():
        raise ValueError("log needs constant term 1 and no other weight-0 terms")
    result = WSeries.zero(self.wmax, self.qmax)
    power = WSeries.const(1, self.wmax, self.qmax)
    for k in range(1, self.wmax + 1):
        power = power * u
        if power.is_zero():
            break
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


# -- the local factors, the integrand and the pushforward as two-variable series


def root_series(root, wmax, qmax):
    """The Chern root a*H + b*L as a series."""
    terms = {((("H", 1),), 0): Fraction(root.a), ((("L", 1),), 0): Fraction(root.b)}
    return WSeries(wmax, qmax, terms)


def reference_todd_factor(root, wmax, qmax=0):
    """l/(1 - e^{-l}) as the Newton inverse of sum_j (-1)^j l^j/(j+1)!."""
    if root.is_zero():
        return WSeries.const(1, wmax, qmax)
    lam = root_series(root, wmax, qmax)
    acc = WSeries.zero(wmax, qmax)
    power = WSeries.const(1, wmax, qmax)
    for j in range(0, wmax + 1):
        acc = acc + power * Fraction((-1) ** j, factorial(j + 1))
        power = power * lam
        if power.is_zero():
            break
    return acc.inverse()


def reference_lambda_y_factor(root, sign, wmax, qmax):
    """1 + y*exp(sign*l), with the exp taken as a series."""
    lam = root_series(root, wmax, qmax)
    return WSeries.y(wmax, qmax) * (lam * sign).exp() + 1


def reference_lambda_y_inverse(root, sign, wmax, qmax):
    """sum_m (-y)^m exp(sign*m*l): one series exp per y-degree."""
    out = WSeries.zero(wmax, qmax)
    for m in range(0, qmax + 1):
        e = (root_series(root, wmax, qmax) * (sign * m)).exp()
        out = out + e * WSeries(wmax, qmax, {((), m): Fraction((-1) ** m)})
    return out


def reference_one_minus_exp(root, wmax, qmax):
    """1 - exp(-l), with the exp taken as a series."""
    return 1 - (root_series(root, wmax, qmax) * -1).exp()


def reference_normal_factor(root, wmax, qmax):
    """(1 - exp(-l))/(1 + y*exp(-l)) as the product of its two exp-route
    halves."""
    inverse = reference_lambda_y_inverse(root, -1, wmax, qmax)
    return reference_one_minus_exp(root, wmax, qmax) * inverse


def reference_normal_z_series(root, wmax, qmax):
    """sum_n z^n (1 - exp(-l))^(n+1), z held in the y slots, from the
    ``Fraction`` t-coefficients (-1)^(k+1)/k! of 1 - e^(-t), raised to each
    power n + 1 by one truncated convolution per step, and t -> a*H (or
    b*L when a = 0) term by term; a root with both parts is not taken."""
    a, b = root.a, root.b
    if a and b:
        raise ValueError("a root with one nonzero part")
    var, scale = ("H", a) if a else ("L", b)
    base = [Fraction(0)] + [Fraction((-1) ** (k + 1), factorial(k)) for k in range(1, wmax + 1)]
    power, terms = [Fraction(1)] + [Fraction(0)] * wmax, {}
    for n in range(qmax + 1):
        power = [sum(power[i] * base[k - i] for i in range(k + 1)) for k in range(wmax + 1)]
        for k, c in enumerate(power):
            if c:
                terms[(((var, k),) if k else (), n)] = c * scale**k
    return WSeries(wmax, qmax, terms)


def reference_z_to_y(series):
    """A series in z = y/(1+y), held in the y slots, rewritten in y term by
    term in ``Fraction`` arithmetic: z^k = y^k (1+y)^-k = sum_i (-1)^i
    C(k+i-1, i) y^(k+i), and z^0 = 1."""
    out = defaultdict(Fraction)
    for (m, k), c in series.terms.items():
        if not k:
            out[(m, 0)] += c
            continue
        for i in range(series.qmax - k + 1):
            out[(m, k + i)] += c * (-1) ** i * comb(k + i - 1, i)
    return WSeries(series.wmax, series.qmax, out)


def normal_factor_in_y(root, wmax, qmax):
    """The normal factor N_z, a polynomial in z = y/(1+y), as the function
    of y it stands for: N_y = (1+y)^-1 N_z(y/(1+y)), by the Fraction term
    loop."""
    over = reference_lambda_y_inverse(RootForm(0, 0), -1, wmax, qmax)  # 1/(1+y)
    return reference_mul(reference_z_to_y(_normal_factor(root, wmax, qmax)), over)


def reference_fiber_integrand(spec, wmax, qmax):
    """D as one two-variable product per factor and root, in root order."""
    alternating = [Fraction((-1) ** m) for m in range(qmax + 1)]
    D = WSeries.from_y_poly(alternating, wmax, qmax)  # 1/(1+y)
    for root in spec.f_roots:
        D = D * reference_lambda_y_factor(root, -1, wmax, qmax)
        D = D * reference_todd_factor(root, wmax, qmax)
    for root in spec.n_roots:
        D = D * reference_one_minus_exp(root, wmax, qmax)
        D = D * reference_lambda_y_inverse(root, -1, wmax, qmax)
    return D


def reference_coefficients_of(series, var):
    """{exponent: series with var removed}, through dict monomials."""
    split = {}
    for (m, q), c in series.terms.items():
        d = dict(m)
        e = d.pop(var, 0)
        split.setdefault(e, {})[(mono_from_dict(d), q)] = c
    return {e: WSeries(series.wmax, series.qmax, t) for e, t in split.items()}


def reference_segre_series(bundle, wmax, qmax=0):
    """s_0..s_wmax of prod_j (1 + m_j L)^{-1}, one series inverse per
    exponent; the engine's Segre series before the integer recurrence."""
    L = WSeries.var("L", wmax, qmax)
    total = WSeries.const(1, wmax, qmax)
    for m in bundle.exps:
        if m:
            total = total * (L * m + 1).inverse()
    return [total.weight_component(k) for k in range(0, wmax + 1)]


def reference_term_pushforward(series, bundle):
    """H^(r-1+j) -> sigma_j L^j term by term on the ``Fraction`` terms, split
    by ``coefficients_of("H")``; the engine's pushforward before it read the
    packed form."""
    r = bundle.rank
    out_wmax = series.wmax - (r - 1)
    sigma = _segre_numbers(bundle, out_wmax)
    den = lcm(*{c.denominator for c in series.terms.values()})
    acc = {}
    for e, part in series.coefficients_of("H").items():
        j = e - (r - 1)
        if j < 0 or not sigma[j]:
            continue
        for (mono, q), c in part.terms.items():
            if j and mono and mono[0][0] == "L":  # L leads a canonical monomial
                mono = (("L", mono[0][1] + j),) + mono[1:]
            elif j:
                mono = (("L", j),) + mono
            n = c.numerator * (den // c.denominator) * sigma[j]
            acc[(mono, q)] = acc.get((mono, q), 0) + n
    terms = {key: Fraction(n, den) for key, n in acc.items() if n}
    return WSeries(out_wmax, series.qmax, terms)


def reference_pushforward(series, bundle, out_wmax):
    """H^(r-1+j) -> s_j(E) as one series product per H-power."""
    r, qmax = bundle.rank, series.qmax
    segre = reference_segre_series(bundle, out_wmax, qmax)
    out = WSeries.zero(out_wmax, qmax)
    for e, part in reference_coefficients_of(series, "H").items():
        j = e - (r - 1)
        if 0 <= j <= out_wmax:
            out = out + WSeries(out_wmax, qmax, part.terms) * segre[j]
    return out


def reference_map_powers(series, var, rows):
    """Each term of ``var``-degree e times each (monomial, int) entry of
    ``rows[e]``, one ``Fraction`` term at a time: the exponents add, and a
    variable whose exponent comes to 0 drops out."""
    out = {}
    for (mono, q), c in series.terms.items():
        exps = dict(mono)
        for m, k in rows[exps.get(var, 0)]:
            prod = dict(exps)
            for v, e in m:
                prod[v] = prod.get(v, 0) + e
            items = sorted(((v, e) for v, e in prod.items() if e), key=_var_order)
            key = (tuple(items), q)
            out[key] = out.get(key, 0) + c * k
    return WSeries(series.wmax, series.qmax, out)


def reference_hirzebruch_class(d, qmax):
    """(1+y)^d exp(sum_k a_k p_k), with a_k the L^k coefficients of
    ln(g(L)/(1+y)) for g(t) = (1 + y e^{-t}) t/(1 - e^{-t}), taken by
    ``WSeries.log`` with 1/(1+y) as a truncated y-series; g is built from
    the reference local factors, and no log-coefficient, local-factor or
    Hadamard code of the engine is used."""
    if d == 0:
        return WSeries.const(1, 0, qmax)
    L = RootForm(0, 1)
    g = reference_lambda_y_factor(L, -1, d, qmax) * reference_todd_factor(L, d, qmax)
    inv_1py = WSeries.from_y_poly([(-1) ** m for m in range(qmax + 1)], d, qmax)
    a = (g * inv_1py).log().coefficients_of("L")
    exponent = WSeries.zero(d, qmax)
    for k, p in enumerate(power_sums_from_chern(d, qmax), start=1):
        if k in a:
            exponent = exponent + p * a[k]
    return exponent.exp() * (WSeries.y(d, qmax) + 1) ** d


# -- the y-scalings of the weight parts, each by its own route


def reference_scale_weights(series, rows):
    """sum_k (weight-k part) * rows[k], each row a y-series, by
    ``reference_mul``."""
    wmax, qmax = series.wmax, series.qmax
    out = WSeries.zero(wmax, qmax)
    for k in range(wmax + 1):
        row = WSeries.from_y_poly(rows[k], wmax, qmax)
        out = out + reference_mul(series.weight_component(k), row)
    return out


def reference_reweight_by_one_plus_y(series):
    """The weight-k part times (1+y)^k, one binomial term at a time."""
    out = {}
    for (m, q), c in series.terms.items():
        k = mono_weight(m)
        for j in range(0, min(k, series.qmax - q) + 1):
            key = (m, q + j)
            out[key] = out.get(key, 0) + c * comb(k, j)
    return WSeries(series.wmax, series.qmax, out)


def reference_hadamard_apply(coeffs, series):
    """sum_k b_k * S_k as one series product per nonzero weight component."""
    wmax, qmax = series.wmax, series.qmax
    out = WSeries.zero(wmax, qmax)
    for k in range(1, wmax + 1):
        comp = series.weight_component(k)
        if not comp.is_zero():
            out = out + comp * WSeries.from_y_poly(coeffs[k - 1].coeffs, wmax, qmax)
    return out


def reference_power_sum_series(kmax, qmax):
    """-tC' and C = 1 - c1 + c2 - ... accumulated variable by variable, then
    one series division."""
    C = WSeries.const(1, kmax, qmax)
    minus_tCp = WSeries.zero(kmax, qmax)
    for i in range(1, kmax + 1):
        ci = WSeries.var("c%d" % i, kmax, qmax)
        C = C + ci * Fraction((-1) ** i)
        minus_tCp = minus_tCp + ci * Fraction(i * (-1) ** (i + 1))
    return minus_tCp * C.inverse()


def horner_hirzebruch_class(dim, qmax):
    """sum_k (1+y)^(dim-k) E_k by Horner in 1+y, E_k the weight-k part of
    exp(sum_k b_k p_k), with the b_k, the power sums and the Hadamard product
    taken by the references above."""
    if dim == 0:
        return WSeries.const(1, 0, qmax)
    bcoeffs = reference_chi_y_log_coefficients(dim)
    body = reference_hadamard_apply(bcoeffs, reference_power_sum_series(dim, qmax))
    body = body.exp()
    one_plus_y = WSeries.y(dim, qmax) + 1
    out = body.weight_component(0)
    for k in range(1, dim + 1):
        out = out * one_plus_y + body.weight_component(k)
    return out


def truncated_mul(a, b, order):
    """Product of two series given as coefficient lists of Polys, to ``order``.

    Entry k of each list is the coefficient of x^k; the result has exactly
    ``order + 1`` entries and drops everything past x^order.
    """
    out = [Poly() for _ in range(order + 1)]
    for i, ai in enumerate(a[: order + 1]):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if not bj.is_zero():
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


def reference_chi_y_log_coefficients(kmax):
    """b_1..b_kmax as the engine computed them before it used its own local
    factors: both factors of g((1+y)t)/(1+y) as lists of y-Polys, multiplied
    by ``truncated_mul``, and ln(1 + u) summed term by term."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    one_plus_y = Poly((1, 1))
    todd = _invert_fraction_series(
        [Fraction((-1) ** j, factorial(j + 1)) for j in range(kmax + 1)]
    )
    # (1 + y e^{-(1+y)t})/(1+y) = 1 + sum_{k>=1} ((-1)^k/k!) y (1+y)^(k-1) t^k
    g1 = [Poly.one()] + [
        Poly((0, Fraction((-1) ** k, factorial(k)))) * one_plus_y ** (k - 1)
        for k in range(1, kmax + 1)
    ]
    # (1+y)t/(1 - e^{-(1+y)t}) = sum_k tau_k (1+y)^k t^k
    g2 = [one_plus_y**k * tau for k, tau in enumerate(todd)]
    # ln(1 + u) with u = g1*g2 - 1 (u has no constant term)
    u = truncated_mul(g1, g2, kmax)
    u[0] = Poly()
    result = [Poly() for _ in range(kmax + 1)]
    power = [Poly.one()] + [Poly() for _ in range(kmax)]
    for m in range(1, kmax + 1):
        power = truncated_mul(power, u, kmax)
        r = Fraction((-1) ** (m + 1), m)
        result = [acc + p * r for acc, p in zip(result, power)]
    return result[1:]


# The paper's genus factors as written out, independently of ``_CLOSED``.
PAPER_CLOSED_TEXT = {
    "D5": "4 - y + (y+1)*(y*U - 3)/(y*U^2 + 1) - U*(y+1)^2/(y*U^2 + 1)^2",
    "E6": "3 - y + (y+1)*(y*U^2 - U - 2)/(y*U^3 + 1)",
    "E7": "2 - y + (y+1)*(y*U^3 - U - 1)/(y*U^4 + 1)",
    "E8": "1 - y + (y+1)*(y*U^5 - U)/(y*U^6 + 1)",
}


def reference_closed_form_q(family, wmax, qmax):
    """The closed-form genus factor expanded in the ``WSeries`` ring: U as a
    series exp, its powers, and a series inverse of 1 + y U^s."""
    data = _CLOSED.get(family)
    if data is None:
        raise KeyError("unknown family %r" % (family,))
    y = WSeries.y(wmax, qmax)
    U = (-WSeries.var("L", wmax, qmax)).exp()
    numer = WSeries.zero(wmax, qmax)
    for (yd, ud), coeff in data["numer"].items():
        numer = numer + y**yd * U**ud * coeff
    denom_inv = (y * U ** data["s"] + 1).inverse()
    Q = data["lead"] - y + (y + 1) * numer * denom_inv
    if data.get("extra"):
        Q = Q - U * (y + 1) ** 2 * denom_inv**2
    return Q


def reference_pushforward_class(family_or_spec, q, d, qmax):
    """sum_{i<=q} P_{q-i}(U) * H_i(B): the y^q part of Q * H_y(B) to weight d,
    convolved from the y-slices of the two factors one pair at a time."""
    if isinstance(family_or_spec, str):
        Q = closed_form_q(family_or_spec, d, qmax)
    else:
        Q = derived_q(family_or_spec, d, qmax)
    base = hirzebruch_class(d, qmax)
    out = WSeries.zero(d, qmax)
    for i in range(0, q + 1):
        out = out + Q.y_slice(q - i) * base.y_slice(i)
    return out


def evaluate_by_weight(series, values):
    """{weight k: the weight-k part as a y-Poly} at values[var] per variable,
    one ``Fraction`` term at a time."""
    rows = {}
    for (mono, q), c in series.terms.items():
        at = 1
        for var, e in mono:
            at *= values[var] ** e
        rows.setdefault(mono_weight(mono), [0] * (series.qmax + 1))[q] += c * at
    return {k: Poly(row) for k, row in rows.items()}


def dense_poly_mul(a, b):
    """a * b over every coefficient pair, zeros included; a scalar b scales a.
    Patched in as ``Poly.__mul__`` it gives the dense product."""
    if isinstance(b, (int, Fraction)):
        return Poly([c * b for c in a.coeffs])
    if not isinstance(b, Poly):
        return NotImplemented
    if a.is_zero() or b.is_zero():
        return Poly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the arguments of
    every call; returns the (live) list of argument tuples."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def is_read(product):
    """Whether a deferred ``series._Product`` has built its packed form: its
    slot is read past ``__getattr__``, so the check builds nothing."""
    try:
        object.__getattribute__(product, "_packed")
    except AttributeError:
        return False
    return True


def run_in_threads(calls, count):
    """Run ``calls(seed)`` for seeds 0..count-1, each in its own thread, at a
    switch interval of 1 us, so that the threads interleave between almost
    any two bytecodes (the interval is restored after); returns the
    exceptions the calls raised."""
    errors = []

    def run(seed):
        try:
            calls(seed)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return errors


def count_calls_everywhere(monkeypatch, module, name):
    """``count_calls`` of ``module.name``, with the wrapper also set in every
    other loaded ``ellgenus`` module that imported the function, so the list
    holds the calls of every caller."""
    real = getattr(module, name)
    calls = count_calls(monkeypatch, module, name)
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("ellgenus.") and other is not module:
            if vars(other).get(name) is real:
                monkeypatch.setattr(other, name, getattr(module, name))
    return calls


def _scan_weight(mono):
    """Weight of a monomial, read off the variable names."""
    return sum((1 if v in ("L", "H") else int(v[1:])) * e for v, e in mono)


def reference_part(series, k=None, q=None):
    """The terms of weight ``k`` and y-degree ``q`` (None: any), found by a
    scan of every term.  With ``q`` given the y-degree is dropped, as
    ``coeff`` and ``y_slice`` drop it."""
    out = {}
    for (mono, qq), c in series.terms.items():
        if k in (None, _scan_weight(mono)) and q in (None, qq):
            out[(mono, qq if q is None else 0)] = c
    return WSeries(series.wmax, series.qmax, out)


# -- the writers from the ``terms`` view alone: the oracles of ``sorted_terms``,
# ``to_text``, ``to_latex``, the JSON writer and the rows of ``q``; none of
# them calls the engine's render code


def _reference_order(mono):
    """A monomial's (variable, exponent) pairs with L < H < c1 < c2 < ..."""
    return [(0 if v == "L" else 1 if v == "H" else 1 + int(v[1:]), e) for v, e in mono]


def reference_sorted_terms(series):
    """(monomial, y-degree, numerator, denominator) of every term, sorted by
    weight, y-degree and then ``_reference_order``."""
    items = sorted(series.terms.items(), key=lambda item: (
        _scan_weight(item[0][0]), item[0][1], _reference_order(item[0][0])))
    return [(mono, q, c.numerator, c.denominator) for (mono, q), c in items]


def _reference_sum(terms, latex):
    """The signed sum of sorted terms, one string operation at a time."""
    parts = []
    for mono, q, n, d in terms:
        factors = []
        for v, e in list(mono) + ([("y", q)] if q else []):
            name = "c_{%s}" % v[1:] if latex and v.startswith("c") else v
            if e == 1:
                factors.append(name)
            else:
                factors.append(("%s^{%d}" if latex else "%s^%d") % (name, e))
        c = Fraction(abs(n), d)
        if c.denominator == 1:
            coeff = str(c.numerator)
        else:
            coeff = (r"\frac{%d}{%d}" if latex else "%d/%d") % (c.numerator, c.denominator)
        body = factors if factors and c == 1 else [coeff] + factors
        parts.append(("-" if n < 0 else "+", (" " if latex else "*").join(body)))
    if not parts:
        return "0"
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def reference_text(series, latex=False):
    """``series.to_text()``, or ``to_latex()`` with ``latex`` set."""
    return _reference_sum(reference_sorted_terms(series), latex)


def reference_y_rows(series):
    """The text of each y^q coefficient of ``series``, q = 0..qmax."""
    terms = reference_sorted_terms(series)
    return [
        _reference_sum([(m, 0, n, d) for m, qq, n, d in terms if qq == q], False)
        for q in range(series.qmax + 1)
    ]


def reference_series_json_text(series):
    """The series' JSON records, written by ``json`` from the terms."""
    blocks = {}
    for (mono, q), c in series.terms.items():
        blocks.setdefault((_scan_weight(mono), q), []).append((mono, c))
    records = []
    for k, q in sorted(blocks):
        terms = sorted(blocks[(k, q)], key=lambda t: _reference_order(t[0]))
        records.append({"t_deg": k, "y_deg": q, "terms": [
            {"exps": dict(mono), "coeff": str(c)} for mono, c in terms]})
    data = {"wmax": series.wmax, "qmax": series.qmax, "records": records}
    return json.dumps(data, indent=2, sort_keys=True)


def reference_integrate(cls, table):
    """sum of coefficient * table value, one ``Fraction`` operation at a time."""
    total = Fraction(0)
    for (mono, _q), c in cls.terms.items():
        total += c * table[mono]
    return total


def _weighted_exponents(weights, total):
    if not weights:
        if total == 0:
            yield ()
        return
    for e in range(0, total // weights[0] + 1):
        for tail in _weighted_exponents(weights[1:], total - e * weights[0]):
            yield (e,) + tail


def reference_projective_space_table(d, n):
    """The P^d, L = O(n) table from ``Fraction`` powers: L -> n, c_i ->
    C(d+1, i), over every exponent tuple of weight d."""
    names = ["L"] + ["c%d" % i for i in range(1, d + 1)]
    values = [Fraction(n)] + [Fraction(comb(d + 1, i)) for i in range(1, d + 1)]
    table = {}
    for exps in _weighted_exponents([1] + list(range(1, d + 1)), d):
        value = Fraction(1)
        for x, e in zip(values, exps):
            value *= x**e
        table[mono_from_dict(dict(zip(names, exps)))] = value
    return table


def reference_p1_times_p1_table(a, b):
    """The P^1 x P^1, L = O(a, b) table from formal roots: H1^2 = H2^2 = 0,
    int H1 H2 = 1, c = (1 + H1)^2 (1 + H2)^2 and L = a H1 + b H2."""

    def mul(x, y):  # classes as {(i, j): coefficient of H1^i H2^j}
        out = defaultdict(int)
        for (i, j), u in x.items():
            for (k, l), v in y.items():
                if i + k < 2 and j + l < 2:
                    out[i + k, j + l] += u * v
        return out

    one_h1, one_h2 = {(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1}
    c = mul(mul(one_h1, one_h1), mul(one_h2, one_h2))
    c1 = {e: v for e, v in c.items() if sum(e) == 1}
    L = {(1, 0): a, (0, 1): b}
    return {
        mono_from_dict({"L": 2}): mul(L, L)[1, 1],
        mono_from_dict({"L": 1, "c1": 1}): mul(L, c1)[1, 1],
        mono_from_dict({"c1": 2}): mul(c1, c1)[1, 1],
        mono_from_dict({"c2": 1}): c[1, 1],
    }


# -- the packed multiply and shear one numerator pair at a time: the oracles of
# the folded kernels, copied from the engine before its y-polynomials were
# folded into ints, with their helpers; nothing here comes from ``ellgenus``.
# A packed series is ({key: numerator}, den), its key of bit-fields y-degree,
# weight, L, H, c1, c2, ... of ``_width`` bits each.


def _field(name):
    """(bit-field index, weight) of L, H or ci in a packed key."""
    if name in ("L", "H"):
        return (2 if name == "L" else 3), 1
    return 3 + int(name[1:]), int(name[1:])


def _width(wmax, qmax):
    """Bits per field of a packed key at truncation (wmax, qmax): at least
    4, so every order below 16 packs at one width."""
    return max(wmax, qmax, 15).bit_length()


def _reduced(acc, den):
    """The nonzero numerators of ``acc`` over ``den``, both divided by their
    common gcd, so ``den`` is the lcm of the reduced coefficient denominators."""
    g = gcd(den, *acc.values())
    if g == 1 and 0 not in acc.values():  # most products: keep the dict as it is
        return dict(acc), den
    return {key: n // g for key, n in acc.items() if n}, den // g


def pair_loop_packed_mul(a, b, wmax, qmax):
    """Product of two packed series at truncation (wmax, qmax).

    The terms of ``b`` are bucketed by weight, each bucket in order of
    y-degree, so the partners of the ``a`` terms of one weight w1 and
    y-degree q1 are one prefix of each bucket of weight <= wmax - w1.  Put the
    operand with more terms per (weight, y-degree) first.
    """
    (left, da), (right, db) = a, b
    width = _width(wmax, qmax)
    mask = (1 << width) - 1
    buckets = [[] for _ in range(wmax + 1)]
    ydegs = [[] for _ in range(wmax + 1)]
    for key in sorted(right, key=mask.__and__):
        w = key >> width & mask
        buckets[w].append((key, right[key]))
        ydegs[w].append(key & mask)
    groups = {}
    low = (1 << 2 * width) - 1  # the y and weight fields
    for key, n in left.items():
        groups.setdefault(key & low, []).append((key, n))
    acc = defaultdict(int)
    for wq, group in groups.items():
        w1 = wq >> width
        qroom = qmax - (wq & mask)
        partners = []
        for w2 in range(wmax - w1 + 1):
            partners += buckets[w2][: bisect_right(ydegs[w2], qroom)]
        for k1, n1 in group:
            for k2, n2 in partners:
                acc[k1 + k2] += n1 * n2
    return _reduced(acc, da * db)


def pair_loop_folded_mul(a, b, wmax, mask, cut, mu=1, shift=0):
    """Product of two folded series (keys without their y field, the weight
    in the lowest field), one monomial pair at a time: a pair is kept when
    its weights sum to at most wmax and, with ``mu`` > 1, its eps-degrees
    (the field at ``shift``) to less than mu; each key's sum is taken mod
    2^cut.  Every kept pair's key stays, whatever its sum."""
    acc = {}
    for r1, f1 in a.items():
        for r2, f2 in b.items():
            if (r1 & mask) + (r2 & mask) > wmax:
                continue
            if mu > 1 and (r1 >> shift & mask) + (r2 >> shift & mask) >= mu:
                continue
            acc[r1 + r2] = (acc.get(r1 + r2, 0) + f1 * f2) % (1 << cut)
    return acc


def pair_loop_packed_shear(a, s, wmax, qmax):
    """A packed series at H -> H + s*L, any other variables kept.

    By the binomial theorem H^k spreads to sum_j C(k, j) s^j H^(k-j) L^j,
    which keeps every weight, so nothing is truncated and no product is
    needed: moving j from the H field to the L field is one int addition to
    the key.  With s = p/r and k at most K, the numerators take
    C(k, j) p^j r^(K-j) over the denominator den * r^K.
    """
    nums, den = a
    if not s or not nums:
        return a
    width = _width(wmax, qmax)
    mask = (1 << width) - 1
    hshift = _field("H")[0] * width
    step = (1 << _field("L")[0] * width) - (1 << hshift)  # one unit from H to L
    top = max(key >> hshift & mask for key in nums)
    p, r = s.numerator, s.denominator
    rows = [
        [(j * step, comb(k, j) * p**j * r ** (top - j)) for j in range(k + 1)]
        for k in range(top + 1)
    ]
    acc = defaultdict(int)
    for key, n in nums.items():
        for offset, c in rows[key >> hshift & mask]:
            acc[key + offset] += n * c
    return _reduced(acc, den * r**top)


def pair_loop_sheared_product(groups, wmax, qmax):
    """The product of the packed groups {slope: packed series}, each at
    H -> H + slope*L, as nested shears and products on the pair-loop
    kernels: with slopes s1 < ... < sk, S_s1(G1 * S_(s2-s1)(G2 * ...(Gk))),
    a route apart from the read of ``series._Product``, which shears each
    group by its own slope and then multiplies."""
    slopes = sorted(groups, reverse=True)
    acc = groups[slopes[0]]
    for above, slope in zip(slopes, slopes[1:]):
        acc = pair_loop_packed_shear(acc, above - slope, wmax, qmax)
        acc = pair_loop_packed_mul(acc, groups[slope], wmax, qmax)
    return pair_loop_packed_shear(acc, slopes[-1], wmax, qmax)


def argparse_parser():
    """The command line as an argparse parser: the four commands, their
    positionals and options, with the handlers of ``cli`` and an order type
    named ``_order`` as argparse names it in its messages.  It shares no
    parsing code with ``cli``'s option table."""

    def _order(text):
        if cli._integer(text) < 0:
            raise argparse.ArgumentTypeError("must be >= 0, got %s" % text)
        return int(text)

    parser = argparse.ArgumentParser(prog="ellgenus")
    sub = parser.add_subparsers(dest="command", required=True)
    p_q = sub.add_parser("q")
    p_q.add_argument("family")
    p_q.add_argument("--wmax", type=_order, default=DEFAULT_WMAX)
    p_q.add_argument("--qmax", type=_order, default=DEFAULT_QMAX)
    p_q.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_q.add_argument("--closed", action="store_true")
    p_q.set_defaults(func=cli.cmd_q)
    p_pt = sub.add_parser("ptable")
    p_pt.add_argument("family")
    p_pt.add_argument("--nmax", type=_order, default=6)
    p_pt.add_argument("--check", action="store_true")
    p_pt.set_defaults(func=cli.cmd_ptable)
    p_chi = sub.add_parser("chi")
    p_chi.add_argument("family")
    p_chi.add_argument("--base")
    p_chi.add_argument("--base-file")
    p_chi.add_argument("--q", default="all")
    p_chi.add_argument("--class", dest="show_class", action="store_true")
    p_chi.set_defaults(func=cli.cmd_chi)
    p_v = sub.add_parser("verify")
    p_v.add_argument("--family", default="all", choices=("all",) + FAMILIES)
    p_v.add_argument("--wmax", type=_order, default=DEFAULT_WMAX)
    p_v.add_argument("--qmax", type=_order, default=DEFAULT_QMAX)
    p_v.set_defaults(func=cli.cmd_verify)
    return parser

"""Self-verification suites: every identity the engine is built on, run as
exact checks with minimal counterexample reporting.

Each suite function returns a list of failure strings (empty means pass);
suite inputs default to the catalog but accept substitutes so that tests
can inject corrupted data as negative controls.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .charclasses import (
    chi_y_log_coefficients,
    hadamard_apply,
    hirzebruch_class,
    power_sum_series,
    power_sums_from_chern,
)
from .fibrations import (
    CATALOG,
    FAMILIES,
    closed_form_q,
    derived_q,
    fiber_integrand,
    _CLOSED,
    p_polynomials,
    p_table_reference,
    pushforward_class,
)
from .genseries import BaseSpec, chi_q, chi_series, chi_values, euler_series_e8
from .poly import Poly
from .pushforward import derivative_pushforward_d5, pushforward
from .series import WSeries, mono_from_dict


def first_mismatch(a, b):
    """Smallest (weight, y-degree) where two series differ, with both values."""
    for k in range(0, min(a.wmax, b.wmax) + 1):
        for q in range(0, min(a.qmax, b.qmax) + 1):
            ca, cb = a.coeff(k, q), b.coeff(k, q)
            if ca != cb:
                return (k, q, ca, cb)
    return None


def check_derived_vs_closed(families=FAMILIES, wmax=6, qmax=7, specs=None):
    """Pushforward route against the closed-form expansion, coefficient
    by coefficient."""
    specs = specs or CATALOG
    failures = []
    for fam in families:
        derived = derived_q(specs[fam], wmax, qmax)
        closed = closed_form_q(fam, wmax, qmax)
        if derived != closed:
            k, q, ca, cb = first_mismatch(derived, closed)
            failures.append(
                "%s: first mismatch at weight %d, y^%d: derived %s vs closed %s"
                % (fam, k, q, ca.to_text(), cb.to_text())
            )
    return failures


def check_p_table(families=FAMILIES, nmax=6):
    """y-expansion against the tabulated polynomials, plus the structural
    rows: P_0 = 1 - U, P_n(1) = 0, and the expected U-degrees."""
    failures = []
    one_minus_u = 1 - Poly.x()
    for fam in families:
        s = _CLOSED[fam]["s"]
        table = p_polynomials(fam, nmax)
        for n, got in enumerate(table):
            want = p_table_reference(fam, n)
            if got != want:
                failures.append(
                    "%s: P_%d = %s, table says %s"
                    % (fam, n, got.to_text(), want.to_text())
                )
                continue
            if got.evaluate(1) != 0:
                failures.append("%s: P_%d(1) = %s != 0" % (fam, n, got.evaluate(1)))
            if got.degree() != s * n + 1:
                failures.append(
                    "%s: P_%d has U-degree %d, expected %d"
                    % (fam, n, got.degree(), s * n + 1)
                )
        if table[0] != one_minus_u:
            failures.append("%s: P_0 != 1 - U" % fam)
    return failures


def _random_h_series(rng, wmax, qmax, nterms=12):
    terms = {}
    for _ in range(nterms):
        he = rng.randrange(0, wmax + 1)
        le = rng.randrange(0, wmax + 1 - he)
        q = rng.randrange(0, qmax + 1)
        mono = mono_from_dict({"H": he, "L": le})
        coeff = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        terms[(mono, q)] = terms.get((mono, q), Fraction(0)) + coeff
    return WSeries(wmax, qmax, terms)


def check_d5_derivative_oracle(wmax=6, qmax=7, nrandom=50, seed=20230517):
    """``pushforward``, by residues, against the derivative formula, on the
    D5 integrand and on random series in H, L, y (input weight wmax, so both
    routes produce output exact to weight wmax - 3).  The residues take the
    integrand unread, as its slope groups, and a random series as one group
    at slope 0; the derivative route then reads the integrand's terms, the
    product of its groups each sheared by its slope (``series._shear``)."""
    failures = []
    wmax = max(wmax, 3)
    bundle = CATALOG["D5"].bundle
    D = fiber_integrand(CATALOG["D5"], wmax, qmax)
    via_residues = pushforward(D, bundle)
    via_deriv = derivative_pushforward_d5(D)
    if via_residues != via_deriv:
        k, q, ca, cb = first_mismatch(via_residues, via_deriv)
        failures.append(
            "D5 integrand: mismatch at weight %d, y^%d: %s vs %s"
            % (k, q, ca.to_text(), cb.to_text())
        )
    rng = random.Random(seed)
    for i in range(nrandom):
        s = _random_h_series(rng, wmax, qmax)
        if pushforward(s, bundle) != derivative_pushforward_d5(s):
            failures.append("random series #%d: routes disagree" % i)
    return failures


def _elementary_symmetric(roots):
    """[e_0, e_1, ..., e_len(roots)] of integer roots."""
    e = [1]
    for lam in roots:
        e = [a + lam * b for a, b in zip(e + [0], [0] + e)]
    return e


def _compile_chern_series(polys):
    """The y-free series ``polys`` in the Chern classes c_i, ready for int
    evaluation: (tree, [(denominator, [(monomial index, numerator), ...])
    per series]), every numerator over its series' one int denominator.

    Index 0 is the monomial 1; monomial j >= 1 is its parent's times c_i,
    for (parent index, i) = tree[j - 1], every parent first.  A variable
    other than c_i (i >= 1) raises ValueError; it is never skipped.
    """
    index, tree = {(): 0}, []

    def place(factors):
        if factors not in index:
            i, x = factors[-1]
            parent = place(factors[:-1] + (((i, x - 1),) if x > 1 else ()))
            tree.append((parent, i))
            index[factors] = len(tree)
        return index[factors]

    compiled = []
    for series in polys:
        terms = []
        for row in series._by_slice().values():  # its packed numerators
            for _key, mono, n in row:
                factors = []
                for var, e in mono:
                    i = int(var[1:]) if var[:1] == "c" and var[1:].isdigit() else 0
                    if i < 1:
                        raise ValueError("%r is not a Chern class c_i" % var)
                    factors.append((i, e))
                terms.append((place(tuple(factors)), n))
        compiled.append((series._packed[1], terms))
    return tree, compiled


def _monomial_values(e, tree):
    """The value of every c-monomial of ``tree`` at c_i := e[i] (0 past the
    roots), each its parent's value times one c_i."""
    values, n = [1], len(e)
    for parent, i in tree:
        values.append(values[parent] * e[i] if i < n else 0)
    return values


def check_hadamard_identity(max_abs_root=2, max_d=6, order=6):
    """The library's Hadamard product as a series, and its power sums at
    integer roots.

    The series half: ``hadamard_apply(chi_y_log_coefficients(order),
    power_sum_series(order, qmax=order))`` must equal sum_k b_k p_k, each
    p_k of ``power_sums_from_chern`` times b_k by the series product.  The
    roots half: for every multiset of 1..max_d roots in [-max_abs_root,
    max_abs_root], p_k at c_i := e_i(roots) must be sum_i l_i^k.  The c_i
    are symmetric in the roots, so multisets cover every ordered tuple.
    Together they give the product at every multiset by linearity,
    b_k p_k(e(roots)) = b_k sum_i l_i^k, and the series half sees every
    c_i, also those that no multiset of max_d roots reaches.

    Each p_k is compiled once to int numerators over its denominator, and
    at a multiset every c-monomial is its parent's value times one c_i, so
    p_k costs one multiply-add per term.
    """
    bcoeffs = chi_y_log_coefficients(order)
    psums = power_sums_from_chern(order)
    failures = []
    product = hadamard_apply(bcoeffs, power_sum_series(order, qmax=order))
    want = WSeries.zero(order, order)
    for p, b in zip(psums, bcoeffs):
        want = want + WSeries(order, order, p.terms) * WSeries.from_y_poly(
            b.coeffs, order, order)
    if product != want:
        k, q, ca, cb = first_mismatch(product, want)
        failures.append(
            "weight %d, y^%d: hadamard_apply gives %s, b_%d p_%d is %s"
            % (k, q, ca.to_text(), k, k, cb.to_text())
        )
    tree, compiled = _compile_chern_series(psums)
    root_range = range(-max_abs_root, max_abs_root + 1)
    for d in range(1, max_d + 1):
        for roots in combinations_with_replacement(root_range, d):
            values = _monomial_values(_elementary_symmetric(roots), tree)
            for k, (den, terms) in enumerate(compiled, 1):
                direct = sum([lam**k for lam in roots])
                got = sum([n * values[m] for m, n in terms])
                if got != direct * den:
                    failures.append(
                        "roots %s: p_%d gives %s, sum of l^%d is %s"
                        % (roots, k, Fraction(got, den), k, direct)
                    )
    return failures


def check_euler_e8(dmax=4):
    """Alternating y-sums of the E8 chi series against the Euler series."""
    failures = []
    qmax = dmax + 2
    chi = chi_series("E8", dmax, qmax)
    euler = euler_series_e8(dmax, qmax)
    for d in range(1, dmax + 1):
        alt = WSeries.zero(dmax, qmax)
        for q in range(0, qmax + 1):
            alt = alt + chi.coeff(d, q) * Fraction((-1) ** q)
        if alt != euler.weight_component(d):
            failures.append("weight %d alternating sum != Euler coefficient" % d)
    base = BaseSpec.projective_space(2, 3)
    total = sum(
        chi_q("E8", base, q) * Fraction((-1) ** q) for q in range(0, 4)
    )
    if total != -540:
        failures.append("E8 over (P^2, O(3)): alternating sum %s != -540" % total)
    return failures


def _sample_bases(max_dim=3):
    """(d, n, (P^d, O(n))) for n in 1, 2 and d + 1, each n once."""
    return [
        (d, n, BaseSpec.projective_space(d, n))
        for d in range(1, max_dim + 1)
        for n in dict.fromkeys((1, 2, d + 1))
    ]


def check_serre_duality(families=FAMILIES, max_dim=3):
    """chi_q = (-1)^(d+1) chi_(d+1-q) over the sample bases, plus the
    anticanonical (Calabi-Yau) value of chi_0.

    With L anticanonical the total space has trivial canonical class, so
    chi_0 = 1 + (-1)^(dim Y): zero for odd-dimensional Y (e.g. threefolds
    over P^2) and 2 for even-dimensional Y (K3 over P^1, fourfolds over
    P^3).
    """
    failures = []
    for fam in families:
        for d, n, base in _sample_bases(max_dim):
            vals = chi_values(fam, base)
            dimY = d + 1
            for q in range(0, dimY + 1):
                if vals[q] != Fraction((-1) ** dimY) * vals[dimY - q]:
                    failures.append(
                        "%s over (P^%d, O(%d)): chi_%d=%s vs dual chi_%d=%s"
                        % (fam, d, n, q, vals[q], dimY - q, vals[dimY - q])
                    )
            if n == d + 1 and vals[0] != 1 + (-1) ** dimY:
                failures.append(
                    "%s over (P^%d, anticanonical): chi_0 = %s != %d"
                    % (fam, d, vals[0], 1 + (-1) ** dimY)
                )
    return failures


def check_integrality(families=FAMILIES, max_dim=3):
    failures = []
    for fam in families:
        for d, n, base in _sample_bases(max_dim):
            for q, v in enumerate(chi_values(fam, base)):
                if v.denominator != 1:
                    failures.append(
                        "%s over (P^%d, O(%d)): chi_%d = %s is not an integer"
                        % (fam, d, n, q, v)
                    )
    return failures


def check_route_consistency(families=FAMILIES, max_dim=4):
    """Generating-series classes against the weight-d part of Q * H_y(B),
    exactly.  The class route's exp(sum b_k p_k) is built once, at the top
    order (max_dim, max_dim + 2), so that every lower d truncates it."""
    failures = []
    if families and max_dim >= 0:
        hirzebruch_class(max_dim, max_dim + 2)
    for fam in families:
        for d in range(0, max_dim + 1):
            chi = chi_series(fam, d)
            pushed = pushforward_class(fam, d)
            for q in range(0, d + 2):
                lhs = chi.coeff(d, q)
                rhs = pushed.coeff(d, q)
                if lhs != rhs:
                    failures.append(
                        "%s, d=%d, q=%d: series class %s vs pushforward class %s"
                        % (fam, d, q, lhs.to_text(), rhs.to_text())
                    )
    return failures


def run_suites(families="all", wmax=6, qmax=7):
    """Run all suites; returns (ok, [(name, failures)] in suite order)."""
    fams = FAMILIES if families == "all" else (families,)
    results = [
        ("derived-vs-closed", check_derived_vs_closed(fams, wmax, qmax)),
        ("p-table", check_p_table(fams, nmax=min(6, qmax))),
        ("d5-derivative-oracle", check_d5_derivative_oracle(wmax, qmax, nrandom=10)),
        ("hadamard-identity", check_hadamard_identity()),
        ("euler-crosscheck", check_euler_e8()),
        ("serre-duality", check_serre_duality(fams)),
        ("integrality", check_integrality(fams)),
        ("route-consistency", check_route_consistency(fams, max_dim=min(4, wmax))),
    ]
    ok = all(not fails for _name, fails in results)
    return ok, results

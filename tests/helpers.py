"""Shared test utilities: random series generators, an independent
numeric evaluator used as a brute-force oracle, and the plain
dict/``Fraction`` series multiply used as the oracle of the packed kernel."""

from fractions import Fraction

from ellgenus import WSeries, mono_from_dict, mono_weight


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

"""Pushforward along pi: P(E) -> B for E a direct sum of powers of one
line bundle.

Conventions: P(E) is the bundle of lines, H = c1(O(1)) with O(1) the dual
of the tautological subbundle, so pi_* sends H^(r-1+j) to the Segre class
s_j(E) and kills lower H-powers.  For E = sum_j L^(m_j) the total Segre
class is prod_j (1 + m_j L)^{-1}.  ``pushforward`` runs that map on every
series as a sum of residues at the bundle's exponents (``series._residues``).

A second, independent route for the rank-4 bundle (0,1,1,1) is kept as an
oracle: strip the H^0..H^2 part, divide by H, apply (1/2) d^2/dH^2 and
evaluate at H = -L.
"""

from fractions import Fraction
from operator import index

from .series import TruncationDeficitError, WSeries, _Record, _residues, mono_from_dict


class BundleSpec(_Record):
    """E = O(m_1 L) + ... + O(m_r L); order of the exponents is irrelevant.
    A frozen record of the int exponents, equal and hashed by them."""

    __match_args__ = ("exps",)

    def __init__(self, exps):
        exps = tuple(index(m) for m in exps)
        if len(exps) < 1:
            raise ValueError("bundle needs rank >= 1")
        self.__dict__.update(exps=exps, _key=exps)

    @property
    def rank(self):
        return len(self.exps)


def _segre_numbers(bundle, wmax):
    """[sigma_0..sigma_wmax] as ints: prod_j (1 + m_j L)^{-1} = sum_k sigma_k L^k.

    Dividing by 1 + m L is the recurrence sigma_k -= m sigma_(k-1), run in
    ascending k so that sigma_(k-1) is already divided."""
    sigma = [1] + [0] * wmax
    for m in bundle.exps:
        if m:
            for k in range(1, wmax + 1):
                sigma[k] -= m * sigma[k - 1]
    return sigma


def segre_series(bundle, wmax, qmax=0):
    """s_0..s_wmax with sum_k s_k = prod_j (1 + m_j L)^{-1}; s_0 = 1."""
    return [
        WSeries(wmax, qmax, {((("L", k),) if k else (), 0): sigma})
        for k, sigma in enumerate(_segre_numbers(bundle, wmax))
    ]


def pushforward(series, bundle):
    """Replace H^(r-1+j) by s_j(E), dropping H^i for i < r-1.

    The result is exact to ``series.wmax - (rank - 1)``; an input below
    weight rank - 1 raises :class:`TruncationDeficitError`.

    One route, the residues at the bundle's exponents (``series._residues``),
    takes a ``fiber_integrand`` (read or not) as its slope groups, with no
    shear or product in H and L, and any other series as one group at 0.
    """
    r = bundle.rank
    out_wmax = series.wmax - (r - 1)
    if out_wmax < 0:
        raise TruncationDeficitError(
            "pushforward along a rank-%d bundle needs input weight %d, have %d"
            % (r, r - 1, series.wmax)
        )
    groups = getattr(series, "_groups", {0: series})  # only a _Product has groups
    return _residues(groups, series.wmax, series.qmax, bundle.exps,
                     getattr(series, "_fiber_dim", None))


def derivative_pushforward_d5(series):
    """The displayed derivative instance of pi_* for the (0,1,1,1) bundle.

    (1/2) d^2/dH^2 [ (D - (a0 + a1 H + a2 H^2)) / H ] at H = -L, where the
    a_i are the low H-coefficients of D.  Exact to series.wmax - 3.
    """
    if series.wmax < 3:
        raise TruncationDeficitError("need input weight >= 3")
    qmax = series.qmax
    out_wmax = series.wmax - 3
    # (D - a0 - a1 H - a2 H^2) / H, assembled directly from H-coefficients
    shifted = {}
    for (m, q), c in series.terms.items():
        d = dict(m)
        e = d.get("H", 0)
        if e < 3:
            continue
        d["H"] = e - 1
        shifted[(mono_from_dict(d), q)] = c
    quotient = WSeries(series.wmax, qmax, shifted)
    second = quotient.diff_h().diff_h() * Fraction(1, 2)
    minus_L = -WSeries.var("L", series.wmax, qmax)
    return second.substitute("H", minus_L).truncate(out_wmax, qmax)

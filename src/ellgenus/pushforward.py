"""Pushforward along pi: P(E) -> B for E a direct sum of powers of one
line bundle.

Conventions: P(E) is the bundle of lines, H = c1(O(1)) with O(1) the dual
of the tautological subbundle, so pi_* sends H^(r-1+j) to the Segre class
s_j(E) and kills lower H-powers.  For E = sum_j L^(m_j) the total Segre
class is prod_j (1 + m_j L)^{-1}.

A second, independent route for the rank-4 bundle (0,1,1,1) is kept as an
oracle: strip the H^0..H^2 part, divide by H, apply (1/2) d^2/dH^2 and
evaluate at H = -L.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .series import TruncationDeficitError, WSeries, mono_from_dict
from .series import _field, _unpack, _width  # the packed form


@dataclass(frozen=True)
class BundleSpec:
    """E = O(m_1 L) + ... + O(m_r L); order of the exponents is irrelevant."""

    exps: tuple

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(index(m) for m in self.exps))
        if len(self.exps) < 1:
            raise ValueError("bundle needs rank >= 1")

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

    Each s_j(E) is a single term sigma_j * L^j with sigma_j an int (see
    :func:`_segre_numbers`), so the map runs on the packed form of ``series``:
    a key with H field r-1+j loses it and gains j in its L field, and its
    numerator takes a factor sigma_j.  The summed keys are decoded at the
    input's width, which reads no weight field, into one ``Fraction`` each.
    """
    r = bundle.rank
    wmax, qmax = series.wmax, series.qmax
    out_wmax = wmax - (r - 1)
    if out_wmax < 0:
        raise TruncationDeficitError(
            "pushforward along a rank-%d bundle needs input weight %d, have %d"
            % (r, r - 1, wmax)
        )
    # a term H^(r-1+j) m has weight <= wmax, so m L^j has weight <= out_wmax
    width = _width(wmax, qmax)
    hshift = _field("H")[0] * width
    lshift = _field("L")[0] * width
    # by H field e = r-1+j: (key offset from H^e to L^j, sigma_j)
    rows = [(0, 0)] * (r - 1) + [
        ((j << lshift) - (r - 1 + j << hshift), sigma)
        for j, sigma in enumerate(_segre_numbers(bundle, out_wmax))
    ]
    nums, den = series._packed
    acc = defaultdict(int)
    for key, n in nums.items():
        offset, sigma = rows[key >> hshift & (1 << width) - 1]
        if sigma:
            acc[key + offset] += n * sigma
    return WSeries(out_wmax, qmax, _unpack((acc, den), wmax, qmax))


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

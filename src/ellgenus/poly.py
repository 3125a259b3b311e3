"""Dense univariate polynomials over exact rationals.

The type of two kinds of polynomial: polynomials in y (the
log-coefficients of the chi_y factor) and polynomials in U = exp(-L) (the
y-coefficients of the closed-form genus factors).  There is no t-series
product here: a truncated t-series with Q[y] coefficients is a
:class:`~ellgenus.series.WSeries`.
"""

from fractions import Fraction
from math import lcm

from .series import _as_fraction, _sum_text

# the one zero every Poly shares (Fractions are immutable)
_ZERO = Fraction(0)

# plain text with no product sign and no space around a sign: '2U^3-U-4'
_COMPACT = ("%s^%d", str, "%d/%d", "", "")


def _convolve(a, b):
    """The product of two int coefficient lists, index = exponent."""
    out = [0] * (len(a) + len(b) - 1)
    right = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in right:
                out[i + j] += x * y
    return out


class Poly:
    """Coefficient list, index = exponent, trailing zeros stripped; a
    coefficient that is not an int or ``Fraction`` raises ``TypeError``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_ZERO if type(c) is int and not c else _as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        # int numerators over each side's lcm denominator
        da = lcm(*(c.denominator for c in self.coeffs))
        db = lcm(*(c.denominator for c in other.coeffs))
        out = _convolve([c.numerator * (da // c.denominator) for c in self.coeffs],
                        [c.numerator * (db // c.denominator) for c in other.coeffs])
        return Poly(out if da * db == 1 else [Fraction(n, da * db) for n in out])

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integers")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other):
        """Exact long division (quotient, remainder) over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem)

    def evaluate(self, x):
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_text(self, var="U", descending=True):
        """Compact rendering: '2U^3-U-4' style.

        Falls back to ascending order when descending would lead with a
        minus sign but a positive constant term exists ('1-U', not '-U+1').
        """
        items = list(enumerate(self.coeffs))
        if descending and not (self and self.coeffs[-1] < 0 < self[0]):
            items.reverse()
        terms = [
            (((var, e),) if e else (), 0, *c.as_integer_ratio()) for e, c in items if c
        ]
        return _sum_text(terms, _COMPACT)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "Poly(%s)" % (self.to_text(var="x", descending=False),)

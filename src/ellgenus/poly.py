"""Dense univariate polynomials over exact rationals.

The type of two kinds of polynomial: polynomials in y (the
log-coefficients of the chi_y factor) and polynomials in U = exp(-L) (the
y-coefficients of the closed-form genus factors).  A ``Poly`` stores int
numerators over one positive denominator, in lowest terms with trailing
zeros stripped, so its sums, products, comparisons and text run on ints;
``coeffs`` is a read-only ``Fraction`` view, built on first read.  There is
no t-series product here: a truncated t-series with Q[y] coefficients is a
:class:`~ellgenus.series.WSeries`.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .series import _as_fraction, _sum_text

# plain text with no product sign and no space around a sign: '2U^3-U-4'
_COMPACT = (0, "y^%d", "%d/%d", "", "")


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
    """Int numerators, index = exponent, over one positive denominator, in
    lowest terms with trailing zeros stripped; a coefficient that is not an
    int or ``Fraction`` raises ``TypeError``."""

    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _as_fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums, den):  # strips and reduces the list ``nums`` in place
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den != 1 else 1
        self._nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        self._den, self._coeffs = den // g, None

    @classmethod
    def _of_ints(cls, nums, den=1):
        """The Poly sum_k nums[k] x^k / den from a list of ints, ``den`` > 0."""
        poly = object.__new__(cls)
        poly._set(nums, den)
        return poly

    @classmethod
    def one(cls):
        return cls._of_ints([1])

    @classmethod
    def x(cls):
        return cls._of_ints([0, 1])

    @property
    def coeffs(self):
        """The read-only tuple of ``Fraction`` coefficients, index = exponent."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(n, self._den) for n in self._nums)
        return self._coeffs

    def degree(self):
        return len(self._nums) - 1

    def is_zero(self):
        return not self._nums

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __getitem__(self, k):
        if 0 <= k < len(self._nums):
            return Fraction(self._nums[k], self._den)
        return Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return Poly._of_ints([x * a + y * b for x, y in
                              zip_longest(self._nums, other._nums, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of_ints([-n for n in self._nums], self._den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        return Poly._of_ints(_convolve(self._nums, other._nums), self._den * other._den)

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
        """The value at ``x`` = p/r, by Horner on the numerators: the sum of
        n_i p^i r^(deg-i), over den r^deg, made a ``Fraction`` once."""
        if not isinstance(x, int):
            x = _as_fraction(x)
        p, r = x.numerator, x.denominator
        acc, rk = 0, 1  # rk = r^(deg - i) at the numerator n_i
        for n in reversed(self._nums):
            acc, rk = acc * p + n * rk, rk * r
        return Fraction(acc * r, self._den * rk)

    def to_text(self, var="U", descending=True):
        """Compact rendering: '2U^3-U-4' style.

        Falls back to ascending order when descending would lead with a
        minus sign but a positive constant term exists ('1-U', not '-U+1').
        """
        nums, den = self._nums, self._den
        items = list(enumerate(nums))
        if descending and not (nums and nums[-1] < 0 < nums[0]):
            items.reverse()
        terms = [((var if e == 1 else "%s^%d" % (var, e) if e else "",), 0, n // g, den // g)
                 for e, n in items if n for g in (gcd(n, den),)]
        return _sum_text(terms, _COMPACT)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "Poly(%s)" % (self.to_text(var="x", descending=False),)

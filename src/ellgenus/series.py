"""Exact weight-truncated multivariate series with a polynomial y-direction.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``);
nothing in this module ever touches floating point.  The variable alphabet
is fixed: the hyperplane class ``H`` and the line-bundle class ``L`` (both
of weight 1) together with formal Chern classes ``c1, c2, ...`` (``ci`` of
weight ``i``).  Every series is truncated at a weight bound ``wmax`` and a
y-degree bound ``qmax``; y itself carries weight 0.

The weight grading doubles as the t-grading of all generating series in
this package: the coefficient of ``t^k`` is the weight-k homogeneous
component, so no t variable is stored.  Substituting ``t -> t*(1+y)``
therefore becomes :meth:`WSeries.reweight_by_one_plus_y`.

Monomials are canonical tuples of ``(variable, exponent)`` pairs with
positive exponents, ordered L < H < c1 < c2 < ...; the empty tuple is the
constant monomial.

A series stores one form of its value, the reduced packed form: a dict from
int key to int numerator plus one common denominator.  This module alone
reads or writes the bits of a key.  The operations run on the packed form;
only the ``terms`` view builds a ``Fraction`` per term:

- ``_pack`` is the one encoder: it packs int numerators keyed by (monomial,
  y-degree) into int keys of bit-fields of equal width: field 0 holds the
  y-degree, field 1 the weight, field 2 L, field 3 H and field 3+i ci.  The
  width is ``max(wmax, qmax, 15).bit_length()`` bits, so every order below
  16 packs at one width of 4 bits.  Adding two keys adds the y-degrees, the
  weights and every exponent at once, and no field can carry into the next:
  a kept pair has q1 + q2 <= qmax and w1 + w2 <= wmax, and every variable
  has weight >= 1, so no exponent exceeds wmax.  Only the constructor packs
  int numerators: ``truncate`` filters the keys, and at a narrower width
  moves each field of the kept ones to it (``_rewidth``).
- ``_packed_mul`` folds each monomial's y-polynomial into one int, the sum
  of n_q 2^(B*q) (``_fold``), so one int product of two monomials is their
  y-convolution, done in C; ``_unfold`` reads the slots 0..qmax back as
  signed digits.  Each slot holds its sum: in a product each term of one
  operand has at most one partner in the other, so a slot sums at most
  min(#terms) products and B = bits(max|a|) + bits(max|b|) +
  bit_length(min #terms) + 1.  A chain of factors (a cold slope group)
  folds each distinct factor once, at one B for the whole chain that adds
  such a bit_length for every step, and unfolds once.  Only
  y is folded: a y-polynomial is dense (at most qmax + 1 slots, nearly all
  filled), while the sparse (y, L, H, ci) box would need far more slots.
- ``_shear`` applies H -> H + s*L as rows of a per-term loop
  (``_map_rows``), which also runs the residues' maps to a pole.
- ``_Product`` defers the product of its slope groups, each sheared by its
  slope: on its first read it multiplies the sheared groups and becomes a
  plain ``WSeries``.  Its pushforward before that, as that of any series
  (one group at slope 0), runs by residues at the bundle's exponents
  (``_residues``): at each pole the groups map by rows to jets in eps =
  H/L + m, held in the H field, and multiply with no shear and no dense
  (H, L) product; only the sum of the poles is unfolded.  With a fiber
  dimension f its groups are polynomials in z = y/(1+y), and the product
  or pushforward ends in one map of the folded ints, z^k -> (1+y)^f z^k =
  y^k (1+y)^(f-k) (``_to_y``), whose slots grow by the bits of the map's
  largest column sum, and one unfold.
- ``_unpack`` decodes for the ``terms`` view only: each key into a canonical
  monomial tuple and each numerator into one ``Fraction``.

A sum puts both numerator maps over the lcm of the denominators; a scalar
p/r scales the numerators by p and the denominator by r; ``_scale_weights``
adds j to a key for y^j.  ``_reduced`` then divides the numerators and the
denominator by their gcd, so a value has one packed form, its denominator
the lcm of the reduced coefficient denominators, and ``==`` compares packed
forms.  The slices (``coeff``, ``y_slice``, ``weight_component``), the
display (``sorted_terms``) and the pairing of ``genseries`` with a base read
one split of the packed keys by (weight, y-degree), built on first use with
each distinct monomial decoded once.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add, index, mul
from types import MappingProxyType


class TruncationMismatchError(ValueError):
    """Two series with different (wmax, qmax) were combined."""


class NotAUnitError(ValueError):
    """Inverse of a series whose constant (weight-0, y^0) term is zero."""


class TruncationDeficitError(ValueError):
    """An operation was asked for more output order than its input supports."""


def var_weight(name):
    """Weight of a variable: 1 for L and H, i for ci (ASCII, no leading 0)."""
    if name == "L" or name == "H":
        return 1
    digits = name[1:] if name.startswith("c") else ""
    if digits.isascii() and digits.isdigit() and digits[0] != "0":
        return int(digits)
    raise ValueError("unknown variable %r" % (name,))


@cache
def _field(name):
    """(bit-field index, weight) of a variable in a packed key, whose fields
    0 and 1 hold the y-degree and the weight.  The field index is also the
    canonical variable order L < H < c1 < ...."""
    w = var_weight(name)
    return (2 if name == "L" else 3 if name == "H" else 3 + w), w


@cache
def _field_name(f):
    return ("L", "H")[f - 2] if f < 4 else "c%d" % (f - 3)


def mono_from_dict(exps):
    """Canonical monomial from a {variable: exponent} mapping."""
    items = []
    for v, e in exps.items():
        var_weight(v)  # validates the name
        e = index(e)
        if e < 0:
            raise ValueError("negative exponent for %r" % (v,))
        if e:
            items.append((v, e))
    items.sort(key=lambda it: _field(it[0])[0])
    return tuple(items)


def mono_weight(mono):
    return sum(_field(v)[1] * e for v, e in mono)


def _mono_sort_key(mono):
    return tuple((_field(v)[0], e) for v, e in mono)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


def _truncation_orders(wmax, qmax):
    """``wmax`` and ``qmax`` as ints (a float raises ``TypeError``), >= 0."""
    wmax, qmax = index(wmax), index(qmax)
    if wmax < 0 or qmax < 0:
        raise ValueError("truncation orders must be >= 0")
    return wmax, qmax


# Bounds of every ``_top_memo``: the requests, and the keys whose top it keeps.
MEMO_SIZE, MEMO_TOPS = 64, 16


def _top_memo(build):
    """A memo of ``build(key, wmax, qmax)``, a series that truncates exactly:
    ``.tops`` keeps, for the latest keys, the build at the highest orders
    asked, replaced once a build at the join of a request past it succeeds;
    each request gets one truncation of it.  ``cache_clear`` empties both."""
    tops = {}

    @lru_cache(maxsize=MEMO_SIZE)
    def memo(key, wmax, qmax):
        top = tops.get(key)
        w, q = (wmax, qmax) if top is None else (top.wmax, top.qmax)
        if top is None or w < wmax or q < qmax:
            top = build(key, max(w, wmax), max(q, qmax))
        tops.pop(key, None)
        tops[key] = top  # now the newest entry
        if len(tops) > MEMO_TOPS:
            del tops[next(iter(tops))]
        return top.truncate(wmax, qmax)

    def cache_clear(clear=memo.cache_clear):
        clear()
        tops.clear()

    memo.tops, memo.cache_clear = tops, cache_clear
    return memo


def _canonical_weight(mono):
    """The weight of ``mono``, or ``ValueError`` unless it is canonical."""
    last, weight = 1, 0  # the field of L is 2
    for v, e in mono:
        field, w = _field(v)
        if field <= last or index(e) < 1:
            break
        last, weight = field, weight + w * e
    else:
        if isinstance(mono, tuple):
            return weight
    raise ValueError("monomial %r is not canonical" % (mono,))


class _Record:
    """A frozen value record, the base of the spec classes.  ``__init__``
    sets the fields once, through ``__dict__``, and ``_key``, the tuple that
    ``==`` and ``hash`` compare; ``repr`` shows ``__match_args__``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ("%s=%r" % (f, getattr(self, f)) for f in self.__match_args__)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))

    def __setattr__(self, name, *value):  # and __delattr__, with no value
        raise AttributeError("%r of a %s cannot change" % (name, type(self).__name__))

    __delattr__ = __setattr__


class WSeries:
    """A truncated series: map from (monomial, y-degree) to nonzero Fraction.

    A series stores its value once, as its reduced packed form (see the
    module docstring); ``terms`` is a read-only ``Fraction`` view of it,
    built on first read.  Instances are immutable: writing to ``terms``
    raises ``TypeError``, rebinding or deleting an attribute raises
    ``AttributeError``, and every operation returns a new series (a copy is
    the series itself).
    Two series are equal iff their truncation orders and terms agree, so
    tests compare exactly, never approximately.  The constructor drops zero
    coefficients and terms past the truncation, and raises ``ValueError`` on
    a key that is not canonical: a negative y-degree, or a monomial that
    :func:`mono_from_dict` would not return unchanged.
    """

    __slots__ = ("wmax", "qmax", "_packed", "_terms", "_split", "_groups", "_fiber_dim",
                 "_facts")

    def __new__(cls, wmax, qmax, terms=None):
        wmax, qmax = _truncation_orders(wmax, qmax)
        clean = {}
        if terms:
            for (mono, q), coeff in terms.items():
                q = index(q)
                if q < 0:
                    raise ValueError("negative y-degree %d" % q)
                if _canonical_weight(mono) > wmax or q > qmax:
                    continue
                c = _as_fraction(coeff)
                if c:
                    clean[(mono, q)] = c
        den = lcm(*{c.denominator for c in clean.values()})
        nums = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        return cls._trusted(wmax, qmax, (_pack(nums, wmax, qmax), den))  # lowest terms

    @classmethod
    def _trusted(cls, wmax, qmax, packed):
        """A series over the reduced packed form ``packed`` at the width of
        (wmax, qmax), taken as it is and owned from now on."""
        series = object.__new__(cls)
        object.__setattr__(series, "wmax", wmax)
        object.__setattr__(series, "qmax", qmax)
        object.__setattr__(series, "_packed", packed)
        object.__setattr__(series, "_terms", None)
        object.__setattr__(series, "_split", None)
        return series

    @property
    def terms(self):
        """The read-only {(monomial, y-degree): Fraction} view of the series."""
        if self._terms is None:
            terms = _unpack(self._packed, self.wmax, self.qmax)
            object.__setattr__(self, "_terms", MappingProxyType(terms))
        return self._terms

    def __setattr__(self, *args):
        raise AttributeError("WSeries is immutable")

    __delattr__ = __setattr__

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    def __reduce__(self):
        return WSeries._trusted, (self.wmax, self.qmax, self._packed)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, wmax, qmax):
        return cls(wmax, qmax)

    @classmethod
    def const(cls, value, wmax, qmax):
        return cls(wmax, qmax, {((), 0): _as_fraction(value)})

    @classmethod
    def var(cls, name, wmax, qmax):
        return cls(wmax, qmax, {(mono_from_dict({name: 1}), 0): Fraction(1)})

    @classmethod
    def y(cls, wmax, qmax):
        return cls(wmax, qmax, {((), 1): Fraction(1)})

    @classmethod
    def from_y_poly(cls, coeffs, wmax, qmax):
        """Series sum(coeffs[q] * y^q) from a sequence of rationals."""
        return cls(wmax, qmax, {((), q): c for q, c in enumerate(coeffs)})

    # -- basic structure ----------------------------------------------

    def _require_same(self, other):
        if self.wmax != other.wmax or self.qmax != other.qmax:
            raise TruncationMismatchError(
                "truncation mismatch: (%d, %d) vs (%d, %d)"
                % (self.wmax, self.qmax, other.wmax, other.qmax)
            )

    def is_zero(self):
        return not self._packed[0]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, WSeries):
            return NotImplemented
        same = self.wmax == other.wmax and self.qmax == other.qmax
        return same and self._packed == other._packed  # one packed form per value

    def get(self, mono=(), q=0):
        """Coefficient of a single (monomial, y^q) term: 0 if absent, out of
        range or not canonical.  A float ``q`` raises ``TypeError``."""
        q = index(q)
        try:
            self._orders(_canonical_weight(mono), q)
        except (TypeError, ValueError):
            return Fraction(0)
        (key,) = _pack({(mono, q): 1}, self.wmax, self.qmax)
        return Fraction(self._packed[0].get(key, 0), self._packed[1])

    def constant_term(self):
        return Fraction(self._packed[0].get(0, 0), self._packed[1])

    def _has_weight_zero(self):
        """Whether a term has weight 0: a constant or a pure power of y."""
        limit = 1 << _width(self.wmax, self.qmax)  # past the y field
        return any(key < limit for key in self._packed[0])

    def sorted_terms(self):
        """(monomial, y-degree, numerator, denominator) of every term, each
        fraction in lowest terms, ordered by weight, y-degree and monomial."""
        den, out = self._packed[1], []
        for (_w, q), row in sorted(self._by_slice().items()):
            for _key, mono, n in sorted(row, key=lambda e: _mono_sort_key(e[1])):
                g = gcd(n, den)
                out.append((mono, q, n // g, den // g))
        return out

    def truncate(self, wmax=None, qmax=None):
        """Re-truncate to (possibly) smaller orders, packed at their width:
        the kept keys are the old ones, each field moved to the new width
        when it is narrower; no monomial is decoded."""
        w, q = _truncation_orders(
            self.wmax if wmax is None else wmax, self.qmax if qmax is None else qmax
        )
        if w > self.wmax or q > self.qmax:
            raise TruncationDeficitError(
                "cannot extend truncation (%d, %d) to (%d, %d)"
                % (self.wmax, self.qmax, w, q)
            )
        (nums, den), old, new = self._packed, _width(self.wmax, self.qmax), _width(w, q)
        mask = (1 << old) - 1
        kept = {k: n for k, n in nums.items() if k >> old & mask <= w and k & mask <= q}
        if new != old:  # each kept field fits the new width: move it there
            kept = {_rewidth(k, old, new): n for k, n in kept.items()}
        elif len(kept) == len(nums):
            return WSeries._trusted(w, q, self._packed)
        return WSeries._trusted(w, q, _reduced(kept, den))

    # -- ring operations ----------------------------------------------

    def _born(self, packed):
        return WSeries._trusted(self.wmax, self.qmax, packed)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ({0: other.numerator} if other else {}, other.denominator)
        elif isinstance(other, WSeries):
            self._require_same(other)
            other = other._packed
        else:
            return NotImplemented
        (left, da), (right, db) = self._packed, other
        den = lcm(da, db)
        sa, sb = den // da, den // db
        acc = {key: n * sa for key, n in left.items()}
        for key, n in right.items():
            acc[key] = acc.get(key, 0) + n * sb
        return self._born(_reduced(acc, den))

    __radd__ = __add__

    def __neg__(self):
        nums, den = self._packed
        return self._born(({key: -n for key, n in nums.items()}, den))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            nums, den = self._packed
            p = other.numerator
            scaled = {key: n * p for key, n in nums.items()}
            return self._born(_reduced(scaled, den * other.denominator))
        if not isinstance(other, WSeries):
            return NotImplemented
        self._require_same(other)
        return self._born(_packed_mul((self._packed, other._packed), self.wmax, self.qmax))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return WSeries.const(1, self.wmax, self.qmax) if result is None else result

    def inverse(self):
        """Multiplicative inverse, exact to (wmax, qmax).

        With c the constant term, graded by weight plus y-degree: X_0 = 1/c
        and X_n = -(1/c) sum_(j >= 1) A_j X_(n-j) (``_graded``).
        """
        if not self._packed[0].get(0):
            raise NotAUnitError("constant (weight-0, y^0) term is zero")
        return self._born(_graded("inverse", self._packed, self.wmax, self.qmax))

    def exp(self):
        """exp of a series with no weight-0 content (pure-y terms included)."""
        if self._has_weight_zero():
            raise ValueError("exp needs every term to have weight >= 1")
        return self._born(_graded("exp", self._packed, self.wmax, self.qmax))

    def log(self):
        """log of 1 + (weight >= 1 terms); inverse of :meth:`exp`."""
        if (self - 1)._has_weight_zero():
            raise ValueError("log needs constant term 1 and no other weight-0 terms")
        return self._born(_graded("log", self._packed, self.wmax, self.qmax))

    # -- structural operations ------------------------------------------

    def substitute(self, var, replacement):
        """Replace ``var`` by a series of minimal weight >= 1, re-truncating."""
        var_weight(var)
        self._require_same(replacement)
        if replacement._has_weight_zero():
            raise ValueError(
                "substitution would create negative-weight content: "
                "replacement has weight-0 terms"
            )
        parts = self.coefficients_of(var)
        out = WSeries.zero(self.wmax, self.qmax)
        power = WSeries.const(1, self.wmax, self.qmax)
        for e in range(0, (max(parts) if parts else 0) + 1):
            if e:
                power = power * replacement
            if e in parts:
                out = out + parts[e] * power
        return out

    def reweight_by_one_plus_y(self):
        """Multiply the weight-k component by (1+y)^k; the t -> t(1+y) map."""
        return self._scale_weights(
            [[comb(k, j) for j in range(k + 1)] for k in range(self.wmax + 1)]
        )

    def _scale_weights(self, rows):
        """The weight-k component times the y-polynomial ``rows[k]`` (ints or
        Fractions, index = y-degree) for every k, truncated at qmax."""
        qmax = self.qmax
        rows = [[(j, r) for j, r in enumerate(row[: qmax + 1]) if r] for row in rows]
        rden = lcm(*(r.denominator for row in rows for _j, r in row))
        rows = [[(j, int(r * rden)) for j, r in row] for row in rows]  # exact
        nums, den = self._packed
        width = _width(self.wmax, qmax)
        mask = (1 << width) - 1
        acc = defaultdict(int)
        for key, n in nums.items():  # y^j adds j to the y field, field 0
            q = key & mask
            for j, r in rows[key >> width & mask]:
                if q + j > qmax:
                    break
                acc[key + j] += n * r
        return self._born(_reduced(acc, den * rden))

    def diff_h(self):
        """Formal d/dH.  The weight bound is kept; callers track validity."""
        nums, den = self._packed
        width = _width(self.wmax, self.qmax)
        mask, hshift = (1 << width) - 1, _field("H")[0] * width
        one = (1 << hshift) + (1 << width)  # H^e -> e H^(e-1); e = 0 gives 0
        acc = {key - one: n * (key >> hshift & mask) for key, n in nums.items()}
        return self._born(_reduced(acc, den))

    def _orders(self, k=0, q=0):
        """``k`` and ``q`` read as ints and checked against the truncation."""
        k, q = index(k), index(q)
        if not 0 <= k <= self.wmax:
            raise ValueError("weight %d out of range (wmax=%d)" % (k, self.wmax))
        if not 0 <= q <= self.qmax:
            raise ValueError("y-degree %d out of range (qmax=%d)" % (q, self.qmax))
        return k, q

    def _by_slice(self):
        """{(weight, y-degree): [(key, monomial, int numerator)]} over the
        packed form, built in one pass on first use: each distinct monomial
        is decoded once, and every numerator is over the packed denominator."""
        if self._split is None:
            width = _width(self.wmax, self.qmax)
            mask, vshift = (1 << width) - 1, 2 * width  # past the y and weight
            nums, split = self._packed[0], defaultdict(list)
            monos = {mk: _key_mono(mk, width) for mk in {key >> vshift for key in nums}}
            for key, n in nums.items():
                entry = (key, monos[key >> vshift], n)
                split[key >> width & mask, key & mask].append(entry)
            object.__setattr__(self, "_split", dict(split))
        return self._split

    def _part(self, slices, drop_y):
        """The series of the keys in the (weight, y-degree) ``slices`` of
        :meth:`_by_slice`, each y field zeroed when ``drop_y`` is set."""
        split, den = self._by_slice(), self._packed[1]
        mask = (1 << _width(self.wmax, self.qmax)) - 1 if drop_y else 0
        part = {key & ~mask: n for s in slices for key, _m, n in split.get(s, ())}
        return self._born(_reduced(part, den))

    def coeff(self, k, q):
        """Weight-k, y^q homogeneous part as a y-free series."""
        return self._part([self._orders(k, q)], True)

    def y_slice(self, q):
        """Coefficient of y^q over all weights, as a y-free series."""
        _k, q = self._orders(q=q)
        return self._part([(k, q) for k in range(self.wmax + 1)], True)

    def weight_component(self, k):
        """Weight-k homogeneous part, keeping the y-direction."""
        k, _q = self._orders(k=k)
        return self._part([(k, q) for q in range(self.qmax + 1)], False)

    def coefficients_of(self, var):
        """Decompose by powers of ``var``: {exponent: series with var removed}."""
        width = _width(self.wmax, self.qmax)
        shift, mask = _field(var)[0] * width, (1 << width) - 1  # validates the name
        (unit,) = _pack({(((var, 1),), 0): 1}, self.wmax, self.qmax)  # var^1
        split = defaultdict(dict)
        for key, n in self._packed[0].items():
            e = key >> shift & mask
            split[e][key - e * unit] = n
        den = self._packed[1]
        return {e: self._born(_reduced(nums, den)) for e, nums in split.items()}

    # -- display --------------------------------------------------------

    def to_text(self):
        return _sum_text(self.sorted_terms(), _TEXT)

    def to_latex(self):
        return _sum_text(self.sorted_terms(), _LATEX)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        body = self.to_text()
        if len(body) > 120:
            body = body[:117] + "..."
        return "WSeries(wmax=%d, qmax=%d: %s)" % (self.wmax, self.qmax, body)


class _Product(WSeries):
    """The product of the slope groups ``groups[s]``, each at H -> H + s*L
    (``_shear``), deferred: it holds the groups until its packed form is
    first read, then builds it and becomes a plain ``WSeries``.  Before
    that, ``pushforward`` of it runs by residues on the groups
    (``_residues``) and reads nothing.  The ``__getattr__`` lives here,
    not on ``WSeries``, whose every attribute read it would slow.

    With a ``fiber_dim`` f, the groups are polynomials in z = y/(1+y), held
    in the y slots, and the value is (1+y)^f times the product, mapped to y
    with that factor in one map of the folded ints (``_to_y``)."""

    __slots__ = ()

    def __new__(cls, groups, wmax, qmax, fiber_dim=None):
        series = object.__new__(cls)
        for name, value in (("wmax", wmax), ("qmax", qmax), ("_terms", None),
                            ("_split", None), ("_groups", groups),
                            ("_fiber_dim", fiber_dim)):
            object.__setattr__(series, name, value)
        return series

    def __getattr__(self, name):
        if name != "_packed":
            raise AttributeError(name)
        product = reduce(mul, (_shear(g, s) for s, g in self._groups.items()))
        if self._fiber_dim is not None:  # fold the product to map z to y
            nums, den = product._packed
            slot = _bits(nums) + 1
            folded = _fold(nums, _width(self.wmax, self.qmax), slot)
            product = _to_y(folded, slot, self.wmax, self.qmax, den, self._fiber_dim)
        object.__setattr__(self, "_packed", product._packed)
        object.__setattr__(self, "_groups", None)
        object.__setattr__(self, "_fiber_dim", None)
        object.__setattr__(self, "__class__", WSeries)
        return self._packed


# -- rendering: one term walk and one signed-sum join ---------------------------


@cache
def _tex_name(v):
    return "c_{%s}" % v[1:] if v.startswith("c") else v


# The format data of a rendered sum: the power format, the variable names,
# the format of a non-integer coefficient, the product sign, and the space
# around each sign after the first.
_TEXT = ("%s^%d", str, "%d/%d", "*", " ")
_LATEX = ("%s^{%d}", _tex_name, r"\frac{%d}{%d}", " ", " ")


def _sum_text(terms, style):
    """The signed sum of ``(monomial, y-degree, numerator, denominator)``
    terms, each fraction in lowest terms, in ``style`` (see ``_TEXT``): a
    coefficient of absolute value 1 is written only when the term has no
    factor, and y follows the monomial."""
    pow_fmt, name, frac_fmt, mul, sep = style
    parts = []
    for mono, q, n, d in terms:
        factors = [name(v) if e == 1 else pow_fmt % (name(v), e) for v, e in mono]
        if q:
            factors.append("y" if q == 1 else pow_fmt % ("y", q))
        coeff = "%d" % abs(n) if d == 1 else frac_fmt % (abs(n), d)
        body = mul.join(factors if factors and coeff == "1" else [coeff] + factors)
        parts.append(("-" if n < 0 else "+", body))
    return _signed_sum(parts, sep)


def _signed_sum(parts, sep):
    """'a - b + c' from (sign, body) pairs, sign '+' or '-': the first body
    takes a bare '-' and no '+', each later sign stands between two ``sep``,
    and no parts give '0'."""
    if not parts:
        return "0"
    head = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    return head + "".join(sep + sign + sep + body for sign, body in parts[1:])


# -- the packed kernels: multiply and shear ------------------------------------


def _width(wmax, qmax):
    """Bits per field of a packed key at truncation (wmax, qmax): at least
    4, so every order below 16 packs at one width."""
    return max(wmax, qmax, 15).bit_length()


def _pack(nums, wmax, qmax):
    """{key: n} of the int numerators ``nums`` {(monomial, y-degree): n} at
    the width of (wmax, qmax).  A key is q plus the sum of the units of the
    exponents, weight field included."""
    width = _width(wmax, qmax)
    units = {}  # variable -> its unit in the key, weight field included
    packed = {}
    for (mono, q), n in nums.items():
        key = q
        for v, e in mono:
            u = units.get(v)
            if u is None:
                f, vw = _field(v)
                u = units[v] = (1 << f * width) + (vw << width)
            key += e * u
        packed[key] = n
    return packed


def _rewidth(key, old, new):
    """``key`` with each of its ``old``-bit fields moved to a ``new``-bit one."""
    out, shift, mask = 0, 0, (1 << old) - 1
    while key:
        out, key, shift = out | (key & mask) << shift, key >> old, shift + new
    return out


def _reduced(acc, den):
    """The nonzero numerators of ``acc`` over ``den``, both divided by their
    common gcd, so ``den`` is the lcm of the reduced coefficient denominators."""
    g = gcd(den, *acc.values())
    if g == 1 and 0 not in acc.values():  # most products: keep the dict as it is
        return dict(acc), den
    return {key: n // g for key, n in acc.items() if n}, den // g


def _packed_mul(factors, wmax, qmax):
    """Product of the packed series ``factors`` at truncation (wmax, qmax), as
    one folded chain (see the module docstring): each distinct factor folded
    once, the folds multiplied in turn, and the product unfolded and reduced
    once.  A step's slot sums at most min(#terms) products of the chain so
    far, of at most the product of its factors' #terms, and the next
    factor; so B adds the bits of every factor, bit_length of that min for
    every step, and 1."""
    (first, den), *rest = factors
    slot, count = _bits(first) + 1, len(first)
    for nums, _d in rest:
        slot += _bits(nums) + min(count, len(nums)).bit_length()
        count *= len(nums)
    width, folds = _width(wmax, qmax), {}
    for nums, _d in factors:
        if id(nums) not in folds:
            folds[id(nums)] = _fold(nums, width, slot)
    acc = folds[id(first)]
    for nums, d in rest:
        acc = _folded_mul(acc, folds[id(nums)], wmax, (1 << width) - 1, slot * (qmax + 1))
        den *= d
    return _unfold(acc, width, slot, qmax, den)


def _shear(series, s):
    """``series`` at H -> H + s*L.  By the binomial theorem H^k spreads to
    sum_j C(k, j) s^j H^(k-j) L^j, which keeps every weight: with s = p/r,
    row k of ``_map_rows`` on the H field moves j from the H field to the L
    field with C(k, j) p^j r^(wmax-j), over r^wmax."""
    if not s:
        return series
    p, r, top = s.numerator, s.denominator, series.wmax
    width = _width(top, series.qmax)
    hshift = _field("H")[0] * width
    step = (1 << _field("L")[0] * width) - (1 << hshift)  # H^-1 L
    rows = [[(j * step, comb(k, j) * p**j * r ** (top - j)) for j in range(k + 1)]
            for k in range(top + 1)]
    nums, den = series._packed
    acc = _map_rows(nums.items(), hshift, (1 << width) - 1, rows)
    return series._born(_reduced(acc, den * r**top))


def _residues(groups, wmax, qmax, exps, fiber_dim=None):
    """pi_* of the product of the series ``groups[s]`` at H -> H + s*L
    (``_shear``) along P(E), E = sum_i L^(m_i) for m_i in ``exps``, at
    (wmax - (r - 1), qmax): the Segre map, as a sum of residues, which
    ``pushforward`` runs on every series (a plain one is one group at 0).

    With H = u*L, pi_* f = L^(1-r) sum_m Res_(u=-m) f / prod_i (u + m_i)
    over the distinct exponents m (Ellingsrud-Stromme, alg-geom/9411005).
    At m, of multiplicity mu, set eps = u + m: prod_i (u + m_i) = eps^mu /
    J_m with J_m = prod_(m_i != m) (m_i - m + eps)^-1, and the shear takes
    H^a to L^a (eps + s - m)^a = L^a sum_k C(a, k) (s - m)^(a-k) eps^k, of
    which only eps^0..eps^(mu-1) reach the residue.  So at each pole every
    group maps by ``_pole_rows`` (eps in the H field, the weight kept true),
    the mapped groups multiply keeping eps-degree < mu (``_folded_mul``), and
    ``_read_pole`` sends a key of eps-degree k and L-degree A, times the
    eps^(mu-1-k) coefficient of J_m, to L^(A+1-r).  It skips A < r - 1: the
    residues of such a key sum to those of a polynomial in u of degree
    <= A < r - 1 over one of degree r, which is 0.  The groups are folded
    once, at one slot for every pole, and the poles sum into one folded
    series, mapped and unfolded once by ``_to_y``.  The read leaves every
    key at weight <= wmax - (r - 1), so at an unchanged key width the sum
    is Q as it stands, with no truncation.

    A pole is dead when the group at its own slope has lowest H-degree >=
    mu: there the shear is 0, so H^a goes to eps^a, and every term of that
    group maps past eps^(mu-1).  Its residue is 0, so it gets no map, no
    product, no read and no share of the slot.  Each group's H-degrees,
    bits, term count and last fold are read once and kept with it
    (``_facts``), so a memoized group carries them from request to request.

    The slot: a group's numerators are below 2^b and its mapped ones below
    2^(b + x), x the bits of its rows.  A mapped group has at most mu terms
    per term of the group, so a product by it adds b + x +
    bit_length(mu * #terms).  A read key sums at most mu keys times J_m's
    numerators, adding the bits of the sum of their absolute values; the
    jets of all poles are over one denominator (``_poles``), so the live
    poles sum with no scaling and add bit_length(#live poles).  The sign
    takes 1 bit.
    """
    width = _width(wmax, qmax)
    mask = (1 << width) - 1
    hshift = (_field("H")[0] - 1) * width  # in a key without its y field
    poles, den = _poles(tuple(sorted(exps)))
    slopes = sorted(groups)
    facts = [_facts(groups[s]) for s in slopes]
    for s, (top, *_f) in zip(slopes, facts):
        den *= groups[s]._packed[1] * s.denominator**top
    live, bits = [], 0
    for m, jet in poles:
        mu = len(jet)
        if any(s == m and low >= mu for s, (_t, low, *_f) in zip(slopes, facts)):
            continue  # a dead pole
        rows = [_pole_rows(s.numerator - m * s.denominator, s.denominator, top, mu, width)
                for s, (top, *_f) in zip(slopes, facts)]
        need = sum(map(abs, jet)).bit_length() + sum(
            b + x + ((mu * n).bit_length() if i else 0)
            for i, ((_t, _l, b, n, *_f), (_r, x)) in enumerate(zip(facts, rows))
        )
        bits = max(bits, need)
        live.append((jet, [r for r, _x in rows]))
    slot = bits + len(live).bit_length() + 1
    for s, f in zip(slopes, facts):
        if f[4] != slot:  # the group's last fold is at another slot
            f[4:] = slot, _fold(groups[s]._packed[0], width, slot)
    out = defaultdict(int)
    for jet, rows in live:
        acc = None
        for f, row in zip(facts, rows):
            mapped = _map_rows(f[5].items(), hshift, mask, row)
            acc = mapped if acc is None else _folded_mul(
                acc, mapped, wmax, mask, slot * (qmax + 1), len(jet), hshift
            )
        _read_pole(acc, jet, len(exps) - 1, width, out)
    pushed = _to_y(out, slot, wmax, qmax, den, fiber_dim)
    out_wmax = wmax - (len(exps) - 1)
    if _width(out_wmax, qmax) != width:
        return pushed.truncate(out_wmax)
    return WSeries._trusted(out_wmax, qmax, pushed._packed)


def _facts(series):
    """[top, low, bits, count, slot, fold] of a group of ``_residues``: its
    highest and lowest H-degree, the bits of its largest numerator, its term
    count, and its last fold with the slot of that fold.  Read once and kept
    with the series."""
    facts = getattr(series, "_facts", None)
    if facts is None:
        nums, width = series._packed[0], _width(series.wmax, series.qmax)
        degrees = {key >> _field("H")[0] * width & (1 << width) - 1 for key in nums} or {0}
        facts = [max(degrees), min(degrees), _bits(nums), len(nums), 0, None]
        object.__setattr__(series, "_facts", facts)
    return facts


def _read_pole(acc, jet, low, width, out):
    """Add to ``out`` the residue of a pole's folded product ``acc`` (keys
    without their y field, eps in the H field; ``_residues``): each key of
    L-degree >= ``low`` = r - 1 and eps-degree k, less k eps and ``low`` L's
    and weights, times the eps^(mu-1-k) coefficient ``jet[mu - 1 - k]``."""
    mask, mu = (1 << width) - 1, len(jet)
    hshift, lshift = (_field("H")[0] - 1) * width, (_field("L")[0] - 1) * width
    drop = low * ((1 << lshift) + 1)
    for key, f in acc.items():
        if key >> lshift & mask >= low:
            k = key >> hshift & mask
            out[key - (k << hshift) - drop] += f * jet[mu - 1 - k]


@lru_cache(maxsize=MEMO_SIZE)
def _poles(exps):
    """The poles of pi_* along P(sum_i L^(m_i)), m_i in the sorted
    ``exps``: (m, jet) for each distinct m, of multiplicity mu = len(jet),
    jet the numerators of eps^0..eps^(mu-1) of J_m = prod_(m_i != m)
    (m_i - m + eps)^-1, over one denominator returned beside them.  A jet b
    divided by d + eps is the c with d c_k + c_(k-1) = b_k."""
    jets = []
    for m in sorted(set(exps)):
        jet = [Fraction(1)] + [Fraction(0)] * (exps.count(m) - 1)
        for d in (mi - m for mi in exps if mi != m):
            for k in range(len(jet)):
                jet[k] = (jet[k] - (jet[k - 1] if k else 0)) / d
        jets.append((m, jet))
    den = lcm(*(c.denominator for _m, jet in jets for c in jet))
    return tuple((m, tuple(int(c * den) for c in jet)) for m, jet in jets), den


@lru_cache(maxsize=MEMO_SIZE)
def _pole_rows(p, r, top, mu, width):
    """The rows of H^a -> L^a (eps + p/r)^a to eps^(mu-1), a <= top, at key
    ``width``, and the bits they add to a slot: H^a takes C(a, k) p^(a-k)
    r^(top-a+k), over r^top, to an entry that moves a - k from the H field
    to the L field of a key without its y field, leaving eps^k in the H
    field and the weight unchanged.  A key takes at most top + 1 entries,
    one per H-degree, so the bits are the largest entry's plus
    bit_length(top + 1)."""
    hunit, lunit = 1 << (_field("H")[0] - 1) * width, 1 << (_field("L")[0] - 1) * width
    rows = tuple(
        tuple(
            ((k - a) * hunit + a * lunit, comb(a, k) * p ** (a - k) * r ** (top - a + k))
            for k in range(min(a + 1, mu))
            if p or k == a
        )
        for a in range(top + 1)
    )
    largest = max((abs(n) for row in rows for _o, n in row), default=0)
    return rows, largest.bit_length() + (top + 1).bit_length()


def _to_y(folded, slot, wmax, qmax, den, fiber_dim):
    """The series of a folded one over ``den``.  Unless ``fiber_dim`` is
    None, its slots are powers of z = y/(1+y), and it is first mapped to y
    times (1+y)^fiber_dim (``_z_rows``), into slots as much wider as that
    map's column sums need (``_map_slots``)."""
    if fiber_dim is not None:
        extra = _z_rows(qmax, fiber_dim)[1]
        folded = _map_slots(folded, slot, _z_images(qmax, fiber_dim, slot + extra))
        slot += extra
    packed = _unfold(folded, _width(wmax, qmax), slot, qmax, den)
    return WSeries._trusted(wmax, qmax, packed)


@lru_cache(maxsize=MEMO_SIZE)
def _z_rows(qmax, f):
    """The rows of (1+y)^f z^k = y^k (1+y)^(f-k) = sum_j C(f-k, j-k) y^j for
    k = 0..qmax, C the generalized binomial (for n < 0, C(n, i) = (-1)^i
    C(i-n-1, i)), as (y-degree j <= qmax, int) entries, and the bits they
    add to a slot.  Output slot j sums digits below 2^(slot-1) times the
    entries of column j, whose absolute values sum to S, so it stays below
    2^(slot-1) * 2^((S-1).bit_length()) for the largest S."""
    rows = tuple(
        tuple((j, comb(f - k, j - k)) for j in range(k, min(f, qmax) + 1))
        if k <= f
        else tuple((j, (-1) ** (j - k) * comb(j - f - 1, j - k))
                   for j in range(k, qmax + 1))
        for k in range(qmax + 1)
    )
    columns = [0] * (qmax + 1)
    for row in rows:
        for j, c in row:
            columns[j] += abs(c)
    return rows, (max(columns) - 1).bit_length()


@lru_cache(maxsize=MEMO_SIZE)
def _z_images(qmax, f, out):
    """The rows of ``_z_rows(qmax, f)``, each folded into slots of width ``out``."""
    return tuple(sum(c << out * j for j, c in row) for row in _z_rows(qmax, f)[0])


def _map_slots(folded, slot, images):
    """Each folded int's slots, signed digits at ``slot``, mapped by the
    folded ``images`` of the slots: the sum of digit_k * images[k]."""
    half, smask = 1 << slot - 1, (1 << slot) - 1
    bias = sum(half << slot * k for k in range(len(images)))
    mapped = {}
    for rest, f in folded.items():
        f, g = f + bias, 0
        for image in images:
            g += ((f & smask) - half) * image
            f >>= slot
        mapped[rest] = g
    return mapped


def _map_rows(items, shift, mask, rows):
    """{key + offset: sum of n * c} over the (key, n) ``items`` and the
    (offset, c) entries of ``rows[e]``, e the field of a key at ``shift``."""
    acc = defaultdict(int)
    for key, n in items:
        for offset, c in rows[key >> shift & mask]:
            acc[key + offset] += n * c
    return acc


def _graded(kind, a, wmax, qmax):
    """exp, log or inverse of the packed series ``a``, grade by grade.
    A term's grade is its weight, plus its y-degree for the inverse, whose
    weight-0 part may hold y; grading is a derivation and a_0 is 0, 1 or c.
    So n E_n = sum_j j a_j E_(n-j), n G_n = n a_n - sum_(j<n) j G_j a_(n-j)
    and c X_n = -sum_(j>=1) a_j X_(n-j): int numerators over D_n =
    D_(n-1) * m_n, m_n = n * den (c's numerator for X), one ``_reduced`` at
    the end.  Slice pairs are checked against wmax and qmax before their
    keys add: a sum past a field's width carries into the next field.
    """
    nums, den = a
    width = _width(wmax, qmax)
    mask, ydeg = (1 << width) - 1, kind == "inverse"
    top = wmax + qmax * ydeg
    grades = [defaultdict(list) for _ in range(top + 1)]  # [grade][w, q]: (key, n)
    for key, n in nums.items():
        w, q = key >> width & mask, key & mask
        grades[w + q * ydeg][w, q].append((key, n))
    if ydeg:
        steps, out = [nums[0]] * (top + 1), [{(0, 0): [(0, den)]}]
    else:
        steps = [n * den or 1 for n in range(top + 1)]
        out = [{(0, 0): [(0, 1)]} if kind == "exp" else {}]
    dens = list(accumulate(steps, mul))  # D_0 = m_0
    for n in range(1, top + 1):
        acc = defaultdict(int)
        if kind == "log":
            for row in grades[n].values():
                for key, x in row:
                    acc[key] = x * n * dens[n - 1]
        for j in range(1, n if kind == "log" else n + 1):
            f = -1 if ydeg else j if kind == "exp" else j - n
            f *= dens[n - 1] // dens[n - j]
            for (w1, q1), row1 in grades[j].items():
                for (w2, q2), row2 in out[n - j].items():
                    if w1 + w2 <= wmax and q1 + q2 <= qmax:  # before the keys add
                        for k1, x1 in row1:
                            fx = f * x1
                            for k2, x2 in row2:
                                acc[k1 + k2] += fx * x2
        grade = defaultdict(list)
        for key, x in acc.items():
            if x:
                grade[key >> width & mask, key & mask].append((key, x))
        out.append(grade)
    d = abs(dens[top])
    total = {
        key: x * (d // dens[n])
        for n, grade in enumerate(out)
        for row in grade.values()
        for key, x in row
    }
    return _reduced(total, d)


def _bits(nums):
    """Bits of the largest absolute value in a dict."""
    return max(map(abs, nums.values()), default=0).bit_length()


def _fold(nums, width, slot):
    """Each monomial's y-polynomial as one int: a key without its y field
    maps to the sum of n * 2^(slot*q) over its terms n y^q."""
    mask = (1 << width) - 1
    folded = defaultdict(int)
    for key, n in nums.items():
        folded[key >> width] += n << slot * (key & mask)
    return folded


def _folded_mul(a, b, wmax, mask, cut, mu=1, shift=0):
    """Product of two folded series: one int product per monomial pair within
    wmax, each sum cut to its signed residue mod 2^cut (the slots kept).
    With ``mu`` > 1, the field at ``shift`` is an eps-degree (``_residues``),
    and a pair whose eps-degrees sum to mu or more is skipped."""
    emask = mask if mu > 1 else 0  # reads an eps-degree of 0 below mu = 2
    jets = [[[] for _ in range(wmax + 1)] for _ in range(mu)]  # [eps][weight]
    for item in b.items():
        jets[item[0] >> shift & emask][item[0] & mask].append(item)
    # [e][w]: the b monomials of eps-degree <= e and weight <= w
    below = accumulate(jets, lambda p, j: [*map(add, p, j)])
    below = [list(accumulate(p)) for p in below]
    acc = defaultdict(int)
    for r1, f1 in a.items():
        for r2, f2 in below[mu - 1 - (r1 >> shift & emask)][wmax - (r1 & mask)]:
            acc[r1 + r2] += f1 * f2
    sign, low = 1 << cut - 1, (1 << cut) - 1
    return {rest: (f + sign & low) - sign for rest, f in acc.items()}


def _unfold(folded, width, slot, qmax, den):
    """The reduced packed series of a folded one over ``den``: slots 0..qmax
    read as signed digits, each slot biased by half its range."""
    half, smask = 1 << slot - 1, (1 << slot) - 1
    bias = sum(half << slot * q for q in range(qmax + 1))
    acc = {}
    for rest, f in folded.items():
        key, f = rest << width, f + bias
        for q in range(qmax + 1):
            n = (f & smask) - half
            if n:
                acc[key + q] = n
            f >>= slot
    return _reduced(acc, den)


def _unpack(a, wmax, qmax):
    """The terms of a packed series at the width of (wmax, qmax): one monomial
    per distinct variable part of a key, one ``Fraction`` per term."""
    nums, den = a
    width = _width(wmax, qmax)
    mask = (1 << width) - 1
    vshift = 2 * width  # past the y and weight fields
    monos = {mk: _key_mono(mk, width) for mk in {key >> vshift for key in nums}}
    return {
        (monos[key >> vshift], key & mask): Fraction(n, den) for key, n in nums.items()
    }


def _key_mono(mk, width):
    """The canonical monomial of the variable fields ``mk`` of a key (the key
    shifted past its y and weight fields)."""
    mask, items, f = (1 << width) - 1, [], 2
    while mk:
        if mk & mask:
            items.append((_field_name(f), mk & mask))
        mk, f = mk >> width, f + 1
    return tuple(items)

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
  width is ``max(wmax, qmax).bit_length()`` bits (at least 1), so adding two
  keys adds the y-degrees, the weights and every exponent at once.  No field
  can carry into the next: a kept pair has q1 + q2 <= qmax and w1 + w2 <=
  wmax, and every variable has weight >= 1, so no exponent exceeds wmax.
  The constructor and a ``truncate`` that narrows the width pack int numerators.
- ``_packed_mul`` and ``_sheared_product`` fold each monomial's y-polynomial
  into one int, the sum of n_q 2^(B*q) (``_fold``), so one int product of two
  monomials is their y-convolution, done in C; ``_unfold`` reads the slots
  0..qmax back as signed digits.  Each slot holds its sum: in a product each
  term of one operand has at most one partner in the other, so a slot sums at
  most min(#terms) products and B = bits(max|a|) + bits(max|b|) +
  bit_length(min #terms) + 1.  Along the chain of ``_sheared_product`` a
  shear adds the bits of its largest row entry and bit_length(top + 1), a
  product those of its group's largest numerator and term count.  The chain
  may end in a map of H-powers by rows of int entries (``_map_powers``,
  the Segre map of ``pushforward``): an output key takes at most one term
  per entry, so the map adds the bits of the sum of the entries' absolute
  values.  The shears, the map and ``_map_powers``' per-term loop are one
  helper, ``_map_rows``.  Only y is folded: a y-polynomial is dense (at
  most qmax + 1 slots, nearly all filled), while the sparse (y, L, H, ci)
  box would need far more slots.
- ``_Product`` defers a ``_sheared_product``: it holds the slope groups,
  builds the packed form on its first read and becomes a plain ``WSeries``;
  an H-map of it before that runs as the last step of its chain, so the
  product is never unfolded.  With a prefactor its groups are polynomials
  in z = y/(1+y), and the chain ends in the map z^k -> y^k (1+y)^-k on the
  folded ints (``_map_slots``), whose slots grow by the bits of the map's
  largest column sum; the prefactor then multiplies the result.
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
from functools import cache, lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import index, mul
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

    __slots__ = ("wmax", "qmax", "_packed", "_terms", "_split", "_groups", "_prefactor")

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
        at an unchanged width the kept keys are the old ones."""
        w, q = _truncation_orders(
            self.wmax if wmax is None else wmax, self.qmax if qmax is None else qmax
        )
        if w > self.wmax or q > self.qmax:
            raise TruncationDeficitError(
                "cannot extend truncation (%d, %d) to (%d, %d)"
                % (self.wmax, self.qmax, w, q)
            )
        (nums, den), width = self._packed, _width(w, q)
        if width != _width(self.wmax, self.qmax):
            split = self._by_slice().items()
            kept = {
                (m, j): n for (k, j), r in split if k <= w and j <= q for _, m, n in r
            }
            return WSeries._trusted(w, q, _reduced(_pack(kept, w, q), den))
        mask = (1 << width) - 1
        kept = {
            k: n for k, n in nums.items() if k >> width & mask <= w and k & mask <= q
        }
        packed = self._packed if len(kept) == len(nums) else _reduced(kept, den)
        return WSeries._trusted(w, q, packed)

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
        packed = _packed_mul(self._packed, other._packed, self.wmax, self.qmax)
        return self._born(packed)

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

    def _map_powers(self, var, rows):
        """Each term of ``var``-degree e times the sum of the (monomial, int)
        entries of ``rows[e]``; an entry's negative exponents divide the term.
        An H-map of an unread :class:`_Product` is the last step of its chain
        (``_Product._chain``); any other series maps its packed terms."""
        w, q = self.wmax, self.qmax
        offsets = [_pack({(m, 0): c for m, c in row}, w, q).items() for row in rows]
        if self.__class__ is _Product and var == "H":
            return self._chain(offsets)
        width = _width(w, q)
        shift, mask = _field(var)[0] * width, (1 << width) - 1
        nums, den = self._packed
        return self._born(_reduced(_map_rows(nums.items(), shift, mask, offsets), den))

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
    """The product ``_sheared_product(groups, wmax, qmax)``, deferred: it
    holds the slope groups until its packed form is first read, then builds
    it and becomes a plain ``WSeries``.  Before that, an H-map of it
    (``_map_powers``) runs as the last step of the chain instead.  The
    ``__getattr__`` lives here, not on ``WSeries``, whose every attribute
    read it would slow.

    With a ``prefactor``, the groups are polynomials in z = y/(1+y), held in
    the y slots, and the value is the prefactor times the chain's result
    mapped to y (``_sheared_product``'s ``in_z``)."""

    __slots__ = ()

    def __new__(cls, groups, wmax, qmax, prefactor=None):
        series = object.__new__(cls)
        for name, value in (("wmax", wmax), ("qmax", qmax), ("_terms", None),
                            ("_split", None), ("_groups", groups),
                            ("_prefactor", prefactor)):
            object.__setattr__(series, name, value)
        return series

    def _chain(self, then=None):
        """The product, ended in the map ``then`` if given (``_sheared_product``)."""
        if self._prefactor is None:
            return _sheared_product(self._groups, self.wmax, self.qmax, then)
        chain = _sheared_product(self._groups, self.wmax, self.qmax, then, in_z=True)
        return chain * self._prefactor

    def __getattr__(self, name):
        if name != "_packed":
            raise AttributeError(name)
        product = self._chain()
        object.__setattr__(self, "_packed", product._packed)
        object.__setattr__(self, "_groups", None)
        object.__setattr__(self, "_prefactor", None)
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
    """Bits per field of a packed key at truncation (wmax, qmax)."""
    return max(wmax, qmax, 1).bit_length()


def _pack(nums, wmax, qmax):
    """{key: n} of the int numerators ``nums`` {(monomial, y-degree): n} at
    the width of (wmax, qmax).  A key is q plus the sum of the units of the
    exponents (weight field included), so a monomial with a zero or negative
    exponent packs to the offset that multiplies a key by it."""
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


def _reduced(acc, den):
    """The nonzero numerators of ``acc`` over ``den``, both divided by their
    common gcd, so ``den`` is the lcm of the reduced coefficient denominators."""
    g = gcd(den, *acc.values())
    if g == 1 and 0 not in acc.values():  # most products: keep the dict as it is
        return dict(acc), den
    return {key: n // g for key, n in acc.items() if n}, den // g


def _packed_mul(a, b, wmax, qmax):
    """Product of two packed series at truncation (wmax, qmax), with each
    monomial's y-polynomial folded into one int (see the module docstring)."""
    (left, da), (right, db) = a, b
    width = _width(wmax, qmax)
    slot = _bits(left) + _bits(right) + min(len(left), len(right)).bit_length() + 1
    left, right = _fold(left, width, slot), _fold(right, width, slot)
    product = _folded_mul(left, right, wmax, (1 << width) - 1, slot * (qmax + 1))
    return _unfold(product, width, slot, qmax, da * db)


def _sheared_product(groups, wmax, qmax, then=None, in_z=False):
    """The product of the series ``groups[s]``, each at H -> H + s*L.

    The shear S_s keeps weights, is a ring map, and S_a S_b = S_(a+b), so
    with slopes s1 < ... < sk this is S_s1(G1 * S_(s2-s1)(G2 * ...(Gk))),
    run on folded ints from one fold to one unfold.  By the binomial theorem
    S_s spreads H^k to sum_j C(k, j) s^j H^(k-j) L^j, moving j from the H
    field to the L field of the key: with s = p/r and H-degree at most top,
    a folded int times C(k, j) p^j r^(top-j), over the denominator r^top.

    ``then``, if given, is a last step on the folded ints: the rows of
    (packed key offset, int) entries of ``WSeries._map_powers`` by H-power.
    An output key takes at most one term per entry, so the map adds the
    bits of the sum of the entries' absolute values to the slot.  A shear
    never raises an H-degree, so the last product skips every monomial pair
    whose H-degrees sum below the first H-power with a nonempty row.

    ``in_z`` reads the groups' y slots as powers of z = y/(1+y) and maps the
    folded result to y before the unfold, z^k -> y^k (1+y)^-k (``_z_rows``),
    into slots as much wider as that map's column sums need (``_map_slots``).
    """
    slopes = sorted(groups, reverse=True)
    shifts = [a - b for a, b in zip(slopes, slopes[1:])] + [slopes[-1]]
    packed = [groups[s]._packed for s in slopes]
    width = _width(wmax, qmax)
    mask = (1 << width) - 1
    hshift = (_field("H")[0] - 1) * width  # in a key without its y field
    # the shear rows, the denominator and the slot width (module docstring)
    shears, bits, top, den = [], 0, 0, 1
    for i, ((nums, d), s) in enumerate(zip(packed, shifts)):
        bits += _bits(nums) + (len(nums).bit_length() if i else 0)
        h = max((key >> width + hshift & mask for key in nums), default=0)
        top, den = min(wmax, top + h), den * d
        rows = None
        if s:
            rows, extra = _shear_rows(s, top, width)
            bits, den = bits + extra, den * s.denominator**top
        shears.append(rows)
    low = 0  # the first H-power the map keeps
    if then is not None:  # offsets without the y field, which they leave 0
        then = [[(offset >> width, c) for offset, c in row] for row in then]
        bits += sum(abs(c) for row in then for _o, c in row).bit_length()
        low = next((e for e, row in enumerate(then) if row), len(then))
    slot = bits + 1
    acc = _fold(packed[0][0], width, slot)
    for i, rows in enumerate(shears):
        if i:
            right = _fold(packed[i][0], width, slot)
            hmin = low if i == len(shears) - 1 else 0
            acc = _folded_mul(acc, right, wmax, mask, slot * (qmax + 1), hmin, hshift)
        if rows:
            acc = _map_rows(acc.items(), hshift, mask, rows)
    if then is not None:
        acc = _map_rows(acc.items(), hshift, mask, then)
    if in_z:
        rows, extra = _z_rows(qmax)
        acc = _map_slots(acc, slot, rows, slot + extra)
        slot += extra
    return WSeries._trusted(wmax, qmax, _unfold(acc, width, slot, qmax, den))


@lru_cache(maxsize=MEMO_SIZE)
def _shear_rows(s, top, width):
    """The rows of S_s up to H^top at key ``width``, and the bits they add
    to a slot: with s = p/r, H^k takes C(k, j) p^j r^(top-j) to an entry
    that moves j from the H field to the L field of a key without its y
    field; the largest entries are in the row of H^top."""
    step = (1 << (_field("L")[0] - 1) * width) - (1 << (_field("H")[0] - 1) * width)
    p, r = s.numerator, s.denominator
    rows = tuple(
        tuple((j * step, comb(k, j) * p**j * r ** (top - j)) for j in range(k + 1))
        for k in range(top + 1)
    )
    return rows, _bits(dict(rows[-1])) + (top + 1).bit_length()


@lru_cache(maxsize=MEMO_SIZE)
def _z_rows(qmax):
    """The rows of z^k = y^k (1+y)^-k = sum_j (-1)^(j-k) C(j-1, k-1) y^j for
    k = 0..qmax (z^0 = 1), as (y-degree j <= qmax, int) entries, and the bits
    they add to a slot.  Output slot j sums digits below 2^(slot-1) times the
    entries of column j, whose absolute values sum to C (2^(j-1) for j >= 1),
    so it stays below 2^(slot-1) * 2^((C-1).bit_length()) for the largest C."""
    rows = [((0, 1),)] + [
        tuple((j, (-1) ** (j - k) * comb(j - 1, k - 1)) for j in range(k, qmax + 1))
        for k in range(1, qmax + 1)
    ]
    columns = [0] * (qmax + 1)
    for row in rows:
        for j, c in row:
            columns[j] += abs(c)
    return tuple(rows), (max(columns) - 1).bit_length()


def _map_slots(folded, slot, rows, out):
    """Each folded int's slots, signed digits at ``slot``, mapped by ``rows``
    (the (slot j, int) entries of each input slot k) into slots of width
    ``out``: the sum of digit_k * (row k folded at ``out``)."""
    half, smask = 1 << slot - 1, (1 << slot) - 1
    bias = sum(half << slot * k for k in range(len(rows)))
    images = [sum(c << out * j for j, c in row) for row in rows]
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


def _folded_mul(a, b, wmax, mask, cut, hmin=0, hshift=0):
    """Product of two folded series: one int product per monomial pair within
    wmax, each sum cut to its signed residue mod 2^cut (the slots kept).
    With ``hmin``, a pair whose H-degrees (the field at ``hshift``) sum
    below it is skipped."""
    buckets = [[] for _ in range(wmax + 1)]
    for item in b.items():
        buckets[item[0] & mask].append(item)
    below = list(accumulate(buckets))  # [w]: the b monomials of weight <= w
    prefixes = [below] + [  # [h][w]: ... of H-degree >= h as well
        [[i for i in p if i[0] >> hshift & mask >= h] for p in below]
        for h in range(1, hmin + 1)
    ]
    acc = defaultdict(int)
    for r1, f1 in a.items():
        h = max(hmin - (r1 >> hshift & mask), 0)
        for r2, f2 in prefixes[h][wmax - (r1 & mask)]:
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

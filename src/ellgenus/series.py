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
int key to int numerator plus one common denominator.  Only this module and
``_packed``, whose kernels run the products, shears and pushforwards on that
form, read or write the bits of a key; this module wraps those results in
``WSeries``.  Only the ``terms`` view builds a ``Fraction`` per term.
``_Product`` defers the product of its slope groups, each sheared by its
slope (``_shear``): its first read multiplies the sheared groups and keeps
the product beside them.  Its pushforward, read or not, runs by residues at
the bundle's exponents on its groups (``_residues``), and that of any other
series on it as one group at slope 0.

A sum puts both numerator maps over the lcm of the denominators; a scalar
p/r scales the numerators by p and the denominator by r; ``_scale_weights``
adds j to a key for y^j.  ``_reduced`` then divides the numerators and the
denominator by their gcd, so a value has one packed form, its denominator
the lcm of the reduced coefficient denominators, and ``==`` compares packed
forms.  The slices (``coeff``, ``y_slice``, ``weight_component``) and the
pairing of ``genseries`` with a base read one split of the packed keys by
(weight, y-degree), built on first use with each distinct monomial decoded
once.  The display (``sorted_terms``) is one sort of the packed keys, each
distinct monomial decoded and ranked once, and its writers write each
distinct monomial's factors once per sum.
"""

from _thread import allocate_lock
from collections import defaultdict
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import comb, gcd, lcm
from operator import index, mul
from types import MappingProxyType

from ._packed import MEMO_SIZE, var_weight
from ._packed import _field, _key_mono, _pack, _reduced, _rewidth, _unpack, _width
from ._packed import _graded, _group_facts, _in_y, _packed_mul, _residue_sum, _sheared


class TruncationMismatchError(ValueError):
    """Two series with different (wmax, qmax) were combined."""


class NotAUnitError(ValueError):
    """Inverse of a series whose constant (weight-0, y^0) term is zero."""


class TruncationDeficitError(ValueError):
    """An operation was asked for more output order than its input supports."""


def mono_from_dict(exps):
    """Canonical monomial from a {variable: exponent} mapping."""
    return _mono_and_weight(exps)[0]


def _mono_and_weight(exps):
    """The canonical monomial of a {variable: exponent} mapping and its
    weight, read in one pass."""
    items, weight = [], 0
    for v, e in exps.items():
        field, w = _field(v)  # validates the name
        e = index(e)
        if e < 0:
            raise ValueError("negative exponent for %r" % (v,))
        if e:
            items.append((field, v, e))
            weight += w * e
    items.sort()
    return tuple([(v, e) for _f, v, e in items]), weight


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


# Keys of every ``_top_memo`` whose top it keeps; its requests are ``MEMO_SIZE``.
MEMO_TOPS = 16


def _top_memo(build):
    """A memo of ``build(key, wmax, qmax)``, a series that truncates exactly:
    ``.tops`` keeps, for the latest keys, the build at the highest orders
    asked, replaced once a build at the join of a request past it succeeds;
    each request gets one truncation of it.  ``cache_clear`` empties both.
    A lock guards ``.tops``, not ``build``: threads may build a value twice."""
    tops, lock = {}, allocate_lock()

    @lru_cache(maxsize=MEMO_SIZE)
    def memo(key, wmax, qmax):
        with lock:
            top = tops.get(key)
        w, q = (wmax, qmax) if top is None else (top.wmax, top.qmax)
        if top is None or w < wmax or q < qmax:
            top = build(key, max(w, wmax), max(q, qmax))
        with lock:
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

    __slots__ = ("wmax", "qmax", "_packed", "_terms", "_split", "_facts")

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

    @classmethod
    def _of_ints(cls, wmax, qmax, nums, den):
        """The series of the int numerators ``nums`` {(monomial, y-degree): n}
        over ``den``, packed and reduced: each key canonical, within the orders."""
        return cls._trusted(wmax, qmax, _reduced(_pack(nums, wmax, qmax), den))

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
        fraction in lowest terms, ordered by weight, y-degree and monomial:
        one sort of the packed keys, each distinct monomial decoded and
        ranked once."""
        nums, den = self._packed
        width = _width(self.wmax, self.qmax)
        vshift = 2 * width  # past the y and weight fields, which sort as one int
        monos = {mk: _key_mono(mk, width) for mk in {key >> vshift for key in nums}}
        ranked = sorted(monos, key=lambda mk: _mono_sort_key(monos[mk]))
        rank = {mk: i for i, mk in enumerate(ranked)}
        shift, low, ymask = len(ranked).bit_length(), (1 << vshift) - 1, (1 << width) - 1
        out = []
        for key in sorted(nums, key=lambda key: (key & low) << shift | rank[key >> vshift]):
            n = nums[key]
            g = gcd(n, den)
            out.append((monos[key >> vshift], key & ymask, n // g, den // g))
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
    (``_shear``), deferred: it holds the groups, and builds its packed form
    on the first read and keeps it beside them.  ``pushforward`` of it runs
    by residues on the groups (``_residues``) and reads nothing.  The
    ``__getattr__`` lives here, not on ``WSeries``, whose every attribute
    read it would slow.

    With a ``fiber_dim`` f, the groups are polynomials in z = y/(1+y), held
    in the y slots, and the value is (1+y)^f times the product, mapped to y
    with that factor by rows on the unfolded product (``_in_y``)."""

    __slots__ = ("_groups", "_fiber_dim")

    def __new__(cls, groups, wmax, qmax, fiber_dim=None):
        series = object.__new__(cls)
        names = ("wmax", "qmax", "_terms", "_split", "_groups", "_fiber_dim")
        for name, value in zip(names, (wmax, qmax, None, None, groups, fiber_dim)):
            object.__setattr__(series, name, value)
        return series

    def __getattr__(self, name):
        if name != "_packed":
            raise AttributeError(name)
        packed = reduce(mul, (_shear(g, s) for s, g in self._groups.items()))._packed
        if self._fiber_dim is not None:
            packed = _in_y(packed, _width(self.wmax, self.qmax), self.qmax, self._fiber_dim)
        object.__setattr__(self, "_packed", packed)
        return packed


def _shear(series, s):
    """``series`` at H -> H + s*L (``_sheared``)."""
    if not s:
        return series
    return series._born(_sheared(series._packed, s, series.wmax, series.qmax))


def _residues(groups, wmax, qmax, exps, fiber_dim=None):
    """pi_* of the product of the series ``groups[s]`` at H -> H + s*L
    (``_shear``) along P(E), E = sum_i L^(m_i) for m_i in ``exps``, at
    (wmax - (r - 1), qmax): the Segre map, as a sum of residues
    (``_residue_sum``), which ``pushforward`` runs on every series (a plain
    one is one group at 0), times (1+y)^fiber_dim in y if the groups are in
    z (``_in_y``).  Each call folds its groups afresh and writes nothing to
    them but their lazily kept facts (``_facts``)."""
    packed = _residue_sum([(s, groups[s]._packed, _facts(groups[s])) for s in sorted(groups)],
                          wmax, qmax, exps)
    if fiber_dim is not None:
        packed = _in_y(packed, _width(wmax, qmax), qmax, fiber_dim)
    out_wmax = wmax - (len(exps) - 1)
    if _width(out_wmax, qmax) != _width(wmax, qmax):
        return WSeries._trusted(wmax, qmax, packed).truncate(out_wmax)
    return WSeries._trusted(out_wmax, qmax, packed)


def _facts(series):
    """The ``_group_facts`` of a group of ``_residues``, read once and kept
    with the series: a memoized group carries them from request to request."""
    facts = getattr(series, "_facts", None)
    if facts is None:
        facts = _group_facts(series._packed[0], _width(series.wmax, series.qmax))
        object.__setattr__(series, "_facts", facts)
    return facts


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
    terms, each fraction in lowest terms, in ``style`` (see ``_TEXT``)."""
    return _signed_sum(_term_texts(terms, style), style[4])


def _term_texts(terms, style, with_y=True):
    """(sign, body) of each ``(monomial, y-degree, numerator, denominator)``
    term in ``style``, sign '+' or '-': a coefficient of absolute value 1 is
    written only when the term has no factor, and y, left out unless
    ``with_y``, follows the monomial.  Each distinct monomial's factors are
    written once per call, with no y attached."""
    pow_fmt, name, frac_fmt, mul, _sep = style
    monos, out = {}, []
    for mono, q, n, d in terms:
        text = monos.get(mono)
        if text is None:
            text = monos[mono] = mul.join(
                [name(v) if e == 1 else pow_fmt % (name(v), e) for v, e in mono])
        if q and with_y:
            y = "y" if q == 1 else pow_fmt % ("y", q)
            text = text + mul + y if text else y
        coeff = "%d" % abs(n) if d == 1 else frac_fmt % (abs(n), d)
        if not text:
            text = coeff
        elif coeff != "1":
            text = coeff + mul + text
        out.append(("-" if n < 0 else "+", text))
    return out


def _signed_sum(parts, sep):
    """'a - b + c' from (sign, body) pairs, sign '+' or '-': the first body
    takes a bare '-' and no '+', each later sign stands between two ``sep``,
    and no parts give '0'."""
    if not parts:
        return "0"
    head = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    return head + "".join(sep + sign + sep + body for sign, body in parts[1:])

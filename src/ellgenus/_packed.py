"""The packed form of a series, and the kernels that run on it.

A packed series is a pair (nums, den): a dict from int key to int numerator
plus one common denominator.  This module alone reads or writes the bits of
a key.  Its functions take and return packed pairs and folded dicts, never
a ``WSeries``; ``series`` wraps their results.

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
- ``_sheared`` applies H -> H + s*L as rows of a per-term loop
  (``_map_rows``), which also runs the residues' maps to a pole.
- ``_residue_sum`` pushes the product of slope groups, each at H -> H + s*L,
  forward by residues at the bundle's exponents: at each pole the groups
  map by rows to jets in eps = H/L + m, held in the H field, and multiply
  with no shear and no dense (H, L) product; only the sum of the poles is
  unfolded.  With a fiber dimension f the groups are polynomials in z =
  y/(1+y), and the product (``_in_y``) or pushforward ends in one map of
  the folded ints, z^k -> (1+y)^f z^k = y^k (1+y)^(f-k) (``_to_y``), whose
  slots grow by the bits of the map's largest column sum, and one unfold.
- ``_unpack`` decodes for the ``terms`` view only: each key into a canonical
  monomial tuple and each numerator into one ``Fraction``.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add, mul

# Entries of every row cache here, and requests of every ``series._top_memo``.
MEMO_SIZE = 64


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


def _sheared(packed, s, wmax, qmax):
    """The packed series ``packed`` at H -> H + s*L, s != 0.  By the binomial
    theorem H^k spreads to sum_j C(k, j) s^j H^(k-j) L^j, which keeps every
    weight: with s = p/r, row k of ``_map_rows`` on the H field moves j from
    the H field to the L field with C(k, j) p^j r^(wmax-j), over r^wmax."""
    p, r = s.numerator, s.denominator
    width = _width(wmax, qmax)
    hshift = _field("H")[0] * width
    step = (1 << _field("L")[0] * width) - (1 << hshift)  # H^-1 L
    rows = [[(j * step, comb(k, j) * p**j * r ** (wmax - j)) for j in range(k + 1)]
            for k in range(wmax + 1)]
    nums, den = packed
    acc = _map_rows(nums.items(), hshift, (1 << width) - 1, rows)
    return _reduced(acc, den * r**wmax)


def _residue_sum(groups, facts, wmax, qmax, exps, fiber_dim):
    """pi_* of the product of the packed series ``groups[s]`` at H -> H + s*L
    (``_sheared``) along P(E), E = sum_i L^(m_i) for m_i in ``exps``, packed
    at the width of (wmax, qmax) with every key of weight <= wmax - (r - 1):
    the Segre map, as a sum of residues.  ``facts`` holds the
    ``_group_facts`` of each group, by ascending slope.

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
    product, no read and no share of the slot.  Each group's last fold is
    kept in its facts, at the slot of that fold.

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
    for s, (top, *_f) in zip(slopes, facts):
        den *= groups[s][1] * s.denominator**top
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
            f[4:] = slot, _fold(groups[s][0], width, slot)
    out = defaultdict(int)
    for jet, rows in live:
        acc = None
        for f, row in zip(facts, rows):
            mapped = _map_rows(f[5].items(), hshift, mask, row)
            acc = mapped if acc is None else _folded_mul(
                acc, mapped, wmax, mask, slot * (qmax + 1), len(jet), hshift
            )
        _read_pole(acc, jet, len(exps) - 1, width, out)
    return _to_y(out, slot, wmax, qmax, den, fiber_dim)


def _group_facts(nums, width):
    """[top, low, bits, count, slot, fold] of a group of ``_residue_sum``: its
    highest and lowest H-degree, the bits of its largest numerator, its term
    count, and its last fold with the slot of that fold (none yet)."""
    degrees = {key >> _field("H")[0] * width & (1 << width) - 1 for key in nums} or {0}
    return [max(degrees), min(degrees), _bits(nums), len(nums), 0, None]


def _read_pole(acc, jet, low, width, out):
    """Add to ``out`` the residue of a pole's folded product ``acc`` (keys
    without their y field, eps in the H field; ``_residue_sum``): each key
    of L-degree >= ``low`` = r - 1 and eps-degree k, less k eps and ``low``
    L's and weights, times the eps^(mu-1-k) coefficient ``jet[mu - 1 - k]``."""
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


def _in_y(packed, wmax, qmax, fiber_dim):
    """(1+y)^fiber_dim times the packed series ``packed`` in z = y/(1+y), in
    y: folded at one bit past its largest numerator and mapped by ``_to_y``."""
    nums, den = packed
    slot = _bits(nums) + 1
    return _to_y(_fold(nums, _width(wmax, qmax), slot), slot, wmax, qmax, den, fiber_dim)


def _to_y(folded, slot, wmax, qmax, den, fiber_dim):
    """The packed series of a folded one over ``den``.  Unless ``fiber_dim``
    is None, its slots are powers of z = y/(1+y), and it is first mapped to y
    times (1+y)^fiber_dim (``_z_rows``), into slots as much wider as that
    map's column sums need (``_map_slots``)."""
    if fiber_dim is not None:
        extra = _z_rows(qmax, fiber_dim)[1]
        folded = _map_slots(folded, slot, _z_images(qmax, fiber_dim, slot + extra))
        slot += extra
    return _unfold(folded, _width(wmax, qmax), slot, qmax, den)


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
    With ``mu`` > 1, the field at ``shift`` is an eps-degree (``_residue_sum``),
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

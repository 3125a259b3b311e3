"""The writers of a series (``sorted_terms``, ``to_text``, ``to_latex``, the
JSON text and the y-rows of ``q``) against reference writers that read only
the ``terms`` view, over L, H and c1..c10 at orders on both sides of 16."""

import json
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgenus import WSeries, cli, series
from ellgenus.cli import emit_series_json
from helpers import (
    reference_series_json_text,
    reference_sorted_terms,
    reference_text,
    reference_y_rows,
)

VARIABLES = ("L", "H") + tuple("c%d" % i for i in range(1, 11))
# orders on both sides of 16: 4-bit key fields below it, 5-bit ones from it
ORDERS = (0, 1, 3, 7, 10, 15, 16, 17, 20)


def _weight(v):
    return 1 if v in ("L", "H") else int(v[1:])


@st.composite
def written_series(draw):
    """A zero, a constant, or a sum of terms over a few monomials, each at
    several y-degrees, with ``Fraction`` coefficients."""
    wmax, qmax = draw(st.sampled_from(ORDERS)), draw(st.sampled_from(ORDERS))
    coeffs = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    kind = draw(st.sampled_from(("zero", "constant", "terms", "terms", "terms")))
    if kind == "zero":
        return WSeries.zero(wmax, qmax)
    if kind == "constant":
        return WSeries.const(draw(coeffs), wmax, qmax)
    monos = []  # each of one of a few weights, so that slices hold several
    weights = draw(st.lists(st.integers(0, wmax), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 8))):
        exps, budget = {}, draw(st.sampled_from(weights))
        while budget:
            v = draw(st.sampled_from([v for v in VARIABLES if _weight(v) <= budget]))
            exps[v], budget = exps.get(v, 0) + 1, budget - _weight(v)
        monos.append(series.mono_from_dict(exps))
    terms = {}
    for _ in range(draw(st.integers(1, 60))):
        key = (draw(st.sampled_from(monos)), draw(st.integers(0, qmax)))
        terms[key] = draw(coeffs)
    return WSeries(wmax, qmax, terms)


def _writer_mismatches(s):
    """The writers of ``s`` whose output differs from the reference's."""
    json_want = reference_series_json_text(s)
    rows_want = reference_y_rows(s)
    checks = [
        ("sorted_terms", s.sorted_terms(), reference_sorted_terms(s)),
        ("to_text", s.to_text(), reference_text(s)),
        ("str", str(s), reference_text(s)),
        ("to_latex", s.to_latex(), reference_text(s, latex=True)),
        ("json", cli._series_json_text(s), json_want),
        # the parse of the text written again by json: the text is exactly
        # json's indent-2, sorted-key form
        ("emit_series_json", json.dumps(emit_series_json(s), indent=2, sort_keys=True),
         json_want),
        ("q rows", cli._y_rows(s), rows_want),
        ("y_slice", [s.y_slice(q).to_text() for q in range(s.qmax + 1)], rows_want),
    ]
    return [name for name, got, want in checks if got != want]


_SEVEN_FACTORS = series.mono_from_dict({v: 1 for v in VARIABLES[:6]} | {"c10": 1})


@settings(max_examples=120)
@given(written_series())
@example(WSeries.zero(3, 2))
@example(WSeries.zero(20, 17))
@example(WSeries.const(F(-5, 3), 16, 0))
@example(WSeries.const(1, 0, 15))
@example(WSeries(25, 17, {(_SEVEN_FACTORS, 16): F(2, 7), (_SEVEN_FACTORS, 0): -1,
                          ((("c10", 2),), 17): F(1, 3), ((), 1): 1}))
def test_the_writers_equal_the_reference_writers(s):
    assert _writer_mismatches(s) == []


def _text_cached_with_its_y(terms, style, with_y=True):
    """A broken ``series._term_texts``: it keeps a monomial's text with the
    y-part of its first term attached."""
    pow_fmt, name, frac_fmt, mul, _sep = style
    cache, out = {}, []
    for mono, q, n, d in terms:
        text = cache.get(mono)
        if text is None:
            factors = [name(v) if e == 1 else pow_fmt % (name(v), e) for v, e in mono]
            if q and with_y:
                factors.append("y" if q == 1 else pow_fmt % ("y", q))
            text = cache[mono] = mul.join(factors)
        coeff = "%d" % abs(n) if d == 1 else frac_fmt % (abs(n), d)
        if not text:
            text = coeff
        elif coeff != "1":
            text = coeff + mul + text
        out.append(("-" if n < 0 else "+", text))
    return out


def test_a_writer_that_caches_a_monomial_with_its_y_part_fails(monkeypatch):
    # L at y^0 and at y^1: the broken writer prints L twice, with no y
    s = WSeries(3, 2, {((("L", 1),), 0): F(1), ((("L", 1),), 1): F(-2, 3)})
    assert s.to_text() == "L - 2/3*L*y"
    assert _writer_mismatches(s) == []
    monkeypatch.setattr(series, "_term_texts", _text_cached_with_its_y)
    assert s.to_text() == "L - 2/3*L"
    assert _writer_mismatches(s) == ["to_text", "str", "to_latex"]

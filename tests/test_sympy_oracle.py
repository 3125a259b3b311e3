"""sympy as an outside oracle of the closed-form texts: each family's
``closed_form_text`` is parsed and expanded in y by sympy, and every
y^n coefficient must be the U-polynomial ``p_polynomial`` gives."""

import pytest
import sympy

from ellgenus import FAMILIES, closed_form_text, p_polynomial

NMAX = 5
U, Y = sympy.symbols("U y")


def sympy_rows(text, nmax):
    """The y^0..y^nmax coefficients of ``text`` as ascending U-coefficient
    lists of rationals, trailing zeros stripped."""
    expr = sympy.sympify(text.replace("^", "**"), locals={"U": U, "y": Y})
    series = sympy.series(expr, Y, 0, nmax + 1).removeO()
    rows = []
    for n in range(nmax + 1):
        coeffs = sympy.Poly(sympy.expand(series.coeff(Y, n)), U).all_coeffs()
        row = [sympy.Rational(c) for c in reversed(coeffs)]
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    return rows


def text_matches_table(family, text):
    expected = [list(p_polynomial(family, n).coeffs) for n in range(NMAX + 1)]
    return sympy_rows(text, NMAX) == expected


@pytest.mark.parametrize("fam", FAMILIES)
def test_closed_form_text_expands_to_the_p_table(fam):
    assert text_matches_table(fam, closed_form_text(fam))


def test_corrupted_closed_form_text_is_caught():
    text = closed_form_text("D5")
    assert "- 3" in text
    assert not text_matches_table("D5", text.replace("- 3", "- 2"))

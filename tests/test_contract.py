"""The public contract in one table: the signature text, defaults included,
of every callable in ``ellgenus.__all__`` and of ``ellgenus.cli``'s public
surface, and the (wmax, qmax) of the series that each series-returning
function gives back.  A changed, added or removed public name, or a changed
default, fails here until the table is updated (README "Library tour"
states the default orders, and ``tests/test_readme.py`` reads them against
this table)."""

import inspect

import pytest

import ellgenus
from ellgenus import CATALOG, BundleSpec, RootForm, WSeries, cli

SIGNATURES = {
    "BaseSpec": "(dim, table)",
    "BundleSpec": "(exps)",
    "FibrationSpec": "(name, bundle, n_roots)",
    "MissingIntersectionError": "<exception ValueError>",
    "NotAUnitError": "<exception ValueError>",
    "Poly": "(coeffs=())",
    "RootForm": "(a, b)",
    "TruncationDeficitError": "<exception ValueError>",
    "TruncationMismatchError": "<exception ValueError>",
    "VerificationError": "<exception AssertionError>",
    "WSeries": "(wmax, qmax, terms=None)",
    "catalog_spec": "(family)",
    "chi_q": "(family_or_spec, base, q, verify=False)",
    "chi_series": "(family_or_spec, tmax, qmax=None)",
    "chi_values": "(family_or_spec, base)",
    "chi_y_log_coefficients": "(kmax)",
    "closed_form_q": "(family, wmax=6, qmax=7)",
    "closed_form_text": "(family)",
    "derivative_pushforward_d5": "(series)",
    "derived_q": "(spec, wmax=6, qmax=7)",
    "euler_series_e8": "(dmax, qmax=0)",
    "fiber_integrand": "(spec, wmax, qmax)",
    "hadamard_apply": "(coeffs, series)",
    "hirzebruch_class": "(dim, qmax=None)",
    "integrate": "(cls, base)",
    "lambda_y_factor": "(root, wmax, qmax)",
    "mono_from_dict": "(exps)",
    "mono_weight": "(mono)",
    "p_polynomial": "(family, n)",
    "p_polynomials": "(family, nmax)",
    "p_table_reference": "(family, n)",
    "power_sum_series": "(kmax, qmax=0)",
    "power_sums_from_chern": "(kmax, qmax=0)",
    "pushforward": "(series, bundle)",
    "pushforward_class": "(family_or_spec, d, qmax=None)",
    "run_suites": "(families='all', wmax=6, qmax=7)",
    "segre_series": "(bundle, wmax, qmax=0)",
    "todd_factor": "(root, wmax, qmax=0)",
    "var_weight": "(name)",
    # the command line's front: the entry points, its error and the readers
    # and writers that the benchmark's tracer counts
    "cli.main": "(argv=None)",
    "cli.run": "()",
    "cli.UsageError": "<exception ValueError>",
    "cli.load_base_spec": "(path)",
    "cli.load_fibration_spec": "(path)",
    "cli.parse_base_arg": "(text)",
    "cli.parse_series_json": "(data)",
    "cli.series_to_records": "(series)",
    "cli.emit_series_json": "(series)",
}

_E8 = CATALOG["E8"]

# Per series-returning function: a call with every defaulted argument left
# out, and the (wmax, qmax) of the series it returns (of each, for a list).
ORDERS = [
    ("closed_form_q", ("E8",), (6, 7)),
    ("derived_q", (_E8,), (6, 7)),
    ("chi_series", ("E8", 2), (2, 4)),  # qmax: dim Y + 1 = 2 + 1 + 1
    ("pushforward_class", ("E8", 2), (2, 4)),
    ("hirzebruch_class", (2,), (2, 4)),  # qmax: dim + 2
    ("euler_series_e8", (2,), (2, 0)),
    ("power_sum_series", (3,), (3, 0)),
    ("power_sums_from_chern", (3,), (3, 0)),
    ("segre_series", (BundleSpec((0, 2, 3)), 3), (3, 0)),
    ("todd_factor", (RootForm(1, 0), 3), (3, 0)),
    ("lambda_y_factor", (RootForm(1, 0), 3, 2), (3, 2)),
    ("fiber_integrand", (_E8, 3, 4), (3, 4)),
    ("pushforward", (WSeries.var("H", 4, 4), _E8.bundle), (2, 4)),  # rank 3
    ("derivative_pushforward_d5", (WSeries.var("H", 5, 3),), (2, 3)),  # rank 4
    ("hadamard_apply", (ellgenus.chi_y_log_coefficients(3),
                        ellgenus.power_sum_series(3, 2)), (3, 2)),
]


def _contract(obj):
    """The signature text of a callable; an exception class by its bases,
    since ``inspect.signature`` reads none from a builtin's ``__init__``."""
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return "<exception %s>" % ", ".join(b.__name__ for b in obj.__bases__)
    return str(inspect.signature(obj))


def _public(name):
    return getattr(cli, name[4:]) if name.startswith("cli.") else getattr(ellgenus, name)


def test_the_table_names_every_public_callable():
    exported = {n for n in ellgenus.__all__ if callable(getattr(ellgenus, n))}
    assert exported == {n for n in SIGNATURES if not n.startswith("cli.")}
    assert {n for n, _args, _orders in ORDERS} <= exported


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_each_public_signature_is_as_tabled(name):
    assert _contract(_public(name)) == SIGNATURES[name]


@pytest.mark.parametrize("name, args, orders", ORDERS, ids=[o[0] for o in ORDERS])
def test_each_default_call_returns_its_tabled_orders(name, args, orders):
    got = _public(name)(*args)
    for series in got if isinstance(got, list) else [got]:
        assert isinstance(series, WSeries)
        assert (series.wmax, series.qmax) == orders


def test_the_table_sees_the_two_defaults_it_pins(monkeypatch):
    # negative control: hirzebruch_class's default one y-degree higher keeps
    # its signature, so only its call sees it; power_sum_series with qmax=1
    # by default changes both
    real_class, real_sums = ellgenus.hirzebruch_class, ellgenus.power_sum_series

    def hirzebruch_class(dim, qmax=None):
        return real_class(dim, dim + 3 if qmax is None else qmax)

    def power_sum_series(kmax, qmax=1):
        return real_sums(kmax, qmax)

    monkeypatch.setattr(ellgenus, "hirzebruch_class", hirzebruch_class)
    monkeypatch.setattr(ellgenus, "power_sum_series", power_sum_series)
    calls = {row[0]: row for row in ORDERS}
    test_each_public_signature_is_as_tabled("hirzebruch_class")
    for check, args in [
        (test_each_public_signature_is_as_tabled, ("power_sum_series",)),
        (test_each_default_call_returns_its_tabled_orders, calls["hirzebruch_class"]),
        (test_each_default_call_returns_its_tabled_orders, calls["power_sum_series"]),
    ]:
        with pytest.raises(AssertionError):
            check(*args)

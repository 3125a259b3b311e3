"""Command-line surface: catalog inspection, formula emission, numeric
chi_q evaluation, and the self-verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (a fault of the program, never of the input).
All numbers are emitted as exact rational strings; series round-trip
losslessly through the JSON record schema.
"""

import os
import sys
from fractions import Fraction

from .charclasses import RootForm
from .fibrations import (
    FAMILIES,
    DEFAULT_QMAX,
    DEFAULT_WMAX,
    FibrationSpec,
    _total_dim,
    closed_form_q,
    closed_form_text,
    derived_q,
    p_polynomials,
    p_table_reference,
)
from .genseries import BaseSpec, MissingIntersectionError, chi_q, chi_series
from .pushforward import BundleSpec
from .series import WSeries, _TEXT, _sum_text, mono_from_dict, mono_weight


class UsageError(ValueError):
    """Bad arguments, unknown family, or a malformed input file."""


# ---------------------------------------------------------------------------
# JSON record schema for series


def series_to_records(series):
    """One {"t_deg", "y_deg", "terms"} record per homogeneous block, with
    terms [{"exps": {var: exp}, "coeff": "num/den"}] in sorted order."""
    blocks = {}
    for mono, q, n, d in series.sorted_terms():
        coeff = "%d" % n if d == 1 else "%d/%d" % (n, d)  # as str(Fraction)
        blocks.setdefault((mono_weight(mono), q), []).append(
            {"exps": {v: e for v, e in mono}, "coeff": coeff}
        )
    return [
        {"t_deg": k, "y_deg": q, "terms": terms}
        for (k, q), terms in sorted(blocks.items())
    ]


def emit_series_json(series):
    return {
        "wmax": series.wmax,
        "qmax": series.qmax,
        "records": series_to_records(series),
    }


_RECORD = ('    {\n      "t_deg": %d,\n      "terms": [\n%s\n      ],\n'
           '      "y_deg": %d\n    }')
_TERM = '        {\n          "coeff": "%s",\n          "exps": %s\n        }'
_EXP = '            "%s": %d'


def _series_json_text(series):
    """``json.dumps(emit_series_json(series), indent=2, sort_keys=True)``,
    written directly: the schema's keys are fixed and already in sorted
    order, and its variable names and coefficients need no escaping."""
    records = []
    for r in series_to_records(series):
        terms = []
        for t in r["terms"]:
            exps = ",\n".join(_EXP % ve for ve in sorted(t["exps"].items()))
            exps = "{\n%s\n          }" % exps if exps else "{}"
            terms.append(_TERM % (t["coeff"], exps))
        records.append(_RECORD % (r["t_deg"], ",\n".join(terms), r["y_deg"]))
    records = "[\n%s\n  ]" % ",\n".join(records) if records else "[]"
    return '{\n  "qmax": %d,\n  "records": %s,\n  "wmax": %d\n}' % (
        series.qmax, records, series.wmax)


def parse_series_json(data):
    try:
        wmax = _json_int(data["wmax"], "wmax")
        qmax = _json_int(data["qmax"], "qmax")
        terms = {}
        for record in data["records"]:
            q = _json_int(record["y_deg"], "y_deg")
            for term in record["terms"]:
                mono = _json_mono(term["exps"])
                terms[(mono, q)] = _json_rational(term["coeff"], "coeff")
        return WSeries(wmax, qmax, terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("malformed series JSON: %s" % exc)


# ---------------------------------------------------------------------------
# input files


def __getattr__(name):
    """``json``, loaded on first use (``_json``)."""
    if name == "json":
        return _json()
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _json():
    """The ``json`` module as this module holds it, imported on first use: a
    start that reads no JSON file and names no bad JSON value does not
    compile it.  It stays an attribute, ``cli.json``, which the benchmark's
    tracer replaces to count ``json.dumps`` as formatting."""
    held = globals().get("json")
    if held is None:
        import json as held

        globals()["json"] = held
    return held


def _json_int(value, what):
    """A JSON integer; floats, bools and strings are refused, never rounded."""
    if type(value) is not int:
        raise UsageError("%s must be an integer, got %s" % (what, _json().dumps(value)))
    return value


def _json_rational(value, what):
    """An exact rational from a JSON integer or a "num/den" string; a JSON
    float is refused rather than read as a binary fraction."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(
        "%s must be an exact rational string, got %s" % (what, _json().dumps(value))
    )


def _json_mono(exps):
    """A monomial from a JSON object of {variable: integer exponent}."""
    if not isinstance(exps, dict):
        raise UsageError("exps must be a JSON object, got %s" % _json().dumps(exps))
    return mono_from_dict({v: _json_int(e, "exponent") for v, e in exps.items()})


def _json_roots(entries, what):
    return tuple(
        RootForm(_json_int(a, what), _json_int(b, what)) for a, b in entries
    )


def _load_json_object(path, what):
    """The JSON object in the file at ``path``; ``what`` names the file."""
    json = _json()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s file %s: %s" % (what, path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("%s file %s is not valid JSON: %s" % (what, path, exc))
    if not isinstance(data, dict):
        raise UsageError("%s file %s does not hold a JSON object" % (what, path))
    return data


def load_fibration_spec(path):
    """{"name": str, "bundle": [int], "n_roots": [[a,b]], "f_roots"?: [[a,b]]}"""
    data = _load_json_object(path, "spec")
    for field_name in ("name", "bundle", "n_roots"):
        if field_name not in data:
            raise UsageError("spec file %s: missing field %r" % (path, field_name))
    try:
        bundle = BundleSpec(
            tuple(_json_int(m, "bundle exponent") for m in data["bundle"])
        )
        n_roots = _json_roots(data["n_roots"], "n_roots")
        if "f_roots" in data:  # optional; the bundle fixes the F-roots
            f_roots = _json_roots(data["f_roots"], "f_roots")
            if sorted((r.a, r.b) for r in f_roots) != sorted(
                (1, m) for m in bundle.exps
            ):
                raise ValueError(
                    "f_roots must be {H + m*L} for the bundle exponents %s"
                    % (bundle.exps,)
                )
        return FibrationSpec(name=str(data["name"]), bundle=bundle, n_roots=n_roots)
    except (TypeError, ValueError) as exc:
        raise UsageError("spec file %s: %s" % (path, exc))


def load_base_spec(path):
    """{"dim": d, "monomials": [{"exps": {...}, "value": "num/den"}]}"""
    data = _load_json_object(path, "base")
    try:
        dim = _json_int(data["dim"], "dim")
        table = {}
        for entry in data["monomials"]:
            mono = _json_mono(entry["exps"])
            table[mono] = _json_rational(entry["value"], "value")
        return BaseSpec(dim=dim, table=table)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("base file %s: %s" % (path, exc))


def parse_base_arg(text):
    """pd:<d>:<n> means P^d with L = O(n)."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "pd":
        raise UsageError("base %r not understood (expected pd:<d>:<n>)" % text)
    try:
        d, n = _integer(parts[1]), _integer(parts[2])
    except ValueError:
        raise UsageError("base %r not understood (expected integers)" % text)
    if d < 0:
        raise UsageError("base dimension must be >= 0")
    return BaseSpec.projective_space(d, n)


def resolve_family_or_spec(token):
    """A catalog family name, or a path to a spec JSON file."""
    if token in FAMILIES:
        return token
    if os.path.exists(token):
        return load_fibration_spec(token)
    raise UsageError(
        "unknown family %r (expected one of %s, or a spec file path)"
        % (token, "/".join(FAMILIES))
    )


# ---------------------------------------------------------------------------
# commands


def cmd_q(args):
    target = resolve_family_or_spec(args.family)
    if args.closed:
        if not isinstance(target, str):
            raise UsageError("--closed is only available for catalog families")
        print("Q(%s) = %s   [U = exp(-L)]" % (target, closed_form_text(target)))
        return 0
    if isinstance(target, str):
        series = closed_form_q(target, args.wmax, args.qmax)
        label = target
    else:
        series = derived_q(target, args.wmax, args.qmax)
        label = target.name
    if args.format == "json":
        print(_series_json_text(series))
    elif args.format == "latex":
        print(series.to_latex())
    else:
        print("Q(%s) expanded to weight %d, y-degree %d:" % (label, args.wmax, args.qmax))
        rows = [[] for _ in range(args.qmax + 1)]  # the y^q coefficient's terms
        for mono, q, n, d in series.sorted_terms():
            rows[q].append((mono, 0, n, d))
        for q, row in enumerate(rows):
            if row or q <= args.wmax + 1:
                print("  y^%d: %s" % (q, _sum_text(row, _TEXT)))
    return 0


def cmd_ptable(args):
    if args.family not in FAMILIES:
        raise UsageError("unknown family %r" % args.family)
    mismatches = []
    for n, poly in enumerate(p_polynomials(args.family, args.nmax)):
        print("P%d = %s" % (n, poly.to_text()))
        if args.check and poly != p_table_reference(args.family, n):
            mismatches.append(n)
    if args.check:
        if mismatches:
            print("check: FAIL at n = %s" % mismatches)
            return 1
        print("check: PASS (n <= %d)" % args.nmax)
    return 0


def cmd_chi(args):
    target = resolve_family_or_spec(args.family)
    if args.base_file:
        base = load_base_spec(args.base_file)
    elif args.base:
        base = parse_base_arg(args.base)
    else:
        raise UsageError("a base is required (--base pd:<d>:<n> or --base-file)")
    d = base.dim
    top = _total_dim(target, d)
    if args.q == "all":
        qs = list(range(0, top + 1))
    else:
        try:
            qs = [_integer(args.q)]
        except ValueError:
            raise UsageError("--q expects an integer or 'all'")
        if not (0 <= qs[0] <= top):
            raise UsageError("q=%d is out of range 0..dim Y = 0..%d" % (qs[0], top))
    values = []
    for q in qs:
        if args.show_class:
            cls = chi_series(target, d, top + 1).coeff(d, q)
            print("class for q=%d (weight %d): %s" % (q, d, cls.to_text()))
        try:
            value = chi_q(target, base, q)
        except MissingIntersectionError as exc:  # bad input only in a base file
            raise UsageError(exc) if args.base_file else exc
        values.append(value)
        print("chi_%d = %s" % (q, value))
    if args.q == "all":
        alternating = sum(v * Fraction((-1) ** i) for i, v in enumerate(values))
        print("alternating sum = %s" % alternating)
    return 0


def cmd_verify(args):
    from .verify import run_suites

    ok, results = run_suites(args.family, args.wmax, args.qmax)
    failed = 0
    for name, fails in results:
        if fails:
            failed += 1
            print("%s: FAIL" % name)
            for line in fails[:5]:
                print("  %s" % line)
            if len(fails) > 5:
                print("  ... and %d more" % (len(fails) - 5))
        else:
            print("%s: PASS" % name)
    if ok:
        print("PASS (%d suites)" % len(results))
        return 0
    print("FAIL (%d of %d suites)" % (failed, len(results)))
    return 1


# ---------------------------------------------------------------------------


def _integer(text):
    """An int from ASCII decimal digits with an optional leading '-': ``int``
    alone also takes other scripts' digits, '_', spaces and a '+'."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer: %r" % (text,))
    return int(text)


def _order(text):
    """An order option (--wmax, --qmax, --nmax): an integer >= 0."""
    if _integer(text) < 0:
        import argparse

        raise argparse.ArgumentTypeError("must be >= 0, got %s" % text)
    return int(text)


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="ellgenus",
        description="Exact chi_y-genus computations for elliptic fibrations "
        "(D5/E6/E7/E8 and custom complete-intersection families).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_q = sub.add_parser("q", help="emit the genus factor Q of a family")
    p_q.add_argument("family", help="catalog family (D5/E6/E7/E8) or spec file")
    p_q.add_argument("--wmax", type=_order, default=DEFAULT_WMAX)
    p_q.add_argument("--qmax", type=_order, default=DEFAULT_QMAX)
    p_q.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_q.add_argument(
        "--closed", action="store_true", help="print the unexpanded closed form"
    )
    p_q.set_defaults(func=cmd_q)

    p_pt = sub.add_parser("ptable", help="print the P_n polynomials in U")
    p_pt.add_argument("family")
    p_pt.add_argument("--nmax", type=_order, default=6)
    p_pt.add_argument(
        "--check", action="store_true", help="compare against the tabulated forms"
    )
    p_pt.set_defaults(func=cmd_ptable)

    p_chi = sub.add_parser("chi", help="evaluate chi_q over a concrete base")
    p_chi.add_argument("family", help="catalog family or spec file")
    p_chi.add_argument("--base", help="pd:<d>:<n> for P^d with L = O(n)")
    p_chi.add_argument("--base-file", help="JSON intersection table")
    p_chi.add_argument("--q", default="all", help="a single q, or 'all'")
    p_chi.add_argument(
        "--class",
        dest="show_class",
        action="store_true",
        help="also print the symbolic integrand class",
    )
    p_chi.set_defaults(func=cmd_chi)

    p_v = sub.add_parser("verify", help="run the self-verification suites")
    p_v.add_argument("--family", default="all", choices=("all",) + FAMILIES)
    p_v.add_argument("--wmax", type=_order, default=DEFAULT_WMAX)
    p_v.add_argument("--qmax", type=_order, default=DEFAULT_QMAX)
    p_v.set_defaults(func=cmd_verify)

    return parser


_PARSER = None  # build_parser() once per process; parsing does not change it


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other exits
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:  # bad input
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()

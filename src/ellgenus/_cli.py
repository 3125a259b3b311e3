"""The command line behind ``ellgenus.cli``, imported on its first use
there: the option table ``_COMMANDS``, the argv reader ``_read``, --help,
the ``cmd_*`` handlers, the series JSON writer and the bodies of ``cli``'s
readers.  The readers are called through ``cli`` (``cli.load_base_spec``)
and JSON through ``cli``'s ``json`` attribute (``_json``), where the
benchmark's tracer counts them.
"""

import os
import re
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

from . import cli
from .charclasses import RootForm
from .cli import UsageError, _json
from .fibrations import (FAMILIES, DEFAULT_QMAX, DEFAULT_WMAX, FibrationSpec, _genus_factor,
                         _total_dim, closed_form_text, p_polynomials, p_table_reference)
from .genseries import BaseSpec, MissingIntersectionError, chi_q, chi_series
from .pushforward import BundleSpec
from .series import WSeries, _TEXT, _mono_and_weight, _signed_sum, _term_texts, mono_weight


# ---------------------------------------------------------------------------
# JSON record schema for series


_RECORD = ('    {\n      "t_deg": %d,\n      "terms": [\n%s\n      ],\n'
           '      "y_deg": %d\n    }')
_COEFF = '        {\n          "coeff": "'  # a term's text is _COEFF, its coefficient
_EXPS = '",\n          "exps": %s\n        }'  # and _EXPS of its exps text
_EXP = '            "%s": %d'


def _series_json_text(series):
    """The one writer of the series JSON schema, in ``json.dumps``'s
    ``indent=2, sort_keys=True`` form, written directly from the sorted
    terms: the schema's keys are fixed and already in sorted order, its
    variable names and coefficients need no escaping, and each distinct
    monomial's weight and ``exps`` text are written once."""
    records, terms, block_w, block_q, tails = [], [], -1, -1, {}
    for mono, q, n, d in series.sorted_terms():
        known = tails.get(mono)
        if known is None:
            exps = ",\n".join([_EXP % ve for ve in sorted(mono)])
            exps = "{\n%s\n          }" % exps if exps else "{}"
            known = tails[mono] = (mono_weight(mono), _EXPS % exps)
        weight, tail = known
        if q != block_q or weight != block_w:
            if terms:
                records.append(_RECORD % (block_w, ",\n".join(terms), block_q))
            block_w, block_q, terms = weight, q, []
        terms.append(_COEFF + ("%d" % n if d == 1 else "%d/%d" % (n, d)) + tail)
    if terms:
        records.append(_RECORD % (block_w, ",\n".join(terms), block_q))
    records = "[\n%s\n  ]" % ",\n".join(records) if records else "[]"
    return '{\n  "qmax": %d,\n  "records": %s,\n  "wmax": %d\n}' % (
        series.qmax, records, series.wmax)


def _parse_series_json(data):
    """The series of a JSON record set, read strictly: every term's weight
    is its record's ``t_deg``, lies within the orders, and appears once."""
    try:
        wmax = _json_int(data["wmax"], "wmax")
        qmax = _json_int(data["qmax"], "qmax")
        terms = {}
        for record in data["records"]:
            k = _json_int(record["t_deg"], "t_deg")
            q = _json_int(record["y_deg"], "y_deg")
            for term in record["terms"]:
                mono, weight = _json_mono(term["exps"])
                if weight != k:
                    fault = "has weight %d, not its record's t_deg %d" % (weight, k)
                elif k > wmax or q > qmax:
                    fault = "lies past (wmax, qmax) = (%d, %d)" % (wmax, qmax)
                elif (mono, q) in terms:
                    fault = "appears twice"
                else:
                    fault = None
                if fault:
                    where = "term %s at y_deg %d" % (_json().dumps(term["exps"]), q)
                    raise ValueError("%s %s" % (where, fault))
                terms[(mono, q)] = Fraction(*_json_rational(term["coeff"], "coeff"))
        return WSeries(wmax, qmax, terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("malformed series JSON: %s" % exc)


# ---------------------------------------------------------------------------
# input files


def _json_int(value, what):
    """A JSON integer; floats, bools and strings are refused, never rounded."""
    if type(value) is not int:
        raise UsageError("%s must be an integer, got %s" % (what, _json().dumps(value)))
    return value


def _json_rational(value, what):
    """(numerator, denominator), in lowest terms, of an exact rational: a
    JSON integer, or a string "num" or "num/den" of ASCII digits, num with an
    optional leading '-' and den > 0.  A JSON float is refused rather than
    read as a binary fraction, and so is any other string."""
    if type(value) is int:
        return value, 1
    form = ""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            n, d = _integer(num), _integer(den) if slash else 1
        except ValueError:
            n, d = 0, 0
        if d > 0:  # a den of 0 or with a '-' is refused
            g = gcd(n, d)
            return n // g, d // g
        form = ' "num" or "num/den" (ASCII digits, num may start with "-", den > 0)'
    raise UsageError("%s must be an exact rational string%s, got %s"
                     % (what, form, _json().dumps(value)))


def _json_mono(exps):
    """A canonical monomial and its weight from a JSON object of {variable:
    integer exponent}."""
    if not isinstance(exps, dict):
        raise UsageError("exps must be a JSON object, got %s" % _json().dumps(exps))
    for e in exps.values():
        _json_int(e, "exponent")
    return _mono_and_weight(exps)


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


def _load_fibration_spec(path):
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


def _load_base_spec(path):
    """{"dim": d, "monomials": [{"exps": {...}, "value": "num/den"}]}, read in
    one pass: each entry's canonical monomial, its weight and its value as
    ints; the base is built from those ints.  A monomial given twice (a
    zero exponent aside) or with a factor H, not a base class, is refused."""
    data = _load_json_object(path, "base")
    try:
        dim = _json_int(data["dim"], "dim")
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        table = {}
        for entry in data["monomials"]:
            mono, weight = _json_mono(entry["exps"])
            if weight != dim:
                raise ValueError("table monomial %r has weight != %d" % (mono, dim))
            if mono in table or "H" in dict(mono):
                why = ("repeats %r" % (mono,) if mono in table
                       else "has a factor H, not a base class")
                raise ValueError("table entry %s %s" % (_json().dumps(entry["exps"]), why))
            table[mono] = _json_rational(entry["value"], "value")
        den = lcm(*[d for _n, d in table.values()])
        ints = {mono: n * (den // d) for mono, (n, d) in table.items()}
        return BaseSpec._of_ints(dim, ints, den)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("base file %s: %s" % (path, exc))


def _parse_base_arg(text):
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
        return cli.load_fibration_spec(token)
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
    series = _genus_factor(target, args.wmax, args.qmax)
    if args.format == "json":
        print(_series_json_text(series))
    elif args.format == "latex":
        print(series.to_latex())
    else:
        label = target if isinstance(target, str) else target.name
        lines = ["Q(%s) expanded to weight %d, y-degree %d:" % (label, args.wmax, args.qmax)]
        for q, text in enumerate(_y_rows(series)):
            if text != "0" or q <= args.wmax + 1:  # a row with terms is never "0"
                lines.append("  y^%d: %s" % (q, text))
        print("\n".join(lines))
    return 0


def _y_rows(series):
    """The text of the y^q coefficient of ``series`` for q = 0..qmax, each
    as ``series.y_slice(q).to_text()`` writes it: one walk writes every
    term, and the rows split it by y-degree."""
    rows = [[] for _ in range(series.qmax + 1)]
    terms = series.sorted_terms()
    for (_mono, q, _n, _d), part in zip(terms, _term_texts(terms, _TEXT, False)):
        rows[q].append(part)
    return [_signed_sum(row, " ") for row in rows]


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
        base = cli.load_base_spec(args.base_file)
    elif args.base:
        base = cli.parse_base_arg(args.base)
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
        raise UsageError("must be >= 0, got %s" % text)
    return int(text)


# The one table of the command line, read by the argv reader, the usage lines and
# --help.  Per command: handler, help, positional (or None) and options {option:
# (attribute, reader, default, help)}; a reader converts, lists choices, or is None.
_ORDERS = {"--wmax": ("wmax", _order, DEFAULT_WMAX, "weight order"),
           "--qmax": ("qmax", _order, DEFAULT_QMAX, "y-order")}
_COMMANDS = {
    "q": (cmd_q, "emit the genus factor Q of a family or spec file", "family", {
        **_ORDERS, "--format": ("format", ("text", "json", "latex"), "text", "output form"),
        "--closed": ("closed", None, False, "print the unexpanded closed form")}),
    "ptable": (cmd_ptable, "print the P_n polynomials in U of a catalog family", "family", {
        "--nmax": ("nmax", _order, 6, "last n"),
        "--check": ("check", None, False, "compare against the tabulated forms")}),
    "chi": (cmd_chi, "evaluate chi_q of a family or spec file over a base", "family", {
        "--base": ("base", str, None, "pd:<d>:<n> for P^d with L = O(n)"),
        "--base-file": ("base_file", str, None, "JSON intersection table"),
        "--q": ("q", str, "all", "a single q, or 'all'"),
        "--class": ("show_class", None, False, "also print the integrand class")}),
    "verify": (cmd_verify, "run the self-verification suites", None, {
        "--family": ("family", ("all",) + FAMILIES, "all", "families to check"), **_ORDERS}),
}
_TOP = (None, "Exact chi_y-genus computations for elliptic fibrations.", "command", {})


class _Usage(Exception):
    """(command or None, message) of a refused command line; None asks for help."""


def _option(word, names, command):
    """A word read among the option strings ``names``: None for a positional,
    else (its option or "" if unknown, its attached value)."""
    if word[:1] != "-" or word == "-":
        return None
    head, eq, value = word.partition("=")
    if head in names:
        return head, value if eq else None
    hits = [name for name in names if name.startswith(head)] if word[1] == "-" else []
    if len(hits) > 1:
        raise _Usage(command, "ambiguous option: %s could match %s" % (word, ", ".join(hits)))
    if hits:  # the unique prefix of a long option
        return hits[0], value if eq else None
    if word[1] == "h":  # -h, then more short options: only more h's
        return "-h", word[2:].lstrip("h") or None
    return None if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word else ("", None)


def _read(argv, command=None, extras=()):
    """The namespace of ``argv`` by the table, by the rules of README "Command
    line"; raises ``_Usage``.  Every word of a command is classed before any
    is taken, so an ambiguous prefix is refused first, wherever it stands;
    the program level classes only the words up to the command word."""
    func, _about, positional, options = _COMMANDS[command] if command else _TOP
    names, dash = ("-h", "--help", *options), argv.index("--") if "--" in argv else len(argv)
    kinds = []
    for word in argv[:dash]:
        kinds.append(_option(word, names, command))
        if kinds[-1] is None and not command:
            break  # the command word: the command classes the rest
    kinds += [None] * (len(argv) - len(kinds))
    args, extras, at, i = {r[0]: r[2] for r in options.values()}, list(extras), None, 0
    while i < len(argv):
        word, kind, i = argv[i], kinds[i], i + 1
        if kind is None and not command and (word != "--" or i < len(argv)):
            if word in _COMMANDS:  # the command reads the rest
                return _read(argv[i:], word, extras)
            raise _Usage(None, "argument command: invalid choice: %r (choose from %s)"
                         % (word, ", ".join(map(repr, _COMMANDS))))
        if i - 1 == dash and positional and at in (None, i - 2):
            continue  # a "--" next to the positional goes with it
        if kind is None and positional and at is None:
            args[positional], at = word, i - 1
        elif kind is None or not kind[0]:
            extras.append(word)
        else:
            (option, value), (dest, reader) = kind, options.get(kind[0], (None, None))[:2]
            if reader is None and value is not None:
                raise _Usage(command, "argument %s: ignored explicit argument %r"
                             % (option if dest else "-h/--help", value))
            if dest is None:
                raise _Usage(command, None)
            if reader and value is None:
                if i >= min(dash, len(argv)) or kinds[i] is not None:
                    raise _Usage(command, "argument %s: expected one argument" % option)
                value, i = argv[i], i + 1
            if isinstance(reader, tuple) and value not in reader:
                raise _Usage(command, "argument %s: invalid choice: %r (choose from %s)"
                             % (option, value, ", ".join(map(repr, reader))))
            try:  # a flag reads True, a choice itself
                args[dest] = reader(value) if callable(reader) else reader is None or value
            except UsageError as exc:
                raise _Usage(command, "argument %s: %s" % (option, exc))
            except ValueError:
                raise _Usage(command, "argument %s: invalid %s value: %r"
                             % (option, reader.__name__, value))
    if positional and at is None:
        raise _Usage(command, "the following arguments are required: %s" % positional)
    if extras:
        raise _Usage(None, "unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(command=command, func=func, **args)


def _help(command):
    """The --help lines of a command, or of the program for None: usage first."""
    _func, about, positional, options = _COMMANDS[command] if command else _TOP
    rows = [(c, r[1]) for c, r in _COMMANDS.items() if not command] + [(
        o if r[1] is None else "%s {%s}" % (o, ",".join(r[1])) if isinstance(r[1], tuple)
        else "%s %s" % (o, r[0].upper()), r[3]) for o, r in options.items()]
    words = [command, "[-h]"] + ["[%s]" % form for form, _text in rows] + [positional or ""]
    usage = " ".join(words).rstrip() if command else "[-h] {%s} ..." % ",".join(_COMMANDS)
    rows.append(("-h, --help", "show this help message and exit"))
    return ["usage: ellgenus " + usage, "", about, ""] + ["  %-28s %s" % r for r in rows]

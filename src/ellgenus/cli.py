"""Command-line surface: catalog inspection, formula emission, numeric chi_q
evaluation and the self-verification suite (README "Command line").

This front holds ``main``, ``run`` (the console entry point), ``UsageError``,
``json`` and the six public readers and writers of files and series, each a
call into ``_cli``.  ``_cli`` holds the rest: the option table, the argv
reader, --help, the ``cmd_*`` handlers and the readers' bodies.  It is
imported on the first call that needs it, and ``__getattr__`` serves its
names from here (``cli._read``, ``cli.cmd_q``).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (a fault of the program, never of the input).  All numbers
are emitted as exact rational strings; series round-trip losslessly
through the JSON record schema.
"""

import sys

_cli = None  # the ``_cli`` module, once ``_impl`` has imported it


class UsageError(ValueError):
    """Bad arguments, unknown family, or a malformed input file."""


def series_to_records(series):
    """One {"t_deg", "terms", "y_deg"} record per homogeneous block, with terms
    [{"coeff": "num/den", "exps": {var: exp}}] in sorted order."""
    return emit_series_json(series)["records"]


def emit_series_json(series):
    """The parse of ``q --format json``'s text: {"qmax", "records", "wmax"},
    each dict's keys in sorted order."""
    return _json().loads(_impl()._series_json_text(series))


def parse_series_json(data):
    """The series of a JSON record set (README "Input file formats")."""
    return _impl()._parse_series_json(data)


def load_fibration_spec(path):
    """The ``FibrationSpec`` of a spec file (README "Input file formats")."""
    return _impl()._load_fibration_spec(path)


def load_base_spec(path):
    """The ``BaseSpec`` of a base file (README "Input file formats")."""
    return _impl()._load_base_spec(path)


def parse_base_arg(text):
    """The ``BaseSpec`` of a --base value: pd:<d>:<n> means P^d with L = O(n)."""
    return _impl()._parse_base_arg(text)


def _impl():
    """The ``_cli`` module, imported on first use and then held."""
    global _cli
    if _cli is None:
        from . import _cli
    return _cli


def __getattr__(name):
    """``json`` (``_json``) and each name of ``_cli``, loaded on first use; no
    dunder, which the import system probes (``__path__``), loads ``_cli``."""
    if name == "json":
        return _json()
    if name[:2] != "__" and hasattr(_impl(), name):
        return getattr(_cli, name)
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


def main(argv=None):
    impl = _impl()
    try:
        args = impl._read(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except impl._Usage as exc:  # a refused command line, or -h or --help
        command, message = exc.args
        if message is None:
            print("\n".join(impl._help(command)))
            return 0
        prog = "ellgenus %s" % command if command else "ellgenus"
        print("%s\n%s: error: %s" % (impl._help(command)[0], prog, message), file=sys.stderr)
        return 2
    except UsageError as exc:  # bad input
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":  # run the module that ``_cli`` imports, not this copy
    from ellgenus.cli import run

    run()

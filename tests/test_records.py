"""The four spec records, ``RootForm``, ``BundleSpec``, ``FibrationSpec`` and
``BaseSpec``: value equality and hashing, their repr, keyword construction,
frozen fields, copies, positional ``match``, and an import of the package
that loads none of the stdlib's code-introspection modules, nor
``__future__``, nor what only some commands use: the verify suites (and
their ``random``) and ``json``.  The package serves ``run_suites`` from
``verify`` on first use.  The command line loads no ``argparse`` (nor its
``gettext``) at all."""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellgenus import CATALOG, BaseSpec, BundleSpec, FibrationSpec, RootForm

SRC = Path(__file__).resolve().parents[1] / "src"
P2_O3 = {(("L", 2),): 9, (("L", 1), ("c1", 1)): 9, (("c1", 2),): 9, (("c2", 1),): 3}


def _records():
    """One fresh record of each kind that has no table."""
    return [
        RootForm(2, -3),
        BundleSpec((0, 1, 1, 1)),
        FibrationSpec("E7", BundleSpec((0, 1, 2, 2)), (RootForm(2, 2), RootForm(2, 4))),
        FibrationSpec("P1", BundleSpec([0, 1]), []),
    ]


def test_equal_records_are_equal_and_hash_alike():
    for x, y in zip(_records(), _records()):
        assert x is not y
        assert x == y and not (x != y) and hash(x) == hash(y)
    assert _records()[2] == CATALOG["E7"]
    assert RootForm(1, 2) != RootForm(2, 1)
    assert BundleSpec((0, 1)) != BundleSpec((1, 0))
    e6 = CATALOG["E6"]
    assert FibrationSpec("E6'", e6.bundle, e6.n_roots) != e6
    assert len({RootForm(1, 2), RootForm(1, 2), RootForm(2, 1)}) == 2


def test_another_class_is_not_implemented():
    base = BaseSpec.projective_space(2, 3)
    for record, other in [
        (RootForm(1, 2), (1, 2)),
        (BundleSpec((1, 2)), (1, 2)),
        (RootForm(1, 2), BundleSpec((1, 2))),
        (CATALOG["E8"], "E8"),
        (base, 2),
    ]:
        assert record.__eq__(other) is NotImplemented
        assert record != other and other != record


def test_repr_strings():
    assert repr(RootForm(2, -3)) == "RootForm(a=2, b=-3)"
    assert repr(BundleSpec([0, 1])) == "BundleSpec(exps=(0, 1))"
    assert repr(CATALOG["E6"]) == (
        "FibrationSpec(name='E6', bundle=BundleSpec(exps=(0, 1, 1)), "
        "n_roots=(RootForm(a=3, b=3),))"
    )
    assert repr(BaseSpec(0, {(): Fraction(1, 2)})) == (
        "BaseSpec(dim=0, table=mappingproxy({(): Fraction(1, 2)}))"
    )
    assert repr(BaseSpec.projective_space(1, 2)) == (
        "BaseSpec(dim=1, table=mappingproxy({(('c1', 1),): Fraction(2, 1), "
        "(('L', 1),): Fraction(2, 1)}))"
    )


def test_keyword_construction():
    assert RootForm(a=1, b=2) == RootForm(1, 2)
    assert BundleSpec(exps=[0, 1]) == BundleSpec((0, 1))
    spec = FibrationSpec(
        name="E6", bundle=BundleSpec(exps=(0, 1, 1)), n_roots=[RootForm(a=3, b=3)]
    )
    assert spec == CATALOG["E6"] and type(spec.n_roots) is tuple
    assert BaseSpec(dim=2, table=P2_O3) == BaseSpec(2, P2_O3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RootForm(1.0, 2), TypeError, "'float' object cannot be interpreted"),
        (lambda: RootForm(1), TypeError, "missing 1 required positional argument: 'b'"),
        (lambda: BundleSpec(()), ValueError, "bundle needs rank >= 1"),
        (lambda: BundleSpec((0, 1.5)), TypeError, "float"),
        (
            lambda: FibrationSpec("x", BundleSpec((0, 1)), (RootForm(0, 1),)),
            ValueError,
            "normal-bundle roots need a positive H part",
        ),
        (
            lambda: FibrationSpec("x", BundleSpec((0, 1)), (RootForm(1, 0),) * 2),
            ValueError,
            "more normal roots than fiber directions",
        ),
        (lambda: BaseSpec(-1, {}), ValueError, "dimension must be >= 0"),
        (lambda: BaseSpec(2.0, P2_O3), TypeError, "float"),
        (lambda: BaseSpec(1, None), ValueError, "a base needs an intersection table"),
        (lambda: BaseSpec(1, P2_O3), ValueError, "has weight != 1"),
        (lambda: BaseSpec(2, {(("c2", 1),): 0.5}), TypeError, "got 0.5"),
    ],
)
def test_construction_errors_keep_their_class_and_message(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("mono", [(("H", 2),), (("L", 1), ("H", 1))], ids=["H^2", "L*H"])
def test_a_table_monomial_with_a_factor_h_is_refused(mono):
    # H is the hyperplane class of P(E), not a base class: no pairing reads
    # it, so a base that kept it would give P^2's chi values with L = O(3)
    # and yet compare unequal to that base
    message = "table monomial %r has a factor H, not a base class" % (mono,)
    with pytest.raises(ValueError, match=re.escape(message)):
        BaseSpec(2, {**P2_O3, mono: 5})
    assert BaseSpec(2, P2_O3) == BaseSpec.projective_space(2, 3)


def test_fields_cannot_be_assigned_or_deleted():
    bases = [BaseSpec.projective_space(2, 3), BaseSpec(2, P2_O3)]
    for record in _records() + bases:
        for name in record.__match_args__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert bases[0] == bases[1]  # the lazy table is still read on demand


def test_copies_and_pickles_are_equal():
    for record in _records():
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)
    read = BaseSpec.projective_space(2, 3)
    read.table  # builds the lazy table, which a fresh one does not hold yet
    bases = [BaseSpec.projective_space(2, 3), read, BaseSpec(2, P2_O3)]
    bases.append(BaseSpec(0, {(): 1}))
    assert "table" not in vars(bases[0]) and "table" in vars(read)
    for base in bases:
        for clone in (
            copy.copy(base),
            copy.deepcopy(base),
            pickle.loads(pickle.dumps(base)),
        ):
            assert clone == base and hash(clone) == hash(base)
            assert dict(clone.table) == dict(base.table)


def test_positional_match():
    match RootForm(2, 5):
        case RootForm(a, b):
            assert (a, b) == (2, 5)
    match CATALOG["E8"]:
        case FibrationSpec(name, BundleSpec(exps), (RootForm(a, b),)):
            assert (name, exps, a, b) == ("E8", (0, 2, 3), 3, 6)
    match BaseSpec.projective_space(2, 3):
        case BaseSpec(dim, table):
            assert dim == 2 and dict(table) == P2_O3


def test_base_hash_ignores_the_table():
    lazy, other = BaseSpec.projective_space(2, 3), BaseSpec.projective_space(2, 5)
    eager = BaseSpec(2, P2_O3)
    assert hash(lazy) == hash(other) == hash(eager)
    assert lazy != other
    assert lazy == eager and eager == lazy  # a lazy table against an eager one
    assert BaseSpec.projective_space(2, 3) == lazy
    assert BaseSpec(2, {**P2_O3, (("c2", 1),): Fraction(7, 2)}) != eager
    assert len({lazy, other, eager}) == 2


INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize", "__future__")
DEFERRED = ("ellgenus.verify", "random", "json", "ellgenus._cli")
NEVER = ("argparse", "gettext")


def _fresh_import_loads(names, source="import ellgenus, ellgenus.cli"):
    """Which of ``names`` a fresh interpreter loads to run ``source``.  The
    test process has loaded all of them already; with no site hooks (-S),
    none is loaded before the import."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "%s\n"
        "print(' '.join(m for m in %r if m in set(sys.modules) - before))\n"
        % (source, names)
    )
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return proc.stdout.split()


def test_import_loads_no_introspection_module():
    assert _fresh_import_loads(INTROSPECTION + DEFERRED + NEVER) == []


def test_the_deferred_modules_load_on_first_use():
    # negative control: the fresh-import check sees each deferred module; the
    # command line loads through a name that only it holds, since a main call
    # would print to the stdout that the check reads
    source = ("import ellgenus, ellgenus.cli; ellgenus.run_suites; ellgenus.cli.json; "
              "ellgenus.cli._read")
    assert _fresh_import_loads(DEFERRED, source) == list(DEFERRED)


def test_the_command_line_never_loads_argparse():
    # a clean call of each command, usage errors and the help, with both
    # streams redirected; importing argparse itself is the negative control
    calls = [["q", "E8", "--format", "json"], ["ptable", "D5", "--check"],
             ["chi", "E8", "--base", "pd:2:3"], ["verify", "--family", "D5"],
             ["q", "E8", "--wmax", "-1"], ["nosuch"], ["q", "--wm"], ["--help"]]
    source = (
        "import contextlib, io, ellgenus, ellgenus.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [ellgenus.cli.main(argv) for argv in %r]\n"
        "assert codes == [0, 0, 0, 0, 2, 2, 2, 0], codes" % (calls,)
    )
    assert _fresh_import_loads(NEVER, source) == []
    assert _fresh_import_loads(NEVER, source + "\nimport argparse") == list(NEVER)


def test_run_suites_is_public_and_served_from_verify():
    import ellgenus
    from ellgenus import verify

    assert ellgenus.run_suites is verify.run_suites
    assert "run_suites" in ellgenus.__all__ and "run_suites" in dir(ellgenus)
    star = {}
    exec("from ellgenus import *", star)
    assert set(ellgenus.__all__) <= set(star) and star["run_suites"] is verify.run_suites
    with pytest.raises(AttributeError, match="no_such_name"):
        ellgenus.no_such_name


def test_the_command_line_is_served_from_its_front():
    # each name of _cli reads through ellgenus.cli, a handler as the very
    # object that the option table holds; the six counted readers and
    # writers are the front's own functions; a dunder, which the import
    # system probes, or an unknown name raises naming ellgenus.cli
    from ellgenus import _cli, cli
    from ellgenus.cli import _integer

    assert cli._impl() is _cli and _integer is _cli._integer
    assert [getattr(cli, "cmd_" + c) for c in _cli._COMMANDS] == [
        row[0] for row in _cli._COMMANDS.values()]
    for name in ("load_base_spec", "load_fibration_spec", "parse_base_arg",
                 "parse_series_json", "series_to_records", "emit_series_json"):
        assert vars(cli)[name].__module__ == "ellgenus.cli" and name not in vars(_cli)
    assert not hasattr(cli, "__path__")
    with pytest.raises(AttributeError, match="'ellgenus.cli' has no attribute 'no_such_name'"):
        cli.no_such_name
